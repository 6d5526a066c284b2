"""The benchmark's workloads: seeded inputs, the timed library calls, and the
check of every output against the oracles in ``pb_oracles``.

Every workload is a closed loop with one caller. Its inputs come in rounds:
``rounds(rng)`` yields lists of ``Op``; the runner times ``Op.call`` only
and then hands the result to ``Op.check``, which returns how many of the
op's units (lattice points, or 1 for a single call) are wrong. Checks never
call into ``hypercnot``, so a traced run counts library work only.
"""

from __future__ import annotations

import hashlib
import itertools
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from hypercnot import analysis, cavity, cli, hilbert, protocols

import pb_oracles as oracles

GAMMA = 0.1
STANDARD_G = np.linspace(0.0, 3.0, 101)
STANDARD_KS = np.linspace(0.0, 2.0, 101)
FORMULA_GAMMAS = ("0.02", "0.05", "0.1", "0.15", "0.2", "0.3")
SIDE_LEAKAGE_WARNING = 1.3

PHOTON_NAMES = (("R", "L"), ("a1", "a2"), ("R", "L"), ("b1", "b2"))


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], int]
    units: int = 1
    out_path: Path | None = None


@dataclass
class Tally:
    """Per-op timings and verdicts of the ops one loop ran."""

    elapsed_s: list[float] = field(default_factory=list)
    units_per_op: list[int] = field(default_factory=list)
    failed_per_op: list[int] = field(default_factory=list)
    bytes_out: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(self.units_per_op)

    @property
    def failed(self) -> int:
        return sum(self.failed_per_op)

    def run(self, op: Op) -> None:
        """Time one op, check it, and count it; an op that raises counts as failed."""
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # the loop must go on; the failure is counted and kept
            self._record(op, time.perf_counter() - t0, op.units, traceback.format_exc())
            return
        elapsed = time.perf_counter() - t0
        if op.out_path is not None and op.out_path.is_file():
            self.bytes_out += op.out_path.stat().st_size
        try:
            failed = op.check(out)
            error = f"{op.kind}: {failed} of {op.units} units wrong" if failed else None
        except Exception:
            failed, error = op.units, traceback.format_exc()
        self._record(op, elapsed, failed, error)

    def _record(self, op: Op, elapsed: float, failed: int, error: str | None) -> None:
        self.elapsed_s.append(elapsed)
        self.units_per_op.append(op.units)
        self.failed_per_op.append(failed)
        if error and len(self.errors) < 5:
            self.errors.append(error)


# -- sim_sweep -----------------------------------------------------------------


def _window(rng: np.random.Generator, n: int) -> np.ndarray:
    """n evenly strided indices into a 101-point axis."""
    stride = int(rng.integers(1, 100 // (n - 1) + 1))
    start = int(rng.integers(0, 100 - (n - 1) * stride + 1))
    return start + stride * np.arange(n)


class SimSweep:
    """Circuit-level sweeps over seeded sub-lattices of the standard lattice."""

    name = "sim_sweep"

    def __init__(self, out_dir: Path) -> None:
        self.points = 0
        self.points_above_warning = 0

    def warm_up(self) -> None:
        analysis.sweep((2.4, 2.4), (0.2, 0.2), 1, GAMMA, include_simulation=True)

    def rounds(self, rng: np.random.Generator) -> Iterator[list[Op]]:
        while True:
            n = int(rng.integers(10, 12))
            gi, ki = _window(rng, n), _window(rng, n)
            self.points += n * n
            self.points_above_warning += n * int(np.sum(STANDARD_KS[ki] >= SIDE_LEAKAGE_WARNING))
            yield [self._op(gi, ki)]

    def _op(self, gi: np.ndarray, ki: np.ndarray) -> Op:
        g_range = (float(STANDARD_G[gi[0]]), float(STANDARD_G[gi[-1]]))
        ks_range = (float(STANDARD_KS[ki[0]]), float(STANDARD_KS[ki[-1]]))
        n = len(gi)

        def call():
            return analysis.sweep(g_range, ks_range, n, GAMMA, include_simulation=True)

        def check(result) -> int:
            if len(result.grid) != n * n:
                return n * n
            table = oracles.lattice_f_sim()
            failed = 0
            for point, (i, j) in zip(result.grid, itertools.product(gi, ki)):
                g, ks = STANDARD_G[i], STANDARD_KS[j]
                f_cf, eta_cf = oracles.closed_form(g, ks, GAMMA)
                failed += not (
                    abs(point.g_over_kappa - g) <= 1e-12
                    and abs(point.kappa_s_over_kappa - ks) <= 1e-12
                    and abs(point.F_sim - table[i, j]) <= oracles.F_SIM_TOL
                    and abs(point.eta_sim - eta_cf) <= oracles.ETA_TOL
                    and abs(point.F_formula - f_cf) <= oracles.FORMULA_TOL
                    and abs(point.eta_formula - eta_cf) <= oracles.FORMULA_TOL
                )
            return failed

        return Op("sweep", call, check, units=n * n)


# -- formula_sweep ---------------------------------------------------------------


class FormulaSweep:
    """The CLI's closed-form 101x101 sweep written to a CSV file, repeated."""

    name = "formula_sweep"
    UNITS = 101 * 101

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "sweep.csv"

    def warm_up(self) -> None:
        cli.main(["sweep", "--resolution", "3", "--out", str(self.path)])

    def rounds(self, rng: np.random.Generator) -> Iterator[list[Op]]:
        digests = oracles.reference()["formula_sweep_sha256"]
        while True:
            gamma = FORMULA_GAMMAS[int(rng.integers(len(FORMULA_GAMMAS)))]
            yield [self._op(gamma, digests[gamma])]

    def _op(self, gamma: str, digest: str) -> Op:
        path = self.path
        argv = ["sweep", "--gamma", gamma, "--out", str(path)]

        def check(exit_code) -> int:
            data = path.read_bytes()
            path.unlink()  # the next call must write the file afresh
            ok = exit_code == 0 and hashlib.sha256(data).hexdigest() == digest
            return 0 if ok else self.UNITS

        return Op("cli_sweep", lambda: cli.main(argv), check, units=self.UNITS, out_path=path)


# -- gate_apps ---------------------------------------------------------------------


def _names(bits) -> tuple[str, ...]:
    return tuple(names[b] for names, b in zip(PHOTON_NAMES, bits))


def _basis_bits(x: int) -> tuple[int, int, int, int]:
    return ((x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1)


def _run_ok(run, kraus, psi, ideal: bool, weights=None) -> bool:
    """One GateRun against the oracle branch (and the CNOT permutation when ideal)."""
    weights = weights or oracles.branch_weights(kraus, psi)
    total = sum(weights.values())
    o = run.spin_outcomes
    final = run.final_state.amplitudes
    ok = (
        run.mode == ("ideal" if ideal else "physical")
        and weights[o] > 0.0
        and abs(run.survival_probability - total) <= oracles.PROBABILITY_TOL
        and abs(run.branch_probability - weights[o] / total) <= oracles.PROBABILITY_TOL
        and oracles.fidelity(final, kraus[o] @ psi) >= 1 - oracles.STATE_FIDELITY_TOL
    )
    if ideal:
        want = oracles.cnot_permutation() @ psi
        ok = ok and oracles.fidelity(final, want) >= 1 - oracles.STATE_FIDELITY_TOL
    return ok


@dataclass
class _Point:
    """One operating point: the library's reflection pair and the oracle's view of it."""

    reflection: object  # hypercnot ReflectionPair, or None for ideal mode
    kraus: dict
    cluster: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.cluster = oracles.cluster_state(self.kraus)

    @property
    def ideal(self) -> bool:
        return self.reflection is None


class GateApps:
    """Single-state gate applications at seeded operating points.

    A round holds four physical operating points, each serving fourteen
    calls, plus ideal-mode calls (a quarter of all calls), two truth tables
    and four runs of each published benchmark point, in seeded order. The
    mix is fixed per round, so a round's cost does not depend on the seed,
    and the shares put the median inside the cheapest kind of call (gate
    runs) and the 90th percentile inside the benchmark-point runs, away from
    the edges between kinds.
    """

    name = "gate_apps"
    POINTS_PER_ROUND = 4
    PER_POINT = (("enumerate", 6), ("sample", 5), ("bell", 2), ("cluster", 1))
    IDEAL = (("enumerate", 8), ("sample", 8), ("bell", 6), ("cluster", 1))
    PAPER_RUNS = 4

    def __init__(self, out_dir: Path) -> None:
        self.registers = protocols.photon_registers("a") + protocols.photon_registers("b")

    def warm_up(self) -> None:
        protocols.bell_decoding_table()
        reflection = cavity.ReflectionPair.from_params(cavity.CavityParams(g=2.4, gamma=GAMMA))
        joint = protocols.uniform_two_photon_state()
        protocols.hyper_cnot_state(joint, reflection)
        protocols.hyper_cnot_state(joint, reflection, branch_mode="sample", seed=0)
        protocols.analyze_hyper_bell(protocols.HyperBellState(0, 0), reflection)
        protocols.prepare_cluster_stages(reflection)
        analysis.reference_check(GAMMA)
        analysis.simulated_performance(cavity.CavityParams(g=2.4, gamma=GAMMA))

    def rounds(self, rng: np.random.Generator) -> Iterator[list[Op]]:
        ideal = _Point(None, oracles.ideal_kraus())
        while True:
            points = [self._operating_point(rng) for _ in range(self.POINTS_PER_ROUND)]
            ops = []
            for point in points:
                for kind, count in self.PER_POINT:
                    ops += [self._op(kind, point, rng) for _ in range(count)]
            for kind, count in self.IDEAL:
                ops += [self._op(kind, ideal, rng) for _ in range(count)]
            ops.append(self._truth_table(points[int(rng.integers(len(points)))]))
            ops.append(self._truth_table(ideal))
            ops += [self._paper_point(i) for i in range(4) for _ in range(self.PAPER_RUNS)]
            yield [ops[i] for i in rng.permutation(len(ops))]

    def _operating_point(self, rng: np.random.Generator) -> _Point:
        """g in [0.3, 3], kappa_s < 1.3, where the lossy gate still decodes.

        In parts of that box the relative reflection phase is too far from
        -pi/2 and the physical gate is not a CNOT at all; the oracle finds
        those points and they are drawn again.
        """
        while True:
            g, ks = rng.uniform(0.3, 3.0), rng.uniform(0.0, SIDE_LEAKAGE_WARNING)
            kraus = oracles.kraus_operators(*oracles.reflections(g, ks, GAMMA))
            if oracles.gate_decodes(kraus):
                params = cavity.CavityParams(g=float(g), kappa_s=float(ks), gamma=GAMMA)
                return _Point(cavity.ReflectionPair.from_params(params), kraus)

    def _joint(self, rng: np.random.Generator):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        return hilbert.StateVector(self.registers, v), v

    def _op(self, kind: str, point: _Point, rng: np.random.Generator) -> Op:
        refl, kraus, ideal = point.reflection, point.kraus, point.ideal
        if kind == "enumerate":
            joint, psi = self._joint(rng)

            def check(runs) -> int:
                weights = oracles.branch_weights(kraus, psi)
                total = sum(weights.values())
                want = {o for o in oracles.BRANCHES if weights[o] > total * 1e-12}
                if not want <= {run.spin_outcomes for run in runs}:
                    return 1
                return int(not all(_run_ok(run, kraus, psi, ideal, weights) for run in runs))

            return Op(kind, lambda: protocols.hyper_cnot_state(joint, refl), check)
        if kind == "sample":
            joint, psi = self._joint(rng)
            seed = int(rng.integers(2**31))
            return Op(
                kind,
                lambda: protocols.hyper_cnot_state(joint, refl, branch_mode="sample", seed=seed),
                lambda run: int(not _run_ok(run, kraus, psi, ideal)),
            )
        if kind == "bell":
            p, s = int(rng.integers(4)), int(rng.integers(4))
            spec = protocols.HyperBellState(p, s)
            pattern = _names(oracles.bell_pattern(kraus, p, s)[0])

            def check(result) -> int:
                ok = (result.pol_index, result.spatial_index) == (p, s) and result.pattern == pattern
                if ideal:
                    ok = ok and result.deterministic and result.min_outcome_probability >= 1 - 1e-9
                return int(not ok)

            return Op(kind, lambda: protocols.analyze_hyper_bell(spec, refl), check)
        if kind == "cluster":
            return Op(
                kind,
                lambda: protocols.prepare_cluster_stages(refl),
                lambda stages: int(
                    oracles.fidelity(stages.cluster.amplitudes, point.cluster)
                    < 1 - oracles.STATE_FIDELITY_TOL
                ),
            )
        raise ValueError(f"unknown op kind {kind!r}")

    def _truth_table(self, point: _Point) -> Op:
        perm = oracles.cnot_permutation()
        expected = [
            (_names(_basis_bits(x)), _names(_basis_bits(int(np.argmax(perm[:, x])))))
            for x in range(16)
        ]

        def check(rows) -> int:
            got = [(row.input_names, row.expected_names) for row in rows]
            ok = sorted(got) == sorted(expected) and all(
                row.ok and row.observed_names == row.expected_names for row in rows
            )
            if point.ideal:
                ok = ok and all(row.min_fidelity >= 1 - oracles.STATE_FIDELITY_TOL for row in rows)
            return int(not ok)

        refl = point.reflection
        return Op("truth_table", lambda: protocols.truth_table(refl), check)

    def _paper_point(self, index: int) -> Op:
        """One point of ``paper-check --simulate``: the published table plus one circuit run."""
        ref = oracles.reference()["paper_points"][index]
        params = dict(g=ref["g_over_kappa"], kappa_s=ref["kappa_s_over_kappa"], gamma=GAMMA)

        def call():
            rows = analysis.reference_check(GAMMA)
            return rows, analysis.simulated_performance(cavity.CavityParams(**params))

        def check(out) -> int:
            rows, (f_sim, eta_sim) = out
            published = oracles.reference()["paper_points"]
            ok = len(rows) == len(published)
            for row, pub in zip(rows, published):
                f_cf, eta_cf = oracles.closed_form(pub["g_over_kappa"], pub["kappa_s_over_kappa"], GAMMA)
                ok = ok and (
                    abs(row.fidelity_computed - f_cf) <= oracles.FORMULA_TOL
                    and abs(row.efficiency_computed - eta_cf) <= oracles.FORMULA_TOL
                    and abs(f_cf - pub["F_published"]) <= oracles.PAPER_TOL
                    and abs(eta_cf - pub["eta_published"]) <= oracles.PAPER_TOL
                )
            eta_cf = oracles.closed_form(params["g"], params["kappa_s"], GAMMA)[1]
            ok = ok and abs(f_sim - ref["F_sim"]) <= oracles.F_SIM_TOL
            ok = ok and abs(eta_sim - eta_cf) <= oracles.ETA_TOL
            return int(not ok)

        return Op("paper_point", call, check)


WORKLOADS = {w.name: w for w in (SimSweep, FormulaSweep, GateApps)}
