"""Self-tests of the benchmark's tracer, oracles and failure counting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hypercnot  # noqa: E402
from hypercnot import analysis, cavity, protocols  # noqa: E402

import pb_calibrate  # noqa: E402
import pb_oracles as oracles  # noqa: E402
from pb_tracer import LAYERS, METHODS, Tracer, self_times  # noqa: E402
from pb_workloads import GateApps, Op, SimSweep, Tally  # noqa: E402


def test_self_times_on_synthetic_call_tree():
    # root 0..100 with children a 10..40 (itself holding c 15..25) and b 50..90
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    own = self_times(parent, (end - start).astype(float))
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0]
    assert own.sum() == 100.0  # self times partition the root span


def _bindings():
    """Every attribute of every hypercnot namespace and traced class."""
    owners = [m for n, m in sys.modules.items() if n == "hypercnot" or n.startswith("hypercnot.")]
    for layer, methods in METHODS.items():
        owners += [getattr(sys.modules[f"hypercnot.{layer}"], cls) for cls, _ in methods]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert protocols.apply_operator is not before[(id(protocols), "apply_operator")]
        protocols.truth_table(None)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.summary()["functions"]["protocols.hyper_cnot_state"]["calls"] == 16


def test_tracer_sees_calls_through_every_binding():
    tracer = Tracer()
    with tracer:
        params = cavity.CavityParams(g=2.4, kappa_s=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis.simulated_performance(params)
    groups = tracer.summary()["groups"]
    # seed counts of one simulated point: ideal and physical gate runs
    assert groups["hilbert.apply_operator"]["calls"] == 36
    assert groups["hilbert.state_build"]["calls"] == 83
    assert groups["protocols.stage_matrix"]["calls"] == 8
    assert tracer.flagged["protocols.hyper_cnot_state"] == 1
    assert {name.split(".")[0] for name in tracer.names} <= set(LAYERS)


def test_corrupted_output_is_counted_and_the_loop_goes_on(tmp_path):
    workload = GateApps(tmp_path)
    ops = next(workload.rounds(np.random.default_rng(3)))
    gate_ops = [op for op in ops if op.kind == "enumerate"]
    other_ops = [op for op in ops if op.kind in ("bell", "cluster")]

    def corrupt(op: Op) -> Op:
        def call():
            runs = op.call()
            state = runs[0].final_state
            flipped = hypercnot.StateVector(state.registers, state.amplitudes[::-1])
            return [dataclasses.replace(runs[0], final_state=flipped)] + runs[1:]

        return dataclasses.replace(op, call=call)

    def raising(op: Op) -> Op:
        def call():
            raise RuntimeError("injected")

        return dataclasses.replace(op, call=call)

    tally = Tally()
    for op in [corrupt(gate_ops[0]), raising(other_ops[0])] + gate_ops[1:] + other_ops[1:]:
        tally.run(op)
    assert tally.units == len(gate_ops) + len(other_ops)
    assert tally.failed == 2
    assert len(tally.elapsed_s) == tally.units
    assert any("injected" in e for e in tally.errors)


@pytest.mark.filterwarnings("ignore:kappa_s")
def test_wrong_sweep_point_fails_only_that_point(tmp_path):
    workload = SimSweep(tmp_path)
    op = next(workload.rounds(np.random.default_rng(5)))[0]
    result = op.call()
    grid = list(result.grid)
    grid[3] = dataclasses.replace(grid[3], F_sim=grid[3].F_sim + 1e-9)
    assert op.check(result) == 0
    assert op.check(dataclasses.replace(result, grid=grid)) == 1


def test_ideal_oracle_is_the_cnot_permutation():
    perm = oracles.cnot_permutation()
    for kraus in oracles.ideal_kraus().values():
        product = kraus @ perm.T  # a global phase times identity, per branch
        assert np.allclose(product, product[0, 0] * np.eye(16), atol=1e-12)
        assert abs(abs(product[0, 0]) - 0.5) < 1e-12


@pytest.mark.parametrize("i, j", [(0, 0), (17, 64), (50, 100), (100, 33), (81, 12)])
def test_oracle_reproduces_recorded_lattice_fidelity(i, j):
    g, ks = 0.03 * i, 0.02 * j
    kraus = oracles.kraus_operators(*oracles.reflections(g, ks))
    psi = np.full(16, 0.25)
    weights = oracles.branch_weights(kraus, psi)
    total = sum(weights.values())
    ideal = oracles.cnot_permutation() @ psi
    f_sim = sum(w / total * oracles.fidelity(kraus[o] @ psi, ideal) for o, w in weights.items())
    assert abs(f_sim - oracles.lattice_f_sim()[i, j]) < 1e-11
    assert abs(total - oracles.closed_form(g, ks)[1]) < 1e-12


def test_calibration_factor_brackets_the_work():
    blocks = [pb_calibrate.NOMINAL_BLOCK_S, 3 * pb_calibrate.NOMINAL_BLOCK_S]
    assert pb_calibrate.factors(blocks).tolist() == [0.5]
