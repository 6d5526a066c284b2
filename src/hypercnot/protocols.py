"""Multi-stage gate protocols: the hyper-CNOT with spin measurement and
feed-forward, cluster-state preparation, and hyperentangled-Bell-state
analysis.

Circuit structure
-----------------
Each photon makes two passes through dot-cavity units. One pass couples the
photon's spatial mode to the first spin, the other couples its polarization
to the second spin. The spatial pass hides the polarization from the cavity
with a CPBS / bit-flip-plate sandwich: the two polarization components are
routed so that both scatter in the same circular branch, which turns the
pass into a pure (path, spin) interaction. Composed, both passes reduce to
the same diagonal on (path-or-pol, spin), built directly by pass_matrix:

    diag(r_cold, r_hot, -i r_hot, -i r_cold)

where the -i comes from the phase plate placed in the second path (spatial
pass) or acting on L (polarization pass). The tests derive this diagonal
from the sandwich pieces once. With the ideal reflections (-i, 1) this is
diag(-i, 1, -i, -1): a controlled-Z up to a spin-local phase that the spin
preparation absorbs.

The target photon is framed by Hadamards on both degrees of freedom, the
spins are rotated between the two photons' passes and measured at the end,
and classically conditioned sign flips on the control photon make every
measurement branch yield the same corrected output: a CNOT on the spatial
modes and a CNOT on the polarizations, both controlled by photon a.

Two representations of the gate
-------------------------------
The step path (_circuit_checkpoints, hyper_cnot_state, GateRun) pushes one
labelled StateVector through the circuit one operator at a time. It yields
the named checkpoints, measurement sampling and enumerated GateRuns, and it
is the reference the other representation is tested against.

The compiled engine treats the reflections as symbols. Each of the four
cavity passes multiplies every amplitude by exactly one of r_cold and r_hot,
so every corrected branch output is a homogeneous degree-4 polynomial,
sum_k r_cold**k r_hot**(4 - k) C_k. branch_coefficients runs the same 14
stages once per block of m input columns, on a tensor whose axis 0 is the
power of r_cold, with the feed-forward folded in, and returns the C_k.
evaluate_branches turns them into the corrected, unnormalized output of
every spin branch for N reflection pairs with one (N, 5) by (5, ...)
contraction; branch_outputs does both. Given the identity as input, the
outputs are the gate's four 16x16 Kraus operators. Parameter sweeps and
simulated_performance use the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .cavity import ReflectionPair, qd_scatter
from .hilbert import (
    MeasurementRecord,
    Register,
    StateVector,
    apply_operator,
    attach_register,
    discard_register,
    fidelity_up_to_global_phase,
    measure,
    measure_all_branches,
    normalize,
    outcome_weights,
    reorder_registers,
    state_from_terms,
    tensor_product,
    tensor_state,
)
from .optics import ElementKind, apply_element, conditional_element, element_matrix

A_POL = "a.pol"
A_SPATIAL = "a.spatial"
B_POL = "b.pol"
B_SPATIAL = "b.spatial"
SPIN_1 = "e1"
SPIN_2 = "e2"

PHOTON_LABELS = (A_POL, A_SPATIAL, B_POL, B_SPATIAL)


def photon_registers(name: str) -> tuple[Register, Register]:
    """Polarization and spatial-mode registers of one photon."""
    return (
        Register(f"{name}.pol", ("R", "L")),
        Register(f"{name}.spatial", (f"{name}1", f"{name}2")),
    )


def spin_register(label: str) -> Register:
    return Register(label, ("up", "down"))


def photon_state(name: str, pol_pair, spatial_pair) -> StateVector:
    """Product state of one photon's two degrees of freedom."""
    pol, spatial = photon_registers(name)
    return tensor_state([(pol, pol_pair), (spatial, spatial_pair)])


def uniform_two_photon_state() -> StateVector:
    """Both photons in the uniform superposition of both degrees of freedom."""
    plus = (1 / np.sqrt(2.0), 1 / np.sqrt(2.0))
    return tensor_product(
        photon_state("a", plus, plus), photon_state("b", plus, plus)
    )


# -- the cavity pass -----------------------------------------------------


# One cavity pass is diagonal on (path-or-polarization, spin), basis order
# (0, up), (0, down), (1, up), (1, down). Entry j is r_cold where
# _PASS_COLD[j], else r_hot, times -i where _PASS_TURNED[j]. The step path
# (pass_matrix) and the compiled engine (_cavity_pass) both read this table.
_PASS_COLD = (True, False, False, True)
_PASS_TURNED = (False, False, True, True)


def pass_matrix(reflection: ReflectionPair | None = None) -> np.ndarray:
    """Operator of one cavity pass on (path-or-polarization, spin).

    ``diag(r_cold, r_hot, -i r_hot, -i r_cold)`` for both kinds of pass (see
    the module docstring); ``reflection=None`` selects the ideal pair.
    """
    refl = reflection if reflection is not None else ReflectionPair.ideal()
    entries = [refl.r_cold if cold else refl.r_hot for cold in _PASS_COLD]
    return np.diag([-1j * r if turned else r for r, turned in zip(entries, _PASS_TURNED)])


# -- the hyper-CNOT gate -------------------------------------------------


@dataclass(frozen=True)
class GateRun:
    """One executed gate branch after spin measurement and feed-forward.

    ``survival_probability`` is the squared norm just before the spin
    measurement (1 in ideal mode); ``branch_probability`` is the chance of
    this spin-outcome pair conditioned on survival. ``feed_forward_ops``
    lists the registers that received a computational sign flip.
    """

    mode: str
    spin_outcomes: tuple[int, int]
    feed_forward_ops: tuple[str, ...]
    final_state: StateVector
    survival_probability: float
    branch_probability: float
    seed: int | None = None


class ZeroSurvivalError(ValueError):
    """Every photon component was lost before the spin measurement."""


def _require_labels(state: StateVector, labels: tuple[str, ...], role: str) -> None:
    missing = [label for label in labels if label not in state.labels]
    if missing:
        raise ValueError(f"{role} is missing registers {missing}; has {state.labels}")


def _check_two_photon_input(joint: StateVector) -> None:
    _require_labels(joint, PHOTON_LABELS, "two-photon input")
    for spin in (SPIN_1, SPIN_2):
        if spin in joint.labels:
            raise ValueError(f"input already contains the internal spin register {spin!r}")


def _circuit_checkpoints(
    joint: StateVector, reflection: ReflectionPair | None
) -> dict[str, StateVector]:
    """Run the circuit up to (not including) the spin measurement."""
    _check_two_photon_input(joint)

    st = attach_register(joint, spin_register(SPIN_1), (1, 0))
    st = attach_register(st, spin_register(SPIN_2), (1, 0))
    st = apply_element(st, ElementKind.SPIN_ROT_PLUS, SPIN_1)
    st = apply_element(st, ElementKind.SPIN_ROT_PLUS, SPIN_2)
    stages: dict[str, StateVector] = {"spins_prepared": st}

    cavity_pass = pass_matrix(reflection)
    st = apply_operator(st, [A_SPATIAL, SPIN_1], cavity_pass)
    stages["control_spatial"] = st
    st = apply_operator(st, [A_POL, SPIN_2], cavity_pass)
    stages["hybrid_cz"] = st

    st = apply_element(st, ElementKind.BS, B_SPATIAL)
    st = apply_element(st, ElementKind.HWP_H, B_POL)
    stages["target_hadamards"] = st

    st = apply_element(st, ElementKind.SPIN_ROT_PLUS, SPIN_1)
    st = apply_element(st, ElementKind.SPIN_ROT_PLUS, SPIN_2)
    stages["spin_rotations"] = st

    st = apply_operator(st, [B_SPATIAL, SPIN_1], cavity_pass)
    st = apply_operator(st, [B_POL, SPIN_2], cavity_pass)
    stages["target_scattered"] = st

    st = apply_element(st, ElementKind.SPIN_H, SPIN_1)
    st = apply_element(st, ElementKind.SPIN_H, SPIN_2)
    stages["spin_hadamards"] = st

    st = apply_element(st, ElementKind.BS, B_SPATIAL)
    st = apply_element(st, ElementKind.HWP_H, B_POL)
    stages["pre_measurement"] = st
    return stages


def hyper_cnot_checkpoints(
    control_state: StateVector,
    target_state: StateVector,
    reflection: ReflectionPair | None = None,
) -> dict[str, StateVector]:
    """Named intermediate states of the circuit, for staged regression tests."""
    _require_labels(control_state, (A_POL, A_SPATIAL), "control photon")
    _require_labels(target_state, (B_POL, B_SPATIAL), "target photon")
    return _circuit_checkpoints(tensor_product(control_state, target_state), reflection)


_SIGN_FLIP = np.diag([1.0, -1.0]).astype(np.complex128)

# register sign-flipped by a down outcome of e1 and of e2, respectively
_FEED_FORWARD_TARGETS = (A_SPATIAL, A_POL)


def feed_forward(
    state: StateVector, outcomes: tuple[int, int]
) -> tuple[StateVector, tuple[str, ...]]:
    """Classically conditioned corrections after the spin measurement.

    A down outcome on e1 flips the sign of the control photon's second
    spatial mode; a down outcome on e2 flips the sign of its L component.
    Returns the corrected state and the registers that were flipped.
    """
    ops = tuple(label for label, outcome in zip(_FEED_FORWARD_TARGETS, outcomes) if outcome == 1)
    for label in ops:
        state = apply_operator(state, [label], _SIGN_FLIP)
    return state, ops


def _finish_branch(
    branch_state: StateVector,
    outcomes: tuple[int, int],
    mode: str,
    survival: float,
    branch_probability: float,
    seed: int | None,
) -> GateRun:
    corrected, ops = feed_forward(branch_state, outcomes)
    final = discard_register(discard_register(corrected, SPIN_2), SPIN_1)
    return GateRun(
        mode=mode,
        spin_outcomes=outcomes,
        feed_forward_ops=ops,
        final_state=normalize(final),
        survival_probability=survival,
        branch_probability=branch_probability,
        seed=seed,
    )


def hyper_cnot_state(
    joint: StateVector,
    reflection: ReflectionPair | None = None,
    branch_mode: str = "enumerate",
    seed: int | None = None,
) -> list[GateRun] | GateRun:
    """Run the gate on a joint two-photon state (any entanglement allowed).

    ``branch_mode="enumerate"`` returns all four spin branches, skipping
    probability-zero ones; ``"sample"`` draws one branch with a seeded PRNG.
    In ideal mode all enumerated branches carry the same corrected state.
    Raises ZeroSurvivalError when no amplitude reaches the spin measurement.
    """
    if branch_mode not in ("enumerate", "sample"):
        raise ValueError(f"branch_mode must be 'enumerate' or 'sample', got {branch_mode!r}")
    mode = "ideal" if reflection is None else "physical"
    pre = _circuit_checkpoints(joint, reflection)["pre_measurement"]
    survival = pre.norm2
    if survival == 0.0:
        raise ZeroSurvivalError(
            "zero survival: no photon amplitude reaches the spin measurement, "
            "so the gate output is undefined"
        )

    if branch_mode == "sample":
        rng = np.random.default_rng(seed)
        rec1, st = measure(pre, SPIN_1, rng)
        rec2, st = measure(st, SPIN_2, rng)
        branch_probability = (rec1.probability / survival) * rec2.probability
        return _finish_branch(
            st, (rec1.outcome, rec2.outcome), mode, survival, branch_probability, seed
        )

    runs = []
    for o1, p1, st1 in measure_all_branches(pre, SPIN_1):
        for o2, p2, st2 in measure_all_branches(st1, SPIN_2):
            if p2 <= 0.0:
                continue
            runs.append(
                _finish_branch(st2, (o1, o2), mode, survival, p2 / survival, None)
            )
    return runs


def hyper_cnot(
    control_state: StateVector,
    target_state: StateVector,
    reflection: ReflectionPair | None = None,
    branch_mode: str = "enumerate",
    seed: int | None = None,
) -> list[GateRun] | GateRun:
    """Run the gate on separate control (photon a) and target (photon b) states."""
    _require_labels(control_state, (A_POL, A_SPATIAL), "control photon")
    _require_labels(target_state, (B_POL, B_SPATIAL), "target photon")
    joint = tensor_product(control_state, target_state)
    return hyper_cnot_state(joint, reflection, branch_mode, seed)


# -- the compiled gate engine --------------------------------------------

# cavity passes in one gate run, hence the degree of the branch polynomials
_GATE_DEGREE = 4

# axes of the engine's coefficient tensor; axis 0 is the power of r_cold and
# the last axis the input column
_AXIS = {A_POL: 1, A_SPATIAL: 2, B_POL: 3, B_SPATIAL: 4, SPIN_1: 5, SPIN_2: 6}


def _element(t: np.ndarray, kind: ElementKind, label: str) -> np.ndarray:
    axis = _AXIS[label]
    return np.moveaxis(np.tensordot(element_matrix(kind), t, axes=(1, axis)), 0, axis)


def _cavity_pass(t: np.ndarray, photon: str, spin: str) -> np.ndarray:
    """One cavity pass on the coefficient tensor, whose axis 0 is the power
    of r_cold: a cold entry moves its amplitude up one power, a hot entry
    keeps it (the power of r_hot is the passes so far minus that of r_cold)."""
    # the photon axis precedes the spin axis, matching pass_matrix's row order
    shape = [1] * t.ndim
    shape[_AXIS[photon]] = shape[_AXIS[spin]] = 2
    cold = np.reshape(_PASS_COLD, shape)
    phase = np.where(np.reshape(_PASS_TURNED, shape), -1j, 1)
    raised = np.concatenate([np.zeros_like(t[:1]), t[:-1]])
    return np.where(cold, raised, t) * phase


def photon_columns(joint: StateVector) -> np.ndarray:
    """Amplitudes of a joint input as engine columns, shape (16, m).

    Rows follow PHOTON_LABELS (most significant first); registers beyond the
    four photon ones become the m = 2**k columns, in their input order.
    """
    _check_two_photon_input(joint)
    rest = [label for label in joint.labels if label not in PHOTON_LABELS]
    return reorder_registers(joint, list(PHOTON_LABELS) + rest).amplitudes.reshape(16, -1)


def branch_coefficients(photons) -> np.ndarray:
    """The gate compiled for one block of inputs: polynomial coefficients of
    every corrected branch output in the reflection amplitudes.

    Each of the four cavity passes multiplies every amplitude by exactly one
    of r_cold and r_hot, so a branch output is the homogeneous degree-4
    polynomial sum_k r_cold**k r_hot**(4 - k) C_k. ``photons`` has shape
    (16, m): m input columns over PHOTON_LABELS, most significant first (see
    photon_columns). Runs the stages of _circuit_checkpoints once, projects
    the spins onto each outcome pair and applies its feed-forward. Returns
    C with shape (5, 2, 2, 16, m): power k of r_cold, e1 outcome, e2
    outcome, output amplitude, input column.
    """
    photons = np.asarray(photons, dtype=np.complex128)
    if photons.ndim != 2 or photons.shape[0] != 16:
        raise ValueError(f"photons must have shape (16, m), got {photons.shape}")
    m = photons.shape[1]

    t = np.zeros((_GATE_DEGREE + 1, 16, 2, 2, m), dtype=np.complex128)
    t[0, :, 0, 0] = photons  # both spins start up; no pass yet, so power 0
    t = t.reshape(_GATE_DEGREE + 1, 2, 2, 2, 2, 2, 2, m)
    t = _element(t, ElementKind.SPIN_ROT_PLUS, SPIN_1)
    t = _element(t, ElementKind.SPIN_ROT_PLUS, SPIN_2)
    t = _cavity_pass(t, A_SPATIAL, SPIN_1)
    t = _cavity_pass(t, A_POL, SPIN_2)
    t = _element(t, ElementKind.BS, B_SPATIAL)
    t = _element(t, ElementKind.HWP_H, B_POL)
    t = _element(t, ElementKind.SPIN_ROT_PLUS, SPIN_1)
    t = _element(t, ElementKind.SPIN_ROT_PLUS, SPIN_2)
    t = _cavity_pass(t, B_SPATIAL, SPIN_1)
    t = _cavity_pass(t, B_POL, SPIN_2)
    t = _element(t, ElementKind.SPIN_H, SPIN_1)
    t = _element(t, ElementKind.SPIN_H, SPIN_2)
    t = _element(t, ElementKind.BS, B_SPATIAL)
    t = _element(t, ElementKind.HWP_H, B_POL)

    # feed-forward: a down outcome flips the sign of its target's second basis state
    for spin, target in zip((SPIN_1, SPIN_2), _FEED_FORWARD_TARGETS):
        flipped = [slice(None)] * t.ndim
        flipped[_AXIS[spin]] = flipped[_AXIS[target]] = 1
        t[tuple(flipped)] *= -1
    return np.moveaxis(t.reshape(-1, 16, 2, 2, m), 1, 3)


def evaluate_branches(r_cold, r_hot, coefficients: np.ndarray) -> np.ndarray:
    """Branch outputs of N reflection pairs from compiled coefficients.

    ``r_cold`` and ``r_hot`` hold N reflection amplitudes each;
    ``coefficients`` comes from branch_coefficients. One (N, 5) by
    (5, 2, 2, 16, m) contraction; returns shape (N, 2, 2, 16, m).
    """
    r_cold = np.ravel(np.asarray(r_cold, dtype=np.complex128))
    r_hot = np.ravel(np.asarray(r_hot, dtype=np.complex128))
    if r_cold.shape != r_hot.shape:
        raise ValueError(f"got {r_cold.size} cold and {r_hot.size} hot reflections")
    k = np.arange(_GATE_DEGREE + 1)
    powers = r_cold[:, None] ** k * r_hot[:, None] ** (_GATE_DEGREE - k)
    return np.tensordot(powers, coefficients, axes=1)


def branch_outputs(r_cold, r_hot, photons) -> np.ndarray:
    """Corrected, unnormalized gate outputs for N reflection pairs at once.

    ``r_cold`` and ``r_hot`` hold N reflection amplitudes each; ``photons``
    has shape (16, m) as in branch_coefficients. Returns shape
    (N, 2, 2, 16, m): pair, e1 outcome, e2 outcome, output amplitude, input
    column. A branch's squared norm is its probability times the survival;
    with the identity as input each (16, 16) slice is that branch's Kraus
    operator.
    """
    return evaluate_branches(r_cold, r_hot, branch_coefficients(photons))


# -- spin readout --------------------------------------------------------

_AUX_LABEL = "_readout.pol"

# rows are the circular-diagonal analysis basis (R + iL)/sqrt2, (R - iL)/sqrt2
_READOUT_BASIS = np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / np.sqrt(2.0)


def spin_readout(
    state: StateVector,
    spin_label: str,
    reflection: ReflectionPair | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[MeasurementRecord, StateVector]:
    """Read a spin by reflecting an auxiliary (R+L)/sqrt2 photon off its cavity.

    The auxiliary photon is measured in the basis {(R + iL)/sqrt2,
    (R - iL)/sqrt2}; the + outcome is declared up, the - outcome down. In
    ideal mode this projects the spin exactly like a computational-basis
    measurement; with lossy reflections a small misassignment survives in
    the returned state.
    """
    aux = Register(_AUX_LABEL, ("R", "L"))
    probe = np.array([1, 1], dtype=np.complex128) / np.sqrt(2.0)
    st = attach_register(state, aux, probe)
    st = qd_scatter(st, _AUX_LABEL, spin_label, reflection)
    st = apply_operator(st, [_AUX_LABEL], _READOUT_BASIS)
    record, st = measure(st, _AUX_LABEL, rng)
    st = discard_register(st, _AUX_LABEL)
    spin_names = state.register(spin_label).basis_names
    spin_record = MeasurementRecord(
        register_label=spin_label,
        basis="custom",
        outcome=record.outcome,
        outcome_name=spin_names[record.outcome],
        probability=record.probability,
    )
    return spin_record, st


# -- truth table ----------------------------------------------------------


@dataclass(frozen=True)
class TruthTableRow:
    input_names: tuple[str, str, str, str]
    expected_names: tuple[str, str, str, str]
    observed_names: tuple[str, str, str, str]
    ok: bool
    min_fidelity: float


def _dominant_basis_names(state: StateVector) -> tuple[str, ...]:
    flat = int(np.argmax(np.abs(state.amplitudes)))
    names = []
    for reg in reversed(state.registers):
        names.append(reg.basis_names[flat % 2])
        flat //= 2
    return tuple(reversed(names))


def expected_truth_table_output(input_names: tuple[str, str, str, str]) -> tuple[str, str, str, str]:
    """CNOT-on-both-degrees prediction for a basis input (independent oracle)."""
    pa, sa, pb, sb = input_names
    pb_new = {"R": "L", "L": "R"}[pb] if pa == "L" else pb
    sb_new = {"b1": "b2", "b2": "b1"}[sb] if sa == "a2" else sb
    return (pa, sa, pb_new, sb_new)


def truth_table(reflection: ReflectionPair | None = None) -> list[TruthTableRow]:
    """Run all 16 basis inputs through the gate and decode each branch.

    A row passes when every spin branch's corrected output decodes (by
    dominant amplitude) to the CNOT-on-both-degrees prediction; the row
    also carries the worst branch fidelity against that prediction.
    """
    a_pol, a_spatial = photon_registers("a")
    b_pol, b_spatial = photon_registers("b")
    rows = []
    for pa, sa, pb, sb in product(("R", "L"), ("a1", "a2"), ("R", "L"), ("b1", "b2")):
        control = tensor_state([(a_pol, _unit(a_pol, pa)), (a_spatial, _unit(a_spatial, sa))])
        target = tensor_state([(b_pol, _unit(b_pol, pb)), (b_spatial, _unit(b_spatial, sb))])
        expected_names = expected_truth_table_output((pa, sa, pb, sb))
        runs = hyper_cnot(control, target, reflection)
        expected = state_from_terms(
            runs[0].final_state.registers,
            {expected_names: 1.0},
        )
        observed = _dominant_basis_names(runs[0].final_state)
        ok = True
        min_fid = 1.0
        for run in runs:
            fid = fidelity_up_to_global_phase(run.final_state, expected)
            min_fid = min(min_fid, fid)
            if _dominant_basis_names(run.final_state) != expected_names:
                ok = False
        rows.append(
            TruthTableRow(
                input_names=(pa, sa, pb, sb),
                expected_names=expected_names,
                observed_names=observed,
                ok=ok,
                min_fidelity=min_fid,
            )
        )
    return rows


def _unit(register: Register, name: str) -> tuple[float, float]:
    pair = [0.0, 0.0]
    pair[register.index_of(name)] = 1.0
    return (pair[0], pair[1])


# -- cluster-state preparation ---------------------------------------------


@dataclass(frozen=True)
class ClusterStages:
    """Checkpoints of the cluster-state preparation circuit."""

    hyper_bell: StateVector
    after_control_hadamards: StateVector
    after_conditional_flip: StateVector
    cluster: StateVector


def prepare_cluster_stages(reflection: ReflectionPair | None = None) -> ClusterStages:
    """Cluster preparation with intermediate checkpoints.

    Starts from (R+L)(path1+path2)/2 on photon a and R, path1 on photon b,
    runs the gate (the up,up branch), then Hadamards on photon a, the
    path-controlled polarization sign flip, and Hadamards on photon b.
    """
    plus = (1 / np.sqrt(2.0), 1 / np.sqrt(2.0))
    control = photon_state("a", plus, plus)
    target = photon_state("b", (1, 0), (1, 0))
    runs = hyper_cnot(control, target, reflection)
    bell = runs[0].final_state

    st = apply_element(bell, ElementKind.HWP_H, A_POL)
    st = apply_element(st, ElementKind.BS, A_SPATIAL)
    after_h = st
    st = conditional_element(st, ElementKind.HWP_PHASEFLIP, A_POL, A_SPATIAL, 1)
    after_flip = st
    st = apply_element(st, ElementKind.HWP_H, B_POL)
    st = apply_element(st, ElementKind.BS, B_SPATIAL)
    return ClusterStages(bell, after_h, after_flip, st)


def prepare_cluster(reflection: ReflectionPair | None = None) -> StateVector:
    """Two-photon four-qubit cluster state (final stage only)."""
    return prepare_cluster_stages(reflection).cluster


# -- hyperentangled Bell states and their analysis ---------------------------


@dataclass(frozen=True)
class HyperBellState:
    """One of the 16 products of a polarization and a spatial Bell state.

    Index order in both degrees of freedom: 0 phi+, 1 phi-, 2 psi+, 3 psi-.
    """

    pol_index: int
    spatial_index: int

    def __post_init__(self) -> None:
        for idx in (self.pol_index, self.spatial_index):
            if idx not in (0, 1, 2, 3):
                raise ValueError(f"Bell index must be 0..3, got {idx}")

    @property
    def combined_index(self) -> int:
        return 4 * self.pol_index + self.spatial_index


BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")


def _bell_pairs(index: int, names: tuple[str, str]) -> dict[tuple[str, str], complex]:
    lo, hi = names
    amp = 1 / np.sqrt(2.0)
    sign = -1.0 if index in (1, 3) else 1.0
    if index in (0, 1):  # correlated: phi
        return {(lo, lo): amp, (hi, hi): sign * amp}
    return {(lo, hi): amp, (hi, lo): sign * amp}  # anticorrelated: psi


def hyper_bell_state(pol_index: int, spatial_index: int) -> StateVector:
    """Build the hyperentangled Bell state over both photons' registers."""
    spec = HyperBellState(pol_index, spatial_index)
    a_pol, a_spatial = photon_registers("a")
    b_pol, b_spatial = photon_registers("b")
    pol = _bell_pairs(spec.pol_index, ("R", "L"))
    # _bell_pairs indexes both photons by position; rename the second to b
    spatial = {
        (first, second.replace("a", "b")): amp
        for (first, second), amp in _bell_pairs(spec.spatial_index, ("a1", "a2")).items()
    }
    terms = {}
    for (pa, pb), pamp in pol.items():
        for (sa, sb), samp in spatial.items():
            terms[(pa, sa, pb, sb)] = pamp * samp
    return state_from_terms((a_pol, a_spatial, b_pol, b_spatial), terms)


@dataclass(frozen=True)
class BellAnalysis:
    """Decoded Bell indices plus the raw measurement pattern.

    ``deterministic`` is False when any single-photon measurement would not
    be certain, which is the signature of a non-Bell (or lossy) input;
    indices are None when the pattern matches no Bell state.
    """

    pol_index: int | None
    spatial_index: int | None
    pattern: tuple[str, str, str, str]
    deterministic: bool
    min_outcome_probability: float


def _disentangled_state(state: StateVector, reflection: ReflectionPair | None) -> StateVector:
    runs = hyper_cnot_state(state, reflection)
    st = runs[0].final_state
    st = apply_element(st, ElementKind.HWP_H, A_POL)
    return apply_element(st, ElementKind.BS, A_SPATIAL)


def _measurement_pattern(state: StateVector) -> tuple[tuple[str, ...], float]:
    names = []
    min_prob = 1.0
    for label in PHOTON_LABELS:
        weights = outcome_weights(state, label)
        total = weights.sum()
        outcome = int(np.argmax(weights))
        names.append(state.register(label).basis_names[outcome])
        min_prob = min(min_prob, float(weights[outcome] / total))
    return tuple(names), min_prob


@lru_cache(maxsize=1)
def bell_decoding_table() -> dict[tuple[str, str, str, str], tuple[int, int]]:
    """Outcome pattern -> (pol index, spatial index), derived by enumeration.

    The table is generated by running all 16 ideal-mode analyses rather
    than asserted a priori; it doubles as documentation of the decoder.
    """
    table: dict[tuple[str, str, str, str], tuple[int, int]] = {}
    for pol, spatial in product(range(4), range(4)):
        pattern, _ = _measurement_pattern(
            _disentangled_state(hyper_bell_state(pol, spatial), None)
        )
        if pattern in table:
            raise AssertionError(f"decoding collision at pattern {pattern}")
        table[pattern] = (pol, spatial)
    return table


def analyze_hyper_bell(
    state: StateVector | HyperBellState,
    reflection: ReflectionPair | None = None,
    probability_tol: float = 1e-9,
) -> BellAnalysis:
    """Identify a hyperentangled Bell state from single-photon outcomes.

    The gate plus one Hadamard per control degree of freedom maps each of
    the 16 Bell products onto a distinct product basis state, so all four
    single-photon measurements come out deterministic and the pair of
    indices can be read off the decoding table.
    """
    if isinstance(state, HyperBellState):
        state = hyper_bell_state(state.pol_index, state.spatial_index)
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValueError("analysis input must be normalized")
    pattern, min_prob = _measurement_pattern(_disentangled_state(state, reflection))
    decoded = bell_decoding_table().get(pattern)
    return BellAnalysis(
        pol_index=decoded[0] if decoded else None,
        spatial_index=decoded[1] if decoded else None,
        pattern=pattern,
        deterministic=min_prob >= 1.0 - probability_tol,
        min_outcome_probability=min_prob,
    )
