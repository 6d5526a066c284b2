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

One compiled gate
-----------------
The 14 stages are written once, in the _STAGES table. Each of the four
cavity passes multiplies every amplitude by exactly one of r_cold and r_hot,
so every corrected branch output is a homogeneous degree-4 polynomial,
sum_k r_cold**k r_hot**(4 - k) C_k. The stages are interpreted once per
process on the identity, on a tensor whose axis 0 is the power of r_cold,
with the feed-forward folded in: the result is the coefficients of the
gate's four 16x16 Kraus operators, one per spin-outcome pair, kept
read-only. branch_coefficients contracts them with a (16, m) block of
inputs; evaluate_branches turns coefficients into the corrected,
unnormalized output of every spin branch for N reflection pairs with one
(N, 5) by (5, ...) contraction; branch_outputs does both. hyper_cnot_state
derives every GateRun (survival, branch probabilities, final states and
sampled outcomes) from those outputs, and parameter sweeps and
simulated_performance use the same coefficients.

The staged step view, hyper_cnot_checkpoints, takes the same input as
hyper_cnot_state: a joint two-photon StateVector in any register order,
possibly with spectator registers. It pushes that input through the same
table one operator at a time, yields the named checkpoints, and is the
reference the compiled gate is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product

import numpy as np

from .cavity import ReflectionPair, qd_scatter
from .hilbert import (
    MeasurementRecord,
    Register,
    StateVector,
    apply_operator,
    attach_register,
    basis_index,
    basis_names,
    basis_state,
    discard_register,
    measure,
    outcome_weights,
    reorder_registers,
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
# _PASS_COLD[j], else r_hot, times -i where _PASS_TURNED[j]. The step view
# (pass_matrix) and the compile (_cavity_pass) both read this table.
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


# -- the circuit, written once ---------------------------------------------

# marks a cavity pass in _STAGES; its (photon, spin) registers follow it
_CAVITY_PASS = "cavity pass"

# The circuit from the spin preparation to the spin measurement: each named
# checkpoint with the operations that lead to it, either (element kind,
# register) or (_CAVITY_PASS, photon, spin). The staged step view
# (hyper_cnot_checkpoints) and the compile (_compile_stages) both read it.
_STAGES = (
    ("spins_prepared", ((ElementKind.SPIN_ROT_PLUS, SPIN_1), (ElementKind.SPIN_ROT_PLUS, SPIN_2))),
    ("control_spatial", ((_CAVITY_PASS, A_SPATIAL, SPIN_1),)),
    ("hybrid_cz", ((_CAVITY_PASS, A_POL, SPIN_2),)),
    ("target_hadamards", ((ElementKind.BS, B_SPATIAL), (ElementKind.HWP_H, B_POL))),
    ("spin_rotations", ((ElementKind.SPIN_ROT_PLUS, SPIN_1), (ElementKind.SPIN_ROT_PLUS, SPIN_2))),
    ("target_scattered", ((_CAVITY_PASS, B_SPATIAL, SPIN_1), (_CAVITY_PASS, B_POL, SPIN_2))),
    ("spin_hadamards", ((ElementKind.SPIN_H, SPIN_1), (ElementKind.SPIN_H, SPIN_2))),
    ("pre_measurement", ((ElementKind.BS, B_SPATIAL), (ElementKind.HWP_H, B_POL))),
)

# register sign-flipped by a down outcome of e1 and of e2, respectively
_FEED_FORWARD_TARGETS = (A_SPATIAL, A_POL)


def _check_two_photon_input(joint: StateVector) -> None:
    missing = [label for label in PHOTON_LABELS if label not in joint.labels]
    if missing:
        raise ValueError(f"two-photon input is missing registers {missing}; has {joint.labels}")
    for spin in (SPIN_1, SPIN_2):
        if spin in joint.labels:
            raise ValueError(f"input already contains the internal spin register {spin!r}")


# -- the staged step view ------------------------------------------------


def hyper_cnot_checkpoints(
    joint: StateVector, reflection: ReflectionPair | None = None
) -> dict[str, StateVector]:
    """Named intermediate states of the circuit, for staged regression tests.

    Takes the same joint two-photon input as hyper_cnot_state, in any
    register order and with any spectator registers. Runs _STAGES one
    operator at a time, up to (not including) the spin measurement, and
    returns the state at every checkpoint: the input's registers in input
    order, then e1 and e2.
    """
    _check_two_photon_input(joint)
    st = attach_register(joint, spin_register(SPIN_1), (1, 0))
    st = attach_register(st, spin_register(SPIN_2), (1, 0))
    cavity_pass = pass_matrix(reflection)
    stages: dict[str, StateVector] = {}
    for name, ops in _STAGES:
        for kind, *labels in ops:
            if kind is _CAVITY_PASS:
                st = apply_operator(st, labels, cavity_pass)
            else:
                st = apply_element(st, kind, *labels)
        stages[name] = st
    return stages


# -- the compiled gate ---------------------------------------------------

# cavity passes in one gate run, hence the degree of the branch polynomials
_GATE_DEGREE = 4

# axes of the compile's coefficient tensor; axis 0 is the power of r_cold and
# the last axis the input amplitude
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


def _compile_stages() -> np.ndarray:
    """Interpret _STAGES on the identity, with both spins starting up, then
    project the spins onto each outcome pair and apply its feed-forward.

    Returns the Kraus coefficients, shape (5, 2, 2, 16, 16): power k of
    r_cold, e1 outcome, e2 outcome, output amplitude, input amplitude.
    """
    t = np.zeros((_GATE_DEGREE + 1, 16, 2, 2, 16), dtype=np.complex128)
    t[0, :, 0, 0] = np.eye(16)  # no pass yet, so power 0
    t = t.reshape(_GATE_DEGREE + 1, 2, 2, 2, 2, 2, 2, 16)
    for _, ops in _STAGES:
        for kind, *labels in ops:
            t = _cavity_pass(t, *labels) if kind is _CAVITY_PASS else _element(t, kind, *labels)
    # feed-forward: a down outcome flips the sign of its target's second basis state
    for spin, target in zip((SPIN_1, SPIN_2), _FEED_FORWARD_TARGETS):
        flipped = [slice(None)] * t.ndim
        flipped[_AXIS[spin]] = flipped[_AXIS[target]] = 1
        t[tuple(flipped)] *= -1
    return np.moveaxis(t.reshape(-1, 16, 2, 2, 16), 1, 3)


@cache
def _kraus_coefficients() -> np.ndarray:
    """The gate compiled once per process; read-only, since every caller
    shares the one array."""
    coefficients = _compile_stages()
    coefficients.flags.writeable = False
    return coefficients


def _photon_major(joint: StateVector) -> StateVector:
    """A joint input with PHOTON_LABELS first, then any other registers in
    their input order."""
    _check_two_photon_input(joint)
    if joint.labels[:4] == PHOTON_LABELS:
        return joint
    rest = [label for label in joint.labels if label not in PHOTON_LABELS]
    return reorder_registers(joint, list(PHOTON_LABELS) + rest)


def photon_columns(joint: StateVector) -> np.ndarray:
    """Amplitudes of a joint input as engine columns, shape (16, m).

    Rows follow PHOTON_LABELS (most significant first); registers beyond the
    four photon ones become the m = 2**k columns, in their input order.
    """
    return _photon_major(joint).amplitudes.reshape(16, -1)


def branch_coefficients(photons) -> np.ndarray:
    """The gate compiled for one block of inputs: polynomial coefficients of
    every corrected branch output in the reflection amplitudes.

    Each of the four cavity passes multiplies every amplitude by exactly one
    of r_cold and r_hot, so a branch output is the homogeneous degree-4
    polynomial sum_k r_cold**k r_hot**(4 - k) C_k. ``photons`` has shape
    (16, m): m input columns over PHOTON_LABELS, most significant first (see
    photon_columns). Contracts the Kraus coefficients, compiled once per
    process, with the columns. Returns C with shape (5, 2, 2, 16, m): power
    k of r_cold, e1 outcome, e2 outcome, output amplitude, input column.
    """
    photons = np.asarray(photons, dtype=np.complex128)
    if photons.ndim != 2 or photons.shape[0] != 16:
        raise ValueError(f"photons must have shape (16, m), got {photons.shape}")
    return _kraus_coefficients() @ photons


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


# -- the hyper-CNOT gate -------------------------------------------------

# Branch weights at or below this fraction of the survival count as zero: a
# branch empty in exact arithmetic (equal reflections, as at g = 0) keeps
# round-off amplitudes near 1e-16 of the surviving ones, so weights near 1e-32.
BRANCH_FLOOR = 1e-24


@dataclass(frozen=True)
class GateRun:
    """One executed gate branch after spin measurement and feed-forward.

    ``survival_probability`` is the squared norm just before the spin
    measurement (1 in ideal mode); ``branch_probability`` is the chance of
    this spin-outcome pair conditioned on survival. A branch whose weight
    is at most BRANCH_FLOOR times the survival counts as empty: it is
    never enumerated or sampled. ``feed_forward_ops`` lists the registers
    that received a computational sign flip.
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


def hyper_cnot_state(
    joint: StateVector,
    reflection: ReflectionPair | None = None,
    branch_mode: str = "enumerate",
    seed: int | None = None,
) -> list[GateRun] | GateRun:
    """Run the gate on a joint two-photon state (any entanglement allowed).

    ``branch_mode="enumerate"`` returns all four spin branches, skipping
    empty ones; ``"sample"`` draws one branch with a seeded PRNG. In ideal
    mode all enumerated branches carry the same corrected state. Raises
    ZeroSurvivalError when no amplitude reaches the spin measurement.
    """
    if branch_mode not in ("enumerate", "sample"):
        raise ValueError(f"branch_mode must be 'enumerate' or 'sample', got {branch_mode!r}")
    mode = "ideal" if reflection is None else "physical"
    pair = reflection if reflection is not None else ReflectionPair.ideal()
    # the outputs are homogeneous of degree 4 in the pair: evaluated at the
    # pair scaled by a power of two (exact) to unit size, the weights of tiny
    # reflections cannot underflow, and only the survival takes the scale back
    exponent = math.frexp(max(abs(pair.r_cold), abs(pair.r_hot)))[1]
    r_cold, r_hot = (
        complex(math.ldexp(r.real, -exponent), math.ldexp(r.imag, -exponent))
        for r in (pair.r_cold, pair.r_hot)
    )
    ordered = _photon_major(joint)
    outputs = branch_outputs(r_cold, r_hot, ordered.amplitudes.reshape(16, -1))[0]
    weights = np.sum(np.abs(outputs) ** 2, axis=(2, 3))
    total = float(weights.sum())
    if total == 0.0:
        raise ZeroSurvivalError(
            "zero survival: no photon amplitude reaches the spin measurement, "
            "so the gate output is undefined"
        )
    weights[weights <= BRANCH_FLOOR * total] = 0.0
    survival = math.ldexp(total, _GATE_DEGREE * 2 * exponent)

    # axes that take a photon-major branch back to the input's register order
    back = None if ordered is joint else [ordered.labels.index(label) for label in joint.labels]

    def run(outcomes: tuple[int, int], seed: int | None) -> GateRun:
        branch = outputs[outcomes]
        if back is not None:
            branch = branch.reshape((2,) * len(back)).transpose(back).reshape(-1)
        norm = np.sqrt(np.sum(np.abs(branch) ** 2))
        if norm <= 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        final = StateVector(joint.registers, branch / norm)
        ops = tuple(label for label, outcome in zip(_FEED_FORWARD_TARGETS, outcomes) if outcome)
        probability = float(weights[outcomes] / total)
        return GateRun(mode, outcomes, ops, final, survival, probability, seed)

    if branch_mode == "sample":
        # the draws hilbert.measure makes on e1, then on e2 given e1, so a
        # seed selects the same branch as measuring the spins one by one
        rng = np.random.default_rng(seed)
        marginal = weights.sum(axis=1)
        o1 = int(rng.choice(2, p=marginal / marginal.sum()))
        o2 = int(rng.choice(2, p=weights[o1] / weights[o1].sum()))
        return run((o1, o2), seed)
    return [run(outcomes, None) for outcomes in product((0, 1), (0, 1)) if weights[outcomes]]


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
    also carries the worst branch fidelity against that prediction, the
    squared magnitude of the output's amplitude on the predicted state.
    """
    registers = photon_registers("a") + photon_registers("b")
    rows = []
    for names in product(("R", "L"), ("a1", "a2"), ("R", "L"), ("b1", "b2")):
        expected_names = expected_truth_table_output(names)
        expected = basis_index(registers, expected_names)
        outputs = [
            run.final_state.amplitudes
            for run in hyper_cnot_state(basis_state(registers, names), reflection)
        ]
        observed = [basis_names(registers, int(np.argmax(np.abs(amps)))) for amps in outputs]
        rows.append(
            TruthTableRow(
                input_names=names,
                expected_names=expected_names,
                observed_names=observed[0],
                ok=all(got == expected_names for got in observed),
                min_fidelity=min(float(abs(amps[expected]) ** 2) for amps in outputs),
            )
        )
    return rows


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
    joint = tensor_product(photon_state("a", plus, plus), photon_state("b", (1, 0), (1, 0)))
    bell = hyper_cnot_state(joint, reflection)[0].final_state

    st = apply_element(bell, ElementKind.HWP_H, A_POL)
    st = apply_element(st, ElementKind.BS, A_SPATIAL)
    after_h = st
    st = conditional_element(st, ElementKind.HWP_PHASEFLIP, A_POL, A_SPATIAL, 1)
    after_flip = st
    st = apply_element(st, ElementKind.HWP_H, B_POL)
    st = apply_element(st, ElementKind.BS, B_SPATIAL)
    return ClusterStages(bell, after_h, after_flip, st)


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

# two-qubit amplitudes of each Bell state, rows in BELL_NAMES order
_BELL_AMPLITUDES = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
) / np.sqrt(2.0)

# an analysis is deterministic when no single-photon outcome probability falls
# more than this below 1
_DETERMINISTIC_TOL = 1e-9


def hyper_bell_state(pol_index: int, spatial_index: int) -> StateVector:
    """Build the hyperentangled Bell state over both photons' registers."""
    spec = HyperBellState(pol_index, spatial_index)
    pol, spatial = (
        _BELL_AMPLITUDES[index].astype(np.complex128).reshape(2, 2)
        for index in (spec.pol_index, spec.spatial_index)
    )
    # axes a.pol, b.pol, a.spatial, b.spatial, taken to PHOTON_LABELS order
    amplitudes = np.multiply.outer(pol, spatial).transpose(0, 2, 1, 3)
    return StateVector(photon_registers("a") + photon_registers("b"), amplitudes)


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
        deterministic=min_prob >= 1.0 - _DETERMINISTIC_TOL,
        min_outcome_probability=min_prob,
    )
