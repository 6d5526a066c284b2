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
the same diagonal on (path-or-pol, spin), written once in the _PASS_COLD
and _PASS_TURNED tables:

    diag(r_cold, r_hot, -i r_hot, -i r_cold)

where the -i comes from the phase plate placed in the second path (spatial
pass) or acting on L (polarization pass). The tests hold the tables to the
sandwich pieces. With the ideal reflections (-i, 1) this is
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
so every amplitude after j passes is a homogeneous degree-j polynomial,
sum_k r_cold**k r_hot**(j - k) C_k. So the circuit is compiled once per
process, to its coefficients, and only evaluated per pair. One interpreter,
_interpret, reads every circuit table: _STAGES, which _compile_stages
compiles into the coefficients of every checkpoint and of the gate's four
Kraus operators, and the fixed optics the applications place after the
gate (_optics_map). One evaluator, _evaluate, evaluates a compiled table at
reflection pairs: evaluate_branches at N pairs, hyper_cnot_checkpoints and
the cached gate plan (_gate_plan) at one.

Every circuit-level number takes one path, _gate_outputs: the plan of its
pair times the input. hyper_cnot_state reads that product, and the truth
table through it; the Bell analysis and the cluster preparation read its
first non-empty branch (_first_branch); analysis.simulated_performance reads
it through _simulated_figures. No other module reads the plan. The tests
hold the checkpoints and the gate to a step path that applies _STAGES one
operator at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from numbers import Integral
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .cavity import ReflectionPair
from .hilbert import (
    NORM_ATOL,
    Register,
    StateVector,
    _states,
    apply_operator,
    basis_names,
    basis_state,
    reorder_registers,
    state_stack,
    tensor_product,
    tensor_state,
)
from .optics import ElementKind, conditional_matrix, element_matrix

SPIN_1 = "e1"
SPIN_2 = "e2"

_PLUS = (1 / np.sqrt(2.0), 1 / np.sqrt(2.0))  # (|0> + |1>)/sqrt2 on one register

_IDEAL_PAIR = ReflectionPair.ideal()


def _pair(reflection: ReflectionPair | None) -> ReflectionPair:
    """The pair a call runs at: None is the ideal pair."""
    return _IDEAL_PAIR if reflection is None else reflection


def photon_registers(name: str) -> tuple[Register, Register]:
    """Polarization and spatial-mode registers of one photon."""
    return (
        Register(f"{name}.pol", ("R", "L")),
        Register(f"{name}.spatial", (f"{name}1", f"{name}2")),
    )


_PHOTON_REGISTERS = photon_registers("a") + photon_registers("b")

PHOTON_LABELS = A_POL, A_SPATIAL, B_POL, B_SPATIAL = tuple(r.label for r in _PHOTON_REGISTERS)


def spin_register(label: str) -> Register:
    return Register(label, ("up", "down"))


def photon_state(name: str, pol_pair, spatial_pair) -> StateVector:
    """Product state of one photon's two degrees of freedom."""
    pol, spatial = photon_registers(name)
    return tensor_state([(pol, pol_pair), (spatial, spatial_pair)])


@cache
def uniform_two_photon_state() -> StateVector:
    """Both photons in the uniform superposition of both degrees of freedom,
    built once per process (a StateVector is immutable, so every caller
    shares it)."""
    return tensor_product(photon_state("a", _PLUS, _PLUS), photon_state("b", _PLUS, _PLUS))


# -- the cavity pass -----------------------------------------------------


# One cavity pass is diagonal on (path-or-polarization, spin), basis order
# (0, up), (0, down), (1, up), (1, down). Entry j is r_cold where
# _PASS_COLD[j], else r_hot, times -i where _PASS_TURNED[j]. The compile
# (_cavity_pass) reads this table, and spin_readout reads _PASS_COLD on
# (polarization, spin); the tests build the pass matrix from it and hold
# that to the CPBS / plate sandwich.
_PASS_COLD = (True, False, False, True)
_PASS_TURNED = (False, False, True, True)


# -- the circuit, written once ---------------------------------------------

# marks a cavity pass in _STAGES; its (photon, spin) registers follow it
_CAVITY_PASS = "cavity pass"

# The circuit from the spin preparation to the spin measurement: each named
# checkpoint with the operations that lead to it, either (element kind,
# register) or (_CAVITY_PASS, photon, spin). _compile_stages interprets it
# once per process, keeping the coefficients at every checkpoint for
# hyper_cnot_checkpoints and the Kraus coefficients for the gate.
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

# per branch, indexed by 2 * e1 outcome + e2 outcome: the spin outcomes and
# the registers their feed-forward sign-flipped
_BRANCH_RECORDS = tuple(
    (outcomes, tuple(label for label, outcome in zip(_FEED_FORWARD_TARGETS, outcomes) if outcome))
    for outcomes in product((0, 1), repeat=2)
)


# -- one interpreter for the circuit tables ----------------------------------

# cavity passes in one gate run, hence the degree of the branch polynomials
_GATE_DEGREE = 4

# axes of the coefficient tensors the tables are interpreted on; axis 0 is the
# power of r_cold and the last axis the input amplitude
_AXIS = {A_POL: 1, A_SPATIAL: 2, B_POL: 3, B_SPATIAL: 4, SPIN_1: 5, SPIN_2: 6}


def _cavity_pass(t: np.ndarray, photon: str, spin: str) -> np.ndarray:
    """One cavity pass on the coefficient tensor, whose axis 0 is the power
    of r_cold and grows by one: a cold entry moves its amplitude up one
    power, a hot entry keeps it (the power of r_hot is the passes so far
    minus that of r_cold)."""
    # the photon axis precedes the spin axis, the row order of _PASS_COLD
    shape = [1] * t.ndim
    shape[_AXIS[photon]] = shape[_AXIS[spin]] = 2
    cold = np.reshape(_PASS_COLD, shape)
    phase = np.where(np.reshape(_PASS_TURNED, shape), -1j, 1)
    zero = np.zeros_like(t[:1])
    return np.where(cold, np.concatenate([zero, t]), np.concatenate([t, zero])) * phase


def _interpret(t: np.ndarray, ops) -> np.ndarray:
    """A circuit table's operations applied in order to a tensor in the _AXIS
    layout: (element kind, register); (element kind, register, control
    register, control value) for an element sitting in one path, the
    identity in the other; or (_CAVITY_PASS, photon, spin)."""
    for kind, label, *rest in ops:
        if kind is _CAVITY_PASS:
            t = _cavity_pass(t, label, *rest)
            continue
        if rest:
            control, value = rest
            matrix, axes = conditional_matrix(kind, value), [_AXIS[control], _AXIS[label]]
        else:
            matrix, axes = element_matrix(kind), [_AXIS[label]]
        # a 2**k x 2**k matrix on k axes, its row order following axes
        k = len(axes)
        out = np.tensordot(matrix.reshape((2,) * 2 * k), t, axes=(list(range(k, 2 * k)), axes))
        t = np.moveaxis(out, list(range(k)), axes)
    return t


@cache
def _compile_stages() -> tuple[tuple[tuple[str, np.ndarray], ...], np.ndarray]:
    """Interpret _STAGES on the identity, with both spins starting up, once
    per process. Each array has shape (d + 1, 1024), the layout _evaluate
    reads: row k holds the coefficients of r_cold**k r_hot**(d - k) as a
    64 x 16 matrix in C order, output amplitude by input amplitude. Each is
    C-contiguous, owns its data and is read-only, so no reshape or view
    stands between it and _evaluate, no writeable base sits behind it, and
    callers share it.

    Returns each checkpoint's name and coefficients, d = j after j cavity
    passes, whose 64 outputs are the photon registers in PHOTON_LABELS order,
    then e1 and e2. Then the Kraus coefficients, d = 4, whose 64 outputs are
    2 * e1 outcome + e2 outcome, then the photon output amplitude; they are
    the pre_measurement ones with the spins projected onto each outcome pair
    and its feed-forward applied.
    """
    t = np.zeros((1, 16, 2, 2, 16), dtype=np.complex128)
    t[0, :, 0, 0] = np.eye(16)  # no pass yet, so power 0 only
    t = t.reshape(1, 2, 2, 2, 2, 2, 2, 16)
    checkpoints = []
    for name, ops in _STAGES:
        t = _interpret(t, ops)
        checkpoints.append((name, t.reshape(len(t), -1).copy()))
    # feed-forward: a down outcome flips the sign of its target's second basis state
    for spin, target in zip((SPIN_1, SPIN_2), _FEED_FORWARD_TARGETS):
        flipped = [slice(None)] * t.ndim
        flipped[_AXIS[spin]] = flipped[_AXIS[target]] = 1
        t[tuple(flipped)] *= -1
    kraus = np.moveaxis(t.reshape(-1, 16, 2, 2, 16), 1, 3).reshape(len(t), -1).copy()
    for coefficients in [c for _, c in checkpoints] + [kraus]:
        coefficients.flags.writeable = False
    return tuple(checkpoints), kraus


def _evaluate(coefficients: np.ndarray, r_cold, r_hot) -> np.ndarray:
    """A _compile_stages table of degree d evaluated at N pairs: shape
    (N, 1024), row n the table's polynomial at pair n.

    ``r_cold`` and ``r_hot`` are two (N, 1) arrays, or two Python complex
    numbers for one pair. The exponent rows come from the table's own
    length, so a table of any degree evaluates. Their (N, d + 1) powers make
    one np.dot with the table, bitwise the product np.tensordot over the
    power axis would make (test_kraus_evaluation_is_bitwise_the_tensordot_form).
    """
    cold = np.arange(len(coefficients)).reshape(1, -1)
    return np.dot(r_cold**cold * r_hot ** (len(coefficients) - 1 - cold), coefficients)


# -- the staged checkpoints ------------------------------------------------


def _photon_major(joint: StateVector) -> StateVector:
    """A joint two-photon input, checked, with PHOTON_LABELS first, then any
    other registers in their input order."""
    labels = joint.labels
    if labels == PHOTON_LABELS:  # the photon-major input every library caller passes
        return joint
    missing = [label for label in PHOTON_LABELS if label not in labels]
    if missing:
        raise ValueError(f"two-photon input is missing registers {missing}; has {labels}")
    for spin in (SPIN_1, SPIN_2):
        if spin in labels:
            raise ValueError(f"input already contains the internal spin register {spin!r}")
    rest = [label for label in labels if label not in PHOTON_LABELS]
    return reorder_registers(joint, list(PHOTON_LABELS) + rest)


def _input_order(amplitudes: np.ndarray, ordered: StateVector, joint: StateVector) -> np.ndarray:
    """A stack of amplitudes on the registers of ordered, _photon_major(joint),
    taken back to the register order of joint; shape (stack, 2**n)."""
    stack = len(amplitudes)
    if ordered is not joint:
        back = [ordered.labels.index(label) for label in joint.labels]
        amplitudes = amplitudes.reshape((stack,) + (2,) * len(back))
        amplitudes = amplitudes.transpose([0] + [1 + axis for axis in back])
    return amplitudes.reshape(stack, -1)


def hyper_cnot_checkpoints(
    joint: StateVector, reflection: ReflectionPair | None = None
) -> dict[str, StateVector]:
    """Named intermediate states of the circuit, for staged regression tests.

    Takes the same joint two-photon input as hyper_cnot_state, in any
    register order and with any spectator registers. Returns the state at
    every checkpoint of _STAGES, up to (not including) the spin
    measurement: the input's registers in input order, then e1 and e2. Each
    is one contraction of the checkpoint's compiled coefficients with the
    powers of the pair (None: ideal), and one matrix product with the input.
    """
    ordered = _photon_major(joint)
    pair = _pair(reflection)
    amplitudes = ordered.amplitudes.reshape(16, -1)
    registers = joint.registers + (spin_register(SPIN_1), spin_register(SPIN_2))
    names, rows = [], []
    for name, coefficients in _compile_stages()[0]:
        operator = _evaluate(coefficients, pair.r_cold, pair.r_hot).reshape(64, 16)
        # photons, spins, other registers -> the spins first, as the stack
        out = (operator @ amplitudes).reshape(16, 4, -1).transpose(1, 0, 2)
        names.append(name)
        rows.append(_input_order(out, ordered, joint).T.reshape(-1))
    return dict(zip(names, state_stack(registers, rows)))


# -- the compiled gate ---------------------------------------------------


def evaluate_branches(r_cold, r_hot) -> np.ndarray:
    """The gate's four Kraus operators at N reflection pairs.

    ``r_cold`` and ``r_hot`` hold N reflection amplitudes each. The Kraus
    table of _compile_stages, evaluated at them in one product (_evaluate);
    returns shape (N, 2, 2, 16, 16): pair, e1 outcome, e2 outcome, output
    and input amplitude. A Kraus operator applied to an input gives that
    spin branch's corrected, unnormalized output.

    A pair's operators can differ in the last bits with the batch it comes
    in: its powers are the same, but an N-row product takes another BLAS
    kernel than a one-row one (282 of 300 random pairs evaluated together
    differ from the same pairs evaluated one by one, each by under 3e-17).
    The gate plan always evaluates one pair, so no gate output depends on
    other pairs.
    """
    r_cold = np.ravel(np.asarray(r_cold, dtype=np.complex128))
    r_hot = np.ravel(np.asarray(r_hot, dtype=np.complex128))
    if r_cold.shape != r_hot.shape:
        raise ValueError(f"got {r_cold.size} cold and {r_hot.size} hot reflections")
    kraus = _compile_stages()[1]
    return _evaluate(kraus, r_cold[:, None], r_hot[:, None]).reshape(-1, 2, 2, 16, 16)


class _GatePlan(NamedTuple):
    """The gate, homogeneous of degree 4 in the pair, at the pair scaled by a
    power of two (exact) to unit size, where no weight underflows: its four
    Kraus operators stacked as one read-only (64, 16) matrix, rows
    2 * e1 outcome + e2 outcome, then output amplitude, and the scale's
    exponent."""

    matrix: np.ndarray
    exponent: int


def _unit_pair(r_cold: complex, r_hot: complex) -> tuple[complex, complex, int]:
    """The pair scaled by a power of two (exact) to unit size, and the
    exponent of that scale."""
    exponent = math.frexp(max(abs(r_cold), abs(r_hot)))[1]
    r_cold, r_hot = (
        complex(math.ldexp(r.real, -exponent), math.ldexp(r.imag, -exponent))
        for r in (r_cold, r_hot)
    )
    return r_cold, r_hot, exponent


# the key of a pair's plan: its raw bits, r_cold's real and imaginary parts, then r_hot's
_PAIR_BITS = struct.Struct("4d")


def _gate_plan(reflection: ReflectionPair | None) -> _GatePlan:
    """The plan at a reflection pair (None: ideal), cached on the pair's raw
    bits, so pairs that differ only in the sign of a zero part get plans of
    their own and no output depends on which pairs ran before."""
    pair = _pair(reflection)
    r_cold, r_hot = pair.r_cold, pair.r_hot
    return _plan_for_bits(_PAIR_BITS.pack(r_cold.real, r_cold.imag, r_hot.real, r_hot.imag))


# a plan holds 2 * 2 * 16 * 16 complex amplitudes, 16 KiB, so 32 stay near 0.5 MB
@lru_cache(maxsize=32)
def _plan_for_bits(key: bytes) -> _GatePlan:
    cold_re, cold_im, hot_re, hot_im = _PAIR_BITS.unpack(key)
    r_cold, r_hot, exponent = _unit_pair(complex(cold_re, cold_im), complex(hot_re, hot_im))
    product = _evaluate(_compile_stages()[1], r_cold, r_hot)  # (1, 1024), owning its data
    product.flags.writeable = False
    return _GatePlan(product.reshape(64, 16), exponent)


# -- the fixed optics after the gate ---------------------------------------

# The linear optics the applications place after the gate, as tables read by
# _optics_map: (element kind, register) or, for an element sitting in one
# path, (element kind, register, control register, control value).
# the control photon's Hadamards: the whole Bell analysis, and the cluster's
# first segment
_CONTROL_HADAMARDS = ((ElementKind.HWP_H, A_POL), (ElementKind.BS, A_SPATIAL))
# the three checkpoint segments of the cluster preparation
_CLUSTER_SEGMENTS = (
    _CONTROL_HADAMARDS,
    ((ElementKind.HWP_PHASEFLIP, A_POL, A_SPATIAL, 1),),
    ((ElementKind.HWP_H, B_POL), (ElementKind.BS, B_SPATIAL)),
)


@cache
def _optics_map(table: tuple) -> np.ndarray:
    """A table of fixed optics as one 16x16 matrix on the photon registers in
    PHOTON_LABELS order, a read-only copy: interpreted once per process on the
    identity, with a power axis of size 1, since it holds no cavity pass."""
    identity = np.eye(16, dtype=np.complex128).reshape(1, 2, 2, 2, 2, 16)
    matrix = _interpret(identity, table).reshape(16, 16).copy()
    matrix.flags.writeable = False
    return matrix


# the Bell readout: row 2 * r + o is 1 on the basis states i (PHOTON_LABELS order)
# where photon register r reads o, so times the 16 probabilities it gives the marginals
_MARGINALS = np.array(
    [[(i >> 3 - r) & 1 == o for i in range(16)] for r in range(4) for o in (0, 1)], float
)
_MARGINALS.flags.writeable = False


# -- the hyper-CNOT gate -------------------------------------------------

# Branch weights at or below this fraction of the survival count as zero: a
# branch empty in exact arithmetic (equal reflections, as at g = 0) keeps
# round-off amplitudes near 1e-16 of the surviving ones, so weights near 1e-32.
BRANCH_FLOOR = 1e-24


@dataclass(frozen=True)
class GateRun:
    """One executed gate branch after spin measurement and feed-forward.

    ``survival_probability`` is the squared norm just before the spin
    measurement (the input's squared norm in ideal mode);
    ``branch_probability`` is the chance of this spin-outcome pair
    conditioned on survival. A branch whose weight is at most BRANCH_FLOOR
    times the survival counts as empty: it is never enumerated or sampled.
    ``feed_forward_ops`` lists the registers that received a computational
    sign flip.
    """

    mode: str
    spin_outcomes: tuple[int, int]
    feed_forward_ops: tuple[str, ...]
    final_state: StateVector
    survival_probability: float
    branch_probability: float
    seed: int | None = None


class ZeroSurvivalError(ValueError):
    """Every photon component was lost before a spin measurement: the gate's
    photons, or a spin readout's probe."""


def _gate_outputs(
    joint: StateVector, reflection: ReflectionPair | None
) -> tuple[StateVector, np.ndarray, list[float], list[int], float, float]:
    """The gate applied to a joint input at one reflection pair (None: ideal).

    Returns the input with PHOTON_LABELS first, the plan's corrected,
    unnormalized branch outputs (4, 16, m), indexed by 2 * e1 outcome + e2
    outcome, their weights as four Python floats with every empty branch's
    zero, the non-empty branches in outcome order, their total, and the
    survival, which alone takes the plan's unit scale back. Raises
    ZeroSurvivalError when no amplitude survives.
    """
    ordered = _photon_major(joint)
    plan = _gate_plan(reflection)
    outputs = plan.matrix @ ordered.amplitudes.reshape(16, -1)
    weights = np.square(np.abs(outputs)).reshape(4, -1).sum(1).tolist()
    # left to right, the order numpy sums four values in
    total = weights[0] + weights[1] + weights[2] + weights[3]
    if total == 0.0:
        raise ZeroSurvivalError(
            "zero survival: no photon amplitude reaches the spin measurement, "
            "so the gate output is undefined"
        )
    floor = BRANCH_FLOOR * total
    weights = [0.0 if weight <= floor else weight for weight in weights]
    live = [branch for branch, weight in enumerate(weights) if weight]
    survival = math.ldexp(total, _GATE_DEGREE * 2 * plan.exponent)
    return ordered, outputs.reshape(4, 16, -1), weights, live, total, survival


def _first_branch(joint: StateVector, reflection: ReflectionPair | None):
    """The gate's first non-empty branch, in outcome order, on a joint input
    at one reflection pair (None: ideal): the input with PHOTON_LABELS first,
    the branch's corrected, unnormalized output (16, m), and its weight."""
    ordered, outputs, weights, live, _, _ = _gate_outputs(joint, reflection)
    return ordered, outputs[live[0]], weights[live[0]]


def _draw(rng: np.random.Generator, w0: float, w1: float) -> int:
    """``int(rng.choice(2, p=[w0, w1] / (w0 + w1)))`` from the same single
    uniform draw and IEEE operations: for two outcomes Generator.choice
    divides cdf = p.cumsum() by cdf[-1] and returns
    cdf.searchsorted(rng.random(), "right"), 1 exactly when cdf[0] <= the draw."""
    total = w0 + w1
    p0, p1 = w0 / total, w1 / total
    return int(p0 / (p0 + p1) <= rng.random())


def hyper_cnot_state(
    joint: StateVector,
    reflection: ReflectionPair | None = None,
    branch_mode: str = "enumerate",
    seed: int | None = None,
) -> list[GateRun] | GateRun:
    """Run the gate on a joint two-photon state (any entanglement allowed).

    ``branch_mode="enumerate"`` returns all four spin branches, skipping
    empty ones, in outcome order; ``"sample"`` returns the one branch drawn
    with a seeded PRNG. In ideal mode all enumerated branches carry the same
    corrected state. Raises ZeroSurvivalError when no amplitude reaches the
    spin measurement.

    The branches are picked and sampled on Python floats (_draw), then
    normalized, taken back to the input's register order and validated as
    one stack over the input's registers (hilbert._states). Each run is a
    bare frozen instance, built as hilbert._states builds its states: the
    constructor's state only while GateRun has no __post_init__.
    """
    if branch_mode not in ("enumerate", "sample"):
        raise ValueError(f"branch_mode must be 'enumerate' or 'sample', got {branch_mode!r}")
    mode = "ideal" if reflection is None else "physical"
    ordered, outputs, weights, live, total, survival = _gate_outputs(joint, reflection)
    if branch_mode == "sample":
        # one draw on e1, then one on e2 given e1, so a seed selects the
        # same branch as measuring the spins one by one
        rng = np.random.default_rng(seed)
        o1 = _draw(rng, weights[0] + weights[1], weights[2] + weights[3])
        live = [2 * o1 + _draw(rng, weights[2 * o1], weights[2 * o1 + 1])]
    else:
        seed = None  # enumerated runs carry no seed
    norms = np.array([math.sqrt(weights[branch]) for branch in live])
    finals = outputs.take(live, 0)
    finals /= norms[:, None, None]
    states = _states(joint.registers, joint.labels, _input_order(finals, ordered, joint))
    new = object.__new__
    runs = []
    for branch, state in zip(live, states):
        run = new(GateRun)
        fields = run.__dict__
        fields["mode"] = mode
        fields["spin_outcomes"], fields["feed_forward_ops"] = _BRANCH_RECORDS[branch]
        fields["final_state"] = state
        fields["survival_probability"] = survival
        fields["branch_probability"] = weights[branch] / total
        fields["seed"] = seed
        runs.append(run)
    return runs[0] if branch_mode == "sample" else runs


def _ideal_reference(ordered: StateVector) -> tuple[np.ndarray, float]:
    """The conjugate of the ideal gate's output on a photon-major input, and
    its squared norm: every ideal branch carries the same corrected output,
    the (0, 0) one, whose Kraus operator is the plan matrix's first 16 rows."""
    ideal = (_gate_plan(None).matrix[:16] @ ordered.amplitudes.reshape(16, -1)).reshape(-1)
    return ideal.conj(), float(np.sum(np.abs(ideal) ** 2))


@cache
def _uniform_reference() -> tuple[np.ndarray, float]:
    """_ideal_reference of the uniform input, built once per process with its
    conjugate read-only, as the input itself is: every caller shares it.
    It is the expression any other input evaluates per call, so the uniform
    input has the same figures, bit for bit, as a copy of it, which takes
    the per-call path."""
    conj, norm2 = _ideal_reference(uniform_two_photon_state())
    conj.flags.writeable = False
    return conj, norm2


def _simulated_figures(joint: StateVector, reflection: ReflectionPair) -> tuple[float, float]:
    """analysis.simulated_performance's figures of a joint input at one pair,
    from one gate product. Raises ZeroSurvivalError at zero survival."""
    ordered, outputs, _, _, total, survival = _gate_outputs(joint, reflection)
    uniform = joint is uniform_two_photon_state()
    conj, norm2 = _uniform_reference() if uniform else _ideal_reference(ordered)
    overlap2 = np.abs(outputs.reshape(4, -1) @ conj) ** 2
    return float(overlap2.sum() / (norm2 * total)), survival


# -- spin readout --------------------------------------------------------

# rows are the circular-diagonal analysis basis (R + iL)/sqrt2, (R - iL)/sqrt2,
# declared up and down where Im(r_hot conj r_cold) >= 0, as for the ideal pair
_READOUT_BASIS = np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a spin readout.

    ``probability`` is the outcome's weight, the squared norm of the
    post-measurement state before renormalization; for a normalized input
    that is the Born probability.
    """

    register_label: str
    outcome: int
    outcome_name: str
    probability: float


def spin_readout(
    state: StateVector,
    spin_label: str,
    reflection: ReflectionPair | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[MeasurementRecord, StateVector]:
    """Read a spin by reflecting an auxiliary (R+L)/sqrt2 photon off its cavity.

    The auxiliary photon is measured in the basis {(R + iL)/sqrt2,
    (R - iL)/sqrt2}. Which outcome is declared up follows the sign of
    Im(r_hot conj r_cold), that of sin(delta_phi) with delta_phi =
    arg r_hot - arg r_cold, as a calibrated experiment would choose it:
    where it is >= 0, as for the ideal pair, the + outcome is up and the -
    outcome down; otherwise the other way round. In ideal mode this projects
    the spin exactly like a computational-basis measurement; with lossy
    reflections a small misassignment survives in the returned state.

    The probe is no register: scattered as _PASS_COLD says and projected
    onto an analysis state, it leaves a diagonal 2x2 Kraus pair on the
    spin, kraus[o, s] the amplitude of outcome o for spin basis state s.
    The record's probability is the outcome's weight before renormalization.
    Raises ZeroSurvivalError when no probe amplitude returns.
    """
    refl = _pair(reflection)
    leads = (refl.r_hot * refl.r_cold.conjugate()).imag >= 0
    basis = _READOUT_BASIS if leads else _READOUT_BASIS[::-1]
    # the probe's 1/sqrt2 amplitudes times the scattering, axes (polarization, spin)
    scattering = np.where(np.reshape(_PASS_COLD, (2, 2)), refl.r_cold, refl.r_hot)
    kraus = (basis / np.sqrt(2.0)) @ scattering
    axis = state.register_index(spin_label)
    marginal = np.sum(np.abs(state.amplitudes.reshape(2**axis, 2, -1)) ** 2, axis=(0, 2))
    weights = (np.abs(kraus) ** 2 @ marginal).tolist()
    if weights[0] + weights[1] == 0.0:
        raise ZeroSurvivalError("zero survival: no probe amplitude returns, so the readout is undefined")
    # default_rng returns a Generator it is given as it is, so one is drawn from, not re-seeded
    outcome = _draw(np.random.default_rng(rng), *weights)
    probability = weights[outcome]
    record = MeasurementRecord(
        register_label=spin_label,
        outcome=outcome,
        outcome_name=state.registers[axis].basis_names[outcome],
        probability=probability,
    )
    post = np.diag(kraus[outcome]) / math.sqrt(probability)
    return record, apply_operator(state, [spin_label], post)


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


@cache
def _basis_inputs() -> tuple[tuple, tuple[StateVector, ...], tuple, tuple[int, ...]]:
    """The 16 photon basis states in index order: their per-register names,
    the states, and the names and indices of their expected outputs, built
    once per process (a StateVector is immutable)."""
    names = tuple(basis_names(_PHOTON_REGISTERS, index) for index in range(16))
    states = tuple(basis_state(_PHOTON_REGISTERS, n) for n in names)
    expected = tuple(expected_truth_table_output(n) for n in names)
    return names, states, expected, tuple(names.index(n) for n in expected)


def truth_table(reflection: ReflectionPair | None = None) -> list[TruthTableRow]:
    """Run all 16 basis inputs through the gate and decode each branch.

    A row passes when every spin branch's corrected output decodes (by
    dominant amplitude) to the CNOT-on-both-degrees prediction; the row
    also carries the worst branch fidelity against that prediction, the
    squared magnitude of the output's amplitude on the predicted state.
    """
    names, inputs, expected_names, expected_indices = _basis_inputs()
    runs = [hyper_cnot_state(joint, reflection) for joint in inputs]
    # every branch of every row as one stack, decoded at once
    counts = [len(row) for row in runs]
    starts = np.cumsum([0] + counts[:-1])
    outputs = np.array([run.final_state.amplitudes for row in runs for run in row])
    expected = np.repeat(expected_indices, counts)
    observed = np.argmax(np.abs(outputs), axis=1)
    ok = np.logical_and.reduceat(observed == expected, starts).tolist()
    fidelity = np.abs(outputs[np.arange(len(outputs)), expected]) ** 2
    min_fidelity = np.minimum.reduceat(fidelity, starts).tolist()
    return [
        TruthTableRow(names[i], expected_names[i], names[observed[start]], ok[i], min_fidelity[i])
        for i, start in enumerate(starts)
    ]


# -- cluster-state preparation ---------------------------------------------


@dataclass(frozen=True)
class ClusterStages:
    """Checkpoints of the cluster-state preparation circuit."""

    hyper_bell: StateVector
    after_control_hadamards: StateVector
    after_conditional_flip: StateVector
    cluster: StateVector


@cache
def _cluster_input() -> StateVector:
    """(R+L)(path1+path2)/2 on photon a and R, path1 on photon b, built once
    per process (a StateVector is immutable, so every caller shares it)."""
    return tensor_product(photon_state("a", _PLUS, _PLUS), photon_state("b", (1, 0), (1, 0)))


def prepare_cluster_stages(reflection: ReflectionPair | None = None) -> ClusterStages:
    """Cluster preparation with intermediate checkpoints.

    Starts from (R+L)(path1+path2)/2 on photon a and R, path1 on photon b,
    runs the gate (its first non-empty branch, up,up in ideal mode), then
    the _CLUSTER_SEGMENTS, each one product with its compiled map:
    Hadamards on photon a, the path-controlled polarization sign flip, and
    Hadamards on photon b. The four states are validated as one stack over
    the input's registers (hilbert._states).
    """
    joint = _cluster_input()  # photon-major, so the outputs are in its order
    _, branch, weight = _first_branch(joint, reflection)
    amplitudes = [branch.reshape(16) / math.sqrt(weight)]
    for segment in _CLUSTER_SEGMENTS:
        amplitudes.append(_optics_map(segment) @ amplitudes[-1])
    return ClusterStages(*_states(joint.registers, joint.labels, amplitudes))


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
            if isinstance(idx, bool) or not isinstance(idx, Integral):
                raise TypeError(f"Bell index must be an integer, got {idx!r}")
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
    """The hyperentangled Bell state over both photons' registers."""
    return _bell_states()[HyperBellState(pol_index, spatial_index).combined_index]


@cache
def _bell_states() -> tuple[StateVector, ...]:
    """The 16 hyperentangled Bell states in combined-index order, built once
    per process (a StateVector is immutable, so every caller shares them)."""
    pairs = _BELL_AMPLITUDES.astype(np.complex128).reshape(4, 2, 2)
    # axes pol index, a.pol, b.pol, spatial index, a.spatial, b.spatial, taken
    # to the indices, then PHOTON_LABELS order
    amplitudes = np.multiply.outer(pairs, pairs).transpose(0, 3, 1, 4, 2, 5).reshape(16, 16)
    return tuple(state_stack(_PHOTON_REGISTERS, amplitudes))


@dataclass(frozen=True)
class BellAnalysis:
    """Decoded Bell indices plus the raw measurement pattern.

    ``deterministic`` is False when any single-photon measurement would not
    be certain, which is the signature of a non-Bell (or lossy) input.
    """

    pol_index: int
    spatial_index: int
    pattern: tuple[str, str, str, str]
    deterministic: bool
    min_outcome_probability: float


def _bell_readout(branch: np.ndarray) -> tuple[int, float]:
    """The photon basis index of each photon register's likelier outcome
    (PHOTON_LABELS order, the first most significant; 1 only where p1 > p0,
    argmax's first-max rule) and the least p_o / (p0 + p1), for a branch
    (16, spectator amplitudes) after the _CONTROL_HADAMARDS."""
    probabilities = np.square(np.abs(_optics_map(_CONTROL_HADAMARDS) @ branch)).sum(1)
    marginals = (_MARGINALS @ probabilities).tolist()
    pairs = list(zip(marginals[::2], marginals[1::2]))  # (p0, p1) per register
    outcome = sum(int(p1 > p0) << 3 - r for r, (p0, p1) in enumerate(pairs))
    return outcome, min(max(p0, p1) / (p0 + p1) for p0, p1 in pairs)


def _bell_pattern(state: StateVector, reflection: ReflectionPair | None):
    """The input's photon registers in PHOTON_LABELS order, then the
    _bell_readout of the gate's first non-empty branch as it is, unnormalized."""
    ordered, branch, _ = _first_branch(state, reflection)
    return ordered.registers[:4], *_bell_readout(branch)


@cache
def bell_decoding_table() -> Mapping[tuple[str, str, str, str], tuple[int, int]]:
    """Outcome pattern -> (pol index, spatial index), derived by enumeration.

    The table is generated by running all 16 ideal-mode analyses rather
    than asserted a priori; it doubles as documentation of the decoder, and
    every caller shares it as one read-only view.
    """
    table: dict[tuple[str, str, str, str], tuple[int, int]] = {}
    for combined, state in enumerate(_bell_states()):
        registers, outcome, _ = _bell_pattern(state, None)
        pattern = basis_names(registers, outcome)
        if pattern in table:
            raise AssertionError(f"decoding collision at pattern {pattern}")
        table[pattern] = divmod(combined, 4)
    return MappingProxyType(table)


def analyze_hyper_bell(
    state: StateVector | HyperBellState,
    reflection: ReflectionPair | None = None,
) -> BellAnalysis:
    """Identify a hyperentangled Bell state from single-photon outcomes.

    The gate plus one Hadamard per control degree of freedom maps each of
    the 16 Bell products onto a distinct product basis state, so all four
    single-photon measurements come out deterministic and the pair of
    indices can be read off the decoding table, under the library's basis
    names; ``pattern`` reads the same outcomes in the input's own names.
    """
    if isinstance(state, HyperBellState):
        state = _bell_states()[state.combined_index]  # normalized
    elif abs(state.norm2 - 1.0) > NORM_ATOL:
        raise ValueError("analysis input must be normalized")
    registers, outcome, min_prob = _bell_pattern(state, reflection)
    pol_index, spatial_index = bell_decoding_table()[basis_names(_PHOTON_REGISTERS, outcome)]
    pattern = basis_names(registers, outcome)
    deterministic = min_prob >= 1.0 - _DETERMINISTIC_TOL
    return BellAnalysis(pol_index, spatial_index, pattern, deterministic, min_prob)
