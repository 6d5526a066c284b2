"""Independent expected-value constructions used as test oracles.

Everything here is assembled directly from amplitude bookkeeping (closed
forms of the staged circuit) or brute-force index arithmetic, never by
running the circuit under test. There are four exceptions. The step path
reads the library's circuit table, protocols._STAGES, and its cavity-pass
table, but not its compile: step_checkpoints, the reference for
hyper_cnot_checkpoints, pushes the joint input it is given through the
stages one StateVector operator at a time (pass_matrix, apply_element),
and step_gate_runs, the reference for the compiled gate, then measures and
corrects the pre-measurement state one register at a time.
step_spin_readout, the reference for the readout's Kraus pair, scatters a
probe register off the spin the same way. The step path applies operators
with hilbert.apply_operator, which has its own reference here in its first
(tensordot) form; it measures, discards and normalizes with this module's
own moveaxis kernels (measure_all_branches, outcome_slices_reference).
step_bell_pattern and step_cluster_stages, the references for the compiled
Bell analysis and cluster preparation, take the first branch
step_gate_runs keeps and apply the optics after the gate one element at a
time (apply_element, conditional_element). reduction_bell_pattern, the
tight reference for the Bell readout's marginal product, runs the compiled
gate and optics and sums each photon register's marginal over the other
axes. engine_uniform_figures evaluates the compiled gate's Kraus operators
at many pairs at once: it is the reference for the exact uniform-input
form, and the tests hold the compiled gate to step_gate_runs.
tensordot_evaluate evaluates the compiled coefficients in their first
(tensordot) form: the bitwise reference for the library's evaluator.
"""

from __future__ import annotations

import math

import numpy as np

from hypercnot import (
    CavityParams,
    ClusterStages,
    ElementKind,
    GateRun,
    Register,
    ReflectionPair,
    StateVector,
    apply_operator,
    basis_index,
    element_matrix,
    evaluate_branches,
    photon_registers,
    photon_state,
    reflect_cold,
    reflect_hot,
    spin_register,
    tensor_product,
    tensor_state,
    uniform_two_photon_state,
)
from hypercnot import protocols
from hypercnot.optics import conditional_matrix
from hypercnot.protocols import _CAVITY_PASS, _PASS_COLD, _PASS_TURNED, _STAGES, BRANCH_FLOOR

SQ2 = np.sqrt(2.0)

A_POL_REG, A_SPATIAL_REG = photon_registers("a")
B_POL_REG, B_SPATIAL_REG = photon_registers("b")
SPIN1_REG = spin_register("e1")
SPIN2_REG = spin_register("e2")

PHOTON_REGS = (A_POL_REG, A_SPATIAL_REG, B_POL_REG, B_SPATIAL_REG)
SYSTEM_REGS = PHOTON_REGS + (SPIN1_REG, SPIN2_REG)

POL_NAMES = ("R", "L")
A_PATHS = ("a1", "a2")
B_PATHS = ("b1", "b2")
SPIN_NAMES = ("up", "down")

PREPARED_SPIN = np.array([1j, 1.0]) / SQ2  # SPIN_ROT_PLUS acting on |up>

# Elements no circuit table places, written from their physical action on
# the (R, L) or (up, down) basis. The CPBS-sandwich checks compose the first
# three into the cavity pass.
HWP_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)  # bit-flip plate, R <-> L
WP_U1 = np.diag([-1j, -1j])  # the -i plate in the second spatial path
WP_U2 = np.diag([1, -1j])  # -i phase on L only
# undoes SPIN_ROT_PLUS: (i up + down)/sqrt2 -> up, (i up - down)/sqrt2 -> down
SPIN_ROT_MINUS = np.array([[-1j, 1], [-1j, -1]]) / SQ2


def scatter_matrix(reflection: ReflectionPair) -> np.ndarray:
    """Diagonal scattering map on (polarization, spin), order (R,L)x(up,down),
    written from the giant Faraday rotation rule: L with spin up and R with
    spin down see the coupled (hot) cavity, the other two pairs the bare
    (cold) one. With the ideal pair (-i, 1) this is the phase table
    |R,up> -> -i, |L,up> -> +1, |R,down> -> +1, |L,down> -> -i.
    """
    c, h = reflection.r_cold, reflection.r_hot
    return np.diag(np.array([c, h, h, c], dtype=np.complex128))


def embed_matrix(num_registers: int, target_axes: list[int], mat: np.ndarray) -> np.ndarray:
    """Explicit full matrix of an operator embedded on some registers.

    Built by looping over basis indices (most significant register first),
    independent of the library's tensor contraction.
    """
    dim = 2**num_registers
    k = len(target_axes)
    full = np.zeros((dim, dim), dtype=complex)
    others = [ax for ax in range(num_registers) if ax not in target_axes]

    def bits(flat):
        return [(flat >> (num_registers - 1 - ax)) & 1 for ax in range(num_registers)]

    for i in range(dim):
        bi = bits(i)
        for j in range(dim):
            bj = bits(j)
            if any(bi[ax] != bj[ax] for ax in others):
                continue
            row = 0
            col = 0
            for ax in target_axes:
                row = 2 * row + bi[ax]
                col = 2 * col + bj[ax]
            full[i, j] = mat[row, col]
    return full


def apply_operator_reference(
    state: StateVector, target_labels: list[str], matrix: np.ndarray
) -> np.ndarray:
    """Amplitudes of hilbert.apply_operator by tensordot over the target axes,
    with the contracted axes moved back into place."""
    axes = [state.register_index(label) for label in target_labels]
    k = len(axes)
    psi = state.amplitudes.reshape((2,) * state.num_registers)
    op = np.asarray(matrix, dtype=np.complex128).reshape((2,) * (2 * k))
    out = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(-1)


def outcome_weights_reference(state: StateVector, register_label: str) -> np.ndarray:
    """Squared-norm weight of each basis outcome of one register, with the
    register's axis moved to the front and each outcome's slice summed on
    its own."""
    axis = state.register_index(register_label)
    moved = np.moveaxis(state.amplitudes.reshape((2,) * state.num_registers), axis, 0)
    return np.array([float(np.sum(np.abs(moved[0]) ** 2)), float(np.sum(np.abs(moved[1]) ** 2))])


def outcome_slices_reference(state: StateVector, register_label: str) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes with one register fixed to outcome 0 and to outcome 1,
    flattened, with that register's axis moved to the front."""
    axis = state.register_index(register_label)
    moved = np.moveaxis(state.amplitudes.reshape((2,) * state.num_registers), axis, 0)
    return moved[0].reshape(-1), moved[1].reshape(-1)


def normalize(state: StateVector) -> StateVector:
    """The state scaled to unit norm."""
    return StateVector(state.registers, state.amplitudes / np.linalg.norm(state.amplitudes))


def _discard(state: StateVector, register_label: str, outcome: int) -> StateVector:
    """The state without one register, kept at the given outcome's slice."""
    regs = tuple(reg for reg in state.registers if reg.label != register_label)
    return StateVector(regs, outcome_slices_reference(state, register_label)[outcome])


def _sample(branches, rng: np.random.Generator) -> int:
    """One outcome of measure_all_branches' branches, drawn on their relative
    weights with Generator.choice, whose single uniform draw the library's
    _draw reproduces."""
    weights = np.array([probability for _, probability, _ in branches])
    return int(rng.choice(2, p=weights / weights.sum()))


def state_from_terms(registers, terms: dict) -> StateVector:
    """State assembled from ``{(basis names per register): amplitude}``."""
    regs = tuple(registers)
    amps = np.zeros(2 ** len(regs), dtype=np.complex128)
    for names, amp in terms.items():
        amps[basis_index(regs, names)] += amp
    return StateVector(regs, amps)


def measure_all_branches(
    state: StateVector, register_label: str
) -> list[tuple[int, float, StateVector]]:
    """Every (outcome, probability, projected state) of one register.

    The projection zeroes the other outcome's slice with the register's axis
    moved to the front. Projected states are not renormalized, so the
    probabilities of nested enumerations multiply through and sum to the
    input's squared norm.
    """
    axis = state.register_index(register_label)
    weights = outcome_weights_reference(state, register_label)
    branches = []
    for outcome in (0, 1):
        moved = np.moveaxis(state.amplitudes.reshape((2,) * state.num_registers), axis, 0).copy()
        moved[1 - outcome] = 0.0
        projected = StateVector(state.registers, np.moveaxis(moved, 0, axis).reshape(-1))
        branches.append((outcome, float(weights[outcome]), projected))
    return branches


def _with_system_registers(photon_factor, spin1_factor, spin2_factor) -> StateVector:
    """Assemble a 6-register state from per-basis factor callables."""
    terms = {}
    for ip, pa in enumerate(POL_NAMES):
        for isa, sa in enumerate(A_PATHS):
            for jp, pb in enumerate(POL_NAMES):
                for jsb, sb in enumerate(B_PATHS):
                    for e1 in (0, 1):
                        for e2 in (0, 1):
                            amp = (
                                photon_factor(ip, isa, jp, jsb, e1, e2)
                                * spin1_factor(ip, isa, jp, jsb, e1)
                                * spin2_factor(ip, isa, jp, jsb, e2)
                            )
                            if amp != 0:
                                terms[(pa, sa, pb, sb, SPIN_NAMES[e1], SPIN_NAMES[e2])] = amp
    return state_from_terms(SYSTEM_REGS, terms)


def control_spatial_expected(alpha, gamma, beta, delta) -> StateVector:
    """State after the control photon's spatial pass only.

    The control spatial mode is entangled with spin 1 (the second path
    picks up a sign in the down branch); everything else is untouched and
    spin 2 still sits in its prepared superposition.
    """
    spatial_branch = {0: (gamma[0], gamma[1]), 1: (gamma[0], -gamma[1])}
    return _with_system_registers(
        lambda ip, isa, jp, jsb, e1, e2: alpha[ip]
        * spatial_branch[e1][isa]
        / SQ2
        * beta[jp]
        * delta[jsb],
        lambda *_: 1.0,
        lambda ip, isa, jp, jsb, e2: PREPARED_SPIN[e2],
    )


def hybrid_cz_expected(alpha, gamma, beta, delta) -> StateVector:
    """State after both control passes: each spin controls one pi phase."""
    spatial_branch = {0: (gamma[0], gamma[1]), 1: (gamma[0], -gamma[1])}
    pol_branch = {0: (alpha[0], alpha[1]), 1: (alpha[0], -alpha[1])}
    return _with_system_registers(
        lambda ip, isa, jp, jsb, e1, e2: pol_branch[e2][ip]
        / SQ2
        * spatial_branch[e1][isa]
        / SQ2
        * beta[jp]
        * delta[jsb],
        lambda *_: 1.0,
        lambda *_: 1.0,
    )


def _hadamard_pair(pair):
    return ((pair[0] + pair[1]) / SQ2, (pair[0] - pair[1]) / SQ2)


def target_scattered_expected(alpha, gamma, beta, delta) -> StateVector:
    """State after the target photon's two passes, before the spin Hadamards.

    Each degree-of-freedom sector collapses onto one spin branch: spin 1
    up rides with path a1, down with a2; spin 2 up rides with R, down
    with L. The target amplitudes are the Hadamard-rotated inputs, with a
    sign on the second component in the down branches.
    """
    beta_p = _hadamard_pair(beta)
    delta_p = _hadamard_pair(delta)

    def spatial(isa, jsb, e1):
        if e1 == 0 and isa == 0:
            return gamma[0] * (delta_p[0], delta_p[1])[jsb]
        if e1 == 1 and isa == 1:
            return gamma[1] * (delta_p[0], -delta_p[1])[jsb]
        return 0.0

    def pol(ip, jp, e2):
        if e2 == 0 and ip == 0:
            return alpha[0] * (beta_p[0], beta_p[1])[jp]
        if e2 == 1 and ip == 1:
            return alpha[1] * (beta_p[0], -beta_p[1])[jp]
        return 0.0

    return _with_system_registers(
        lambda ip, isa, jp, jsb, e1, e2: spatial(isa, jsb, e1) * pol(ip, jp, e2),
        lambda *_: 1.0,
        lambda *_: 1.0,
    )


def pre_measurement_expected(alpha, gamma, beta, delta) -> StateVector:
    """State just before the spin measurement: every spin branch already
    carries the gate logic, the down branches with a correctable sign."""

    def spatial(isa, jsb, e1):
        straight = gamma[0] * (delta[0], delta[1])[jsb]
        swapped = gamma[1] * (delta[1], delta[0])[jsb]
        sign = 1.0 if e1 == 0 else -1.0
        return (straight if isa == 0 else sign * swapped) / SQ2

    def pol(ip, jp, e2):
        straight = alpha[0] * (beta[0], beta[1])[jp]
        swapped = alpha[1] * (beta[1], beta[0])[jp]
        sign = 1.0 if e2 == 0 else -1.0
        return (straight if ip == 0 else sign * swapped) / SQ2

    return _with_system_registers(
        lambda ip, isa, jp, jsb, e1, e2: spatial(isa, jsb, e1) * pol(ip, jp, e2),
        lambda *_: 1.0,
        lambda *_: 1.0,
    )


def gate_output_expected(alpha, gamma, beta, delta) -> StateVector:
    """Corrected final two-photon state: CNOT on each degree of freedom."""
    terms = {}
    for ip, pa in enumerate(POL_NAMES):
        for isa, sa in enumerate(A_PATHS):
            for jp, pb in enumerate(POL_NAMES):
                for jsb, sb in enumerate(B_PATHS):
                    pol = alpha[0] * (beta[0], beta[1])[jp] if ip == 0 else alpha[1] * (beta[1], beta[0])[jp]
                    spat = gamma[0] * (delta[0], delta[1])[jsb] if isa == 0 else gamma[1] * (delta[1], delta[0])[jsb]
                    terms[(pa, sa, pb, sb)] = pol * spat
    return state_from_terms(PHOTON_REGS, terms)


def cluster_after_hadamards_expected() -> StateVector:
    """Hyperentangled Bell pair after Hadamards on the control photon."""
    pol = {("R", "R"): 0.5, ("L", "R"): 0.5, ("R", "L"): 0.5, ("L", "L"): -0.5}
    spatial = {("a1", "b1"): 0.5, ("a2", "b1"): 0.5, ("a1", "b2"): 0.5, ("a2", "b2"): -0.5}
    terms = {}
    for (pa, pb), p in pol.items():
        for (sa, sb), s in spatial.items():
            terms[(pa, sa, pb, sb)] = p * s
    return state_from_terms(PHOTON_REGS, terms)


def cluster_after_flip_expected() -> StateVector:
    """After the path-controlled polarization sign flip on the control photon."""
    plus = {"R": 1.0, "L": 1.0}
    minus = {"R": 1.0, "L": -1.0}
    blocks = [
        ("b1", "R", {("a1", n): v for n, v in plus.items()}, {("a2", n): -v for n, v in minus.items()}),
        ("b2", "R", {("a1", n): v for n, v in plus.items()}, {("a2", n): v for n, v in minus.items()}),
        ("b1", "L", {("a1", n): v for n, v in minus.items()}, {("a2", n): -v for n, v in plus.items()}),
        ("b2", "L", {("a1", n): v for n, v in minus.items()}, {("a2", n): v for n, v in plus.items()}),
    ]
    terms: dict = {}
    for sb, pb, first, second in blocks:
        for (sa, pa), v in {**first, **second}.items():
            terms[(pa, sa, pb, sb)] = terms.get((pa, sa, pb, sb), 0.0) + 0.25 * v
    return state_from_terms(PHOTON_REGS, terms)


def cluster_expected() -> StateVector:
    """Final cluster state: correlated paths, with the second path pair
    carrying a sign that flips the polarization parity."""
    terms = {
        ("R", "a1", "R", "b1"): 0.5,
        ("L", "a1", "L", "b1"): 0.5,
        ("R", "a2", "R", "b2"): -0.5,
        ("L", "a2", "L", "b2"): 0.5,
    }
    return state_from_terms(PHOTON_REGS, terms)


def cnot_cnot_permutation() -> np.ndarray:
    """16x16 permutation matrix of CNOT on each degree of freedom.

    Basis index order (a.pol, a.spatial, b.pol, b.spatial), most
    significant first; the controls are a's registers.
    """
    perm = np.zeros((16, 16))
    for idx in range(16):
        pa = (idx >> 3) & 1
        sa = (idx >> 2) & 1
        pb = (idx >> 1) & 1
        sb = idx & 1
        out = (pa << 3) | (sa << 2) | ((pb ^ pa) << 1) | (sb ^ sa)
        perm[out, idx] = 1.0
    return perm


def random_amplitude_pair(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def efficiency_oracle(params: CavityParams) -> float:
    """Four-reflection counting prediction for the survival probability.

    Independent of the circuit path: uses only the reflection magnitudes.
    """
    u = abs(reflect_cold(params))
    v = abs(reflect_hot(params))
    return float(((u**2 + v**2) / 2) ** 4)


# -- the step path: the circuit one StateVector operator at a time -----------


def apply_element(state: StateVector, kind: ElementKind, target_label: str) -> StateVector:
    return apply_operator(state, [target_label], element_matrix(kind))


def conditional_element(
    state: StateVector,
    kind: ElementKind,
    target_label: str,
    control_label: str,
    control_value: int,
) -> StateVector:
    """Apply an element on the target only in one control basis branch, as a
    wave plate sitting in a single spatial path does: the element acts when
    the control register carries ``control_value``, the identity otherwise."""
    block = conditional_matrix(kind, control_value)
    return apply_operator(state, [control_label, target_label], block)


def pass_matrix(reflection=None) -> np.ndarray:
    """Operator of one cavity pass on (path-or-polarization, spin), built from
    the library's pass table: ``diag(r_cold, r_hot, -i r_hot, -i r_cold)``
    for both kinds of pass; ``reflection=None`` selects the ideal pair."""
    refl = reflection if reflection is not None else ReflectionPair.ideal()
    entries = [refl.r_cold if cold else refl.r_hot for cold in _PASS_COLD]
    return np.diag([-1j * r if turned else r for r, turned in zip(entries, _PASS_TURNED)])


def step_checkpoints(joint: StateVector, reflection=None) -> dict[str, StateVector]:
    """hyper_cnot_checkpoints on the step path: the spins attached up after
    the joint input's registers, then _STAGES one apply_operator at a time,
    with the state kept at every checkpoint."""
    st = tensor_product(joint, tensor_state([(SPIN1_REG, (1, 0)), (SPIN2_REG, (1, 0))]))
    cavity_pass = pass_matrix(reflection)
    stages = {}
    for name, ops in _STAGES:
        for kind, *labels in ops:
            if kind is _CAVITY_PASS:
                st = apply_operator(st, labels, cavity_pass)
            else:
                st = apply_element(st, kind, *labels)
        stages[name] = st
    return stages


SIGN_FLIP = np.diag([1.0, -1.0])

# register sign-flipped by a down outcome of e1 and of e2, respectively
FEED_FORWARD_TARGETS = ("a.spatial", "a.pol")


def step_gate_runs(joint: StateVector, reflection=None, branch_mode="enumerate", seed=None):
    """The gate on the step path, one register at a time: the reference for
    hyper_cnot_state.

    Runs the checkpoints on the joint input as given (its registers in input
    order, then e1 and e2), then measures e1 and e2 on the pre-measurement state
    (measure_all_branches, in sample mode with one seeded draw per spin),
    flips the signs the outcomes call for with apply_operator, discards the
    spins and normalizes. Enumeration keeps every branch of nonzero weight,
    with no round-off floor. Returns a list of GateRuns (one in sample mode).
    """
    pre = step_checkpoints(joint, reflection)["pre_measurement"]
    survival = pre.norm2
    if branch_mode == "sample":
        rng = np.random.default_rng(seed)
        first = measure_all_branches(pre, "e1")
        o1 = _sample(first, rng)
        second = measure_all_branches(first[o1][2], "e2")
        o2 = _sample(second, rng)
        branches = [((o1, o2), second[o2][1] / survival, second[o2][2])]
    else:
        branches = [
            ((o1, o2), p2 / survival, st2)
            for o1, _, st1 in measure_all_branches(pre, "e1")
            for o2, p2, st2 in measure_all_branches(st1, "e2")
            if p2 > 0.0
        ]
    runs = []
    for outcomes, probability, st in branches:
        ops = tuple(label for label, o in zip(FEED_FORWARD_TARGETS, outcomes) if o)
        for label in ops:
            st = apply_operator(st, [label], SIGN_FLIP)
        final = _discard(_discard(st, "e2", outcomes[1]), "e1", outcomes[0])
        runs.append(
            GateRun(
                mode="ideal" if reflection is None else "physical",
                spin_outcomes=outcomes,
                feed_forward_ops=ops,
                final_state=normalize(final),
                survival_probability=survival,
                branch_probability=probability,
                seed=seed if branch_mode == "sample" else None,
            )
        )
    return runs


# bras of the readout's analysis states (R + iL)/sqrt2 and (R - iL)/sqrt2
ANALYSIS_BRAS = np.array([[1, -1j], [1, 1j]]) / SQ2


def step_spin_readout(state: StateVector, spin_label: str, reflection=None, seed=None):
    """spin_readout on the step path: the reference for its Kraus pair.

    Attaches the (R+L)/sqrt2 probe after the state's registers, scatters it
    off the spin (scatter_matrix, apply_operator), turns the analysis basis
    declared up where Im(r_hot conj r_cold) >= 0 onto R, L, then measures
    the probe (measure_all_branches and one seeded draw), discards it and
    normalizes. Returns the outcome, its weight and the post-state.
    """
    refl = reflection if reflection is not None else ReflectionPair.ideal()
    probe = Register("probe.pol", POL_NAMES)
    st = tensor_product(state, tensor_state([(probe, (1 / SQ2, 1 / SQ2))]))
    st = apply_operator(st, [probe.label, spin_label], scatter_matrix(refl))
    leads = (refl.r_hot * refl.r_cold.conjugate()).imag >= 0
    st = apply_operator(st, [probe.label], ANALYSIS_BRAS if leads else ANALYSIS_BRAS[::-1])
    branches = measure_all_branches(st, probe.label)
    outcome = _sample(branches, np.random.default_rng(seed))
    weight = branches[outcome][1]
    return outcome, weight, normalize(_discard(branches[outcome][2], probe.label, outcome))


def _first_step_branch(joint: StateVector, reflection) -> StateVector:
    """The final state of the first branch step_gate_runs keeps above the
    gate's round-off floor, as the library's first run is."""
    return next(
        run.final_state
        for run in step_gate_runs(joint, reflection)
        if run.branch_probability > BRANCH_FLOOR
    )


def step_bell_pattern(state: StateVector, reflection=None) -> tuple[tuple[str, ...], float]:
    """The Bell analysis on the step path: analyze_hyper_bell's pattern and
    least single-photon outcome probability.

    The first branch of the gate, then HWP_H on a.pol and BS on a.spatial
    one apply_element at a time; each photon register's outcome is the
    likelier one of its outcome_weights_reference.
    """
    st = _first_step_branch(state, reflection)
    st = apply_element(st, ElementKind.HWP_H, "a.pol")
    st = apply_element(st, ElementKind.BS, "a.spatial")
    names = []
    min_prob = 1.0
    for reg in PHOTON_REGS:
        weights = outcome_weights_reference(st, reg.label)
        outcome = int(np.argmax(weights))
        names.append(reg.basis_names[outcome])
        min_prob = min(min_prob, float(weights[outcome] / weights.sum()))
    return tuple(names), min_prob


def reduction_bell_pattern(state: StateVector, reflection=None) -> tuple[tuple[str, ...], float]:
    """The Bell readout as four axis reductions: analyze_hyper_bell's pattern
    and least single-photon outcome probability, on the library's own gate
    branch and _CONTROL_HADAMARDS map.

    The outcome probabilities, shaped (2, 2, 2, 2, spectator amplitudes),
    are summed over every axis but one photon register's; each register's
    outcome is the argmax of its marginal.
    """
    ordered, branch, _ = protocols._first_branch(state, reflection)
    optics = protocols._optics_map(protocols._CONTROL_HADAMARDS)
    probabilities = (np.abs(optics @ branch) ** 2).reshape(2, 2, 2, 2, -1)
    marginals = np.array(
        [probabilities.sum(axis=tuple(a for a in range(5) if a != axis)) for axis in range(4)]
    )
    outcomes = np.argmax(marginals, axis=1)
    names = tuple(reg.basis_names[o] for reg, o in zip(ordered.registers, outcomes))
    return names, float(np.min(marginals[range(4), outcomes] / marginals.sum(axis=1)))


def step_cluster_stages(reflection=None) -> ClusterStages:
    """The cluster preparation on the step path: the first branch of the gate
    on (R+L)(a1+a2)/2 times R, b1, then Hadamards on photon a, the
    path-controlled polarization sign flip and Hadamards on photon b, one
    element at a time."""
    plus = (1 / SQ2, 1 / SQ2)
    joint = tensor_product(photon_state("a", plus, plus), photon_state("b", (1, 0), (1, 0)))
    bell = _first_step_branch(joint, reflection)
    st = apply_element(bell, ElementKind.HWP_H, "a.pol")
    after_h = apply_element(st, ElementKind.BS, "a.spatial")
    after_flip = conditional_element(after_h, ElementKind.HWP_PHASEFLIP, "a.pol", "a.spatial", 1)
    st = apply_element(after_flip, ElementKind.HWP_H, "b.pol")
    return ClusterStages(bell, after_h, after_flip, apply_element(st, ElementKind.BS, "b.spatial"))


def engine_uniform_figures(r_cold, r_hot, chunk: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Circuit-level (F, eta) arrays of the uniform input at N reflection
    pairs, from the Kraus operators evaluate_branches gives at each pair
    itself: the reference for the exact uniform-input form.

    With out_o the corrected branch outputs, eta = sum_o |out_o|**2 and
    F = sum_o |<ideal|out_o>|**2 / (|ideal|**2 eta); F is nan where eta = 0.
    The pairs are evaluated ``chunk`` at a time, since each pair's four
    operators take 16 KiB.
    """
    column = uniform_two_photon_state().amplitudes
    ideal = ReflectionPair.ideal()
    reference = evaluate_branches(ideal.r_cold, ideal.r_hot)[0, 0, 0] @ column
    r_cold, r_hot = np.ravel(r_cold), np.ravel(r_hot)
    fidelity, eta = [], []
    for start in range(0, len(r_cold), chunk):
        block = slice(start, start + chunk)
        out = evaluate_branches(r_cold[block], r_hot[block]) @ column
        survival = np.sum(np.abs(out) ** 2, axis=(1, 2, 3))
        overlap2 = np.abs(out @ reference.conj()) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            f = overlap2.sum(axis=(1, 2)) / (np.sum(np.abs(reference) ** 2) * survival)
        fidelity.append(np.where(survival > 0.0, f, np.nan))
        eta.append(survival)
    return np.concatenate(fidelity), np.concatenate(eta)


def scalar_uniform_fidelity(r_cold: complex, r_hot: complex) -> float:
    """The uniform input's exact circuit-level fidelity in Python scalar
    arithmetic, (1/2 + 2 (x/s)**2)**2 with s = |r_cold|**2 + |r_hot|**2 and
    x = Im(r_hot * conj(r_cold)): the reference a simulated sweep's F_sim
    matches bit for bit. nan where no light survives (s == 0)."""
    try:
        x_over_s = (r_hot * r_cold.conjugate()).imag / (abs(r_cold) ** 2 + abs(r_hot) ** 2)
    except ZeroDivisionError:
        return math.nan
    return (0.5 + 2 * x_over_s**2) ** 2


def tensordot_evaluate(coefficients: np.ndarray, r_cold, r_hot) -> np.ndarray:
    """Compiled coefficients of degree d = len(coefficients) - 1 evaluated
    at N reflection pairs in their first form: the powers
    r_cold**k r_hot**(d - k) of each pair as an (N, d + 1) array, one
    np.tensordot over the power axis; axis 0 of the result is the pair.
    The pairs are taken as evaluate_branches takes them."""
    r_cold = np.ravel(np.asarray(r_cold, dtype=np.complex128))
    r_hot = np.ravel(np.asarray(r_hot, dtype=np.complex128))
    k = np.arange(len(coefficients))
    powers = r_cold[:, None] ** k * r_hot[:, None] ** (len(coefficients) - 1 - k)
    return np.tensordot(powers, coefficients, axes=1)
