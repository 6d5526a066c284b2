"""Independent expected-value constructions used as test oracles.

Everything here is assembled directly from amplitude bookkeeping (closed
forms of the staged circuit) or brute-force index arithmetic, never by
running the circuit under test. The one exception is step_gate_runs, the
reference for the compiled gate: it runs the staged step view on the joint
input it is given, then measures and corrects the pre-measurement state one
register at a time. Since step_gate_runs goes through the hilbert kernels,
those kernels have their own references here, written in their first
(tensordot and moveaxis) form.
"""

from __future__ import annotations

import numpy as np

from hypercnot import (
    CavityParams,
    GateRun,
    StateVector,
    apply_operator,
    discard_register,
    hyper_cnot_checkpoints,
    measure,
    measure_all_branches,
    normalize,
    photon_registers,
    reflect_cold,
    reflect_hot,
    spin_register,
    state_from_terms,
)

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
    """hilbert.outcome_weights with the register's axis moved to the front
    and each outcome's slice summed on its own."""
    axis = state.register_index(register_label)
    moved = np.moveaxis(state.amplitudes.reshape((2,) * state.num_registers), axis, 0)
    return np.array([float(np.sum(np.abs(moved[0]) ** 2)), float(np.sum(np.abs(moved[1]) ** 2))])


def outcome_slices_reference(state: StateVector, register_label: str) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes with one register fixed to outcome 0 and to outcome 1,
    flattened, with that register's axis moved to the front."""
    axis = state.register_index(register_label)
    moved = np.moveaxis(state.amplitudes.reshape((2,) * state.num_registers), axis, 0)
    return moved[0].reshape(-1), moved[1].reshape(-1)


def product_photon_terms(alpha, gamma, beta, delta) -> dict:
    """Amplitudes of the product input over the four photon registers."""
    terms = {}
    for ip, pa in enumerate(POL_NAMES):
        for isa, sa in enumerate(A_PATHS):
            for jp, pb in enumerate(POL_NAMES):
                for jsb, sb in enumerate(B_PATHS):
                    terms[(pa, sa, pb, sb)] = alpha[ip] * gamma[isa] * beta[jp] * delta[jsb]
    return terms


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


# -- the gate by the staged step view ---------------------------------------

SIGN_FLIP = np.diag([1.0, -1.0])

# register sign-flipped by a down outcome of e1 and of e2, respectively
FEED_FORWARD_TARGETS = ("a.spatial", "a.pol")


def step_gate_runs(joint: StateVector, reflection=None, branch_mode="enumerate", seed=None):
    """The gate on the staged step view, one register at a time: the reference
    for hyper_cnot_state.

    Runs the checkpoints on the joint input as given (its registers in input
    order, then e1 and e2), then measures e1 and e2 on the pre-measurement state
    (measure_all_branches, or measure with a seeded generator), flips the
    signs the outcomes call for with apply_operator, discards the spins and
    normalizes. Enumeration keeps every branch of nonzero weight, with no
    round-off floor. Returns a list of GateRuns (one in sample mode).
    """
    pre = hyper_cnot_checkpoints(joint, reflection)["pre_measurement"]
    survival = pre.norm2
    if branch_mode == "sample":
        rng = np.random.default_rng(seed)
        rec1, st = measure(pre, "e1", rng)
        rec2, st = measure(st, "e2", rng)
        branches = [((rec1.outcome, rec2.outcome), rec1.probability / survival * rec2.probability, st)]
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
        final = discard_register(discard_register(st, "e2"), "e1")
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
