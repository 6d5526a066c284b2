import math
import re
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercnot import (
    ElementKind,
    GateRun,
    HyperBellState,
    MeasurementRecord,
    Register,
    ReflectionPair,
    StateVector,
    analyze_hyper_bell,
    bell_decoding_table,
    evaluate_branches,
    expected_truth_table_output,
    fidelity_up_to_global_phase,
    hyper_bell_state,
    hyper_cnot_checkpoints,
    hyper_cnot_state,
    photon_state,
    prepare_cluster_stages,
    reorder_registers,
    spin_readout,
    spin_register,
    tensor_product,
    tensor_state,
    truth_table,
    uniform_two_photon_state,
    ZeroSurvivalError,
)
from hypercnot import analysis, hilbert, protocols
from hypercnot.cavity import CavityParams
from hypercnot.protocols import BRANCH_FLOOR
from conftest import random_state
from oracles import (
    ANALYSIS_BRAS,
    HWP_X,
    PHOTON_REGS,
    SYSTEM_REGS,
    WP_U1,
    WP_U2,
    apply_element,
    cluster_after_flip_expected,
    cluster_after_hadamards_expected,
    cluster_expected,
    cnot_cnot_permutation,
    conditional_element,
    control_spatial_expected,
    embed_matrix,
    gate_output_expected,
    hybrid_cz_expected,
    measure_all_branches,
    normalize,
    outcome_weights_reference,
    pass_matrix,
    pre_measurement_expected,
    random_amplitude_pair,
    reduction_bell_pattern,
    scatter_matrix,
    state_from_terms,
    step_bell_pattern,
    step_checkpoints,
    step_cluster_stages,
    step_gate_runs,
    step_spin_readout,
    target_scattered_expected,
)

SQ2 = np.sqrt(2.0)
PLUS = (1 / SQ2, 1 / SQ2)

FID_TOL = 1e-10


def random_coefficients(rng):
    return tuple(random_amplitude_pair(rng) for _ in range(4))


def joint_input(alpha, gamma, beta, delta):
    return tensor_product(
        photon_state("a", alpha, gamma), photon_state("b", beta, delta)
    )


# -- the cavity pass: derived from the optical elements ----------------------

# pass_matrix (tests/oracles.py) is built from the pass table the compile
# reads, _PASS_COLD and _PASS_TURNED, so these tests pin that table to the optics.

EYE2 = np.eye(2, dtype=np.complex128)


def sandwich_spin_action(reflection, scatter_branch):
    """Spin action of one CPBS / bit-flip / cavity / bit-flip / CPBS sandwich.

    ``scatter_branch`` is the circular component (0 = R, 1 = L) every photon
    component is routed into before hitting the cavity: the CPBS sends the
    other component through the bit-flip plates. The composite must factor
    as identity on polarization times a spin diagonal.
    """
    q = scatter_matrix(reflection)
    flip = np.kron(HWP_X, EYE2)
    keep = np.kron(np.diag([1.0 - scatter_branch, float(scatter_branch)]), EYE2)
    reroute = np.kron(np.diag([float(scatter_branch), 1.0 - scatter_branch]), EYE2)
    composite = q @ keep + flip @ q @ flip @ reroute
    spin_action = composite[:2, :2]
    np.testing.assert_allclose(composite, np.kron(EYE2, spin_action), rtol=0, atol=1e-14)
    return spin_action


def derived_pass_matrices(reflection):
    """Spatial and polarization passes composed from their optical elements.

    Spatial: path 1 carries the scatter-as-R sandwich, path 2 the
    scatter-as-L sandwich followed by the global -i plate. Polarization:
    direct scattering, then the diag(1, -i) plate on the polarization.
    """
    path1 = sandwich_spin_action(reflection, 0)
    path2 = WP_U1[0, 0] * sandwich_spin_action(reflection, 1)
    spatial = np.kron(np.diag([1.0, 0.0]), path1) + np.kron(np.diag([0.0, 1.0]), path2)
    plate = np.kron(WP_U2, EYE2)
    return spatial, plate @ scatter_matrix(reflection)


def test_stage_matrices_reduce_to_known_diagonal(rng):
    lossy = ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2))
    for pair in (
        ReflectionPair.ideal(),
        ReflectionPair(-0.8j, 0.9),
        ReflectionPair(0.7 * np.exp(0.3j), 0.95 * np.exp(-0.2j)),
        lossy,
    ):
        for derived in derived_pass_matrices(pair):
            np.testing.assert_allclose(derived, pass_matrix(pair), rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    mags=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
)
def test_pass_matrix_matches_sandwich_for_passive_pairs(mags, phases):
    pair = ReflectionPair(mags[0] * np.exp(1j * phases[0]), mags[1] * np.exp(1j * phases[1]))
    for derived in derived_pass_matrices(pair):
        np.testing.assert_allclose(derived, pass_matrix(pair), rtol=0, atol=1e-14)


def test_ideal_stage_matrix_phases():
    np.testing.assert_allclose(pass_matrix(None), np.diag([-1j, 1, -1j, -1]), atol=1e-15)


# -- the hybrid CZ stage ------------------------------------------------------


def prepared_system(alpha, gamma, beta, delta):
    """Input plus internally prepared spins, same order the circuit uses."""
    spin = (1j / SQ2, 1 / SQ2)
    return tensor_product(
        joint_input(alpha, gamma, beta, delta),
        tensor_state([(spin_register("e1"), spin), (spin_register("e2"), spin)]),
    )


def hybrid_cz_checkpoint(alpha, gamma, beta, delta):
    """Circuit state after both control-photon passes (the hybrid CZ stage)."""
    return hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["hybrid_cz"]


def test_spins_prepared_checkpoint_matches_prepared_system(rng):
    alpha, gamma, beta, delta = random_coefficients(rng)
    got = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))
    want = prepared_system(alpha, gamma, beta, delta)
    assert got["spins_prepared"].labels == want.labels
    np.testing.assert_allclose(got["spins_prepared"].amplitudes, want.amplitudes, atol=1e-15)


def test_control_spatial_pass_matches_oracle(rng):
    for _ in range(5):
        alpha, gamma, beta, delta = random_coefficients(rng)
        got = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["control_spatial"]
        want = control_spatial_expected(alpha, gamma, beta, delta)
        assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_cz_stage_matches_oracle(rng):
    for _ in range(5):
        alpha, gamma, beta, delta = random_coefficients(rng)
        got = hybrid_cz_checkpoint(alpha, gamma, beta, delta)
        want = hybrid_cz_expected(alpha, gamma, beta, delta)
        assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_cz_stage_entangles_path_with_first_spin():
    got = hybrid_cz_checkpoint((1, 0), PLUS, (1, 0), (1, 0))
    want = hybrid_cz_expected((1, 0), PLUS, (1, 0), (1, 0))
    assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL
    # the spatial mode and spin 1 form a maximally entangled pair
    weights = [
        abs(got.amplitude("R", sa, "R", "b1", e1, e2)) ** 2
        for sa in ("a1", "a2")
        for e1 in ("up", "down")
        for e2 in ("up", "down")
    ]
    np.testing.assert_allclose(sorted(weights, reverse=True)[:4], [0.125] * 4, atol=1e-12)


def test_cz_stage_trivial_controls_stay_product():
    got = hybrid_cz_checkpoint((1, 0), (1, 0), (1, 0), (1, 0))
    # both spins end in (up+down)/sqrt2, photon untouched
    want = state_from_terms(
        SYSTEM_REGS,
        {
            ("R", "a1", "R", "b1", e1, e2): 0.5
            for e1 in ("up", "down")
            for e2 in ("up", "down")
        },
    )
    assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_cz_stage_equals_double_cz_oracle(rng):
    """Brute-force check: the staged circuit on prepared spins equals two
    explicit controlled-Z operators on spins prepared in (up+down)/sqrt2."""
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    # register order: a.pol(0) a.spatial(1) b.pol(2) b.spatial(3) e1(4) e2(5)
    full = embed_matrix(6, [4, 1], cz) @ embed_matrix(6, [5, 0], cz)
    for _ in range(5):
        alpha, gamma, beta, delta = random_coefficients(rng)
        got = hybrid_cz_checkpoint(alpha, gamma, beta, delta)
        plus_spin = (1 / SQ2, 1 / SQ2)
        reference_in = tensor_product(
            joint_input(alpha, gamma, beta, delta),
            tensor_state(
                [(spin_register("e1"), plus_spin), (spin_register("e2"), plus_spin)]
            ),
        )
        want = type(got)(got.registers, full @ reference_in.amplitudes)
        assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_cz_stage_requires_registers(rng):
    with pytest.raises(ValueError):
        hyper_cnot_checkpoints(photon_state("a", PLUS, PLUS))


# -- staged checkpoints of the full gate --------------------------------------


def test_target_pass_checkpoint_matches_oracle(rng):
    for _ in range(5):
        alpha, gamma, beta, delta = random_coefficients(rng)
        got = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["target_scattered"]
        want = target_scattered_expected(alpha, gamma, beta, delta)
        assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_pre_measurement_checkpoint_matches_oracle(rng):
    for _ in range(5):
        alpha, gamma, beta, delta = random_coefficients(rng)
        got = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["pre_measurement"]
        want = pre_measurement_expected(alpha, gamma, beta, delta)
        assert fidelity_up_to_global_phase(got, want) >= 1 - FID_TOL


def test_pre_measurement_spin_branches_are_uniform(rng):
    alpha, gamma, beta, delta = random_coefficients(rng)
    pre = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["pre_measurement"]
    joint_probs = [
        p2
        for _, _, s1 in measure_all_branches(pre, "e1")
        for _, p2, _ in measure_all_branches(s1, "e2")
    ]
    np.testing.assert_allclose(joint_probs, [0.25] * 4, atol=1e-12)


def test_ideal_circuit_preserves_norm(rng):
    alpha, gamma, beta, delta = random_coefficients(rng)
    stages = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))
    for state in stages.values():
        assert abs(state.norm2 - 1.0) < 1e-12


# -- the full gate -------------------------------------------------------------


def test_gate_flips_target_when_both_controls_active():
    runs = hyper_cnot_state(joint_input((0, 1), (0, 1), (1, 0), (1, 0)))
    want = state_from_terms(PHOTON_REGS, {("L", "a2", "L", "b2"): 1.0})
    for run in runs:
        assert fidelity_up_to_global_phase(run.final_state, want) >= 1 - FID_TOL


def test_gate_leaves_target_alone_for_inactive_controls(rng):
    beta, delta = random_amplitude_pair(rng), random_amplitude_pair(rng)
    runs = hyper_cnot_state(joint_input((1, 0), (1, 0), beta, delta))
    want = joint_input((1, 0), (1, 0), beta, delta)
    for run in runs:
        assert fidelity_up_to_global_phase(run.final_state, want) >= 1 - FID_TOL


def test_gate_matches_analytic_output_for_random_inputs(rng):
    for _ in range(20):
        alpha, gamma, beta, delta = random_coefficients(rng)
        runs = hyper_cnot_state(joint_input(alpha, gamma, beta, delta))
        want = gate_output_expected(alpha, gamma, beta, delta)
        for run in runs:
            assert fidelity_up_to_global_phase(run.final_state, want) >= 1 - FID_TOL


def test_gate_run_records(rng):
    runs = hyper_cnot_state(joint_input(PLUS, PLUS, PLUS, PLUS))
    assert [run.spin_outcomes for run in runs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # a down outcome of e1 flips the control's path sign, one of e2 its L sign
    assert [run.feed_forward_ops for run in runs] == [
        (), ("a.pol",), ("a.spatial",), ("a.spatial", "a.pol")
    ]
    for run in runs:
        assert isinstance(run, GateRun)
        assert run.mode == "ideal"
        assert run.seed is None
        assert abs(run.survival_probability - 1.0) < 1e-12
        assert abs(run.branch_probability - 0.25) < 1e-12
        assert abs(run.final_state.norm2 - 1.0) < 1e-12


def test_truth_table_is_the_double_cnot_permutation():
    rows = truth_table()
    assert len(rows) == 16
    assert all(row.ok for row in rows)
    assert all(row.min_fidelity >= 1 - FID_TOL for row in rows)
    # cross-check the expected outputs against the explicit permutation
    perm = cnot_cnot_permutation()
    name_sets = (("R", "L"), ("a1", "a2"), ("R", "L"), ("b1", "b2"))
    for row in rows:
        idx = 0
        for names, name in zip(name_sets, row.input_names):
            idx = 2 * idx + names.index(name)
        out = int(np.argmax(perm[:, idx]))
        decoded = []
        for names in reversed(name_sets):
            decoded.append(names[out % 2])
            out //= 2
        assert tuple(reversed(decoded)) == row.expected_names


def test_gate_on_entangled_inputs_matches_permutation_oracle(rng):
    # the circuit is linear, so the corrected gate must act as the explicit
    # double-CNOT permutation on arbitrary entangled two-photon states
    perm = cnot_cnot_permutation()
    for _ in range(5):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        joint = StateVector(tuple(PHOTON_REGS), amps)
        runs = hyper_cnot_state(joint)
        want = StateVector(joint.registers, perm @ amps)
        for run in runs:
            assert fidelity_up_to_global_phase(run.final_state, want) >= 1 - FID_TOL


def test_gate_applied_twice_is_identity(rng):
    alpha, gamma, beta, delta = random_coefficients(rng)
    joint = joint_input(alpha, gamma, beta, delta)
    once = hyper_cnot_state(joint)[0].final_state
    twice = hyper_cnot_state(once)[0].final_state
    assert fidelity_up_to_global_phase(twice, joint) >= 1 - FID_TOL


def test_survival_matches_four_reflection_counting():
    for g, ks in [(0.5, 0.0), (2.4, 0.0), (1.1, 0.35), (0.8, 0.9)]:
        pair = ReflectionPair.from_params(CavityParams(g=g, kappa_s=ks))
        runs = hyper_cnot_state(uniform_two_photon_state(), pair)
        mu = (abs(pair.r_cold) ** 2 + abs(pair.r_hot) ** 2) / 2
        for run in runs:
            assert abs(run.survival_probability - mu**4) < 1e-9
        assert abs(sum(run.branch_probability for run in runs) - 1.0) < 1e-12


def test_physical_branches_all_decode_correctly():
    pair = ReflectionPair.from_params(CavityParams(g=2.4))
    rows = truth_table(pair)
    assert all(row.ok for row in rows)
    assert all(row.min_fidelity < 1.0 for row in rows)  # phases are not exact


def test_sampling_mode_is_seeded(rng):
    joint = joint_input(*random_coefficients(rng))
    run_a = hyper_cnot_state(joint, branch_mode="sample", seed=11)
    run_b = hyper_cnot_state(joint, branch_mode="sample", seed=11)
    assert isinstance(run_a, GateRun)
    assert run_a.spin_outcomes == run_b.spin_outcomes
    assert run_a.seed == 11
    np.testing.assert_allclose(
        run_a.final_state.amplitudes, run_b.final_state.amplitudes, atol=1e-15
    )
    outcomes = {
        hyper_cnot_state(joint, branch_mode="sample", seed=s).spin_outcomes
        for s in range(40)
    }
    assert len(outcomes) == 4


def test_gate_input_validation(rng):
    with pytest.raises(ValueError):
        hyper_cnot_state(photon_state("b", PLUS, PLUS))
    with pytest.raises(ValueError):
        hyper_cnot_state(photon_state("a", PLUS, PLUS))
    with pytest.raises(ValueError):
        hyper_cnot_state(uniform_two_photon_state(), branch_mode="nope")
    spoiled = tensor_product(
        uniform_two_photon_state(),
        tensor_state([(spin_register("e1"), (1, 0))]),
    )
    with pytest.raises(ValueError):
        hyper_cnot_state(spoiled)


@pytest.mark.parametrize("branch_mode", ["enumerate", "sample"])
def test_zero_survival_is_a_named_error(branch_mode):
    # matched side leakage on resonance: both reflections vanish
    dead = ReflectionPair.from_params(CavityParams(g=0.0, kappa_s=1.0, detuning=0.0))
    assert dead.r_cold == 0 and dead.r_hot == 0
    with pytest.raises(ValueError, match="zero survival"):
        hyper_cnot_state(uniform_two_photon_state(), dead, branch_mode=branch_mode, seed=1)


# -- feed-forward ----------------------------------------------------------------


def test_all_branches_agree_after_feed_forward(rng):
    # enumerate the spin branches of the full gate; the corrected outputs
    # must coincide pairwise
    alpha, gamma, beta, delta = random_coefficients(rng)
    runs = hyper_cnot_state(joint_input(alpha, gamma, beta, delta))
    first = runs[0].final_state
    for run in runs[1:]:
        assert fidelity_up_to_global_phase(run.final_state, first) >= 1 - FID_TOL


# -- the compiled gate against the step path ---------------------------------------

PHOTON_LABELS = tuple(reg.label for reg in PHOTON_REGS)


def canonical_amplitudes(state):
    return reorder_registers(state, PHOTON_LABELS).amplitudes


def kraus_outputs(pair, joint):
    """The Kraus operators evaluated at the pair itself, applied to a
    two-photon input: its corrected, unnormalized branch outputs (2, 2, 16)."""
    return evaluate_branches(pair.r_cold, pair.r_hot)[0] @ canonical_amplitudes(joint)


@settings(max_examples=60, deadline=None)
@given(
    mags=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(range(4)),
)
def test_engine_branches_match_step_path(mags, phases, seed, order):
    pair = ReflectionPair(mags[0] * np.exp(1j * phases[0]), mags[1] * np.exp(1j * phases[1]))
    joint = random_state(tuple(PHOTON_REGS[i] for i in order), np.random.default_rng(seed))
    out = kraus_outputs(pair, joint)
    # the outputs are homogeneous of degree 4 in the pair (tested below), so
    # the step reference runs at the pair scaled by a power of two to unit
    # size, where its squared norms cannot underflow; only its survival takes
    # the scale back
    exponent = math.frexp(max(abs(pair.r_cold), abs(pair.r_hot)))[1]
    unit = ReflectionPair(
        *(complex(math.ldexp(r.real, -exponent), math.ldexp(r.imag, -exponent))
          for r in (pair.r_cold, pair.r_hot))
    )
    reference = step_gate_runs(joint, unit)
    if not reference:  # zero survival: every branch is empty
        assert np.sum(np.abs(out) ** 2) == 0.0
        for branch_mode in ("enumerate", "sample"):
            with pytest.raises(ZeroSurvivalError):
                hyper_cnot_state(joint, pair, branch_mode=branch_mode, seed=seed)
        return
    survival = math.ldexp(reference[0].survival_probability, 8 * exponent)
    assert abs(np.sum(np.abs(out) ** 2) - survival) <= 1e-12
    runs = {run.spin_outcomes: run for run in hyper_cnot_state(joint, pair)}
    for ref in reference:
        branch = out[ref.spin_outcomes]
        weight = survival * ref.branch_probability
        assert abs(np.sum(np.abs(branch) ** 2) - weight) <= 1e-12
        run = runs.pop(ref.spin_outcomes, None)
        if run is None:
            # only a branch at the round-off floor may be left out
            assert ref.branch_probability <= 1e3 * BRANCH_FLOOR
            continue
        assert abs(run.survival_probability - survival) <= 1e-12
        assert abs(run.branch_probability - ref.branch_probability) <= 1e-12
        assert run.feed_forward_ops == ref.feed_forward_ops
        assert run.final_state.labels == joint.labels
        if ref.branch_probability <= 1e-16:
            # zero in exact arithmetic (equal reflections leave some branches
            # empty); both paths keep round-off there, which has no direction
            continue
        assert fidelity_up_to_global_phase(run.final_state, ref.final_state) >= 1 - 1e-12
        if weight <= 1e-16:
            continue  # too small for the unscaled outputs to carry a direction
        final = canonical_amplitudes(ref.final_state)
        fidelity = abs(np.vdot(final, branch)) ** 2 / np.sum(np.abs(branch) ** 2)
        assert fidelity >= 1 - 1e-12
    assert not runs  # no branch the step path finds empty

    sampled = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
    (want,) = step_gate_runs(joint, unit, branch_mode="sample", seed=seed)
    assert (sampled.spin_outcomes, sampled.seed) == (want.spin_outcomes, seed)
    assert abs(sampled.branch_probability - want.branch_probability) <= 1e-12


@pytest.mark.parametrize(
    "pair",
    [ReflectionPair(0.3 - 0.5j, 0.8 + 0.1j), ReflectionPair(0.8 + 0.1j, 0.3 - 0.5j)],
    ids=["pair", "swapped"],
)
def test_engine_branches_carry_the_step_path_phases(pair, rng):
    # swapping r_cold and r_hot only flips the sign of the mixed-outcome
    # branches, which fidelities and norms cannot see; compare amplitudes
    joint = random_state(PHOTON_REGS, rng)
    out = kraus_outputs(pair, joint)
    reference = step_gate_runs(joint, pair)
    runs = hyper_cnot_state(joint, pair)
    assert len(reference) == len(runs) == 4
    for ref, run in zip(reference, runs):
        assert run.spin_outcomes == ref.spin_outcomes
        weight = ref.survival_probability * ref.branch_probability
        want = ref.final_state.amplitudes
        np.testing.assert_allclose(out[ref.spin_outcomes], np.sqrt(weight) * want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.final_state.amplitudes, want, rtol=0, atol=1e-12)
    for seed in range(8):
        (ref,) = step_gate_runs(joint, pair, branch_mode="sample", seed=seed)
        run = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
        assert run.spin_outcomes == ref.spin_outcomes
        np.testing.assert_allclose(
            run.final_state.amplitudes, ref.final_state.amplitudes, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize(
    "pair",
    [
        None,
        ReflectionPair.from_params(CavityParams(g=0.5)),
        ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2)),
    ],
    ids=["ideal", "g0.5", "g1.56-ks0.2"],
)
def test_sampling_repeats_the_step_path_draws(pair, rng):
    # the compiled sampler draws from the same generator stream as measuring
    # e1 and then e2 on the step path, so every seed picks the same branch
    joint = random_state(PHOTON_REGS, rng)
    for seed in range(200):
        (ref,) = step_gate_runs(joint, pair, branch_mode="sample", seed=seed)
        run = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
        assert run.spin_outcomes == ref.spin_outcomes, seed


_SAMPLER_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-320, 2.2e-308]),
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.tuples(_SAMPLER_WEIGHTS, _SAMPLER_WEIGHTS).filter(lambda w: sum(w) > 0.0),
    seed=st.integers(0, 2**64 - 1),
)
@example(weights=(0.0, 1.0), seed=0)
@example(weights=(1.0, 0.0), seed=0)
@example(weights=(5e-324, 5e-324), seed=1)
@example(weights=(5e-324, 1.0), seed=2)
@example(weights=(1e-310, 3e-310), seed=3)
def test_single_draw_sampler_is_generator_choice(weights, seed):
    # the gate's sampler picks what Generator.choice picks from the same
    # seed, and consumes the same single draw
    w = np.array(weights)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert protocols._draw(ours, *weights) == int(reference.choice(2, p=w / w.sum()))
    assert ours.random() == reference.random()


@pytest.mark.parametrize("kappa_s", [0.0, 0.3])
def test_round_off_branches_are_empty(kappa_s, rng):
    # at g = 0 both reflections are equal and three branches are empty in
    # exact arithmetic; their round-off (weights near 1e-34 for the random
    # input, and for the uniform one at kappa_s = 0.3) is neither enumerated
    # nor sampled
    pair = ReflectionPair.from_params(CavityParams(g=0.0, kappa_s=kappa_s))
    for joint in (uniform_two_photon_state(), random_state(PHOTON_REGS, rng)):
        runs = hyper_cnot_state(joint, pair)
        assert [(run.spin_outcomes, run.branch_probability) for run in runs] == [((0, 0), 1.0)]
        for seed in range(50):
            run = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
            assert (run.spin_outcomes, run.branch_probability) == ((0, 0), 1.0)


def test_tiny_reflections_give_defined_branches(rng):
    # squared norms of amplitudes near 1e-160 underflow; the branches are
    # those of the pair scaled to unit size, and only the survival is tiny
    joint = random_state(PHOTON_REGS, rng)
    runs = hyper_cnot_state(joint, ReflectionPair(0.0, 1.57900383923873e-40))
    reference = step_gate_runs(joint, ReflectionPair(0.0, 1.0))
    assert [run.spin_outcomes for run in runs] == [ref.spin_outcomes for ref in reference]
    for run, ref in zip(runs, reference):
        assert 0.0 <= run.survival_probability < 1e-300
        assert abs(run.branch_probability - ref.branch_probability) <= 1e-12
        np.testing.assert_allclose(
            run.final_state.amplitudes, ref.final_state.amplitudes, rtol=0, atol=1e-12
        )


def scaled_down(joint, k):
    """joint with every amplitude times 2**-k, exactly."""
    parts = np.ldexp(joint.amplitudes.view(np.float64), -k)
    return StateVector(joint.registers, parts.view(np.complex128))


def normal_shifts(joint):
    """The largest k for which every nonzero part of joint times 2**-k is a
    normal float, at least 2**-1022."""
    parts = np.abs(joint.amplitudes.view(np.float64))
    return math.frexp(parts[parts > 0].min())[1] + 1021


@pytest.mark.parametrize(
    "pair",
    [None, ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2, gamma=0.1)), ReflectionPair(0.0, 0.0)],
    ids=["ideal", "physical", "zero"],
)
def test_tiny_inputs_give_the_branches_of_the_normalized_input(pair, rng):
    # an input scaled by 2**-k, each part still a normal float, has branch
    # weights that would be subnormal or underflow to 0; the gate scales its
    # outputs to unit size first, so the branches are the normalized
    # input's, and only the survival carries the scale. The gate raises
    # only where every output amplitude is exactly zero, here at the zero pair
    spectator = Register("c", ("0", "1"))
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    inputs = [uniform_two_photon_state(), random_state((b_spatial, spectator, a_pol, b_pol, a_spatial), rng)]
    inputs += [random_state(PHOTON_REGS, rng) for _ in range(20)]
    plan = protocols._gate_plan(pair).matrix
    for joint in inputs:
        top = normal_shifts(joint)
        for k in sorted({0, 100, 500, 515, 520, 525, 530, 535, 540, 560, 600, 1000, top}):
            if k > top:
                continue
            scaled = scaled_down(joint, k)
            outputs = plan @ protocols._photon_major(scaled).amplitudes.reshape(16, -1)
            if not outputs.any():
                with pytest.raises(ZeroSurvivalError):
                    hyper_cnot_state(scaled, pair)
                continue
            runs = hyper_cnot_state(scaled, pair)
            reference = hyper_cnot_state(joint, pair)
            assert [run.spin_outcomes for run in runs] == [ref.spin_outcomes for ref in reference]
            for run, ref in zip(runs, reference):
                assert abs(run.final_state.norm2 - 1.0) <= 1e-12
                assert abs(run.branch_probability - ref.branch_probability) <= 1e-12
                np.testing.assert_allclose(
                    run.final_state.amplitudes, ref.final_state.amplitudes, rtol=0, atol=1e-12
                )
                survival = math.ldexp(ref.survival_probability, -2 * k)
                assert math.isclose(run.survival_probability, survival, rel_tol=1e-12, abs_tol=1e-323)


# the pairs of test_gate_bitwise.py's PAIRS the row-validator oracle runs at,
# beside random physical pairs
ORACLE_PAIRS = [
    None,
    ReflectionPair.from_params(CavityParams(g=0.0, kappa_s=0.3)),
    ReflectionPair(0.0, 1.57900383923873e-40),
]


def oracle_input(kind, shift, rng):
    """A photon-major, permuted-with-a-spectator or basis input, times
    2**-shift, or less where a part would leave the normal floats."""
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    if kind == "photon-major":
        joint = random_state(PHOTON_REGS, rng)
    elif kind == "spectator":
        regs = (a_pol, a_spatial, b_pol, b_spatial, Register("c", ("0", "1")))
        joint = random_state(tuple(regs[i] for i in rng.permutation(5)), rng)
    else:
        joint = hilbert.basis_state(PHOTON_REGS, hilbert.basis_names(PHOTON_REGS, int(rng.integers(16))))
    return scaled_down(joint, min(shift, normal_shifts(joint)))


@settings(max_examples=60, deadline=None)
@given(
    pair=st.one_of(
        st.sampled_from(ORACLE_PAIRS),
        st.builds(
            lambda g, kappa_s: ReflectionPair.from_params(CavityParams(g=g, kappa_s=kappa_s)),
            st.floats(0.0, 6.0),
            st.floats(0.0, 0.9),
        ),
    ),
    kind=st.sampled_from(["photon-major", "spectator", "basis"]),
    shift=st.integers(0, 1022),
    seed=st.integers(0, 2**32 - 1),
)
@example(pair=None, kind="photon-major", shift=531, seed=1)
@example(pair=ORACLE_PAIRS[2], kind="spectator", shift=530, seed=1)
@example(pair=ORACLE_PAIRS[1], kind="basis", shift=1022, seed=2)
def test_built_stacks_pass_the_row_validator_unchanged(pair, kind, shift, seed):
    # every stack the gate, the truth table and the cluster preparation
    # build without the row validator is one the validator accepts and
    # returns byte for byte, and every row is read-only down to its data
    joint = oracle_input(kind, shift, np.random.default_rng(seed))
    built = []
    build = hilbert._states

    def spy(registers, labels, stack):
        states = build(registers, labels, stack)
        built.append((len(registers), stack, states))
        return states

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(protocols, "_states", spy)
        hyper_cnot_state(joint, pair)
        hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
        truth_table(pair)
        prepare_cluster_stages(pair)
    assert len(built) == 1 + 1 + 16 + 1
    for n, stack, states in built:
        checked = hilbert._checked_rows(stack, len(stack), n)
        assert (checked.shape, checked.dtype) == (stack.shape, stack.dtype)
        assert checked.tobytes() == stack.tobytes()
        assert not stack.flags.writeable
        assert_one_read_only_stack(states)


def test_small_coupling_keeps_every_branch():
    # weak but real branches (the (1, 1) weight is about 6e-23) stay above the floor
    pair = ReflectionPair.from_params(CavityParams(g=1e-3))
    runs = hyper_cnot_state(uniform_two_photon_state(), pair)
    assert [run.spin_outcomes for run in runs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(run.branch_probability > BRANCH_FLOOR for run in runs)


def assert_one_read_only_stack(states):
    # the states hold the rows of one stack, and neither a row nor any array
    # under it is writeable
    stack = states[0].amplitudes.base
    assert isinstance(stack, np.ndarray)
    for state in states:
        assert state.amplitudes.base is stack
        array = state.amplitudes
        while array is not None:
            assert not array.flags.writeable
            array = array.base


@pytest.mark.parametrize(
    "pair", [None, ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2))], ids=["ideal", "physical"]
)
def test_gate_builds_one_state_per_run(pair, monkeypatch, rng):
    # a photon-major input is used as it is, and the runs' final states are
    # built from the branch weights without a second validation pass: no
    # call reaches the row validator, and each call's states share one
    # read-only stack
    joint = random_state(PHOTON_REGS, rng)
    protocols._cluster_input()  # built once per process, before the spy
    checked = []
    check = hilbert._checked_rows

    def counted(amplitudes, rows, n):
        checked.append(rows)
        return check(amplitudes, rows, n)

    monkeypatch.setattr(hilbert, "_checked_rows", counted)
    runs = hyper_cnot_state(joint, pair)
    assert len(runs) == 4
    assert_one_read_only_stack([run.final_state for run in runs])
    run = hyper_cnot_state(joint, pair, branch_mode="sample", seed=5)
    assert_one_read_only_stack([run.final_state])
    # the cluster preparation builds its four stages as one stack
    stages = prepare_cluster_stages(pair)
    assert_one_read_only_stack(list(vars(stages).values()))
    assert checked == []


def test_permuted_input_with_a_spectator_matches_step_path(rng):
    spectator = Register("c", ("0", "1"))
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    regs = (b_spatial, spectator, a_pol, b_pol, a_spatial)
    joint = random_state(regs, rng)
    for pair in (None, ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2))):
        # the checkpoints keep the input's register order: each is the
        # photon-major one with its registers reordered
        stages = hyper_cnot_checkpoints(joint, pair)
        photon_major = hyper_cnot_checkpoints(reorder_registers(joint, PHOTON_LABELS + ("c",)), pair)
        assert list(stages) == list(photon_major)
        for name, state in stages.items():
            assert state.labels == joint.labels + ("e1", "e2")
            want = reorder_registers(photon_major[name], state.labels).amplitudes
            np.testing.assert_allclose(state.amplitudes, want, rtol=0, atol=1e-15)
        runs = hyper_cnot_state(joint, pair)
        sampled = [hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed) for seed in range(8)]
        reference = step_gate_runs(joint, pair)
        reference += [step_gate_runs(joint, pair, "sample", seed)[0] for seed in range(8)]
        assert len(runs) == 4
        for run, ref in zip(runs + sampled, reference, strict=True):
            assert (run.spin_outcomes, run.seed) == (ref.spin_outcomes, ref.seed)
            assert abs(run.survival_probability - ref.survival_probability) <= 1e-12
            assert abs(run.branch_probability - ref.branch_probability) <= 1e-12
            assert run.final_state.registers == ref.final_state.registers == regs
            np.testing.assert_allclose(
                run.final_state.amplitudes, ref.final_state.amplitudes, rtol=0, atol=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(
    mags=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(range(5)),
    spectator=st.booleans(),
)
@example(mags=(0.0, 0.0), phases=(0.0, 0.0), seed=0, order=[0, 1, 2, 3, 4], spectator=False)
@example(mags=(1e-160, 3e-160), phases=(0.4, -2.0), seed=1, order=[3, 4, 0, 2, 1], spectator=True)
@example(mags=(0.6e-200, 0.8e-200), phases=(-1.0, 0.1), seed=2, order=[0, 1, 2, 3, 4], spectator=True)
def test_compiled_checkpoints_match_step_path(mags, phases, seed, order, spectator):
    # every checkpoint from the compiled coefficients against the step path,
    # at passive pairs (the zero pair, one whose products after two passes
    # are subnormal and one whose products underflow among them), for
    # photon-major and permuted inputs, with and without a spectator
    pair = ReflectionPair(mags[0] * np.exp(1j * phases[0]), mags[1] * np.exp(1j * phases[1]))
    regs = PHOTON_REGS + (Register("c", ("0", "1")),)
    regs = tuple(regs[i] for i in order if spectator or i < 4)
    joint = random_state(regs, np.random.default_rng(seed))
    for reflection in (None, pair):
        got = hyper_cnot_checkpoints(joint, reflection)
        want = step_checkpoints(joint, reflection)
        assert list(got) == list(want)
        for name, state in got.items():
            assert state.registers == want[name].registers
            np.testing.assert_allclose(state.amplitudes, want[name].amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_never_reaches_the_gate(bad, monkeypatch):
    def gate(*args):
        raise AssertionError("a non-finite input reached the gate")

    monkeypatch.setattr(protocols, "_evaluate", gate)
    monkeypatch.setattr(protocols, "_plan_for_bits", gate)
    for position in range(16):
        amps = np.full(16, 0.25, dtype=complex)
        amps[position] = bad
        with pytest.raises(ValueError, match="not finite"):
            hyper_cnot_state(StateVector(PHOTON_REGS, amps), None)


def test_stages_are_interpreted_once_per_process(monkeypatch, rng):
    # _STAGES is the only table with cavity passes: once it is compiled, the
    # checkpoints and every gate application interpret no pass again
    protocols._compile_stages()

    def interpret_again(*args):
        raise AssertionError("the gate stages were interpreted a second time")

    monkeypatch.setattr(protocols, "_cavity_pass", interpret_again)
    pair = ReflectionPair.from_params(CavityParams(g=0.5))
    joint = random_state(PHOTON_REGS, rng)
    for reflection in (None, pair):
        assert len(hyper_cnot_checkpoints(joint, reflection)) == 8
    assert len(hyper_cnot_state(joint, pair)) == 4
    assert isinstance(hyper_cnot_state(joint, pair, branch_mode="sample", seed=3), GateRun)
    assert all(row.ok for row in truth_table(pair))
    assert analyze_hyper_bell(HyperBellState(2, 1), pair).pol_index == 2
    assert prepare_cluster_stages(pair).cluster.norm2 == pytest.approx(1.0)
    fidelity, eta = analysis.simulated_performance(CavityParams(g=0.5), joint)
    assert 0 < fidelity <= 1 and 0 < eta < 1
    grid = analysis.sweep(kappa_s_range=(0.0, 1.0), resolution=3, include_simulation=True).grid
    assert all(point.eta_sim is not None for point in grid)


def test_engine_ideal_map_is_half_the_double_cnot():
    ideal = ReflectionPair.ideal()
    kraus = evaluate_branches([ideal.r_cold], [ideal.r_hot])[0]
    half_perm = 0.5 * cnot_cnot_permutation()
    for o1, o2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        k = kraus[o1, o2]
        overlap = np.vdot(half_perm, k)
        phase = overlap / abs(overlap)
        np.testing.assert_allclose(k, phase * half_perm, rtol=0, atol=1e-12)


def test_down_down_branch_is_exactly_the_double_cnot(rng):
    # K_11 = (r_hot**2 - r_cold**2)**2 / 8 * U at every pair, with U = CNOT x
    # CNOT twice the ideal K_00: the (down, down) spin outcome heralds a
    # perfect hyper-CNOT, whatever the input
    ideal = ReflectionPair.ideal()
    u = 2 * evaluate_branches(ideal.r_cold, ideal.r_hot)[0, 0, 0]
    np.testing.assert_allclose(u, cnot_cnot_permutation(), rtol=0, atol=1e-12)
    pairs = [_random_passive_pair(rng) for _ in range(300)]
    r_cold = np.array([pair.r_cold for pair in pairs])
    r_hot = np.array([pair.r_hot for pair in pairs])
    k11 = evaluate_branches(r_cold, r_hot)[:, 1, 1]
    want = ((r_hot**2 - r_cold**2) ** 2 / 8)[:, None, None] * u
    np.testing.assert_allclose(k11, want, rtol=0, atol=1e-12)


def test_engine_batches_pairs_and_columns_independently(rng):
    pairs = [ReflectionPair.ideal(), ReflectionPair(-0.8j, 0.9), ReflectionPair(0.3, 0.7j)]
    inputs = [uniform_two_photon_state(), random_state(PHOTON_REGS, rng)]
    columns = np.stack([joint.amplitudes for joint in inputs], axis=1)
    batched = evaluate_branches([p.r_cold for p in pairs], [p.r_hot for p in pairs])
    assert batched.shape == (3, 2, 2, 16, 16)
    for n, pair in enumerate(pairs):
        single = evaluate_branches(pair.r_cold, pair.r_hot)
        assert single.shape == (1, 2, 2, 16, 16)
        # not bitwise: the pairs' powers are the same, but the (3, 5) product
        # takes another BLAS kernel than the (1, 5) one, so the last bits move
        np.testing.assert_allclose(batched[n], single[0], rtol=0, atol=1e-15)
        for c, joint in enumerate(inputs):
            np.testing.assert_allclose(
                (batched[n] @ columns)[..., c], kraus_outputs(pair, joint), rtol=0, atol=1e-15
            )


@settings(max_examples=40, deadline=None)
@given(
    mags=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    phases=st.tuples(
        st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_outputs_are_homogeneous_of_degree_four(mags, phases, seed):
    # every amplitude meets four cavity passes, each contributing one reflection
    r_cold, r_hot, s = (m * np.exp(1j * p) for m, p in zip(mags, phases))
    rng = np.random.default_rng(seed)
    photons = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    photons /= np.linalg.norm(photons, axis=0)
    scaled = evaluate_branches(s * r_cold, s * r_hot) @ photons
    np.testing.assert_allclose(
        scaled, s**4 * evaluate_branches(r_cold, r_hot) @ photons, rtol=0, atol=1e-12
    )


# -- one Kraus evaluation per reflection pair ----------------------------------


def test_kraus_operators_are_evaluated_once_per_pair(monkeypatch, rng):
    # every single-state application at a pair, and simulated_performance,
    # share one evaluation of the compiled polynomial, whatever the branch
    # mode, the application or the input
    evaluated = []
    evaluate = protocols._evaluate

    def counted(coefficients, r_cold, r_hot):
        evaluated.append(np.array([r_cold, r_hot]).tobytes())
        return evaluate(coefficients, r_cold, r_hot)

    monkeypatch.setattr(protocols, "_evaluate", counted)
    protocols._plan_for_bits.cache_clear()
    joint = random_state(PHOTON_REGS, rng)
    params = CavityParams(g=1.56, kappa_s=0.2)
    for reflection in (ReflectionPair.from_params(params), None):
        for seed in range(2):
            hyper_cnot_state(joint, reflection)
            hyper_cnot_state(joint, reflection, branch_mode="sample", seed=seed)
            truth_table(reflection)
            analyze_hyper_bell(HyperBellState(1, 2), reflection)
            prepare_cluster_stages(reflection)
            # its physical and ideal runs at the same two pairs
            analysis.simulated_performance(params)
            analysis.simulated_performance(params, joint)
    assert len(evaluated) == len(set(evaluated)) == 2


def test_a_cached_pair_needs_no_compilation(monkeypatch, rng):
    # after a warm-up, every application at the pair runs on its cached plan:
    # no call rescales the pair or evaluates the compiled polynomial again
    params = CavityParams(g=1.56, kappa_s=0.2)
    pairs = (ReflectionPair.from_params(params), None)
    joint = random_state(PHOTON_REGS, rng)
    for reflection in pairs:
        hyper_cnot_state(joint, reflection)
    bell_decoding_table()

    def refuse(*args):
        raise AssertionError("a cached reflection pair was compiled again")

    monkeypatch.setattr(protocols, "_unit_pair", refuse)
    monkeypatch.setattr(protocols, "_evaluate", refuse)
    for reflection in pairs:
        assert len(hyper_cnot_state(joint, reflection)) == 4
        assert isinstance(hyper_cnot_state(joint, reflection, branch_mode="sample", seed=1), GateRun)
        assert all(row.ok for row in truth_table(reflection))
        assert analyze_hyper_bell(HyperBellState(1, 2), reflection).spatial_index == 2
        assert prepare_cluster_stages(reflection).cluster.norm2 == pytest.approx(1.0)
    for joint in (None, joint):
        fidelity, eta = analysis.simulated_performance(params, joint)
        assert 0 < fidelity <= 1 and 0 < eta < 1


def test_cached_kraus_operators_give_bitwise_outputs(rng):
    # |r_hot| is in [0.5, 1), so the gate evaluates at the pair itself
    pair = ReflectionPair(0.3 - 0.5j, 0.8 + 0.1j)
    joint = random_state(tuple(reversed(PHOTON_REGS)), rng)

    def outputs():
        runs = hyper_cnot_state(joint, pair)
        sampled = hyper_cnot_state(joint, pair, branch_mode="sample", seed=4)
        return [
            (run.spin_outcomes, run.survival_probability, run.branch_probability,
             run.final_state.amplitudes.tobytes())
            for run in runs + [sampled]
        ]

    protocols._plan_for_bits.cache_clear()
    cold = outputs()
    plan = protocols._gate_plan(pair)
    matrix = plan.matrix
    assert protocols._plan_for_bits.cache_info().misses == 1
    assert outputs() == cold
    assert matrix.shape == (64, 16)
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0
    fresh = protocols.evaluate_branches(pair.r_cold, pair.r_hot)
    assert matrix.tobytes() == fresh[0].tobytes()
    # the matrix the gate multiplies by is read-only, and the cache stays
    # bounded
    assert plan.exponent == 0
    assert not matrix.flags.writeable
    assert matrix.base is None or not matrix.base.flags.writeable
    assert protocols._plan_for_bits.cache_info().maxsize == 32


def test_cached_arrays_have_no_writeable_base():
    # a read-only view over a writeable array could still be written through
    # its .base, changing every later call that shares it
    checkpoints, kraus = protocols._compile_stages()
    arrays = dict(checkpoints)
    arrays["kraus"] = kraus
    arrays["ideal plan"] = protocols._gate_plan(None).matrix
    arrays["physical plan"] = protocols._gate_plan(ReflectionPair(0.3 - 0.5j, 0.8 + 0.1j)).matrix
    for i, table in enumerate(protocols._CLUSTER_SEGMENTS):
        arrays[f"optics {i}"] = protocols._optics_map(table)
    arrays["marginals"] = protocols._MARGINALS
    reference, reference_norm2 = protocols._uniform_reference()
    assert type(reference_norm2) is float  # immutable
    arrays["uniform reference"] = reference
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        assert array.base is None or not array.base.flags.writeable, name
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_compiled_tables_are_the_flat_rows_the_evaluator_reads():
    # one (d + 1, 1024) block per table, d the cavity passes so far, that
    # owns its data, so no view or reshape stands between it and _evaluate
    checkpoints, kraus = protocols._compile_stages()
    degrees = accumulate(
        sum(op[0] is protocols._CAVITY_PASS for op in ops) for _, ops in protocols._STAGES
    )
    tables = [(name, d, c) for (name, c), d in zip(checkpoints, degrees)]
    tables.append(("kraus", protocols._GATE_DEGREE, kraus))
    assert [d for _, d, _ in tables] == [0, 1, 2, 2, 2, 4, 4, 4, 4]
    for name, degree, table in tables:
        assert table.shape == (degree + 1, 1024), name
        assert table.flags.c_contiguous and not table.flags.writeable, name
        assert table.base is None, name


def test_signed_zero_pairs_have_their_own_kraus_entries():
    # -0.0 == 0.0 and both hash alike, so the cache keys on the bits: which
    # of the two ran first must not decide what the other returns
    r_cold = 0.5 - 0.5j
    signed = ReflectionPair(r_cold, complex(-0.0, -0.0))
    protocols._plan_for_bits.cache_clear()
    negative = protocols._gate_plan(signed).matrix.tobytes()
    protocols._plan_for_bits.cache_clear()
    positive = protocols._gate_plan(ReflectionPair(r_cold, 0j)).matrix
    assert protocols._gate_plan(signed).matrix.tobytes() == negative
    assert protocols._gate_plan(ReflectionPair(r_cold, 0j)).matrix is positive
    info = protocols._plan_for_bits.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


@settings(max_examples=40, deadline=None)
@given(
    mags=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(range(4)),
)
def test_gate_runs_match_branch_outputs(mags, phases, seed, order):
    # hyper_cnot_state's runs against the batched engine at one pair, for
    # photon-major (the identity order) and permuted inputs
    pair = ReflectionPair(mags[0] * np.exp(1j * phases[0]), mags[1] * np.exp(1j * phases[1]))
    joint = random_state(tuple(PHOTON_REGS[i] for i in order), np.random.default_rng(seed))
    out = kraus_outputs(pair, joint)
    weights = np.sum(np.abs(out) ** 2, axis=2)
    survival = weights.sum()
    runs = hyper_cnot_state(joint, pair)
    sampled = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
    outcomes = {run.spin_outcomes for run in runs}
    assert {o for o in product((0, 1), (0, 1)) if weights[o] > 1e-20 * survival} <= outcomes
    assert sampled.spin_outcomes in outcomes
    for run in runs + [sampled]:
        assert abs(run.survival_probability - survival) <= 1e-12
        assert abs(run.branch_probability - weights[run.spin_outcomes] / survival) <= 1e-12
        scale = math.sqrt(run.survival_probability * run.branch_probability)
        np.testing.assert_allclose(
            scale * canonical_amplitudes(run.final_state), out[run.spin_outcomes],
            rtol=0, atol=1e-12,
        )


def test_engine_input_validation():
    with pytest.raises(ValueError, match="2 cold and 1 hot"):
        evaluate_branches([1.0, -1j], [1.0])
    params = CavityParams(g=1.56, kappa_s=0.2)
    with pytest.raises(ValueError, match="missing registers"):
        analysis.simulated_performance(params, photon_state("a", PLUS, PLUS))
    spoiled = tensor_product(
        uniform_two_photon_state(), tensor_state([(spin_register("e2"), (1, 0))])
    )
    with pytest.raises(ValueError, match="internal spin register"):
        analysis.simulated_performance(params, spoiled)


# -- spin readout -----------------------------------------------------------------


def readout_system(spin_pair):
    return tensor_state(
        [
            (spin_register("e1"), spin_pair),
            (photon_state("a", (1, 0), (1, 0)).registers[0], (1, 0)),
        ]
    )


def test_readout_of_definite_spins():
    up = readout_system((1, 0))
    record, post = spin_readout(up, "e1", rng=5)
    assert (record.outcome, record.outcome_name) == (0, "up")
    assert abs(record.probability - 1.0) < 1e-12
    assert type(record) is MeasurementRecord
    assert post.labels == up.labels
    down = readout_system((0, 1))
    record, _ = spin_readout(down, "e1", rng=5)
    assert (record.outcome, record.outcome_name) == (1, "down")
    assert abs(record.probability - 1.0) < 1e-12


def test_readout_of_superposed_spin_is_unbiased():
    st = readout_system((1 / SQ2, 1 / SQ2))
    record, _ = spin_readout(st, "e1", rng=2)
    assert abs(record.probability - 0.5) < 1e-12
    outcomes = {spin_readout(st, "e1", rng=s)[0].outcome for s in range(30)}
    assert outcomes == {0, 1}


def test_ideal_readout_equals_computational_measurement():
    st = readout_system((0.6, 0.8))
    record, post = spin_readout(st, "e1", rng=9)
    branches = measure_all_branches(st, "e1")
    _, prob, projected = branches[record.outcome]
    assert abs(record.probability - prob) < 1e-12
    assert fidelity_up_to_global_phase(post, normalize(projected)) >= 1 - 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_a_readout_draws_from_a_generator_it_is_given(seed):
    # one uniform draw, taken from the caller's stream, not a re-seeded copy
    g = np.random.default_rng(seed)
    spin_readout(readout_system((0.6, 0.8)), "e1", rng=g)
    fresh = np.random.default_rng(seed)
    fresh.random()
    assert g.random() == fresh.random()


def test_physical_readout_probability_oracle():
    pair = ReflectionPair(-0.9j, 0.95)
    st = readout_system((1, 0))
    record, _ = spin_readout(st, "e1", pair, rng=1)
    # overlap of the scattered probe with the declared-up analysis state
    expected = abs((pair.r_cold - 1j * pair.r_hot) / 2) ** 2
    assert record.outcome == 0
    assert abs(record.probability - expected) < 1e-12


@pytest.mark.parametrize("g", [None, 0.5], ids=["ideal", "g0.5"])
def test_readout_basis_follows_the_sign_of_the_relative_phase(g):
    # at g = 0.5 the hot reflection lags the cold one (delta_phi = -0.494 pi),
    # so (R - iL)/sqrt2 is declared up there. Each definite spin is read right
    # with probability 1/2 + |Im(r_hot conj r_cold)| / s, s = |r_cold|^2 + |r_hot|^2,
    # taken exactly from the sampled outcome's weight (or the rest of the
    # survival s/2), whichever outcome the seed draws
    pair = None if g is None else ReflectionPair.from_params(CavityParams(g=g))
    refl = pair or ReflectionPair.ideal()
    s = abs(refl.r_cold) ** 2 + abs(refl.r_hot) ** 2
    want = 0.5 + abs((refl.r_hot * refl.r_cold.conjugate()).imag) / s
    assert want == pytest.approx(1.0 if g is None else 0.9902, abs=1e-4)
    for spin, pair_amplitudes in enumerate(((1, 0), (0, 1))):
        for seed in range(4):
            record, _ = spin_readout(readout_system(pair_amplitudes), "e1", pair, rng=seed)
            weight = record.probability
            right = weight if record.outcome == spin else s / 2 - weight
            assert abs(right / (s / 2) - want) < 1e-12


def test_readout_of_protocol_entangled_spin(rng):
    # reading a spin that is entangled with the photons mid-protocol must
    # agree with a direct computational measurement in ideal mode
    alpha, gamma, beta, delta = random_coefficients(rng)
    pre = hyper_cnot_checkpoints(joint_input(alpha, gamma, beta, delta))["pre_measurement"]
    record, post = spin_readout(pre, "e1", rng=3)
    assert abs(record.probability - 0.5) < 1e-12
    _, prob, projected = measure_all_branches(pre, "e1")[record.outcome]
    assert abs(prob - record.probability) < 1e-12
    assert fidelity_up_to_global_phase(post, normalize(projected)) >= 1 - 1e-12



def _random_passive_pair(rng):
    moduli = rng.uniform(0.0, 1.0, size=2)
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    return ReflectionPair(*(moduli * phases).tolist())


READOUT_PAIRS = {
    "ideal": None,
    "g0.5": ReflectionPair.from_params(CavityParams(g=0.5)),  # the hot phase lags
    "g1.56-ks0.2": ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2)),
    "random": _random_passive_pair(np.random.default_rng(19)),
}


def _spin_between_spectators(rng):
    """A random sub-normalized state with e1 after one or two spectator
    registers and before one or two more."""
    before, after = rng.integers(1, 3, size=2)
    regs = (
        tuple(Register(f"p{i}", ("0", "1")) for i in range(before))
        + (spin_register("e1"),)
        + tuple(Register(f"q{i}", ("0", "1")) for i in range(after))
    )
    state = random_state(regs, rng)
    return StateVector(regs, state.amplitudes * rng.uniform(0.2, 1.0))


@pytest.mark.parametrize("name", list(READOUT_PAIRS))
def test_kraus_readout_matches_the_step_path(name, rng):
    pair = READOUT_PAIRS[name]
    for _ in range(25):
        state = _spin_between_spectators(rng)
        for seed in range(4):
            # an int seed and a Generator draw the same stream
            gen = seed if seed % 2 else np.random.default_rng(seed)
            record, post = spin_readout(state, "e1", pair, rng=gen)
            outcome, weight, reference = step_spin_readout(state, "e1", pair, seed)
            assert (record.register_label, record.outcome) == ("e1", outcome)
            assert record.outcome_name == ("up", "down")[outcome]
            assert abs(record.probability - weight) < 1e-12
            assert post.labels == state.labels
            np.testing.assert_allclose(post.amplitudes, reference.amplitudes, rtol=0, atol=1e-12)


def test_readout_is_bitwise_the_scatter_matrix_form(rng):
    # the Kraus pair read off the cavity-pass table is bit for bit the one
    # built from the diagonal of the scattering map the reflection rule gives
    for _ in range(200):
        state, pair = _spin_between_spectators(rng), _random_passive_pair(rng)
        seed = int(rng.integers(2**32))
        record, post = spin_readout(state, "e1", pair, rng=seed)
        leads = (pair.r_hot * pair.r_cold.conjugate()).imag >= 0
        basis = ANALYSIS_BRAS if leads else ANALYSIS_BRAS[::-1]
        kraus = (basis / SQ2) @ np.diag(scatter_matrix(pair)).reshape(2, 2)
        axis = state.register_index("e1")
        marginal = np.sum(np.abs(state.amplitudes.reshape(2**axis, 2, -1)) ** 2, axis=(0, 2))
        weights = (np.abs(kraus) ** 2 @ marginal).tolist()
        outcome = protocols._draw(np.random.default_rng(seed), *weights)
        probability = weights[outcome]
        assert (record.outcome, record.outcome_name, record.probability.hex()) == (
            outcome, ("up", "down")[outcome], probability.hex()
        )
        post_kraus = np.diag(kraus[outcome]) / math.sqrt(probability)
        want = hilbert.apply_operator(state, ["e1"], post_kraus)
        assert post.amplitudes.tobytes() == want.amplitudes.tobytes()


def _readout_weights(state, pair):
    """Both outcome weights of a readout, each from the first seed that draws it."""
    weights = {}
    for seed in range(2000):
        record, _ = spin_readout(state, "e1", pair, rng=seed)
        weights.setdefault(record.outcome, record.probability)
        if len(weights) == 2:
            return weights[0], weights[1]
    raise AssertionError(f"only outcome {set(weights)} drawn")


def test_readout_weights_sum_to_the_probe_survival(rng):
    # one probe pass survives with s/2, s = |r_cold|^2 + |r_hot|^2, whatever
    # the spin: the per-pass survival behind eta = (s/2)^4
    for _ in range(20):
        state = _spin_between_spectators(rng)
        pair = _random_passive_pair(rng)
        s = abs(pair.r_cold) ** 2 + abs(pair.r_hot) ** 2
        assert abs(sum(_readout_weights(state, pair)) - state.norm2 * s / 2) < 1e-12
        # ideal mode reads the spin's own marginals
        np.testing.assert_allclose(
            _readout_weights(state, None), outcome_weights_reference(state, "e1"), rtol=0, atol=1e-12
        )


def test_readout_with_no_surviving_probe_is_a_zero_survival_error():
    st = readout_system((0.6, 0.8))
    with pytest.raises(ZeroSurvivalError, match="^zero survival: no probe amplitude returns"):
        spin_readout(st, "e1", ReflectionPair(0, 0), rng=0)
    with pytest.raises(ZeroSurvivalError, match="^zero survival: no probe amplitude returns"):
        spin_readout(StateVector(st.registers, np.zeros(4)), "e1", rng=0)

# -- cluster preparation -------------------------------------------------------------


def test_cluster_stage_checkpoints():
    stages = prepare_cluster_stages()
    assert (
        fidelity_up_to_global_phase(
            stages.after_control_hadamards, cluster_after_hadamards_expected()
        )
        >= 1 - FID_TOL
    )
    assert (
        fidelity_up_to_global_phase(
            stages.after_conditional_flip, cluster_after_flip_expected()
        )
        >= 1 - FID_TOL
    )
    assert fidelity_up_to_global_phase(stages.cluster, cluster_expected()) >= 1 - FID_TOL


@settings(max_examples=30, deadline=None)
@given(g=st.floats(0.05, 3.0), kappa_s=st.floats(0.0, 1.2))
def test_cluster_stages_match_step_path(g, kappa_s):
    for pair in (None, ReflectionPair.from_params(CavityParams(g=g, kappa_s=kappa_s))):
        stages = prepare_cluster_stages(pair)
        reference = step_cluster_stages(pair)
        for name in ("hyper_bell", "after_control_hadamards", "after_conditional_flip", "cluster"):
            got, want = getattr(stages, name), getattr(reference, name)
            assert got.registers == want.registers
            np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)


def test_cluster_final_state():
    cluster = prepare_cluster_stages().cluster
    assert fidelity_up_to_global_phase(cluster, cluster_expected()) >= 1 - FID_TOL
    assert abs(cluster.norm2 - 1.0) < 1e-12


def test_cluster_is_maximally_entangled_across_photons():
    cluster = prepare_cluster_stages().cluster
    # rows: photon a indices, columns: photon b indices
    gram = cluster.amplitudes.reshape(4, 4)
    spectrum = np.linalg.svd(gram, compute_uv=False) ** 2
    np.testing.assert_allclose(spectrum, [0.25] * 4, atol=1e-12)


def test_cluster_hyper_bell_intermediate():
    stages = prepare_cluster_stages()
    want = state_from_terms(
        PHOTON_REGS,
        {
            ("R", "a1", "R", "b1"): 0.5,
            ("R", "a2", "R", "b2"): 0.5,
            ("L", "a1", "L", "b1"): 0.5,
            ("L", "a2", "L", "b2"): 0.5,
        },
    )
    assert fidelity_up_to_global_phase(stages.hyper_bell, want) >= 1 - FID_TOL


# -- hyperentangled Bell analysis ------------------------------------------------------


def test_bell_states_are_normalized_and_distinct():
    states = [hyper_bell_state(p, s) for p in range(4) for s in range(4)]
    for i, x in enumerate(states):
        assert abs(x.norm2 - 1.0) < 1e-12
        for y in states[i + 1 :]:
            assert fidelity_up_to_global_phase(x, y) < 1e-12


def test_bell_states_are_the_reordered_products_of_bell_pairs():
    # a polarization Bell pair times a spatial one, reordered to photon-major:
    # every amplitude is one product, so the states agree bit for bit
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / SQ2
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    for p in range(4):
        for s in range(4):
            pol = StateVector((a_pol, b_pol), bell[p])
            spatial = StateVector((a_spatial, b_spatial), bell[s])
            want = reorder_registers(tensor_product(pol, spatial), PHOTON_LABELS)
            got = hyper_bell_state(p, s)
            assert got.registers == want.registers
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_all_sixteen_bell_states_decode():
    patterns = set()
    for pol in range(4):
        for spatial in range(4):
            result = analyze_hyper_bell(HyperBellState(pol, spatial))
            assert result.deterministic
            assert (result.pol_index, result.spatial_index) == (pol, spatial)
            patterns.add(result.pattern)
    assert len(patterns) == 16


def test_decoding_table_is_complete():
    table = bell_decoding_table()
    assert len(table) == 16
    assert sorted(table.values()) == [(p, s) for p in range(4) for s in range(4)]
    # every readout pattern decodes, so analyze_hyper_bell always has indices
    outcomes = [register.basis_names for register in PHOTON_REGS]
    assert sorted(table) == sorted(product(*outcomes))


def test_decoding_table_refuses_a_pattern_seen_twice(monkeypatch, request):
    # a decoder that read two Bell states alike would make the table ambiguous
    outcome = 0b0110
    monkeypatch.setattr(
        protocols, "_bell_pattern", lambda state, reflection: (PHOTON_REGS, outcome, 1.0)
    )
    bell_decoding_table.cache_clear()
    request.addfinalizer(bell_decoding_table.cache_clear)
    with pytest.raises(AssertionError, match=re.escape("('R', 'a2', 'L', 'b1')")):
        bell_decoding_table()


def test_decoding_table_is_a_shared_read_only_view():
    table = bell_decoding_table()
    assert table is bell_decoding_table()
    pattern = next(iter(table))
    with pytest.raises(TypeError):
        table[pattern] = (0, 0)
    with pytest.raises(TypeError):
        del table[pattern]
    with pytest.raises(TypeError):
        dict.clear(table)
    with pytest.raises(AttributeError):  # a read-only mapping has no clear()
        table.clear()
    assert len(table) == 16 and table.get(pattern) in table.values()
    result = analyze_hyper_bell(HyperBellState(1, 2))
    assert (result.pol_index, result.spatial_index) == (1, 2)


def test_marginal_matrix_selects_each_register_outcome():
    # row 2 * r + o is the indicator of photon register r reading o, in
    # PHOTON_LABELS order: the marginal of a basis state is 1 on its own bits
    assert protocols._MARGINALS.shape == (8, 16)
    for index in range(16):
        bits = [(index >> (3 - r)) & 1 for r in range(4)]
        want = [float(bit == o) for bit in bits for o in (0, 1)]
        assert protocols._MARGINALS[:, index].tolist() == want


@pytest.mark.parametrize("seed", range(12))
def test_bell_readout_is_the_axis_reduction(seed):
    # the marginal product against the four axis reductions it replaced, on
    # the 16 Bell states, random states whose registers are out of
    # photon-major order and include a spectator, and the 16 basis states,
    # whose photon-a marginals tie exactly in ideal mode, where argmax picks
    # the first outcome
    rng = np.random.default_rng(seed)
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    spectator = Register("c", ("0", "1"))
    orders = [
        (b_spatial, spectator, a_pol, b_pol, a_spatial),
        (spectator, a_spatial, b_pol, a_pol, b_spatial),
    ]
    inputs = [hyper_bell_state(p, s) for p in range(4) for s in range(4)]
    inputs += [random_state(order, rng) for order in orders]
    inputs += protocols._basis_inputs()[1]
    table = bell_decoding_table()
    for pair in (None, _random_passive_pair(rng), _random_passive_pair(rng)):
        for state in inputs:
            result = analyze_hyper_bell(state, pair)
            pattern, min_prob = reduction_bell_pattern(state, pair)
            assert result.pattern == pattern
            assert (result.pol_index, result.spatial_index) == table[pattern]
            assert result.deterministic == (min_prob >= 1 - 1e-9)
            # the sums run in another order: within 2 ulp
            assert abs(result.min_outcome_probability - min_prob) <= 2 * math.ulp(min_prob)


RENAMED_PHOTON_REGS = {
    "pol": (
        Register("a.pol", ("H", "V")),
        Register("a.spatial", ("a1", "a2")),
        Register("b.pol", ("H", "V")),
        Register("b.spatial", ("b1", "b2")),
    ),
    "pol spatial": (
        Register("a.pol", ("H", "V")),
        Register("a.spatial", ("up", "down")),
        Register("b.pol", ("V", "H")),
        Register("b.spatial", ("x", "y")),
    ),
}


@pytest.mark.parametrize("renamed", RENAMED_PHOTON_REGS)
def test_bell_analysis_reads_any_basis_names(renamed):
    # the same amplitudes on registers with other basis names decode alike;
    # the pattern reads the same outcomes in the input's own names
    registers = RENAMED_PHOTON_REGS[renamed]
    pair = ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2))
    for reflection in (None, pair):
        for p, s in product(range(4), range(4)):
            library = hyper_bell_state(p, s)
            want = analyze_hyper_bell(library, reflection)
            bits = [reg.index_of(name) for reg, name in zip(library.registers, want.pattern)]
            state = StateVector(registers, library.amplitudes)
            shuffled = reorder_registers(state, ["b.spatial", "a.pol", "b.pol", "a.spatial"])
            for state in (state, shuffled):
                got = analyze_hyper_bell(state, reflection)
                assert (got.pol_index, got.spatial_index) == (p, s)
                assert (want.pol_index, want.spatial_index) == (p, s)
                assert got.deterministic == want.deterministic
                assert got.min_outcome_probability.hex() == want.min_outcome_probability.hex()
                assert got.pattern == tuple(reg.basis_names[b] for reg, b in zip(registers, bits))


def test_non_bell_input_is_flagged():
    skewed = tensor_product(
        photon_state("a", (0.6, 0.8), PLUS), photon_state("b", PLUS, (1, 0))
    )
    result = analyze_hyper_bell(skewed)
    assert not result.deterministic
    assert result.min_outcome_probability < 1 - 1e-9


@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.05, 3.0), kappa_s=st.floats(0.0, 1.2), seed=st.integers(0, 2**32 - 1))
def test_bell_analysis_matches_step_path(g, kappa_s, seed):
    # the 16 Bell states and a random non-Bell input whose registers are out
    # of photon-major order and include a spectator, which is summed over
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    spectator = Register("c", ("0", "1"))
    mixed = random_state(
        (b_spatial, spectator, a_pol, b_pol, a_spatial), np.random.default_rng(seed)
    )
    inputs = [hyper_bell_state(p, s) for p in range(4) for s in range(4)] + [mixed]
    table = bell_decoding_table()
    for pair in (None, ReflectionPair.from_params(CavityParams(g=g, kappa_s=kappa_s))):
        for state in inputs:
            result = analyze_hyper_bell(state, pair)
            pattern, min_prob = step_bell_pattern(state, pair)
            assert result.pattern == pattern
            assert (result.pol_index, result.spatial_index) == table[pattern]
            assert result.deterministic == (min_prob >= 1 - 1e-9)
            assert abs(result.min_outcome_probability - min_prob) <= 1e-12


def test_applications_apply_no_operator_after_the_input(monkeypatch, rng):
    # the checkpoints, the Bell analysis, its decoding table and the cluster
    # preparation apply compiled maps: no step of theirs goes through
    # apply_operator
    def refuse(*args):
        raise AssertionError("an application stepped a StateVector through apply_operator")

    for module in (hilbert, protocols):
        monkeypatch.setattr(module, "apply_operator", refuse)
    protocols._optics_map.cache_clear()
    bell_decoding_table.cache_clear()
    assert len(bell_decoding_table()) == 16
    pair = ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2))
    for reflection in (None, pair):
        result = analyze_hyper_bell(HyperBellState(2, 1), reflection)
        assert (result.pol_index, result.spatial_index) == (2, 1)
        prepare_cluster_stages(reflection)
        assert len(hyper_cnot_checkpoints(random_state(PHOTON_REGS, rng), reflection)) == 8


def test_analysis_rejects_unnormalized_input(monkeypatch):
    st = hyper_bell_state(0, 0)
    shrunken = type(st)(st.registers, st.amplitudes * 0.9)
    with pytest.raises(ValueError, match="must be normalized"):
        analyze_hyper_bell(shrunken)
    # a HyperBellState names a cached Bell state, normalized when it was
    # built, so its norm is not computed again
    monkeypatch.setattr(type(st), "norm2", property(lambda state: pytest.fail("norm2 read")))
    assert analyze_hyper_bell(HyperBellState(0, 0)).pol_index == 0
    with pytest.raises(pytest.fail.Exception):
        analyze_hyper_bell(st)


@pytest.mark.parametrize("slack,accepted", [(0.5, True), (-0.5, True), (2.0, False), (-2.0, False)])
def test_analysis_normalization_tolerance_is_the_state_tolerance(slack, accepted):
    st = hyper_bell_state(0, 0)
    scaled = type(st)(st.registers, st.amplitudes * math.sqrt(1.0 + slack * hilbert.NORM_ATOL))
    assert abs(scaled.norm2 - 1.0) == pytest.approx(abs(slack) * hilbert.NORM_ATOL, rel=1e-6)
    if accepted:
        assert analyze_hyper_bell(scaled).pattern == analyze_hyper_bell(st).pattern
    else:
        with pytest.raises(ValueError, match="must be normalized"):
            analyze_hyper_bell(scaled)


def test_bell_index_validation():
    with pytest.raises(ValueError):
        HyperBellState(4, 0)
    with pytest.raises(ValueError):
        HyperBellState(0, -1)
    assert HyperBellState(2, 3).combined_index == 11
    # an index must be an integer: a float or a bool is a TypeError, not a
    # stray failure further on or a silent decode as 0 or 1
    for bad in ((1.0, 0), (0, 2.0), (True, 2), (1, False), (np.float64(1.0), 0), ("1", 0), (None, 0)):
        with pytest.raises(TypeError, match="Bell index"):
            HyperBellState(*bad)
    with pytest.raises(TypeError, match="Bell index"):
        hyper_bell_state(2.0, 1)
    for good in (np.int64(2), np.int32(2), np.uint8(2)):
        assert HyperBellState(good, 3).combined_index == 11
        assert hyper_bell_state(good, 3) is hyper_bell_state(2, 3)


def test_physical_mode_analysis_still_decodes():
    pair = ReflectionPair.from_params(CavityParams(g=2.4))
    result = analyze_hyper_bell(HyperBellState(1, 2), pair)
    assert (result.pol_index, result.spatial_index) == (1, 2)
    assert not result.deterministic  # lossy phases leave residual uncertainty


def test_truth_table_oracle_helper():
    assert expected_truth_table_output(("L", "a2", "R", "b1")) == ("L", "a2", "L", "b2")
    assert expected_truth_table_output(("R", "a1", "L", "b2")) == ("R", "a1", "L", "b2")


# -- any circuit table through the interpreter ----------------------------

_TABLE_REGISTERS = protocols.PHOTON_LABELS + (protocols.SPIN_1, protocols.SPIN_2)
_TABLE_ELEMENTS = st.tuples(st.sampled_from(list(ElementKind)), st.sampled_from(_TABLE_REGISTERS))
# (kind, target, control, control value) on any ordered pair of distinct registers
_TABLE_CONDITIONALS = st.builds(
    lambda kind, pair, value: (kind, pair[0], pair[1], value),
    st.sampled_from(list(ElementKind)),
    st.permutations(_TABLE_REGISTERS).map(lambda registers: registers[:2]),
    st.integers(0, 1),
)
_TABLE_PASSES = st.tuples(
    st.just(protocols._CAVITY_PASS),
    st.sampled_from(protocols.PHOTON_LABELS),
    st.sampled_from((protocols.SPIN_1, protocols.SPIN_2)),
)


@st.composite
def circuit_tables(draw):
    """A table of elements, conditional elements and at most six cavity
    passes, in any order: up to the degree a gate with two photon readouts
    would reach, beyond the compiled gate's four."""
    ops = draw(st.lists(st.one_of(_TABLE_ELEMENTS, _TABLE_CONDITIONALS), max_size=6))
    ops += draw(st.lists(_TABLE_PASSES, max_size=6))
    return tuple(draw(st.permutations(ops)))


@settings(max_examples=25, deadline=None)
@given(
    table=circuit_tables(),
    magnitudes=st.tuples(*[st.floats(0.0, 1.0)] * 2),
    phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 2),
)
def test_any_circuit_table_compiles_to_its_step_path(table, magnitudes, phases):
    # a table interpreted on the 64 x 64 identity and evaluated at a passive
    # pair is the table stepped one operator at a time on every basis state
    pair = ReflectionPair(*(m * complex(math.cos(p), math.sin(p)) for m, p in zip(magnitudes, phases)))
    identity = np.eye(64, dtype=np.complex128).reshape((1,) + (2,) * 6 + (64,))
    coefficients = protocols._interpret(identity, table)
    coefficients = coefficients.reshape(len(coefficients), -1)
    compiled = protocols._evaluate(coefficients, pair.r_cold, pair.r_hot).reshape(64, 64)
    cavity_pass = pass_matrix(pair)
    for index in range(64):
        state = StateVector(SYSTEM_REGS, np.eye(64)[index])
        for kind, label, *rest in table:
            if kind is protocols._CAVITY_PASS:
                state = hilbert.apply_operator(state, [label, *rest], cavity_pass)
            elif rest:
                state = conditional_element(state, kind, label, *rest)
            else:
                state = apply_element(state, kind, label)
        assert np.max(np.abs(compiled[:, index] - state.amplitudes)) <= 1e-12, table
