import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypercnot import (
    CavityParams,
    REFERENCE_POINTS,
    ReflectionPair,
    Register,
    StateVector,
    evaluate_branches,
    fidelity_up_to_global_phase,
    formula_performance,
    hyper_cnot_state,
    photon_state,
    reference_check,
    reflect_cold,
    reflect_hot,
    reorder_registers,
    simulated_performance,
    sweep,
    tensor_product,
    uniform_two_photon_state,
)
from hypercnot import analysis, protocols
from hypercnot.cavity import SIDE_LEAKAGE_WARNING, _reflection_planes
from hypercnot.hilbert import NORM_ATOL
from conftest import random_state
from oracles import (
    efficiency_oracle,
    engine_uniform_figures,
    random_amplitude_pair,
    scalar_uniform_fidelity,
)

SQ2 = np.sqrt(2.0)


def hexes(column):
    return [float.hex(x) for x in column]


def pair_figures(r_cold, r_hot):
    """_lattice_figures at flat reflection pairs, with u, v and x formed
    from the real planes as _sweep_lattice forms them."""
    r_cold, r_hot = np.asarray(r_cold), np.asarray(r_hot)
    u = np.hypot(r_cold.real, r_cold.imag)
    v = np.hypot(r_hot.real, r_hot.imag)
    x = r_hot.imag * r_cold.real - r_hot.real * r_cold.imag
    return analysis._lattice_figures(u, v, x)


def scalar_reflections(g_values, kappa_s_values, gamma):
    """reflect_cold and reflect_hot at every lattice point, g-major, as flat
    complex128 arrays: the per-point reference for a sweep's reflections."""
    points = [CavityParams(g=g, kappa_s=ks, gamma=gamma) for g in g_values for ks in kappa_s_values]
    r_cold = np.array([reflect_cold(params) for params in points], dtype=np.complex128)
    r_hot = np.array([reflect_hot(params) for params in points], dtype=np.complex128)
    return r_cold, r_hot


def step_path_figures(params, joint):
    """(F, eta) from enumerated step-path GateRuns: the per-point reference."""
    ideal_final = hyper_cnot_state(joint, None)[0].final_state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        runs = hyper_cnot_state(joint, ReflectionPair.from_params(params))
    fidelity = sum(
        run.branch_probability * fidelity_up_to_global_phase(run.final_state, ideal_final)
        for run in runs
    )
    return fidelity, runs[0].survival_probability


def test_perfect_magnitudes_give_unit_figures():
    # deep strong coupling pushes both reflection magnitudes to 1
    f, eta = formula_performance(CavityParams(g=1e6))
    assert f > 1 - 1e-9
    assert eta > 1 - 1e-9


def test_balanced_magnitudes_give_unit_fidelity():
    # at zero coupling both branches share the bare reflection, so the
    # closed-form fidelity is 1 even though the phases would be wrong
    f, eta = formula_performance(CavityParams(g=0.0, kappa_s=0.4))
    assert abs(f - 1.0) < 1e-12
    assert eta < 1.0


def test_reference_points_reproduce():
    rows = reference_check()
    assert len(rows) == 4
    for row in rows:
        assert row.within(0.005), (row.point, row.fidelity_delta, row.efficiency_delta)


def test_reference_point_values_are_frozen():
    # regression pin of the computed closed-form values, three decimals
    computed = [
        (round(r.fidelity_computed, 3), round(r.efficiency_computed, 3))
        for r in reference_check()
    ]
    assert computed == [(0.943, 0.489), (1.000, 0.963), (0.947, 0.473), (0.959, 0.424)]


def test_simulated_fidelity_regression_at_weak_coupling():
    # circuit-level fidelity with the true complex reflections; differs from
    # the closed form, which assumes ideal phases and charges two readouts
    f, eta = simulated_performance(CavityParams(g=0.5))
    assert abs(f - 0.9615457471256212) < 1e-9
    assert abs(eta - efficiency_oracle(CavityParams(g=0.5))) < 1e-12


def test_simulated_efficiency_matches_counting_oracle_on_grid():
    for g in np.linspace(0.4, 2.8, 5):
        for ks in np.linspace(0.0, 1.0, 5):
            params = CavityParams(g=float(g), kappa_s=float(ks))
            _, eta = simulated_performance(params)
            assert abs(eta - efficiency_oracle(params)) < 1e-9


def test_simulated_performance_accepts_custom_input(rng):
    joint = tensor_product(
        photon_state("a", random_amplitude_pair(rng), random_amplitude_pair(rng)),
        photon_state("b", random_amplitude_pair(rng), random_amplitude_pair(rng)),
    )
    params = CavityParams(g=1.56, kappa_s=0.2)
    f, eta = simulated_performance(params, joint)
    assert 0.0 <= f <= 1.0
    assert 0.0 < eta <= 1.0
    want = step_path_figures(params, joint)
    assert abs(f - want[0]) < 1e-12 and abs(eta - want[1]) < 1e-12
    # the same input with its registers listed in another order
    permuted = reorder_registers(joint, ["b.spatial", "a.pol", "b.pol", "a.spatial"])
    f_perm, eta_perm = simulated_performance(params, permuted)
    want_perm = step_path_figures(params, permuted)
    assert abs(f_perm - want_perm[0]) < 1e-12 and abs(eta_perm - want_perm[1]) < 1e-12
    assert abs(f_perm - f) < 1e-12 and abs(eta_perm - eta) < 1e-12
    # entangled with a register outside the gate, listed first
    extra = Register("x", ("0", "1"))
    wide = random_state((extra,) + joint.registers, rng)
    f_wide, eta_wide = simulated_performance(params, wide)
    want_wide = step_path_figures(params, wide)
    assert abs(f_wide - want_wide[0]) < 1e-12 and abs(eta_wide - want_wide[1]) < 1e-12


def test_strong_coupling_simulation_nearly_ideal():
    f, eta = simulated_performance(CavityParams(g=1e6))
    assert f > 1 - 1e-9
    assert eta > 1 - 1e-9


def test_performance_point_with_simulation():
    (point,) = sweep((1.0, 1.0), (0.2, 0.2), 1, include_simulation=True).grid
    assert point.F_sim is not None and point.eta_sim is not None
    assert abs(point.eta_sim - point.eta_formula) < 1e-9
    assert 0.0 <= point.F_sim <= 1.0


def test_default_input_is_the_uniform_state():
    # the default is the uniform input, built once per process with its ideal
    # reference: the same bits as a distinct copy of that input, which takes
    # the per-call reference path, at zero survival too
    uniform = uniform_two_photon_state()
    explicit = StateVector(uniform.registers, uniform.amplitudes.copy())
    assert explicit is not uniform
    points = [
        CavityParams(g=1.56, kappa_s=0.2),
        CavityParams(g=0.5),
        CavityParams(g=2.4),
        CavityParams(g=2.88, kappa_s=0.2),
        CavityParams(g=0.0),
        CavityParams(g=1e6, kappa_s=1.2),
        CavityParams(g=0.0, kappa_s=1.0, detuning=0.0),
    ]
    for params in points:
        default = simulated_performance(params)
        assert hexes(default) == hexes(simulated_performance(params, explicit))
    assert math.isnan(default[0]) and default[1] == 0.0  # the last point: zero survival


def test_simulated_performance_rejects_an_unnormalized_input():
    # a sub-normalized input would scale the efficiency by its squared norm
    params = CavityParams(g=2.4)
    joint = uniform_two_photon_state()

    def scaled(norm2):
        return StateVector(joint.registers, joint.amplitudes * math.sqrt(norm2))

    for norm2 in (0.5, 1.0 - 2 * NORM_ATOL, 1.0 + 2 * NORM_ATOL):
        with pytest.raises(ValueError, match="must be normalized"):
            simulated_performance(params, scaled(norm2))
    f, eta = simulated_performance(params, scaled(1.0 - 0.5 * NORM_ATOL))
    want_f, want_eta = simulated_performance(params)
    assert abs(f - want_f) <= 1e-12 and abs(eta - want_eta) <= 1e-8


def test_cached_uniform_input_is_shared_and_read_only():
    joint = uniform_two_photon_state()
    assert joint is uniform_two_photon_state()
    fresh = uniform_two_photon_state.__wrapped__()
    assert joint.registers == fresh.registers
    assert np.array_equal(joint.amplitudes, fresh.amplitudes)
    with pytest.raises(ValueError):
        joint.amplitudes[0] = 1.0


def test_simulated_performance_applies_the_gate_once(monkeypatch, rng):
    # the ideal reference is the ideal (0, 0) Kraus operator times the input,
    # not a second gate application
    calls = []
    outputs = protocols._gate_outputs

    def counted(joint, reflection):
        calls.append(reflection)
        return outputs(joint, reflection)

    monkeypatch.setattr(protocols, "_gate_outputs", counted)
    params = CavityParams(g=1.56, kappa_s=0.2)
    joint = random_state(uniform_two_photon_state().registers, rng)
    f, eta = simulated_performance(params, joint)
    assert calls == [ReflectionPair.from_params(params)]
    want = step_path_figures(params, joint)
    assert abs(f - want[0]) < 1e-12 and abs(eta - want[1]) < 1e-12


def test_simulated_performance_at_zero_survival():
    # matched side leakage on resonance: both reflections vanish
    f, eta = simulated_performance(CavityParams(g=0.0, kappa_s=1.0, detuning=0.0))
    assert math.isnan(f)
    assert eta == 0.0


@pytest.mark.parametrize("gamma", [0.0, 0.02, 0.1])
@pytest.mark.parametrize("detuning", [0.0, -0.0])
def test_formula_performance_at_zero_survival(detuning, gamma):
    # both reflection magnitudes are exactly 0, so the closed-form fidelity
    # is undefined, as the circuit-level one is
    params = CavityParams(g=0.0, kappa_s=1.0, gamma=gamma, detuning=detuning)
    assert abs(reflect_cold(params)) == abs(reflect_hot(params)) == 0.0
    f, eta = formula_performance(params)
    assert math.isnan(f)
    assert eta == 0.0
    f_sim, eta_sim = simulated_performance(params)
    assert math.isnan(f_sim)
    assert eta_sim == eta


# -- sweeps ------------------------------------------------------------------


def test_simulated_sweep_matches_step_path_per_point():
    with pytest.warns(UserWarning, match="12 of 36"):
        result = sweep((0.0, 3.0), (0.0, 2.0), resolution=6, include_simulation=True)
    joint = uniform_two_photon_state()
    for point in result.grid:
        params = CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa)
        f, eta = step_path_figures(params, joint)
        assert abs(point.F_sim - f) < 1e-12
        assert abs(point.eta_sim - eta) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    mags=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
)
@example(mags=(0.0, 0.0), phases=(0.0, 0.0))
def test_uniform_figures_match_the_engine(mags, phases):
    # below this scale the engine's degree-8 survival leaves the normal floats
    assume(max(mags) == 0.0 or max(mags) >= 1e-30)
    r_cold, r_hot = (np.array([m * np.exp(1j * p)]) for m, p in zip(mags, phases))
    _, eta, f = pair_figures(r_cold, r_hot)
    want_f, want_eta = engine_uniform_figures(r_cold, r_hot)
    assert abs(eta[0] - want_eta[0]) <= 1e-12
    if math.isnan(want_f[0]):
        assert math.isnan(f[0]) and eta[0] == 0.0
    else:
        assert abs(f[0] - want_f[0]) <= 1e-12


@pytest.mark.parametrize("r_cold,r_hot", [(0j, 0j), (complex(-0.0, -0.0), complex(0.0, -0.0))])
def test_uniform_figures_at_zero_survival(r_cold, r_hot):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division warning escapes
        f, eta, f_sim = pair_figures(np.array([r_cold]), np.array([r_hot]))
    assert math.isnan(f[0]) and math.isnan(f_sim[0]) and eta[0] == 0.0


def test_branch_weighted_fidelity_is_f_sim_on_the_application_inputs(rng):
    """On the 16 hyper-Bell inputs, the 16 basis inputs and the cluster
    preparation's input, the branch-weighted fidelity
    sum_b |<U psi|K_b psi>|**2 / sum_b ||K_b psi||**2 is the uniform input's
    F_sim at every pair, to round-off.

    The identity does not hold for arbitrary inputs: random product states
    miss it by far more than round-off, which the last assertion shows.
    """
    ideal = ReflectionPair.ideal()
    u = 2 * evaluate_branches(ideal.r_cold, ideal.r_hot)[0, 0, 0]
    states = [*protocols._bell_states(), *protocols._basis_inputs()[1], protocols._cluster_input()]
    assert {state.registers for state in states} == {uniform_two_photon_state().registers}
    moduli = rng.uniform(0.0, 1.0, size=(2, 300))
    r_cold, r_hot = moduli * np.exp(2j * np.pi * rng.uniform(size=(2, 300)))
    _, _, f_sim = pair_figures(r_cold, r_hot)
    kraus = evaluate_branches(r_cold, r_hot).reshape(300, 4, 16, 16)

    def branch_weighted(inputs):
        out = kraus @ inputs  # pair, branch, output amplitude, input
        overlap2 = np.abs(np.einsum("nboc,oc->nbc", out, (u @ inputs).conj())) ** 2
        return overlap2.sum(1) / np.square(np.abs(out)).sum(axis=(1, 2))

    fidelity = branch_weighted(np.stack([state.amplitudes for state in states], axis=1))
    assert fidelity.shape == (300, 33)
    np.testing.assert_allclose(fidelity, np.repeat(f_sim[:, None], 33, 1), rtol=0, atol=1e-12)
    products = np.stack(
        [
            tensor_product(
                photon_state("a", random_amplitude_pair(rng), random_amplitude_pair(rng)),
                photon_state("b", random_amplitude_pair(rng), random_amplitude_pair(rng)),
            ).amplitudes
            for _ in range(8)
        ],
        axis=1,
    )
    assert np.abs(branch_weighted(products) - f_sim[:, None]).max() > 0.01


@pytest.mark.parametrize("gamma", [0.02, 0.1, 0.3])
def test_simulated_sweep_matches_the_engine_on_the_default_lattice(gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        lattice = analysis._sweep_lattice((0.0, 3.0), (0.0, 2.0), 101, gamma, True)
    r_cold, r_hot = scalar_reflections(lattice.g_values, lattice.kappa_s_values, gamma)
    want_f, want_eta = engine_uniform_figures(r_cold, r_hot)
    f, eta = np.array(lattice.columns["F_sim"]), np.array(lattice.columns["eta_sim"])
    assert len(f) == 101 * 101
    np.testing.assert_allclose(f, want_f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(eta, want_eta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.02, 0.1, 0.3])
def test_simulated_sweep_eta_is_bitwise_the_closed_form(gamma):
    # eta_sim = (s/2)**4 is exactly the closed-form eta, so the sweep reuses
    # that column rather than rounding the same number another way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        grid = sweep(gamma=gamma, include_simulation=True).grid
    assert len(grid) == 101 * 101
    assert [point.eta_sim for point in grid] == [point.eta_formula for point in grid]


@pytest.mark.parametrize("gamma", [0.02, 0.3])
def test_sweep_closed_form_is_bitwise_the_per_point_formula(gamma):
    # the lattice holds the g = 0 row (reflect_hot's bare-cavity shortcut) and
    # a kappa_s column at exactly the side-leakage guidance
    g_values = np.linspace(0.0, 3.0, 9).tolist()
    ks_values = np.linspace(0.0, 2.6, 9).tolist()
    assert g_values[0] == 0.0 and SIDE_LEAKAGE_WARNING in ks_values
    closed = sweep((0.0, 3.0), (0.0, 2.6), resolution=9, gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        simulated = sweep((0.0, 3.0), (0.0, 2.6), resolution=9, gamma=gamma, include_simulation=True)
    for result in (closed, simulated):
        for point in result.grid:
            params = CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=gamma)
            assert (point.F_formula, point.eta_formula) == formula_performance(params)
    cold_re, cold_im, hot_re, hot_im = _reflection_planes(
        CavityParams(g=3.0, gamma=gamma), g_values, ks_values
    )
    assert cold_re.shape == (9,) and hot_re.shape == (9, 9)
    for n, point in enumerate(closed.grid):
        params = CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=gamma)
        i, j = divmod(n, 9)
        r_cold, r_hot = reflect_cold(params), reflect_hot(params)
        assert hexes([cold_re[j], cold_im[j]]) == hexes([r_cold.real, r_cold.imag])
        assert hexes([hot_re[i, j], hot_im[i, j]]) == hexes([r_hot.real, r_hot.imag])


# (u, v) pairs at the edges of _closed_form and _lattice_figures: no light, squares that
# underflow (u**2 + v**2 == 0 while (u + v)**2 may not be), subnormal
# squares, balanced loss (F exactly 1.0) and a lossless side
CLOSED_FORM_EDGES = [
    (0.0, 0.0),
    (5e-324, 5e-324),
    (1e-310, 2e-310),
    (1e-170, 0.0),
    (1.5e-162, 1.5e-162),
    (1e-160, 3e-161),
    (0.3, 0.3),
    (1.0, 1.0),
    (1.0, 0.2),
    (0.7, 1.0),
    (1.0, 0.0),
    (0.0, 1.0),
]


def assert_lattice_closed_form_is_bitwise(pairs):
    u, v = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division or underflow warning escapes
        f, eta, f_sim = analysis._lattice_figures(u, v)
    assert f_sim is None
    want = np.array([analysis._closed_form(a, b) for a, b in pairs]).reshape(-1, 2)
    assert np.stack([f, eta], axis=1).tobytes() == want.tobytes()
    return f, eta


def test_lattice_closed_form_is_bitwise_at_the_edges():
    f, eta = assert_lattice_closed_form_is_bitwise(CLOSED_FORM_EDGES)
    assert np.isnan(f[:5]).all() and (eta[:5] == 0.0).all()
    assert 0.0 < f[5] and f[6] == f[7] == 1.0 and eta[7] == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        | st.tuples(st.floats(0.0, 1e-150), st.floats(0.0, 1e-150)),
        max_size=40,
    )
)
def test_lattice_closed_form_is_bitwise_the_scalar_closed_form(pairs):
    assert_lattice_closed_form_is_bitwise(pairs)


@st.composite
def axis_ranges(draw, hi):
    """A sweep axis range (lo, hi) in [0, hi], degenerate (lo == hi) one time in two."""
    a, b = draw(st.floats(0.0, hi)), draw(st.floats(0.0, hi))
    return (a, a) if draw(st.booleans()) else (min(a, b), max(a, b))


@settings(max_examples=200, deadline=None)
@given(
    g_range=axis_ranges(4.0),
    kappa_s_range=axis_ranges(2.5),
    resolution=st.integers(1, 12),
    gamma=st.sampled_from([0.0, 0.02, 0.1, 0.3]) | st.floats(0.0, 1.0),
    simulate=st.booleans(),
)
@example(g_range=(1.56, 1.56), kappa_s_range=(0.2, 0.2), resolution=1, gamma=0.1, simulate=True)
@example(g_range=(0.0, 0.0), kappa_s_range=(0.0, 0.0), resolution=1, gamma=0.0, simulate=True)
@example(g_range=(0.0, 3.0), kappa_s_range=(0.0, 2.0), resolution=12, gamma=0.0, simulate=True)
def test_sweep_lattice_on_the_grid_is_bitwise_the_flat_evaluation(
    g_range, kappa_s_range, resolution, gamma, simulate
):
    """The sweep's columns are bitwise the flat, per-point evaluation.

    _sweep_lattice broadcasts r_cold's real planes per kappa_s column against
    r_hot's per point on the (g, kappa_s) grid; the reference takes
    reflect_cold and reflect_hot at every point and evaluates the figures on
    flat arrays. Only real float64 ufuncs may run on the grid: numpy's
    complex multiply can round a broadcast product differently from the flat
    1-D one, which shows at resolution 1, where a (1, 1) x (1,) broadcast
    differs in the last bit at some points. This test guards that hazard.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        lattice = analysis._sweep_lattice(g_range, kappa_s_range, resolution, gamma, simulate)
    r_cold, r_hot = scalar_reflections(lattice.g_values, lattice.kappa_s_values, gamma)
    want_f, want_eta, want_f_sim = pair_figures(r_cold, r_hot)
    columns = lattice.columns
    assert len(columns["F"]) == len(columns["eta"]) == resolution**2
    assert hexes(columns["F"]) == hexes(want_f.tolist())
    assert hexes(columns["eta"]) == hexes(want_eta.tolist())
    if simulate:
        assert list(columns) == ["F", "eta", "F_sim", "eta_sim"]
        assert hexes(columns["F_sim"]) == hexes(want_f_sim.tolist())
        assert columns["eta_sim"] is columns["eta"]
    else:
        assert list(columns) == ["F", "eta"]


@settings(max_examples=200, deadline=None)
@given(
    g_range=axis_ranges(4.0),
    kappa_s_range=axis_ranges(2.5),
    resolution=st.integers(1, 12),
    gamma=st.sampled_from([0.0, 0.02, 0.1, 0.3]) | st.floats(0.0, 1.0),
)
@example(g_range=(1.56, 1.56), kappa_s_range=(0.2, 0.2), resolution=1, gamma=0.1)
@example(g_range=(0.0, 3.0), kappa_s_range=(0.0, 2.0), resolution=12, gamma=0.1)
# steps that underflow to 0: np.linspace's fallback, i / div * delta + lo
@example(g_range=(0.0, 2e-323), kappa_s_range=(1e-310, 1e-310), resolution=12, gamma=0.1)
# windows of the standard axes, np.linspace(0, 3, 101) and np.linspace(0, 2, 101),
# at the shapes of the sim_sweep workload in perfbench
@example(g_range=(0.09, 1.98), kappa_s_range=(0.1, 1.9000000000000001), resolution=10, gamma=0.1)
@example(g_range=(0.0, 3.0), kappa_s_range=(0.4, 2.0), resolution=11, gamma=0.1)
def test_sweep_columns_are_bitwise_the_scalar_formulas(g_range, kappa_s_range, resolution, gamma):
    """Each axis is np.linspace's, and at each point F and eta are
    _closed_form's and F_sim is the Python scalar formula's, at reflect_cold
    and reflect_hot of that point, bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        lattice = analysis._sweep_lattice(g_range, kappa_s_range, resolution, gamma, True)
    assert hexes(lattice.g_values) == hexes(np.linspace(*g_range, resolution).tolist())
    assert hexes(lattice.kappa_s_values) == hexes(np.linspace(*kappa_s_range, resolution).tolist())
    want = []
    for g in lattice.g_values:
        for ks in lattice.kappa_s_values:
            params = CavityParams(g=g, kappa_s=ks, gamma=gamma)
            r_cold, r_hot = reflect_cold(params), reflect_hot(params)
            f, eta = analysis._closed_form(abs(r_cold), abs(r_hot))
            want.append((f, eta, scalar_uniform_fidelity(r_cold, r_hot)))
    want_f, want_eta, want_f_sim = zip(*want)
    assert hexes(lattice.columns["F"]) == hexes(want_f)
    assert hexes(lattice.columns["eta"]) == hexes(want_eta)
    assert hexes(lattice.columns["F_sim"]) == hexes(want_f_sim)


@settings(max_examples=300, deadline=None)
@given(
    ends=st.tuples(st.floats(0.0, 1e308), st.floats(0.0, 1e308))
    | st.tuples(st.floats(0.0, 1e-300), st.floats(0.0, 1e-300)),
    n=st.integers(1, 60),
)
# the step underflows to 0, and numpy's fallback i / div * delta + lo gives
# values between the ends
@example(ends=(0.0, 5e-323), n=41)
@example(ends=(0.0, 5e-324), n=3)
@example(ends=(1e-310, 3e-310), n=41)
@example(ends=(0.0, 1.7976931348623157e308), n=7)
@example(ends=(-0.0, 0.0), n=1)
@example(ends=(-0.0, 0.0), n=2)
@example(ends=(0, 3), n=7)  # integer and numpy ends, as sweep accepts them
@example(ends=(np.float64(0.2), np.float64(2.6)), n=101)
def test_axis_is_bitwise_linspace(ends, n):
    lo, hi = sorted(ends)
    values = analysis._axis(lo, hi, n)
    assert all(type(value) is float for value in values)
    with np.errstate(over="ignore"):  # numpy also forms div * step, then overwrites it with hi
        want = np.linspace(lo, hi, n).tolist()
    assert hexes(values) == hexes(want)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    | st.tuples(*[st.floats(-1e-150, 1e-150)] * 4),
)
@example(parts=(0.0, 0.0, 0.0, 0.0))
@example(parts=(-0.0, 0.0, 0.0, -0.0))
@example(parts=(0.0, -1.0, 1.0, 0.0))  # the ideal pair: F_sim = 1
@example(parts=(0.3, -0.2, 0.3, -0.2))  # r_cold = r_hot: x = 0 and F_sim = 1/4
@example(parts=(5e-324, 0.0, 0.0, 5e-324))
def test_lattice_figures_sim_is_bitwise_the_scalar_formula(parts):
    r_cold, r_hot = complex(*parts[:2]), complex(*parts[2:])
    assume(abs(r_cold) <= 1.0 and abs(r_hot) <= 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division or underflow warning escapes
        f, eta, f_sim = pair_figures(np.array([r_cold]), np.array([r_hot]))
    assert hexes(f_sim) == [float.hex(scalar_uniform_fidelity(r_cold, r_hot))]
    assert hexes([f[0], eta[0]]) == hexes(analysis._closed_form(abs(r_cold), abs(r_hot)))


def test_simulated_sweep_warns_once_for_side_leakage():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sweep((0.0, 3.0), (0.0, 2.0), resolution=21, include_simulation=True)
    # kappa_s = 1.3, 1.4, ..., 2.0: 8 of the 21 columns
    leaky = sum(p.kappa_s_over_kappa >= SIDE_LEAKAGE_WARNING for p in result.grid)
    assert leaky == 8 * 21
    assert len(caught) == 1
    assert issubclass(caught[0].category, UserWarning)
    assert f"{leaky} of 441" in str(caught[0].message)
    # the warning points at the caller of sweep, not into the package
    assert caught[0].filename == __file__
    assert result.provenance["side_leakage_points"] == str(leaky)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sweep((1.0, 1.0), (1.5, 1.5), 1, include_simulation=True),
    ],
    ids=["sweep"],
)
def test_side_leakage_warning_names_the_caller(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert len(caught) == 1
    assert caught[0].filename == __file__


def test_closed_form_sweep_counts_side_leakage_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep((0.0, 3.0), (0.0, 2.0), resolution=21)
        below = sweep((0.0, 3.0), (0.0, 1.0), resolution=5, include_simulation=True)
    assert result.provenance["side_leakage_points"] == str(8 * 21)
    assert below.provenance["side_leakage_points"] == "0"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "slot", ["g_lo", "g_hi", "kappa_s_lo", "kappa_s_hi", "gamma"]
)
def test_sweep_rejects_non_finite_inputs(slot, bad):
    args = {"g_lo": 0.0, "g_hi": 1.0, "kappa_s_lo": 0.0, "kappa_s_hi": 1.0, "gamma": 0.1}
    args[slot] = bad
    with pytest.raises(ValueError):
        sweep(
            (args["g_lo"], args["g_hi"]),
            (args["kappa_s_lo"], args["kappa_s_hi"]),
            3,
            args["gamma"],
        )


def test_sweep_lattice_shape_and_order():
    result = sweep((0.0, 3.0), (0.0, 2.0), resolution=4)
    assert len(result.grid) == 16
    gs = [p.g_over_kappa for p in result.grid]
    kss = [p.kappa_s_over_kappa for p in result.grid]
    assert gs == sorted(gs)  # g-major: g varies slowest
    np.testing.assert_allclose(kss[:4], np.linspace(0, 2, 4), atol=1e-12)
    assert result.provenance["package"].startswith("hypercnot ")


def test_sweep_values_stay_in_unit_interval():
    result = sweep((0.0, 3.0), (0.0, 2.0), resolution=7)
    for point in result.grid:
        assert 0.0 <= point.F_formula <= 1.0
        assert 0.0 <= point.eta_formula <= 1.0


def test_single_point_sweep_matches_reference():
    ref = REFERENCE_POINTS[0]
    result = sweep(
        (ref.g_over_kappa, ref.g_over_kappa),
        (ref.kappa_s_over_kappa, ref.kappa_s_over_kappa),
        resolution=1,
    )
    assert len(result.grid) == 1
    point = result.grid[0]
    assert abs(point.F_formula - ref.fidelity) <= 0.005
    assert abs(point.eta_formula - ref.efficiency) <= 0.005


def test_monotonicity_beyond_the_anticrossing_dip():
    # the coupled-branch magnitude dips near g ~ 0.6 kappa (the polariton
    # anticrossing sweeps through the probe), so monotonic growth only
    # holds beyond it
    values = sweep((0.8, 3.0), (0.0, 0.0), resolution=23).grid
    fs = [p.F_formula for p in values]
    etas = [p.eta_formula for p in values]
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


def test_only_the_efficiency_grows_monotonically_beyond_the_dip():
    # the README's sentence, at gamma = 0.1 on g in [0.6, 6]: eta never falls
    # at kappa_s = 0, 0.2 and 1; the fidelities do
    # each line is what sweep((0.6, 6), (ks, ks), 541, include_simulation=True)
    # gives, read from the scalar formulas that
    # test_sweep_columns_are_bitwise_the_scalar_formulas holds it to
    g = np.linspace(0.6, 6.0, 541)
    figures = {}
    for ks in (0.0, 0.2, 1.0):
        points = [CavityParams(g=x, kappa_s=ks) for x in g.tolist()]
        f, eta = np.array([formula_performance(p) for p in points]).T
        f_sim = np.array([scalar_uniform_fidelity(reflect_cold(p), reflect_hot(p)) for p in points])
        assert (np.diff(eta) >= 0.0).all(), ks
        figures[ks] = g, f, f_sim
    # F_closed reaches 1 where |r_cold| = |r_hot|, g ~ 0.86 at kappa_s = 0.2,
    # and falls beyond it
    g, f, _ = figures[0.2]
    assert (np.diff(f) < 0.0).any()
    assert abs(g[f.argmax()] - 0.86) < 0.011 and f.max() > 1 - 1e-4
    assert abs(f[-1] - 0.944) < 5e-4
    # F_sim drops 0.27 below its running maximum just above g = 0.6 at
    # kappa_s = 0, and peaks at 0.9631 near g = 3.5 at kappa_s = 0.2
    _, _, f_sim = figures[0.0]
    assert abs((np.maximum.accumulate(f_sim) - f_sim).max() - 0.27) < 0.005
    g, _, f_sim = figures[0.2]
    assert abs(f_sim.max() - 0.9631) < 5e-5 and abs(g[f_sim.argmax()] - 3.5) < 0.011


def test_anticrossing_dip_exists():
    # documents why the monotonic assertion starts at 0.8: the figures dip
    # between weak coupling and the strong-coupling recovery
    low = formula_performance(CavityParams(g=0.2))
    dip = formula_performance(CavityParams(g=0.6))
    high = formula_performance(CavityParams(g=2.4))
    assert dip[1] < low[1] and dip[1] < high[1]
    assert dip[0] < low[0] and dip[0] < high[0]


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep((0.0, 3.0), (0.0, 2.0), resolution=0)
    with pytest.raises(ValueError):
        sweep((3.0, 0.0), (0.0, 2.0), resolution=2)
    with pytest.raises(ValueError):
        sweep((0.0, 3.0), (-1.0, 2.0), resolution=2)
    with pytest.raises(ValueError):
        sweep((0.0, 3.0), (0.0, 2.0), resolution=2, gamma=-0.1)
    # resolution must be an integer, not a bool or an integral-valued float
    for bad in (True, False, 2.0, 2.5, np.float64(3.0), "3", None):
        with pytest.raises(TypeError, match="resolution"):
            sweep((0.0, 3.0), (0.0, 2.0), resolution=bad)
    for good in (np.int64(3), np.int32(3), np.uint8(3)):
        assert len(sweep((0.0, 3.0), (0.0, 2.0), resolution=good).grid) == 9


@pytest.mark.parametrize("include_simulation", [False, True], ids=["plain", "simulate"])
def test_bulk_rows_behave_like_constructed_points(include_simulation):
    # sweep writes each row's fields straight into a bare instance, which is
    # only the constructor's state while PerformancePoint has no __post_init__
    assert not hasattr(analysis.PerformancePoint, "__post_init__")
    rows = sweep((0.5, 2.4), (0.0, 0.4), 3, 0.1, include_simulation).grid
    rows += sweep((1.56, 1.56), (0.2, 0.2), 1, 0.1, include_simulation).grid
    for row in rows:
        values = [getattr(row, f.name) for f in dataclasses.fields(row)]
        built = analysis.PerformancePoint(*values)
        assert type(row) is analysis.PerformancePoint
        assert row == built and built == row
        assert hash(row) == hash(built)
        assert repr(row) == repr(built)
        assert list(vars(row).items()) == list(vars(built).items())
        assert dataclasses.asdict(row) == dataclasses.asdict(built)
        assert dataclasses.replace(row) == built
        moved = dataclasses.replace(row, gamma_over_kappa=0.2)
        assert moved == dataclasses.replace(built, gamma_over_kappa=0.2)
        assert (row.F_sim is None) is (not include_simulation)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.F_formula = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.eta_sim


def test_sweep_counts_side_leakage_at_a_numpy_integer_resolution():
    # a narrow numpy integer resolution is taken as a Python int, so the
    # point count does not wrap around
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep((0.0, 3.0), (0.0, 2.0), resolution=np.uint8(200))
    assert len(result.grid) == 200 * 200
    leaky = sum(p.kappa_s_over_kappa >= SIDE_LEAKAGE_WARNING for p in result.grid)
    assert result.provenance["side_leakage_points"] == str(leaky) == str(70 * 200)


@pytest.mark.parametrize("include_simulation", [False, True], ids=["plain", "simulate"])
def test_a_numpy_gamma_is_kept_as_the_python_float_it_equals(include_simulation):
    # the figure columns never depended on gamma's type; its provenance entry
    # and the gamma fields of the result and the rows did
    args = (0.5, 2.0), (0.0, 0.4), 3
    plain = sweep(*args, 0.1, include_simulation)
    numpy = sweep(*args, np.float64(0.1), include_simulation)
    assert numpy.provenance == plain.provenance
    assert numpy.provenance["gamma_over_kappa"] == "0.1"
    assert type(numpy.gamma_over_kappa) is float
    assert all(type(row.gamma_over_kappa) is float for row in numpy.grid)
    columns = ("F_formula", "eta_formula") + (("F_sim", "eta_sim") if include_simulation else ())

    def bits(result):
        return np.array([[getattr(row, c) for c in columns] for row in result.grid]).tobytes()

    assert bits(numpy) == bits(plain)
    with pytest.raises(TypeError):
        sweep(*args, "0.1", include_simulation)


def test_sweep_is_deterministic():
    a = sweep((0.0, 3.0), (0.0, 2.0), resolution=5)
    b = sweep((0.0, 3.0), (0.0, 2.0), resolution=5)
    assert a == b


def test_formula_reflection_pair_consistency():
    # the closed forms consume the same reflection moduli the pair exposes
    params = CavityParams(g=1.3, kappa_s=0.2)
    pair = ReflectionPair.from_params(params)
    u, v = abs(pair.r_cold), abs(pair.r_hot)
    f, eta = formula_performance(params)
    assert abs(eta - ((u**2 + v**2) / 2) ** 4) < 1e-15
    assert abs(f - ((u + v) ** 2 / (2 * (u**2 + v**2))) ** 6) < 1e-15
