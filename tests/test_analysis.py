import math
import warnings

import numpy as np
import pytest

from hypercnot import (
    CavityParams,
    REFERENCE_POINTS,
    ReflectionPair,
    Register,
    fidelity_up_to_global_phase,
    formula_performance,
    hyper_cnot_state,
    lattice_reflections,
    performance_point,
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
from hypercnot import analysis
from hypercnot.cavity import SIDE_LEAKAGE_WARNING
from conftest import random_state
from oracles import efficiency_oracle, random_amplitude_pair

SQ2 = np.sqrt(2.0)


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
    point = performance_point(1.0, 0.2, include_simulation=True)
    assert point.F_sim is not None and point.eta_sim is not None
    assert abs(point.eta_sim - point.eta_formula) < 1e-9
    assert 0.0 <= point.F_sim <= 1.0


def test_default_input_is_the_uniform_state():
    # the default uses the compiled coefficients cached for the uniform input
    params = CavityParams(g=1.56, kappa_s=0.2)
    f, eta = simulated_performance(params)
    f_given, eta_given = simulated_performance(params, uniform_two_photon_state())
    assert abs(f - f_given) <= 1e-15 and abs(eta - eta_given) <= 1e-15


def test_cached_uniform_coefficients_are_read_only():
    coefficients = analysis._uniform_coefficients()
    assert coefficients is analysis._uniform_coefficients()
    with pytest.raises(ValueError):
        coefficients[0, 0, 0, 0, 0] = 1.0


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
    r_cold, r_hot = lattice_reflections(CavityParams(g=3.0, gamma=gamma), g_values, ks_values)
    assert len(r_cold) == 9 and len(r_hot) == 81
    for n, point in enumerate(closed.grid):
        params = CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=gamma)
        assert r_cold[n % 9] == reflect_cold(params)
        assert r_hot[n] == reflect_hot(params)


def test_simulated_sweep_rejects_active_reflections(monkeypatch):
    def amplified(params, g_values, kappa_s_values):
        r_cold, r_hot = lattice_reflections(params, g_values, kappa_s_values)
        r_hot[-1] = 1.0 + 2e-9
        return r_cold, r_hot

    monkeypatch.setattr(analysis, "lattice_reflections", amplified)
    with pytest.raises(ValueError, match=r"passive reflection requires \|r\| <= 1"):
        sweep((0.0, 3.0), (0.0, 1.0), resolution=3, include_simulation=True)


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
