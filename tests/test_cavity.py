import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercnot import (
    CavityParams,
    ReflectionPair,
    Register,
    apply_operator,
    lattice_reflections,
    reflect_cold,
    reflect_hot,
    scatter_matrix,
    tensor_state,
)
from hypercnot.cavity import _cavity_term, _dipole_term
from conftest import random_state
from oracles import embed_matrix

SQ2 = np.sqrt(2.0)

POL = Register("p.pol", ("R", "L"))
SPIN = Register("e", ("up", "down"))


def params(**kw):
    defaults = dict(g=1.0, kappa_s=0.0, gamma=0.1, detuning=0.5)
    defaults.update(kw)
    return CavityParams(**defaults)


# -- reflection coefficients ----------------------------------------------


def test_cold_reflection_on_resonance():
    assert abs(reflect_cold(params(detuning=0.0)) - (-1.0)) < 1e-15


def test_cold_reflection_at_half_linewidth_detuning():
    r0 = reflect_cold(params())
    assert abs(r0 - (-1j)) < 1e-15
    assert abs(np.angle(r0) + np.pi / 2) < 1e-12


def test_cold_reflection_vanishes_at_matched_leakage():
    assert abs(reflect_cold(params(kappa_s=1.0, detuning=0.0))) < 1e-15


def test_hot_equals_cold_at_zero_coupling():
    p = params(g=0.0, kappa_s=0.3, detuning=0.7)
    assert reflect_hot(p) == reflect_cold(p)


@pytest.mark.parametrize("detuning", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_hot_reflection_strong_coupling_limit(detuning):
    r = reflect_hot(params(g=1e6, detuning=detuning))
    assert abs(r - 1.0) < 1e-9
    assert abs(np.angle(r)) < 1e-9


def test_hot_reflection_regression_fixture():
    # direct numeric evaluation of the steady-state formula, frozen
    p = params(g=2.4)
    dipole = 1j * (0.0 - 0.5) + 0.05
    cav = 1j * (0.0 - 0.5) + 0.5
    direct = 1 - dipole / (dipole * cav + 2.4**2)
    r = reflect_hot(p)
    assert abs(r - direct) < 1e-15
    assert abs(r - (0.9865117210457852 + 0.08966408731483125j)) < 1e-12


def test_reflection_magnitudes_bounded_on_grid():
    for g in np.linspace(0.0, 3.0, 7):
        for ks in np.linspace(0.0, 2.0, 5):
            for det in np.linspace(-2.0, 2.0, 9):
                p = CavityParams(g=float(g), kappa_s=float(ks), gamma=0.1, detuning=float(det))
                assert abs(reflect_hot(p)) <= 1 + 1e-12
                assert abs(reflect_cold(p)) <= 1 + 1e-12


# -- whole-lattice reflections --------------------------------------------

# At the default probe, Im(d*c + g**2) outweighs the real part below
# g ~ 0.7 (kappa_s = 0), so reflect_hot divides by the imaginary part there
# and by the real part above. The default sweep lattice has both.
SMITH_EXAMPLES = {
    "imag": dict(gamma=0.1, detuning=0.5, g_range=(0.1, 0.5), kappa_s_range=(0.0, 0.0), n_g=5, n_ks=1),
    "real": dict(gamma=0.1, detuning=0.5, g_range=(2.0, 3.0), kappa_s_range=(0.0, 1.0), n_g=5, n_ks=4),
    "imag real": dict(
        gamma=0.1, detuning=0.5, g_range=(0.0, 3.0), kappa_s_range=(0.0, 2.0), n_g=101, n_ks=101
    ),
}


def lattice_axes(g_range, kappa_s_range, n_g, n_ks):
    # every lattice has a g = 0 row, where reflect_hot takes the bare cavity
    g_values = [0.0, *np.linspace(*g_range, n_g).tolist()]
    return g_values, np.linspace(*kappa_s_range, n_ks).tolist()


def smith_branch(p, g, kappa_s):
    """The branch of CPython's complex division that reflect_hot takes."""
    b = _dipole_term(p) * _cavity_term(p, kappa_s) + g**2
    return "real" if abs(b.real) >= abs(b.imag) else "imag"


@pytest.mark.parametrize("branches", SMITH_EXAMPLES)
def test_smith_examples_take_their_branches(branches):
    ex = SMITH_EXAMPLES[branches]
    p = params(gamma=ex["gamma"], detuning=ex["detuning"])
    g_values, ks_values = lattice_axes(ex["g_range"], ex["kappa_s_range"], ex["n_g"], ex["n_ks"])
    taken = {smith_branch(p, g, ks) for g in g_values if g != 0.0 for ks in ks_values}
    assert taken == set(branches.split())


def magnitudes(limit):
    """Physical magnitudes half the time, anything up to ``limit`` otherwise."""
    return st.floats(0.0, 10.0) | st.floats(0.0, limit)


def ranges(limit):
    return st.tuples(magnitudes(limit), magnitudes(limit)).map(sorted)


@settings(max_examples=300, deadline=None)
@given(
    gamma=magnitudes(1e300),
    detuning=st.floats(-10.0, 10.0) | st.floats(-1e200, 1e200),
    g_range=ranges(1e200),
    kappa_s_range=ranges(1e300),
    n_g=st.integers(1, 8),
    n_ks=st.integers(1, 8),
)
@example(**SMITH_EXAMPLES["imag"])
@example(**SMITH_EXAMPLES["real"])
@example(**SMITH_EXAMPLES["imag real"])
@example(gamma=0.0, detuning=0.5, g_range=(0.0, 3.0), kappa_s_range=(0.0, 2.0), n_g=4, n_ks=3)
@example(gamma=1e300, detuning=0.5, g_range=(0.0, 3.0), kappa_s_range=(0.0, 1e300), n_g=3, n_ks=3)
@example(gamma=0.1, detuning=0.5, g_range=(1e-300, 1e-170), kappa_s_range=(0.0, 2.0), n_g=3, n_ks=3)
@example(gamma=0.0, detuning=0.0, g_range=(1e-170, 1.0), kappa_s_range=(0.0, 2.0), n_g=3, n_ks=2)
@example(gamma=0.1, detuning=0.5, g_range=(0.0, 1e200), kappa_s_range=(0.0, 2.0), n_g=3, n_ks=2)
def test_lattice_reflections_are_bitwise_the_scalar_formulas(
    gamma, detuning, g_range, kappa_s_range, n_g, n_ks
):
    p = params(gamma=gamma, detuning=detuning)
    g_values, ks_values = lattice_axes(g_range, kappa_s_range, n_g, n_ks)
    try:
        want_cold = np.array([reflect_cold(replace(p, kappa_s=ks)) for ks in ks_values])
        want_hot = np.array(
            [reflect_hot(replace(p, g=g, kappa_s=ks)) for g in g_values for ks in ks_values]
        )
    except ArithmeticError:  # g**2 overflows, or d*c + g**2 == 0
        with pytest.raises(ArithmeticError):
            lattice_reflections(p, g_values, ks_values)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent, as the scalar arithmetic is
        r_cold, r_hot = lattice_reflections(p, g_values, ks_values)
    assert r_cold.dtype == r_hot.dtype == np.complex128
    assert r_cold.tobytes() == want_cold.tobytes()
    assert r_hot.tobytes() == want_hot.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(g=-0.1)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, gamma=-1.0)


# -- reflection pairs -------------------------------------------------------


def test_reflection_pair_phases():
    pair = ReflectionPair.from_params(params(g=2.4))
    assert abs(pair.phi_cold + np.pi / 2) < 1e-12
    assert abs(pair.delta_phi - (pair.phi_hot - pair.phi_cold)) < 1e-15
    assert abs(pair.faraday_up + pair.faraday_down) < 1e-15
    assert abs(pair.faraday_up - (pair.phi_cold - pair.phi_hot) / 2) < 1e-15


def test_reflection_pair_rejects_gain():
    with pytest.raises(ValueError):
        ReflectionPair(1.2, 1.0)


@pytest.mark.parametrize(
    "bad", [complex("nan"), complex(0.5, float("nan")), complex("inf"), complex(0.0, float("-inf"))]
)
@pytest.mark.parametrize("slot", ["cold", "hot"])
def test_reflection_pair_rejects_non_finite(bad, slot):
    amplitudes = (bad, 1.0) if slot == "cold" else (1.0, bad)
    with pytest.raises(ValueError, match=r"passive reflection requires \|r\| <= 1"):
        ReflectionPair(*amplitudes)


def test_ideal_pair_values():
    pair = ReflectionPair.ideal()
    assert pair.r_cold == -1j and pair.r_hot == 1.0
    assert abs(pair.delta_phi - np.pi / 2) < 1e-15


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["g", "kappa_s", "gamma", "detuning"])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name}.* finite"):
        params(**{name: value})


def test_side_leakage_warning_at_exact_threshold():
    with pytest.warns(UserWarning, match="at or above") as record:
        ReflectionPair.from_params(params(kappa_s=1.3))
    assert len(record) == 1


def test_side_leakage_warning_threshold():
    with pytest.warns(UserWarning):
        ReflectionPair.from_params(params(kappa_s=1.4))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ReflectionPair.from_params(params(kappa_s=1.0))


# -- scattering map -----------------------------------------------------------


def test_ideal_scatter_phase_table():
    # hot pairs (L,up) and (R,down) keep their amplitude; cold pairs get -i
    cases = {
        ("R", "up"): -1j,
        ("L", "up"): 1.0,
        ("R", "down"): 1.0,
        ("L", "down"): -1j,
    }
    matrix = scatter_matrix(ReflectionPair.ideal())
    for (pol, spin), phase in cases.items():
        st_ = tensor_state(
            [
                (POL, (1, 0) if pol == "R" else (0, 1)),
                (SPIN, (1, 0) if spin == "up" else (0, 1)),
            ]
        )
        out = apply_operator(st_, ["p.pol", "e"], matrix)
        assert abs(out.amplitude(pol, spin) - phase) < 1e-15


def test_physical_scatter_with_ideal_amplitudes_matches_ideal(rng):
    st_ = random_state((POL, SPIN), rng)
    ideal = apply_operator(st_, ["p.pol", "e"], scatter_matrix(ReflectionPair.ideal()))
    explicit = apply_operator(st_, ["p.pol", "e"], scatter_matrix(ReflectionPair(-1j, 1.0)))
    np.testing.assert_allclose(ideal.amplitudes, explicit.amplitudes, atol=1e-12)


def test_lossy_scatter_shrinks_norm(rng):
    pair = ReflectionPair(0.9 * np.exp(-1j * np.pi / 2), 0.95)
    st_ = random_state((POL, SPIN), rng)
    out = apply_operator(st_, ["p.pol", "e"], scatter_matrix(pair))
    assert out.norm2 < st_.norm2
    # oracle: explicit 4x4 diagonal matrix product
    diag = np.diag([pair.r_cold, pair.r_hot, pair.r_hot, pair.r_cold])
    np.testing.assert_allclose(out.amplitudes, diag @ st_.amplitudes, atol=1e-14)


def test_scatter_norm_matches_weighted_magnitudes(rng):
    pair = ReflectionPair.from_params(params(g=0.8, kappa_s=0.4))
    st_ = random_state((SPIN, POL), rng)  # reversed register order on purpose
    out = apply_operator(st_, ["p.pol", "e"], scatter_matrix(pair))
    weights = np.abs(st_.amplitudes) ** 2
    mags = np.abs(embed_matrix(2, [1, 0], scatter_matrix(pair)).diagonal()) ** 2
    assert abs(out.norm2 - float(weights @ mags)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ideal_scatter_is_unitary(seed):
    gen = np.random.default_rng(seed)
    st_ = random_state((POL, SPIN), gen)
    matrix = scatter_matrix(ReflectionPair.ideal())
    np.testing.assert_allclose(matrix.conj().T @ matrix, np.eye(4), rtol=0, atol=1e-15)
    out = apply_operator(st_, ["p.pol", "e"], matrix)
    assert abs(out.norm2 - st_.norm2) < 1e-12
