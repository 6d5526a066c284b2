import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercnot import (
    ElementKind,
    Register,
    apply_operator,
    basis_state,
    element_matrix,
    protocols,
    tensor_state,
)
from conftest import random_state
from oracles import (
    HWP_X,
    SPIN_ROT_MINUS,
    WP_U1,
    WP_U2,
    apply_element,
    conditional_element,
    embed_matrix,
)

SQ2 = np.sqrt(2.0)

POL = Register("a.pol", ("R", "L"))
SPATIAL = Register("a.spatial", ("a1", "a2"))
SPIN = Register("e1", ("up", "down"))

ALL_KINDS = list(ElementKind)

# every fixed matrix: the library's elements, then the test oracles' four,
# all under the one id scheme of the element kinds
MATRICES = {str(kind): element_matrix(kind) for kind in ALL_KINDS} | {
    f"ElementKind.{name}": m
    for name, m in [("HWP_X", HWP_X), ("WP_U1", WP_U1), ("WP_U2", WP_U2), ("SPIN_ROT_MINUS", SPIN_ROT_MINUS)]
}


def test_every_element_is_placed_by_a_circuit_table():
    tables = [ops for _, ops in protocols._STAGES]
    tables += protocols._CLUSTER_SEGMENTS
    placed = {op[0] for ops in tables for op in ops}
    assert [kind for kind in ALL_KINDS if kind not in placed] == []


@pytest.mark.parametrize("m", MATRICES.values(), ids=MATRICES.keys())
def test_every_element_is_unitary(m):
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("m", MATRICES.values(), ids=MATRICES.keys())
def test_element_then_inverse_restores_state(m, rng):
    st_ = random_state((POL,), rng)
    out = apply_operator(st_, ["a.pol"], m)
    back = apply_operator(out, ["a.pol"], m.conj().T)
    np.testing.assert_allclose(back.amplitudes, st_.amplitudes, atol=1e-12)


def test_bit_flip_plate():
    out = apply_operator(basis_state([POL], ["R"]), ["a.pol"], HWP_X)
    assert abs(out.amplitude("L") - 1) < 1e-15


def test_polarization_hadamard():
    out = apply_element(basis_state([POL], ["R"]), ElementKind.HWP_H, "a.pol")
    np.testing.assert_allclose(out.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-15)
    out = apply_element(basis_state([POL], ["L"]), ElementKind.HWP_H, "a.pol")
    np.testing.assert_allclose(out.amplitudes, [1 / SQ2, -1 / SQ2], atol=1e-15)


def test_beam_splitter_squares_to_identity(rng):
    st_ = random_state((SPATIAL,), rng)
    twice = apply_element(apply_element(st_, ElementKind.BS, "a.spatial"), ElementKind.BS, "a.spatial")
    np.testing.assert_allclose(twice.amplitudes, st_.amplitudes, atol=1e-14)


def test_beam_splitter_on_first_path():
    out = apply_element(basis_state([SPATIAL], ["a1"]), ElementKind.BS, "a.spatial")
    np.testing.assert_allclose(out.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-15)


def test_quarter_phase_plate_action():
    st_ = tensor_state([(POL, (1 / SQ2, 1 / SQ2))])
    out = apply_operator(st_, ["a.pol"], WP_U2)
    np.testing.assert_allclose(out.amplitudes, [1 / SQ2, -1j / SQ2], atol=1e-15)


def test_global_phase_plate_is_scalar():
    np.testing.assert_allclose(WP_U1, -1j * np.eye(2), atol=1e-15)


def test_phase_flip_plate_signs():
    m = element_matrix(ElementKind.HWP_PHASEFLIP)
    np.testing.assert_allclose(m, np.diag([-1, 1]), atol=1e-15)


def test_spin_rotation_images():
    st_up = basis_state([SPIN], ["up"])
    out = apply_element(st_up, ElementKind.SPIN_ROT_PLUS, "e1")
    np.testing.assert_allclose(out.amplitudes, [1j / SQ2, 1 / SQ2], atol=1e-15)
    st_down = basis_state([SPIN], ["down"])
    out = apply_element(st_down, ElementKind.SPIN_ROT_PLUS, "e1")
    np.testing.assert_allclose(out.amplitudes, [1j / SQ2, -1 / SQ2], atol=1e-15)


def test_spin_rotation_minus_inverts_plus():
    plus = element_matrix(ElementKind.SPIN_ROT_PLUS)
    np.testing.assert_allclose(SPIN_ROT_MINUS @ plus, np.eye(2), atol=1e-15)


# -- conditional elements -----------------------------------------------------


def test_conditional_phase_flip_on_second_path():
    st_ = tensor_state([(POL, (1, 0)), (SPATIAL, (1 / SQ2, 1 / SQ2))])
    out = conditional_element(st_, ElementKind.HWP_PHASEFLIP, "a.pol", "a.spatial", 1)
    assert abs(out.amplitude("R", "a1") - 1 / SQ2) < 1e-15
    assert abs(out.amplitude("R", "a2") + 1 / SQ2) < 1e-15


def test_conditional_skips_unoccupied_branch(rng):
    st_ = tensor_state([(POL, (0.6, 0.8)), (SPATIAL, (1, 0))])
    out = conditional_element(st_, ElementKind.HWP_H, "a.pol", "a.spatial", 1)
    np.testing.assert_allclose(out.amplitudes, st_.amplitudes, atol=1e-15)


def test_conditional_identity_is_identity(rng):
    # a self-inverse element applied twice in the same branch acts as a
    # conditional identity
    st_ = random_state((POL, SPATIAL), rng)
    out = conditional_element(st_, ElementKind.HWP_H, "a.pol", "a.spatial", 0)
    out = conditional_element(out, ElementKind.HWP_H, "a.pol", "a.spatial", 0)
    np.testing.assert_allclose(out.amplitudes, st_.amplitudes, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), control_value=st.sampled_from([0, 1]))
def test_conditional_matches_block_diagonal_oracle(seed, control_value):
    gen = np.random.default_rng(seed)
    st_ = random_state((POL, SPATIAL, SPIN), gen)
    kind = gen.choice(ALL_KINDS)
    out = conditional_element(st_, kind, "a.pol", "a.spatial", control_value)
    mat = element_matrix(kind)
    block = np.zeros((4, 4), dtype=complex)
    for c in (0, 1):
        sub = mat if c == control_value else np.eye(2)
        block[2 * c : 2 * c + 2, 2 * c : 2 * c + 2] = sub
    # control register is axis 1, target axis 0, so embed on (control, target)
    full = embed_matrix(3, [1, 0], block)
    np.testing.assert_allclose(out.amplitudes, full @ st_.amplitudes, atol=1e-12)


def test_conditional_rejects_bad_control_value(rng):
    st_ = random_state((POL, SPATIAL), rng)
    with pytest.raises(ValueError):
        conditional_element(st_, ElementKind.HWP_H, "a.pol", "a.spatial", 2)
