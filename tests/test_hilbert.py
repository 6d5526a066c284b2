import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercnot import (
    ReflectionPair,
    Register,
    StateVector,
    apply_operator,
    basis_index,
    basis_names,
    basis_state,
    fidelity_up_to_global_phase,
    reorder_registers,
    scatter_matrix,
    tensor_product,
    tensor_state,
)
from hypercnot.hilbert import state_stack
from conftest import random_state, random_unitary, three_registers
from oracles import (
    apply_operator_reference,
    embed_matrix,
    measure_all_branches,
)

SQ2 = np.sqrt(2.0)

POL = Register("a.pol", ("R", "L"))
SPIN = Register("e1", ("up", "down"))


# -- registers ------------------------------------------------------------


def test_register_validation():
    with pytest.raises(ValueError):
        Register("", ("R", "L"))
    with pytest.raises(ValueError):
        Register("x", ("R", "R"))
    with pytest.raises(ValueError):
        Register("x", ("R",))
    assert POL.index_of("L") == 1
    with pytest.raises(ValueError):
        POL.index_of("H")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        tensor_state([(POL, (1, 0)), (Register("a.pol", ("R", "L")), (1, 0))])
    with pytest.raises(ValueError):
        StateVector((POL, Register("a.pol", ("x", "y"))), np.zeros(4))


# -- tensor_state -----------------------------------------------------------


def test_labels_are_computed_once_per_state(rng):
    state = random_state(three_registers(), rng)
    # stored when the state is validated, not on first read
    assert vars(state)["labels"] == ("q0", "q1", "q2")
    assert state.labels == tuple(r.label for r in state.registers) == ("q0", "q1", "q2")
    assert state.labels is state.labels
    # a replaced state computes its own labels
    moved = dataclasses.replace(state, registers=state.registers[::-1])
    assert moved.labels == ("q2", "q1", "q0")
    assert state.labels == ("q0", "q1", "q2")
    copy = dataclasses.replace(state)
    assert copy.labels == state.labels and copy.labels is not state.labels
    # every other way a state is made carries the labels of its registers
    stacked = state_stack(state.registers, [state.amplitudes, state.amplitudes])
    reordered = reorder_registers(state, ["q1", "q2", "q0"])
    for other in (*stacked, reordered, pickle.loads(pickle.dumps(state)), moved, copy):
        assert "labels" in vars(other)
        assert other.labels == tuple(r.label for r in other.registers)
    assert reordered.labels == ("q1", "q2", "q0")


def test_tensor_state_spin_pair():
    st_ = tensor_state([(POL, (1, 0)), (SPIN, (1j / SQ2, 1 / SQ2))])
    np.testing.assert_allclose(
        st_.amplitudes, [1j / SQ2, 1 / SQ2, 0, 0], atol=1e-15
    )


def test_tensor_state_all_ground():
    regs = three_registers()
    st_ = tensor_state([(r, (1, 0)) for r in regs])
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(st_.amplitudes, expected, atol=1e-15)


def test_tensor_state_matches_kron_oracle():
    # photon input (0.6 R + 0.8 L)(path1 + path2)/sqrt2, checked against an
    # outer product computed with plain numpy
    alpha = np.array([0.6, 0.8])
    gamma = np.array([1 / SQ2, 1 / SQ2])
    spatial = Register("a.spatial", ("a1", "a2"))
    st_ = tensor_state([(POL, alpha), (spatial, gamma)])
    np.testing.assert_allclose(st_.amplitudes, np.kron(alpha, gamma), atol=1e-15)
    np.testing.assert_allclose(
        st_.amplitudes, [0.6 / SQ2, 0.6 / SQ2, 0.8 / SQ2, 0.8 / SQ2], atol=1e-15
    )


def test_tensor_state_rejects_unnormalized_factor():
    with pytest.raises(ValueError):
        tensor_state([(POL, (1.0, 1e-4))])


TWO_REGISTERS = tensor_state([(POL, (1, 0)), (SPIN, (1, 0))])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: tensor_state([]), "tensor_state needs at least one factor"),
        (lambda: tensor_state([(POL, (1, 0, 0))]), "factor for 'a.pol' must have two amplitudes"),
        (
            lambda: reorder_registers(TWO_REGISTERS, ["a.pol"]),
            "('a.pol',) is not a permutation of ('a.pol', 'e1')",
        ),
        (
            lambda: reorder_registers(TWO_REGISTERS, ["a.pol", "a.pol"]),
            "('a.pol', 'a.pol') is not a permutation of ('a.pol', 'e1')",
        ),
    ],
    ids=["no-factor", "three-amplitudes", "missing-label", "repeated-label"],
)
def test_malformed_states_are_rejected(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# -- apply_operator ----------------------------------------------------------


def test_identity_leaves_state(rng):
    st_ = random_state(three_registers(), rng)
    out = apply_operator(st_, ["q1"], np.eye(2))
    np.testing.assert_allclose(out.amplitudes, st_.amplitudes, atol=1e-15)


def test_pauli_x_flips_basis():
    st_ = basis_state([POL], ["R"])
    out = apply_operator(st_, ["a.pol"], np.array([[0, 1], [1, 0]]))
    assert abs(out.amplitude("L") - 1) < 1e-15


def test_diagonal_embedding_matches_full_kron(rng):
    regs = three_registers()
    st_ = random_state(regs, rng)
    mat = np.diag([1.0, -1j])
    for axis in range(3):
        out = apply_operator(st_, [regs[axis].label], mat)
        full = embed_matrix(3, [axis], mat)
        np.testing.assert_allclose(out.amplitudes, full @ st_.amplitudes, atol=1e-12)


def test_two_register_embedding_nonadjacent(rng):
    regs = three_registers()
    st_ = random_state(regs, rng)
    mat = random_unitary(4, rng)
    out = apply_operator(st_, ["q2", "q0"], mat)  # unsorted, non-adjacent targets
    full = embed_matrix(3, [2, 0], mat)
    np.testing.assert_allclose(out.amplitudes, full @ st_.amplitudes, atol=1e-12)


def test_apply_operator_errors(rng):
    st_ = random_state(three_registers(), rng)
    with pytest.raises(ValueError):
        apply_operator(st_, ["nope"], np.eye(2))
    with pytest.raises(ValueError):
        apply_operator(st_, ["q0"], np.eye(4))
    with pytest.raises(ValueError):
        apply_operator(st_, ["q0", "q0"], np.eye(4))
    with pytest.raises(ValueError):  # the first of two targets is unknown
        apply_operator(st_, ["missing", "q1"], scatter_matrix(ReflectionPair.ideal()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unitaries_preserve_norm(seed):
    gen = np.random.default_rng(seed)
    st_ = random_state(three_registers(), gen)
    out = apply_operator(st_, ["q0", "q2"], random_unitary(4, gen))
    assert abs(out.norm2 - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_disjoint_operators_commute(seed):
    gen = np.random.default_rng(seed)
    st_ = random_state(three_registers(), gen)
    u = random_unitary(2, gen)
    v = random_unitary(4, gen)
    one = apply_operator(apply_operator(st_, ["q1"], u), ["q0", "q2"], v)
    two = apply_operator(apply_operator(st_, ["q0", "q2"], v), ["q1"], u)
    np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subspace_application_equals_full_matrix(seed):
    gen = np.random.default_rng(seed)
    regs = three_registers()
    st_ = random_state(regs, gen)
    targets = list(gen.permutation(3)[:2])
    mat = random_unitary(4, gen)
    out = apply_operator(st_, [regs[t].label for t in targets], mat)
    full = embed_matrix(3, targets, mat)
    np.testing.assert_allclose(out.amplitudes, full @ st_.amplitudes, atol=1e-12)


# -- measurement --------------------------------------------------------------


def test_measure_uniform_spin():
    st_ = tensor_state([(SPIN, (1 / SQ2, 1 / SQ2)), (POL, (1, 0))])
    branches = measure_all_branches(st_, "e1")
    assert [b[0] for b in branches] == [0, 1]
    np.testing.assert_allclose([b[1] for b in branches], [0.5, 0.5], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 1.0))
def test_branch_probabilities_sum_to_norm(seed, scale):
    gen = np.random.default_rng(seed)
    st_ = random_state(three_registers(), gen)
    sub = StateVector(st_.registers, st_.amplitudes * scale)  # sub-normalized
    branches = measure_all_branches(sub, "q1")
    assert abs(sum(b[1] for b in branches) - sub.norm2) < 1e-12


def test_nested_enumeration_gives_joint_probabilities(rng):
    st_ = random_state(three_registers(), rng)
    total = 0.0
    for _, p1, s1 in measure_all_branches(st_, "q0"):
        for _, p2, _ in measure_all_branches(s1, "q2"):
            total += p2
        assert p1 >= 0
    assert abs(total - 1.0) < 1e-12


# -- fidelity -------------------------------------------------------------------


def test_fidelity_identities(rng):
    st_ = random_state(three_registers(), rng)
    assert abs(fidelity_up_to_global_phase(st_, st_) - 1) < 1e-12
    phased = StateVector(st_.registers, st_.amplitudes * np.exp(0.7j))
    assert abs(fidelity_up_to_global_phase(st_, phased) - 1) < 1e-12


def test_fidelity_orthogonal_states():
    x = basis_state([POL, SPIN], ["R", "up"])
    y = basis_state([POL, SPIN], ["L", "down"])
    assert fidelity_up_to_global_phase(x, y) == 0.0


def test_fidelity_layout_mismatch():
    x = basis_state([POL, SPIN], ["R", "up"])
    y = basis_state([SPIN, POL], ["up", "R"])
    with pytest.raises(ValueError):
        fidelity_up_to_global_phase(x, y)
    np.testing.assert_allclose(
        reorder_registers(y, ("a.pol", "e1")).amplitudes, x.amplitudes, atol=1e-15
    )


# -- index convention ---------------------------------------------------------


def test_first_register_is_most_significant():
    st_ = basis_state([POL, SPIN], ["L", "up"])
    assert abs(st_.amplitudes[2] - 1) < 1e-15  # flat index 2 = 1*2 + 0
    assert basis_index([POL, SPIN], ["L", "up"]) == 2
    assert basis_names([POL, SPIN], 2) == ("L", "up")
    assert basis_index([SPIN, POL], ["up", "L"]) == 1


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
    data=st.data(),
)
def test_basis_codec_round_trip(bits, data):
    registers = tuple(
        Register(f"r{i}", (f"x{i}", data.draw(st.sampled_from(["y", "up", "L", "b2"]))))
        for i in range(len(bits))
    )
    names = tuple(reg.basis_names[b] for reg, b in zip(registers, bits))
    index = basis_index(registers, names)
    assert index == int("".join(map(str, bits)), 2)
    assert basis_names(registers, index) == names
    assert basis_state(registers, names).amplitudes[index] == 1.0


def test_basis_codec_errors():
    with pytest.raises(ValueError, match="need 2 basis names, got 1"):
        basis_index([POL, SPIN], ["L"])
    with pytest.raises(ValueError, match="register 'e1' has no basis state 'R'"):
        basis_index([POL, SPIN], ["L", "R"])
    with pytest.raises(ValueError, match="out of range"):
        basis_names([POL, SPIN], 4)


def test_terms():
    st_ = tensor_state([(POL, (0.6, 0.8)), (SPIN, (1, 0))])
    assert "|R,up>" in st_.terms() and "|L,up>" in st_.terms()
    # parts at or below 1e-9 print as 0; a term with both parts that small is skipped
    noisy = StateVector((POL, SPIN), [0.6 + 4e-18j, -1e-12 + 0.8j, 1e-10, 0])
    assert noisy.terms() == "(0.6+0j)|R,up> + (0+0.8j)|R,down>"


def test_norm_cap_enforced():
    with pytest.raises(ValueError):
        StateVector((POL,), np.array([1.5, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
@pytest.mark.parametrize("position", range(16))
def test_non_finite_amplitudes_rejected(position, bad):
    amps = np.full(16, 0.25, dtype=complex)
    amps[position] = bad
    with pytest.raises(ValueError, match="not finite"):
        StateVector(three_registers() + (POL,), amps)


# -- stacks of states ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf), 1.5])
@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("position", [0, 5, 15])
def test_stack_rejects_any_bad_row(row, position, bad):
    # the message is StateVector's, whichever row is not a valid state
    regs = three_registers() + (POL,)
    stack = np.full((4, 16), 0.25, dtype=complex)
    stack[row, position] = bad
    with pytest.raises(ValueError, match="is not finite or exceeds 1"):
        state_stack(regs, stack)
    with pytest.raises(ValueError, match="is not finite or exceeds 1"):
        StateVector(regs, stack[row])


def test_stack_checks_labels_and_size_once():
    with pytest.raises(ValueError, match=r"duplicate register labels: \['a.pol', 'a.pol'\]"):
        state_stack((POL, Register("a.pol", ("x", "y"))), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="expected 4 amplitudes for 2 registers, got 3"):
        state_stack((POL, SPIN), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="expected 4 amplitudes for 2 registers, got 3"):
        StateVector((POL, SPIN), np.zeros(3))


def test_stack_states_are_the_constructed_states(rng):
    regs = three_registers()
    rows = rng.normal(size=(5, 2, 4)) + 1j * rng.normal(size=(5, 2, 4))
    rows /= np.linalg.norm(rows.reshape(5, -1), axis=1)[:, None, None]
    states = state_stack(list(regs), rows)
    # a Fortran-ordered stack gives the same states
    fortran = state_stack(regs, np.asfortranarray(rows.reshape(5, 8)))
    assert len(states) == len(fortran) == 5
    for state, other, row in zip(states, fortran, rows):
        assert state.amplitudes.tobytes() == other.amplitudes.tobytes()
        built = StateVector(regs, row)
        assert type(state) is StateVector
        assert state.registers == built.registers and isinstance(state.registers, tuple)
        assert state.labels == built.labels
        assert list(vars(state)) == list(vars(built))
        assert state.amplitudes.shape == built.amplitudes.shape == (8,)
        assert state.amplitudes.tobytes() == built.amplitudes.tobytes()
        assert repr(state) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.amplitudes = row


def test_stack_states_are_read_only_copies(rng):
    regs = (POL, SPIN)
    stack = rng.normal(size=(3, 4)) + 0j
    stack /= np.linalg.norm(stack, axis=1)[:, None]
    want = stack.copy()
    states = state_stack(regs, stack)
    stack[:] = 0.0  # the caller's array changes afterwards
    for state, row in zip(states, want):
        assert np.array_equal(state.amplitudes, row)
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0
        with pytest.raises(ValueError):
            state.amplitudes.setflags(write=True)


# -- the kernels against their first form ------------------------------------


def _kernel_case(data, seed):
    """A random sub-normalized state on 1-6 registers and 1-3 ordered,
    distinct target labels anywhere among them."""
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, min(3, n)))
    targets = data.draw(st.permutations(range(n)))[:k]
    rng = np.random.default_rng(seed)
    regs = tuple(Register(f"q{i}", ("0", "1")) for i in range(n))
    state = random_state(regs, rng)
    state = StateVector(regs, state.amplitudes * rng.uniform(0.1, 1.0))
    return state, [regs[i].label for i in targets], rng


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_operator_is_bitwise_the_tensordot_form(data, seed):
    state, labels, rng = _kernel_case(data, seed)
    dim = 2 ** len(labels)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat /= np.linalg.norm(mat, 2)  # a contraction, so the output is a valid state
    got = apply_operator(state, labels, mat).amplitudes
    assert np.array_equal(got, apply_operator_reference(state, labels, mat))


def test_tensor_product_concatenates(rng):
    x = random_state((POL,), rng)
    y = random_state((SPIN,), rng)
    xy = tensor_product(x, y)
    np.testing.assert_allclose(
        xy.amplitudes, np.kron(x.amplitudes, y.amplitudes), atol=1e-15
    )
