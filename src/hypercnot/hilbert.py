"""Labeled qubit registers and dense complex state vectors.

Index convention: the first register of a system is the most significant
digit, so for registers (r0, r1, ..., rk) the amplitude of the basis state
|n0, n1, ..., nk> lives at flat index n0*2**k + ... + nk. Tests pin this
convention. It is written once, in the codec basis_index (per-register
basis names -> flat index) and basis_names (flat index -> names); every
lookup of a basis state by name, here and in the other modules, goes
through those two functions.

States are immutable values; every operation returns a new vector, so they
can be shared freely across threads or worker processes. A state may be
sub-normalized after lossy scattering; nothing here renormalizes it, which
lets survival probabilities be read directly off the squared norm. A state
whose squared norm is not a finite number at most NORM_CAP is rejected when
it is built, so NaN and infinite amplitudes never enter a computation
(_checked_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# factor amplitudes handed to tensor_state must be normalized this well
NORM_ATOL = 1e-9

# slack on the squared norm of any stored state (passive optics never gain)
NORM_CAP = 1.0 + 1e-6

# StateVector.terms prints an amplitude's real or imaginary part only above this
TERMS_EPS = 1e-9


@dataclass(frozen=True)
class Register:
    """A named two-level subsystem with named basis states.

    Examples: ``Register("a.pol", ("R", "L"))`` for a photon polarization,
    ``Register("e1", ("up", "down"))`` for an electron spin.
    """

    label: str
    basis_names: tuple[str, str]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("register label must be non-empty")
        names = tuple(self.basis_names)
        if len(names) != 2 or len(set(names)) != 2:
            raise ValueError(
                f"register {self.label!r} needs exactly two distinct basis names, got {names!r}"
            )
        object.__setattr__(self, "basis_names", names)

    def index_of(self, name: str) -> int:
        """Basis index of a named basis state."""
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise ValueError(
                f"register {self.label!r} has no basis state {name!r}; "
                f"known: {self.basis_names}"
            ) from None


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the tensor product of labeled registers;
    ``labels``, no field, is stored with them when the state is validated."""

    registers: tuple[Register, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        regs, labels = _checked_registers(self.registers)
        stack = _checked_rows(self.amplitudes, 1, len(regs))
        object.__setattr__(self, "registers", regs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", stack[0])

    # -- introspection -------------------------------------------------

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    @property
    def norm2(self) -> float:
        """Squared norm; 1 for normalized states, less after lossy steps."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def register_index(self, label: str) -> int:
        for i, reg in enumerate(self.registers):
            if reg.label == label:
                return i
        raise ValueError(f"unknown register label {label!r}; known: {self.labels}")

    def amplitude(self, *names: str) -> complex:
        """Amplitude of one basis state, addressed by per-register names."""
        return complex(self.amplitudes[basis_index(self.registers, names)])

    def terms(self) -> str:
        """Human-readable ket expansion.

        A real or imaginary part at or below TERMS_EPS prints as 0, so the
        round-off of an exactly real amplitude does not show, and a term
        with both parts that small is skipped.
        """
        parts = []
        for flat, amp in enumerate(self.amplitudes):
            amp = complex(*(0.0 if abs(x) <= TERMS_EPS else x for x in (amp.real, amp.imag)))
            if amp:
                ket = ",".join(basis_names(self.registers, flat))
                parts.append(f"({amp:.6g})|{ket}>")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:  # the 64-entry array is noise in tracebacks
        return f"StateVector(registers={self.labels}, norm2={self.norm2:.6g})"


# -- validation, one state or a stack of them --------------------------------


def _checked_registers(
    registers: Sequence[Register],
) -> tuple[tuple[Register, ...], tuple[str, ...]]:
    """The registers and their labels as tuples; the labels must be distinct."""
    regs = tuple(registers)
    labels = tuple(r.label for r in regs)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate register labels: {list(labels)}")
    return regs, labels


def _checked_rows(amplitudes, rows: int, n: int) -> np.ndarray:
    """A read-only complex128 copy of amplitudes as a (rows, 2**n) stack,
    each row a valid state over n registers.

    The one row validator: every StateVector's amplitudes are checked here,
    __post_init__'s as one row, state_stack's and _states' as one stack, with
    the size checked once and every row's squared norm in one reduction, so
    a gate call validates its branch states once, not once per branch.
    """
    # a C-ordered copy that owns its data, so its rows, views of it, stay
    # read-only and each row's real and imaginary parts are adjacent floats
    stack = np.array(np.asarray(amplitudes).reshape(rows, -1), dtype=np.complex128, order="C")
    if stack.shape[1] != 2**n:
        raise ValueError(f"expected {2**n} amplitudes for {n} registers, got {stack.shape[1]}")
    # each row's sum of squared real and imaginary parts; einsum, unlike the
    # ufuncs, leaves the floating-point flags unread, so NaN, infinite and
    # overflowing amplitudes are rejected below without a RuntimeWarning
    parts = stack.view(np.float64)
    for norm2 in np.einsum("ij,ij->i", parts, parts).tolist():
        if not norm2 <= NORM_CAP:  # also rejects NaN and infinite amplitudes
            raise ValueError(f"squared norm {norm2} is not finite or exceeds 1 (passive states)")
    stack.setflags(write=False)
    return stack


def state_stack(registers: Sequence[Register], amplitudes) -> list[StateVector]:
    """One StateVector per entry of a stack of amplitudes, all over the same
    registers, validated as one stack.

    Entry i is flattened as StateVector flattens its amplitudes, and the
    state holds row i of one read-only copy of the stack: the state
    StateVector(registers, amplitudes[i]) builds, without one validation
    per state.
    """
    return _states(*_checked_registers(registers), amplitudes)


def _states(
    registers: tuple[Register, ...], labels: tuple[str, ...], amplitudes
) -> list[StateVector]:
    """state_stack over registers and labels already checked, a StateVector's
    own, as a gate call's branch states are over its input's.

    The registers were checked when that state was built and cannot change,
    so only the amplitudes are validated, by the one row validator, and
    every new state still passes the size, norm and finiteness checks. Each
    state is a bare instance whose fields are stored straight into its
    __dict__: the state the generated frozen __init__ and __post_init__
    leave, without the object.__setattr__ calls that make a frozen __init__
    several times slower.
    """
    stack = _checked_rows(amplitudes, len(amplitudes), len(registers))
    new = object.__new__
    states = []
    for row in stack:
        state = new(StateVector)
        fields = state.__dict__
        fields["registers"] = registers
        fields["amplitudes"] = row
        fields["labels"] = labels
        states.append(state)
    return states


# -- the basis-state codec ------------------------------------------------


def basis_index(registers: Sequence[Register], names: Sequence[str]) -> int:
    """Flat amplitude index of the basis state named per register, the
    first register most significant."""
    if len(names) != len(registers):
        raise ValueError(f"need {len(registers)} basis names, got {len(names)}")
    flat = 0
    for reg, name in zip(registers, names):
        flat = 2 * flat + reg.index_of(name)
    return flat


def basis_names(registers: Sequence[Register], index: int) -> tuple[str, ...]:
    """Per-register basis names of a flat amplitude index; inverts basis_index."""
    if not 0 <= index < 2 ** len(registers):
        raise ValueError(f"basis index {index} out of range for {len(registers)} registers")
    last = len(registers) - 1
    return tuple(reg.basis_names[(index >> (last - i)) & 1] for i, reg in enumerate(registers))


# -- construction ------------------------------------------------------


def tensor_state(parts: Sequence[tuple[Register, Sequence[complex]]]) -> StateVector:
    """Product state from (register, normalized amplitude pair) factors."""
    if not parts:
        raise ValueError("tensor_state needs at least one factor")
    registers = []
    amps = np.array([1.0], dtype=np.complex128)
    for reg, pair in parts:
        vec = np.asarray(pair, dtype=np.complex128).reshape(-1)
        if vec.size != 2:
            raise ValueError(f"factor for {reg.label!r} must have two amplitudes")
        if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > NORM_ATOL:
            raise ValueError(f"factor for {reg.label!r} is not normalized")
        registers.append(reg)
        amps = np.kron(amps, vec)
    return StateVector(tuple(registers), amps)


def tensor_product(x: StateVector, y: StateVector) -> StateVector:
    """Tensor product of two systems; register order is x's then y's."""
    return StateVector(x.registers + y.registers, np.kron(x.amplitudes, y.amplitudes))


def basis_state(registers: Sequence[Register], names: Sequence[str]) -> StateVector:
    """Computational basis state addressed by per-register basis names."""
    amps = np.zeros(2 ** len(registers), dtype=np.complex128)
    amps[basis_index(registers, names)] = 1.0
    return StateVector(tuple(registers), amps)


# -- operators ---------------------------------------------------------


def apply_operator(
    state: StateVector, target_labels: Sequence[str], matrix: np.ndarray
) -> StateVector:
    """Apply a (not necessarily unitary) matrix on the targeted subspace.

    The matrix dimension must be 2**len(target_labels); identity is implied
    on every other register. Matrix row/column index ordering follows the
    target label order, most significant first.

    It works on reshaped views, not on per-register axes: it transposes the
    target registers to the front, in target order, applies the matrix to
    the (2**k, rest) block with one matmul and transposes back.
    """
    labels = list(target_labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate target labels: {labels}")
    axes = [state.register_index(label) for label in labels]
    k = len(axes)
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {mat.shape} does not match {k} target register(s)")
    n = state.num_registers
    order = axes + [axis for axis in range(n) if axis not in axes]
    psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(2**k, -1)
    out = (mat @ psi).reshape((2,) * n).transpose(np.argsort(order))
    return StateVector(state.registers, out.reshape(-1))


def reorder_registers(state: StateVector, new_labels: Sequence[str]) -> StateVector:
    """Same state with registers listed (and indexed) in a new order."""
    if sorted(new_labels) != sorted(state.labels):
        raise ValueError(f"{tuple(new_labels)} is not a permutation of {state.labels}")
    perm = [state.register_index(label) for label in new_labels]
    psi = state.amplitudes.reshape((2,) * state.num_registers)
    regs = tuple(state.registers[i] for i in perm)
    return StateVector(regs, np.transpose(psi, perm).reshape(-1))


# -- comparison --------------------------------------------------------


def fidelity_up_to_global_phase(x: StateVector, y: StateVector) -> float:
    """|<x|y>|**2 for two normalized states over the same register layout."""
    if x.registers != y.registers:
        raise ValueError(
            f"register layouts differ: {x.labels} vs {y.labels} "
            "(reorder_registers can align them)"
        )
    return float(abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2)
