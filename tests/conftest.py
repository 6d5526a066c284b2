import warnings

import numpy as np
import pytest

from hypercnot import Register, StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(20130952)


def random_state(registers: tuple[Register, ...], rng: np.random.Generator) -> StateVector:
    n = 2 ** len(registers)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(registers, v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_scalar(value: float) -> np.matrix:
    """A 1x1 np.matrix, built without numpy's PendingDeprecationWarning for
    the matrix subclass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(value)


def three_registers() -> tuple[Register, ...]:
    return (
        Register("q0", ("0", "1")),
        Register("q1", ("0", "1")),
        Register("q2", ("0", "1")),
    )
