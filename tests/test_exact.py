"""Exact checks on the compiled gate: its Kraus coefficients as integers.

The gate's Kraus coefficients are dyadic: 8 times over, each is a Gaussian
integer up to the round-off of the 1/sqrt2 factors the compile multiplies
in. Rounded to those integers, an identity that is linear in the
coefficients holds with Python ints and no tolerance. The sampled
floating-point tests in test_protocols.py stay beside these.
"""

import numpy as np

from hypercnot import protocols
from oracles import cnot_cnot_permutation

# the most rounding may move an entry of 8 x the Kraus coefficients; the
# compile's round-off is about 3e-15
ROUNDING_ATOL = 1e-12


def gaussian_integers(coefficients: np.ndarray) -> np.ndarray:
    """8 x the coefficients as an object array of Python (real, imaginary)
    int pairs, after checking that rounding moves no entry by more than
    ROUNDING_ATOL."""
    scaled = 8 * coefficients
    rounded = np.round(scaled)
    assert np.max(np.abs(scaled - rounded)) <= ROUNDING_ATOL
    pairs = np.empty(rounded.shape, dtype=object)
    for index, z in np.ndenumerate(rounded):
        pairs[index] = (int(z.real), int(z.imag))
    return pairs


def test_kraus_coefficients_are_gaussian_integers_over_eight():
    kraus = protocols._compile_stages()[1]
    assert kraus.shape == (5, 1024)
    assert gaussian_integers(kraus).shape == kraus.shape


def test_down_down_coefficients_are_exactly_the_double_cnot():
    # finding (c), K_11 = (r_hot**2 - r_cold**2)**2 / 8 * U with U = CNOT x
    # CNOT: 8 x its coefficient on r_cold**k r_hot**(4 - k) is the k-th
    # coefficient of (1 - x**2)**2 times U, in integers
    permutation = [[int(entry) for entry in row] for row in cnot_cnot_permutation()]
    down_down = gaussian_integers(protocols._compile_stages()[1].reshape(5, 2, 2, 16, 16)[:, 1, 1])
    for k, c in enumerate((1, 0, -2, 0, 1)):
        want = [[(c * entry, 0) for entry in row] for row in permutation]
        assert down_down[k].tolist() == want, k
