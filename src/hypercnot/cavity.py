"""Steady-state reflection of a charged-dot microcavity: the bare (cold) and
coupled (hot) reflection amplitudes of one dot-cavity unit.

All rates are expressed in units of the cavity decay rate kappa: kappa is
the unit, not a parameter, so it is 1 throughout and appears in no
signature or field. The reflection response is the weak-excitation
steady state of the input-output dynamics; the time-domain equations
themselves are never integrated here.

Default probe point: the probe sits half a linewidth above the cavity
(detuning = kappa/2) with the trion resonant on the bare cavity. There the
bare-cavity reflection phase is exactly -pi/2, while the coupled-cavity
phase tends to 0 only deep in the strong-coupling regime, so finite
coupling leaves a residual phase error that feeds the fidelity loss.

Over a (g, kappa_s) lattice the reflections come from one kernel,
_reflection_planes, bitwise reflect_cold and reflect_hot at every point.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

# side leakage above ~1.3 kappa puts the -pi/2 relative phase out of reach;
# documented operating guidance, not a hard constraint
SIDE_LEAKAGE_WARNING = 1.3
# the largest accepted |value| of every rate and of the detuning
MAX_RATE = 1e150
# the end of every side-leakage warning, single point or lattice
_SIDE_LEAKAGE_CLAUSE = (
    f"at or above the {SIDE_LEAKAGE_WARNING:g} kappa guidance for reaching the "
    "-pi/2 relative reflection phase"
)


def _is_real(value) -> bool:
    """The rule for a rate, the detuning or a sweep range end: a numbers.Real,
    so no complex number, Decimal, array of any kind or np.bool_, and no
    Python bool, which is an Integral but compares as 0 or 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _as_float(value: Real) -> float:
    """A real number as the nearest float; an integer or Fraction beyond the
    float range as inf, which every range check rejects, whatever its sign."""
    try:
        return float(value)
    except OverflowError:
        return float("inf")


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one dot-cavity unit, in units of kappa.

    ``detuning`` is probe minus cavity frequency; the trion is resonant
    with the bare cavity.

    Accepted: g, kappa_s and gamma in [0, MAX_RATE], detuning in
    [-MAX_RATE, MAX_RATE], and gamma and |detuning| both 0 or the larger at
    least the smallest normal float. There both reflections are finite
    floats: no product in the formulas overflows, and d*c + g**2 is 0 only
    where d = 0, since Im(d*c) = -detuning * (1 + kappa_s + gamma) / 2
    cannot cancel and where detuning**2 underflows Re(d*c) >= gamma/4.
    Each field is a real number, held as the float it equals (_is_real,
    _as_float); a bool, a complex number, a Decimal or an array of any kind
    raises TypeError.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = 0.1
    detuning: float = 0.5

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so every check rejects it too
        g, kappa_s, gamma, detuning = self.g, self.kappa_s, self.gamma, self.detuning
        if not type(g) is type(kappa_s) is type(gamma) is type(detuning) is float:
            if not all(map(_is_real, (g, kappa_s, gamma, detuning))):
                raise TypeError("g, kappa_s, gamma and detuning must be real numbers, not bools")
            g, kappa_s, gamma, detuning = map(_as_float, (g, kappa_s, gamma, detuning))
            # into the fields themselves, past the frozen __setattr__
            self.__dict__.update(g=g, kappa_s=kappa_s, gamma=gamma, detuning=detuning)
        if not (0.0 <= g <= MAX_RATE and 0.0 <= kappa_s <= MAX_RATE and 0.0 <= gamma <= MAX_RATE):
            raise ValueError(
                f"g, kappa_s and gamma must be non-negative and finite, at most {MAX_RATE:g}"
            )
        if not abs(detuning) <= MAX_RATE:
            raise ValueError(f"detuning must be finite, with |detuning| at most {MAX_RATE:g}")
        tiny = sys.float_info.min
        if gamma < tiny and abs(detuning) < tiny and (gamma or detuning):
            raise ValueError(
                "gamma and detuning must both be 0, or the larger of gamma and |detuning| "
                f"at least the smallest normal float, {tiny:g}"
            )


def _cavity_term(params: CavityParams) -> complex:
    """c = i(w_c - w) + kappa/2 + kappa_s/2."""
    return 1j * -params.detuning + 0.5 + params.kappa_s / 2


def _dipole_term(params: CavityParams) -> complex:
    """d = i(w_X - w) + gamma/2, with the trion on the cavity (w_X = w_c)."""
    return 1j * -params.detuning + params.gamma / 2


def _cold(cavity_term: complex) -> complex:
    return complex((cavity_term - 1.0) / cavity_term)


def reflect_cold(params: CavityParams) -> complex:
    """Reflection coefficient with the dot decoupled (bare cavity).

    r0 = (i(w_c - w) - kappa/2 + kappa_s/2) / (i(w_c - w) + kappa/2 + kappa_s/2)
    """
    return _cold(_cavity_term(params))


def reflect_hot(params: CavityParams) -> complex:
    """Reflection coefficient with the dot coupled, weak-excitation limit.

    r = 1 - kappa * d / (d * c + g**2) with d = i(w_X - w) + gamma/2 and
    c = i(w_c - w) + kappa/2 + kappa_s/2.
    """
    g, d, c = params.g, _dipole_term(params), _cavity_term(params)
    if g == 0.0:
        # reduce to the bare-cavity branch through the same arithmetic path
        return _cold(c)
    if d == 0:
        # gamma = 0 on resonance: r_hot = 1 for every g > 0, also where g**2
        # underflows and d*c + g**2 is 0; elsewhere the division gives these bits too
        return 1 + 0j
    return complex(1 - d / (d * c + g**2))


def _reflection_planes(
    params: CavityParams, g_values: list[float], kappa_s_values: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cold_re, cold_im, hot_re, hot_im): the real and imaginary parts of
    r_cold once per kappa_s value, shape (K,), and of r_hot once per point,
    shape (G, K), as float64 arrays, every value bitwise what reflect_cold
    and reflect_hot give. The axes are not checked here.

    The per-column terms (c, r_cold, d*c) and the per-row g**2 are Python
    arithmetic. Per point, r_hot = 1 - d / b with b = d*c + g**2 is float64
    ufuncs that repeat CPython's complex operations one for one: the float
    g**2 adds to the real part of d*c only, and d / b is CPython's
    _Py_c_quot (Smith's method). Its operands are chosen once per point by
    np.where on |Re b| >= |Im b|: the divisor p and the other part o of b,
    then the numerator pair (n1, n2), (Re d, Im d) or swapped. One form then
    serves both branches: with ratio = o / p and denom = p + o * ratio,
    Re(d / b) = (n1 + n2 * ratio) / denom and t = (n2 - n1 * ratio) / denom.
    On the swapped branch CPython's Im(d / b) is (n1 * ratio - n2) / denom,
    which is -t up to the sign of a zero. So Im r_hot = 0.0 - Im(d / b) is
    ``0.0 - t`` on the |Re| branch and ``0.0 + t`` on the other, bit for bit
    with signed zeros: 0.0 + t and 0.0 - (-t) agree, and 0.0 plus or minus
    any zero is +0.0. numpy's complex ``/`` and ``abs`` would differ in the
    last bit. At d = 0 (gamma = 0 on resonance) r_hot is 1 at every g > 0,
    as in reflect_hot. Inside CavityParams' domain b is 0 only there, and
    nothing overflows.
    """
    dipole = _dipole_term(params)
    # _cavity_term's sum, left to right, with its first two terms added once
    base = 1j * -params.detuning + 0.5
    cavity = [base + kappa_s / 2 for kappa_s in kappa_s_values]
    cold = np.array([_cold(c) for c in cavity], dtype=np.complex128)
    dc = [dipole * c for c in cavity]
    # what complex + float gives the imaginary part: the same on every row
    b_im = np.array([(z + 0.0).imag for z in dc])
    a_re, a_im = dipole.real, dipole.imag
    with np.errstate(all="ignore"):  # CPython's float arithmetic is silent IEEE
        b_re = np.add.outer([g**2 for g in g_values], [z.real for z in dc])
        by_real = np.abs(b_re) >= np.abs(b_im)
        p = np.where(by_real, b_re, b_im)
        o = np.where(by_real, b_im, b_re)
        n1 = np.where(by_real, a_re, a_im)
        n2 = np.where(by_real, a_im, a_re)
        ratio = o / p
        denom = p + o * ratio
        hot_re = 1.0 - (n1 + n2 * ratio) / denom
        t = (n2 - n1 * ratio) / denom
        hot_im = 0.0 + t
        np.subtract(0.0, t, out=hot_im, where=by_real)
    if dipole == 0:  # as in reflect_hot, also where b is 0
        hot_re.fill(1.0)
        hot_im.fill(0.0)
    cold_re, cold_im = cold.real, cold.imag
    if 0.0 in g_values:
        bare = np.array(g_values) == 0.0
        hot_re[bare] = cold_re
        hot_im[bare] = cold_im
    return cold_re, cold_im, hot_re, hot_im


@dataclass(frozen=True)
class ReflectionPair:
    """Bare (cold) and coupled (hot) reflection amplitudes of one unit."""

    r_cold: complex
    r_hot: complex

    def __post_init__(self) -> None:
        # a passive cavity cannot amplify: |r| <= 1, up to round-off; written
        # so that a NaN modulus fails the comparison and is rejected too
        if not (abs(self.r_cold) <= 1.0 + 1e-9 and abs(self.r_hot) <= 1.0 + 1e-9):
            raise ValueError("passive reflection requires |r| <= 1")

    @classmethod
    def from_params(cls, params: CavityParams) -> "ReflectionPair":
        if params.kappa_s >= SIDE_LEAKAGE_WARNING:
            warnings.warn(
                f"kappa_s = {params.kappa_s:g} kappa is {_SIDE_LEAKAGE_CLAUSE}",
                UserWarning,
                stacklevel=2,
            )
        return cls(reflect_cold(params), reflect_hot(params))

    @classmethod
    def ideal(cls) -> "ReflectionPair":
        """Lossless limit: cold phase -pi/2, hot phase 0, so the relative phase
        arg r_hot - arg r_cold is the +pi/2 that drives the gate."""
        return cls(-1j, 1.0 + 0j)
