"""Steady-state reflection of a charged-dot microcavity and the
spin-conditioned photon scattering matrix it induces.

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
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

# side leakage above ~1.3 kappa puts the -pi/2 relative phase out of reach;
# documented operating guidance, not a hard constraint
SIDE_LEAKAGE_WARNING = 1.3


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one dot-cavity unit, in units of kappa.

    ``detuning`` is probe minus cavity frequency; the trion is resonant
    with the bare cavity.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = 0.1
    detuning: float = 0.5

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so every check rejects it too
        g, kappa_s, gamma = self.g, self.kappa_s, self.gamma
        if not (0.0 <= g < math.inf and 0.0 <= kappa_s < math.inf and 0.0 <= gamma < math.inf):
            raise ValueError("g, kappa_s and gamma must be non-negative and finite")
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")


def _cavity_term(params: CavityParams, kappa_s: float) -> complex:
    """c = i(w_c - w) + kappa/2 + kappa_s/2, with kappa_s given separately."""
    return 1j * -params.detuning + 0.5 + kappa_s / 2


def _dipole_term(params: CavityParams) -> complex:
    """d = i(w_X - w) + gamma/2, with the trion on the cavity (w_X = w_c)."""
    return 1j * -params.detuning + params.gamma / 2


def _cold(cavity_term: complex) -> complex:
    return complex((cavity_term - 1.0) / cavity_term)


def _hot(g: float, dipole_term: complex, cavity_term: complex) -> complex:
    if g == 0.0:
        # reduce to the bare-cavity branch through the same arithmetic path
        return _cold(cavity_term)
    return complex(1 - dipole_term / (dipole_term * cavity_term + g**2))


def reflect_cold(params: CavityParams) -> complex:
    """Reflection coefficient with the dot decoupled (bare cavity).

    r0 = (i(w_c - w) - kappa/2 + kappa_s/2) / (i(w_c - w) + kappa/2 + kappa_s/2)
    """
    return _cold(_cavity_term(params, params.kappa_s))


def reflect_hot(params: CavityParams) -> complex:
    """Reflection coefficient with the dot coupled, weak-excitation limit.

    r = 1 - kappa * d / (d * c + g**2) with d = i(w_X - w) + gamma/2 and
    c = i(w_c - w) + kappa/2 + kappa_s/2.
    """
    return _hot(params.g, _dipole_term(params), _cavity_term(params, params.kappa_s))


def lattice_reflections(
    params: CavityParams, g_values: list[float], kappa_s_values: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Reflections over a (g, kappa_s) lattice as complex128 arrays, every
    value bitwise what reflect_cold and reflect_hot give at its point.

    ``params`` supplies gamma and the detuning; its own g and kappa_s are
    ignored. Returns r_cold once per kappa_s value (it does not depend on g)
    and r_hot once per point, g-major.

    The per-column terms (c, r_cold, d*c) and the per-row g**2 are Python
    arithmetic. Per point, r_hot = 1 - d / (d*c + g**2) is float64 ufuncs
    that repeat CPython's complex operations one for one: the float g**2
    adds to the real part of d*c, and the division is CPython's _Py_c_quot
    (Smith's method), with its branch, |Re| >= |Im| of the denominator,
    chosen per point. numpy's complex ``/`` and ``abs`` would differ in the
    last bit. A column whose d*c is not finite, far outside any physical
    range, takes the scalar path. The scalar errors are kept: OverflowError
    when some g**2 overflows, ZeroDivisionError when a denominator is 0.
    """
    dipole = _dipole_term(params)
    cavity = [_cavity_term(params, kappa_s) for kappa_s in kappa_s_values]
    r_cold = np.array([_cold(c) for c in cavity], dtype=np.complex128)
    dc = [dipole * c for c in cavity]
    g = np.array(g_values, dtype=np.float64)
    # what complex + float gives the imaginary part: the same on every row
    b_im = np.array([(z + 0.0).imag for z in dc])
    a_re, a_im = dipole.real, dipole.imag
    with np.errstate(all="ignore"):  # CPython's float arithmetic is silent IEEE
        b_re = np.add.outer([gv**2 for gv in g_values], [z.real for z in dc])
        if not b_im.all() and ((b_re == 0.0) & (b_im == 0.0))[g != 0.0].any():
            raise ZeroDivisionError("complex division by zero")
        by_real = np.abs(b_re) >= np.abs(b_im)
        ratio = np.where(by_real, b_im / b_re, b_re / b_im)
        denom = np.where(by_real, b_re + b_im * ratio, b_re * ratio + b_im)
        q_re = np.where(by_real, a_re + a_im * ratio, a_re * ratio + a_im) / denom
        q_im = np.where(by_real, a_im - a_re * ratio, a_im * ratio - a_re) / denom
        r_hot = np.empty(b_re.shape, dtype=np.complex128)
        r_hot.real, r_hot.imag = 1.0 - q_re, 0.0 - q_im
    r_hot[g == 0.0] = r_cold
    for j, z in enumerate(dc):
        if not cmath.isfinite(z):
            r_hot[:, j] = [_hot(gv, dipole, cavity[j]) for gv in g_values]
    return r_cold, r_hot.reshape(-1)


def _require_passive(*moduli: float) -> None:
    """A passive cavity cannot amplify: every |r| <= 1, up to round-off.

    Written so that a NaN modulus fails the comparison and is rejected too.
    """
    if not all(m <= 1.0 + 1e-9 for m in moduli):
        raise ValueError("passive reflection requires |r| <= 1")


@dataclass(frozen=True)
class ReflectionPair:
    """Bare (cold) and coupled (hot) reflection amplitudes of one unit."""

    r_cold: complex
    r_hot: complex

    def __post_init__(self) -> None:
        _require_passive(abs(self.r_cold), abs(self.r_hot))

    @classmethod
    def from_params(cls, params: CavityParams) -> "ReflectionPair":
        if params.kappa_s >= SIDE_LEAKAGE_WARNING:
            warnings.warn(
                f"kappa_s = {params.kappa_s:g} kappa is at or above the "
                f"{SIDE_LEAKAGE_WARNING:g} kappa guidance for reaching the "
                "-pi/2 relative reflection phase",
                UserWarning,
                stacklevel=2,
            )
        return cls(reflect_cold(params), reflect_hot(params))

    @classmethod
    def ideal(cls) -> "ReflectionPair":
        """Lossless limit: cold phase -pi/2, hot phase 0."""
        return cls(-1j, 1.0 + 0j)

    @property
    def phi_cold(self) -> float:
        return float(np.angle(self.r_cold))

    @property
    def phi_hot(self) -> float:
        return float(np.angle(self.r_hot))

    @property
    def delta_phi(self) -> float:
        """Relative phase hot minus cold; ideal() has the +pi/2 that drives the gate."""
        return self.phi_hot - self.phi_cold

    @property
    def faraday_up(self) -> float:
        """Circular-basis rotation angle for spin up; spin down gets the opposite."""
        return (self.phi_cold - self.phi_hot) / 2

    @property
    def faraday_down(self) -> float:
        return -self.faraday_up


def scatter_matrix(reflection: ReflectionPair) -> np.ndarray:
    """Diagonal scattering map on (polarization, spin), order (R,L)x(up,down).

    Coupled (hot) transitions are L with spin up and R with spin down; the
    other two pairs see the bare cavity. With the ideal pair (-i, 1) this is
    the phase table |R,up> -> -i, |L,up> -> +1, |R,down> -> +1, |L,down> -> -i.
    """
    c, h = reflection.r_cold, reflection.r_hot
    return np.diag(np.array([c, h, h, c], dtype=np.complex128))

