"""Steady-state reflection of a charged-dot microcavity and the
spin-conditioned photon scattering map it induces.

All rates are expressed in units of the cavity decay rate kappa, so
kappa = 1 throughout. The reflection response is the weak-excitation
steady state of the input-output dynamics; the time-domain equations
themselves are never integrated here.

Default probe point: the probe sits half a linewidth above the cavity
(detuning = kappa/2) with the trion resonant on the bare cavity. There the
bare-cavity reflection phase is exactly -pi/2, while the coupled-cavity
phase tends to 0 only deep in the strong-coupling regime, so finite
coupling leaves a residual phase error that feeds the fidelity loss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, apply_operator

# side leakage above ~1.3 kappa puts the -pi/2 relative phase out of reach;
# documented operating guidance, not a hard constraint
SIDE_LEAKAGE_WARNING = 1.3


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one dot-cavity unit, in units of kappa.

    ``detuning`` is probe minus cavity frequency; ``exciton_detuning`` is
    trion minus cavity frequency (0 keeps the trion on the bare cavity).
    """

    g: float
    kappa: float = 1.0
    kappa_s: float = 0.0
    gamma: float = 0.1
    detuning: float = 0.5
    exciton_detuning: float = 0.0

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so every check rejects it too
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")
        g, kappa_s, gamma = self.g, self.kappa_s, self.gamma
        if not (0.0 <= g < math.inf and 0.0 <= kappa_s < math.inf and 0.0 <= gamma < math.inf):
            raise ValueError("g, kappa_s and gamma must be non-negative and finite")
        if not (math.isfinite(self.detuning) and math.isfinite(self.exciton_detuning)):
            raise ValueError("detuning and exciton_detuning must be finite")


def _cavity_term(params: CavityParams, kappa_s: float) -> complex:
    """c = i(w_c - w) + kappa/2 + kappa_s/2, with kappa_s given separately."""
    return 1j * (-params.detuning) + params.kappa / 2 + kappa_s / 2


def _dipole_term(params: CavityParams) -> complex:
    """d = i(w_X - w) + gamma/2."""
    return 1j * (params.exciton_detuning - params.detuning) + params.gamma / 2


def _cold(cavity_term: complex, kappa: float) -> complex:
    return complex((cavity_term - kappa) / cavity_term)


def _hot(g: float, dipole_term: complex, cavity_term: complex, kappa: float) -> complex:
    if g == 0.0:
        # reduce to the bare-cavity branch through the same arithmetic path
        return _cold(cavity_term, kappa)
    return complex(1 - kappa * dipole_term / (dipole_term * cavity_term + g**2))


def reflect_cold(params: CavityParams) -> complex:
    """Reflection coefficient with the dot decoupled (bare cavity).

    r0 = (i(w_c - w) - kappa/2 + kappa_s/2) / (i(w_c - w) + kappa/2 + kappa_s/2)
    """
    return _cold(_cavity_term(params, params.kappa_s), params.kappa)


def reflect_hot(params: CavityParams) -> complex:
    """Reflection coefficient with the dot coupled, weak-excitation limit.

    r = 1 - kappa * d / (d * c + g**2) with d = i(w_X - w) + gamma/2 and
    c = i(w_c - w) + kappa/2 + kappa_s/2.
    """
    return _hot(
        params.g, _dipole_term(params), _cavity_term(params, params.kappa_s), params.kappa
    )


def lattice_reflections(
    params: CavityParams, g_values: list[float], kappa_s_values: list[float]
) -> tuple[list[complex], list[complex]]:
    """Reflections over a (g, kappa_s) lattice, from the scalar arithmetic of
    reflect_cold and reflect_hot, so every value equals theirs exactly.

    ``params`` supplies kappa, gamma and both detunings; its own g and
    kappa_s are ignored. Returns r_cold once per kappa_s value (it does not
    depend on g) and r_hot once per point, g-major.
    """
    kappa = params.kappa
    dipole = _dipole_term(params)
    cavity = [_cavity_term(params, kappa_s) for kappa_s in kappa_s_values]
    r_cold = [_cold(c, kappa) for c in cavity]
    r_hot = [_hot(g, dipole, c, kappa) for g in g_values for c in cavity]
    return r_cold, r_hot


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
        if params.kappa_s >= SIDE_LEAKAGE_WARNING * params.kappa:
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
        """Relative phase hot minus cold; -pi/2 drives the ideal gate."""
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


def qd_scatter(
    state: StateVector,
    photon_pol_label: str,
    spin_label: str,
    reflection: ReflectionPair | None = None,
) -> StateVector:
    """Reflect one photon's polarization off one dot-cavity unit.

    ``reflection=None`` selects the ideal lossless map. The map acts
    unconditionally on its two targets; restricting it to one spatial path
    is the circuit's job, not this function's.
    """
    refl = reflection if reflection is not None else ReflectionPair.ideal()
    return apply_operator(state, [photon_pol_label, spin_label], scatter_matrix(refl))
