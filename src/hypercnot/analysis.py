"""Closed-form gate performance, simulation cross-checks, and parameter sweeps.

The closed forms use only the reflection magnitudes u = |r_cold| and
v = |r_hot| at the standard probe point:

    efficiency  eta = ((u**2 + v**2) / 2) ** 4
    fidelity      F = ((u + v)**2 / (2 * (u**2 + v**2))) ** 6

Four cavity passes set the efficiency exponent; the fidelity additionally
folds in the two auxiliary-photon spin readouts, hence the sixth power of
the per-pass overlap. Both reduce to 1 when u = v = 1, and F alone reaches
1 whenever u = v because balanced loss renormalizes away.

The simulated figures run the full circuit with the complex reflection
amplitudes, through the batched gate engine (protocols.branch_outputs). One
engine call covers every point of a sweep, and the ideal pair rides in the
same batch, so the ideal reference is computed once per call rather than
once per point. Simulated efficiency matches the closed form exactly (norms
ignore phases). Simulated fidelity differs from the closed form in general:
the closed form assumes ideal reflection phases and charges for the two
readout reflections, while the circuit-level number keeps the true phases
and measures the spins directly. Both are reported side by side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cavity import (
    SIDE_LEAKAGE_WARNING,
    CavityParams,
    ReflectionPair,
    reflect_cold,
    reflect_hot,
)
from .hilbert import StateVector
from .protocols import branch_outputs, photon_columns, uniform_two_photon_state


@dataclass(frozen=True)
class PerformancePoint:
    """Gate figures of merit at one (coupling, side leakage) lattice point."""

    g_over_kappa: float
    kappa_s_over_kappa: float
    gamma_over_kappa: float
    F_formula: float
    eta_formula: float
    F_sim: float | None = None
    eta_sim: float | None = None


@dataclass(frozen=True)
class SweepResult:
    gamma_over_kappa: float
    grid: list[PerformancePoint]
    provenance: dict[str, str] = field(default_factory=dict)


def formula_performance(params: CavityParams) -> tuple[float, float]:
    """Closed-form (fidelity, efficiency) from the reflection magnitudes."""
    u = abs(reflect_cold(params))
    v = abs(reflect_hot(params))
    per_pass = (u + v) ** 2 / (2 * (u**2 + v**2))
    return per_pass**6, ((u**2 + v**2) / 2) ** 4


def _simulated_figures(
    pairs: list[ReflectionPair], photons: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Circuit-level fidelity and efficiency arrays, one entry per pair.

    ``photons`` is one input in engine columns. The ideal pair goes first in
    the same engine call; its (up, up) branch is the reference, since every
    ideal branch carries the same corrected output. With out_o the corrected
    branch outputs, eta = sum_o |out_o|**2 and F = sum_o |<ideal|out_o>|**2 / eta
    (the ideal output normalized), which is the branch-probability-weighted
    fidelity of the normalized branches. Where eta = 0, F is nan.
    """
    ideal = ReflectionPair.ideal()
    r_cold = np.array([ideal.r_cold] + [pair.r_cold for pair in pairs])
    r_hot = np.array([ideal.r_hot] + [pair.r_hot for pair in pairs])
    out = branch_outputs(r_cold, r_hot, photons)
    reference, physical = out[0, 0, 0], out[1:]
    eta = np.sum(np.abs(physical) ** 2, axis=(1, 2, 3, 4))
    overlap2 = np.abs(np.tensordot(physical, reference.conj(), axes=([3, 4], [0, 1]))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        fidelity = overlap2.sum(axis=(1, 2)) / (np.sum(np.abs(reference) ** 2) * eta)
    return np.where(eta > 0.0, fidelity, math.nan), eta


def simulated_performance(
    params: CavityParams, input_state: StateVector | None = None
) -> tuple[float, float]:
    """Circuit-level (fidelity, efficiency) for one parameter point.

    Runs the gate with the complex reflection amplitudes and in ideal mode
    on the same input (uniform superposition by default), with the photon
    registers in any order. Fidelity is the branch-probability-weighted
    overlap of the corrected outputs with the ideal output; efficiency is
    the survival probability. At zero survival the fidelity is undefined
    and ``(nan, 0.0)`` is returned.
    """
    joint = input_state if input_state is not None else uniform_two_photon_state()
    fidelity, eta = _simulated_figures(
        [ReflectionPair.from_params(params)], photon_columns(joint)
    )
    return float(fidelity[0]), float(eta[0])


def _performance_point(
    params: CavityParams, f_sim: float | None = None, eta_sim: float | None = None
) -> PerformancePoint:
    f_formula, eta_formula = formula_performance(params)
    return PerformancePoint(
        g_over_kappa=params.g,
        kappa_s_over_kappa=params.kappa_s,
        gamma_over_kappa=params.gamma,
        F_formula=f_formula,
        eta_formula=eta_formula,
        F_sim=f_sim,
        eta_sim=eta_sim,
    )


def performance_point(
    g: float,
    kappa_s: float,
    gamma: float = 0.1,
    include_simulation: bool = False,
) -> PerformancePoint:
    params = CavityParams(g=g, kappa_s=kappa_s, gamma=gamma)
    if include_simulation:
        return _performance_point(params, *simulated_performance(params))
    return _performance_point(params)


def sweep(
    g_range: tuple[float, float] = (0.0, 3.0),
    kappa_s_range: tuple[float, float] = (0.0, 2.0),
    resolution: int = 101,
    gamma: float = 0.1,
    include_simulation: bool = False,
) -> SweepResult:
    """Rectangular (g, kappa_s) lattice of performance figures, g-major order.

    A degenerate range (equal endpoints) with resolution 1 yields a single
    point, which is how one reproduces an individual benchmark value.
    Non-finite range ends or ``gamma`` raise ValueError.

    ``include_simulation`` adds the circuit-level figures from one engine
    call over the whole lattice. ``provenance["side_leakage_points"]``
    counts the points at or above the side-leakage guidance; a simulated
    sweep emits one UserWarning naming that count, not one per point.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    for name, (lo, hi) in (("g", g_range), ("kappa_s", kappa_s_range)):
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf, got {(lo, hi)}")
    g_values = np.linspace(g_range[0], g_range[1], resolution)
    ks_values = np.linspace(kappa_s_range[0], kappa_s_range[1], resolution)
    points = (
        CavityParams(g=float(g), kappa_s=float(ks), gamma=gamma)
        for g in g_values
        for ks in ks_values
    )
    defaults = CavityParams(g=0.0)
    leaky_columns = np.count_nonzero(ks_values >= SIDE_LEAKAGE_WARNING * defaults.kappa)
    leaky = resolution * int(leaky_columns)
    if include_simulation:
        points = list(points)
        if leaky:
            warnings.warn(
                f"{leaky} of {len(points)} lattice points have kappa_s at or above the "
                f"{SIDE_LEAKAGE_WARNING:g} kappa guidance for reaching the -pi/2 "
                "relative reflection phase",
                UserWarning,
                stacklevel=2,
            )
        # built directly: from_params would warn once per point
        pairs = [ReflectionPair(reflect_cold(p), reflect_hot(p)) for p in points]
        f_sim, eta_sim = _simulated_figures(pairs, photon_columns(uniform_two_photon_state()))
        grid = [
            _performance_point(p, f, eta)
            for p, f, eta in zip(points, f_sim.tolist(), eta_sim.tolist())
        ]
    else:
        grid = [_performance_point(p) for p in points]
    provenance = {
        "package": f"hypercnot {__version__}",
        "detuning": repr(defaults.detuning),
        "exciton_detuning": repr(defaults.exciton_detuning),
        "gamma_over_kappa": repr(gamma),
        "side_leakage_points": str(leaky),
    }
    return SweepResult(gamma_over_kappa=gamma, grid=grid, provenance=provenance)


# Published benchmark operating points, all at gamma = 0.1 kappa. Couplings
# were quoted as 0.5, 2.4, 2.4 and 1.3 times (kappa + kappa_s).
@dataclass(frozen=True)
class ReferencePoint:
    g_over_kappa: float
    kappa_s_over_kappa: float
    fidelity: float
    efficiency: float


REFERENCE_POINTS: tuple[ReferencePoint, ...] = (
    ReferencePoint(0.5 * 1.0, 0.0, 0.943, 0.489),
    ReferencePoint(2.4 * 1.0, 0.0, 1.000, 0.963),
    ReferencePoint(2.4 * 1.2, 0.2, 0.947, 0.473),
    ReferencePoint(1.3 * 1.2, 0.2, 0.96, 0.423),
)

REFERENCE_TOLERANCE = 0.005


@dataclass(frozen=True)
class ReferenceCheckRow:
    point: ReferencePoint
    fidelity_computed: float
    efficiency_computed: float

    @property
    def fidelity_delta(self) -> float:
        return abs(self.fidelity_computed - self.point.fidelity)

    @property
    def efficiency_delta(self) -> float:
        return abs(self.efficiency_computed - self.point.efficiency)

    def within(self, tolerance: float = REFERENCE_TOLERANCE) -> bool:
        return self.fidelity_delta <= tolerance and self.efficiency_delta <= tolerance


def reference_check(gamma: float = 0.1) -> list[ReferenceCheckRow]:
    """Evaluate the closed forms at every published benchmark point."""
    rows = []
    for point in REFERENCE_POINTS:
        f, eta = formula_performance(
            CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=gamma)
        )
        rows.append(ReferenceCheckRow(point, f, eta))
    return rows
