"""Closed-form gate performance, simulation cross-checks, and parameter sweeps.

The closed forms use only the reflection magnitudes u = |r_cold| and
v = |r_hot| at the standard probe point:

    efficiency  eta = ((u**2 + v**2) / 2) ** 4
    fidelity      F = ((u + v)**2 / (2 * (u**2 + v**2))) ** 6

Four cavity passes set the efficiency exponent; the fidelity additionally
folds in the two auxiliary-photon spin readouts, hence the sixth power of
the per-pass overlap. Both reduce to 1 when u = v = 1, and F alone reaches
1 whenever u = v because balanced loss renormalizes away.

A sweep evaluates the reflections once per lattice
(cavity.lattice_reflections: r_cold per kappa_s column, r_hot per point) and
computes the closed forms from those same numbers in plain Python
arithmetic, so each point is bitwise what formula_performance gives at its
parameters.

The simulated figures run the full circuit with the complex reflection
amplitudes, through the compiled gate: protocols.branch_coefficients
applies the gate's degree-4 polynomial coefficients in (r_cold, r_hot),
compiled once per process, to one input, and one evaluation covers every
point of a sweep plus the ideal reference. The coefficients of the default
uniform input are derived once per process and shared read-only.
Simulated efficiency matches the closed form exactly (norms ignore
phases). Simulated fidelity differs from the closed form in general: the
closed form assumes ideal reflection phases and charges for the two readout
reflections, while the circuit-level number keeps the true phases and
measures the spins directly. Both are reported side by side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat

import numpy as np

from . import __version__
from .cavity import (
    SIDE_LEAKAGE_WARNING,
    CavityParams,
    ReflectionPair,
    _require_passive,
    lattice_reflections,
    reflect_cold,
    reflect_hot,
)
from .hilbert import StateVector
from .protocols import (
    branch_coefficients,
    evaluate_branches,
    photon_columns,
    uniform_two_photon_state,
)


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


def _closed_form(u: float, v: float) -> tuple[float, float]:
    """(F, eta) from the reflection magnitudes u = |r_cold| and v = |r_hot|.

    Plain Python arithmetic, so every caller gets the same bits.
    """
    per_pass = (u + v) ** 2 / (2 * (u**2 + v**2))
    return per_pass**6, ((u**2 + v**2) / 2) ** 4


def formula_performance(params: CavityParams) -> tuple[float, float]:
    """Closed-form (fidelity, efficiency) from the reflection magnitudes."""
    return _closed_form(abs(reflect_cold(params)), abs(reflect_hot(params)))


@cache
def _uniform_coefficients() -> np.ndarray:
    """The compiled gate applied to the default uniform input, once per process.

    Read-only, since every caller shares the one array.
    """
    coefficients = branch_coefficients(photon_columns(uniform_two_photon_state()))
    coefficients.flags.writeable = False
    return coefficients


def _simulated_figures(
    r_cold, r_hot, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Circuit-level fidelity and efficiency arrays, one entry per pair.

    ``coefficients`` is one input compiled by branch_coefficients. The
    reference is the ideal pair's (up, up) branch, since every ideal branch
    carries the same corrected output. With out_o the corrected branch
    outputs, eta = sum_o |out_o|**2 and F = sum_o |<ideal|out_o>|**2 / eta
    (the ideal output normalized), which is the branch-probability-weighted
    fidelity of the normalized branches. Where eta = 0, F is nan.
    """
    ideal = ReflectionPair.ideal()
    reference = evaluate_branches(ideal.r_cold, ideal.r_hot, coefficients)[0, 0, 0]
    physical = evaluate_branches(r_cold, r_hot, coefficients)
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
    pair = ReflectionPair.from_params(params)
    if input_state is None:
        coefficients = _uniform_coefficients()
    else:
        coefficients = branch_coefficients(photon_columns(input_state))
    fidelity, eta = _simulated_figures(pair.r_cold, pair.r_hot, coefficients)
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
    Negative or non-finite range ends or ``gamma`` raise ValueError.

    The reflections are evaluated once per lattice: r_cold once per kappa_s
    column, r_hot once per point, and the closed forms use those same
    numbers, so every point equals formula_performance at its parameters.
    ``include_simulation`` adds the circuit-level figures from one engine
    evaluation over the whole lattice. ``provenance["side_leakage_points"]``
    counts the points at or above the side-leakage guidance; a simulated
    sweep emits one UserWarning naming that count, not one per point.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    for name, (lo, hi) in (("g", g_range), ("kappa_s", kappa_s_range)):
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf, got {(lo, hi)}")
    # validates gamma once for the whole lattice; every point lies inside the corner
    params = CavityParams(g=g_range[1], kappa_s=kappa_s_range[1], gamma=gamma)
    g_values = np.linspace(g_range[0], g_range[1], resolution).tolist()
    ks_values = np.linspace(kappa_s_range[0], kappa_s_range[1], resolution).tolist()
    r_cold, r_hot = lattice_reflections(params, g_values, ks_values)
    u_cold = [abs(r) for r in r_cold]
    formulas = [_closed_form(u, abs(r)) for u, r in zip(u_cold * resolution, r_hot)]
    leaky_columns = sum(ks >= SIDE_LEAKAGE_WARNING * params.kappa for ks in ks_values)
    leaky = resolution * leaky_columns
    if include_simulation:
        if leaky:
            warnings.warn(
                f"{leaky} of {len(r_hot)} lattice points have kappa_s at or above the "
                f"{SIDE_LEAKAGE_WARNING:g} kappa guidance for reaching the -pi/2 "
                "relative reflection phase",
                UserWarning,
                stacklevel=2,
            )
        cold, hot = np.tile(r_cold, resolution), np.array(r_hot)
        _require_passive(np.abs(cold).max(), np.abs(hot).max())
        f_sim, eta_sim = _simulated_figures(cold, hot, _uniform_coefficients())
        simulated = zip(f_sim.tolist(), eta_sim.tolist())
    else:
        simulated = repeat((None, None))
    points = ((g, ks) for g in g_values for ks in ks_values)
    grid = [
        PerformancePoint(g, ks, gamma, f, eta, f_sim, eta_sim)
        for (g, ks), (f, eta), (f_sim, eta_sim) in zip(points, formulas, simulated)
    ]
    provenance = {
        "package": f"hypercnot {__version__}",
        "detuning": repr(params.detuning),
        "exciton_detuning": repr(params.exciton_detuning),
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
