"""Closed-form gate performance, simulation cross-checks, and parameter sweeps.

The closed forms use only the reflection magnitudes u = |r_cold| and
v = |r_hot| at the standard probe point:

    efficiency  eta = ((u**2 + v**2) / 2) ** 4
    fidelity      F = ((u + v)**2 / (2 * (u**2 + v**2))) ** 6

Four cavity passes set the efficiency exponent; the fidelity additionally
folds in the two auxiliary-photon spin readouts, hence the sixth power of
the per-pass overlap. Both reduce to 1 when u = v = 1, and F alone reaches
1 whenever u = v because balanced loss renormalizes away.

The simulated figures re-run the full circuit with the complex reflection
amplitudes. Simulated efficiency matches the closed form exactly (norms
ignore phases). Simulated fidelity differs from the closed form in general:
the closed form assumes ideal reflection phases and charges for the two
readout reflections, while the circuit-level number keeps the true phases
and measures the spins directly. Both are reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cavity import CavityParams, ReflectionPair, reflect_cold, reflect_hot
from .hilbert import StateVector, fidelity_up_to_global_phase
from .protocols import ZeroSurvivalError, hyper_cnot_state, uniform_two_photon_state


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


def simulated_performance(
    params: CavityParams, input_state: StateVector | None = None
) -> tuple[float, float]:
    """Circuit-level (fidelity, efficiency) for one parameter point.

    Runs the gate with the complex reflection amplitudes and in ideal mode
    on the same input (uniform superposition by default). Fidelity is the
    branch-probability-weighted overlap of the corrected outputs with the
    ideal output; efficiency is the survival probability. At zero survival
    the fidelity is undefined and ``(nan, 0.0)`` is returned.
    """
    joint = input_state if input_state is not None else uniform_two_photon_state()
    ideal_runs = hyper_cnot_state(joint, None)
    ideal_final = ideal_runs[0].final_state
    try:
        physical_runs = hyper_cnot_state(joint, ReflectionPair.from_params(params))
    except ZeroSurvivalError:
        return math.nan, 0.0
    eta = physical_runs[0].survival_probability
    fid = sum(
        run.branch_probability
        * fidelity_up_to_global_phase(run.final_state, ideal_final)
        for run in physical_runs
    )
    return float(fid), float(eta)


def performance_point(
    g: float,
    kappa_s: float,
    gamma: float = 0.1,
    include_simulation: bool = False,
) -> PerformancePoint:
    params = CavityParams(g=g, kappa_s=kappa_s, gamma=gamma)
    f_formula, eta_formula = formula_performance(params)
    f_sim = eta_sim = None
    if include_simulation:
        f_sim, eta_sim = simulated_performance(params)
    return PerformancePoint(
        g_over_kappa=g,
        kappa_s_over_kappa=kappa_s,
        gamma_over_kappa=gamma,
        F_formula=f_formula,
        eta_formula=eta_formula,
        F_sim=f_sim,
        eta_sim=eta_sim,
    )


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
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    for name, (lo, hi) in (("g", g_range), ("kappa_s", kappa_s_range)):
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf, got {(lo, hi)}")
    g_values = np.linspace(g_range[0], g_range[1], resolution)
    ks_values = np.linspace(kappa_s_range[0], kappa_s_range[1], resolution)
    grid = [
        performance_point(float(g), float(ks), gamma, include_simulation)
        for g in g_values
        for ks in ks_values
    ]
    defaults = CavityParams(g=0.0)
    provenance = {
        "package": f"hypercnot {__version__}",
        "detuning": repr(defaults.detuning),
        "exciton_detuning": repr(defaults.exciton_detuning),
        "gamma_over_kappa": repr(gamma),
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
