"""Closed-form gate performance, simulation cross-checks, and parameter sweeps.

The closed forms use only the reflection magnitudes u = |r_cold| and
v = |r_hot| at the standard probe point:

    efficiency  eta = ((u**2 + v**2) / 2) ** 4
    fidelity      F = ((u + v)**2 / (2 * (u**2 + v**2))) ** 6

Four cavity passes set the efficiency exponent; the fidelity additionally
folds in the two auxiliary-photon spin readouts, hence the sixth power of
the per-pass overlap. Both reduce to 1 when u = v = 1, and F alone reaches
1 whenever u = v because balanced loss renormalizes away.

Every sweep runs through one lattice core, _sweep_lattice. It evaluates
the reflections once per lattice (cavity.lattice_reflections: r_cold per
kappa_s column, r_hot per point) and computes the closed forms from those
same numbers in plain Python arithmetic, so each point is bitwise what
formula_performance gives at its parameters. It returns columns: the two
axes and the per-point figure pairs. sweep builds its PerformancePoint rows
from them. The CLI renders its CSV straight from the columns, without
rows, and formats each axis value once.

The simulated figures are those of the full circuit with the complex
reflection amplitudes. simulated_performance runs the compiled gate:
protocols.branch_coefficients applies the gate's degree-4 polynomial
coefficients in (r_cold, r_hot), compiled once per process, to one input,
which may be any joint state. The coefficients of the default uniform
input, and its ideal reference output, are derived once per process and
shared read-only. For that uniform input the circuit-level figures have an
exact closed form in the two complex reflections (_uniform_figures), and a
simulated sweep computes its columns from it in one vectorized pass over
the lattice, without evaluating the gate; the tests hold it to the engine
on random pairs and on whole lattices. Simulated efficiency is the closed
form's ((u**2 + v**2) / 2) ** 4 (norms ignore phases). Simulated fidelity
differs from the closed form in general: the closed form assumes ideal
reflection phases and charges for the two readout reflections, while the
circuit-level number keeps the true phases and measures the spins
directly. Both are reported side by side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from typing import NamedTuple

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

    Plain Python arithmetic, so every caller gets the same bits. Where no
    light survives (u = v = 0) the fidelity is undefined: (nan, 0.0), as
    simulated_performance gives at zero survival.
    """
    try:
        per_pass = (u + v) ** 2 / (2 * (u**2 + v**2))
    except ZeroDivisionError:
        return math.nan, 0.0
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


def _ideal_reference(coefficients: np.ndarray) -> np.ndarray:
    """The ideal pair's (up, up) branch output for one compiled input; every
    ideal branch carries the same corrected output."""
    ideal = ReflectionPair.ideal()
    return evaluate_branches(ideal.r_cold, ideal.r_hot, coefficients)[0, 0, 0]


@cache
def _uniform_reference() -> np.ndarray:
    """_ideal_reference of the default uniform input, once per process."""
    reference = _ideal_reference(_uniform_coefficients())
    reference.flags.writeable = False
    return reference


def _simulated_figures(
    r_cold, r_hot, coefficients: np.ndarray, reference: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Circuit-level fidelity and efficiency arrays, one entry per pair.

    ``coefficients`` is one input compiled by branch_coefficients and
    ``reference`` its _ideal_reference, derived here when not given. With
    out_o the corrected branch outputs, eta = sum_o |out_o|**2 and
    F = sum_o |<ideal|out_o>|**2 / eta (the ideal output normalized), which
    is the branch-probability-weighted fidelity of the normalized branches.
    Where eta = 0, F is nan.
    """
    if reference is None:
        reference = _ideal_reference(coefficients)
    physical = evaluate_branches(r_cold, r_hot, coefficients)
    eta = np.sum(np.abs(physical) ** 2, axis=(1, 2, 3, 4))
    overlap2 = np.abs(np.tensordot(physical, reference.conj(), axes=([3, 4], [0, 1]))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        fidelity = overlap2.sum(axis=(1, 2)) / (np.sum(np.abs(reference) ** 2) * eta)
    return np.where(eta > 0.0, fidelity, math.nan), eta


def _uniform_figures(r_cold, r_hot) -> tuple[np.ndarray, np.ndarray]:
    """_simulated_figures of the default uniform input, in exact closed form.

    With s = |r_cold|**2 + |r_hot|**2 and x = Im(r_hot * conj(r_cold)), which
    is |r_cold| |r_hot| sin(delta_phi):

        F = (1/2 + 2 (x/s)**2)**2,    eta = (s/2)**4

    so eta is the closed-form efficiency and F differs from the closed form
    only through the true relative phase. One vectorized pass over the
    pairs, equal to the engine to round-off. F is written through x/s, as
    x**2 / s**2 would underflow long before s does. Where s = 0, x is 0 too,
    so F is 0/0 = nan and eta is 0.
    """
    r_cold, r_hot = np.asarray(r_cold), np.asarray(r_hot)
    s = np.abs(r_cold) ** 2 + np.abs(r_hot) ** 2
    x = (r_hot * r_cold.conj()).imag
    with np.errstate(invalid="ignore"):
        fidelity = (0.5 + 2 * (x / s) ** 2) ** 2
    return fidelity, (s / 2) ** 4


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
        coefficients, reference = _uniform_coefficients(), _uniform_reference()
    else:
        coefficients, reference = branch_coefficients(photon_columns(input_state)), None
    fidelity, eta = _simulated_figures(pair.r_cold, pair.r_hot, coefficients, reference)
    return float(fidelity[0]), float(eta[0])


def performance_point(
    g: float,
    kappa_s: float,
    gamma: float = 0.1,
    include_simulation: bool = False,
) -> PerformancePoint:
    """Figures of merit at one (g, kappa_s) point: a one-point sweep."""
    return sweep((g, g), (kappa_s, kappa_s), 1, gamma, include_simulation).grid[0]


class _Lattice(NamedTuple):
    """One sweep as columns: the two axes and the per-point pairs, g-major."""

    g_values: list[float]
    kappa_s_values: list[float]
    formulas: list[tuple[float, float]]
    simulated: list[tuple[float, float]] | None
    provenance: dict[str, str]


def _sweep_lattice(
    g_range: tuple[float, float],
    kappa_s_range: tuple[float, float],
    resolution: int,
    gamma: float,
    include_simulation: bool,
) -> _Lattice:
    """Everything sweep does up to its rows, returned as columns.

    Its callers are sweep and the CLI's sweep command, so the side-leakage
    warning names the frame two up: the caller of sweep, or cli.main.
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
    formulas = list(map(_closed_form, u_cold * resolution, map(abs, r_hot)))
    leaky = resolution * sum(ks >= SIDE_LEAKAGE_WARNING for ks in ks_values)
    simulated = None
    if include_simulation:
        if leaky:
            warnings.warn(
                f"{leaky} of {len(r_hot)} lattice points have kappa_s at or above the "
                f"{SIDE_LEAKAGE_WARNING:g} kappa guidance for reaching the -pi/2 "
                "relative reflection phase",
                UserWarning,
                stacklevel=3,
            )
        cold, hot = np.tile(r_cold, resolution), np.array(r_hot)
        _require_passive(np.abs(cold).max(), np.abs(hot).max())
        f_sim, eta_sim = _uniform_figures(cold, hot)
        simulated = list(zip(f_sim.tolist(), eta_sim.tolist()))
    provenance = {
        "package": f"hypercnot {__version__}",
        "detuning": repr(params.detuning),
        "gamma_over_kappa": repr(gamma),
        "side_leakage_points": str(leaky),
    }
    return _Lattice(g_values, ks_values, formulas, simulated, provenance)


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
    ``include_simulation`` adds the circuit-level figures of the uniform
    input, from their exact closed form over the whole lattice.
    ``provenance["side_leakage_points"]`` counts the points at or above the
    side-leakage guidance; a simulated sweep emits one UserWarning naming
    that count, not one per point.
    """
    lattice = _sweep_lattice(g_range, kappa_s_range, resolution, gamma, include_simulation)
    simulated = repeat((None, None)) if lattice.simulated is None else lattice.simulated
    points = ((g, ks) for g in lattice.g_values for ks in lattice.kappa_s_values)
    grid = [
        PerformancePoint(g, ks, gamma, f, eta, f_sim, eta_sim)
        for (g, ks), (f, eta), (f_sim, eta_sim) in zip(points, lattice.formulas, simulated)
    ]
    return SweepResult(gamma_over_kappa=gamma, grid=grid, provenance=lattice.provenance)


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
