"""Closed-form gate performance, simulation cross-checks, and parameter sweeps.

The closed forms use only the reflection magnitudes u = |r_cold| and
v = |r_hot| at the standard probe point:

    efficiency  eta = ((u**2 + v**2) / 2) ** 4
    fidelity      F = ((u + v)**2 / (2 * (u**2 + v**2))) ** 6

Four cavity passes set the efficiency exponent; the fidelity additionally
folds in the two auxiliary-photon spin readouts, hence the sixth power of
the per-pass overlap. Both reduce to 1 when u = v = 1, and F alone reaches
1 whenever u = v because balanced loss renormalizes away.

Every sweep runs through one lattice core, _sweep_lattice, which alone
names and orders the figure columns (_Lattice). sweep builds its
PerformancePoint rows from them (_rows), and the CLI renders its CSV from
them without rows. Each point's F and eta are bitwise formula_performance
at its parameters, and its F_sim is bitwise the Python scalar formula
(_lattice_figures); formula_performance and _closed_form stay scalar for
single points.

The simulated figures are those of the full circuit with the complex
reflection amplitudes, from protocols, which alone reads the gate, on the
uniform state or on any joint state whose norm simulated_performance checks.
For the uniform input the circuit-level figures have an exact closed form
in the two complex reflections (_lattice_figures), so a simulated sweep
computes its fidelity column without evaluating the gate; the tests hold
it to the Kraus operators on random pairs and on whole lattices.
Simulated efficiency is exactly the closed form's ((u**2 + v**2) / 2) ** 4
(norms ignore phases), so a simulated sweep's eta_sim column is its eta
column. Simulated fidelity differs from the closed form in general: the
closed form assumes ideal reflection phases and charges for the two
readout reflections, while the circuit-level number keeps the true phases
and measures the spins directly. Both are reported side by side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import product, repeat
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import __version__
from .cavity import (
    SIDE_LEAKAGE_WARNING,
    CavityParams,
    ReflectionPair,
    _SIDE_LEAKAGE_CLAUSE,
    _is_real,
    _reflection_planes,
    reflect_cold,
    reflect_hot,
)
from .hilbert import NORM_ATOL, StateVector
from .protocols import ZeroSurvivalError, _simulated_figures, uniform_two_photon_state


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

    Plain Python arithmetic, the reference that _lattice_figures matches
    bit for bit. Where no light survives (u**2 + v**2 == 0) the
    fidelity is undefined: (nan, 0.0), as simulated_performance gives at
    zero survival.
    """
    try:
        per_pass = (u + v) ** 2 / (2 * (u**2 + v**2))
    except ZeroDivisionError:
        return math.nan, 0.0
    return per_pass**6, ((u**2 + v**2) / 2) ** 4


def _lattice_figures(
    u: np.ndarray, v: np.ndarray, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(F, eta, F_sim) over arrays, from u = |r_cold|, v = |r_hot| and
    x = Im(r_hot * conj(r_cold)); F_sim is None when x is.

    F and eta are _closed_form's. With s = u**2 + v**2, the uniform input's
    circuit-level fidelity is exactly F_sim = (1/2 + 2 (x/s)**2)**2, and its
    efficiency (s/2)**4 is eta; x/s keeps x**2 / s**2 from underflowing.
    Every power is np.float_power, the C pow that Python's float ** calls
    (np.power and ``**`` on arrays differ in the last bit), so each figure
    is its Python scalar formula bit for bit. Where s == 0 both fidelities
    are nan and eta is 0.0, as _closed_form gives on its ZeroDivisionError.

    The arguments broadcast: a sweep passes u once per kappa_s column and v
    and x once per point on the (G, K) grid. Real float64 ufuncs round each
    element alike whatever the shapes, so the result is bitwise that of u
    tiled to v's shape. The sweep forms its arguments from the real planes
    of cavity._reflection_planes with ufuncs that round as Python's scalar
    code does: u and v by np.hypot, which is abs(complex), and x as
    hot_im * cold_re - hot_re * cold_im, CPython's complex product. np.abs
    and numpy's complex multiply would each differ in the last bit at some
    points, the multiply according to the operands' shapes, so no complex
    array is built.
    """
    s = np.float_power(u, 2) + np.float_power(v, 2)
    f_sim = None
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.float_power(np.float_power(u + v, 2) / (2 * s), 6)
        if x is not None:
            f_sim = np.float_power(0.5 + 2 * np.float_power(x / s, 2), 2)
    if not s.all():
        zero = s == 0.0
        f = np.where(zero, math.nan, f)
        if f_sim is not None:
            f_sim = np.where(zero, math.nan, f_sim)
    return f, np.float_power(s / 2, 4), f_sim


def formula_performance(params: CavityParams) -> tuple[float, float]:
    """Closed-form (fidelity, efficiency) from the reflection magnitudes."""
    return _closed_form(abs(reflect_cold(params)), abs(reflect_hot(params)))


def simulated_performance(
    params: CavityParams, input_state: StateVector | None = None
) -> tuple[float, float]:
    """Circuit-level (fidelity, efficiency) for one parameter point.

    Runs the gate with the complex reflection amplitudes and in ideal mode
    on the same input (uniform superposition by default), with the photon
    registers in any order. Fidelity is the branch-probability-weighted
    overlap of the corrected outputs with the ideal output; efficiency is
    the survival probability. At zero survival the fidelity is undefined
    and ``(nan, 0.0)`` is returned. An input whose squared norm is not 1
    within NORM_ATOL raises ValueError: its efficiency would be scaled by
    that norm.
    """
    if input_state is None:
        joint = uniform_two_photon_state()
    elif abs(input_state.norm2 - 1.0) > NORM_ATOL:
        raise ValueError("simulation input must be normalized")
    else:
        joint = input_state
    try:
        return _simulated_figures(joint, ReflectionPair.from_params(params))
    except ZeroSurvivalError:
        return math.nan, 0.0


class _Lattice(NamedTuple):
    """One sweep as plain float columns, g-major: the two axes and the
    figure columns keyed by CSV name in CSV order, the closed-form F and eta
    per point, then F_sim and eta_sim when the sweep is simulated (eta_sim
    is the eta list itself, as (s/2)**4 is the closed-form eta)."""

    g_values: list[float]
    kappa_s_values: list[float]
    columns: dict[str, list[float]]
    provenance: dict[str, str]


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n).tolist(), bit for bit, in Python arithmetic:
    i * step + lo, numpy's fallback i / div * delta + lo where the step
    underflows to 0, 0.0 * delta + lo for one value, and the last of several
    values set to hi."""
    lo, hi = float(lo), float(hi)
    delta, div = hi - lo, n - 1
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + lo for i in range(div)]
    else:
        values = [i * step + lo for i in range(div)]
    values.append(hi)
    return values


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
    if isinstance(resolution, bool) or not isinstance(resolution, Integral):
        raise TypeError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    for name, (lo, hi) in (("g", g_range), ("kappa_s", kappa_s_range)):
        if not (_is_real(lo) and _is_real(hi)):
            raise TypeError(f"{name} range ends must be real numbers, not bools")
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf, got {(lo, hi)}")
    resolution = int(resolution)  # a narrow numpy integer would wrap the point count
    # validates gamma and, with the range check above, every point once for the
    # whole lattice, each lying between 0 and this upper corner
    params = CavityParams(g=g_range[1], kappa_s=kappa_s_range[1], gamma=gamma)
    g_values = _axis(*g_range, resolution)
    ks_values = _axis(*kappa_s_range, resolution)
    cold_re, cold_im, hot_re, hot_im = _reflection_planes(params, g_values, ks_values)
    # r_cold's planes per kappa_s column broadcast against r_hot's per (g, kappa_s) point
    u = np.hypot(cold_re, cold_im)
    v = np.hypot(hot_re, hot_im)
    # Im(r_hot * conj(r_cold)) as CPython's complex product rounds it
    x = hot_im * cold_re - hot_re * cold_im if include_simulation else None
    f, eta, f_sim = _lattice_figures(u, v, x)
    columns = {"F": f.ravel().tolist(), "eta": eta.ravel().tolist()}
    leaky = resolution * sum(ks >= SIDE_LEAKAGE_WARNING for ks in ks_values)
    if include_simulation:
        if leaky:
            warnings.warn(
                f"{leaky} of {resolution**2} lattice points have kappa_s {_SIDE_LEAKAGE_CLAUSE}",
                UserWarning,
                stacklevel=3,
            )
        columns |= {"F_sim": f_sim.ravel().tolist(), "eta_sim": columns["eta"]}
    provenance = {
        "package": f"hypercnot {__version__}",
        "detuning": repr(params.detuning),
        "gamma_over_kappa": repr(params.gamma),
        "side_leakage_points": str(leaky),
    }
    return _Lattice(g_values, ks_values, columns, provenance)


def sweep(
    g_range: tuple[float, float] = (0.0, 3.0),
    kappa_s_range: tuple[float, float] = (0.0, 2.0),
    resolution: int = 101,
    gamma: float = CavityParams.gamma,
    include_simulation: bool = False,
) -> SweepResult:
    """Rectangular (g, kappa_s) lattice of performance figures, g-major order.

    A degenerate range (equal endpoints) with resolution 1 yields a single
    point, which is how one reproduces an individual benchmark value.
    Negative or non-finite range ends or ``gamma`` raise ValueError; one
    that is not a real number (a bool, a complex number, a Decimal or an
    array), or a ``resolution`` that is not an integer (a bool or a float),
    raises TypeError.

    The reflections are evaluated once per lattice: r_cold once per kappa_s
    column, r_hot once per point, and the closed forms use those same
    numbers, so every point equals formula_performance at its parameters.
    ``include_simulation`` adds the circuit-level figures of the uniform
    input, from their exact closed form over the whole lattice.
    ``provenance["side_leakage_points"]`` counts the points at or above the
    side-leakage guidance; a simulated sweep emits one UserWarning naming
    that count, not one per point. A numpy ``gamma`` is recorded in the
    provenance, and returned on the result and every row, as the Python
    float it equals.
    """
    lattice = _sweep_lattice(g_range, kappa_s_range, resolution, gamma, include_simulation)
    gamma = float(gamma)  # validated there, so a numpy float but no string gets here
    return SweepResult(gamma, _rows(lattice, gamma), lattice.provenance)


def _rows(lattice: _Lattice, gamma: float) -> list[PerformancePoint]:
    """The lattice's points as PerformancePoint rows, g-major, in one pass
    over its columns.

    Each row is a bare frozen instance with its seven fields in field
    order, built as hilbert._states builds its states: the constructor's
    state only while PerformancePoint has no __post_init__.
    """
    columns = lattice.columns
    f_sim = columns.get("F_sim", repeat(None))
    eta_sim = columns.get("eta_sim", repeat(None))
    points = product(lattice.g_values, lattice.kappa_s_values)
    new = object.__new__
    rows = []
    for (g, ks), f, eta, fs, es in zip(points, columns["F"], columns["eta"], f_sim, eta_sim):
        row = new(PerformancePoint)
        state = row.__dict__
        state["g_over_kappa"] = g
        state["kappa_s_over_kappa"] = ks
        state["gamma_over_kappa"] = gamma
        state["F_formula"] = f
        state["eta_formula"] = eta
        state["F_sim"] = fs
        state["eta_sim"] = es
        rows.append(row)
    return rows


# Published benchmark operating points, all at CavityParams' default gamma and
# detuning. Couplings were quoted as 0.5, 2.4, 2.4 and 1.3 times (kappa + kappa_s).
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


def reference_check(gamma: float = CavityParams.gamma) -> list[ReferenceCheckRow]:
    """Evaluate the closed forms at every published benchmark point."""
    rows = []
    for point in REFERENCE_POINTS:
        f, eta = formula_performance(
            CavityParams(g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=gamma)
        )
        rows.append(ReferenceCheckRow(point, f, eta))
    return rows
