"""Correctness oracles owned by the benchmark.

Nothing here calls into ``hypercnot``: every expected value is rebuilt from
the physics in PAPER.md ("How it works") with dense 64x64 matrices, or read
from reference data recorded by ``record.py`` at the commit that defined the
benchmark. The library computes the same circuit by tensor contraction on
labelled registers, so agreement between the two is a real check.

Qubit order (most significant first): a.pol, a.spatial, b.pol, b.spatial,
e1, e2 -- the library's convention for a two-photon input with both spins
attached.
"""

from __future__ import annotations

import gzip
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

N_QUBITS = 6
A_POL, A_SPATIAL, B_POL, B_SPATIAL, E1, E2 = range(N_QUBITS)
PHOTON_QUBITS = (A_POL, A_SPATIAL, B_POL, B_SPATIAL)

_S = 1 / np.sqrt(2.0)
HADAMARD = np.array([[_S, _S], [_S, -_S]], dtype=complex)
# spin rotation |up> -> (i|up> + |down>)/sqrt2, |down> -> (i|up> - |down>)/sqrt2
SPIN_ROT = np.array([[1j * _S, 1j * _S], [_S, -_S]], dtype=complex)
SIGN_FLIP = np.diag([1.0, -1.0]).astype(complex)
# HWP_PHASEFLIP: sign flip on R
R_FLIP = np.diag([-1.0, 1.0]).astype(complex)

# tolerances fixed before any run, from float64 round-off over ~20 operators
STATE_FIDELITY_TOL = 1e-10
PROBABILITY_TOL = 1e-10
ETA_TOL = 1e-9
F_SIM_TOL = 1e-12
FORMULA_TOL = 1e-12
PAPER_TOL = 0.005


# -- reflections and closed forms ----------------------------------------


def reflections(g: float, kappa_s: float, gamma: float = 0.1, detuning: float = 0.5):
    """(r_cold, r_hot) of one dot-cavity unit in units of kappa, trion on resonance."""
    cavity = -1j * detuning + 0.5 + kappa_s / 2
    r_cold = (cavity - 1.0) / cavity
    dipole = -1j * detuning + gamma / 2
    r_hot = 1 - dipole / (dipole * cavity + g**2)
    return complex(r_cold), complex(r_hot)


def closed_form(g: float, kappa_s: float, gamma: float = 0.1) -> tuple[float, float]:
    """(F, eta): sixth-power overlap fidelity and four-reflection efficiency."""
    r_cold, r_hot = reflections(g, kappa_s, gamma)
    u2, v2 = abs(r_cold) ** 2, abs(r_hot) ** 2
    per_pass = (abs(r_cold) + abs(r_hot)) ** 2 / (2 * (u2 + v2))
    return per_pass**6, ((u2 + v2) / 2) ** 4


# -- dense circuit --------------------------------------------------------


@lru_cache(maxsize=None)
def _embedding(targets: tuple[int, ...]):
    idx = np.arange(2**N_QUBITS)
    bits = (idx[:, None] >> (N_QUBITS - 1 - np.arange(N_QUBITS))) & 1
    k = len(targets)
    sub = sum(bits[:, t] << (k - 1 - j) for j, t in enumerate(targets))
    rest = [q for q in range(N_QUBITS) if q not in targets]
    other = sum(bits[:, q] << j for j, q in enumerate(rest))
    return sub, other[:, None] == other[None, :]


def embed(op: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """64x64 matrix of ``op`` on ``targets`` (first target most significant)."""
    sub, same = _embedding(targets)
    return np.where(same, op[sub[:, None], sub[None, :]], 0.0)


def pass_operator(r_cold: complex, r_hot: complex) -> np.ndarray:
    """One cavity pass on (path-or-polarization, spin)."""
    return np.diag([r_cold, r_hot, -1j * r_hot, -1j * r_cold])


def circuit_matrix(r_cold: complex, r_hot: complex) -> np.ndarray:
    """The whole pre-measurement circuit as one 64x64 matrix."""
    d = pass_operator(r_cold, r_hot)
    steps = [
        embed(SPIN_ROT, (E1,)), embed(SPIN_ROT, (E2,)),
        embed(d, (A_SPATIAL, E1)), embed(d, (A_POL, E2)),
        embed(HADAMARD, (B_SPATIAL,)), embed(HADAMARD, (B_POL,)),
        embed(SPIN_ROT, (E1,)), embed(SPIN_ROT, (E2,)),
        embed(d, (B_SPATIAL, E1)), embed(d, (B_POL, E2)),
        embed(HADAMARD, (E1,)), embed(HADAMARD, (E2,)),
        embed(HADAMARD, (B_SPATIAL,)), embed(HADAMARD, (B_POL,)),
    ]
    u = np.eye(2**N_QUBITS, dtype=complex)
    for step in steps:
        u = step @ u
    return u


BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _photon_op(op: np.ndarray, target: int) -> np.ndarray:
    """16x16 matrix of a single-qubit op on one photon register."""
    mats = [op if q == target else np.eye(2) for q in PHOTON_QUBITS]
    out = np.eye(1)
    for m in mats:
        out = np.kron(out, m)
    return out


def kraus_operators(r_cold: complex, r_hot: complex) -> dict[tuple[int, int], np.ndarray]:
    """Corrected 16x16 photon operator of each spin branch (o1, o2).

    Spins start up; a down outcome on e1 flips the sign of a.spatial's
    second mode and a down outcome on e2 flips the sign of a.pol's L.
    """
    u = circuit_matrix(r_cold, r_hot).reshape(16, 4, 16, 4)
    out = {}
    for o1, o2 in BRANCHES:
        k = u[:, 2 * o1 + o2, :, 0]
        if o1:
            k = _photon_op(SIGN_FLIP, A_SPATIAL) @ k
        if o2:
            k = _photon_op(SIGN_FLIP, A_POL) @ k
        out[(o1, o2)] = k
    return out


IDEAL_PAIR = (-1j, 1.0 + 0j)


@lru_cache(maxsize=1)
def ideal_kraus() -> dict[tuple[int, int], np.ndarray]:
    return kraus_operators(*IDEAL_PAIR)


@lru_cache(maxsize=1)
def cnot_permutation() -> np.ndarray:
    """CNOT on both degrees of freedom, controlled by photon a, as a 16x16 permutation."""
    perm = np.zeros((16, 16))
    for x in range(16):
        pa, sa, pb, sb = (x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1
        perm[(pa << 3) | (sa << 2) | ((pb ^ pa) << 1) | (sb ^ sa), x] = 1.0
    return perm


# -- comparisons ------------------------------------------------------------


def fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 of the normalized vectors (global phase ignored)."""
    nx, ny = np.vdot(x, x).real, np.vdot(y, y).real
    return float(abs(np.vdot(x, y)) ** 2 / (nx * ny))


def branch_weights(kraus, psi: np.ndarray) -> dict[tuple[int, int], float]:
    return {o: float(np.vdot(k @ psi, k @ psi).real) for o, k in kraus.items()}


def first_branch(weights: dict[tuple[int, int], float]) -> tuple[int, int]:
    """The branch the library reports first: enumeration order, non-zero weight."""
    total = sum(weights.values())
    return next(o for o in BRANCHES if weights[o] > total * 1e-12)


def register_argmax(psi: np.ndarray, qubit: int) -> tuple[int, float]:
    """Most likely outcome of one photon register and the margin over the other."""
    w = (np.abs(psi.reshape(2, 2, 2, 2)) ** 2).sum(
        axis=tuple(q for q in PHOTON_QUBITS if q != qubit)
    )
    outcome = int(np.argmax(w))
    return outcome, float((w[outcome] - w[1 - outcome]) / w.sum())


# -- Bell states and cluster preparation ----------------------------------


def bell_pair(index: int) -> np.ndarray:
    """Two-qubit Bell state: 0 phi+, 1 phi-, 2 psi+, 3 psi-."""
    v = np.zeros(4, dtype=complex)
    sign = -1.0 if index in (1, 3) else 1.0
    lo, hi = ((0, 3) if index < 2 else (1, 2))
    v[lo], v[hi] = _S, sign * _S
    return v


def hyper_bell(pol_index: int, spatial_index: int) -> np.ndarray:
    """Polarization Bell pair on (a.pol, b.pol) times spatial pair on (a.spatial, b.spatial)."""
    pol, spatial = bell_pair(pol_index), bell_pair(spatial_index)
    t = np.einsum("ac,bd->abcd", pol.reshape(2, 2), spatial.reshape(2, 2))
    return t.reshape(16)


def bell_pattern(kraus, pol_index: int, spatial_index: int) -> tuple[tuple[int, ...], float]:
    """Outcome bits of the four photon registers after the analyser, and the worst margin."""
    psi = hyper_bell(pol_index, spatial_index)
    k = kraus[first_branch(branch_weights(kraus, psi))]
    out = _photon_op(HADAMARD, A_SPATIAL) @ _photon_op(HADAMARD, A_POL) @ (k @ psi)
    picks = [register_argmax(out, q) for q in PHOTON_QUBITS]
    return tuple(p for p, _ in picks), min(m for _, m in picks)


def cluster_state(kraus) -> np.ndarray:
    """Cluster preparation from the gate's first branch, as in the paper's application."""
    plus = np.array([_S, _S])
    psi = np.kron(np.kron(plus, plus), np.kron([1.0, 0.0], [1.0, 0.0]))
    k = kraus[first_branch(branch_weights(kraus, psi))]
    st = k @ psi
    st = _photon_op(HADAMARD, A_SPATIAL) @ _photon_op(HADAMARD, A_POL) @ st
    # R_FLIP on a.pol only where a.spatial is in its second mode
    flip = np.kron(np.kron(np.eye(2), np.diag([0.0, 1.0])), np.eye(4))
    cond = np.kron(R_FLIP, np.eye(8)) @ flip + (np.eye(16) - flip)
    st = cond @ st
    return _photon_op(HADAMARD, B_SPATIAL) @ _photon_op(HADAMARD, B_POL) @ st


def gate_decodes(kraus, margin: float = 1e-6) -> bool:
    """True when every branch maps every basis input to its CNOT image and every
    hyperentangled Bell state to its ideal analyser pattern, with a clear margin."""
    perm = cnot_permutation()
    for x in range(16):
        e = np.zeros(16)
        e[x] = 1.0
        want = int(np.argmax(perm[:, x]))
        w = branch_weights(kraus, e)
        total = sum(w.values())
        for o, k in kraus.items():
            if w[o] <= 0.0:
                continue
            if w[o] <= total * 1e-12:
                return False
            amps = np.abs(k @ e) ** 2
            top = np.argsort(amps)[::-1]
            if top[0] != want or amps[top[0]] - amps[top[1]] <= margin * amps.sum():
                return False
    for (p, s), want in _ideal_bell_patterns().items():
        pattern, worst = bell_pattern(kraus, p, s)
        if pattern != want or worst <= margin:
            return False
    return True


@lru_cache(maxsize=1)
def _ideal_bell_patterns() -> dict[tuple[int, int], tuple[int, ...]]:
    ideal = ideal_kraus()
    return {(p, s): bell_pattern(ideal, p, s)[0] for p in range(4) for s in range(4)}


# -- recorded reference data ------------------------------------------------


@lru_cache(maxsize=1)
def reference() -> dict:
    """Digests and paper-point values recorded by record.py."""
    return json.loads((REFERENCE_DIR / "reference.json").read_text())


@lru_cache(maxsize=1)
def lattice_f_sim() -> np.ndarray:
    """Circuit-level F at every point of the standard 101x101 lattice, g-major."""
    with gzip.open(REFERENCE_DIR / "lattice_f_sim.json.gz", "rt") as fh:
        data = json.load(fh)
    return np.array(data["F_sim"], dtype=float).reshape(data["resolution"], data["resolution"])
