"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes ``perfbench/reference/reference.json`` (CSV digests of the
``formula_sweep`` configurations and the published benchmark points with
their circuit-level figures) and ``perfbench/reference/lattice_f_sim.json.gz``
(circuit-level F at every point of the standard 101x101 lattice; this takes
about a minute). Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hypercnot import analysis, cavity, cli  # noqa: E402

import pb_oracles as oracles  # noqa: E402
from pb_workloads import FORMULA_GAMMAS, GAMMA  # noqa: E402
from run import git_revision  # noqa: E402


def main() -> None:
    oracles.REFERENCE_DIR.mkdir(exist_ok=True)
    csv_path = ROOT / ".bench_build" / "perfbench" / "record.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for gamma in FORMULA_GAMMAS:
        cli.main(["sweep", "--gamma", gamma, "--out", str(csv_path)])
        digests[gamma] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    csv_path.unlink()

    paper = []
    for point in analysis.REFERENCE_POINTS:
        params = cavity.CavityParams(
            g=point.g_over_kappa, kappa_s=point.kappa_s_over_kappa, gamma=GAMMA
        )
        f_sim, eta_sim = analysis.simulated_performance(params)
        paper.append(
            {
                "g_over_kappa": point.g_over_kappa,
                "kappa_s_over_kappa": point.kappa_s_over_kappa,
                "F_published": point.fidelity,
                "eta_published": point.efficiency,
                "F_sim": f_sim,
                "eta_sim": eta_sim,
            }
        )
    revision = git_revision(ROOT)
    (oracles.REFERENCE_DIR / "reference.json").write_text(
        json.dumps(
            {
                "recorded_at": revision,
                "formula_sweep_sha256": digests,
                "paper_points": paper,
            },
            indent=2,
        )
        + "\n"
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = analysis.sweep((0.0, 3.0), (0.0, 2.0), 101, GAMMA, include_simulation=True)
    payload = {
        "recorded_at": revision,
        "resolution": 101,
        "g_range": [0.0, 3.0],
        "kappa_s_range": [0.0, 2.0],
        "gamma_over_kappa": GAMMA,
        "F_sim": [point.F_sim for point in result.grid],
    }
    with gzip.GzipFile(oracles.REFERENCE_DIR / "lattice_f_sim.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(payload).encode())


if __name__ == "__main__":
    main()
