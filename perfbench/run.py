"""hypercnot benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes over one fixed
round of inputs and reports per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). The line before it carries the
run's metadata. See README.md in this directory.
"""

from __future__ import annotations

import os

# one process, no helper threads: fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pb_calibrate as calibrate  # noqa: E402
from pb_tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
# work between two calibration blocks in untraced runs
CALIBRATION_SEGMENT_S = 0.1
# spans kept in memory by one traced run (5 int64 columns each)
MAX_SPANS = 600_000


def git_revision(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def import_package():
    """Import hypercnot from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hypercnot" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'hypercnot'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import hypercnot

    if Path(hypercnot.__file__).resolve().parent != (src / "hypercnot").resolve():
        sys.exit(f"error: imported hypercnot from {hypercnot.__file__}, not {src}")
    return hypercnot


class WarningCounter:
    """Capture warnings and count them by kind instead of printing them."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._ctx = warnings.catch_warnings()

    def __enter__(self) -> "WarningCounter":
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.__exit__(*exc)

    def _count(self, message, category, *args, **kwargs) -> None:
        key = "side_leakage" if "kappa_s" in str(message) else category.__name__
        self.counts[key] = self.counts.get(key, 0) + 1

    @property
    def side_leakage(self) -> int:
        return self.counts.get("side_leakage", 0)


def setup_probe_seconds(args) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter to the end of its warm-up.

    Returns the wall times and the same in reference seconds.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    wall, blocks = [], [calibrate.block()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        wall.append(float(done.stdout.split()[-1]) - t0)
        blocks.append(calibrate.block())
    return wall, list(wall * calibrate.factors(blocks))


def run_rounds(rounds, tally, deadline: float) -> list[float]:
    """Whole rounds until the deadline, with a calibration block after every
    CALIBRATION_SEGMENT_S of work and at the end.

    Returns each op's reference-time factor.
    """
    blocks, per_op = [calibrate.block()], []
    segment_start = time.perf_counter()

    def close_segment() -> None:
        nonlocal segment_start
        blocks.append(calibrate.block())
        factor = calibrate.factors(blocks[-2:])[0]
        per_op.extend([factor] * (len(tally.elapsed_s) - len(per_op)))
        segment_start = time.perf_counter()

    while True:
        for op in next(rounds):
            tally.run(op)
            if time.perf_counter() - segment_start >= CALIBRATION_SEGMENT_S:
                close_segment()
        if time.perf_counter() >= deadline:
            if len(per_op) < len(tally.elapsed_s):
                close_segment()
            return per_op


def end_to_end(args, workload, counter) -> tuple[dict, dict, list]:
    from pb_workloads import Tally

    tally = Tally()
    rounds = workload.rounds(np.random.default_rng(args.seed))
    t0 = time.perf_counter()
    scale = np.array(run_rounds(rounds, tally, t0 + args.seconds))
    wall = time.perf_counter() - t0
    probes_wall, probes = setup_probe_seconds(args)

    raw = np.array(tally.elapsed_s)
    units = np.array(tally.units_per_op)
    verified = tally.units - tally.failed
    latency_ms = 1e3 * raw * scale / units
    p50, p90 = np.percentile(latency_ms, [50, 90])
    metrics = {
        "ops_per_s": (verified / float(np.sum(raw * scale)), "1/s"),
        "op_ms_p50": (float(p50), "ms"),
        "op_ms_p90": (float(p90), "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (verified / tally.units, "frac"),
    }
    raw_p50, raw_p90 = np.percentile(1e3 * raw / units, [50, 90])
    meta = {
        "loop_wall_s": wall,
        "latency_samples": len(latency_ms),
        "wall_clock": {
            "ops_per_s": verified / float(np.sum(raw)),
            "op_ms_p50": float(raw_p50),
            "op_ms_p90": float(raw_p90),
            "setup_s": statistics.median(probes_wall),
        },
        "reference_per_wall_second": float(np.sum(raw * scale) / np.sum(raw)),
    }
    return metrics, meta, [tally]


def per_layer(args, workload, counter) -> tuple[dict, dict, list]:
    from pb_workloads import Tally

    trace_set = next(workload.rounds(np.random.default_rng(args.seed)))
    plain, traced, tracer = Tally(), Tally(), Tracer()
    plain_ref = traced_ref = 0.0
    warned = passes = 0
    deadline = time.perf_counter() + args.seconds
    blocks = [calibrate.block()]
    while True:
        for op in trace_set:
            plain.run(op)
        blocks.append(calibrate.block())
        before, done = counter.side_leakage, len(traced.elapsed_s)
        with tracer:
            for op in trace_set:
                tracer.current_op += 1
                traced.run(op)
        blocks.append(calibrate.block())
        warned += counter.side_leakage - before
        passes += 1
        plain_f, traced_f = calibrate.factors(blocks[-3:])
        plain_ref += plain_f * sum(plain.elapsed_s[-len(trace_set):])
        traced_ref += traced_f * sum(traced.elapsed_s[done:])
        if time.perf_counter() >= deadline or len(tracer.start) >= MAX_SPANS:
            break
    summary = tracer.summary()
    groups, ops = summary["groups"], traced.units
    traced_raw = sum(traced.elapsed_s)
    # self times in reference seconds, at the traced passes' mean factor
    scale = traced_ref / traced_raw

    def calls(group: str) -> float:
        return groups.get(group, {}).get("calls", 0) / ops

    def self_s(group: str) -> float:
        return scale * groups.get(group, {}).get("self_s", 0.0) / ops

    count, secs = "count/op", "s/op"
    metrics = {
        "hilbert.apply_operator.calls": (calls("hilbert.apply_operator"), count),
        "hilbert.apply_operator.self_s": (self_s("hilbert.apply_operator"), secs),
        "hilbert.state_builds": (calls("hilbert.state_build"), count),
        "hilbert.state_build.self_s": (self_s("hilbert.state_build"), secs),
        "hilbert.measure.calls": (calls("hilbert.measure"), count),
        "hilbert.measure.self_s": (self_s("hilbert.measure"), secs),
        "hilbert.fidelity.calls": (calls("hilbert.fidelity"), count),
        "protocols.stage_matrix.builds": (calls("protocols.stage_matrix"), count),
        "protocols.stage_matrix.self_s": (self_s("protocols.stage_matrix"), secs),
        "protocols.gate.calls": (calls("protocols.gate"), count),
        "protocols.gate.self_s": (self_s("protocols.gate"), secs),
        "protocols.apps.self_s": (self_s("protocols.apps"), secs),
        "protocols.ideal_runs_per_point": (
            tracer.flagged["protocols.hyper_cnot_state"] / ops, count),
        "optics.calls": (calls("optics"), count),
        "optics.self_s": (self_s("optics"), secs),
        "cavity.calls": (calls("cavity"), count),
        "cavity.self_s": (self_s("cavity"), secs),
        "cavity.warnings": (warned / ops, count),
        "analysis.formula.calls": (calls("analysis.formula"), count),
        "analysis.formula.self_s": (self_s("analysis.formula"), secs),
        "analysis.simulate.self_s": (self_s("analysis.simulate"), secs),
        "analysis.sweep.self_s": (self_s("analysis.sweep"), secs),
        "cli.self_s": (self_s("cli"), secs),
        "cli.bytes_out": (traced.bytes_out / ops, "B/op"),
        "trace.overhead_frac": (traced_ref / plain_ref - 1, "frac"),
        "trace.unattributed_frac": ((traced_raw - summary["root"]["self_s"]) / traced_raw, "frac"),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}.npz"
    tracer.save(trace_file)
    trace_file.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    meta = {
        "passes": passes,
        "ops_per_pass": sum(op.units for op in trace_set),
        "spans": len(tracer.start),
        "untraced_failed": plain.failed,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "wall_clock_overhead_frac": traced_raw / sum(plain.elapsed_s) - 1,
    }
    return metrics, meta, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="sim_sweep, formula_sweep or gate_apps")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = import_package()
    from pb_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](OUT_DIR)
    with WarningCounter() as counter:
        workload.warm_up()
        if args.setup_probe:
            print(time.monotonic())
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, meta, tallies = measure(args, workload, counter)

    attempted = sum(t.units for t in tallies)
    failed = sum(t.failed for t in tallies)
    nproc = os.cpu_count() or 1
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_revision=git_revision(ROOT),
        src_sha256=source_digest(ROOT / "src"),
        hypercnot=package.__version__,
        python=platform.python_version(),
        numpy=np.__version__,
        nproc=nproc,
        blas_threads=min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
        ops_attempted=attempted,
        ops_failed=failed,
        fail_frac=failed / attempted,
        warnings=counter.counts,
        errors=[e for t in tallies for e in t.errors][:5],
    )
    if args.workload == "sim_sweep":
        meta["share_above_side_leakage_warning"] = workload.points_above_warning / workload.points
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
