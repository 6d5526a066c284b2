"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload gate_apps --pairs 10 --seconds 30

Each pair runs the benchmark command of BENCHMARK.json with ``--workload W
--seed S --seconds T --trace 0`` once in each checkout, one process at a
time, both sides at the pair's seed. The side that runs first swaps from
one pair to the next. Every run's last line of standard output is its
result, one JSON object. For each end-to-end metric of BENCHMARK.json the
script prints every run, the parent's median and quartiles, the change's
median, and how many pairs the change wins in the metric's direction. It
also prints the two numbers a claimed gain is judged on: the change's
median relative to the parent's, and the parent's interquartile range
relative to its median. Then come the metric's no-regression verdict
against its ``bound`` in BENCHMARK.json: "beyond bound", "unresolved" or
"within bound" (see ``verdict``), and its gain verdict, whether a claimed
gain on it is "met" or "not met" (see ``gain``). A run that fails or
reports ``correct`` false is flagged, its metrics are left out, and the
script exits with status 1; the verdicts do not change the exit status.

The metric names, their directions and the command are read from this
checkout's BENCHMARK.json; nothing is written to either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(
    parent: list[dict | None], change: list[dict | None], metrics: list[dict]
) -> list[dict]:
    """Per metric, the comparison of paired runs.

    ``parent[i]`` and ``change[i]`` are pair i's results, the last JSON line
    of run.py, or None for a run that gave none. ``metrics`` are the
    end_to_end entries of BENCHMARK.json. Each summary holds the metric's
    name, unit and direction, both sides' values per pair (None where a run
    failed or was not correct), the parent's median and quartiles (linear
    interpolation, numpy's default), the change's median, the pairs both
    sides completed, and how many of them the change wins: strictly better
    in the metric's direction. ``median_shift`` is the change's median over
    the parent's, minus 1, and ``parent_spread`` the parent's interquartile
    range over its median; each is None where a median or a quartile is.
    ``verdict`` is the metric's no-regression verdict at its ``bound``, and
    ``gain`` its gain verdict.
    """

    def value(result: dict | None, name: str) -> float | None:
        if result is None or not result.get("correct"):
            return None
        metric = result["metrics"].get(name)
        return None if metric is None else metric["value"]

    summaries = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [value(result, name) for result in parent]
        b = [value(result, name) for result in change]
        done = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
        wins = sum(y > x if higher else y < x for x, y in done)
        kept_a = [x for x in a if x is not None]
        kept_b = [y for y in b if y is not None]
        q1 = q3 = None
        if len(kept_a) >= 2:
            q1, _, q3 = statistics.quantiles(kept_a, n=4, method="inclusive")
        median_a = statistics.median(kept_a) if kept_a else None
        median_b = statistics.median(kept_b) if kept_b else None
        shift = median_b / median_a - 1 if median_a and median_b is not None else None
        spread = (q3 - q1) / median_a if median_a and q1 is not None else None
        apart = bool(kept_a and kept_b) and (
            min(kept_b) > max(kept_a) if higher else max(kept_b) < min(kept_a)
        )
        summaries.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": a,
            "change": b,
            "parent_median": median_a,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": median_b,
            "pairs": len(done),
            "wins": wins,
            "median_shift": shift,
            "parent_spread": spread,
            "bound": metric["bound"],
            "verdict": verdict(shift, spread, metric["bound"], higher, apart),
            "gain": gain(shift, spread, wins, len(done), higher),
        })
    return summaries


def verdict(
    shift: float | None, spread: float | None, bound: float, higher: bool, apart: bool
) -> str | None:
    """A metric's no-regression verdict at its relative ``bound``.

    "beyond bound" where the change's median is worse than the parent's by
    more than ``bound`` (``shift`` is the change's median over the parent's,
    minus 1); else "unresolved" where the parent's ``spread`` (its IQR over
    its median) exceeds ``bound`` or is unknown, unless ``apart``: every
    change run better than every parent run; else "within bound". None
    without a shift to judge.
    """
    if shift is None:
        return None
    if (-shift if higher else shift) > bound:
        return "beyond bound"
    if (spread is None or spread > bound) and not apart:
        return "unresolved"
    return "within bound"


def gain(shift: float | None, spread: float | None, wins: int, pairs: int, higher: bool) -> str | None:
    """Whether a claimed gain on a metric is "met" or "not met".

    Met where the change wins at least 9 of every 10 of the ``pairs`` both
    sides completed, ties counting for neither, and its median beats the
    parent's in the metric's direction by more than the parent's ``spread``
    (its IQR over its median; ``shift`` is the change's median over the
    parent's, minus 1). None without a completed pair, a shift or a spread
    to judge.
    """
    if not pairs or shift is None or spread is None:
        return None
    gained = shift if higher else -shift
    return "met" if 10 * wins >= 9 * pairs and gained > spread else "not met"


def flagged(parent: list[dict | None], change: list[dict | None]) -> list[str]:
    """One line per run that gave no result or reported ``correct`` false."""
    lines = []
    for side, results in (("parent", parent), ("change", change)):
        for i, result in enumerate(results):
            if result is None:
                lines.append(f"pair {i}: {side} run gave no result")
            elif not result.get("correct"):
                lines.append(f"pair {i}: {side} run not correct ({result.get('failed')} failed)")
    return lines


def _number(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def _percent(x: float | None) -> str:
    return "-" if x is None else f"{100 * x:+.2f}%"


def render(summaries: list[dict]) -> str:
    lines = []
    for s in summaries:
        lines.append(f"{s['name']} ({s['unit']}, {s['better']} is better)")
        lines.append("  parent: " + " ".join(_number(x) for x in s["parent"]))
        lines.append("  change: " + " ".join(_number(x) for x in s["change"]))
        lines.append(
            f"  parent median {_number(s['parent_median'])}"
            f" [q1 {_number(s['parent_q1'])}, q3 {_number(s['parent_q3'])}];"
            f" change median {_number(s['change_median'])};"
            f" change wins {s['wins']} of {s['pairs']} pairs"
        )
        lines.append(
            f"  change median vs parent median {_percent(s['median_shift'])};"
            f" parent IQR / parent median {_percent(s['parent_spread'])}"
        )
        lines.append(f"  no-regression verdict at bound {s['bound']:.0%}: {s['verdict'] or '-'}")
        lines.append(
            "  gain verdict (wins >= 9/10 of pairs, median shift beyond parent IQR / median):"
            f" {s['gain'] or '-'}"
        )
    return "\n".join(lines)


def run_once(command: list[str], checkout: Path, args, seed: int) -> dict | None:
    """One benchmark run in a checkout: its last JSON line, or None."""
    options = ["--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds)]
    done = subprocess.run(
        command + options + ["--trace", "0"], cwd=checkout, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--first-seed", type=int, default=1, help="pair i runs at this seed + i")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [("parent", args.parent, parent), ("change", args.change, change)]
        for name, checkout, results in sides if i % 2 == 0 else sides[::-1]:
            results.append(run_once(benchmark["command"], checkout, args, seed))
            print(f"pair {i} seed {seed}: {name} done", file=sys.stderr, flush=True)
    print(render(summarize(parent, change, benchmark["end_to_end"])))
    flags = flagged(parent, change)
    for line in flags:
        print("FLAGGED:", line)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
