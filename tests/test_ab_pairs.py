"""The A/B summary of scripts/ab_pairs.py, on synthetic run results."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
]


def result(ops_per_s, op_ms_p90, correct=True):
    return {
        "correct": correct,
        "failed": 0 if correct else 1,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_p90": {"value": op_ms_p90, "unit": "ms"},
        },
    }


def test_summary_reads_medians_quartiles_and_wins_in_each_direction():
    parent = [result(*run) for run in [(100, 1.0), (110, 0.9), (120, 1.1), (130, 1.2), (140, 1.0)]]
    change = [result(*run) for run in [(105, 0.9), (108, 0.8), (125, 1.1), (135, 1.3), (150, 0.7)]]
    ops, p90 = ab_pairs.summarize(parent, change, METRICS)
    assert ops["parent"] == [100, 110, 120, 130, 140]
    assert (ops["parent_median"], ops["parent_q1"], ops["parent_q3"]) == (120, 110, 130)
    assert ops["change_median"] == 125
    assert (ops["wins"], ops["pairs"]) == (4, 5)
    # lower is better: pairs 0, 1 and 4 are won, pair 2 is a tie, pair 3 lost
    assert p90["parent_median"] == 1.0
    assert p90["parent_q1"] == pytest.approx(1.0) and p90["parent_q3"] == pytest.approx(1.1)
    assert p90["change_median"] == 0.9
    assert (p90["wins"], p90["pairs"]) == (3, 5)
    # the two numbers a claimed gain is judged on
    assert ops["median_shift"] == pytest.approx(5 / 120)
    assert ops["parent_spread"] == pytest.approx(20 / 120)
    assert p90["median_shift"] == pytest.approx(-0.1)
    assert p90["parent_spread"] == pytest.approx(0.1)
    text = ab_pairs.render([ops, p90])
    assert "change median vs parent median +4.17%; parent IQR / parent median +16.67%" in text
    assert "change median vs parent median -10.00%; parent IQR / parent median +10.00%" in text


def test_failed_and_incorrect_runs_are_flagged_and_left_out():
    parent = [result(100, 1.0), None, result(120, 1.0)]
    change = [result(90, 1.1), result(130, 0.5), result(999, 0.1, correct=False)]
    (ops,) = ab_pairs.summarize(parent, change, METRICS[:1])
    assert ops["parent"] == [100, None, 120]
    assert ops["change"] == [90, 130, None]
    assert (ops["wins"], ops["pairs"]) == (0, 1)
    assert ops["parent_median"] == 110 and ops["change_median"] == 110
    assert ab_pairs.flagged(parent, change) == [
        "pair 1: parent run gave no result",
        "pair 2: change run not correct (1 failed)",
    ]
    text = ab_pairs.render([ops])
    assert "parent: 100 - 120" in text
    assert "change wins 0 of 1 pairs" in text
    # quartiles 105 and 115 of the two parent runs kept
    assert ops["median_shift"] == 0 and ops["parent_spread"] == pytest.approx(10 / 110)


def test_shift_and_spread_are_absent_without_the_runs_they_need():
    # one parent run has no quartiles; no correct change run has no median
    (ops,) = ab_pairs.summarize([result(100, 1.0)], [result(90, 1.0)], METRICS[:1])
    assert ops["median_shift"] == pytest.approx(-0.1)
    assert ops["parent_spread"] is None
    (ops,) = ab_pairs.summarize([result(100, 1.0)] * 2, [None, None], METRICS[:1])
    assert (ops["median_shift"], ops["parent_spread"]) == (None, 0)
    assert "change median vs parent median -; parent IQR / parent median +0.00%" in ab_pairs.render([ops])


@pytest.mark.parametrize("incorrect", [None, 3], ids=["all-correct", "one-incorrect"])
def test_exit_status_is_1_when_any_run_is_flagged(incorrect, monkeypatch, capsys):
    calls = []

    def run_once(command, checkout, args, seed):
        calls.append((checkout, seed))
        return result(100, 1.0, correct=len(calls) != incorrect)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    status = ab_pairs.main(["parent", "change", "--workload", "gate_apps", "--pairs", "2"])
    out = capsys.readouterr().out
    # the side that runs first alternates: pair 1 runs the change first
    assert [(checkout.name, seed) for checkout, seed in calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2)
    ]
    if incorrect is None:
        assert status == 0 and "FLAGGED" not in out
    else:
        assert status == 1
        assert "FLAGGED: pair 1: change run not correct (1 failed)" in out


@pytest.mark.parametrize(
    "parent_ops,change_ops,expected",
    [
        # 25% slower against a 20% bound, however tight the parent's runs
        ([100, 100, 100, 100, 100], [75, 76, 74, 75, 75], "beyond bound"),
        # 2% slower, parent IQR 2% of its median
        ([100, 101, 102, 103, 104], [100, 99, 100, 101, 98], "within bound"),
        # no shift, but the parent's IQR is 40% of its median
        ([60, 80, 100, 120, 140], [90, 110, 100, 95, 105], "unresolved"),
        # as wide, but every change run beats every parent run
        ([60, 80, 100, 120, 140], [150, 160, 170, 155, 165], "within bound"),
        # one change run at or below the best parent run leaves it unresolved
        ([60, 80, 100, 120, 140], [140, 160, 170, 155, 165], "unresolved"),
    ],
)
def test_each_metric_gets_its_no_regression_verdict(parent_ops, change_ops, expected):
    parent = [result(ops, 1.0) for ops in parent_ops]
    change = [result(ops, 1.0) for ops in change_ops]
    ops, p90 = ab_pairs.summarize(parent, change, METRICS)
    assert ops["verdict"] == expected
    assert p90["verdict"] == "within bound"
    assert f"no-regression verdict at bound 20%: {expected}" in ab_pairs.render([ops])


def test_verdict_follows_the_metric_direction_and_the_runs_it_has():
    parent = [result(100, p90) for p90 in (1.0, 1.0, 1.1, 1.1)]
    # lower is better: 30% more time is beyond the 25% bound, 30% less is not
    (_, worse) = ab_pairs.summarize(parent, [result(100, 1.365)] * 4, METRICS)
    (_, better) = ab_pairs.summarize(parent, [result(100, 0.735)] * 4, METRICS)
    assert (worse["verdict"], better["verdict"]) == ("beyond bound", "within bound")
    (ops,) = ab_pairs.summarize(parent, [None] * 4, METRICS[:1])
    assert ops["verdict"] is None
    assert "no-regression verdict at bound 20%: -" in ab_pairs.render([ops])
    # one parent run has no spread to judge against, unless the runs are apart
    (ops,) = ab_pairs.summarize(parent[:1], [result(99, 1.0)], METRICS[:1])
    (apart,) = ab_pairs.summarize(parent[:1], [result(101, 1.0)], METRICS[:1])
    assert (ops["verdict"], apart["verdict"]) == ("unresolved", "within bound")
