"""The A/B harness: its verdict rules on synthetic runs, and one A/A run of a layer probe."""

import json
import sys
from pathlib import Path

import pytest

import ab

ROOT = Path(__file__).resolve().parent.parent


def _verdict(parent, change, better="lower", bound=0.25):
    return ab.summary(parent, change, better, bound)["verdict"]


def test_ties_count_for_neither_side():
    summary = ab.summary([10.0, 10.0, 12.0], [10.0, 11.0, 11.0], "lower", 0.25)
    assert summary["change_better_pairs"] == 1
    assert ab.summary([10.0] * 10, [10.0] * 10, "lower", None)["change_better_pairs"] == 0


def test_a_gain_needs_ten_pairs():
    parent, change = [100.0 + i % 3 for i in range(10)], [80.0 + i % 3 for i in range(10)]
    assert _verdict(parent, change) == "gain"
    assert _verdict(parent[:9], change[:9]) == "within bound"
    assert ab.summary(parent[:9], change[:9], "lower", None)["verdict"] == "no gain"


def test_a_gain_needs_nine_of_every_ten_pairs():
    parent = [100.0 + i for i in range(20)]
    change = [p - 30.0 for p in parent]
    two_lost = change[:18] + [200.0, 200.0]  # 18 of 20 won: 9 of every 10
    three_lost = change[:17] + [200.0] * 3  # 17 of 20
    assert _verdict(parent, two_lost, bound=None) == "gain"
    assert _verdict(parent, three_lost, bound=None) == "no gain"


def test_a_gain_needs_a_median_gap_wider_than_the_parents_iqr():
    parent = [100.0, 90.0, 110.0, 95.0, 105.0] * 2  # quartiles 95 and 105: IQR 10
    assert _verdict(parent, [p - 11.0 for p in parent]) == "gain"
    assert _verdict(parent, [p - 10.0 for p in parent]) == "within bound"
    # higher is better: the same rules with the sign turned
    assert _verdict(parent, [p + 11.0 for p in parent], better="higher") == "gain"


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    parent = [100.0, 101.0, 99.0]
    assert _verdict(parent, [126.0, 127.0, 125.0]) == "regression"
    assert _verdict(parent, [124.0, 125.0, 123.0]) == "within bound"
    assert _verdict(parent, [73.0, 74.0, 75.0], better="higher") == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_change_beats_every_run():
    # the setup_s case: one slow run spreads the parent's runs over 0.45 of their median
    parent = [0.0540, 0.0786, 0.0545, 0.0541, 0.0547]
    assert _verdict(parent, [0.0539, 0.0540, 0.0544, 0.0546, 0.0542]) == "unresolved"
    assert _verdict(parent, [0.0530, 0.0531, 0.0529, 0.0532, 0.0533]) == "within bound"


def test_an_a_a_run_keeps_the_sides_apart_and_claims_no_gain(monkeypatch, capsys):
    # the cheapest layer probe, this checkout given as both sides
    monkeypatch.setattr(sys, "argv", ["ab.py", str(ROOT), str(ROOT), "report", "--pairs", "1"])
    ab.main()
    record = json.loads(capsys.readouterr().out)["layer"]["report"]
    assert record["first"] == ["parent"]
    assert len(record["metrics"]) == 12  # 3 measures at 4 sizes
    for label, metric in record["metrics"].items():
        assert len(metric["parent"]["runs"]) == len(metric["change"]["runs"]) == 1, label
        assert metric["verdict"] == "no gain", label


def test_sides_with_different_benchmarks_are_refused(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "BENCHMARK.json").write_text("{}")
    (tmp_path / "change" / "bench" / "run.py").write_text("")
    with pytest.raises(SystemExit, match="bench/run.py"):
        ab.same_benchmark(tmp_path / "parent", tmp_path / "change")
