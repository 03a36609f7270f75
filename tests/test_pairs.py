import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [{"name": "cases_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.2},
              {"name": "case_p50_ref", "unit": "ref", "better": "lower", "bound": 0.2}]


def record(cases_per_ref, p50, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"cases_per_ref": {"value": cases_per_ref, "unit": "1/ref"},
                        "case_p50_ref": {"value": p50, "unit": "ref"}}}


def test_summary_reads_the_better_direction_and_counts_no_ties():
    runs = [(record(0.60 + k / 100, 1.30), record(0.70 + k / 100, 1.30 - (k % 2) / 10))
            for k in range(10)]
    throughput, p50 = pairs.summarize(runs, END_TO_END)
    # change better in every pair, medians 0.645 -> 0.745, parent IQR 0.045
    assert throughput == ("cases_per_ref (1/ref, higher is better): parent 0.645 "
                          "[0.6225, 0.6675], change 0.745 [0.7225, 0.7675], "
                          "parent IQR 0.045, change better in 10/10: gain")
    # five ties count for neither side, and 5/10 wins make no claim
    assert p50.endswith("change better in 5/10: no claim")
    assert "parent 1.3 [1.3, 1.3], change 1.25 [1.2, 1.3]" in p50


def test_nine_of_ten_and_a_median_shift_beyond_the_parents_iqr():
    nine = [(record(0.60, 1.0), record(0.70, 1.0)) for _ in range(9)]
    lost = [(record(0.60, 1.0), record(0.50, 1.0))]
    assert pairs.summarize(nine + lost, END_TO_END)[0].endswith("9/10: gain")
    eight = nine[:8] + lost * 2
    assert pairs.summarize(eight, END_TO_END)[0].endswith("8/10: no claim")
    # wins in every pair, but within the parent's spread, which is wider than
    # the bound (IQR 0.15 > 0.2 * 0.65): unresolved
    spread = [(record(0.5 + k / 10, 1.0), record(0.51 + k / 10, 1.0)) for k in range(4)]
    assert pairs.summarize(spread, END_TO_END)[0].endswith("4/4: unresolved")


def test_a_gain_needs_ten_pairs():
    won = [(record(0.60 + k / 100, 1.0), record(0.80 + k / 100, 1.0)) for k in range(10)]
    for count, verdict in ((10, "gain"), (9, "too few pairs"), (4, "too few pairs")):
        line = pairs.summarize(won[:count], END_TO_END)[0]
        assert line.endswith(f"change better in {count}/{count}: {verdict}")


def test_a_regression_needs_ten_pairs():
    lost = [(record(0.6, 1.0), record(0.4, 1.0))] * 10
    for count, verdict in ((10, "regression"), (9, "too few pairs"), (4, "too few pairs")):
        line = pairs.summarize(lost[:count], END_TO_END)[0]
        assert line.endswith(f"change better in 0/{count}: {verdict}")


def test_a_median_worse_beyond_the_bound_is_a_regression():
    # 0.60 -> 0.47 is worse by 0.13 > 0.2 * 0.60; 1.0 -> 1.21 by 0.21 > 0.2 * 1.0
    worse = [(record(0.60, 1.0), record(0.47, 1.21)) for _ in range(10)]
    assert [line.split(": ")[-1] for line in pairs.summarize(worse, END_TO_END)] == [
        "regression", "regression"]
    # 0.60 -> 0.49 and 1.0 -> 1.19 stay within the bound
    within = [(record(0.60, 1.0), record(0.49, 1.19)) for _ in range(10)]
    assert [line.split(": ")[-1] for line in pairs.summarize(within, END_TO_END)] == [
        "no claim", "no claim"]


def test_a_wide_parent_spread_is_resolved_when_every_change_run_wins():
    # parent IQR 0.3 > 0.2 * 0.65, and the median shift 0.16 is inside it
    wide = [(record(0.5 + 0.3 * (k // 2), 1.0), record(0.81, 1.0)) for k in range(4)]
    assert pairs.summarize(wide, END_TO_END)[0].endswith("4/4: no claim")
    slower = wide[:3] + [(record(0.8, 1.0), record(0.79, 1.0))]
    assert pairs.summarize(slower, END_TO_END)[0].endswith("3/4: unresolved")


def test_failed_runs_leave_their_pair_out_and_fail_the_tool(tmp_path, monkeypatch):
    results = {"parent": [record(0.6, 1.0), record(0.6, 1.0, correct=False)],
               "change": [record(0.7, 0.9), record(0.7, 0.9)]}
    order = []

    def fake_run(checkout, workload, seed):
        order.append((checkout.name, seed))
        return results[checkout.name][seed - 5]

    monkeypatch.setattr(pairs, "run_once", fake_run)
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "extreme", "--pairs", "2", "--seed", "5"]) == 1
    # alternated: the parent first on the first pair, the change on the second
    assert order == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    assert pairs.ok(record(0.6, 1.0)) and not pairs.ok(None)
    assert not pairs.ok(record(0.6, 1.0, failed=1))
    line = pairs.summarize(list(zip(results["parent"], results["change"])), END_TO_END)[0]
    # only the first pair counts, and one pair is too few for a gain
    assert line.endswith("change better in 1/1: too few pairs")


@pytest.mark.parametrize("stdout, code, expected", [
    ("metric 1\n" + json.dumps(record(0.5, 1.0)) + "\n", 0, record(0.5, 1.0)),
    ("metric 1\n", 0, None), ("", 0, None),
    (json.dumps(record(0.5, 1.0)) + "\n", 2, None)])
def test_a_run_is_its_last_json_line(tmp_path, stdout, code, expected):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({code})\n")
    assert pairs.run_once(tmp_path, "extreme", 1) == expected


def test_the_metrics_come_from_the_benchmark_declaration():
    declared = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert [m["name"] for m in declared] == ["setup_s", "cases_per_ref", "case_p50_ref",
                                             "case_p90_ref", "peak_rss_mb"]
