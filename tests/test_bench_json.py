import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def record(cases_per_ref, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"cases_per_ref": {"value": cases_per_ref, "unit": "1/ref"},
                        "setup_s": {"value": cases_per_ref / 10, "unit": "s"}}}


def test_medians_over_the_good_runs_of_each_workload(tmp_path, monkeypatch):
    values = {"fast": [0.5, 0.3, 0.4], "slow": [0.2, None, 0.1]}
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((workload, seed))
        v = values[workload][seed - bench_json.SEEDS[0]]
        return record(v) if v is not None else record(0.9, correct=False)

    monkeypatch.setattr(bench_json, "run_once", fake_run)
    monkeypatch.setattr(bench_json, "ROOT", tmp_path)
    monkeypatch.setattr(bench_json, "tier1", lambda root: {
        "command": "pytest", "wall_s": 80.5, "exit_code": 0, "summary": "3 passed"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "fast"}, {"name": "slow"}]}))
    out = tmp_path / "BENCH.json"
    # the failed run is left out of the medians and fails the tool
    assert bench_json.main(["--out", str(out)]) == 1
    assert calls == [(w, s) for w in ("fast", "slow") for s in bench_json.SEEDS]
    data = json.loads(out.read_text())
    assert data["nproc"] == os.cpu_count() and data["python"].count(".") == 2
    assert data["seeds"] == list(bench_json.SEEDS) and data["tier1"]["wall_s"] == 80.5
    fast = data["workloads"]["fast"]
    assert (fast["runs"], fast["good_runs"]) == (3, 3)
    assert fast["metrics"]["cases_per_ref"] == {"unit": "1/ref", "median": 0.4, "q1": 0.35,
                                                "q3": 0.45, "values": [0.5, 0.3, 0.4]}
    slow = data["workloads"]["slow"]
    assert (slow["runs"], slow["good_runs"]) == (3, 2)
    assert slow["metrics"]["cases_per_ref"]["median"] == 0.15000000000000002
    assert slow["metrics"]["setup_s"]["values"] == [0.02, 0.01]


def test_a_clean_record_exits_0(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_json, "run_once", lambda checkout, workload, seed: record(0.3))
    monkeypatch.setattr(bench_json, "ROOT", tmp_path)
    monkeypatch.setattr(bench_json, "tier1", lambda root: {
        "command": "pytest", "wall_s": 1.0, "exit_code": 0, "summary": "1 passed"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}]}))
    assert bench_json.main(["--out", str(tmp_path / "b.json")]) == 0
    monkeypatch.setattr(bench_json, "tier1", lambda root: {
        "command": "pytest", "wall_s": 1.0, "exit_code": 1, "summary": "1 failed"})
    assert bench_json.main(["--out", str(tmp_path / "b.json")]) == 1


def test_tier1_reports_the_suites_last_line(tmp_path, monkeypatch):
    (tmp_path / "test_one.py").write_text("def test_one():\n    assert True\n")
    monkeypatch.setattr(bench_json, "TIER1", bench_json.TIER1[:4] + ["-p", "no:cacheprovider"])
    suite = bench_json.tier1(tmp_path)
    assert suite["exit_code"] == 0 and suite["summary"].startswith("1 passed")
    assert suite["wall_s"] > 0
