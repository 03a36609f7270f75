"""Tests of the benchmark itself: inputs, tracing and the exact checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
from run import Runner  # noqa: E402
from workloads import OUT, WORKLOADS, support_defect_input  # noqa: E402
from curvehull import diagonal, multipoly  # noqa: E402
from curvehull.multipoly import MultiPoly  # noqa: E402


def cheap_cases(name, seed=0, count=None):
    """Cases of round 0 that take milliseconds (small n, no subprocess)."""
    wl = WORKLOADS[name]()
    cases = wl.make_round(seed, 0)
    if name == "cofactor":
        cases = [c for c in cases if c.n <= 2]
    elif name == "crossval":
        cases = [c for c in cases if c.n == 2]
    return wl, cases[:count]


@pytest.fixture(scope="module")
def cli_workload():
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS["cli"]()
    wl.run = wl.run_in_process
    wl.setup()
    return wl


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = WORKLOADS[name]()
    assert repr(wl.make_round(3, 0)) == repr(wl.make_round(3, 0))
    assert repr(wl.make_round(3, 0)) != repr(wl.make_round(4, 0))
    assert repr(wl.make_round(3, 0)) != repr(wl.make_round(3, 1))
    assert repr(wl.warmup_case(3)) == repr(wl.warmup_case(3))


@pytest.mark.parametrize("name", ["cofactor", "crossval", "extreme"])
def test_tracing_is_transparent_and_counts_repeat(name):
    wl, cases = cheap_cases(name)
    plain = Runner(wl, {})
    plain.run_round(0, cases)
    calls = []
    for _ in range(2):
        tracer = tracing.Tracer()
        runner = Runner(wl, {})
        tracer.install()
        try:
            runner.run_round(0, cases, tracer)
        finally:
            tracer.uninstall()
        assert not tracer.missing and runner.failed == 0
        assert runner.round_digests == plain.round_digests
        calls.append(dict(tracer.calls))
    assert calls[0] == calls[1] and sum(calls[0].values()) > 0


CALLED = {
    "cofactor": ("multipoly.poly_det", "multipoly.MultiPoly.exact_divide",
                 "schur.schur_via_tableaux", "diagonal.vandermonde_cofactor",
                 "diagonal.factor_taylor_determinant", "diagonal.SchurMonomialIdeal.contains"),
    "crossval": ("hull.cross_validate", "hull.finite_hull_membership",
                 "hull.support_min_exact", "hull.lmi_support_enclosure",
                 "lmi.lmi_membership", "linalg.psd_check_exact", "unipoly.isolate_roots"),
    "extreme": ("rays.extreme_candidate", "rays.zero_conditions_dim", "rays.verify_extreme",
                "rays.supporting_face_basis", "rays.interval_supported_divisor",
                "rays.validate_interval", "lmi.sosx_certificate", "sympy.factor_list",
                "linalg.det_frac", "linalg.nullspace_frac", "linalg.solve_frac",
                "unipoly.squarefree_decomposition", "unipoly.is_nonnegative_on",
                "unipoly.count_roots_interior"),
}


@pytest.mark.parametrize("name", sorted(CALLED))
def test_tracing_sees_the_calls_each_workload_makes(name):
    wl = WORKLOADS[name]()
    cases = [c for c in wl.make_round(0, 0) if c.n <= 4]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        Runner(wl, {}).run_round(0, cases, tracer)
    finally:
        tracer.uninstall()
    assert [n for n in CALLED[name] if tracer.calls[n] == 0] == []


def test_tracer_wraps_every_binding_and_restores_it():
    original = multipoly.poly_det
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert diagonal.poly_det is multipoly.poly_det is not original
        assert MultiPoly.exact_divide.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert diagonal.poly_det is multipoly.poly_det is original
    assert not hasattr(MultiPoly.exact_divide, "__wrapped__")


def test_tracer_reports_a_name_that_no_longer_resolves(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED",
                        tracing.TRACED + (("hull", ("no_such_function",)),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["hull.no_such_function"]
    metrics = tracer.metrics(1.0)
    assert metrics["hull.no_such_function.calls"] == (0, "count")


def test_repeat_counter_sees_every_binding():
    from curvehull import schur
    original = diagonal.schur_via_tableaux
    counter = tracing.RepeatCounter()
    counter.install()
    try:
        schur.schur_via_tableaux((2, 0))
        diagonal.schur_via_tableaux((3, 1, 0))
        diagonal.schur_via_tableaux((2, 0))
    finally:
        counter.uninstall()
    assert counter.report() == {"calls": 3, "distinct": 2, "repeat_ratio": 1 / 3,
                                "missing": False}
    assert diagonal.schur_via_tableaux is schur.schur_via_tableaux is original


def test_cofactor_check_rejects_a_changed_coefficient():
    wl, cases = cheap_cases("cofactor")
    for kind in ("det", "taylor"):
        case = next(c for c in cases if c.kind == kind and c.n == 2)
        result = wl.run(case)
        assert wl.check(case, result)
        terms = dict(result["cofactor"].terms)
        exp = next(iter(terms))
        terms[exp] += 1
        bad = dict(result, cofactor=MultiPoly(result["cofactor"].arity, terms))
        assert not wl.check(case, bad)


def test_crossval_check_rejects_a_flipped_verdict():
    wl, cases = cheap_cases("crossval")
    result = wl.run(cases[0])
    assert wl.check(cases[0], result)
    assert not wl.check(cases[0], dict(result, intersects=False))
    enc = result["curve_enclosure"]
    above = type(enc)(enc.lo + 1000, enc.hi + 1000)
    assert not wl.check(cases[0], dict(result, curve_enclosure=above))
    result = wl.run(cases[0])
    result["report"].failures.append("injected")
    assert not wl.check(cases[0], result)


def test_crossval_draws_no_functional_of_the_known_support_defect():
    wl = WORKLOADS["crossval"]()
    cases = [c for r in range(3) for c in wl.make_round(0, r)]
    assert not any(support_defect_input(c.params["l"], *c.params["interval"]) for c in cases)
    assert support_defect_input([F(0), F(0), F(1), F(4)], F(-1), F(1))
    assert not support_defect_input([F(1), F(2)], F(-1), F(1))


@pytest.mark.xfail(strict=True, reason="known defect: support_min_exact refines against the "
                   "undeflated derivative; crossval draws no such functional")
def test_support_min_exact_on_a_functional_the_crossval_workload_leaves_out():
    from curvehull import hull
    from curvehull.unipoly import Interval
    curve = hull.moment_curve(4, Interval(F(-1), F(1)))
    enc = hull.support_min_exact([0, 0, 1, 4], curve, F(1, 1000))
    assert enc.lo <= F(-27, 16384) <= enc.hi


def test_extreme_check_rejects_a_flipped_verdict():
    wl = WORKLOADS["extreme"]()
    case = next(c for c in wl.make_round(0, 0) if c.kind == "moment" and c.n == 4
                and all(b == 2 for b in c.params["mults"]))
    result = wl.run(case)
    assert wl.check(case, result)
    rep = result["report"]
    flipped = type(rep)(rep.nonneg, rep.zero_count, rep.face_dim, not rep.extreme)
    assert not wl.check(case, dict(result, report=flipped))
    assert not wl.check(case, dict(result, dim=2))
    shifted = result["candidate"] + F(1, 7)
    assert not wl.check(case, dict(result, candidate=shifted))


def test_cli_check_rejects_other_output(cli_workload):
    case = cli_workload.make_round(0, 0)[0]
    result = cli_workload.run_in_process(case)
    assert cli_workload.check(case, result)
    assert not cli_workload.check(case, dict(result, stdout=result["stdout"].replace("1", "2")))
    assert not cli_workload.check(case, dict(result, code=1))


def test_cli_subprocess_matches_in_process():
    wl = WORKLOADS["cli"]()
    case = wl.make_round(0, 0)[0]
    assert wl.check(case, wl.run(case))
    assert wl.child_maxrss_kb > 0


def test_failed_cases_are_counted():
    wl, cases = cheap_cases("extreme", count=4)
    runner = Runner(wl, {})
    run = wl.run

    def corrupt(case):
        result = run(case)
        if case is cases[1]:
            result = dict(result, dim=result["dim"] + 1)
        return result

    wl.run = corrupt
    runner.run_round(0, cases)
    assert runner.failed == 1 and len(runner.latencies) == len(runner.ratios) == 4
    assert all(r > 0 for r in runner.ratios) and len(runner.refs) == 5


def test_pinned_digest_mismatch_fails_the_round():
    wl, cases = cheap_cases("extreme", count=3)
    runner = Runner(wl, {"0": "0" * 16})
    runner.run_round(0, cases)
    assert runner.failed == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_zero_matches_pinned_digest(name, cli_workload):
    pinned = json.loads((HERE / "digests.json").read_text())[name]["0"]
    wl = cli_workload if name == "cli" else WORKLOADS[name]()
    runner = Runner(wl, pinned)
    runner.run_round(0, wl.make_round(0, 0))
    assert runner.failed == 0, runner.errors
    assert runner.round_digests[0] == pinned["0"]


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

