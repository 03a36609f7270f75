import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"
spec = importlib.util.spec_from_file_location("traffic", TOOL)
traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic)

PROBE = '''\
def used(x):
    if x:
        return 1
    return 2


def unused():
    a = 1
    b = 2
    return a + b
'''


def test_report_lists_the_statement_lines_that_did_not_run(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(PROBE)
    assert traffic.statement_lines(path) == [1, 2, 3, 4, 7, 8, 9, 10]
    tracer = traffic.LineTracer(tmp_path)
    spec = importlib.util.spec_from_file_location("probe", path)
    probe = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    sys.settrace(tracer.calls)
    try:
        spec.loader.exec_module(probe)
        assert probe.used(1) == 1
    finally:
        sys.settrace(previous)
    assert traffic.report(tmp_path, tracer.ran) == [
        "probe.py: 4 of 8 statement lines not run: 4, 8-10",
        "total: 4 of 8 statement lines not run, 10 lines"]
    assert traffic.report(tmp_path, {}) == [
        "probe.py: 8 of 8 statement lines not run: 1-10",
        "total: 8 of 8 statement lines not run, 10 lines"]


def test_the_total_line_sums_the_modules(tmp_path):
    (tmp_path / "probe.py").write_text(PROBE)
    (tmp_path / "other.py").write_text("x = 1\n\n\ny = 2\n")
    lines = traffic.report(tmp_path, {str(tmp_path / "probe.py"): {1, 2, 3}})
    assert lines == ["other.py: 2 of 2 statement lines not run: 1-4",
                     "probe.py: 5 of 8 statement lines not run: 4-10",
                     "total: 7 of 10 statement lines not run, 14 lines"]
