"""Traffic map: the statement lines of src/curvehull that no benchmark
workload runs.

    python3 tools/traffic.py

Runs round 0 of seed 0 of every workload in `bench/workloads.py` in this
process, the `cli` verbs through `Cli.run_in_process`, each case followed by
the workload's own output check.  A `sys.settrace` line tracer, restricted to
the files of src/curvehull, records the lines that ran; it is on before
`curvehull` is imported, so lines that run at import count as run.  A
statement line is a line that starts a statement and carries bytecode.  The
report gives, module by module, the statement lines that did not run, with
runs of consecutive statement lines joined as ranges, and ends with one
total line: the statement lines not run out of all of them, and the
physical line count of src/curvehull.  Standard library only, no options;
the workloads write only under `.bench_out/`.
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "curvehull"


class LineTracer:
    """A `sys.settrace` hook that records, per file under one directory,
    the lines that ran; frames of other files get no line events."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.ran = {}

    def calls(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        self.ran.setdefault(name, set())
        return self.lines

    def lines(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self.lines


def statement_lines(path: Path) -> list:
    """Sorted lines of path that start a statement and carry bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    with_code = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(starts & with_code)


def report(directory: Path, ran: dict) -> list:
    """One line per module of directory: its statement lines that are not in
    ran[path], runs of lines consecutive among the statement lines joined
    as "a-b"; then one total line over the modules, with their physical
    line count (as `wc -l` gives it)."""
    out = []
    missed_total = statements_total = lines_total = 0
    for path in sorted(directory.glob("*.py")):
        statements = statement_lines(path)
        lines_total += path.read_bytes().count(b"\n")
        hit = ran.get(str(path), set())
        missed = [k for k, line in enumerate(statements) if line not in hit]
        groups = []  # runs of consecutive indices into statements
        for k in missed:
            if groups and groups[-1][-1] == k - 1:
                groups[-1].append(k)
            else:
                groups.append([k])
        text = ", ".join(str(statements[g[0]]) if len(g) == 1
                         else f"{statements[g[0]]}-{statements[g[-1]]}" for g in groups)
        out.append(f"{path.name}: {len(missed)} of {len(statements)} statement lines not run"
                   + (f": {text}" if text else ""))
        missed_total += len(missed)
        statements_total += len(statements)
    out.append(f"total: {missed_total} of {statements_total} statement lines not run, "
               f"{lines_total} lines")
    return out


def main():
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    tracer = LineTracer(SRC)
    sys.settrace(tracer.calls)
    try:
        from workloads import WORKLOADS
        for name, cls in WORKLOADS.items():
            wl = cls()
            if name == "cli":
                wl.run = wl.run_in_process
            start = time.perf_counter()
            wl.setup()
            cases = wl.make_round(0, 0)
            failed = sum(not wl.check(case, wl.run(case)) for case in cases)
            print(f"{name}: {len(cases)} cases, {failed} failed their check, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        sys.settrace(None)
    print("\n".join(report(SRC, tracer.ran)))


if __name__ == "__main__":
    main()
