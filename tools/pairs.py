"""Parent/change pairs of benchmark runs, summarized metric by metric.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S

Runs `bench/run.py --workload W --seconds 25 --trace 0` once in each
checkout for every seed S..S+N-1, one pair per seed, alternating which side
runs first (the parent on even pairs), so that drift in machine speed favours
neither side.  Each checkout runs its own `bench/run.py` with the same
interpreter.  For every end-to-end metric of `BENCHMARK.json` (read from
the repository this tool sits in) it prints each side's median and
quartiles, the parent's interquartile range, and the pairs the change wins
out of N in the metric's "better" direction; ties count for neither side.
A gain may be claimed when the change wins at least nine tenths of the
pairs and the medians differ, in its favour, by more than the parent's
interquartile range: such a metric is marked "gain".  With the metric's
relative `bound`, a change median worse than the parent's by more than
bound * |parent median| is marked "regression"; a parent interquartile
range wider than that amount, unless every change run beats every parent
run, is marked "unresolved": the runs spread too widely to tell a
regression from noise.  A gain or a regression needs ten pairs: on fewer,
either reads "too few pairs".  Other metrics read "no claim".  Exits 1 if
any run was not `correct`, had a failed case or printed no result.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
CLAIM_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int):
    """The result record (the last stdout line of `bench/run.py`) of one run
    in checkout, or None if the run exited nonzero or printed none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def ok(record) -> bool:
    return record is not None and record["correct"] and record["failed"] == 0


def quartiles(values):
    """(q1, median, q3), inclusive quartiles; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, end_to_end) -> list:
    """One line per end-to-end metric over pairs [(parent, change)] of
    result records; a pair with a failed side is left out."""
    out = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if ok(p) and ok(c)]
        if not both:
            out.append(f"{name}: no pair")
            continue
        ps, cs = sorted(p for p, _ in both), sorted(c for _, c in both)
        parent, change = quartiles(ps), quartiles(cs)
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        better = parent[1] - change[1] if lower else change[1] - parent[1]
        tolerance = spec["bound"] * abs(parent[1])
        beats_all = cs[-1] < ps[0] if lower else cs[0] > ps[-1]
        if -better > tolerance:
            verdict = "regression" if len(both) >= CLAIM_PAIRS else "too few pairs"
        elif better > parent[2] - parent[0] and 10 * wins >= 9 * len(both):
            verdict = "gain" if len(both) >= CLAIM_PAIRS else "too few pairs"
        elif parent[2] - parent[0] > tolerance and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "no claim"
        out.append(f"{name} ({spec['unit']}, {spec['better']} is better): "
                   f"parent {parent[1]:.6g} [{parent[0]:.6g}, {parent[2]:.6g}], "
                   f"change {change[1]:.6g} [{change[0]:.6g}, {change[2]:.6g}], "
                   f"parent IQR {parent[2] - parent[0]:.6g}, "
                   f"change better in {wins}/{len(both)}: {verdict}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        record = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            record[side] = run_once(sides[side], args.workload, seed)
            values = ({k: round(v["value"], 6) for k, v in record[side]["metrics"].items()}
                      if record[side] else "no result")
            state = "ok" if ok(record[side]) else "FAILED"
            print(f"pair {i + 1} seed {seed} {side}: {state} {values}", flush=True)
        pairs.append((record["parent"], record["change"]))
    print("\n".join(summarize(pairs, end_to_end)))
    return 0 if all(ok(p) and ok(c) for p, c in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
