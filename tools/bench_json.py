"""One benchmark record of this checkout, written as JSON.

    python3 tools/bench_json.py --out BENCH_<n>.json

Runs `bench/run.py --workload W --seconds 25 --trace 0` RUNS times for every
workload of `BENCHMARK.json`, on the fixed seeds SEEDS (the same for every
workload and every checkout, so that records of successive changes compare),
through `tools/pairs.py`'s `run_once`.  For each workload it records each
metric's median and quartiles over the runs that were `correct` with no
failed case, the values themselves, and how many runs counted.  It also
records `nproc`, the interpreter's version and the wall time of the Tier-1
suite (`python -m pytest -q --continue-on-collection-errors` with `src` on
PYTHONPATH) with its exit code and summary line.  Runs are sequential, one
process at a time.  Exits 1 if any run or the suite failed; the record is
written either way.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import SECONDS, ok, quartiles, run_once  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
SEEDS = tuple(range(9100, 9100 + RUNS))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1(root: Path) -> dict:
    """Wall time, exit code and last output line of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": " ".join(["python", *TIER1[1:]]), "wall_s": round(wall, 3),
            "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def workload_record(records) -> dict:
    """Median, quartiles and values of each metric over the good records."""
    good = [r for r in records if ok(r)]
    metrics = {}
    for name in (good[0]["metrics"] if good else ()):
        values = [r["metrics"][name]["value"] for r in good]
        q1, median, q3 = quartiles(sorted(values))
        metrics[name] = {"unit": good[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "values": values}
    return {"runs": len(records), "good_runs": len(good), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = {}
    for name in names:
        records = []
        for seed in SEEDS:
            records.append(run_once(ROOT, name, seed))
            print(f"{name} seed {seed}: {'ok' if ok(records[-1]) else 'FAILED'}", flush=True)
        workloads[name] = workload_record(records)
    suite = tier1(ROOT)
    print(f"tier-1: {suite['summary']} in {suite['wall_s']} s", flush=True)
    out = {"nproc": os.cpu_count(), "python": platform.python_version(), "seeds": list(SEEDS),
           "seconds_per_run": SECONDS, "workloads": workloads, "tier1": suite}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    good = all(w["good_runs"] == w["runs"] for w in workloads.values())
    return 0 if good and suite["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
