"""Pin the output digests of the first rounds of every workload.

    python3 bench/record_digests.py [--seeds 20] [--workloads cofactor ...]

Writes bench/digests.json as {workload: {seed: {round: digest}}} for seeds
0..N-1 and each workload's first `pinned_rounds` rounds; with --workloads,
only those are re-recorded and the others are kept.  A run on a pinned
seed counts every case of a round whose digest differs as failed, so a change
to any exact output (polynomials, verdicts, SDPA or CLI JSON) fails the run.
Cases that fail their check are pinned too, and listed as they are recorded.
Re-record only for an intended output change.  CLI outputs are recorded
through `curvehull.cli.run` in this process; every benchmark run checks that
the subprocess prints the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import Runner  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads:
        wl = WORKLOADS[name]()
        if name == "cli":
            wl.run = wl.run_in_process
        wl.setup()
        pinned[name] = {}
        for seed in range(args.seeds):
            runner = Runner(wl, {})
            for r, cases in enumerate(wl.rounds(seed, wl.pinned_rounds)):
                runner.run_round(r, cases)
            pinned[name][str(seed)] = {str(k): v for k, v in runner.round_digests.items()}
            print(name, seed, *runner.errors, flush=True)
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
