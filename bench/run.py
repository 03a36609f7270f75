"""curvehull benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload cofactor --seed 1 --seconds 25 --trace 0

One caller runs one case at a time and waits for it (no threads; the `cli`
workload has at most one child process at a time).  With --trace 0 the run
measures the end-to-end metrics; with --trace 1 it runs a fixed number of
rounds with every traced layer wrapped, replays the same cases untraced for
the overhead ratio, and reports the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it give every metric by name and unit, the run metadata and
the output digests.  Run from the repository root; inputs come from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
CLI_PROBES = 3
IMPORT_CLI = [sys.executable, "-c", "import curvehull.cli"]
_rng = random.Random(0)
REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)]
                    for _ in range(9)]


def reference_seconds():
    """Time of the reference task: exact elimination of a fixed 9 x 9 rational
    matrix with the standard library's Fraction, which no curvehull change can
    touch.  It takes about 2 ms; its time is the unit `ref`."""
    t0 = perf_counter()
    a = [row[:] for row in REFERENCE_MATRIX]
    for c in range(len(a)):
        p = next(r for r in range(c, len(a)) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, run the warm-up case, print 'ready' and exit")
    return ap.parse_args(argv)


class Runner:
    """Runs cases of one workload, checks them and keeps per-case records."""

    def __init__(self, workload, pinned):
        self.workload = workload
        self.pinned = pinned
        self.latencies = []
        self.ratios = []  # each latency in units of the reference task (`ref`)
        self.refs = []
        self.kinds = []
        self.failed = 0
        self.errors = []
        self.round_digests = {}

    def run_case(self, case, tracer=None):
        """Returns (seconds in the code under test, output digest, check ok).
        The digest covers the output even when the check fails, so a pinned
        round also pins the wrong outputs of a known defect."""
        if tracer is not None:
            tracer.case = case.cid
            tracer.active = True
        t0 = perf_counter()
        try:
            result = self.workload.run(case)
        except Exception as exc:  # a raising case is a failed case, not a crash
            self.errors.append(f"{case.cid} {case.kind}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0, "raised", False
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = perf_counter() - t0
        try:
            digest = self.workload.digest(case, result)
            ok = self.workload.check(case, result)
        except Exception as exc:  # an output of the wrong shape fails its check
            self.errors.append(f"{case.cid} {case.kind}: unreadable output: "
                               f"{type(exc).__name__}: {exc}")
            return elapsed, "unreadable", False
        if not ok:
            self.errors.append(f"{case.cid} {case.kind}: output check failed")
        return elapsed, digest, ok

    def run_round(self, index, cases, tracer=None):
        """Runs the cases one after another, timing the reference task before
        the first and after each one.  A case's latency is also kept as a
        multiple of the median of the (up to) four reference times nearest
        to it, two before and two after: this cancels the speed of the
        machine at that moment, which drifts by tens of percent over seconds
        on a shared host, and one slow reference sample does not move it."""
        digests = []
        failed = 0
        times = []
        refs = [reference_seconds()]
        for case in cases:
            elapsed, digest, ok = self.run_case(case, tracer)
            refs.append(reference_seconds())
            times.append(elapsed)
            failed += not ok
            digests.append(digest)
        self.ratios.extend(t / statistics.median(refs[max(0, i - 1):i + 3])
                           for i, t in enumerate(times))
        self.refs.extend(refs)
        rd = hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]
        pinned = self.pinned.get(str(index))
        if pinned is not None and pinned != rd:
            self.errors.append(f"round {index}: output digest {rd} differs from pinned {pinned}")
            failed = len(cases)
        self.round_digests[index] = rd
        self.failed += failed
        self.latencies.extend(times)
        self.kinds.extend(c.kind for c in cases)
        return times

    def kind_p50_ms(self):
        by_kind = {}
        for kind, t in zip(self.kinds, self.latencies):
            by_kind.setdefault(kind, []).append(t)
        return {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())}


def load_pinned(workload, seed):
    pinned = json.loads((HERE / "digests.json").read_text())
    return pinned.get(workload, {}).get(str(seed), {})


def setup_probe(args):
    """Child process: time from interpreter start to the first timed case."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]()
    wl.setup()
    wl.make_round(args.seed, 0)
    wl.run(wl.warmup_case(args.seed))
    print("ready", flush=True)
    return 0


def measure_setup(args):
    """Median over fresh processes of: start, import, generate, warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
    return statistics.median(samples)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_run(args, first, runner):
    """Whole rounds until --seconds of wall time have passed.  Each round is
    made from the seed and its own index, so a long run does not cycle
    through a fixed set of inputs.  Returns every case run."""
    wl = runner.workload
    cases = []
    start = perf_counter()
    index = 0
    while True:
        batch = first if index == 0 else wl.make_round(args.seed, index)
        runner.run_round(index, batch)
        cases += batch
        index += 1
        if perf_counter() - start >= args.seconds:
            return cases


def child_seconds(cmd, env, stderr=False):
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE if stderr else subprocess.DEVNULL,
                          text=True, check=True)
    return perf_counter() - t0, proc.stderr


def cli_layer(env):
    """Fresh-interpreter costs every CLI call pays before its verb runs."""
    py = sys.executable
    interp = statistics.median(child_seconds([py, "-c", "pass"], env)[0]
                               for _ in range(CLI_PROBES))
    imp = statistics.median(child_seconds(IMPORT_CLI, env)[0] for _ in range(CLI_PROBES))
    sympy_s = []
    for _ in range(CLI_PROBES):
        _, err = child_seconds([py, "-X", "importtime", *IMPORT_CLI[1:]], env, stderr=True)
        cumulative = [int(m.group(1)) for m in
                      re.finditer(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*sympy\s*$",
                                  err, re.MULTILINE)]
        sympy_s.append(max(cumulative, default=0) / 1e6)
    return interp, imp, statistics.median(sympy_s)


def metadata(args, wl, cases):
    import sympy
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "sympy": sympy.__version__,
            "cases": len(cases), **wl.describe(cases)}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "curvehull" / "__init__.py").is_file():
        print(f"bench: no curvehull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import OUT, WORKLOADS, child_env
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]()
    setup_s = measure_setup(args) if args.trace == 0 else None
    wl.setup()
    first = wl.make_round(args.seed, 0)
    runner = Runner(wl, load_pinned(args.workload, args.seed))
    runner.run_case(wl.warmup_case(args.seed))
    runner.errors.clear()  # the warm-up is not a timed case; its failure shows again later

    metrics, wall = {}, {}
    if args.trace == 0:
        from tracing import RepeatCounter
        counter = RepeatCounter()
        counter.install()
        try:
            cases = timed_run(args, first, runner)
        finally:
            counter.uninstall()
        lat = sorted(runner.latencies)
        ratios = sorted(runner.ratios)
        p90, beyond = percentile(lat, 0.9)
        if args.workload == "cli":
            peak_kb = wl.child_maxrss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "cases_per_ref": (len(ratios) / sum(ratios), "1/ref"),
            "case_p50_ref": (statistics.median(ratios), "ref"),
            "case_p90_ref": (percentile(ratios, 0.9)[0], "ref"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        wall = {
            "cases_per_s": (len(lat) / sum(lat), "1/s"),
            "case_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "case_p90_ms": (p90 * 1e3, "ms"),
            "ref_ms": (statistics.median(runner.refs) * 1e3, "ms"),
        }
        extra = {"samples": len(lat), "beyond_p90": beyond,
                 "wall": {k: v for k, (v, _) in wall.items()},
                 "failed_ratio": runner.failed / len(lat),
                 "schur.schur_via_tableaux": counter.report()}
    else:
        from tracing import Tracer
        rounds = [first] + [wl.make_round(args.seed, i) for i in range(1, wl.trace_rounds)]
        traced = [c for r in rounds for c in r]
        tracer = Tracer()
        replay = Runner(wl, runner.pinned)
        times = []
        # each round runs traced and untraced, alternating which goes first,
        # so that warm caches favour neither side of the overhead ratio
        for i in range(wl.trace_rounds):
            if i % 2:
                replay.run_round(i, rounds[i])
            tracer.install()
            try:
                times += runner.run_round(i, rounds[i], tracer)
            finally:
                tracer.uninstall()
            if not i % 2:
                replay.run_round(i, rounds[i])
        traced_s = sum(times)
        if replay.round_digests != runner.round_digests:
            runner.errors.append("traced and untraced runs gave different output digests")
            runner.failed += 1
        cases = traced
        metrics = tracer.metrics(traced_s)
        interp, imp, sympy_s = cli_layer(child_env())
        verb = 0.0
        if args.workload == "cli":
            # pair each verb with an import measured just before it, so that
            # drift in machine speed between the two cancels
            imports, verbs = [], []
            for case in traced:
                imports.append(child_seconds(IMPORT_CLI, child_env())[0])
                t0 = perf_counter()
                wl.run(case)
                verbs.append(perf_counter() - t0 - imports[-1])
            imp, verb = statistics.median(imports), statistics.median(verbs)
        metrics.update({"cli.interpreter_s": (interp, "s"), "cli.import_s": (imp, "s"),
                        "cli.sympy_import_s": (sympy_s, "s"), "cli.verb_s": (verb, "s"),
                        "trace.overhead_ratio": (traced_s / sum(replay.latencies), "ratio")})
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        extra = {"traced_cases": len(traced), "spans": len(tracer.spans),
                 "spans_file": str(spans.relative_to(ROOT)), "missing": tracer.missing,
                 "failed_ratio": runner.failed / len(traced)}

    meta = metadata(args, wl, cases)
    meta["round_digests"] = {str(k): v for k, v in sorted(runner.round_digests.items())}
    meta["run_digest"] = hashlib.sha256(
        json.dumps(meta["round_digests"], sort_keys=True).encode()).hexdigest()[:16]
    meta["kind_p50_ms"] = runner.kind_p50_ms()
    meta.update(extra)
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    for err in runner.errors[:20]:
        print("error:", err)
    if extra.get("missing"):
        print("missing traced names:", ", ".join(extra["missing"]))
    print("meta", json.dumps(meta, sort_keys=True))
    attempted = len(runner.latencies)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": min(runner.failed, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
