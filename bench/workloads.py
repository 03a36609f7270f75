"""Workloads of the curvehull benchmark: input generators, case runners,
exact output checks and output digests.

A workload is a fixed round of case *shapes* (kind of case, n, and for the
heavy cases the orders, partition or interval) that repeats.  The seed draws
everything inside a shape: coefficients, the orders of small cases, zero
points, probe seeds and CLI arguments.  Keeping the shapes fixed makes a
round cost about the same on every seed, so the spread between runs comes
from the program and the machine, not from the mix of inputs.

The generators are copies of the acceptance-criteria generators, kept here so
that editing a test cannot change the benchmark's inputs.  The checks do not
reuse the code under test for the property they check: products,
determinants at points, vanishing orders and squares are recomputed with the
helpers at the end of this file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import sympy

# Calls go through the module attributes (diagonal.vandermonde_cofactor, ...)
# so that the traced run sees the wrappers installed on those modules.
from curvehull import cli, diagonal, hull, lmi, rays
from curvehull.unipoly import Interval, UniPoly

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
UNIT = Interval(0, 1)
NONZERO = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def child_env():
    """Environment for a child interpreter that imports curvehull from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Case:
    """One checked unit of work; `cid` is "<round>.<slot>"."""

    cid: str
    kind: str
    n: int
    params: dict = field(default_factory=dict)


# -- generators (copies of the acceptance-criteria generators) ---------------


def random_orders(rng, n, max_top):
    return tuple(sorted(rng.sample(range(max_top + 1), n + 1), reverse=True))


def random_basis(rng, orders, extra_degrees=2, dense=False):
    """Perturbation above each leading monomial: each slot with probability
    0.7 as in the criteria, or every slot with a nonzero coefficient when
    dense (which fixes the support, and so the cost, for given orders)."""
    cap = orders[0] + extra_degrees
    out = []
    for m in orders:
        p = UniPoly.monomial(m)
        for k in range(m + 1, cap + 1):
            if dense:
                p = p + UniPoly.monomial(k, F(rng.choice(NONZERO), rng.randint(1, 3)))
            elif rng.random() < 0.7:
                p = p + UniPoly.monomial(k, F(rng.randint(-5, 5), rng.randint(1, 3)))
        out.append(p)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def order_strata(n, max_top, count):
    """Every orders tuple that random_orders(rng, n, max_top) can draw, split
    into `count` classes of equal size by a cost proxy: the product of the
    dense perturbation lengths m_0 + 3 - m_i, which tracks the size of the
    evaluation determinant."""
    seqs = sorted((tuple(sorted(c, reverse=True))
                   for c in itertools.combinations(range(max_top + 1), n + 1)),
                  key=lambda o: (math.prod(o[0] + 3 - m for m in o), o))
    size = len(seqs)
    return [seqs[k * size // count:(k + 1) * size // count] for k in range(count)]


def random_blocks(rng, total):
    parts = []
    remaining = total
    while remaining:
        b = rng.randint(1, remaining)
        parts.append(b)
        remaining -= b
    return tuple(parts)


def moment_basis(n):
    return tuple(UniPoly.monomial(k) for k in range(n, -1, -1))


# -- workload base ---------------------------------------------------------------


class Workload:
    name = ""
    shapes = ()
    trace_rounds = 1      # rounds in the traced pass
    pinned_rounds = 1     # rounds whose digests are pinned in digests.json

    def setup(self):
        """One-time preparation before the first case (files, children)."""

    def rounds(self, seed, count):
        return [self.make_round(seed, r) for r in range(count)]

    def make_round(self, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return [self.make_case(rng, shape, f"{r}.{i}")
                for i, shape in enumerate(self.shapes)]

    def warmup_case(self, seed):
        rng = random.Random(f"{self.name}:{seed}:warmup")
        return self.make_case(rng, self.shapes[0], "warmup")

    def make_case(self, rng, shape, cid) -> Case:
        raise NotImplementedError

    def run(self, case):
        """Run the case through the code under test; the only timed part."""
        raise NotImplementedError

    def check(self, case, result) -> bool:
        raise NotImplementedError

    def canonical(self, case, result) -> str:
        """Exact outputs as text; hashed into the run's output digests."""
        raise NotImplementedError

    def digest(self, case, result) -> str:
        return hashlib.sha256(self.canonical(case, result).encode()).hexdigest()[:16]

    def describe(self, cases) -> dict:
        return {"n_histogram": dict(sorted(Counter(c.n for c in cases).items())),
                "kinds": dict(sorted(Counter(c.kind for c in cases).items()))}


def _poly_text(p):
    return ",".join(str(c) for c in p.coeffs)


def _multi_text(p):
    return ";".join(f"{e}:{c}" for e, c in sorted(p.terms.items()))


# -- cofactor ------------------------------------------------------------------------


class Cofactor(Workload):
    """Kind "det": evaluation determinant, Vandermonde cofactor, Schur-ideal
    membership (criterion 05).  Kind "taylor": factor_taylor_determinant on a
    block partition (criterion 06).  Every basis has dense perturbations.

    Cases with n <= 3 draw their orders from the seed, as criterion 05 does
    with top order <= 7, and the taylor ones a random block partition (as in
    criterion 06), so that Schur sequences repeat only as often as the draws
    do.  Each of these shapes draws from one cost stratum (`order_strata`),
    so that every round has the same spread of cheap and dear orders; n = 2,
    which holds the median latency, has the most and the narrowest strata.  The
    n = 4 tail, a sixth of the cases (a quarter in criterion 05), keeps fixed
    orders with top order 7 so that its cost, which holds the top of the
    latency range, is the same on every seed; its heaviest case,
    (7, 6, 5, 3, 1), has an 8520-term determinant."""

    name = "cofactor"
    strata = {1: 4, 2: 16, 3: 4}
    # (kind, n, orders, blocks); an int for orders is the stratum to draw
    # from, and blocks None a random partition
    shapes = (
        *[(kind, n, k, None) for n, count in strata.items()
          for k in range(count) for kind in ("det", "taylor")],
        ("det", 4, (7, 6, 5, 3, 1), None), ("det", 4, (7, 6, 5, 4, 3), None),
        ("taylor", 4, (7, 6, 5, 3, 1), (1, 2, 2)), ("taylor", 4, (6, 4, 3, 1, 0), (2, 2, 1)),
        ("taylor", 4, (7, 5, 4, 2, 0), (2, 3)), ("taylor", 4, (5, 4, 3, 1, 0), (1, 3, 1)),
    )
    trace_rounds = 2
    pinned_rounds = 2

    def make_case(self, rng, shape, cid):
        kind, n, orders, blocks = shape
        if isinstance(orders, int):
            orders = rng.choice(order_strata(n, 7, self.strata[n])[orders])
        if kind == "taylor" and blocks is None:
            blocks = random_blocks(rng, n + 1)
        basis = random_basis(rng, orders, dense=True)
        return Case(cid, kind, n, {
            "orders": orders, "basis": basis, "blocks": blocks,
            "check_seed": rng.randrange(2 ** 32)})

    def run(self, case):
        p = case.params
        if case.kind == "det":
            det = diagonal.evaluation_matrix(p["basis"]).det()
            cof = diagonal.vandermonde_cofactor(det)
            ideal = diagonal.SchurMonomialIdeal.from_sequence(p["orders"])
            membership = ideal.contains(cof) if cof is not None else None
            return {"det": det, "cofactor": cof, "ideal": ideal, "membership": membership}
        res = diagonal.factor_taylor_determinant(p["basis"], p["blocks"])
        return {"det": res.det, "cofactor": res.cofactor, "ideal": res.ideal,
                "membership": res.membership, "checked": res.checked,
                "reference_scale": res.reference_scale}

    def check(self, case, result):
        det, cof = result["det"], result["cofactor"]
        if cof is None or det.is_zero:
            return False
        p = case.params
        if case.kind == "det":
            sizes = (1,) * (case.n + 1)
        else:
            sizes = tuple(p["blocks"])
            if result["checked"] is not True:
                return False
        if multiply_diagonal(cof.terms, sizes) != dict(det.terms):
            return False
        if case.kind == "det" and not det_matches_point(det, p["basis"], p["check_seed"]):
            return False
        return membership_holds(cof, result["ideal"].generators, result["membership"])

    def canonical(self, case, result):
        parts = [case.kind, _multi_text(result["det"]), _multi_text(result["cofactor"]),
                 str(result["membership"].ok), repr(result["ideal"].generators)]
        if case.kind == "taylor":
            parts.append(str(result["reference_scale"]))
        return "|".join(parts)


# -- crossval ---------------------------------------------------------------------


INTERVALS = ((F(0), F(1)), (F(-1), F(1)), (F(1, 3), F(2)), (F(-3, 2), F(-1, 2)),
             (F(2, 7), F(5, 3)))


class CrossVal(Workload):
    """One cross_validate call per case: a handful of probes alternating
    between sample-hull members and box probes, then one support functional
    through the two support oracles, as cross_validate runs each of its own.

    The benchmark draws the functional itself, as cross_validate does (entries
    in -5..5), so that it can leave out the functionals on which
    `hull.support_min_exact` is known to be wrong (`support_defect_input`):
    the benchmark feeds only inputs whose correct output is known.  The
    redraws are counted in `meta`."""

    name = "crossval"
    trials = 4
    sample_count = 20
    support_width = F(1, 1000)
    # (n, index into INTERVALS)
    shapes = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 2), (3, 3), (3, 4),
              (4, 1), (4, 2), (6, 0), (6, 1))
    trace_rounds = 3
    pinned_rounds = 4

    def make_case(self, rng, shape, cid):
        n, iv = shape
        a, b = INTERVALS[iv]
        for redraws in itertools.count():
            l = [F(rng.randint(-5, 5)) for _ in range(n)]
            if not any(l):
                l[0] = F(1)
            if not support_defect_input(l, a, b):
                break
        return Case(cid, "crossval", n, {"interval": (a, b), "l": l, "redraws": redraws,
                                         "seed": rng.randrange(10 ** 6)})

    def run(self, case):
        s = Interval(*case.params["interval"])
        curve = hull.moment_curve(case.n, s)
        pencil = lmi.interval_moment_lmi(case.n, s)
        report = hull.cross_validate(curve, pencil, trials=self.trials,
                                     seed=case.params["seed"],
                                     sample_count=self.sample_count, support_functionals=0)
        l = case.params["l"]
        curve_enc = hull.support_min_exact(l, curve, self.support_width)
        lmi_enc = hull.lmi_support_enclosure(pencil, curve, l, self.support_width)
        return {"report": report, "curve_enclosure": curve_enc, "lmi_enclosure": lmi_enc,
                "intersects": curve_enc.intersects(lmi_enc)}

    def check(self, case, result):
        report = result["report"]
        if not report.all_pass or report.failures:
            return False
        if report.hull_members_checked + report.lmi_nonmembers_checked < 1:
            return False
        a, b = result["curve_enclosure"], result["lmi_enclosure"]
        lo, hi = case.params["interval"]
        coeffs = [F(0), *case.params["l"]]
        # the minimum is at most the value at either end of the segment
        if a.lo > min(horner(coeffs, lo), horner(coeffs, hi)):
            return False
        return result["intersects"] is True and a.lo <= b.hi and b.lo <= a.hi

    def canonical(self, case, result):
        a, b = result["curve_enclosure"], result["lmi_enclosure"]
        return json.dumps({"report": result["report"].to_json(),
                           "support": [str(a.lo), str(a.hi), str(b.lo), str(b.hi),
                                       result["intersects"]]}, sort_keys=True)

    def describe(self, cases):
        out = super().describe(cases)
        out["intervals"] = sorted({f"[{a},{b}]" for a, b in
                                   (c.params["interval"] for c in cases)})
        out["support_redraws"] = sum(c.params["redraws"] for c in cases)
        return out


# -- extreme ------------------------------------------------------------------------


class Extreme(Workload):
    """Build a system, then extreme_candidate, zero_conditions_dim,
    verify_extreme and, for moment systems with all-even patterns,
    sosx_certificate.  Moment systems are validated on [0, 1] (criterion 08);
    "validate" cases also run validate_interval on n = 2 and 4 (n = 6 takes
    about a second, as long as a whole round, and would make this a second
    multipoly workload; n = 8 takes minutes)."""

    name = "extreme"
    # (kind, n, pattern style)
    shapes = (
        ("rankdef", 2, "mixed"), ("moment", 2, "even"), ("validate", 2, "even"),
        ("moment", 4, "even"), ("moment", 4, "mixed"), ("validate", 4, "even"),
        ("moment", 6, "even"), ("moment", 6, "even"), ("moment", 6, "even"),
        ("moment", 6, "mixed"),
        ("random", 2, "mixed"), ("random", 3, "mixed"), ("random", 3, "mixed"),
        ("random", 4, "mixed"), ("random", 4, "mixed"), ("random", 4, "mixed"),
        ("moment", 8, "even"), ("moment", 8, "even"), ("moment", 8, "even"),
    )
    trace_rounds = 6
    pinned_rounds = 8

    def make_case(self, rng, shape, cid):
        kind, n, style = shape
        if kind == "rankdef":
            # engineered rank-deficient instance of criterion 07: zero candidate
            xi = F(rng.randint(1, 9), 10)
            basis = (UniPoly.monomial(4), UniPoly.monomial(2), UniPoly.monomial(0))
            return Case(cid, kind, n, {"basis": basis, "points": (-xi, xi), "mults": (1, 1)})
        if kind == "random":
            orders = random_orders(rng, n, 6)
            basis = random_basis(rng, orders, extra_degrees=1)
            grid = [F(k, 12) for k in range(1, 12)]
        else:
            basis = moment_basis(n)
            grid = [F(k, 11) for k in range(1, 11)]
        if style == "even":
            points = sorted(rng.sample(grid, n // 2))
            mults = [2] * len(points)
        else:
            points = sorted(rng.sample(grid, rng.randint(1, min(n, 3))))
            mults = [1] * len(points)
            for _ in range(n - len(points)):
                mults[rng.randrange(len(mults))] += 1
        return Case(cid, kind, n, {"basis": basis, "points": tuple(points),
                                   "mults": tuple(mults)})

    def run(self, case):
        p = case.params
        system = rays.profile_and_normalize(p["basis"], 0)
        pattern = rays.ZeroPattern(p["points"], p["mults"])
        out = {"validation": None, "report": None, "cert": None}
        if case.kind == "validate":
            out["validation"] = rays.validate_interval(system, UNIT, 3)
        candidate = rays.extreme_candidate(system, pattern)
        out["candidate"] = candidate
        out["dim"] = rays.zero_conditions_dim(system, pattern)
        if not candidate.is_zero and pattern.interior_to(UNIT):
            out["report"] = rays.verify_extreme(system, candidate, UNIT)
            if case.kind != "random" and pattern.all_even:
                out["cert"] = lmi.sosx_certificate(candidate, pattern, candidate.leading_coeff)
        return out

    def check(self, case, result):
        p = case.params
        cand = result["candidate"]
        if cand.is_zero != (result["dim"] != 1):
            return False
        if case.kind == "rankdef" and not cand.is_zero:
            return False
        if not cand.is_zero and any(order_at(cand.coeffs, x) < b
                                    for x, b in zip(p["points"], p["mults"])):
            return False
        if case.kind == "validate" and not result["validation"].all_pass:
            return False
        if case.kind in ("moment", "validate") and all(b % 2 == 0 for b in p["mults"]):
            rep, cert = result["report"], result["cert"]
            if rep is None or cert is None:
                return False
            if not (rep.nonneg and rep.extreme and rep.zero_count == case.n
                    and rep.face_dim == 1):
                return False
            root = [F(1)]
            for x, b in zip(p["points"], p["mults"]):
                for _ in range(b // 2):
                    root = poly_mul(root, [-x, F(1)])
            if list(cert.square_root.coeffs) != root or cert.scale <= 0:
                return False
            square = [cert.scale * c for c in poly_mul(root, root)]
            if square != list(cand.coeffs):
                return False
        return True

    def canonical(self, case, result):
        parts = [case.kind, _poly_text(result["candidate"]), str(result["dim"])]
        rep = result["report"]
        if rep is not None:
            parts.append(f"{rep.nonneg},{rep.zero_count},{rep.face_dim},{rep.extreme}")
        cert = result["cert"]
        if cert is not None:
            parts.append(f"{cert.scale},{_poly_text(cert.square_root)},{cert.declared_rank}")
        val = result["validation"]
        if val is not None:
            parts.append(repr((val.all_pass, val.s1_patterns, val.note)))
        return "|".join(parts)


# -- cli --------------------------------------------------------------------------


class Cli(Workload):
    """One `python -m curvehull.cli <verb>` subprocess per case, cycling
    through the nine verbs with small inputs like the README examples."""

    name = "cli"
    # Every verb once, plus a second `support` and a second `cross-validate`:
    # most verbs cost about one import, and `cross-validate` the most, so
    # with 11 cases a round the median falls inside the import-only verbs
    # and the 90th percentile inside the `cross-validate` cases, not on the
    # edge between two verbs, where it would jump between their costs.
    shapes = ("schur", "verify-schur", "verify-diagonal", "extreme", "verify-extreme",
              "lmi", "member", "support", "cross-validate", "support", "cross-validate")
    trace_rounds = 1
    pinned_rounds = 4
    pencil = ".bench_out/pencil.json"

    def __init__(self):
        self.child_maxrss_kb = 0

    def setup(self):
        OUT.mkdir(exist_ok=True)
        result = self.run(Case("setup", "lmi", 4, {"argv": [
            "lmi", "--kind", "interval", "--n", "4", "--interval", "0,1",
            "--json", self.pencil]}))
        if result["code"] != 0:
            raise RuntimeError("could not write the pencil for the member verb")

    def make_case(self, rng, verb, cid):
        def q(lo, hi, den):
            return F(rng.randint(lo, hi), den)
        if verb == "schur":
            seq = sorted(rng.sample(range(7), rng.randint(3, 4)), reverse=True)
            argv, n = ["schur", "--seq", ",".join(map(str, seq))], len(seq) - 1
        elif verb == "verify-schur":
            argv, n = ["verify-schur", "--max-n", "2", "--max-entry", "4"], 2
        elif verb == "verify-diagonal":
            orders = random_orders(rng, 2, 4)
            basis = random_basis(rng, orders, extra_degrees=1)
            blocks = random_blocks(rng, 3)
            argv = ["verify-diagonal", "--basis", ",".join(p.to_string() for p in basis),
                    "--blocks", ",".join(map(str, blocks))]
            n = 2
        elif verb == "extreme":
            a, b = sorted(rng.sample(range(1, 10), 2))
            argv = ["extreme", "--basis", "t^4,t^3,t^2,t,1", "--interval", "0,1",
                    "--zeros", f"{a}/10:2,{b}/10:2"]
            n = 4
        elif verb == "verify-extreme":
            xi = q(1, 9, 10)
            f = (UniPoly.t() - xi) ** 2 + q(0, 3, 5)
            argv = ["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1",
                    "--poly", f.to_string()]
            n = 2
        elif verb == "lmi":
            if rng.random() < 0.5:
                n = rng.choice((2, 4, 6))
                argv = ["lmi", "--kind", "hankel", "--n", str(n)]
            else:
                n = rng.randint(2, 6)
                lo, hi = INTERVALS[rng.randrange(len(INTERVALS))]
                argv = ["lmi", "--kind", "interval", "--n", str(n), f"--interval={lo},{hi}"]
            argv += ["--json", ".bench_out/lmi_case.json", "--sdpa", ".bench_out/lmi_case.dat-s"]
        elif verb == "member":
            point = [q(-2, 12, 10) for _ in range(4)]
            argv, n = ["member", "--lmi", self.pencil, "--point=" + ",".join(map(str, point))], 4
        elif verb == "support":
            n = rng.choice((2, 3))
            lo, hi = INTERVALS[rng.randrange(len(INTERVALS))]
            l = [rng.randint(-5, 5) for _ in range(n)]
            if not any(l):
                l[0] = 1
            argv = ["support", "--n", str(n), f"--interval={lo},{hi}",
                    "--l=" + ",".join(map(str, l)), "--width", "1/1000"]
        else:
            n = 2
            argv = ["cross-validate", "--n", "2", "--interval", "0,1",
                    "--trials", "4", "--seed", str(rng.randrange(1000))]
        return Case(cid, verb, n, {"argv": argv})

    def run(self, case):
        cmd = [sys.executable, "-m", "curvehull.cli", *case.params["argv"]]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        return {"code": proc.returncode, "stdout": stdout}

    def run_in_process(self, case):
        """The same verb through `curvehull.cli.run` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(case.params["argv"]))
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, case, result):
        if result["code"] != 0:
            return False
        try:
            json.loads(result["stdout"])
        except ValueError:
            return False
        return self.run_in_process(case) == {"code": 0, "stdout": result["stdout"]}

    def canonical(self, case, result):
        return result["stdout"]


WORKLOADS = {w.name: w for w in (Cofactor, CrossVal, Extreme, Cli)}


# -- independent helpers for the checks -----------------------------------------------


def multiply_diagonal(terms, sizes):
    """terms * prod_{i<j} (t_i - t_j)^(b_i b_j), over exponent-tuple dicts.
    Coefficients are scaled to integers by the common denominator first."""
    scale = math.lcm(*(c.denominator for c in terms.values())) if terms else 1
    out = {e: int(c * scale) for e, c in terms.items()}
    r1 = len(sizes)
    for i in range(r1):
        for j in range(i + 1, r1):
            for _ in range(sizes[i] * sizes[j]):
                nxt = {}
                for e, c in out.items():
                    for var, term in ((i, c), (j, -c)):
                        k = e[:var] + (e[var] + 1,) + e[var + 1:]
                        acc = nxt.get(k, 0) + term
                        if acc:
                            nxt[k] = acc
                        else:
                            nxt.pop(k, None)
                out = nxt
    return {e: F(c, scale) for e, c in out.items()}


def horner(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def det_numeric(rows):
    a = [list(r) for r in rows]
    n = len(a)
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def det_matches_point(det, basis, seed):
    """det(p_j(t_i)) at one random integer point, by elimination, against the
    determinant polynomial evaluated there."""
    rng = random.Random(seed)
    pt = [rng.randint(-10 ** 6, 10 ** 6) for _ in basis]
    expected = det_numeric([[horner(p.coeffs, x) for p in basis] for x in pt])
    got = F(0)
    for e, c in det.terms.items():
        v = 1
        for x, k in zip(pt, e):
            v *= x ** k
        got += c * v
    return got == expected


def membership_holds(poly, generators, report):
    """The membership report says ok and every monomial has a witness that is
    a generator dividing it."""
    if report is None or report.ok is not True:
        return False
    gens = set(generators)
    for beta in poly.terms:
        w = report.witness.get(beta)
        if w is None or w not in gens or any(a > b for a, b in zip(w, beta)):
            return False
    return True


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def order_at(coeffs, x):
    """Vanishing order at x by repeated synthetic division by (t - x)."""
    c = list(coeffs)
    k = 0
    while len(c) > 1:
        quot = [F(0)] * (len(c) - 1)
        acc = F(0)
        for i in range(len(c) - 1, 0, -1):
            acc = acc * x + c[i]
            quot[i - 1] = acc
        if acc * x + c[0] != 0:
            break
        c = quot
        k += 1
    return k


def support_defect_input(l, a, b):
    """True when the derivative of sum_k l_k t^k has a rational root in [a, b]
    and at least one other distinct real root there.  `isolate_roots` deflates
    a rational root it meets at a split point and returns intervals for the
    quotient, which `hull.support_min_exact` then refines against the
    undeflated derivative; such an interval can also hold the deflated root,
    so the refinement can settle on the wrong critical point and the curve
    enclosure misses the minimum.  Example: n = 4, [-1, 1], l = (0, 0, 1, 4)
    gives [0, 0] while the minimum is -27/16384 at t = -3/16."""
    t = sympy.Symbol("t")
    deriv = sympy.Poly([k * sympy.Rational(c.numerator, c.denominator)
                        for k, c in reversed(list(enumerate(l, start=1)))], t)
    if deriv.degree() < 2:
        return False
    sqf = deriv.sqf_part()
    lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (a, b))
    if sqf.count_roots(lo, hi) < 2:
        return False
    _, factors = sqf.factor_list()
    return any(f.degree() == 1 and lo <= -f.nth(0) / f.nth(1) <= hi for f, _ in factors)
