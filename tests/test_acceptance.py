"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (zero tolerance) unless a width is stated.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from curvehull.diagonal import (SchurMonomialIdeal, evaluation_matrix,
                                factor_taylor_determinant,
                                taylor_remainder_check, vandermonde_cofactor)
from curvehull.hull import cross_validate, moment_curve
from curvehull.lmi import (emit_sdpa, hankel_lmi, interval_moment_lmi,
                           sosx_certificate)
from curvehull.rays import (ZeroPattern, extreme_candidate,
                            profile_and_normalize, validate_interval,
                            verify_extreme, zero_conditions_dim)
from curvehull.schur import (proper_dominance_check, schur_via_bialternant,
                             schur_via_tableaux,
                             subsequence_divisibility_check)
from curvehull.unipoly import Interval, UniPoly

t = UniPoly.t()
mono = UniPoly.monomial
UNIT = Interval(0, 1)
GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def decreasing_sequences(max_len, max_entry):
    for length in range(1, max_len + 1):
        for combo in combinations(range(max_entry + 1), length):
            yield tuple(sorted(combo, reverse=True))


def random_basis(rng, orders, extra_degrees=2):
    """Dense random perturbation above each leading monomial."""
    cap = orders[0] + extra_degrees
    out = []
    for m in orders:
        p = mono(m)
        for k in range(m + 1, cap + 1):
            if rng.random() < 0.7:
                p = p + mono(k, F(rng.randint(-5, 5), rng.randint(1, 3)))
        out.append(p)
    return tuple(out)


def random_orders(rng, n, max_top):
    return tuple(sorted(rng.sample(range(max_top + 1), n + 1), reverse=True))


def test_criterion_01_bialternant_equivalence():
    start = time.time()
    cases = 0
    mismatches = []
    for m in decreasing_sequences(5, 8):
        cases += 1
        if schur_via_tableaux(m) != schur_via_bialternant(m):
            mismatches.append(m)
    elapsed = time.time() - start
    _report(1, not mismatches and cases >= 300 and elapsed < 120,
            f"tableaux = bialternant on {cases} sequences (n <= 4, m0 <= 8), "
            f"exact, {elapsed:.1f}s")


def test_criterion_02_elementary_symmetric_example():
    from curvehull.multipoly import MultiPoly
    expected = MultiPoly(5, {
        (1, 1, 1, 1, 0): 1, (1, 1, 1, 0, 1): 1, (1, 1, 0, 1, 1): 1,
        (1, 0, 1, 1, 1): 1, (0, 1, 1, 1, 1): 1})
    ok = (schur_via_tableaux((5, 4, 3, 2, 0)) == expected
          and schur_via_bialternant((5, 4, 3, 2, 0)) == expected)
    _report(2, ok, "sigma_(5,4,3,2,0) equals e_4 in five variables, exactly")


def test_criterion_03_divisibility_lemmas_exhaustive():
    seqs = list(decreasing_sequences(4, 6))
    checks = 0
    failures = []
    for a in seqs:
        for b in seqs:
            if len(a) == len(b) and a != b and all(x <= y for x, y in zip(a, b)):
                checks += 1
                rep = proper_dominance_check(a, b)
                if not rep.ok or any(
                        not (all(x <= y for x, y in zip(w, beta)) and w != beta)
                        for beta, w in rep.witness.items()):
                    failures.append(("dominance", a, b))
        for r in range(1, len(a) + 1):
            for idx in combinations(range(len(a)), r):
                checks += 1
                rep = subsequence_divisibility_check(a, idx)
                if not rep.ok or any(
                        not all(x <= y for x, y in zip(w, beta))
                        for beta, w in rep.witness.items()):
                    failures.append(("subsequence", a, idx))
    _report(3, not failures,
            f"{checks} exhaustive dominance/subsequence checks (n <= 3, "
            f"entries <= 6) with validated witnesses, zero failures")


def test_criterion_04_taylor_congruence():
    rng = random.Random(4)
    checks = 0
    ok = True
    # the congruence is linear in f: monomials t^d span every f with deg <= 8
    for d in range(9):
        for r in range(1, 7):
            checks += 1
            ok = ok and taylor_remainder_check(mono(d), r)
    for _ in range(10):
        f = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)])
        for r in range(1, 7):
            checks += 1
            ok = ok and taylor_remainder_check(f, r)
    _report(4, ok, f"Taylor congruence exact in {checks} checks "
                   f"(deg <= 8 monomial basis + dense random, r <= 6)")


def test_criterion_05_cofactor_ideal_membership():
    start = time.time()
    rng = random.Random(5)
    failures = []
    count = 200
    for i in range(count):
        n = rng.choice((1, 2, 2, 3, 3, 3, 4, 4))
        orders = random_orders(rng, n, 7)
        basis = random_basis(rng, orders)
        cof = vandermonde_cofactor(evaluation_matrix(basis).det())
        if cof is None:
            failures.append(("not divisible", orders))
            continue
        if not SchurMonomialIdeal.from_sequence(orders).contains(cof).ok:
            failures.append(("not in ideal", orders, basis))
    elapsed = time.time() - start
    _report(5, not failures and elapsed < 300,
            f"Vandermonde cofactor in the Schur monomial ideal for {count} "
            f"random normalized bases (n <= 4, m0 <= 7), {elapsed:.1f}s")


def test_criterion_06_taylor_determinant_factorization():
    start = time.time()
    rng = random.Random(6)
    failures = []
    count = 50
    for i in range(count):
        n = rng.choice((1, 2, 2, 3, 3, 4))
        orders = random_orders(rng, n, 7)
        basis = random_basis(rng, orders)
        parts = []
        remaining = n + 1
        while remaining:
            b = rng.randint(1, remaining)
            parts.append(b)
            remaining -= b
        try:
            result = factor_taylor_determinant(basis, tuple(parts))
        except ArithmeticError as exc:
            failures.append((orders, parts, str(exc)))
            continue
        if not result.checked:
            failures.append((orders, parts, "membership"))
    elapsed = time.time() - start
    _report(6, not failures,
            f"det of the Taylor matrix exactly divisible by the diagonal "
            f"powers with cofactor in the collapsed ideal, {count} random "
            f"(basis, blocks) pairs, {elapsed:.1f}s")


def test_criterion_07_candidate_determinant_iff_dimension():
    rng = random.Random(7)
    checked = 0
    failures = []
    instances = []
    for _ in range(85):  # generic random instances
        n = rng.choice((2, 3, 3, 4, 4))
        orders = random_orders(rng, n, 6)
        basis = random_basis(rng, orders, extra_degrees=1)
        system = profile_and_normalize(basis, 0)
        points = sorted(rng.sample([F(k, 12) for k in range(1, 12)],
                                   rng.randint(1, min(n, 3))))
        mults = [1] * len(points)
        budget = n - len(points)
        while budget:
            mults[rng.randrange(len(mults))] += 1
            budget -= 1
        instances.append((system, ZeroPattern(tuple(points), tuple(mults))))
    for _ in range(15):  # engineered rank-deficient instances
        k = rng.choice((1, 2))
        system = profile_and_normalize((mono(4), mono(2), mono(0)), 0)
        xi = F(rng.randint(1, 9), 10)
        instances.append((system, ZeroPattern((-xi, xi), (1, 1))))
    for system, pattern in instances:
        checked += 1
        candidate = extreme_candidate(system, pattern)
        dim = zero_conditions_dim(system, pattern)
        if candidate.is_zero != (dim > 1):
            failures.append((system.orders, pattern, dim))
            continue
        if not candidate.is_zero:
            for x, b in zip(pattern.points, pattern.mults):
                if candidate.ord_at(x) < b:
                    failures.append(("low order", pattern, x))
    _report(7, not failures and checked >= 100,
            f"det of the candidate matrix nonzero iff the zero conditions cut "
            f"dimension one, and vanishing orders >= b_i, on {checked} instances")


def test_criterion_08_exactly_n_zeros_on_validated_interval():
    system = profile_and_normalize(tuple(mono(k) for k in (4, 3, 2, 1, 0)), 0)
    validation = validate_interval(system, UNIT, 4)
    grid = [F(k, 11) for k in range(1, 11)]
    failures = []
    patterns = 0
    for xi, eta in combinations(grid, 2):
        patterns += 1
        zp = ZeroPattern((xi, eta), (2, 2))
        candidate = extreme_candidate(system, zp)
        if candidate.is_zero:
            failures.append((xi, eta, "zero candidate"))
            continue
        rep = verify_extreme(system, candidate, UNIT)
        if not (rep.nonneg and rep.zero_count == 4 and rep.face_dim == 1
                and rep.extreme):
            failures.append((xi, eta, rep))
    _report(8, validation.all_pass and patterns == 45 and not failures,
            f"moment system n=4 on validated [0,1]: every candidate from "
            f"{patterns} two-double-zero grid patterns has exactly 4 interior "
            f"zeros and face dimension 1")


def test_criterion_09_few_zeros_forces_large_face():
    rng = random.Random(9)
    system = profile_and_normalize(tuple(mono(k) for k in (4, 3, 2, 1, 0)), 0)
    checked = 0
    failures = []
    for _ in range(40):
        xi = F(rng.randint(1, 19), 20)
        shape = rng.choice(("touch", "lifted", "constant", "weighted"))
        if shape == "touch":
            f = (t - xi) ** 2  # two interior zeros
        elif shape == "lifted":
            f = (t - xi) ** 2 + F(rng.randint(1, 5), 7)  # no zeros
        elif shape == "weighted":
            # one double zero times a strictly positive quadratic
            a = F(rng.randint(-10, 30), 20)
            f = (t - xi) ** 2 * ((t - a) ** 2 + F(rng.randint(1, 4), 5))
        else:
            f = UniPoly.constant(F(rng.randint(1, 9), 3))
        rep = verify_extreme(system, f, UNIT)
        if not rep.nonneg or rep.zero_count >= 4:
            continue
        checked += 1
        if rep.face_dim < 2 or rep.extreme:
            failures.append((shape, xi, rep))
    _report(9, not failures and checked >= 30,
            f"every nonnegative member with fewer than n = 4 zeros has "
            f"supporting-face dimension >= 2 ({checked} random members)")


def test_criterion_10_block_size_bound_and_hankel_display():
    sizes_ok = all(interval_moment_lmi(n, UNIT).max_block_size == 1 + n // 2
                   for n in range(1, 11))
    def rows(m):  # a Block holds its matrices as tuples of rows
        return tuple(map(tuple, m))

    h2 = hankel_lmi(2).blocks[0]
    display2 = (h2.a0 == rows([[1, 0], [0, 0]])
                and h2.coeff[0] == rows([[0, 1], [1, 0]])
                and h2.coeff[1] == rows([[0, 0], [0, 1]]))
    h4 = hankel_lmi(4).blocks[0]
    b4 = {
        0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        2: [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        3: [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        4: [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    }
    display4 = (h4.a0 == rows(b4[0])
                and all(h4.coeff[i - 1] == rows(b4[i]) for i in range(1, 5)))
    _report(10, sizes_ok and display2 and display4,
            "interval pencil block sizes equal 1 + floor(n/2) for n <= 10; "
            "Hankel pencils for n = 2, 4 match the displayed moment matrices "
            "entry for entry")


def _grid_candidates(n, grid_points):
    system = profile_and_normalize(tuple(mono(k) for k in range(n, -1, -1)), 0)
    grid = [F(k, grid_points + 1) for k in range(1, grid_points + 1)]
    for combo in combinations(grid, n // 2):
        zp = ZeroPattern(tuple(combo), (2,) * (n // 2))
        candidate = extreme_candidate(system, zp)
        if not candidate.is_zero:
            yield candidate, zp


def test_criterion_11_square_certificates():
    failures = []
    counts = {}
    for n, grid_points in ((2, 10), (4, 10), (6, 6)):
        counts[n] = 0
        for candidate, zp in _grid_candidates(n, grid_points):
            counts[n] += 1
            c = candidate.leading_coeff
            try:
                cert = sosx_certificate(candidate, zp, c)
            except ValueError as exc:
                failures.append((n, zp, str(exc)))
                continue
            if cert.declared_rank != 1 + n // 2:
                failures.append((n, zp, cert.declared_rank))
    total = sum(counts.values())
    _report(11, not failures and all(counts.values()),
            f"exact f = c*g^2 certificates with declared rank 1 + n/2 for "
            f"{total} extreme candidates (n = 2, 4, 6)")


def test_criterion_12_cross_validation():
    start = time.time()
    failures = []
    for n in (2, 4):
        report = cross_validate(moment_curve(n, UNIT), interval_moment_lmi(n, UNIT),
                                trials=50, seed=12, support_functionals=8)
        if not report.all_pass:
            failures.extend((n, f) for f in report.failures)
        if not all(row["intersects"] for row in report.support_table):
            failures.append((n, "support"))
    elapsed = time.time() - start
    _report(12, not failures and elapsed < 600,
            f"50 probes per n in (2, 4): sample-hull members are pencil "
            f"members; support enclosures (width 1e-6) intersect; {elapsed:.1f}s")


def test_criterion_13_sdpa_golden_files():
    pairs = [
        (emit_sdpa(hankel_lmi(2), (0, 0)), "hankel2.dat-s"),
        (emit_sdpa(hankel_lmi(4), (0, 0, 0, 0)), "hankel4.dat-s"),
        (emit_sdpa(interval_moment_lmi(3, UNIT), (0, 0, 0)), "interval_moment3.dat-s"),
    ]
    ok = all(text == (GOLDEN / name).read_text() for text, name in pairs)
    _report(13, ok, "emitted SDPA files match the hand-written golden files "
                    "byte for byte")
