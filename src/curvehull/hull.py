"""Ground-truth oracles for convex hulls of polynomial curve segments.

Independent of the pencil machinery: support functions are minimized
symbolically (Sturm isolation of critical points with rigorous rational
enclosures), finite-sample hull membership is exact phase-1 simplex
feasibility, and the cross validation plays these oracles against a block
pencil built for the same curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .linalg import _bareiss_pivot
from .lmi import BlockLMI, compose_curve, curve_membership, lmi_membership
from .unipoly import (Interval, RationalEnclosure, UniPoly, _derivative, _horner, _order,
                      _over_lcm, _positive_int, _q, _taylor, derivative_bound,
                      isolate_roots, refine_isolating_interval, squarefree_part)


@dataclass(frozen=True)
class CurveSegment:
    """Parametrized curve t -> (p_1(t), ..., p_n(t)) on a closed interval."""

    components: tuple
    domain: Interval

    def __post_init__(self):
        if not isinstance(self.domain, Interval):
            raise TypeError(f"domain must be an Interval, got {self.domain!r}")
        comps = tuple(p if isinstance(p, UniPoly) else UniPoly(p) for p in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("curve needs at least one component")
        if all(p.degree <= 0 for p in comps):
            raise ValueError("all components are constant")

    @property
    def n(self) -> int:
        return len(self.components)

    def point_at(self, t):
        t = _q(t)
        return tuple(p(t) for p in self.components)

    def objective(self, l) -> UniPoly:
        """The polynomial sum l_i p_i of a linear functional on the curve."""
        if len(l) != self.n:
            raise ValueError("functional dimension mismatch")
        return sum((_q(c) * p for c, p in zip(l, self.components)), UniPoly.zero())


def moment_curve(n: int, domain: Interval) -> CurveSegment:
    """(t, t^2, ..., t^n) on the given interval."""
    return CurveSegment(tuple(UniPoly.monomial(k) for k in range(1, n + 1)), domain)


class SampleRows(NamedTuple):
    """Points as int rows: rows[d][k] / dens[d] is coordinate d of point k,
    over dens[d] the least positive common denominator of row d."""

    rows: tuple
    dens: tuple


def _sample_rows(curve: CurveSegment, count: int) -> SampleRows:
    """`sample_curve` as SampleRows: with a = A/Q0 and b = B/Q0, t_k = P_k/Q
    for P_k = A(count-1) + (B-A)k and Q = Q0(count-1); each coordinate is
    `_horner(nums_d, P_k, Q, deg_d)` over den_d * Q^deg_d, and the row is
    divided by gcd(den, *row), leaving den the lcm `_over_lcm` would give."""
    if _positive_int(count, "count") < 2:
        raise ValueError("need at least two samples")
    (lo, hi), q = _over_lcm((curve.domain.lo, curve.domain.hi))
    ps = [lo * (count - 1) + (hi - lo) * k for k in range(count)]
    q *= count - 1
    cleared = []
    for nums, den in (p.integer_form() for p in curve.components):
        deg = max(len(nums) - 1, 0)
        row = [_horner(nums, pk, q, deg) for pk in ps]
        g = gcd(den * q ** deg, *row)
        cleared.append((tuple(v // g for v in row), den * q ** deg // g))
    return SampleRows(*zip(*cleared))


def sample_curve(curve: CurveSegment, count: int):
    """count equally spaced curve points, endpoints included, exact."""
    rows, dens = _sample_rows(curve, count)
    return [tuple(map(Fraction, col, dens)) for col in zip(*rows)]


def support_min_exact(l, curve: CurveSegment, width) -> RationalEnclosure:
    """Enclose min over the segment of the linear functional sum l_i p_i.

    Endpoint values are exact; each critical point (a root of the
    derivative, isolated by Sturm bisection) contributes an enclosure refined
    until a derivative bound certifies the requested width.  An exact root
    has width 0, so its bound is 0 and its value is exact.  The elementwise
    minimum of the enclosures is again one of at most the individual width.
    """
    objective = curve.objective(l)
    width = _q(width)
    if width <= 0:
        raise ValueError("width must be positive")
    a, b = curve.domain.lo, curve.domain.hi
    candidates = [RationalEnclosure(v, v) for v in (objective(a), objective(b))]
    deriv = objective.derivative()
    if deriv.degree >= 1:
        critical = squarefree_part(deriv)
        for enc in isolate_roots(critical, curve.domain):
            while True:
                bound = derivative_bound(objective, enc.lo, enc.hi) * enc.width
                if 2 * bound <= width:
                    break
                enc = refine_isolating_interval(critical, enc, enc.width / 4)
            center = objective(enc.lo)
            candidates.append(RationalEnclosure(center - bound, center + bound))
    return RationalEnclosure(min(enc.lo for enc in candidates),
                             min(enc.hi for enc in candidates))


# -- exact LP membership -------------------------------------------------------


def _leaving_row(tab, basis, enter):
    """The leaving row of either pricing rule: the least ratio rhs / entry
    over the positive entries of the entering column, ties to the least
    basis index (Bland's leaving rule), or None.

    Every row of the integer tableau shares the positive denominator, so the
    ratios compare by cross-multiplication with positive entries.
    """
    best = None
    for i, row in enumerate(tab):
        a = row[enter]
        if a > 0:
            if best is not None:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[best]):
                    continue
            best, best_b, best_a = i, row[-1], a
    return best


def _phase1(tab) -> bool:
    """Exact phase-1 simplex for {x >= 0 : A x = b} on int rows [A | b], b >= 0.

    The rows are pivoted in integers by `linalg._bareiss_pivot`; the
    denominator is the last pivot, positive.  The artificial basis is
    implicit: the reduced-cost row is the column sums, the artificials'
    labels n..n+m-1 only break `_leaving_row` ties, and only real columns
    enter.  This restricted phase 1 still ends at 0 exactly when the system
    is feasible, as a feasible x gives it (x, 0).

    Pricing is Dantzig's rule, the largest positive reduced cost (the rows
    share one positive denominator, so their ints compare directly; ties go
    to the lowest index), up to the first degenerate pivot, whose leaving
    row has right-hand side 0; that pivot is made, and Bland's rule, the
    lowest index with a positive reduced cost, prices the rest of the solve.
    It terminates: before the switch every pivot has a positive step, so
    the phase-1 objective strictly decreases and no basis repeats, and there
    are finitely many bases; after it, Bland's rule cannot cycle from any
    feasible basis (Bland, Math. Oper. Res. 2, 1977).
    """
    m, n = len(tab), len(tab[0]) - 1
    basis = list(range(n, n + m))
    tab.append([sum(col) for col in zip(*tab)])  # reduced costs of min(sum of artificials)
    den, bland = 1, False
    while True:
        obj = tab[m]
        if bland:
            enter = next((j for j in range(n) if obj[j] > 0), None)
        else:
            top = max(obj[:n], default=0)
            enter = obj.index(top) if top > 0 else None
        if enter is None:
            break
        leave = _leaving_row(tab[:m], basis, enter)
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded (impossible)")
        bland = bland or tab[leave][-1] == 0
        den = _bareiss_pivot(tab, den, leave, enter)
        basis[leave] = enter
    return obj[-1] == 0


def _phase1_feasible(matrix, rhs) -> bool:
    """`_phase1` on the rows [A | b], each cleared by its lcm, negated where b < 0."""
    tab = [_over_lcm([_q(x) for x in (*row, b)])[0] for row, b in zip(matrix, rhs)]
    return _phase1([[-x for x in r] if r[-1] < 0 else r for r in tab])


def finite_hull_membership(points, x) -> bool:
    """Exact test for x in conv(points): existence of lambda >= 0 with
    sum lambda = 1 and sum lambda_i p_i = x, by phase-1 simplex feasibility.

    points is a point list, cleared here, or its SampleRows, which a caller
    with many x clears once: per x, row d is only scaled to lcm(dens[d],
    x_d's denominator) and given its right-hand side, as `_phase1_feasible`."""
    x = tuple(_q(c) for c in x)
    if not isinstance(points, SampleRows):
        points = [tuple(_q(c) for c in p) for p in points]
        if not points:
            raise ValueError("need at least one point")
        if any(len(p) != len(x) for p in points):
            raise ValueError("dimension mismatch")
        if not x:
            return True  # the one point of R^0
        points = SampleRows(*zip(*map(_over_lcm, zip(*points))))
    elif len(x) != len(points.rows):
        raise ValueError("dimension mismatch")
    tab = []
    for row, den, c in zip(*points, x):
        scale = lcm(den, c.denominator)
        b = c.numerator * (scale // c.denominator)
        f = (scale if b >= 0 else -scale) // den
        tab.append([v * f for v in row] + [abs(b)])
    tab.append([1] * (len(points.rows[0]) + 1))
    return _phase1(tab)


# -- LMI-side support values -----------------------------------------------------


class CurvePointRejected(ValueError):
    """The pencil rejects a point of the curve it was built for, so its set
    does not contain the curve's hull; t is the curve parameter."""

    def __init__(self, t):
        super().__init__(f"curve point at t = {t} rejected by the pencil")
        self.t = t


def lmi_support_enclosure(lmi: BlockLMI, curve: CurveSegment, l, tol) -> RationalEnclosure:
    """Enclose the minimal value of the functional l over the pencil set.

    Branch and bound over the curve parameter with exact Lipschitz lower
    bounds per cell; incumbents are curve points confirmed members by the
    exact PSD check.  Sound for hulls of curve segments, where linear
    functionals attain their minima on the curve; the cross-validation
    report records this as a one-sided check.  Raises CurvePointRejected,
    with the parameter t, when the pencil rejects a curve point it meets.

    It runs on ints.  With t = a + (b - a) s on [a, b], the objective is
    g(s) = sum nums_k s^k / gden of degree d, and cell k of level j is
    [k/2^j, (k + 1)/2^j].  A cell carries its endpoint values as
    `unipoly._horner` ints over gden * 2^(j d), and a confirmed midpoint's
    value is handed to both children.  The cell's lower bound, the smaller
    end value less the Taylor bound of |g'| at the midpoint
    (`derivative_bound`) times the half width, is
    2^d min(V_u, V_v) - sum |b_i| over gden * 2^((j+1) d), with
    b = _taylor(g', 2k + 1, 2^(j+1)).  The substitution scales |g'|'s bound
    by b - a and the half width by 1/(b - a), so the bounds, the cells met
    and the enclosure are those of the same search on t.  The pencil is
    composed with the substituted curve once (`lmi.compose_curve`), and
    each point is checked on its int rows (`lmi.curve_membership`).
    """
    if lmi.n != curve.n:
        raise ValueError("dimension mismatch")
    tol = _q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = curve.domain.lo, curve.domain.hi
    w = b - a
    nums, gden = curve.objective(l).affine(a, w).integer_form()
    composed = compose_curve(lmi, [p.affine(a, w) for p in curve.components])
    d = max(len(nums) - 1, 0)
    slope = _derivative(nums)

    def confirmed_value(p: int, q: int) -> int:
        if not curve_membership(composed, p, q):
            raise CurvePointRejected(a + w * Fraction(p, q))
        return _horner(nums, p, q, d)

    fa, fb = confirmed_value(0, 1), confirmed_value(1, 1)
    incumbent = min(fa, fb)
    cells = [(0, fa, fb)]  # (k, value at k/2^j, value at (k+1)/2^j) over gden * 2^(j d)
    q = 1
    while True:
        q *= 2  # values from here on are over gden * q^d, q = 2^(j+1)
        incumbent <<= d
        best_lower = incumbent
        next_cells = []
        for k, fu, fv in cells:
            fu, fv = fu << d, fv << d
            lower = min(fu, fv) - sum(map(abs, _taylor(slope, 2 * k + 1, q)))
            if lower >= incumbent:
                continue  # cell cannot beat the incumbent
            fm = confirmed_value(2 * k + 1, q)
            incumbent = min(incumbent, fm)
            next_cells.extend([(2 * k, fu, fm), (2 * k + 1, fm, fv)])
            best_lower = min(best_lower, lower)
        den = gden * q ** d
        if (incumbent - best_lower) * tol.denominator <= tol.numerator * den or not next_cells:
            return RationalEnclosure(Fraction(best_lower, den), Fraction(incumbent, den))
        cells = next_cells


# -- cross validation -------------------------------------------------------------

_SUPPORT_WIDTH = Fraction(1, 10 ** 6)


@dataclass
class CrossValidationReport:
    """Aggregate of probe and support-function comparisons."""

    n: int
    trials: int
    hull_members_checked: int = 0
    lmi_nonmembers_checked: int = 0
    failures: list = field(default_factory=list)
    support_table: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "hull_members_checked": self.hull_members_checked,
            "lmi_nonmembers_checked": self.lmi_nonmembers_checked,
            "failures": list(self.failures),
            "support_table": [
                {
                    "l": [str(c) for c in row["l"]],
                    "curve_enclosure": [str(row["curve_enclosure"].lo),
                                        str(row["curve_enclosure"].hi)],
                    "lmi_enclosure": [str(row["lmi_enclosure"].lo),
                                      str(row["lmi_enclosure"].hi)],
                    "intersects": row["intersects"],
                    "one_sided_lmi_bound": True,
                }
                for row in self.support_table
            ],
            "all_pass": self.all_pass,
        }


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator at most 1000."""
    den = rng.randint(1, 1000)
    return min(max(Fraction(rng.randint(int(lo * den), int(hi * den)), den), lo), hi)


def cross_validate(curve: CurveSegment, lmi: BlockLMI, trials: int,
                   seed: int = 0, sample_count: int = 60,
                   support_functionals: int = 8) -> CrossValidationReport:
    """Play the exact hull oracles against a pencil built for the same curve.

    Per probe: a sample-hull member must be a pencil member, and a pencil
    non-member must be outside the sample hull (the sample hull sits inside
    the true hull, which the pencil set must contain): one condition seen
    twice, so a probe that breaks it is one failure.  Per functional: the
    symbolic support enclosure and the branch-and-bound pencil-side
    enclosure, both of width at most _SUPPORT_WIDTH, must intersect, and the
    pencil must accept every curve point the branch and bound meets (a
    functional whose search meets a rejected point is a failure and gets no
    support-table row).
    """
    if lmi.n != curve.n:
        raise ValueError("pencil and curve dimensions differ")
    _positive_int(trials, "trials")
    _order(support_functionals, "support_functionals")
    rng = random.Random(seed)
    report = CrossValidationReport(n=curve.n, trials=trials)
    samples = _sample_rows(curve, sample_count)
    box = [(Fraction(min(row), den), Fraction(max(row), den)) for row, den in zip(*samples)]
    pad = [(h - l) / 4 if h > l else Fraction(1) for l, h in box]
    for trial in range(trials):
        if trial % 2 == 0:
            weights = [rng.randint(0, 100) for _ in range(3)]
            total = sum(weights) or 1
            picks = [rng.randrange(sample_count) for _ in range(3)]
            probe = tuple(Fraction(sum(w * row[k] for w, k in zip(weights, picks)), den * total)
                          for row, den in zip(*samples))
        else:
            probe = tuple(_random_rational(rng, l - p, h + p) for (l, h), p in zip(box, pad))
        in_hull = finite_hull_membership(samples, probe)
        in_lmi = lmi_membership(lmi, probe)
        if in_hull:
            report.hull_members_checked += 1
        if not in_lmi:
            report.lmi_nonmembers_checked += 1
        if in_hull and not in_lmi:  # fails both checks, recorded once
            report.failures.append(
                f"sample-hull member rejected by the pencil: {[str(c) for c in probe]}")
    for _ in range(support_functionals):
        l = [Fraction(rng.randint(-5, 5)) for _ in range(curve.n)]
        if all(c == 0 for c in l):
            l[0] = Fraction(1)
        curve_enc = support_min_exact(l, curve, _SUPPORT_WIDTH)
        try:
            lmi_enc = lmi_support_enclosure(lmi, curve, l, _SUPPORT_WIDTH)
        except CurvePointRejected as exc:
            report.failures.append(f"{exc} for l = {[str(c) for c in l]}")
            continue
        hit = curve_enc.intersects(lmi_enc)
        if not hit:
            report.failures.append(
                f"support enclosures disjoint for l = {[str(c) for c in l]}")
        report.support_table.append({
            "l": l,
            "curve_enclosure": curve_enc,
            "lmi_enclosure": lmi_enc,
            "intersects": hit,
        })
    return report
