import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehull import unipoly
from curvehull.hull import (CurvePointRejected, CurveSegment, RationalEnclosure, SampleRows,
                            _leaving_row, _phase1_feasible, _random_rational, _sample_rows,
                            cross_validate,
                            finite_hull_membership, lmi_support_enclosure, moment_curve,
                            sample_curve, support_min_exact)
from curvehull.linalg import _bareiss_pivot
from curvehull.lmi import curve_membership, interval_moment_lmi, lmi_membership
from curvehull.unipoly import Interval, UniPoly, derivative_bound

UNIT = Interval(0, 1)
WIDTH = F(1, 10 ** 6)
t = UniPoly.t()


class TestCurve:
    def test_moment_samples(self):
        pts = sample_curve(moment_curve(2, UNIT), 3)
        assert pts == [(0, 0), (F(1, 2), F(1, 4)), (1, 1)]

    def test_line_samples(self):
        pts = sample_curve(CurveSegment((t,), UNIT), 2)
        assert pts == [(0,), (1,)]

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_curve(moment_curve(2, UNIT), 1)

    @pytest.mark.parametrize("count", [2.5, True, F(3)])
    def test_count_must_be_an_int(self, count):
        message = re.escape(f"count must be a positive integer, got {count!r}")
        with pytest.raises(ValueError, match=message):
            sample_curve(moment_curve(2, UNIT), count)

    def test_constant_curve_rejected(self):
        with pytest.raises(ValueError):
            CurveSegment((UniPoly.one(),), UNIT)

    @pytest.mark.parametrize("domain", [(0, 1), [F(0), F(1)], None])
    def test_domain_must_be_an_interval(self, domain):
        # a tuple used to build, and sampling it then failed on domain.lo
        with pytest.raises(TypeError, match="domain must be an Interval"):
            CurveSegment((t, t * t), domain)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def polynomial_curves(draw):
    """Curves of 1-4 polynomial components of degree at most 4, constant and
    zero components included, on an interval [lo, lo + width] that often
    has negative ends, and a sample count in 2..40."""
    comps = draw(st.lists(st.lists(small_rationals, max_size=5).map(UniPoly),
                          min_size=1, max_size=4).filter(lambda ps: any(p.degree > 0 for p in ps)))
    lo = draw(small_rationals)
    width = draw(st.fractions(min_value=F(1, 9), max_value=5, max_denominator=9))
    return CurveSegment(tuple(comps), Interval(lo, lo + width)), draw(st.integers(2, 40))


class TestSampleRows:
    @settings(max_examples=200, deadline=None)
    @given(polynomial_curves())
    def test_rows_over_their_dens_are_the_curve_points(self, case):
        curve, count = case
        rows, dens = _sample_rows(curve, count)
        a, b = curve.domain.lo, curve.domain.hi
        points = [curve.point_at(a + (b - a) * F(k, count - 1)) for k in range(count)]
        for d, (row, den) in enumerate(zip(rows, dens)):
            assert all(type(v) is int for v in row)
            assert [F(v, den) for v in row] == [p[d] for p in points]
            assert (row, den) == unipoly._over_lcm([p[d] for p in points])
        assert sample_curve(curve, count) == points


class TestSupportMin:
    def test_min_at_endpoint(self):
        enc = support_min_exact((0, 1), moment_curve(2, UNIT), WIDTH)
        assert enc.lo <= 0 <= enc.hi and enc.width <= WIDTH

    def test_min_at_interior_critical_point(self):
        # min of t^2 - t on [0, 1] is -1/4 at t = 1/2
        enc = support_min_exact((-1, 1), moment_curve(2, UNIT), WIDTH)
        assert enc.lo <= F(-1, 4) <= enc.hi and enc.width <= WIDTH

    def test_first_coordinate(self):
        enc = support_min_exact((1, 0, 0, 0), moment_curve(4, UNIT), WIDTH)
        assert enc.lo <= 0 <= enc.hi and enc.width <= WIDTH

    def test_exact_rational_critical_point(self):
        # objective 3t^2 - 3t has the rational critical point 1/2
        curve = CurveSegment((3 * t ** 2 - 3 * t,), UNIT)
        enc = support_min_exact((1,), curve, WIDTH)
        assert enc.lo <= F(-3, 4) <= enc.hi

    def test_exact_critical_point_gives_a_width_0_enclosure(self):
        # t^2 on [0, 1]: the critical point 0 is an exact root of 2t
        enc = support_min_exact([0, 1], moment_curve(2, Interval(0, 1)), F(1, 10 ** 6))
        assert enc == RationalEnclosure(0, 0)

    def test_one_sturm_chain_serves_every_refinement(self, monkeypatch):
        def count_chains(fresh_chain_each_call):
            calls = []
            build = unipoly.sturm_chain

            def counting(q):
                calls.append(q)
                return build(q)

            with monkeypatch.context() as m:
                m.setattr(unipoly, "sturm_chain", counting)
                if fresh_chain_each_call:
                    m.setattr(unipoly, "_sturm_chain_of", counting)
                curve = moment_curve(6, Interval(-1, 1))
                enc = support_min_exact((1, -4, -2, 5, 3, -1), curve, WIDTH)
            return len(calls), enc

        uncached, expected = count_chains(True)
        cached, enc = count_chains(False)
        assert uncached == 12  # isolation and each of the 11 refinements
        assert cached <= 2
        assert (enc.lo, enc.hi) == (expected.lo, expected.hi)

    @pytest.mark.parametrize("width", [0, F(-1, 2)])
    def test_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            support_min_exact([-1, 1], moment_curve(2, UNIT), width)

    def test_oracle_grid_lower_bound(self):
        # enclosure must sit at or below every sampled value
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 4)
            l = [F(rng.randint(-5, 5)) for _ in range(n)]
            curve = moment_curve(n, UNIT)
            enc = support_min_exact(l, curve, WIDTH)
            values = [sum(c * x for c, x in zip(l, p)) for p in sample_curve(curve, 37)]
            assert enc.lo <= min(values)
            assert min(values) >= enc.lo and enc.hi <= min(values) + WIDTH + WIDTH


class TestFiniteHull:
    def test_midpoint(self):
        assert finite_hull_membership([(0, 0), (1, 1)], (F(1, 2), F(1, 2)))

    def test_off_segment(self):
        assert not finite_hull_membership([(0, 0), (1, 1)], (F(1, 2), F(1, 4)))

    def test_vertex(self):
        assert finite_hull_membership([(0, 0), (1, 1), (0, 1)], (0, 1))

    def test_strictly_convex_curve_point(self):
        # with t = 1/2 among the samples the curve point is a hull member;
        # a 100-point equally spaced grid on [0,1] misses t = 1/2, and the
        # point lies strictly outside the sample hull
        probe = (F(1, 2), F(1, 4))
        curve = moment_curve(2, UNIT)
        assert finite_hull_membership(sample_curve(curve, 101), probe)
        assert not finite_hull_membership(sample_curve(curve, 100), probe)

    def test_triangle_interior_and_exterior(self):
        tri = [(0, 0), (2, 0), (0, 2)]
        assert finite_hull_membership(tri, (F(1, 2), F(1, 2)))
        assert not finite_hull_membership(tri, (2, 2))
        assert finite_hull_membership(tri, (1, 1))  # on the edge

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            finite_hull_membership([(0, 0)], (0, 0, 0))

    def test_points_of_dimension_0(self):
        assert finite_hull_membership([(), ()], ())

    def test_no_points_refused(self):
        with pytest.raises(ValueError, match="need at least one point"):
            finite_hull_membership([], (0, 0))

    def test_monotone_in_samples(self):
        curve = moment_curve(3, UNIT)
        rng = random.Random(11)
        coarse = sample_curve(curve, 9)
        fine = sample_curve(curve, 17)  # nested: contains every coarse sample
        assert set(coarse) <= set(fine)
        for _ in range(15):
            probe = tuple(F(rng.randint(0, 100), 100) for _ in range(3))
            if finite_hull_membership(coarse, probe):
                assert finite_hull_membership(fine, probe)

    def test_convex_combination_members(self):
        rng = random.Random(13)
        pts = sample_curve(moment_curve(4, UNIT), 21)
        for _ in range(10):
            picks = [pts[rng.randrange(len(pts))] for _ in range(4)]
            w = [F(rng.randint(0, 10)) for _ in range(4)]
            s = sum(w) or F(1)
            probe = tuple(sum(wi * p[d] for wi, p in zip(w, picks)) / s
                          for d in range(4))
            assert finite_hull_membership(pts, probe)


class TestSandwich:
    def test_sample_hull_inside_pencil_set(self):
        rng = random.Random(17)
        for n in (2, 3):
            curve = moment_curve(n, UNIT)
            pencil = interval_moment_lmi(n, UNIT)
            samples = sample_curve(curve, 25)
            for _ in range(20):
                probe = tuple(F(rng.randint(-20, 120), 100) for _ in range(n))
                if finite_hull_membership(samples, probe):
                    assert lmi_membership(pencil, probe)


class TestLmiSupport:
    def test_agrees_with_symbolic_route(self):
        for n in (2, 3):
            curve = moment_curve(n, UNIT)
            pencil = interval_moment_lmi(n, UNIT)
            for l in ([F(-1)] + [F(1)] * (n - 1), [F(2)] + [F(-3)] * (n - 1)):
                symbolic = support_min_exact(l, curve, WIDTH)
                bounded = lmi_support_enclosure(pencil, curve, l, WIDTH)
                assert symbolic.intersects(bounded)
                assert bounded.width <= WIDTH

    def test_random_integer_functionals(self):
        # both routes must land in intersecting width-1e-6 enclosures
        rng = random.Random(2)
        checked = 0
        for n in (2, 3, 4):
            curve = moment_curve(n, UNIT)
            pencil = interval_moment_lmi(n, UNIT)
            for _ in range(7):
                l = [F(rng.randint(-5, 5)) for _ in range(n)]
                if all(c == 0 for c in l):
                    l[0] = F(1)
                symbolic = support_min_exact(l, curve, WIDTH)
                bounded = lmi_support_enclosure(pencil, curve, l, WIDTH)
                assert symbolic.intersects(bounded), (n, l)
                checked += 1
        assert checked >= 20

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            lmi_support_enclosure(interval_moment_lmi(2, UNIT),
                                  moment_curve(2, UNIT), (1,), WIDTH)

    def test_pencil_of_another_dimension_refused(self):
        # anchored: the functional's own check says "functional dimension mismatch"
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            lmi_support_enclosure(interval_moment_lmi(3, UNIT),
                                  moment_curve(2, UNIT), (1, 1), WIDTH)

    @pytest.mark.parametrize("tol", [0, F(-1, 10)])
    def test_tolerance_must_be_positive(self, tol):
        # with tol = 0 the search on t^2 - t would split forever around t = 1/2,
        # so the check must come before the first membership test
        member = mock.Mock(side_effect=AssertionError("membership tested"))
        with mock.patch("curvehull.hull.curve_membership", member), \
                pytest.raises(ValueError, match="tol must be positive"):
            lmi_support_enclosure(interval_moment_lmi(2, UNIT), moment_curve(2, UNIT),
                                  (-1, 1), tol)
        member.assert_not_called()


def recomputing_support_enclosure(lmi, curve, l, tol, checked):
    """Oracle: the Fraction branch and bound on t that evaluates the objective
    at both ends of every cell (lmi_support_enclosure before it ran on ints);
    each curve point goes through lmi_membership, its t appended to checked."""
    l = [F(c) for c in l]
    tol = F(tol)
    objective = UniPoly.zero()
    for c, p in zip(l, curve.components):
        objective = objective + c * p
    a, b = curve.domain.lo, curve.domain.hi

    def confirmed_value(t):
        checked.append(t)
        if not lmi_membership(lmi, curve.point_at(t)):
            raise CurvePointRejected(t)
        return objective(t)

    incumbent = min(confirmed_value(a), confirmed_value(b))
    cells = [(a, b)]
    while True:
        best_lower = incumbent
        next_cells = []
        for u, v in cells:
            slope = derivative_bound(objective, u, v)
            cell_min = min(objective(u), objective(v))
            lower = cell_min - slope * (v - u) / 2
            if lower >= incumbent:
                continue
            mid = (u + v) / 2
            incumbent = min(incumbent, confirmed_value(mid))
            next_cells.extend([(u, mid), (mid, v)])
            best_lower = min(best_lower, lower)
        if incumbent - best_lower <= tol or not next_cells:
            return RationalEnclosure(best_lower, incumbent)
        cells = next_cells


BENCH_INTERVALS = (Interval(0, 1), Interval(-1, 1), Interval(F(1, 3), 2),
                   Interval(F(-3, 2), F(-1, 2)), Interval(F(2, 7), F(5, 3)))


@st.composite
def support_cases(draw):
    n = draw(st.integers(1, 4))
    l = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)
             .filter(lambda l: any(l)))
    return n, l, draw(st.sampled_from(BENCH_INTERVALS)), draw(
        st.sampled_from((F(1, 1000), F(1, 10 ** 6)))), draw(st.booleans())


def outcome(search):
    """The enclosure's ends, or the parameter of the rejected curve point."""
    try:
        enc = search()
    except CurvePointRejected as exc:
        return "rejected", exc.t
    return enc.lo, enc.hi


class TestSupportBranchAndBound:
    @settings(max_examples=200, deadline=None)
    @given(support_cases())
    def test_same_enclosure_and_membership_calls_as_recomputing(self, case):
        # the integer search checks the same curve points, named by their
        # parameter t, in the same order; on a pencil built for a shorter
        # interval both stop at the same rejected point
        n, l, s, tol, shrunk = case
        curve = moment_curve(n, s)
        pencil = interval_moment_lmi(n, Interval(s.lo, s.hi - s.width / 10) if shrunk else s)
        old, new = [], []

        def member(composed, p, q):
            new.append(s.lo + s.width * F(p, q))
            return curve_membership(composed, p, q)

        expected = outcome(lambda: recomputing_support_enclosure(pencil, curve, l, tol, old))
        with mock.patch("curvehull.hull.curve_membership", member):
            got = outcome(lambda: lmi_support_enclosure(pencil, curve, l, tol))
        assert got == expected
        assert new == old
        assert (got[0] == "rejected") is shrunk


class TestCrossValidate:
    def test_n2(self):
        report = cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT),
                                trials=12, seed=5, support_functionals=3)
        assert report.all_pass, report.failures
        assert report.hull_members_checked > 0
        assert report.lmi_nonmembers_checked > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="pencil and curve dimensions differ"):
            cross_validate(moment_curve(2, UNIT), interval_moment_lmi(3, UNIT), 5)

    @pytest.mark.parametrize("trials", [0, -3, True, 2.5])
    def test_trials_must_be_a_positive_int(self, trials):
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials!r}"):
            cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT), trials)

    @pytest.mark.parametrize("count", [-3, True, 2.5])
    def test_support_functionals_must_be_a_nonnegative_int(self, count):
        with pytest.raises(ValueError, match="support_functionals must be a nonnegative integer"):
            cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT), 2,
                           support_functionals=count)

    def test_zero_support_functionals_skips_the_support_table(self):
        report = cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT), 2,
                                support_functionals=0)
        assert report.support_table == []

    @pytest.mark.parametrize("count, message", [(2.5, "count must be a positive integer"),
                                                (1, "need at least two samples")])
    def test_sample_count_is_checked(self, count, message):
        with pytest.raises(ValueError, match=message):
            cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT), 2,
                           sample_count=count)

    @pytest.mark.parametrize("domain", [Interval(F(-3, 2), F(-1, 2)), Interval(1, 2)])
    def test_probes_are_the_draws_from_the_fraction_samples(self, domain):
        # oracle: the probes drawn from sample_curve's Fraction points with
        # the same rng calls, as cross_validate drew them before it ran on
        # the sample rows; the padded box of x_1 ends below 0 on the first
        # domain and starts above 0 on the second, so draws get clamped
        curve = moment_curve(3, domain)
        seen = []

        def lp(samples, x):
            seen.append(x)
            return finite_hull_membership(samples, x)

        with mock.patch("curvehull.hull.finite_hull_membership", lp):
            cross_validate(curve, interval_moment_lmi(3, curve.domain), trials=40, seed=4,
                           sample_count=20, support_functionals=0)
        rng = random.Random(4)
        samples = sample_curve(curve, 20)
        box = [(min(p[d] for p in samples), max(p[d] for p in samples)) for d in range(3)]
        expected = []
        for trial in range(40):
            if trial % 2 == 0:
                weights = [F(rng.randint(0, 100)) for _ in range(3)]
                picks = [samples[rng.randrange(20)] for _ in range(3)]
                expected.append(tuple(sum(w * p[d] for w, p in zip(weights, picks))
                                      / (sum(weights) or 1) for d in range(3)))
                continue
            probe = []
            for lo, hi in box:
                lo, hi = lo - (hi - lo) / 4, hi + (hi - lo) / 4
                den = rng.randint(1, 1000)
                x = F(rng.randint(int(lo * den), int(hi * den)), den)
                probe.append(lo if x < lo else hi if x > hi else x)
            expected.append(tuple(probe))
        assert seen == expected

    def test_box_draws_are_clamped_into_the_box(self):
        # int() truncates toward 0, so on a box away from 0 the drawn numerator
        # can fall outside it; such a draw becomes the nearer end
        clamped = 0
        for lo, hi in ((F(7, 3), F(5, 2)), (F(-5, 2), F(-7, 3))):
            old, new = random.Random(3), random.Random(3)
            for _ in range(300):
                den = old.randint(1, 1000)
                x = F(old.randint(int(lo * den), int(hi * den)), den)
                clamped += not lo <= x <= hi
                assert _random_rational(new, lo, hi) == min(max(x, lo), hi)
        assert clamped > 0

    def test_json_shape(self):
        report = cross_validate(moment_curve(2, UNIT), interval_moment_lmi(2, UNIT),
                                trials=4, seed=9, support_functionals=2)
        payload = report.to_json()
        assert payload["trials"] == 4
        assert payload["all_pass"] is True
        row = payload["support_table"][0]
        assert set(row) == {"l", "curve_enclosure", "lmi_enclosure",
                            "intersects", "one_sided_lmi_bound"}


class TestEnclosure:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalEnclosure(1, 0)

    def test_intersects(self):
        assert RationalEnclosure(0, 1).intersects(RationalEnclosure(1, 2))
        assert not RationalEnclosure(0, 1).intersects(RationalEnclosure(2, 3))

    def test_one_type_under_every_name(self):
        from curvehull import hull
        assert RationalEnclosure is hull.RationalEnclosure is unipoly.RationalEnclosure
        assert RationalEnclosure(F(1, 2), F(1, 2)).width == 0


# -- the integer phase-1 kernel against the Fraction simplex ---------------------


def fraction_phase1_feasible(matrix, rhs) -> bool:
    """Reference: the dense Fraction phase-1 simplex with Bland's rule for
    {x >= 0 : matrix x = rhs}, kept as an independent oracle."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    tab = []
    for row, b in zip(matrix, rhs):
        row = [F(x) for x in row] + [F(b)]
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row)
    for i in range(m):  # append artificial identity
        art = [F(0)] * m
        art[i] = F(1)
        tab[i] = tab[i][:-1] + art + [tab[i][-1]]
    total = n + m
    basis = list(range(n, total))
    obj = [F(0)] * (total + 1)
    for row in tab:
        for j in range(total + 1):
            obj[j] += row[j]
    for j in range(n, total):
        obj[j] -= 1
    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                  for i in range(m) if tab[i][enter] > 0]
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[-1] == 0


def fraction_hull_membership(points, x) -> bool:
    dim = len(x)
    matrix = [[p[d] for p in points] for d in range(dim)] + [[1] * len(points)]
    return fraction_phase1_feasible(matrix, list(x) + [1])


coords = st.one_of(st.integers(-3, 3).map(F),
                   st.fractions(min_value=-3, max_value=3, max_denominator=12))


@st.composite
def hull_cases(draw):
    """Points (1-5 dimensions, 1-12 points, with duplicates) and a probe:
    random, a convex combination of the points, or on the face a random
    functional c cuts out, in which case the probe moved by -c/1000 is
    outside.  Returns (points, probe, known verdict or None)."""
    dim = draw(st.integers(1, 5))
    point = st.tuples(*[coords] * dim)
    points = draw(st.lists(point, min_size=1, max_size=12))
    if draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))
        points = points[:12]
    kind = draw(st.sampled_from(("random", "combination", "face", "beyond_face")))
    if kind == "random":
        return points, draw(point), None
    if kind == "combination":
        chosen = points
    else:
        c = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(any))
        values = [sum(ci * pi for ci, pi in zip(c, p)) for p in points]
        chosen = [p for p, v in zip(points, values) if v == min(values)]
    weights = draw(st.lists(st.integers(0, 5), min_size=len(chosen), max_size=len(chosen)))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    probe = tuple(sum(w * p[d] for w, p in zip(weights, chosen)) / total for d in range(dim))
    if kind == "beyond_face":
        return points, tuple(x - F(ci, 1000) for x, ci in zip(probe, c)), False
    return points, probe, True


@st.composite
def degenerate_hull_cases(draw):
    """Heavily degenerate LPs: at most five distinct points with entries in
    -2..2, repeated up to twelve points, and a probe at one of them (a
    vertex when it is extreme), at the midpoint of two of them (on an edge
    when they span one), or at either pushed by 1/100 along a random
    integer direction.  Returns (points, probe, known verdict or None)."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2).map(F)] * dim)
    distinct = draw(st.lists(point, min_size=1, max_size=5, unique=True))
    points = draw(st.permutations(distinct + draw(
        st.lists(st.sampled_from(distinct), min_size=1, max_size=12 - len(distinct)))))
    u, v = draw(st.sampled_from(points)), draw(st.sampled_from(points))
    probe = u if draw(st.booleans()) else tuple((x + y) / 2 for x, y in zip(u, v))
    if draw(st.booleans()):
        return points, probe, True
    c = draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
    return points, tuple(x + F(ci, 100) for x, ci in zip(probe, c)), None


# Beale's example of cycling (Beale, Naval Res. Logist. Quart. 2, 1955):
# minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to the first three rows,
# x >= 0, whose minimum is -1/20.  As a feasibility system the last row reads
# objective + x8 = value, which has a solution exactly when value >= -1/20.
BEALE = [[1, 0, 0, F(1, 4), -60, F(-1, 25), 9, 0],
         [0, 1, 0, F(1, 2), -90, F(-1, 50), 3, 0],
         [0, 0, 1, 0, 0, 1, 0, 0],
         [0, 0, 0, F(-3, 4), 150, F(-1, 50), 6, 1]]


def dantzig_only_bases(matrix, rhs, steps):
    """The basis after each of `steps` pivots of `_phase1_feasible`'s tableau
    priced by Dantzig's rule alone, with no Bland fallback."""
    tab = []
    for row, b in zip(matrix, rhs):
        ints, _ = unipoly._over_lcm([F(x) for x in (*row, b)])
        tab.append([-x for x in ints] if ints[-1] < 0 else ints)
    m, n = len(tab), len(matrix[0])
    basis = list(range(n, n + m))
    tab.append([sum(col) for col in zip(*tab)])
    den, bases = 1, []
    for _ in range(steps):
        enter = tab[m].index(max(tab[m][:n]))
        leave = _leaving_row(tab[:m], basis, enter)
        assert tab[leave][-1] == 0  # every step is degenerate
        den = _bareiss_pivot(tab, den, leave, enter)
        basis[leave] = enter
        bases.append(tuple(basis))
    return bases


class TestPhase1Kernel:
    @settings(max_examples=400, deadline=None)
    @given(hull_cases())
    def test_agrees_with_the_fraction_simplex(self, case):
        points, probe, known = case
        verdict = finite_hull_membership(points, probe)
        assert verdict == fraction_hull_membership(points, probe)
        if known is not None:
            assert verdict is known

    @settings(max_examples=300, deadline=None)
    @given(degenerate_hull_cases())
    def test_agrees_with_the_fraction_simplex_on_degenerate_inputs(self, case):
        points, probe, known = case
        verdict = finite_hull_membership(points, probe)
        assert verdict == fraction_hull_membership(points, probe)
        if known is not None:
            assert verdict is known

    def test_dantzig_pricing_alone_cycles_on_beales_example(self):
        # six degenerate pivots bring the basis back: without the Bland
        # fallback the solve would never end
        bases = dantzig_only_bases(BEALE, [0, 0, 1, F(-51, 1000)], 14)
        assert bases[2:8] == bases[8:14]
        assert len(set(bases[2:8])) == 6

    @pytest.mark.parametrize("value, feasible", [(F(-1, 20), True), (F(-51, 1000), False),
                                                 (0, True)])
    def test_beales_example_terminates_with_the_right_verdict(self, value, feasible):
        pivots = []

        def capped(*args):
            pivots.append(args[2:])
            assert len(pivots) <= 30, "phase 1 cycles"
            return _bareiss_pivot(*args)

        with mock.patch("curvehull.hull._bareiss_pivot", capped):
            assert _phase1_feasible(BEALE, [0, 0, 1, value]) is feasible
        assert fraction_phase1_feasible(BEALE, [0, 0, 1, value]) is feasible

    def test_pivot_counts_of_a_crossval_case(self):
        # the four probe LPs of the n = 6, [0, 1] crossval shape at seed 0;
        # Bland's rule alone takes 32, 3, 47 and 21 pivots
        counts = []

        def counting(*args):
            counts[-1] += 1
            return _bareiss_pivot(*args)

        def lp(points, x):
            counts.append(0)
            return finite_hull_membership(points, x)

        with mock.patch("curvehull.hull._bareiss_pivot", counting), \
                mock.patch("curvehull.hull.finite_hull_membership", lp):
            report = cross_validate(moment_curve(6, UNIT), interval_moment_lmi(6, UNIT),
                                    trials=4, seed=0, sample_count=20, support_functionals=0)
        assert counts == [13, 1, 25, 2]
        assert (report.hull_members_checked, report.lmi_nonmembers_checked) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pivots_keep_den_times_the_rational_tableau(self, data):
        # Gauss-Jordan steps on rationals, the same steps by Bareiss on
        # integers: the integer tableau is den times the rational one
        rows = data.draw(st.integers(2, 4))
        cols = data.draw(st.integers(rows, 6))
        tab = [data.draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
               for _ in range(rows)]
        exact = [[F(x) for x in row] for row in tab]
        den = 1
        for leave in data.draw(st.permutations(range(rows))):
            enter = next((j for j in range(cols) if tab[leave][j] != 0), None)
            if enter is None:
                continue
            den = _bareiss_pivot(tab, den, leave, enter)
            piv = exact[leave][enter]
            exact[leave] = [x / piv for x in exact[leave]]
            exact = [row if i == leave else
                     [x - row[enter] * y for x, y in zip(row, exact[leave])]
                     for i, row in enumerate(exact)]
            assert tab == [[den * x for x in row] for row in exact]

    def test_bareiss_divides_by_the_old_pivot(self):
        tab = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
        den = _bareiss_pivot(tab, 1, 0, 0)
        assert (den, tab) == (2, [[2, 1, 0], [0, 5, 2], [0, 2, 4]])
        den = _bareiss_pivot(tab, den, 1, 1)
        assert (den, tab) == (5, [[5, 0, -1], [0, 5, 2], [0, 0, 8]])

    def test_leaving_row_breaks_ratio_ties_by_basis_index(self):
        # rows (entry, rhs): ratios 2, 2, 3 and one non-positive entry
        tab = [[2, 4], [1, 2], [1, 3], [-1, 0]]
        assert _leaving_row(tab, [7, 3, 1, 0], 0) == 1
        assert _leaving_row(tab, [3, 7, 1, 0], 0) == 0
        assert _leaving_row([[0, 1], [-2, 3]], [0, 1], 0) is None
        assert _leaving_row([[3, 1], [1, 1]], [0, 1], 0) == 0  # 1/3 < 1

    def test_vertex_pushed_out_by_one_part_in_a_trillion_is_rejected(self):
        # every sample of the moment curve is a vertex of the sample hull;
        # x_2 - 2 t0 x_1 + t0^2 >= 0 on the curve, with equality only at t0
        samples = sample_curve(moment_curve(3, UNIT), 20)
        eps = F(1, 10 ** 12)
        for k in (0, 7, 19):
            vertex = samples[k]
            assert finite_hull_membership(samples, vertex)
            pushed = (vertex[0], vertex[1] - eps, vertex[2])
            assert not finite_hull_membership(samples, pushed)


def point_rows(points):
    """The SampleRows of a point list: each coordinate row over its lcm."""
    return SampleRows(*zip(*(unipoly._over_lcm([F(c) for c in col]) for col in zip(*points))))


def pivoting(oracle, *args):
    """The verdict of oracle(*args) and the (leave, enter) of each of its pivots."""
    pivots = []

    def recording(*pivot_args):
        pivots.append(pivot_args[2:4])
        return _bareiss_pivot(*pivot_args)

    with mock.patch("curvehull.hull._bareiss_pivot", recording):
        return oracle(*args), pivots


class TestSharedRows:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(hull_cases(), degenerate_hull_cases()))
    def test_shared_rows_pivot_as_the_point_list_route(self, case):
        # the rows are cleared once; a probe only scales them and adds its
        # right-hand side, so the tableau and every pivot are those of the
        # lcm-cleared point-list system
        points, probe, known = case
        rows = point_rows(points)
        matrix = [[p[d] for p in points] for d in range(len(probe))] + [[1] * len(points)]
        expected = pivoting(_phase1_feasible, matrix, [*probe, 1])
        assert pivoting(finite_hull_membership, rows, probe) == expected
        assert pivoting(finite_hull_membership, points, probe) == expected
        assert pivoting(finite_hull_membership, rows, points[0]) == pivoting(
            finite_hull_membership, points, points[0])
        assert rows == point_rows(points)  # no solve writes to the shared rows
        if known is not None:
            assert expected[0] is known

    @pytest.mark.parametrize("domain", [UNIT, Interval(F(-3, 2), F(2, 3))])
    def test_vertex_pushed_out_through_the_shared_rows_is_refused(self, domain):
        # as the point-list test above: x_2 - 2 t0 x_1 + t0^2 >= 0 on the
        # moment curve, with equality only at t0, so every sample is a vertex
        rows = _sample_rows(moment_curve(3, domain), 20)
        eps = F(1, 10 ** 12)
        for k in (0, 7, 19):
            vertex = tuple(F(row[k], den) for row, den in zip(*rows))
            assert finite_hull_membership(rows, vertex)
            assert not finite_hull_membership(rows, (vertex[0], vertex[1] - eps, vertex[2]))

    def test_rows_of_another_dimension_are_refused(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            finite_hull_membership(_sample_rows(moment_curve(3, UNIT), 5), (0, 0))


class TestWrongPencil:
    def test_pencil_of_a_smaller_interval_is_reported_not_raised(self):
        curve = moment_curve(4, UNIT)
        pencil = interval_moment_lmi(4, Interval(F(1, 4), F(3, 4)))
        report = cross_validate(curve, pencil, trials=4, seed=1)
        assert not report.all_pass
        rejected = [f for f in report.failures if "rejected by the pencil for l" in f]
        assert len(rejected) == 8  # every default functional meets t = 0
        assert report.to_json()["all_pass"] is False

    def test_one_failure_per_bad_probe(self):
        curve = moment_curve(4, UNIT)
        pencil = interval_moment_lmi(4, Interval(F(1, 4), F(3, 4)))
        verdicts = {"hull": [], "lmi": []}

        def recording(key, oracle):
            def wrapped(*args):
                verdicts[key].append(oracle(*args))
                return verdicts[key][-1]
            return wrapped

        with mock.patch("curvehull.hull.finite_hull_membership",
                        recording("hull", finite_hull_membership)), \
                mock.patch("curvehull.hull.lmi_membership",
                           recording("lmi", lmi_membership)):
            report = cross_validate(curve, pencil, trials=6, seed=1, support_functionals=0)
        pairs = list(zip(verdicts["hull"], verdicts["lmi"], strict=True))
        assert len(pairs) == 6
        bad = sum(h and not m for h, m in pairs)
        assert bad == 3
        assert len(report.failures) == bad
        assert report.hull_members_checked == sum(h for h, _ in pairs)
        assert report.lmi_nonmembers_checked == sum(not m for _, m in pairs)

    def test_rejection_carries_the_parameter(self):
        pencil = interval_moment_lmi(2, Interval(F(1, 4), F(3, 4)))
        with pytest.raises(CurvePointRejected) as err:
            lmi_support_enclosure(pencil, moment_curve(2, UNIT), (1, 1), WIDTH)
        assert err.value.t == 0
        assert isinstance(err.value, ValueError)
