import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehull import unipoly
from curvehull.unipoly import (Interval, RationalEnclosure, UniPoly, _over_lcm,
                               count_roots_interior,
                               count_roots_with_multiplicity, derivative_bound,
                               is_nonnegative_on, isolate_roots, poly_gcd,
                               refine_isolating_interval, squarefree_decomposition,
                               squarefree_part)

t = UniPoly.t()


def rand_poly(rng, max_deg=6, denom=10):
    coeffs = [F(rng.randint(-8, 8), rng.randint(1, denom))
              for _ in range(rng.randint(0, max_deg) + 1)]
    return UniPoly(coeffs)


class TestArithmetic:
    def test_degree_and_zero(self):
        assert UniPoly.zero().is_zero
        assert UniPoly.zero().degree == -1
        assert UniPoly((0, 0, 3, 0)).degree == 2

    def test_mul_and_pow(self):
        p = (t - 1) * (t + 1)
        assert p == t * t - 1
        assert (t - F(1, 2)) ** 2 == t * t - t + F(1, 4)

    def test_divmod(self):
        p = t ** 3 - 1
        q, r = divmod(p, t - 1)
        assert r.is_zero and q == t * t + t + 1
        with pytest.raises(ZeroDivisionError):
            divmod(p, UniPoly.zero())

    def test_shift(self):
        p = t ** 2 + 2 * t
        shifted = p.shift(F(1, 2))
        for x in (F(0), F(1, 3), F(-2)):
            assert shifted(x) == p(x + F(1, 2))

    def test_ord_at(self):
        p = t ** 3 * (t - F(1, 2)) ** 2
        assert p.ord_at(0) == 3
        assert p.ord_at(F(1, 2)) == 2
        assert p.ord_at(1) == 0


class TestDerivative:
    def test_power_rule(self):
        assert (t ** 3).derivative() == 3 * t ** 2
        assert (t ** 3).derivative(3) == UniPoly.constant(6)
        assert UniPoly.constant(5).derivative() == UniPoly.zero()

    def test_order_zero_is_identity(self):
        p = 2 * t ** 4 - t
        assert p.derivative(0) == p

    def test_composition(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rand_poly(rng)
            k = rng.randint(0, 4)
            j = rng.randint(0, k)
            assert p.derivative(j).derivative(k - j) == p.derivative(k)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            t.derivative(-1)


class TestRootCounting:
    def test_double_root(self):
        assert count_roots_with_multiplicity((t - F(1, 2)) ** 2, Interval(0, 1)) == 2

    def test_no_real_roots(self):
        assert count_roots_with_multiplicity(t * t + 1, Interval(-10, 10)) == 0

    def test_endpoint_roots_counted(self):
        assert count_roots_with_multiplicity(t * (t - 1), Interval(0, 1)) == 2

    def test_interior_count_excludes_endpoints(self):
        p = t * (t - 1) * (t - F(1, 2)) ** 2
        assert count_roots_with_multiplicity(p, Interval(0, 1)) == 4
        assert count_roots_interior(p, Interval(0, 1)) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            count_roots_with_multiplicity(UniPoly.zero(), Interval(0, 1))

    def test_multiplicative_in_factors(self):
        rng = random.Random(13)
        s = Interval(0, 1)
        for _ in range(20):
            def factor():
                p = UniPoly.one()
                for _ in range(rng.randint(1, 3)):
                    root = F(rng.randint(-4, 8), rng.randint(1, 6))
                    p = p * (t - root) ** rng.randint(1, 2)
                return p
            p, q = factor(), factor()
            assert (count_roots_with_multiplicity(p * q, s)
                    == count_roots_with_multiplicity(p, s)
                    + count_roots_with_multiplicity(q, s))

    def test_against_sympy_oracle(self):
        # independent route: sympy counts distinct roots per squarefree layer
        import sympy
        x = sympy.Symbol("x")
        rng = random.Random(47)
        s = Interval(F(-1, 2), F(3, 2))
        for _ in range(25):
            p = rand_poly(rng, max_deg=5)
            if p.is_zero or p.degree < 1:
                continue
            expected = 0
            _, layers = squarefree_decomposition(p)
            for q, mult in layers:
                expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                           for k, c in enumerate(q.coeffs))
                expected += mult * sympy.Poly(expr, x).count_roots(
                    sympy.Rational(-1, 2), sympy.Rational(3, 2))
            assert count_roots_with_multiplicity(p, s) == expected


class TestSquarefree:
    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            p = UniPoly.constant(F(rng.randint(1, 5), rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3)):
                p = p * (t - F(rng.randint(-3, 3), rng.randint(1, 4))) ** rng.randint(1, 3)
            unit, factors = squarefree_decomposition(p)
            rebuilt = UniPoly.constant(unit)
            for f, mult in factors:
                rebuilt = rebuilt * f ** mult
            assert rebuilt == p

    def test_factors_squarefree_and_coprime(self):
        p = t ** 3 * (t - 1) ** 2 * (t + 2)
        _, factors = squarefree_decomposition(p)
        for f, _ in factors:
            assert poly_gcd(f, f.derivative()).degree == 0
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert poly_gcd(factors[i][0], factors[j][0]).degree == 0

    def test_known_decomposition(self):
        _, factors = squarefree_decomposition(t ** 3 * (t - 1) ** 2)
        assert sorted((f.to_string(), m) for f, m in factors) == [("t", 3), ("t - 1", 2)]


class TestNonnegativity:
    def test_square_is_nonneg(self):
        assert is_nonnegative_on((t - F(1, 2)) ** 2, Interval(0, 1))

    def test_negative_at_left_endpoint(self):
        assert not is_nonnegative_on(t - F(1, 2), Interval(0, 1))

    def test_vanishing_combination(self):
        # -(t-1/2)^2 + 1/4 - t(1-t) collapses to the zero polynomial
        p = -((t - F(1, 2)) ** 2) + F(1, 4) - t * (1 - t)
        assert p.is_zero
        assert is_nonnegative_on(p, Interval(0, 1))

    def test_interior_dip_with_zero_endpoints(self):
        # both endpoint values vanish but the interior is negative
        assert not is_nonnegative_on(-(t * (1 - t)), Interval(0, 1))
        assert is_nonnegative_on(t * (1 - t), Interval(0, 1))

    def test_grid_consistency(self):
        rng = random.Random(11)
        s = Interval(0, 1)
        grid = [F(k, 40) for k in range(41)]
        for _ in range(40):
            p = rand_poly(rng)
            if is_nonnegative_on(p, s):
                assert all(p(x) >= 0 for x in grid)
            else:
                # the witness is a real point; the grid may or may not see it,
                # but a negative grid value must never contradict a True answer
                pass

    def test_zero_polynomial(self):
        assert is_nonnegative_on(UniPoly.zero(), Interval(-1, 1))


class TestIsolation:
    def test_isolates_mixed_roots(self):
        q = squarefree_part((t - F(1, 3)) * (t - F(2, 3)) * (t * t - 2))
        spans = isolate_roots(q, Interval(0, 2))
        assert len(spans) == 3  # 1/3, 2/3, sqrt(2)
        assert [enc.lo for enc in spans] == sorted(enc.lo for enc in spans)
        for enc in spans:
            if enc.width == 0:
                assert q(enc.lo) == 0
            else:
                assert q(enc.lo) * q(enc.hi) < 0  # simple root inside

    def test_exact_endpoint_roots(self):
        q = t * (t - 1)
        spans = isolate_roots(q, Interval(0, 1))
        assert RationalEnclosure(0, 0) in spans and RationalEnclosure(1, 1) in spans

    def test_refinement_shrinks_to_the_width_or_hits_the_root(self):
        q = t * t - 2
        (enc,) = isolate_roots(q, Interval(1, 2))
        for max_width in (F(1, 2), F(1, 1000), F(1, 10 ** 12)):
            got = refine_isolating_interval(q, enc, max_width)
            assert 0 < got.width <= max_width
            assert enc.lo <= got.lo and got.hi <= enc.hi
            assert q(got.lo) * q(got.hi) < 0
        q = (t - F(1, 2)) * (t - 3)
        (enc,) = isolate_roots(q, Interval(0, 2))
        assert refine_isolating_interval(q, enc, F(1, 10)) == RationalEnclosure(F(1, 2), F(1, 2))

    @pytest.mark.parametrize("max_width", [0, F(-1, 3)])
    def test_refinement_refuses_a_width_that_is_not_positive(self, max_width, monkeypatch):
        # with max_width = 0 the bisection around sqrt(2) would never stop, so
        # the check must come before the Sturm chain is built
        q = t * t - 2
        (enc,) = isolate_roots(q, Interval(1, 2))
        monkeypatch.setattr(unipoly, "sturm_chain", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="max_width must be positive"):
            refine_isolating_interval(q, enc, max_width)

    def test_refinement_refuses_a_float_width(self):
        q = t * t - 2
        (enc,) = isolate_roots(q, Interval(1, 2))
        with pytest.raises(TypeError, match="a float is not an exact rational"):
            refine_isolating_interval(q, enc, 0.001)

    def test_derivative_bound_is_a_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rand_poly(rng)
            u, v = F(-1, 2), F(3, 4)
            bound = derivative_bound(p, u, v)
            d = p.derivative()
            for k in range(11):
                x = u + (v - u) * F(k, 10)
                assert abs(d(x)) <= bound


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1, 1)
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_contains(self):
        s = Interval(0, 1)
        assert s.contains(F(1, 2)) and s.contains(0) and s.contains(1)
        assert not s.strictly_contains(0)

    def test_float_endpoints_are_refused(self):
        # 0.1 is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError):
            Interval(0.1, 1)
        assert Interval("0.1", 1).lo == F(1, 10)


class TestExactCoercion:
    @pytest.mark.parametrize("value", [0.3, 0.5, 1.0, float("inf"), float("nan")])
    def test_floats_are_refused(self, value):
        with pytest.raises(TypeError):
            unipoly._q(value)
        with pytest.raises(TypeError):
            UniPoly([1, value])

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_refused(self, value):
        with pytest.raises(TypeError, match="a bool is not an exact rational"):
            unipoly._q(value)
        with pytest.raises(TypeError, match="a bool is not an exact rational"):
            UniPoly([1, value])

    def test_numpy_floats_are_refused(self):
        np = pytest.importorskip("numpy")
        for value in (np.float64(0.3), np.float32(0.5), np.float16(1)):
            with pytest.raises(TypeError):
                unipoly._q(value)

    @pytest.mark.parametrize("value, exact", [("0.3", F(3, 10)), ("3/10", F(3, 10)),
                                              (3, F(3)), (F(3, 10), F(3, 10))])
    def test_exact_values_pass(self, value, exact):
        assert unipoly._q(value) == exact


# -- integer kernels against the Fraction routines they replaced -------------

def fraction_horner(p: UniPoly, x) -> F:
    """Oracle: Horner's rule on Fractions, one Fraction product and sum per
    coefficient (UniPoly.__call__ before its integer form)."""
    x = F(x)
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def fraction_derivative_bound(p: UniPoly, lo, hi) -> F:
    """Oracle: sum_k |p'^(k)(m)| / k! * r^k by repeated derivatives and
    Fraction Horner (derivative_bound before its integer Taylor shift)."""
    m = (lo + hi) / 2
    r = (hi - lo) / 2
    d = p.derivative()
    total = F(0)
    fact = 1
    power = F(1)
    k = 0
    while not d.is_zero:
        total += abs(fraction_horner(d, m)) / fact * power
        d = d.derivative()
        k += 1
        fact *= k
        power *= r
    return total


rationals = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
points = st.one_of(st.integers(-20, 20).map(F), st.just(F(0)), rationals,
                   st.builds(F, st.integers(-10 ** 6, 0), st.integers(1, 10 ** 6)))
polys = st.lists(st.one_of(rationals, st.integers(-9, 9).map(F)),
                 min_size=0, max_size=13).map(UniPoly)


class TestIntegerKernels:
    @settings(max_examples=400, deadline=None)
    @given(polys, points, st.integers(0, 3))
    def test_call_matches_fraction_horner(self, p, x, extra):
        assert p(x) == fraction_horner(p, x)
        assert type(p(x)) is F
        # the integer Horner is q^d times the value for any d >= the degree
        nums, den = p.integer_form()
        d = max(p.degree, 0) + extra
        acc = unipoly._horner(nums, x.numerator, x.denominator, d)
        assert type(acc) is int and acc == fraction_horner(p, x) * den * x.denominator ** d

    @settings(max_examples=400, deadline=None)
    @given(polys, points, st.one_of(st.just(F(0)), rationals))
    def test_derivative_bound_matches_the_fraction_loop(self, p, lo, width):
        hi = lo + abs(width)
        assert derivative_bound(p, lo, hi) == fraction_derivative_bound(p, lo, hi)

    def test_over_lcm_clears_denominators_by_their_positive_lcm(self):
        assert _over_lcm([F(1, 2), F(-2, 3), F(0), F(5)]) == ((3, -4, 0, 30), 6)
        assert _over_lcm([F(-1, 4)]) == ((-1,), 4)
        assert _over_lcm([]) == ((), 1)

    def test_integer_form(self):
        p = UniPoly((F(1, 6), F(-3, 4), 2))
        assert p.integer_form() == ((2, -9, 24), 12)
        assert UniPoly.zero().integer_form() == ((), 1)
        assert UniPoly((F(-2, 3),)).integer_form() == ((-2,), 3)

    def test_integer_form_is_not_part_of_equality(self):
        p, q = t ** 2 - F(1, 3), t ** 2 - F(1, 3)
        p.integer_form()
        assert p == q and hash(p) == hash(q)

    def test_known_values(self):
        p = F(1, 2) * t ** 3 - F(2, 3) * t + 5
        assert p(F(-3, 2)) == F(1, 2) * F(-27, 8) + 1 + 5
        assert p(0) == 5 and UniPoly.zero()(F(7, 3)) == 0
        # p' = 3/2 t^2 - 2/3; on [0, 2]: m = 1, r = 1, |p'(1)| + |3| + |3/2|
        assert derivative_bound(p, F(0), F(2)) == F(5, 6) + 3 + F(3, 2)
        assert derivative_bound(p, F(1), F(1)) == F(5, 6)
        # on [0, 1]: m = r = 1/2, |p'(1/2)| + |3/2| / 2 + |3/2| / 4
        assert derivative_bound(p, F(0), F(1)) == F(7, 24) + F(3, 4) + F(3, 8)
        assert derivative_bound(UniPoly.constant(4), F(0), F(1)) == 0


# -- ring laws, division and Sturm counts --------------------------------------

small_polys = st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
                       max_size=7).map(UniPoly)


class TestRingProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        zero, one = UniPoly.zero(), UniPoly.one()
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a - a == zero and -(-a) == a

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys.filter(lambda b: not b.is_zero))
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, points)
    def test_evaluation_is_a_ring_map(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


# t^2 + b t + c with a positive discriminant that is not a square: two
# irrational real roots, irreducible over Q
irrational_quadratics = st.tuples(st.integers(-6, 6), st.integers(-9, 9)).filter(
    lambda bc: bc[0] ** 2 - 4 * bc[1] > 0
    and math.isqrt(bc[0] ** 2 - 4 * bc[1]) ** 2 != bc[0] ** 2 - 4 * bc[1]
).map(lambda bc: t * t + bc[0] * t + bc[1])
# (t + a)^2 + e with e > 0: no real root
rootless_quadratics = st.builds(
    lambda a, e: (t + a) ** 2 + e,
    st.builds(F, st.integers(-12, 12), st.integers(1, 6)),
    st.builds(F, st.integers(1, 9), st.integers(1, 9)))


@st.composite
def linear_products(draw):
    """c * prod (t - r_i)^(m_i) with distinct rational roots, optionally times
    a power of an irreducible quadratic, and an interval whose ends may be
    roots."""
    rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    roots = draw(st.lists(rationals, min_size=1, max_size=4, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    c = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    c = draw(st.sampled_from((c, -c)))
    quadratic = draw(st.none() | st.tuples(irrational_quadratics | rootless_quadratics,
                                           st.integers(1, 3)))
    lo = draw(rationals | st.sampled_from(roots))
    above = [r for r in roots if r > lo]
    widths = st.builds(F, st.integers(1, 24), st.integers(1, 6)).map(lambda w: lo + w)
    hi = draw(widths | st.sampled_from(above) if above else widths)
    p = UniPoly.constant(c)
    for r, m in zip(roots, mults):
        p = p * (t - r) ** m
    if quadratic:
        p = p * quadratic[0] ** quadratic[1]
    return p, list(zip(roots, mults)), quadratic, Interval(lo, hi)


def quadratic_roots_in(q: UniPoly, s: Interval) -> int:
    """Roots in s of a monic quadratic q without rational roots, read from the
    signs of q at the ends and at its vertex."""
    at_lo, at_hi = q(s.lo), q(s.hi)
    if at_lo * at_hi < 0:
        return 1
    vertex = -q.coeff(1) / 2
    return 2 if at_lo > 0 and s.lo < vertex < s.hi and q(vertex) < 0 else 0


def inline_is_nonnegative_on(p: UniPoly, s: Interval) -> bool:
    """Oracle: is_nonnegative_on before it read the per-layer counts.  Each
    odd layer gets a closed Sturm count (endpoint roots deflated first), less
    its endpoint roots."""
    if p.is_zero:
        return True
    for f, mult in squarefree_decomposition(p)[1]:
        if mult % 2 == 1:
            q, inside = f, 0
            for x in (s.lo, s.hi):
                if q.degree > 0 and q(x) == 0:
                    inside += 1
                    q = q.exact_divide(UniPoly((-x, 1)))
            if q.degree > 0:
                chain = unipoly.sturm_chain(q)
                inside += unipoly._variations(chain, s.lo) - unipoly._variations(chain, s.hi)
            if f(s.lo) == 0:
                inside -= 1
            if f(s.hi) == 0:
                inside -= 1
            if inside > 0:
                return False
    return p(unipoly._interior_nonroot(p, s.lo, s.hi)) > 0


class TestSturmCounts:
    @settings(max_examples=200, deadline=None)
    @given(linear_products())
    def test_counts_of_products_of_linear_factors(self, case):
        p, roots, quadratic, s = case
        irrational = quadratic[1] * quadratic_roots_in(quadratic[0], s) if quadratic else 0
        assert count_roots_with_multiplicity(p, s) == irrational + sum(
            m for r, m in roots if s.lo <= r <= s.hi)
        assert count_roots_interior(p, s) == irrational + sum(
            m for r, m in roots if s.lo < r < s.hi)

    @settings(max_examples=200, deadline=None)
    @given(linear_products())
    def test_nonnegativity_matches_the_inline_routine(self, case):
        p, _, _, s = case
        for q in (p, -p, p * (t - s.lo), p * (s.hi - t)):
            assert is_nonnegative_on(q, s) == inline_is_nonnegative_on(q, s)

    def test_interior_count_runs_no_taylor_shift(self, monkeypatch):
        shifts = []
        shift = UniPoly.shift
        monkeypatch.setattr(UniPoly, "shift", lambda p, a: shifts.append(a) or shift(p, a))
        p = (t - F(1, 3)) ** 2 * (t - F(1, 2)) * (t - 1) ** 3 * (t * t - 2)
        assert count_roots_interior(p, Interval(F(1, 3), 1)) == 1
        assert count_roots_interior(p, Interval(F(1, 3), 2)) == 5
        assert shifts == []

    @settings(max_examples=100, deadline=None)
    @given(linear_products())
    def test_isolation_finds_each_distinct_root(self, case):
        p, roots, quadratic, s = case
        q = squarefree_part(p)
        spans = isolate_roots(q, s)
        inside = [r for r, _ in roots if s.lo <= r <= s.hi]
        irrational = quadratic_roots_in(quadratic[0], s) if quadratic else 0
        assert len(spans) == len(inside) + irrational
        assert all(any(enc.lo <= r <= enc.hi for enc in spans) for r in inside)
        assert all(q(enc.lo) == 0 for enc in spans if enc.width == 0)

    @pytest.mark.xfail(strict=True, reason="known defect: a rational root met at a split "
                       "point is deflated and the bisection restarts on the quotient, so "
                       "an interval returned for the quotient can still hold that root")
    def test_isolating_intervals_hold_one_root_of_q(self):
        q = (t - F(1, 3)) * (t - 1)
        spans = isolate_roots(q, Interval(-2, 2))
        for enc in spans:
            if enc.width > 0:
                assert count_roots_with_multiplicity(q, Interval(enc.lo, enc.hi)) == 1


# -- the layer census against the deflating routine ---------------------------

def deflated_layer_roots(q: UniPoly, lo: F, hi: F):
    """Oracle: _layer_roots before it read endpoint roots by sign.  Each end
    that is a root is divided out, then one Sturm count runs on a fresh chain
    of the quotient."""
    ends = 0
    for x in (lo, hi):
        if q.degree > 0 and q(x) == 0:
            ends += 1
            q = q.exact_divide(UniPoly((-x, 1)))
    if q.degree <= 0:
        return ends, 0
    chain = unipoly.sturm_chain(q)
    return ends, unipoly._variations(chain, lo) - unipoly._variations(chain, hi)


@st.composite
def census_cases(draw):
    """(q, lo, hi): q a squarefree product of distinct rational linear factors
    and distinct irrational quadratics; lo and hi are each drawn from q's
    rational roots half the time, with lo < hi."""
    rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    roots = draw(st.lists(rationals, max_size=4, unique=True))
    quadratics = draw(st.lists(irrational_quadratics, min_size=0 if roots else 1,
                               max_size=2, unique=True))
    q = UniPoly.constant(draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))))
    for h in [t - r for r in roots] + quadratics:
        q = q * h
    lo = draw(st.sampled_from(roots) if roots and draw(st.booleans()) else rationals)
    above = [r for r in roots if r > lo]
    if above and draw(st.booleans()):
        hi = draw(st.sampled_from(above))
    else:
        hi = lo + draw(st.builds(F, st.integers(1, 24), st.integers(1, 6)))
    return q, lo, hi


class TestLayerCensus:
    @settings(max_examples=300, deadline=None)
    @given(census_cases())
    def test_matches_the_deflating_count(self, case):
        q, lo, hi = case
        assert unipoly._layer_roots(q, lo, hi) == deflated_layer_roots(q, lo, hi)

    def test_divides_nothing_out(self, monkeypatch):
        divisions = []
        divide = UniPoly.exact_divide
        monkeypatch.setattr(UniPoly, "exact_divide",
                            lambda p, d: divisions.append(d) or divide(p, d))
        q = (t - F(1, 3)) * (t - 1) * (t * t - 2)
        assert unipoly._layer_roots(q, F(1, 3), F(1)) == (2, 0)
        assert unipoly._layer_roots(q, F(1, 3), F(3, 2)) == (1, 2)
        assert unipoly._layer_roots(q, F(-2), F(1, 3)) == (1, 1)
        assert divisions == []


# -- the cached Yun decomposition against the uncached routine ----------------

def uncached_yun(p: UniPoly):
    """Oracle: Yun's decomposition recomputed on every call
    (squarefree_decomposition before it was cached on the polynomial)."""
    unit = p.leading_coeff
    a = p.monic()
    if a.degree == 0:
        return unit, []
    g = poly_gcd(a, a.derivative())
    if g.degree == 0:
        return unit, [(a, 1)]
    b = a.exact_divide(g)
    d = a.derivative().exact_divide(g) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        b = b.exact_divide(f)
        d = d.exact_divide(f) - b.derivative()
        if f.degree > 0:
            out.append((f, i))
        i += 1
    return unit, out


linear_factors = st.builds(F, st.integers(-12, 12), st.integers(1, 6)).map(lambda r: t - r)


@st.composite
def factored_polys(draw):
    """unit * prod h_i^(m_i) over rational linear factors and irrational
    quadratics, multiplicities 1-4."""
    p = UniPoly.constant(draw(st.builds(F, st.integers(-9, 9).filter(bool),
                                        st.integers(1, 9))))
    for h in draw(st.lists(st.one_of(linear_factors, irrational_quadratics),
                           min_size=0, max_size=4)):
        p = p * h ** draw(st.integers(1, 4))
    return p


class TestCachedSquarefree:
    @settings(max_examples=150, deadline=None)
    @given(factored_polys())
    def test_matches_the_uncached_decomposition(self, p):
        expected = uncached_yun(p)
        assert squarefree_decomposition(p) == expected
        assert squarefree_decomposition(p) == expected
        unit, layers = squarefree_decomposition(p)
        rebuilt = UniPoly.constant(unit)
        for f, mult in layers:
            rebuilt = rebuilt * f ** mult
        assert rebuilt == p

    @settings(max_examples=50, deadline=None)
    @given(factored_polys(), factored_polys())
    def test_each_polynomial_keeps_its_own_decomposition(self, p, q):
        squarefree_decomposition(p)
        assert squarefree_decomposition(q) == uncached_yun(q)
        assert squarefree_decomposition(p) == uncached_yun(p)

    def test_a_mutated_result_does_not_reach_the_next_call(self):
        p = (t - 1) ** 2 * (t * t - 2)
        unit, layers = squarefree_decomposition(p)
        layers.append((t, 7))
        layers[0] = (t + 5, 1)
        assert squarefree_decomposition(p) == uncached_yun(p)


# -- hash contract ------------------------------------------------------------

constants_and_polys = st.one_of(
    st.integers(-2, 2), st.integers(-2, 2).map(F),
    st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
    st.lists(st.builds(F, st.integers(-2, 2), st.integers(1, 3)), max_size=3).map(UniPoly),
    st.lists(st.integers(-1, 1), max_size=2).map(UniPoly))


class TestHashContract:
    @settings(max_examples=400, deadline=None)
    @given(constants_and_polys, constants_and_polys)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_constants_collapse_in_a_set(self):
        assert len({UniPoly((5,)), 5, F(5)}) == 1
        assert len({UniPoly(()), 0, F(0)}) == 1
        assert len({UniPoly((F(1, 2),)), F(1, 2)}) == 1


class TestToString:
    def test_known_strings(self):
        for p, text in (
                (UniPoly.zero(), "0"),
                (UniPoly.constant(7), "7"),
                (UniPoly.constant(F(-1, 2)), "-1/2"),
                (t, "t"),
                (-t, "-t"),
                (t ** 3 - t + 1, "t^3 - t + 1"),
                (-t ** 2 + F(2, 3) * t - 5, "-t^2 + 2/3*t - 5"),
                (-F(5, 2) * t ** 4 - t ** 2, "-5/2*t^4 - t^2"),
                (3 * t - 3, "3*t - 3")):
            assert p.to_string() == text
        assert (t * t - 1).to_string("x") == "x^2 - 1"
        assert repr(t + 1) == "UniPoly(t + 1)"

    @settings(max_examples=150, deadline=None)
    @given(small_polys)
    def test_parse_poly_reads_back_to_string(self, p):
        from curvehull.cli import parse_poly
        assert parse_poly(p.to_string()) == p


# -- division, gcd and Sturm chains against the loops they replaced ------------

def old_divmod(a: UniPoly, b: UniPoly):
    """Oracle: long division that re-scans the remainder and pops its zeros."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [F(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    dlead = b.leading_coeff
    dn = b.degree
    while len(rem) - 1 >= dn and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        k = len(rem) - 1 - dn
        f = rem[-1] / dlead
        q[k] = f
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= f * c
        rem.pop()
    return UniPoly(q), UniPoly(rem)


def old_poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    a, b = f, g
    while not b.is_zero:
        a, b = b, old_divmod(a, b)[1]
        if not b.is_zero:
            b = b.monic()
    return a.monic() if not a.is_zero else a


def old_sturm_chain(q: UniPoly):
    chain = [q, q.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = -old_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        lc = rem.leading_coeff
        if lc < 0:
            lc = -lc
        chain.append(UniPoly([c / lc for c in rem.coeffs]))
    return chain


# mostly zero coefficients, so interior zeros are common
sparse_polys = st.lists(st.one_of(st.just(F(0)), st.just(F(0)),
                                  st.builds(F, st.integers(-30, 30), st.integers(1, 12))),
                        max_size=9).map(UniPoly)
constants = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 12)).map(
    UniPoly.constant)


def coefficient_tuples(polys):
    return [p.coeffs for p in polys]


class TestDivisionLoops:
    @settings(max_examples=300, deadline=None)
    @given(sparse_polys, st.one_of(sparse_polys, constants).filter(bool))
    def test_divmod_matches_the_old_loop(self, a, b):  # constant divisors included
        assert coefficient_tuples(divmod(a, b)) == coefficient_tuples(old_divmod(a, b))

    def test_dividend_of_lower_degree(self):
        a, b = 3 * t + F(1, 2), t ** 4 - t ** 2
        assert coefficient_tuples(divmod(a, b)) == coefficient_tuples(old_divmod(a, b)) \
            == [(), a.coeffs]
        assert coefficient_tuples(divmod(UniPoly.zero(), b)) == [(), ()]

    def test_interior_zeros(self):
        a = t ** 7 - 2 * t ** 3 + F(1, 5)
        for b in (t ** 2 + 1, t ** 3, F(2, 3) * t ** 5 - t, t - 2):
            assert coefficient_tuples(divmod(a, b)) == coefficient_tuples(old_divmod(a, b))

    @settings(max_examples=200, deadline=None)
    @given(sparse_polys, sparse_polys, sparse_polys)
    def test_gcd_matches_the_old_loop(self, g, h1, h2):
        f1, f2 = g * h1, g * h2
        assert poly_gcd(f1, f2).coeffs == old_poly_gcd(f1, f2).coeffs
        assert poly_gcd(h1, h2).coeffs == old_poly_gcd(h1, h2).coeffs

    def test_gcd_with_zero(self):
        zero = UniPoly.zero()
        assert poly_gcd(zero, zero) == zero
        for f in (F(3, 2) * t ** 2 - 3, t ** 4 - t, UniPoly.constant(-7)):
            assert poly_gcd(f, zero).coeffs == f.monic().coeffs
            assert poly_gcd(zero, f).coeffs == f.monic().coeffs

    @settings(max_examples=200, deadline=None)
    @given(sparse_polys)
    def test_sturm_chain_matches_the_old_loop(self, q):
        for p in (q, squarefree_part(q) if q else q):
            assert coefficient_tuples(unipoly.sturm_chain(p)) == \
                coefficient_tuples(old_sturm_chain(p))


# -- integer kernels against the Fraction loops they replaced ------------------

def frac_add(a: UniPoly, b: UniPoly) -> UniPoly:
    n = max(len(a.coeffs), len(b.coeffs))
    return UniPoly([a.coeff(k) + b.coeff(k) for k in range(n)])


def frac_neg(a: UniPoly) -> UniPoly:
    return UniPoly([-c for c in a.coeffs])


def frac_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    out = [F(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return UniPoly(out)


def frac_derivative(a: UniPoly, k: int) -> UniPoly:
    for _ in range(k):
        a = UniPoly([i * c for i, c in enumerate(a.coeffs)][1:])
    return a


def frac_monic(a: UniPoly) -> UniPoly:
    return UniPoly([c / a.coeffs[-1] for c in a.coeffs]) if a.coeffs else a


def frac_shift(a: UniPoly, x) -> UniPoly:
    acc = UniPoly.zero()
    for c in reversed(a.coeffs):
        acc = frac_add(frac_mul(acc, UniPoly((x, 1))), UniPoly((c,)))
    return acc


def assert_integer_form(p: UniPoly):
    """The common-denominator invariant: int numerators, positive int den,
    one numerator per Fraction coefficient and the last one nonzero."""
    nums, den = p.integer_form()
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert len(nums) == len(p.coeffs) and (not nums or nums[-1])
    assert all(F(v, den) == c for v, c in zip(nums, p.coeffs))


def assert_kernel_output(p: UniPoly, expected: UniPoly):
    """p agrees with the oracle's constructor-built polynomial: the same
    Fraction coefficients, equality and hash both ways, and a valid integer
    form.  Equality and hashing run before p's coeffs are read."""
    assert p == expected and expected == p
    assert hash(p) == hash(expected)
    assert p.coeffs == expected.coeffs and all(type(c) is F for c in p.coeffs)
    assert_integer_form(p)


mixed_polys = st.one_of(
    small_polys,
    st.just(UniPoly.zero()),
    constants,
    # a negative leading coefficient over mixed denominators
    st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 60)), min_size=1, max_size=6)
    .map(lambda cs: UniPoly(cs + [F(-7, 9)])))


class TestIntegerArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(mixed_polys, mixed_polys)
    def test_ring_operations_match_the_fraction_loops(self, a, b):
        assert_kernel_output(a + b, frac_add(a, b))
        assert_kernel_output(a - b, frac_add(a, frac_neg(b)))
        assert_kernel_output(-a, frac_neg(a))
        assert_kernel_output(a * b, frac_mul(a, b))

    @settings(max_examples=200, deadline=None)
    @given(mixed_polys, st.integers(0, 4), points)
    def test_derivative_monic_and_shift_match_the_fraction_loops(self, a, k, x):
        assert_kernel_output(a.derivative(k), frac_derivative(a, k))
        assert_kernel_output(a.monic(), frac_monic(a))
        assert_kernel_output(a.shift(x), frac_shift(a, x))

    @settings(max_examples=200, deadline=None)
    @given(mixed_polys, points, points)
    def test_affine_matches_the_fraction_loop(self, a, x, w):
        # a(x + w s) is a(x + t) with t = w s: its Taylor coefficients times w^k
        expected = UniPoly([c * F(w) ** k for k, c in enumerate(frac_shift(a, x).coeffs)])
        assert_kernel_output(a.affine(x, w), expected)
        assert a.shift(x) == a.affine(x, 1)
        assert a.affine(0, 1) is a

    @settings(max_examples=200, deadline=None)
    @given(mixed_polys, mixed_polys.filter(bool))
    def test_divmod_matches_the_fraction_loop(self, a, b):
        for got, expected in zip(divmod(a, b), old_divmod(a, b)):
            assert_kernel_output(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(mixed_polys, mixed_polys)
    def test_outputs_of_outputs_keep_the_invariant(self, a, b):
        for p in (a * b - a, (a + b) ** 2, (a * b).derivative().monic()):
            assert_integer_form(p)
            assert_integer_form(p * p - p)

    def test_constants_made_by_kernels_equal_their_value(self):
        half = (t + F(1, 2)) - t
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        assert len({half, F(1, 2), UniPoly.constant(F(1, 2))}) == 1
        assert (t - t) == 0 and (t - t).integer_form() == ((), 1)

    def test_small_integers_share_their_fraction(self):
        assert UniPoly.monomial(5).coeffs[0] is UniPoly.monomial(3).coeffs[1]
        assert unipoly._q(-16) is unipoly._q(-16) and unipoly._q(16) == 16
        assert (t * t - t * t + 2 * t).coeffs[0] is UniPoly.zero().coeff(0)

    @settings(max_examples=100, deadline=None)
    @given(mixed_polys, mixed_polys, points)
    def test_a_constructed_and_a_kernel_copy_share_one_integer_form(self, p, b, x):
        fresh = UniPoly(p.coeffs)
        copies = (fresh, -(-fresh), fresh * 1, fresh + 0, (fresh * (t - 1)).exact_divide(t - 1))
        assert all(q.integer_form() == fresh.integer_form() == _over_lcm(p.coeffs)
                   for q in copies)
        assert all(q.coeffs == p.coeffs for q in copies)
        # every kernel result is over its least denominator
        results = [p + b, p - b, -p, p * b, p.derivative(), p.shift(x), p.monic(),
                   poly_gcd(p, b), (p * b).exact_divide(b) if b else p]
        if b:
            results += divmod(p, b)
        if p.degree > 0:
            results += unipoly.sturm_chain(squarefree_part(p))
            results += [f for f, _ in squarefree_decomposition(p)[1]]
        for q in results:
            nums, den = q.integer_form()
            assert den > 0 and math.gcd(den, *nums) == 1
        # so scaling down and back up leaves no common factor behind
        q, r = t, fresh
        for _ in range(20):
            q, r = (q * F(1, 3)) * 3, (r * F(1, 3)) * 3
        assert q.integer_form() == ((0, 1), 1) and r.integer_form() == fresh.integer_form()

    def test_kernels_leave_the_fractions_to_their_first_read(self):
        p = F(1, 3) * t ** 3 - F(2, 5) * t + 1
        assert p.integer_form() == ((15, -6, 0, 5), 15)
        assert p.coeffs == (1, F(-2, 5), 0, F(1, 3))


# -- orders must be nonnegative ints --------------------------------------------

class TestOrders:
    @pytest.mark.parametrize("k", [True, False, 2.0, 1.5, -1, F(1)])
    def test_monomial_refuses_an_exponent_that_is_not_a_nonnegative_int(self, k):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            UniPoly.monomial(k)

    @pytest.mark.parametrize("k", [True, False, 2.0, 1.5, -1, F(1)])
    def test_derivative_refuses_an_order_that_is_not_a_nonnegative_int(self, k):
        with pytest.raises(ValueError, match="derivative order must be a nonnegative integer"):
            UniPoly((1, 2)).derivative(k)

    @pytest.mark.parametrize("k", [True, 1.0, F(1)])
    def test_coeff_refuses_a_degree_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match="degree must be an int"):
            UniPoly((1, 2)).coeff(k)
        assert UniPoly((1, 2)).coeff(1) == 2 and UniPoly((1, 2)).coeff(-1) == 0

    def test_int_orders_pass(self):
        assert UniPoly.monomial(0) == 1 and UniPoly.monomial(2, 3) == 3 * t * t
        assert (t ** 3).derivative(2) == 6 * t and (t ** 3).derivative(4) == 0


# -- Yun, gcd and Sturm chains build no polynomial through the constructor ------

class TestNoConstructorCalls:
    def test_the_n8_candidate_with_four_double_zeros(self):
        from curvehull.rays import ZeroPattern, extreme_candidate, profile_and_normalize
        system = profile_and_normalize([UniPoly.monomial(k) for k in range(8, -1, -1)], 0)
        points = (F(1, 5), F(2, 5), F(3, 5), F(4, 5))
        candidate = extreme_candidate(system, ZeroPattern(points, (2, 2, 2, 2)))
        root = (t - points[0]) * (t - points[1]) * (t - points[2]) * (t - points[3])
        fresh, fresh_root = UniPoly(candidate.coeffs), UniPoly(root.coeffs)
        with mock.patch.object(UniPoly, "__init__", autospec=True,
                               side_effect=UniPoly.__init__) as built:
            unit, layers = squarefree_decomposition(fresh)
            gcd = poly_gcd(fresh, fresh.derivative())
            chain = unipoly.sturm_chain(fresh_root)
        assert built.call_count == 0
        assert unit * root ** 2 == candidate and layers == [(root, 2)]
        assert gcd == root and len(chain) == 5
        assert coefficient_tuples(chain) == coefficient_tuples(old_sturm_chain(fresh_root))
