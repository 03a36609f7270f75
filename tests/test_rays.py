import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehull import rays, unipoly
from curvehull.diagonal import BlockPartition, evaluation_matrix, vandermonde_cofactor
from curvehull.linalg import det_frac
from curvehull.multipoly import MultiPoly
from curvehull.rays import (LinearSystem, ZeroPattern, _derivative_rows,
                            _sympy_irreducible_factors,
                            chebyshev_det_sign, extreme_candidate,
                            interval_supported_divisor, profile_and_normalize,
                            supporting_face_basis, validate_interval,
                            verify_extreme, zero_conditions_dim)
from curvehull.schur import schur_via_tableaux
from curvehull.unipoly import Interval, UniPoly, poly_gcd, squarefree_decomposition

t = UniPoly.t()
mono = UniPoly.monomial
UNIT = Interval(0, 1)


def moment_system(n):
    return profile_and_normalize(tuple(mono(k) for k in range(n, -1, -1)), 0)


class TestProfileAndNormalize:
    def test_reorder(self):
        v = profile_and_normalize((UniPoly.one(), t, t ** 2), 0)
        assert v.orders == (2, 1, 0)
        assert v.basis == (mono(2), mono(1), mono(0))

    def test_elimination(self):
        v = profile_and_normalize((1 + t, 1 - t, t ** 2), 0)
        assert v.orders == (2, 1, 0)
        for p, m in zip(v.basis, v.orders):
            assert p.ord_at(0) == m and p.coeff(m) == 1

    def test_base_point_stripped(self):
        v = profile_and_normalize((t, t ** 2), 0)
        assert v.orders == (1, 0)
        assert v.basis == (mono(1), mono(0))

    def test_translation(self):
        v = profile_and_normalize((UniPoly.one(), t, t ** 2), F(1, 2))
        assert v.base_point == F(1, 2)
        assert v.orders == (2, 1, 0)
        # local basis vanishes at 0, i.e. original coordinates at 1/2
        assert v.basis[0](0) == 0 and v.basis[0].ord_at(0) == 2

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            profile_and_normalize((t, 2 * t, t ** 2), 0)

    def test_span_preserved(self):
        original = (1 + t + t ** 2, 2 - t, 3 * t ** 2)
        v = profile_and_normalize(original, 0)
        for p in original:
            assert v.member_coefficients(p) is not None


class TestZeroPattern:
    def test_validation(self):
        zp = ZeroPattern((F(1, 3), F(2, 3)), (2, 2))
        assert zp.total == 4 and zp.all_even
        with pytest.raises(ValueError):
            ZeroPattern((F(2, 3), F(1, 3)), (2, 2))
        with pytest.raises(ValueError):
            ZeroPattern((F(1, 3),), (0,))
        with pytest.raises(ValueError):
            ZeroPattern((), ())

    @pytest.mark.parametrize("mult", [2.5, F(2), True, "2"])
    def test_multiplicity_is_not_truncated(self, mult):
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            ZeroPattern((F(1, 2),), (mult,))

    def test_odd_allowed_but_flagged(self):
        zp = ZeroPattern((F(1, 2),), (3,))
        assert not zp.all_even

    def test_interiority(self):
        assert ZeroPattern((F(1, 2),), (2,)).interior_to(UNIT)
        assert not ZeroPattern((F(0),), (2,)).interior_to(UNIT)


class TestCandidates:
    def test_matrix_rows(self):
        v = moment_system(2)
        zp = ZeroPattern((F(1, 2),), (2,))
        rows = derivative_fractions(v.basis, zp.points, zp.mults)
        assert rows == [(F(1, 4), F(1, 2), F(1)), (F(1), F(1), F(0))]

    def test_double_zero_candidate(self):
        v = moment_system(2)
        f = extreme_candidate(v, ZeroPattern((F(1, 2),), (2,)))
        assert f == (t - F(1, 2)) ** 2

    def test_zero_at_origin(self):
        v = moment_system(2)
        f = extreme_candidate(v, ZeroPattern((F(0),), (2,)))
        assert f == t ** 2

    def test_moment4_two_double_zeros(self):
        v = moment_system(4)
        f = extreme_candidate(v, ZeroPattern((F(1, 3), F(2, 3)), (2, 2)))
        product = ((t - F(1, 3)) * (t - F(2, 3))) ** 2
        # f is a positive multiple of the prescribed square
        c = f.leading_coeff
        assert c > 0 and f == c * product

    def test_pattern_size_checked(self):
        v = moment_system(2)
        with pytest.raises(ValueError, match="pattern prescribes 3 conditions, need n = 2"):
            extreme_candidate(v, ZeroPattern((F(1, 2),), (3,)))

    def test_vanishing_orders_at_pattern_points(self):
        rng = random.Random(97)
        for _ in range(10):
            v = moment_system(4)
            pts = sorted(rng.sample([F(k, 10) for k in range(1, 10)], 2))
            zp = ZeroPattern(tuple(pts), (2, 2))
            f = extreme_candidate(v, zp)
            if f.is_zero:
                continue
            for x, b in zip(zp.points, zp.mults):
                assert f.ord_at(x) >= b

    def test_determinant_iff_unique_dimension(self):
        # degenerate: even basis with a symmetric pattern collapses conditions
        v = profile_and_normalize((mono(4), mono(2), mono(0)), 0)
        zp = ZeroPattern((F(-1, 2), F(1, 2)), (1, 1))
        assert zero_conditions_dim(v, zp) == 2
        assert extreme_candidate(v, zp).is_zero
        # generic: dimension one and nonzero determinant
        zp2 = ZeroPattern((F(1, 3), F(1, 2)), (1, 1))
        assert zero_conditions_dim(v, zp2) == 1
        assert not extreme_candidate(v, zp2).is_zero


class TestSupportingFace:
    def test_double_zero_face(self):
        v = moment_system(2)
        f = (t - F(1, 2)) ** 2
        basis = supporting_face_basis(v, f, UNIT)
        assert len(basis) == 1
        assert basis[0].monic() == f

    def test_no_zeros_full_space(self):
        v = moment_system(2)
        assert len(supporting_face_basis(v, UniPoly.one(), UNIT)) == 3

    def test_moment4_face(self):
        v = moment_system(4)
        f = ((t - F(1, 3)) * (t - F(2, 3))) ** 2
        assert len(supporting_face_basis(v, f, UNIT)) == 1

    def test_zeros_outside_interval_ignored(self):
        v = moment_system(4)
        f = ((t - F(1, 2)) * (t - 2)) ** 2
        # only the zero at 1/2 restricts on [0, 1]
        assert len(supporting_face_basis(v, f, UNIT)) == 3

    def test_errors(self):
        v = moment_system(2)
        with pytest.raises(ValueError):
            supporting_face_basis(v, UniPoly.zero(), UNIT)
        with pytest.raises(ValueError):
            supporting_face_basis(v, mono(5), UNIT)

    def test_divisor_conjugate_closure(self):
        f = (t * t - 2) * (t - F(1, 2))
        d = interval_supported_divisor(f, Interval(0, 2))
        # both factors have a root in [0, 2]; the conjugate -sqrt(2) rides along
        assert d == ((t * t - 2) * (t - F(1, 2))).monic()
        d2 = interval_supported_divisor(f, Interval(0, 1))
        assert d2 == t - F(1, 2)


class TestVerifyExtreme:
    def test_extreme_candidate_report(self):
        v = moment_system(2)
        rep = verify_extreme(v, (t - F(1, 2)) ** 2, UNIT)
        assert rep == type(rep)(nonneg=True, zero_count=2, face_dim=1, extreme=True)

    def test_interior_point_of_cone(self):
        v = moment_system(2)
        rep = verify_extreme(v, UniPoly.one(), UNIT)
        assert rep.nonneg and rep.zero_count == 0 and rep.face_dim == 3
        assert not rep.extreme

    def test_not_in_span_rejected(self):
        v = moment_system(2)
        with pytest.raises(ValueError):
            verify_extreme(v, mono(3) + 1, UNIT)

    def test_convex_combinations_not_extreme(self):
        v = moment_system(4)
        f1 = extreme_candidate(v, ZeroPattern((F(1, 3), F(2, 3)), (2, 2)))
        f2 = extreme_candidate(v, ZeroPattern((F(1, 5), F(4, 5)), (2, 2)))
        rng = random.Random(101)
        for _ in range(5):
            w = F(rng.randint(1, 9), 10)
            h = w * f1 + (1 - w) * f2
            rep = verify_extreme(v, h, UNIT)
            assert rep.nonneg and not rep.extreme and rep.face_dim >= 2

    def test_few_zeros_means_big_face(self):
        v = moment_system(4)
        for xi in (F(1, 4), F(1, 2), F(7, 10)):
            rep = verify_extreme(v, (t - xi) ** 2, UNIT)
            assert rep.nonneg and rep.zero_count == 2 < 4 and rep.face_dim >= 2


class TestUndecidedOverQ:
    """A one-dimensional rational face is checked against the real one when
    an irreducible factor of f has some but not all of its roots in s."""

    EVEN = profile_and_normalize((mono(4), mono(2), UniPoly.one()), 0)

    def test_too_few_zeros_in_s_is_not_extreme(self, counters):
        # (t^2 - 1/2)^2: only +sqrt(1/2) lies in [0, 1], a double zero, and
        # 2 < n = 4 leaves a real face of dimension at least 3
        _, factor_args = counters
        rep = verify_extreme(moment_system(4), (t * t - F(1, 2)) ** 2, UNIT)
        assert rep == type(rep)(nonneg=True, zero_count=2, face_dim=1, extreme=False)
        assert len(factor_args) == 2  # the divisor's and the verdict's

    def test_rational_factors_keep_the_verdict(self):
        # the layer t^2 - 1/4 straddles [0, 1], but each of its factors
        # t -+ 1/2 has all or none of its roots there
        rep = verify_extreme(self.EVEN, (t * t - F(1, 4)) ** 2, UNIT)
        assert rep == type(rep)(nonneg=True, zero_count=2, face_dim=1, extreme=True)

    def test_a_larger_face_factors_nothing_more(self, counters):
        _, factor_args = counters
        rep = verify_extreme(moment_system(6), (t * t - F(1, 2)) ** 2, UNIT)
        assert rep.nonneg and rep.face_dim == 3 and rep.extreme is False
        assert len(factor_args) == 1  # the divisor's only


QUARTERS = ZeroPattern((F(1, 4), F(1, 2), F(3, 4)), (1, 1, 1))


class TestChebyshevSign:
    def test_distinct_points(self):
        v = moment_system(2)
        sign = chebyshev_det_sign(v, QUARTERS, UNIT)
        assert sign == -1  # Vandermonde with increasing nodes, decreasing powers
        # the base point is local 0, not the left endpoint
        assert chebyshev_det_sign(v, QUARTERS, Interval(F(1, 4), 1)) == -1

    def test_confluent(self):
        v = moment_system(2)
        # det [[1/4,1/2,1],[1,1,0],[2,0,0]] = -2
        assert chebyshev_det_sign(v, ZeroPattern((F(1, 2),), (3,)), UNIT) == -1

    def test_never_zero_on_validated_interval(self):
        v = moment_system(3)
        pts = [F(k, 8) for k in range(1, 8)]
        import itertools
        for mults in ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)):
            for combo in itertools.combinations(pts, len(mults)):
                assert chebyshev_det_sign(v, ZeroPattern(combo, mults), UNIT) != 0

    def test_never_zero_n4(self):
        v = moment_system(4)
        pts = [F(k, 6) for k in range(1, 6)]
        import itertools
        for mults in ((1, 1, 1, 1, 1), (2, 2, 1), (3, 2), (5,), (2, 1, 1, 1)):
            for combo in itertools.combinations(pts, len(mults)):
                assert chebyshev_det_sign(v, ZeroPattern(combo, mults), UNIT) != 0

    def test_errors(self):
        v = moment_system(2)
        with pytest.raises(ValueError, match="points must be strictly increasing"):
            chebyshev_det_sign(v, ZeroPattern((F(1, 2), F(1, 2)), (1, 2)), UNIT)
        with pytest.raises(ValueError, match="base point"):
            chebyshev_det_sign(v, ZeroPattern((F(0),), (3,)), UNIT)
        with pytest.raises(ValueError, match="base point"):
            chebyshev_det_sign(v, ZeroPattern((F(-1, 2), F(0), F(1, 2)), (1, 1, 1)),
                               Interval(-1, 1))
        with pytest.raises(ValueError, match="points must lie in the interval"):
            chebyshev_det_sign(v, ZeroPattern((F(1, 2), F(3, 2)), (1, 2)), UNIT)
        # a left endpoint other than 0 is not the base point
        assert chebyshev_det_sign(v, QUARTERS, Interval(F(1, 4), 1)) != 0
        with pytest.raises(ValueError, match="multiplicities must sum to 3"):
            chebyshev_det_sign(v, ZeroPattern((F(1, 2),), (2,)), UNIT)
        for mults in ((1.5, 1.5), (True, 2), (0, 3)):
            with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
                chebyshev_det_sign(v, ZeroPattern((F(1, 4), F(1, 2)), mults), UNIT)


class TestValidateInterval:
    def test_moment_systems_pass(self):
        for n in (2, 3, 4):
            report = validate_interval(moment_system(n), UNIT, 3)
            assert report.all_pass
            assert not report.exhaustive
            assert len(report.s1_patterns) == 2 ** n

    def test_negative_side_fails_s2(self):
        v = moment_system(2)
        report = validate_interval(v, Interval(-1, 1), 2)
        assert not report.s2_coordinate_nonneg
        assert not report.all_pass

    def test_common_factor_fails_s0(self):
        common = t - F(1, 2)
        v = LinearSystem(basis=(mono(2) * common, mono(1) * common, common),
                         base_point=F(0), orders=(3, 2, 1))
        # bypass profile_and_normalize: a shared factor is a base point in s
        g = common
        report = validate_interval(
            profile_and_normalize((mono(2) * g, mono(1) * g, g), 0), UNIT, 2)
        assert not report.s0_no_base_point

    def test_perturbed_system_passes(self):
        v = profile_and_normalize((mono(3) + mono(4), mono(1), mono(0)), 0)
        report = validate_interval(v, Interval(0, F(1, 2)), 3)
        assert report.s1_sampled


    @pytest.mark.parametrize("samples", [0, -1, True, 2.5])
    def test_samples_must_be_a_positive_int(self, samples):
        with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples!r}"):
            validate_interval(moment_system(2), UNIT, samples)

    def test_a_failing_sampled_point(self):
        v = profile_and_normalize((t ** 3 - t ** 5, t ** 2 - 3 * t ** 4, t, UniPoly.one()), 0)
        report = validate_interval(v, UNIT, 3)
        assert report.s1_patterns == (
            ((1, 1, 1, 1), False), ((1, 1, 2), False), ((1, 2, 1), False), ((1, 3), False),
            ((2, 1, 1), False), ((2, 2), True), ((3, 1), False), ((4,), True))
        assert not report.s1_sampled
        assert report.s1_patterns == s1_patterns_oracle(v, UNIT, 3)

    @pytest.mark.parametrize("seed", range(12))
    def test_patterns_match_the_flag_loop(self, seed):
        rng = random.Random(seed)
        v = random_system(rng, rng.randint(2, 4), rng.randint(4, 6))
        s = [UNIT, Interval(0, F(1, 2)), Interval(F(1, 3), 2)][seed % 3]
        samples = 1 + seed % 3
        report = validate_interval(v, s, samples)
        assert report.s1_patterns == s1_patterns_oracle(v, s, samples)
        assert report.s1_sampled == all(ok for _, ok in report.s1_patterns)


def s1_patterns_oracle(system, s, samples):
    """The sampled S1 check as validate_interval wrote it with two flags and
    two breaks: per composition, False as soon as a nonzero collapsed factor
    has 1 + g <= 0 at a grid point."""
    try:
        g_alpha = rays._cofactor_term_decomposition(system)
    except AssertionError:
        return ()
    n1 = system.dim
    if samples == 1:
        axis = [s.lo + (s.hi - s.lo) / 2]
    else:
        axis = [s.lo + (s.hi - s.lo) * F(k, samples - 1) for k in range(samples)]
    pattern_results = []
    for sizes in rays._compositions(n1):
        r1 = len(sizes)
        slot = BlockPartition(sizes).slot_of_row()
        collapsed = {alpha: g.merge_variables(slot, r1) for alpha, g in g_alpha.items()}
        ok = True
        if any(not g.is_zero for g in collapsed.values()):
            for point in product(axis, repeat=r1):
                for g in collapsed.values():
                    if g.is_zero:
                        continue
                    if 1 + g.evaluate(point) <= 0:
                        ok = False
                        break
                if not ok:
                    break
        pattern_results.append((sizes, ok))
    return tuple(pattern_results)


def random_system(rng, dim, top):
    """A normalized system of dim polynomials t^m + random terms of degree
    m + 1..top, the orders m drawn from 0..top - 1 (0 always among them)."""
    orders = sorted(rng.sample(range(1, top), dim - 1), reverse=True) + [0]
    basis = [mono(m) + UniPoly([0] * (m + 1) + [F(rng.randint(-4, 4), rng.randint(1, 3))
                                                for _ in range(top - m)])
             for m in orders]
    return profile_and_normalize(basis, 0)


class TestCofactorTermDecomposition:
    @pytest.mark.parametrize("system", [moment_system(2), moment_system(3), moment_system(4),
                                        random_system(random.Random(7), 4, 6)],
                             ids=["moment2", "moment3", "moment4", "random"])
    def test_terms_reassemble_the_vandermonde_cofactor(self, system):
        n1 = system.dim
        cof = vandermonde_cofactor(evaluation_matrix(system.basis).det())
        parts = rays._cofactor_term_decomposition(system)
        assert list(parts) == sorted(schur_via_tableaux(system.orders).monomials())
        total = MultiPoly.zero(n1)
        for alpha, g in parts.items():
            assert g.arity == n1 and g.coeff((0,) * n1) == 0
            total = total + MultiPoly.monomial(n1, alpha) * (1 + g)
        assert total == cof


# -- integer-coefficient factoring and the shared Yun decomposition -----------

def expr_irreducible_factors(p: UniPoly):
    """Oracle: sympy factors a symbolic expression built from Rationals
    (_sympy_irreducible_factors before it passed integer coefficient lists)."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, x)
        coeffs = [F(c.p, c.q) for c in poly.all_coeffs()[::-1]]
        out.extend([UniPoly(coeffs).monic()] * mult)
    return out


@st.composite
def factored_polys(draw):
    """unit * prod h_i^(m_i) over rational linear factors and quadratics
    with two irrational real roots, multiplicities 1-4."""
    linear = st.builds(F, st.integers(-12, 12), st.integers(1, 6)).map(lambda r: t - r)
    quadratic = st.tuples(st.integers(-6, 6), st.integers(-9, 9)).filter(
        lambda bc: bc[0] ** 2 - 4 * bc[1] > 0
        and math.isqrt(bc[0] ** 2 - 4 * bc[1]) ** 2 != bc[0] ** 2 - 4 * bc[1]).map(
        lambda bc: t * t + bc[0] * t + bc[1])
    p = UniPoly.constant(draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))))
    for h in draw(st.lists(st.one_of(linear, quadratic), min_size=1, max_size=4)):
        p = p * h ** draw(st.integers(1, 4))
    return p


def _sorted(polys):
    return sorted(polys, key=lambda h: h.coeffs)


class TestIntegerFactoring:
    @settings(max_examples=100, deadline=None)
    @given(factored_polys())
    def test_matches_the_expression_route(self, p):
        for q, _ in squarefree_decomposition(p)[1]:
            for layer in (q, q * p.leading_coeff):
                factors = _sympy_irreducible_factors(layer)
                assert _sorted(factors) == _sorted(expr_irreducible_factors(layer))
                rebuilt = UniPoly.constant(layer.leading_coeff)
                for h in factors:
                    rebuilt = rebuilt * h
                assert rebuilt == layer

    @settings(max_examples=100, deadline=None)
    @given(factored_polys())
    def test_each_factor_is_its_own_decomposition(self, p):
        for q, _ in squarefree_decomposition(p)[1]:
            for h in _sympy_irreducible_factors(q):
                assert h.leading_coeff == 1 and poly_gcd(h, h.derivative()).degree == 0
                assert squarefree_decomposition(h) == (1, [(h, 1)])

    @settings(max_examples=50, deadline=None)
    # every root the strategy draws lies in [-13, 13] and none in [20, 21],
    # so the samples reach the skipped, whole and factored layers
    @given(factored_polys(), st.sampled_from((UNIT, Interval(-2, 2), Interval(F(1, 3), 5),
                                              Interval(-13, 13), Interval(20, 21))))
    def test_divisor_matches_the_expression_route(self, p, s):
        expected = UniPoly.one()
        for q, mult in squarefree_decomposition(p)[1]:
            for h in expr_irreducible_factors(q):
                if unipoly.count_roots_with_multiplicity(h, s) >= 1:
                    expected = expected * h ** mult
        assert interval_supported_divisor(p, s) == expected


@pytest.fixture
def counters(monkeypatch):
    yun_args, factor_args = [], []
    yun, factor_list = unipoly._yun, sympy.factor_list

    def counting_yun(p):
        yun_args.append(p)
        return yun(p)

    def counting_factor_list(*args, **kw):
        factor_args.append(args[0])
        return factor_list(*args, **kw)

    monkeypatch.setattr(unipoly, "_yun", counting_yun)
    monkeypatch.setattr(sympy, "factor_list", counting_factor_list)
    return yun_args, factor_args


class TestOneYunPerPolynomial:
    def test_verify_extreme_runs_yun_once(self, counters):
        yun_args, factor_args = counters
        f = ((t - F(1, 3)) * (t - F(2, 3))) ** 2
        rep = verify_extreme(moment_system(4), f, UNIT)
        assert rep.extreme and rep.zero_count == 4
        # one run on f; both roots of its one layer lie in [0, 1], so the
        # layer is kept whole and never reaches sympy
        assert yun_args == [f]
        assert factor_args == []

    def test_a_linear_layer_is_not_sent_to_sympy(self, counters):
        yun_args, factor_args = counters
        f = (t - F(1, 2)) ** 2
        rep = verify_extreme(moment_system(2), f, UNIT)
        assert rep.extreme
        assert yun_args == [f]
        assert factor_args == []


class TestDivisorBranches:
    """interval_supported_divisor factors only a layer with some but not all
    of its distinct roots in s."""

    @pytest.mark.parametrize("f", [(t * t - 2) * (t - 5), ((t - 3) * (t * t + 1)) ** 2])
    def test_a_layer_with_no_root_in_s_is_skipped(self, counters, f):
        _, factor_args = counters
        assert interval_supported_divisor(f, UNIT) == UniPoly.one()
        assert factor_args == []

    @pytest.mark.parametrize("f, s", [
        ((2 * t * t - 1) ** 3, Interval(-1, 1)),  # the irrational pair +-sqrt(1/2)
        (t * (t - F(1, 2)), UNIT),  # a root at s.lo
        ((t * t - 2) * (t - 2) ** 2 * (t + 1), Interval(-2, 2)),
    ])
    def test_a_layer_with_every_root_in_s_is_kept_whole(self, counters, f, s):
        _, factor_args = counters
        assert interval_supported_divisor(f, s) == f.monic()
        assert factor_args == []

    @pytest.mark.parametrize("f, d", [
        (((t - F(1, 2)) * (t - 3)) ** 2, (t - F(1, 2)) ** 2),
        ((t * t - 2) * (t - 5), t * t - 2),
    ])
    def test_a_straddling_layer_is_factored(self, counters, f, d):
        _, factor_args = counters
        assert interval_supported_divisor(f, Interval(0, 2)) == d
        assert len(factor_args) == 1


def derivative_fractions(basis, points, mults):
    """The int rows of _derivative_rows read as Fractions, rows[i][j] / scales[i]."""
    rows, scales = _derivative_rows(basis, points, mults)
    assert all(type(x) is int for r in rows for x in r)
    assert all(type(s) is int and s > 0 for s in scales) and len(scales) == len(rows)
    return [tuple(F(x, s) for x in r) for r, s in zip(rows, scales)]


def per_point_derivative_rows(basis, points, mults):
    """Oracle: the derivative chain rebuilt at every point (_derivative_rows
    before it shared one chain)."""
    rows = []
    for x, b in zip(points, mults):
        derivs = list(basis)
        for k in range(b):
            rows.append(tuple(p(x) for p in derivs))
            derivs = [p.derivative() for p in derivs]
    return rows


class TestDerivativeRows:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
                             max_size=7).map(UniPoly), min_size=1, max_size=5),
           st.lists(st.tuples(st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
                              st.integers(1, 4)), max_size=4))
    def test_matches_the_per_point_chain(self, basis, pattern):
        points = [x for x, _ in pattern]
        mults = [b for _, b in pattern]
        assert derivative_fractions(basis, points, mults) == per_point_derivative_rows(
            basis, points, mults)


# -- one elimination per candidate against the n + 1 minors -------------------

def minor_loop_cofactors(rows, ncols):
    """Oracle: (-1)^j times the minor without column j, one det_frac each."""
    return [(-1) ** j * (det_frac([[row[c] for c in range(ncols) if c != j] for row in rows])
                         if rows else F(1)) for j in range(ncols)]


def minor_loop_candidate(system: LinearSystem, pattern: ZeroPattern) -> UniPoly:
    """Oracle: cofactor expansion along the symbolic top row with one det_frac
    per column, sign-normalized by the lowest Taylor coefficient
    (extreme_candidate before it ran one elimination)."""
    rows = derivative_fractions(system.basis, pattern.points, pattern.mults)
    det = UniPoly.zero()
    for c, p in zip(minor_loop_cofactors(rows, system.dim), system.basis):
        det = det + p * c
    if det.is_zero:
        return det
    return det if det.coeffs[det.ord_at(0)] > 0 else -det


small_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def evaluation_rows(draw):
    """n x (n+1) rational rows, n 0-6, with small entries so some draws are
    rank-deficient (zero or repeated rows), plus rows scaled from earlier ones."""
    n = draw(st.integers(0, 6))
    entries = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(tuple(draw(entries) * x for x in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(draw(st.lists(entries, min_size=n + 1, max_size=n + 1))))
    return rows


def _composition(draw, total):
    """Positive multiplicities summing to total."""
    cuts = sorted(draw(st.sets(st.integers(1, total - 1)))) if total > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@st.composite
def candidate_cases(draw):
    """A system of dimension n + 1 (n 1-6) with distinct leading degrees, so
    its basis is independent, and a pattern prescribing n conditions."""
    n = draw(st.integers(1, 6))
    degrees = draw(st.lists(st.integers(0, n + 3), min_size=n + 1, max_size=n + 1,
                            unique=True))
    basis = [UniPoly(draw(st.lists(small_rationals, min_size=d, max_size=d)) + [1])
             for d in degrees]
    system = profile_and_normalize(basis, draw(small_rationals))
    mults = _composition(draw, n)
    points = draw(st.lists(small_rationals, min_size=len(mults), max_size=len(mults),
                           unique=True))
    return system, ZeroPattern(tuple(sorted(points)), tuple(mults))


@st.composite
def symmetric_cases(draw):
    """An even basis with a pattern symmetric about 0: the conditions at -x
    repeat those at x, so the rank falls below n and every minor vanishes."""
    half = draw(st.integers(1, 3))
    n = 2 * half
    degrees = draw(st.lists(st.integers(0, n + 2), min_size=n + 1, max_size=n + 1,
                            unique=True))
    basis = []
    for d in degrees:
        lower = draw(st.lists(small_rationals, min_size=d, max_size=d))
        basis.append(UniPoly([c for k in range(d) for c in (lower[k], 0)] + [1]))
    system = profile_and_normalize(basis, 0)
    mults = _composition(draw, half)
    xs = sorted(draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 5)),
                              min_size=len(mults), max_size=len(mults), unique=True)))
    points = [-x for x in reversed(xs)] + xs
    return system, ZeroPattern(tuple(points), tuple(mults[::-1] + mults))


class TestOneElimination:
    @settings(max_examples=300, deadline=None)
    @given(evaluation_rows())
    def test_cofactors_are_the_signed_minors(self, rows):
        ncols = len(rows) + 1
        assert rays._top_row_cofactors(rows, ncols) == minor_loop_cofactors(rows, ncols)

    @settings(max_examples=300, deadline=None)
    @given(candidate_cases())
    def test_matches_the_minor_loop(self, case):
        system, pattern = case
        assert extreme_candidate(system, pattern).coeffs == \
            minor_loop_candidate(system, pattern).coeffs

    @settings(max_examples=60, deadline=None)
    @given(symmetric_cases())
    def test_rank_deficient_symmetric_patterns(self, case):
        system, pattern = case
        assert zero_conditions_dim(system, pattern) > 1
        assert extreme_candidate(system, pattern).is_zero
        assert minor_loop_candidate(system, pattern).is_zero

    def test_one_elimination_and_no_minor(self, monkeypatch):
        calls = []
        eliminate = rays._eliminate

        def counting_eliminate(*args, **kw):
            calls.append("eliminate")
            return eliminate(*args, **kw)

        monkeypatch.setattr(rays, "_eliminate", counting_eliminate)
        monkeypatch.setattr(rays, "det_frac", lambda rows: calls.append("det_frac"))
        f = extreme_candidate(moment_system(6), ZeroPattern(
            (F(1, 5), F(1, 2), F(4, 5)), (2, 2, 2)))
        assert calls == ["eliminate"]
        c = f.leading_coeff
        assert c > 0 and f == c * ((t - F(1, 5)) * (t - F(1, 2)) * (t - F(4, 5))) ** 2


# -- results read as the Fraction coefficients they stand for ------------------

class TestResultsCarryTheirFractions:
    @pytest.mark.parametrize("n, negated", [(2, True), (4, False)])
    def test_extreme_candidate(self, n, negated, monkeypatch):
        negations = []
        neg = UniPoly.__neg__
        monkeypatch.setattr(UniPoly, "__neg__", lambda p: negations.append(p) or neg(p))
        pattern = ZeroPattern((F(1, 2),), (n,))
        candidate = extreme_candidate(moment_system(n), pattern)
        assert bool(negations) == negated  # both branches of the sign normalization
        assert candidate.monic() == (t - F(1, 2)) ** n and candidate(0) > 0

    def test_divisor_face_basis_and_stripped_system(self):
        f = ((t - F(1, 3)) * (t - F(2, 3))) ** 2 * (t * t + 1)
        assert interval_supported_divisor(f, UNIT).coeffs == (
            F(4, 81), F(-4, 9), F(13, 9), -2, 1)
        system = moment_system(6)
        face = supporting_face_basis(system, f, UNIT)
        assert len(face) == 3 and all(g.coeffs[-1] == 1 for g in face)
        assert all(g.exact_divide(interval_supported_divisor(f, UNIT)).degree == 2 for g in face)
        # 0 is a base point of t^3, t^4: both are divided by t^3
        assert [p.coeffs for p in profile_and_normalize((t ** 3, t ** 4 - t ** 3), 0).basis] == [
            (0, 1), (1,)]

    def test_curve_objective(self):
        from curvehull.hull import moment_curve
        assert moment_curve(3, UNIT).objective((1, F(-1, 2), 3)).coeffs == (0, 1, F(-1, 2), 3)
