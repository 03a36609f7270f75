import heapq
import operator
import random
import re
from fractions import Fraction
from fractions import Fraction as F
from itertools import permutations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehull.multipoly import MultiPoly, poly_det
from curvehull.unipoly import UniPoly, _over_lcm, _Poly


def var(i, arity=3):
    return MultiPoly.variable(arity, i)


def rand_mpoly(rng, arity=3, nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(arity))
        terms[exp] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(arity, terms)


def leibniz_det(rows):
    """Independent determinant oracle: the full permutation sum."""
    n = len(rows)
    arity = rows[0][0].arity
    total = MultiPoly.zero(arity)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = MultiPoly.constant(arity, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def heap_divide(f, g):
    """Oracle: lex leading-term division by any nonzero g, or None when g
    does not divide f.  While the remainder is nonzero its leading term must
    be divisible by the leading term of g; leading terms come from a lazily
    pruned max-heap."""
    glead = max(g.terms)
    gc = g.terms[glead]
    gtail = [(ge, gcoef) for ge, gcoef in g.terms.items() if ge != glead]
    rem = dict(f.terms)
    heap = [tuple(-e for e in exp) for exp in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        lead = tuple(-e for e in heapq.heappop(heap))
        c = rem.pop(lead, None)
        if c is None:  # stale heap entry
            continue
        exp = tuple(a - b for a, b in zip(lead, glead))
        if any(e < 0 for e in exp):
            return None
        c = c / gc
        quot[exp] = c
        for ge, gcoef in gtail:
            key = tuple(a + b for a, b in zip(exp, ge))
            old = rem.get(key)
            acc = (old if old is not None else 0) - c * gcoef
            if acc:
                rem[key] = acc
                if old is None:
                    heapq.heappush(heap, tuple(-e for e in key))
            else:
                rem.pop(key, None)
    return MultiPoly(f.arity, quot)


class TestExactDivide:
    def test_difference_of_squares(self):
        x0, x1 = var(0, 2), var(1, 2)
        assert (x0 * x0 - x1 * x1).exact_divide(0, 1) == x0 + x1

    def test_swapped_slots_negate_the_quotient(self):
        x0, x1 = var(0, 2), var(1, 2)
        assert (x0 * x0 - x1 * x1).exact_divide(1, 0) == -x0 - x1

    def test_indivisible(self):
        x0, x1 = var(0, 2), var(1, 2)
        assert (x0 * x1).exact_divide(0, 1) is None

    def test_quotient_via_remultiplication(self):
        x0, x1, x2 = var(0), var(1), var(2)
        f = (x0 - x1) ** 2 * (x0 + x2)
        q = f.exact_divide(0, 1)
        assert q is not None
        assert q * (x0 - x1) == f
        assert q == (x0 - x1) * (x0 + x2)

    def test_zero_dividend(self):
        assert MultiPoly.zero(2).exact_divide(0, 1) == MultiPoly.zero(2)

    def test_zero_divisor_rejected(self):
        # equal slots name t_i - t_i, the zero polynomial
        for i in (0, 1):
            with pytest.raises(ValueError, match=f"two different slots, got {i} and {i}"):
                var(0, 2).exact_divide(i, i)

    def test_arity_mismatch(self):
        for i, j in ((0, 2), (2, 0), (-1, 0), (0, -1), (0, 5)):
            with pytest.raises(ValueError, match=r"outside 0\.\.1"):
                var(0, 2).exact_divide(i, j)

    @pytest.mark.parametrize("slot", ["t0", 1.5, None, True, False, 1.0, F(1)],
                             ids=["t0", "1.5", "None", "True", "False", "1.0", "Fraction"])
    def test_slots_that_are_not_ints_are_refused(self, slot):
        # a bool is not a slot, though True == 1
        for i, j in ((slot, 0), (0, slot)):
            with pytest.raises(ValueError, match=re.escape(f"variable index {slot!r}")):
                var(0, 2).exact_divide(i, j)


class TestSubstitution:
    def test_inject_matches_evaluation(self):
        p = UniPoly((1, 0, 2))  # 1 + 2t^2
        m = MultiPoly.inject(p, 3, 1)
        assert m.evaluate((5, F(1, 2), 7)) == p(F(1, 2))

    def test_subs_value(self):
        # t_0 = 1/2 in t_0^2 t_1 + t_1 leaves 5/4 t_1, at every t_1
        x0, x1 = var(0, 2), var(1, 2)
        p = x0 * x0 * x1 + x1
        q = MultiPoly(2, {(0, 1): F(5, 4)})
        for y in (F(0), F(1), F(-3, 7), F(11, 2)):
            assert p.evaluate((F(1, 2), y)) == q.evaluate((0, y))

    def test_merge_variables(self):
        p = MultiPoly(3, {(1, 2, 1): 3, (0, 1, 0): 1})
        q = p.merge_variables([0, 1, 1], 2)
        assert q == MultiPoly(2, {(1, 3): 3, (0, 1): 1})


class TestDeterminant:
    def test_matches_leibniz_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            rows = [[rand_mpoly(rng, nterms=2, max_exp=2) for _ in range(3)]
                    for _ in range(3)]
            assert poly_det(rows) == leibniz_det(rows)

    def test_vandermonde(self):
        rows = [[MultiPoly.inject(UniPoly.monomial(k), 3, i) for k in (2, 1, 0)]
                for i in range(3)]
        x0, x1, x2 = var(0), var(1), var(2)
        assert poly_det(rows) == (x0 - x1) * (x0 - x2) * (x1 - x2)

    def test_singular(self):
        x0 = var(0, 2)
        rows = [[x0, x0], [x0, x0]]
        assert poly_det(rows).is_zero

    def test_mixed_arities_are_refused(self):
        # exponent tuples of unequal length would be zipped short
        a, b = var(0, 2), var(2, 3)
        for rows in ([[a, b], [b, a]], [[b, a], [a, b]]):
            with pytest.raises(ValueError, match="arity"):
                poly_det(rows)


class TestArity:
    @pytest.mark.parametrize("arity", [0, -1, True, 2.5])
    def test_arity_must_be_a_positive_int(self, arity):
        with pytest.raises(ValueError, match=f"arity must be a positive integer, got {arity!r}"):
            MultiPoly(arity)

    @pytest.mark.parametrize("exp", [(1.5, 0), (1.0, 0), (True, 0), (0, F(1)), (-1, 0)])
    def test_exponent_entries_must_be_nonnegative_ints(self, exp):
        with pytest.raises(ValueError, match="bad exponent"):
            MultiPoly.monomial(2, exp)
        with pytest.raises(ValueError, match="bad exponent"):
            MultiPoly(2, {exp: 1})

    @pytest.mark.parametrize("i", [-1, -2, 2, 5, True, 1.0])
    def test_variable_refuses_an_index_outside_the_arity(self, i):
        with pytest.raises(ValueError, match=f"variable index {i!r} is outside 0..1"):
            MultiPoly.variable(2, i)

    @pytest.mark.parametrize("exp", [(1,), (1, 0, 0), ()])
    def test_coeff_refuses_an_exponent_of_another_arity(self, exp):
        p = MultiPoly(2, {(1, 0): 3})
        with pytest.raises(ValueError, match="does not have arity 2"):
            p.coeff(exp)
        assert p.coeff((1, 0)) == 3 and p.coeff((0, 1)) == 0

    @pytest.mark.parametrize("slot", [-1, 3])
    def test_inject_refuses_an_index_outside_the_arity(self, slot):
        with pytest.raises(ValueError, match=f"variable index {slot} is outside 0..2"):
            MultiPoly.inject(UniPoly((1, 2)), 3, slot)

    @pytest.mark.parametrize("target", [[-1, 0], [0, 2], [0, -3]])
    def test_merge_variables_refuses_an_index_outside_the_new_arity(self, target):
        bad = next(i for i in target if not 0 <= i < 2)
        with pytest.raises(ValueError, match=f"variable index {bad} is outside 0..1"):
            (var(0, 2) + var(1, 2)).merge_variables(target, 2)

    @pytest.mark.parametrize("arity", [0, True, 2.0])
    def test_variable_refuses_an_arity_that_is_not_a_positive_int(self, arity):
        with pytest.raises(ValueError, match=f"arity must be a positive integer, got {arity!r}"):
            MultiPoly.variable(arity, 0)

    @pytest.mark.parametrize("new_arity", [True, 1.0, 0])
    def test_merge_variables_refuses_an_arity_that_is_not_a_positive_int(self, new_arity):
        with pytest.raises(ValueError,
                           match=f"new_arity must be a positive integer, got {new_arity!r}"):
            (var(0, 2) + var(1, 2)).merge_variables([0, 0], new_arity)

    def test_indices_inside_the_arity_pass(self):
        assert MultiPoly.variable(2, 1).to_string() == "t1"
        assert MultiPoly.inject(UniPoly((1, 2)), 3, 2).to_string() == "2*t2 + 1"
        assert (var(0, 2) + var(1, 2)).merge_variables([1, 1], 2).to_string() == "2*t1"


# -- properties of the two kernels (hypothesis) --------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def mpolys(draw, arity=3, max_terms=4, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(exps, rationals, max_size=max_terms)))


def slot_pairs(arity=3):
    """Two different slots (i, j), naming the binomial t_i - t_j."""
    return st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True).map(tuple)


def binomial(pair, arity=3):
    i, j = pair
    return var(i, arity) - var(j, arity)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cauchy_binet_matches_the_multiplied_out_matrix(self, data):
        n = data.draw(st.integers(1, 3))
        width = data.draw(st.integers(n, 5))
        left = [[data.draw(mpolys(max_terms=2, max_exp=2)) for _ in range(width)]
                for _ in range(n)]
        right = [[data.draw(rationals) for _ in range(n)] for _ in range(width)]
        square = [[sum((left[i][s] * right[s][j] for s in range(width)), MultiPoly.zero(3))
                   for j in range(n)] for i in range(n)]
        assert poly_det(left, right) == leibniz_det(square)

    @settings(max_examples=80, deadline=None)
    @given(mpolys(), slot_pairs())
    def test_binomial_division_undoes_multiplication(self, f, pair):
        assert (f * binomial(pair)).exact_divide(*pair) == f

    @settings(max_examples=80, deadline=None)
    @given(mpolys(max_terms=6), slot_pairs(), mpolys(max_terms=3))
    def test_binomial_division_agrees_with_heap_division(self, f, pair, extra):
        b = binomial(pair)
        for g in (f * b, f * b + extra):
            assert g.exact_divide(*pair) == heap_divide(g, b)

    def test_binomial_division_rejects_a_perturbed_multiple(self):
        x0, x1, x2 = var(0), var(1), var(2)
        f = (x0 + 3 * x2 * x1) * (x0 - x2)
        for bump in (MultiPoly.constant(3, 1), x1, x0 ** 4, F(1, 3) * x2 * x0):
            assert (f + bump).exact_divide(0, 2) is None
            assert (f + bump).exact_divide(2, 0) is None

    def test_divisor_shapes_outside_the_binomial_case(self):
        # the heap oracle divides by any divisor, not only by t_i - t_j
        x0, x1, x2 = var(0), var(1), var(2)
        f = (x0 * x0 + x1 - F(1, 2)) * x2
        for g in (x0 + x1, 2 * x0 - 2 * x1, x0 * x0 - x1, x0 - 1, x0 - x1 - x2, x0,
                  MultiPoly.constant(3, 2)):
            assert heap_divide(f * g, g) == f


def fraction_route_divide(f, i, j):
    """Oracle: exact division by t_i - t_j as it ran before quotients kept an
    integer form: clear f's denominators by their lcm, take the suffix sums
    of each group, and build a Fraction for every quotient term; None when
    some group's numerators do not sum to zero."""
    nums, den = _over_lcm(list(f.terms.values()))
    groups = {}
    for exp, c in zip(f.terms, nums):
        key = list(exp)
        key[j] += key[i]
        key[i] = 0
        groups.setdefault(tuple(key), {})[exp[i]] = c
    quot = {}
    for key, coeffs in groups.items():
        e = list(key)
        d = e[j]
        s = 0
        for k in range(max(coeffs), -1, -1):
            s += coeffs.get(k, 0)
            if k and s:
                e[i], e[j] = k - 1, d - k
                quot[tuple(e)] = Fraction(s, den)
        if s:
            return None
    return MultiPoly(f.arity, quot)


def first_failure(route, f, chain):
    """(index of the first slot pair of chain whose binomial route finds no
    multiple of, or len(chain), and the quotients up to there)."""
    quotients = []
    for k, pair in enumerate(chain):
        f = route(f, *pair)
        if f is None:
            return k, quotients
        quotients.append(f)
    return len(chain), quotients


dividends = st.one_of(
    mpolys(max_terms=6), st.just(MultiPoly.zero(3)),
    rationals.map(lambda c: MultiPoly.constant(3, c)))


class TestIntegerForm:
    @settings(max_examples=150, deadline=None)
    @given(dividends, st.lists(slot_pairs(), max_size=3), st.lists(slot_pairs(), max_size=2),
           st.one_of(st.none(), mpolys(max_terms=2)), st.randoms(use_true_random=False))
    def test_quotients_and_verdicts_match_the_fraction_route(self, f, factors, extra, bump,
                                                             rng):
        for pair in factors:
            f = f * binomial(pair)
        if bump is not None:
            f = f + bump
        rng.shuffle(factors)
        chain = factors + extra
        at, quotients = first_failure(MultiPoly.exact_divide, f, chain)
        assert (at, quotients) == first_failure(fraction_route_divide, f, chain)
        if bump is None:
            assert at >= len(factors)

    @settings(max_examples=100, deadline=None)
    @given(dividends, slot_pairs())
    def test_both_forms_hold_the_same_coefficients(self, f, pair):
        b = binomial(pair)
        for p in (f, f * b, (f * b).exact_divide(*pair), poly_det([[f, b], [b, f]])):
            nums, den = p.integer_form()
            assert type(den) is int and den > 0
            assert nums.keys() == p.terms.keys()
            assert all(type(v) is int and v and Fraction(v, den) == p.terms[e]
                       for e, v in nums.items())

    @settings(max_examples=100, deadline=None)
    @given(dividends, slot_pairs(), mpolys(max_terms=3),
           st.tuples(*[st.integers(0, 4)] * 3))
    def test_a_lazy_quotient_behaves_like_an_eager_one(self, f, pair, other, exp):
        b = binomial(pair)
        g = f * b
        eager = MultiPoly(3, dict(g.exact_divide(*pair).terms))
        checks = (
            lambda q: q == eager and eager == q,
            lambda q: (q == other) == (eager == other) and q != eager + 1,
            lambda q: hash(q) == hash(eager),
            lambda q: q.coeff(exp) == eager.coeff(exp)
            and all(q.coeff(e) == c for e, c in eager.terms.items()),
            lambda q: q.is_zero == eager.is_zero and bool(q) == bool(eager),
            lambda q: q.to_string() == eager.to_string() and repr(q) == repr(eager),
            lambda q: q + other == eager + other and other + q == other + eager,
            lambda q: q * other == eager * other and q - other == eager - other,
            lambda q: q.merge_variables([0, 0, 1], 2) == eager.merge_variables([0, 0, 1], 2),
            lambda q: (q * b).exact_divide(*pair) == eager)
        for check in checks:
            assert check(g.exact_divide(*pair))

    def test_a_quotient_keeps_the_dividends_denominator(self):
        x0, x1 = var(0, 2), var(1, 2)
        f = (F(1, 6) * x0 + F(1, 4)) * (x0 - x1)
        assert f.integer_form() == ({(2, 0): 2, (1, 1): -2, (1, 0): 3, (0, 1): -3}, 12)
        q = f.exact_divide(0, 1)
        assert q.integer_form() == ({(1, 0): 2, (0, 0): 3}, 12)
        assert q.terms == {(1, 0): F(1, 6), (0, 0): F(1, 4)}
        assert MultiPoly.zero(2).integer_form() == ({}, 1)

    def test_kernel_outputs_other_than_a_quotient_have_their_terms(self):
        x0, x1 = var(0, 2), var(1, 2)
        half = MultiPoly.constant(2, F(1, 2))
        assert poly_det([[x0, half], [half * x1, x1]]).terms == {(1, 1): 1, (0, 1): F(-1, 4)}
        assert poly_det([[x0, x1]], [[F(1, 2)], [F(1, 3)]]).terms == {(1, 0): F(1, 2),
                                                                      (0, 1): F(1, 3)}
        assert poly_det([[x0 - x0]]).terms == {}


# -- arithmetic and substitution against the Fraction loops they replaced -------

def frac_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(a.arity, terms)


def frac_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.arity, {e: -c for e, c in a.terms.items()})


def frac_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(a.arity, out)


def frac_merge_variables(a: MultiPoly, target, new_arity: int) -> MultiPoly:
    out = {}
    for exp, c in a.terms.items():
        e = [0] * new_arity
        for i, k in enumerate(exp):
            e[target[i]] += k
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return MultiPoly(new_arity, out)


def assert_kernel_output(p: MultiPoly, expected: MultiPoly):
    """p is a kernel result with a valid integer form and the oracle's terms
    in the oracle's order."""
    nums, den = p.integer_form()
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert p.arity == expected.arity and p == expected
    assert list(p.terms.items()) == list(expected.terms.items())
    assert all(Fraction(v, den) == p.terms[e] for e, v in nums.items())


operands = st.one_of(mpolys(), st.just(MultiPoly.zero(3)),
                     rationals.map(lambda c: MultiPoly.constant(3, c)))


class TestIntegerArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(operands, operands)
    def test_ring_operations_match_the_fraction_loops(self, a, b):
        assert_kernel_output(a + b, frac_add(a, b))
        assert_kernel_output(a - b, frac_add(a, frac_neg(b)))
        assert_kernel_output(-a, frac_neg(a))
        assert_kernel_output(a * b, frac_mul(a, b))
        assert_kernel_output(a - a, MultiPoly.zero(3))
        assert_kernel_output(a * (b - b), MultiPoly.zero(3))

    @settings(max_examples=150, deadline=None)
    @given(operands, st.lists(st.integers(0, 1), min_size=3, max_size=3))
    def test_substitutions_match_the_fraction_loops(self, a, target):
        assert_kernel_output(a.merge_variables(target, 2), frac_merge_variables(a, target, 2))

    def test_cancellations_over_mixed_denominators(self):
        x0, x1, x2 = var(0), var(1), var(2)
        p = F(1, 6) * x0 * x2 - F(1, 4) * x1 * x2 + F(2, 3)
        q = F(1, 4) * x1 - F(1, 6) * x0
        assert_kernel_output(p + q * x2, MultiPoly.constant(3, F(2, 3)))
        # t_2 merged into t_0: p + q * t_0 is p + q * t_2 with t_2 = t_0
        merged = p.merge_variables([0, 1, 0], 2) + (q * x0).merge_variables([0, 1, 0], 2)
        assert_kernel_output(merged, MultiPoly.constant(2, F(2, 3)))
        assert_kernel_output((x0 - x1).merge_variables([0, 0, 1], 2), MultiPoly.zero(2))

    @settings(max_examples=100, deadline=None)
    @given(mpolys(), operands, st.lists(rationals, max_size=4))
    def test_a_constructed_and_a_kernel_copy_share_one_integer_form(self, f, g, cs):
        b = var(0) - var(2)
        fresh = MultiPoly(3, dict(f.terms))
        copies = (fresh, -(-fresh), fresh * 1, fresh + 0, (fresh * b).exact_divide(0, 2),
                  fresh.merge_variables([0, 1, 2], 3))
        assert all(p.integer_form() == fresh.integer_form() for p in copies)
        nums, den = _over_lcm(list(f.terms.values()))
        assert fresh.integer_form() == (dict(zip(f.terms, nums)), den)
        assert all(p.terms == f.terms for p in copies)
        # every kernel result is over its least denominator
        results = (f + g, f - g, -f, f * g, (f * b).exact_divide(0, 2),
                   f.merge_variables([0, 0, 1], 2),
                   MultiPoly.inject(UniPoly(cs), 3, 1), poly_det([[f, g], [g, f]]),
                   poly_det([[f, g]], [[F(1, 2)], [F(1, 3)]]))
        for p in results:
            nums, den = p.integer_form()
            assert den > 0 and gcd(den, *nums.values()) == 1
        # so scaling down and back up leaves no common factor behind
        p, q = var(0, 2), fresh
        for _ in range(20):
            p, q = (p * F(1, 2)) * 2, (q * F(1, 2)) * 2
        assert p.integer_form() == ({(1, 0): 1}, 1) and q.integer_form() == fresh.integer_form()


class TestNoConstructorCalls:
    def test_arithmetic_and_substitution_on_existing_polynomials(self):
        x0, x1, x2 = var(0), var(1), var(2)
        p = F(1, 3) * x0 * x1 - F(2, 5) * x2 + 1
        q = x0 - F(1, 2) * x1 * x1
        with mock.patch.object(MultiPoly, "__init__", autospec=True,
                               side_effect=MultiPoly.__init__) as built:
            results = (p + q, p - q, -p, p * q, p ** 3, p + 2, F(1, 2) * p, 3 - p,
                       p.merge_variables([0, 0, 1], 2),
                       (p * (x0 - x2)).exact_divide(0, 2), MultiPoly.variable(3, 1),
                       poly_det([[p, q], [q, p]]), poly_det([[p - p]]))
        assert built.call_count == 0
        assert results[0] == frac_add(p, q) and results[3] == frac_mul(p, q)
        assert results[9] == p and results[-1].is_zero


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(mpolys(), mpolys(), mpolys(), st.tuples(rationals, rationals, rationals))
    def test_ring_laws_hold_at_rational_points(self, a, b, c, x):
        zero, one = MultiPoly.zero(3), MultiPoly.constant(3, 1)
        at = {name: p.evaluate(x) for name, p in (("a", a), ("b", b), ("c", c))}
        for lhs, rhs, value in (
                (a + b, b + a, at["a"] + at["b"]),
                (a * b, b * a, at["a"] * at["b"]),
                ((a + b) + c, a + (b + c), at["a"] + at["b"] + at["c"]),
                ((a * b) * c, a * (b * c), at["a"] * at["b"] * at["c"]),
                (a * (b + c), a * b + a * c, at["a"] * (at["b"] + at["c"])),
                (a + zero, a, at["a"]),
                (a * one, a, at["a"]),
                (a * zero, zero, 0),
                (a - a, zero, 0)):
            assert lhs == rhs
            assert lhs.evaluate(x) == rhs.evaluate(x) == value


constants_and_mpolys = st.one_of(
    st.integers(-2, 2), st.integers(-2, 2).map(F),
    st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
    st.dictionaries(st.sampled_from(((0, 0), (1, 0))),
                    st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
                    max_size=2).map(lambda terms: MultiPoly(2, terms)),
    st.builds(MultiPoly.constant, st.sampled_from((1, 3)), st.integers(-2, 2)))


class TestHashContract:
    @settings(max_examples=400, deadline=None)
    @given(constants_and_mpolys, constants_and_mpolys)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_constants_collapse_in_a_set(self):
        assert len({MultiPoly.constant(3, 5), 5, F(5)}) == 1
        assert len({MultiPoly.zero(2), 0}) == 1


PROTOCOL = ("__setattr__", "__eq__", "__hash__", "__bool__", "__radd__", "__sub__",
            "__rsub__", "__rmul__", "__pow__", "__repr__")


class TestSharedProtocol:
    """The rules UniPoly and MultiPoly share live once, on _Poly."""

    def test_each_rule_is_written_once(self):
        for name in PROTOCOL:
            assert name in vars(_Poly)
            assert name not in vars(UniPoly) and name not in vars(MultiPoly)

    def test_no_instance_dict(self):
        # a __dict__ on every polynomial would cost memory on every kernel output
        assert _Poly.__slots__ == ()
        for p in (UniPoly.t(), MultiPoly.variable(2, 0)):
            assert not hasattr(p, "__dict__")

    def test_arities_compare_unequal_but_do_not_mix(self):
        a, b = MultiPoly.variable(2, 0), MultiPoly.variable(3, 0)
        assert a != b
        with pytest.raises(ValueError, match="arity mismatch"):
            a + b
        assert UniPoly.t() != MultiPoly.variable(1, 0)

    @pytest.mark.parametrize("p", [UniPoly((1, 2)), MultiPoly.variable(2, 1) + 1])
    def test_float_operands_are_refused(self, p):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, 0.5)
            with pytest.raises(TypeError):
                op(0.5, p)

    def test_powers_and_text(self):
        p, m = UniPoly((1, 2)), MultiPoly.variable(2, 1) + 1
        assert repr(p ** 0) == "UniPoly(1)" and repr(m ** 0) == "MultiPoly(1)"
        assert repr(p ** 2) == "UniPoly(4*t^2 + 4*t + 1)"
        assert repr(m ** 2) == "MultiPoly(t1^2 + 2*t1 + 1)"
        for q in (p, m):
            with pytest.raises(ValueError, match="negative power"):
                q ** -1

    @pytest.mark.parametrize("k", [True, False, 2.0, 0.0, F(2), -2])
    def test_powers_refuse_an_exponent_that_is_not_an_int_at_least_zero(self, k):
        # t ** True once returned t, and t ** 2.0 died on a bitwise and
        for q in (UniPoly((1, 2)), MultiPoly.variable(2, 1) + 1):
            with pytest.raises(ValueError, match="exponent must be an int >= 0.*got " + re.escape(repr(k))):
                q ** k

    def test_the_integer_form_is_read_in_one_place(self):
        for name in ("integer_form", "is_zero"):
            assert name in vars(_Poly)
            assert name not in vars(UniPoly) and name not in vars(MultiPoly)


def stores_no_zero(p: MultiPoly) -> bool:
    return all(c != 0 for c in p.terms.values())


class TestNoStoredZeros:
    @settings(max_examples=120, deadline=None)
    @given(mpolys(), mpolys(), st.integers(0, 3),
           st.lists(st.integers(0, 1), min_size=3, max_size=3))
    def test_no_operation_stores_a_zero_coefficient(self, a, b, k, target):
        for p in (a + b, a - b, a * b, a ** k, a - a, a + (-a), a * (b - b),
                  (a - b) * (a + b) - (a * a - b * b), a.merge_variables(target, 2)):
            assert stores_no_zero(p)

    def test_forced_cancellations_leave_no_term(self):
        x0, x1, x2 = var(0), var(1), var(2)
        p = x0 * x1 - F(1, 2) * x2 + 3
        for q in (p - p, p + (-p), (x0 - x1) * (x0 + x1) - x0 ** 2 + x1 ** 2):
            assert q.terms == {} and q.is_zero
        assert (x0 - x1).merge_variables([0, 0, 1], 2).terms == {}
        merged = (x0 - x1 + x2).merge_variables([0, 0, 1], 2)
        assert merged.terms == {(0, 1): 1}
        assert (x0 - x1) ** 0 == MultiPoly.constant(3, 1)


class TestToString:
    def test_known_strings(self):
        x0, x1, x2 = var(0), var(1), var(2)
        for p, text in (
                (MultiPoly.zero(3), "0"),
                (MultiPoly.constant(3, 5), "5"),
                (MultiPoly.constant(3, F(-2, 3)), "-2/3"),
                (x0, "t0"),
                (-x0, "-t0"),
                (x0 * x1 ** 2 - x2 + 1, "t0*t1^2 - t2 + 1"),
                (-x0 ** 2 + F(1, 2) * x1 - 1, "-t0^2 + 1/2*t1 - 1"),
                (-F(3, 4) * x0 * x2 - x1 * x2, "-3/4*t0*t2 - t1*t2"),
                (2 * x1 - 2 * x2, "2*t1 - 2*t2")):
            assert p.to_string() == text
        assert (x0 - x1).to_string("x") == "x0 - x1"
        assert repr(x0 + 1) == "MultiPoly(t0 + 1)"
