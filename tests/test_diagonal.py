import random
from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvehull import diagonal, multipoly
from curvehull.diagonal import (BlockPartition, DivisibilityError,
                                SchurMonomialIdeal, divide_diagonals,
                                TensorMatrix, evaluation_matrix,
                                factor_taylor_determinant, normalize_basis_orders,
                                taylor_remainder_check, vandermonde_cofactor)
from curvehull.linalg import det_frac
from curvehull.multipoly import MultiPoly, poly_det
from curvehull.schur import schur_via_tableaux
from curvehull.unipoly import UniPoly

t = UniPoly.t()
mono = UniPoly.monomial


def vandermonde_poly(arity: int) -> MultiPoly:
    """Oracle: prod_{0 <= i < j < arity} (x_i - x_j), multiplied out."""
    out = MultiPoly.constant(arity, 1)
    for i in range(arity):
        for j in range(i + 1, arity):
            out = out * (MultiPoly.variable(arity, i) - MultiPoly.variable(arity, j))
    return out


def criterion_05_basis():
    """n = 4, orders (7, 6, 5, 3, 1), every perturbation slot up to t^9
    filled with a rational coefficient."""
    rng = random.Random(5)
    return tuple(sum((mono(k, F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
                      for k in range(m + 1, 10)), mono(m)) for m in (7, 6, 5, 3, 1))


def random_normalized_basis(rng, orders, extra_terms=2, cap=None):
    """p_i = t^{m_i} + random higher-order terms, unit leading coefficient."""
    cap = cap if cap is not None else orders[0] + 2
    basis = []
    for m in orders:
        p = mono(m)
        for k in range(m + 1, cap + 1):
            if rng.random() < 0.7:
                p = p + mono(k, F(rng.randint(-5, 5), rng.randint(1, 3)))
        basis.append(p)
    return tuple(basis)


class TestEvaluationMatrix:
    @pytest.mark.parametrize("basis", [
        (mono(2), mono(1), mono(0)),
        (mono(3), mono(1), mono(0)),
        (mono(2) + mono(1), mono(1), mono(0)),
    ])
    def test_entries_are_slot_evaluations(self, basis):
        m = evaluation_matrix(basis)
        assert m.arity == 3 and m.size == 3
        for i in range(3):
            for j in range(3):
                assert m.entries[i][j] == MultiPoly.inject(basis[j], 3, i)

    def test_det_vanishes_on_every_diagonal(self):
        rng = random.Random(19)
        for _ in range(10):
            basis = random_normalized_basis(rng, (4, 2, 0))
            det = evaluation_matrix(basis).det()
            for i in range(3):
                for j in range(i + 1, 3):
                    merged = list(range(3))
                    merged[j] = i
                    collapsed = sorted(set(merged))
                    target = [collapsed.index(x) for x in merged]
                    assert det.merge_variables(target, 2).is_zero


class TestVandermondeCofactor:
    def test_moment_basis_gives_one(self):
        det = evaluation_matrix((mono(2), mono(1), mono(0))).det()
        assert vandermonde_cofactor(det) == MultiPoly.constant(3, 1)

    def test_cubic_basis(self):
        det = evaluation_matrix((mono(3), mono(1), mono(0))).det()
        cof = vandermonde_cofactor(det)
        x = [MultiPoly.variable(3, i) for i in range(3)]
        assert cof == x[0] + x[1] + x[2]
        # oracle: re-multiplication against the symbolic expansion
        assert cof * vandermonde_poly(3) == det

    def test_single_binomial(self):
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert vandermonde_cofactor(x0 - x1) == MultiPoly.constant(2, 1)

    def test_not_divisible(self):
        x0 = MultiPoly.variable(2, 0)
        assert vandermonde_cofactor(x0) is None

    def test_always_divisible_for_any_basis(self):
        rng = random.Random(29)
        for _ in range(10):
            basis = tuple(UniPoly([F(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(5)]) or mono(1)
                          for _ in range(3))
            det = evaluation_matrix(basis).det()
            assert vandermonde_cofactor(det) is not None

    def test_jacobi_consistency(self):
        # for pure monomial bases the cofactor is the Schur polynomial itself
        for orders in ((3, 1, 0), (4, 2, 0), (5, 4, 3, 2, 0), (5, 2, 1, 0)):
            det = evaluation_matrix(tuple(mono(m) for m in orders)).det()
            assert vandermonde_cofactor(det) == schur_via_tableaux(orders)

    def test_membership_for_normalized_bases(self):
        rng = random.Random(37)
        for orders in ((3, 1, 0), (4, 2, 1), (6, 3, 2, 0)):
            ideal = SchurMonomialIdeal.from_sequence(orders)
            for _ in range(5):
                basis = random_normalized_basis(rng, orders)
                cof = vandermonde_cofactor(evaluation_matrix(basis).det())
                report = ideal.contains(cof)
                assert report.ok, (orders, basis, report.failures)

    def test_equal_orders_no_membership_claim(self):
        # equal vanishing orders: the cofactor still exists, membership may fail
        basis = (mono(2) + mono(3), mono(2), mono(0))
        det = evaluation_matrix(basis).det()
        assert vandermonde_cofactor(det) is not None


class TestSchurIdeal:
    def test_zero_always_member(self):
        ideal = SchurMonomialIdeal.from_sequence((3, 1, 0))
        assert ideal.contains(MultiPoly.zero(3)).ok

    def test_linear_member(self):
        ideal = SchurMonomialIdeal.from_sequence((3, 1, 0))
        assert ideal.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        g = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert ideal.contains(g).ok

    def test_constant_not_member(self):
        ideal = SchurMonomialIdeal.from_sequence((3, 1, 0))
        report = ideal.contains(MultiPoly.constant(3, 1))
        assert not report.ok and report.failures == ((0, 0, 0),)

    def test_collapsed_generators(self):
        ideal = SchurMonomialIdeal.collapsed((3, 1, 0), (1, 2))
        assert ideal.arity == 2
        assert ideal.generators == ((0, 1), (1, 0))
        ideal45 = SchurMonomialIdeal.collapsed((5, 4, 3, 2, 0), (1, 2, 2))
        assert ideal45.generators == ((0, 2, 2), (1, 1, 2), (1, 2, 1))

    def test_arity_mismatch(self):
        ideal = SchurMonomialIdeal.from_sequence((3, 1, 0))
        with pytest.raises(ValueError):
            ideal.contains(MultiPoly.zero(2))

    def test_collapsed_matches_a_brute_force_collapse(self):
        # every sequence with top entry <= 5, every composition of its length;
        # each filling's weight is summed over the block's slice of variables.
        # Kostka numbers are positive, so the monomials are the filling weights
        for top in range(6):
            for rest in range(1 << top):
                m = (top,) + tuple(e for e in range(top - 1, -1, -1) if rest >> e & 1)
                n1 = len(m)
                weights = schur_via_tableaux(m).monomials()
                for cuts in range(1 << (n1 - 1)):
                    ends = [k for k in range(1, n1) if cuts >> (k - 1) & 1] + [n1]
                    sizes = [b - a for a, b in zip([0] + ends, ends)]
                    expected = sorted({tuple(sum(w[a:b]) for a, b in zip([0] + ends, ends))
                                       for w in weights})
                    ideal = SchurMonomialIdeal.collapsed(m, sizes)
                    assert ideal.arity == len(sizes)
                    assert list(ideal.generators) == expected


class TestTaylorCongruence:
    def test_cubic_example(self):
        # x^3 - y^3 - 3y^2(x-y) - 3y(x-y)^2 = (x-y)^3
        assert taylor_remainder_check(mono(3), 2)

    def test_constant(self):
        assert taylor_remainder_check(UniPoly.constant(7), 4)

    def test_linear(self):
        assert taylor_remainder_check(t, 1)

    @pytest.mark.parametrize("r", [0, True, 2.5])
    def test_r_must_be_a_positive_int(self, r):
        with pytest.raises(ValueError, match=f"r must be a positive integer, got {r!r}"):
            taylor_remainder_check(t, r)

    def test_monomials_exhaustive(self):
        # the congruence is linear in f, so monomials up to degree 8 cover
        # every polynomial of degree <= 8
        for d in range(9):
            for r in range(1, 7):
                assert taylor_remainder_check(mono(d), r), (d, r)

    def test_random_dense(self):
        rng = random.Random(43)
        for _ in range(10):
            f = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)])
            for r in (1, 3, 6):
                assert taylor_remainder_check(f, r)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            taylor_remainder_check(t, 0)

    def test_a_wrong_taylor_term_is_caught(self, monkeypatch):
        # with v! read as 1 the order-2 term is off by (x-y)^2 terms, so the
        # remainder of t^3 at r = 2 is divisible by (x-y)^2 but not (x-y)^3
        monkeypatch.setattr(diagonal, "factorial", lambda v: 1)
        assert not taylor_remainder_check(mono(3), 2)
        assert taylor_remainder_check(mono(3), 1)


def clash_normalize(basis):
    """Oracle: the pairwise loop.  While two elements share a vanishing
    order, subtract a multiple of the first from the second; then sort by
    decreasing order and scale each to a unit coefficient at its order."""
    work = list(basis)
    if any(p.is_zero for p in work):
        raise ValueError("linearly dependent basis (zero element)")
    while True:
        orders = [p.ord_at(0) for p in work]
        clash = next(((orders.index(o), j) for j, o in enumerate(orders)
                      if orders.index(o) < j), None)
        if clash is None:
            break
        i, j = clash
        o = orders[i]
        work[j] = work[j] - work[j].coeff(o) / work[i].coeff(o) * work[i]
        if work[j].is_zero:
            raise ValueError("linearly dependent basis")
    work.sort(key=lambda p: -p.ord_at(0))
    orders = tuple(p.ord_at(0) for p in work)
    return tuple(p * (1 / p.coeff(o)) for p, o in zip(work, orders)), orders


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def spanning_sets(draw):
    """1..4 polynomials of degree < 6 whose orders at 0 often clash; some
    sets are dependent by construction, some hold a zero element."""
    size = draw(st.integers(1, 4))
    basis = [UniPoly(draw(st.lists(coefficients, min_size=1, max_size=6)))
             for _ in range(size)]
    kind = draw(st.sampled_from(("drawn", "combination", "zero")))
    if kind == "combination":
        basis.append(sum((draw(coefficients) * p for p in basis), UniPoly.zero()))
    elif kind == "zero":
        basis[draw(st.integers(0, size - 1))] = UniPoly.zero()
    return tuple(basis)


class TestNormalization:
    @settings(max_examples=120, deadline=None)
    @given(spanning_sets(), st.data())
    def test_agrees_with_the_pairwise_loop_and_depends_only_on_the_span(self, basis, data):
        mix = [[data.draw(coefficients) for _ in basis] for _ in basis]
        assume(det_frac(mix) != 0)
        mixed = tuple(sum((c * p for c, p in zip(row, basis)), UniPoly.zero()) for row in mix)
        try:
            expected, expected_orders = clash_normalize(basis)
        except ValueError:
            for b in (basis, mixed):
                with pytest.raises(ValueError, match="linearly dependent basis"):
                    normalize_basis_orders(b)
            return
        got, orders = normalize_basis_orders(basis)
        assert orders == expected_orders
        assert all(p.ord_at(0) == m and p.coeff(m) == 1 for p, m in zip(got, orders))
        width = 1 + max(p.degree for p in basis)
        rows = [[p.coeff(k) for k in range(width)] for p in basis + got]
        assert sympy.Matrix(rows).rank() == len(basis)
        assert evaluation_matrix(got).det() == evaluation_matrix(expected).det()
        assert normalize_basis_orders(mixed) == (got, orders)

    def test_already_triangular(self):
        basis, orders = normalize_basis_orders((mono(2), mono(1), mono(0)))
        assert orders == (2, 1, 0)
        assert basis == (mono(2), mono(1), mono(0))

    def test_elimination(self):
        basis, orders = normalize_basis_orders((1 + t, 1 - t, mono(2)))
        assert orders == (2, 1, 0)
        for p, m in zip(basis, orders):
            assert p.ord_at(0) == m and p.coeff(m) == 1

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            normalize_basis_orders((t, 2 * t))


class TestTaylorProcess:
    def test_block_of_two(self):
        m = TensorMatrix((mono(2), mono(1), mono(0)), (1, 2))
        assert m.arity == 2
        expected = [
            [MultiPoly.inject(p, 2, 0) for p in (mono(2), mono(1), mono(0))],
            [MultiPoly.inject(p, 2, 1) for p in (mono(2), mono(1), mono(0))],
            [MultiPoly.inject(p, 2, 1) for p in (2 * t, UniPoly.one(), UniPoly.zero())],
        ]
        assert [list(r) for r in m.entries] == expected
        assert m.partition.sizes == (1, 2)

    def test_single_block(self):
        m = TensorMatrix((mono(2), mono(1), mono(0)), (3,))
        assert m.arity == 1
        rows = [[e for e in r] for r in m.entries]
        assert rows[2] == [MultiPoly.constant(1, 2), MultiPoly.zero(1), MultiPoly.zero(1)]

    def test_trivial_blocks_identity(self):
        base = evaluation_matrix((mono(2), mono(1), mono(0)))
        m = TensorMatrix((mono(2), mono(1), mono(0)), (1, 1, 1))
        assert m.entries == base.entries
        assert m.reference_scale() == 1

    def test_block_sum_checked(self):
        with pytest.raises(ValueError, match="block sizes must sum to the basis size"):
            TensorMatrix((mono(2), mono(1), mono(0)), (1, 1))


class TestFactorTaylorDeterminant:
    def test_trivial_blocks(self):
        r = factor_taylor_determinant((mono(2), mono(1), mono(0)), (1, 1, 1))
        assert r.cofactor == MultiPoly.constant(3, 1)
        assert r.checked and r.reference_scale == 1
        assert r.ideal.generators == ((0, 0, 0),)

    def test_cubic_block_pair(self):
        r = factor_taylor_determinant((mono(3), mono(1), mono(0)), (1, 2))
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert r.det == -(x0 ** 3) + 3 * x0 * x1 * x1 - 2 * x1 ** 3
        assert r.cofactor == -x0 - 2 * x1
        assert r.ideal.generators == ((0, 1), (1, 0))
        assert r.checked
        # raw rows drop the (-1)^k/k! factor of the order-1 row
        assert r.reference_scale == -1
        # divisibility oracle: re-multiplication
        assert r.cofactor * (x0 - x1) ** 2 == r.det

    def test_five_dimensional_pipeline(self):
        r = factor_taylor_determinant(
            (mono(5) + mono(6), mono(4), mono(3), mono(2), mono(0)), (1, 2, 2))
        assert r.checked

    def test_reduces_to_cofactor_on_unit_blocks(self):
        rng = random.Random(53)
        for orders in ((3, 1, 0), (4, 2, 0)):
            basis = tuple(mono(m) + (mono(m + 1) * F(rng.randint(-3, 3), 2))
                          for m in orders)
            r = factor_taylor_determinant(basis, (1,) * len(orders))
            direct = vandermonde_cofactor(evaluation_matrix(
                normalize_basis_orders(basis)[0]).det())
            assert r.cofactor == direct

    def test_random_instances(self):
        rng = random.Random(61)
        for _ in range(6):
            orders = tuple(sorted(rng.sample(range(7), 4), reverse=True))
            parts = []
            remaining = 4
            while remaining:
                b = rng.randint(1, remaining)
                parts.append(b)
                remaining -= b
            basis = random_normalized_basis(rng, orders)
            r = factor_taylor_determinant(basis, tuple(parts))
            assert r.checked, (orders, parts)

    def test_unnormalized_input_is_normalized_first(self):
        r = factor_taylor_determinant((1 + t, 1 - t, mono(2)), (1, 2))
        assert r.checked


class TestBlockPartition:
    def test_blocks(self):
        p = BlockPartition((1, 2, 2))
        assert p.slot_of_row() == [0, 1, 1, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPartition((0, 2))
        with pytest.raises(ValueError):
            BlockPartition(())

    @pytest.mark.parametrize("sizes", [(1.7, 2), (True, 2), (2, "1")])
    def test_sizes_are_not_truncated(self, sizes):
        with pytest.raises(ValueError, match="block size must be a positive integer"):
            BlockPartition(sizes)


# -- the Cauchy-Binet determinant and the diagonal division (hypothesis) -------

@st.composite
def bases_and_blocks(draw):
    size = draw(st.integers(1, 4))
    basis = tuple(UniPoly(draw(st.lists(coefficients, min_size=1, max_size=6)))
                  for _ in range(size))
    parts, remaining = [], size
    while remaining:
        parts.append(draw(st.integers(1, remaining)))
        remaining -= parts[-1]
    return basis, tuple(parts)


class TestTensorDeterminant:
    @settings(max_examples=60, deadline=None)
    @given(bases_and_blocks())
    def test_matches_the_square_route(self, case):
        basis, blocks = case
        m = evaluation_matrix(basis)
        taylor = TensorMatrix(basis, blocks)
        for matrix in (m, taylor):
            assert matrix.det() == poly_det([list(r) for r in matrix.entries])


class TestDivideDiagonals:
    @settings(max_examples=40, deadline=None)
    @given(bases_and_blocks(), st.integers(0, 4))
    def test_multiple_divides_and_perturbation_does_not(self, case, k):
        basis, blocks = case
        r1 = len(blocks)
        cof = TensorMatrix(basis, blocks).entries[0][0]
        if cof.is_zero:
            cof = MultiPoly.constant(r1, 1)
        x = [MultiPoly.variable(r1, i) for i in range(r1)]
        prod = MultiPoly.constant(r1, 1)
        for i in range(r1):
            for j in range(i + 1, r1):
                prod = prod * (x[i] - x[j]) ** (blocks[i] * blocks[j])
        assert divide_diagonals(cof * prod, blocks) == cof
        if r1 > 1:
            assert divide_diagonals(cof * prod + x[0] ** k, blocks) is None

    def test_vandermonde_cofactor_is_the_unit_block_case(self):
        det = evaluation_matrix((mono(4), mono(2) + mono(3), mono(0))).det()
        assert vandermonde_cofactor(det) == divide_diagonals(det, (1, 1, 1))
        assert vandermonde_cofactor(det + MultiPoly.variable(3, 0)) is None

    @pytest.mark.parametrize("sizes", [(0, 0, 0), (0, 0, 0, 5), (1, 1), (1, 1, 1, 1),
                                       (1, True, 1), (1, 2.5, 1), (1, -1, 1)])
    def test_sizes_must_be_one_positive_int_per_variable(self, sizes):
        # (0, 0, 0) would divide by nothing and (0, 0, 0, 5) drop an entry
        with pytest.raises(ValueError):
            divide_diagonals(vandermonde_poly(3), sizes)

    def test_the_criterion_05_cofactor_reads_no_fraction_terms(self, monkeypatch):
        """n = 4, orders (7, 6, 5, 3, 1), every perturbation slot filled: the
        10 binomial divisions run on integer forms, the determinant's from
        poly_det, and read no Fraction terms."""
        det = evaluation_matrix(criterion_05_basis()).det()
        assert len(det.terms) > 7000
        quotients, slots, reads, lcms = [], [], [], []
        divide, read, over_lcm = MultiPoly.exact_divide, MultiPoly.terms.fget, multipoly._over_lcm

        def recording_divide(self, i, j):
            slots.append((i, j))
            quotients.append(divide(self, i, j))
            return quotients[-1]

        monkeypatch.setattr(MultiPoly, "exact_divide", recording_divide)
        monkeypatch.setattr(MultiPoly, "terms", property(lambda p: reads.append(p) or read(p)))
        monkeypatch.setattr(multipoly, "_over_lcm", lambda v: lcms.append(v) or over_lcm(v))
        cof = vandermonde_cofactor(det)
        assert len(quotients) == 10 and quotients[-1] is cof
        assert slots == list(combinations(range(5), 2))
        assert reads == [] and lcms == []
        assert SchurMonomialIdeal.from_sequence((7, 6, 5, 3, 1)).contains(cof).ok

    def test_the_criterion_05_minors_take_integer_rows(self, monkeypatch):
        """The same n = 4 case: every Cauchy-Binet minor of the rational
        coefficient matrix is one det_frac of int rows, its columns cleared
        once, and the determinant is still the square route's."""
        basis = criterion_05_basis()
        minors, det_frac_ = [], multipoly.det_frac
        monkeypatch.setattr(multipoly, "det_frac", lambda rows: minors.append(rows)
                            or det_frac_(rows))
        det = evaluation_matrix(basis).det()
        assert minors and all(type(x) is int for rows in minors for r in rows for x in r)
        assert all(len(rows) == 5 for rows in minors)
        monkeypatch.undo()
        assert det == poly_det(evaluation_matrix(basis).entries)

    def test_outputs_carry_their_fraction_terms(self):
        basis = (mono(3) + mono(4, F(1, 2)), mono(1) - mono(2, F(2, 3)), mono(0) + mono(1, F(1, 3)))
        det = evaluation_matrix(basis).det()
        res = factor_taylor_determinant(basis, (1, 2))
        for p in (det, vandermonde_cofactor(det), divide_diagonals(det, (1, 1, 1)),
                  res.det, res.cofactor, divide_diagonals(MultiPoly.constant(1, 3), (2,))):
            nums, den = p.integer_form()
            assert p.terms == {e: F(v, den) for e, v in nums.items()}
            assert all(type(c) is F for c in p.terms.values())

    def test_failed_division_raises_in_the_taylor_factorization(self, monkeypatch):
        from curvehull import diagonal, multipoly
        monkeypatch.setattr(diagonal, "divide_diagonals", lambda f, sizes: None)
        with pytest.raises(DivisibilityError):
            factor_taylor_determinant((mono(3), mono(1), mono(0)), (1, 2))
