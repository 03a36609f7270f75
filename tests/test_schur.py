from fractions import Fraction as F
from itertools import combinations, product
from math import prod

import pytest

from curvehull import schur
from curvehull.multipoly import MultiPoly
from curvehull.schur import (MAX_TABLEAU_CELLS, DecreasingSeq, proper_dominance_check,
                             schur_via_bialternant, schur_via_tableaux,
                             subsequence_divisibility_check)


def vandermonde_poly(arity: int) -> MultiPoly:
    """Oracle: prod_{0 <= i < j < arity} (x_i - x_j), multiplied out."""
    out = MultiPoly.constant(arity, 1)
    for i in range(arity):
        for j in range(i + 1, arity):
            out = out * (MultiPoly.variable(arity, i) - MultiPoly.variable(arity, j))
    return out


def brute_force_tableaux_sum(m) -> MultiPoly:
    """Oracle: every filling of the diagram of m with values 0..n, kept when
    its rows weakly increase and its columns strictly increase, summed by
    weight."""
    shape = DecreasingSeq(m).shape()
    cells = [(i, j) for i, k in enumerate(shape) for j in range(k)]
    terms = {}
    for values in product(range(len(m)), repeat=len(cells)):
        cell = dict(zip(cells, values))
        if all(cell.get((i, j - 1), -1) <= v and cell.get((i - 1, j), -1) < v
               for (i, j), v in cell.items()):
            w = tuple(values.count(x) for x in range(len(m)))
            terms[w] = terms.get(w, 0) + 1
    return MultiPoly(len(m), terms)


def decreasing_sequences(max_len, max_entry):
    for length in range(1, max_len + 1):
        for combo in combinations(range(max_entry + 1), length):
            yield tuple(sorted(combo, reverse=True))


class TestDecreasingSeq:
    def test_validation(self):
        DecreasingSeq((3, 1, 0))
        with pytest.raises(ValueError):
            DecreasingSeq((1, 1, 0))
        with pytest.raises(ValueError):
            DecreasingSeq((0, 1))
        with pytest.raises(ValueError):
            DecreasingSeq(())

    def test_entries_are_not_truncated(self):
        for entries in ((2.9, 1.5, False), (3, 1.0, 0), (2, True, 0), (F(3), 1, 0)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                DecreasingSeq(entries)

    def test_schur_of_a_float_sequence_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative integers"):
            schur_via_tableaux((2.9, 1, 0))

    def test_shape(self):
        assert DecreasingSeq((5, 4, 3, 2, 0)).shape() == (1, 1, 1, 1, 0)
        assert DecreasingSeq((2, 1, 0)).shape() == (0, 0, 0)


class TestConstructions:
    def test_staircase_is_one(self):
        for m in ((0,), (1, 0), (2, 1, 0), (4, 3, 2, 1, 0)):
            assert schur_via_tableaux(m) == MultiPoly.constant(len(m), 1)
            assert schur_via_bialternant(m) == MultiPoly.constant(len(m), 1)

    def test_elementary_symmetric_case(self):
        # sigma_(5,4,3,2,0) is the fourth elementary symmetric polynomial in 5 vars
        expected = MultiPoly(5, {
            (1, 1, 1, 1, 0): 1, (1, 1, 1, 0, 1): 1, (1, 1, 0, 1, 1): 1,
            (1, 0, 1, 1, 1): 1, (0, 1, 1, 1, 1): 1})
        assert schur_via_tableaux((5, 4, 3, 2, 0)) == expected
        assert schur_via_bialternant((5, 4, 3, 2, 0)) == expected

    def test_two_variable_case(self):
        # oracle for (2,0): (x0^2 - x1^2)/(x0 - x1) = x0 + x1
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        oracle = (x0 * x0 - x1 * x1).exact_divide(0, 1)
        assert schur_via_tableaux((2, 0)) == oracle == x0 + x1

    def test_first_power_sum_case(self):
        x = [MultiPoly.variable(3, i) for i in range(3)]
        assert schur_via_bialternant((3, 1, 0)) == x[0] + x[1] + x[2]

    def test_matches_a_brute_force_filling_sum(self):
        seqs = list(decreasing_sequences(6, 5))
        assert len(seqs) == 63
        for m in seqs:
            assert schur_via_tableaux(m) == brute_force_tableaux_sum(m), m

    def test_constructions_agree_exhaustively(self):
        for m in decreasing_sequences(4, 6):
            assert schur_via_tableaux(m) == schur_via_bialternant(m), m

    def test_the_cell_limit(self):
        # (501, 0) has one row of 500 cells: sigma is h_500(x0, x1)
        top = MAX_TABLEAU_CELLS
        assert schur_via_tableaux((top + 1, 0)) == MultiPoly(
            2, {(k, top - k): 1 for k in range(top + 1)})
        with pytest.raises(ValueError, match="diagram of 501 cells, more than 500"):
            schur_via_tableaux((top + 2, 0))
        with pytest.raises(ValueError, match="diagram of 999 cells"):
            schur_via_tableaux((1000, 0))

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            schur_via_tableaux((1, 1))
        with pytest.raises(ValueError):
            schur_via_bialternant((0, 1))

    def test_coefficients_positive_integers(self):
        for m in ((4, 2, 0), (5, 3, 1), (6, 2, 1, 0)):
            for c in schur_via_tableaux(m).terms.values():
                assert c.denominator == 1 and c > 0


class TestSymmetry:
    def test_invariant_under_transpositions(self):
        for m in ((3, 1, 0), (4, 2, 1), (5, 3, 2, 0)):
            sigma = schur_via_tableaux(m)
            n = len(m)
            for i in range(n):
                for j in range(i + 1, n):
                    perm = list(range(n))
                    perm[i], perm[j] = perm[j], perm[i]
                    assert sigma.merge_variables(perm, n) == sigma

    def test_specialization_counts_fillings(self):
        # sigma_m(1, ..., 1) is Weyl's dimension prod_{i<j} (m_i - m_j) / (j - i)
        for m in decreasing_sequences(3, 5):
            sigma = schur_via_tableaux(m)
            dim = F(prod(m[i] - m[j] for i, j in combinations(range(len(m)), 2)),
                    prod(j - i for i, j in combinations(range(len(m)), 2)))
            assert sigma.evaluate((1,) * len(m)) == dim


class TestVandermonde:
    def test_alternant_identity(self):
        # sigma_m * vandermonde == alternant determinant, re-multiplied
        for m in ((3, 1, 0), (4, 2, 0)):
            n = len(m)
            prod = schur_via_tableaux(m) * vandermonde_poly(n)
            from curvehull.multipoly import poly_det
            rows = [[MultiPoly.monomial(n, tuple(mj if k == i else 0 for k in range(n)))
                     for mj in m] for i in range(n)]
            assert prod == poly_det(rows)


def check_witness(report, proper):
    for beta, alpha in report.witness.items():
        assert all(a <= b for a, b in zip(alpha, beta))
        if proper:
            assert alpha != beta


class TestDominance:
    def test_trivial_base(self):
        r = proper_dominance_check((2, 1, 0), (3, 1, 0))
        assert r.ok and set(r.witness.values()) == {(0, 0, 0)}

    def test_one_step(self):
        r = proper_dominance_check((3, 1, 0), (4, 1, 0))
        assert r.ok
        check_witness(r, proper=True)
        assert set(r.witness) == set(schur_via_tableaux((4, 1, 0)).monomials())

    def test_elementary_step(self):
        r = proper_dominance_check((5, 4, 3, 2, 0), (5, 4, 3, 2, 1))
        assert r.ok
        check_witness(r, proper=True)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            proper_dominance_check((3, 1, 0), (3, 1, 0))
        with pytest.raises(ValueError):
            proper_dominance_check((3, 1, 0), (2, 1, 0))
        with pytest.raises(ValueError):
            proper_dominance_check((3, 1, 0), (4, 1))

    def test_exhaustive_small(self):
        seqs = list(decreasing_sequences(3, 5))
        for a in seqs:
            for b in seqs:
                if len(a) == len(b) and a != b and all(x <= y for x, y in zip(a, b)):
                    r = proper_dominance_check(a, b)
                    assert r.ok, (a, b, r.failures)
                    check_witness(r, proper=True)


class TestSubsequence:
    def test_identity_subsequence(self):
        r = subsequence_divisibility_check((2, 1, 0), (0, 1, 2))
        assert r.ok

    def test_drop_last(self):
        r = subsequence_divisibility_check((5, 4, 3, 2, 0), (0, 1, 2, 3))
        assert r.ok
        check_witness(r, proper=False)

    def test_skip_middle(self):
        r = subsequence_divisibility_check((3, 1, 0), (0, 2))
        assert r.ok
        check_witness(r, proper=False)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            subsequence_divisibility_check((3, 1, 0), (2, 0))
        with pytest.raises(ValueError):
            subsequence_divisibility_check((3, 1, 0), (0, 5))
        with pytest.raises(ValueError):
            subsequence_divisibility_check((3, 1, 0), ())

    def test_indices_are_not_truncated(self):
        for idx in ((0.5, 1.7), (0, 1.0), (False, True), (0, F(2))):
            with pytest.raises(ValueError, match="indices must be integers"):
                subsequence_divisibility_check((3, 2, 0), idx)

    def test_the_generators_are_the_substituted_monomials(self, monkeypatch):
        """For every (a, indices) of `verify-schur --max-n 4 --max-entry 8`,
        the generators scanned are the monomials of sigma_a at
        x_{r+1} = ... = x_n = 1, r + 1 the length of the subsequence."""
        def substituted(p, keep):
            sums = {}  # terms collected by their cut exponent, zero sums dropped
            for e, c in p.terms.items():
                sums[e[:keep]] = sums.get(e[:keep], 0) + c
            return {e for e, c in sums.items() if c}

        scanned = []
        scan = schur._scan
        monkeypatch.setattr(schur, "_scan", lambda targets, generators, proper: (
            scanned.append(set(generators)) or scan(targets, generators, proper)))
        cases = 0
        for a in decreasing_sequences(5, 8):
            oracle = {}
            for r in range(1, len(a) + 1):
                for idx in combinations(range(len(a)), r):
                    cases += 1
                    assert subsequence_divisibility_check(a, idx).ok
                    if r not in oracle:
                        oracle[r] = substituted(schur_via_tableaux(a), r)
                    assert scanned.pop() == oracle[r], (a, idx)
        assert cases == 6501

    def test_exhaustive_small(self):
        for a in decreasing_sequences(3, 5):
            for r in range(1, len(a) + 1):
                for idx in combinations(range(len(a)), r):
                    rep = subsequence_divisibility_check(a, idx)
                    assert rep.ok, (a, idx, rep.failures)
                    check_witness(rep, proper=False)
