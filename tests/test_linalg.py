import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvehull.linalg import (SymMatrix, char_poly, det_frac, nullspace_frac,
                              psd_check_exact, solve_frac)
from curvehull.unipoly import UniPoly


def rand_sym(rng, d):
    entries = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            entries[i][j] = entries[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return SymMatrix(entries)


def leading_principal_minors(a: SymMatrix):
    """The d leading principal minors of a, exactly."""
    return [det_frac([r[: k + 1] for r in a.rows[: k + 1]]) for k in range(a.dim)]


def rank_oracle(rows) -> int:
    """Rank by Fraction row echelon form: the number of pivot columns."""
    a = [[F(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def char_poly_oracle(a: SymMatrix):
    """Independent route: expand det(lambda*I - A) as a univariate polynomial
    by the permutation sum."""
    d = a.dim
    lam = UniPoly.t()
    entries = [[(lam if i == j else UniPoly.zero()) - UniPoly.constant(a.rows[i][j])
                for j in range(d)] for i in range(d)]
    total = UniPoly.zero()
    for perm in permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = UniPoly.constant(sign)
        for i in range(d):
            term = term * entries[i][perm[i]]
        total = total + term
    return tuple(total.coeff(k) for k in range(d + 1))


class TestCharPoly:
    def test_matches_oracle(self):
        rng = random.Random(31)
        for d in (1, 2, 3, 4):
            for _ in range(6):
                a = rand_sym(rng, d)
                assert char_poly(a) == char_poly_oracle(a)

    def test_known_cases(self):
        assert char_poly(SymMatrix([[0, 1], [1, 0]])) == (F(-1), F(0), F(1))
        assert char_poly(SymMatrix([[1, 1], [1, 1]])) == (F(0), F(-2), F(1))


class TestPsd:
    def test_identity(self):
        assert psd_check_exact(SymMatrix.identity(3))

    def test_indefinite(self):
        assert not psd_check_exact(SymMatrix([[0, 1], [1, 0]]))

    def test_rank_one_gram(self):
        assert psd_check_exact(SymMatrix([[1, 1], [1, 1]]))

    def test_gram_matrices_are_psd(self):
        rng = random.Random(41)
        for d in (2, 3):
            for _ in range(10):
                g = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
                gram = [[sum(g[k][i] * g[k][j] for k in range(d)) for j in range(d)]
                        for i in range(d)]
                assert psd_check_exact(SymMatrix(gram))

    def test_negative_shift_fails(self):
        assert not psd_check_exact(SymMatrix([[1, 0], [0, -F(1, 10 ** 9)]]))
        assert psd_check_exact(SymMatrix([[1, 0], [0, 0]]))

    def test_minor_probe_consistency(self):
        # probe: PSD implies all leading principal minors of A + eps*I positive;
        # a failing minor test implies not PSD.  The exact test is authoritative.
        rng = random.Random(59)
        eps = F(1, 10 ** 6)
        for d in (2, 3):
            for _ in range(25):
                a = rand_sym(rng, d)
                shifted = a + SymMatrix.identity(d).scale(eps)
                minors_ok = all(m > 0 for m in leading_principal_minors(shifted))
                if psd_check_exact(a):
                    assert minors_ok
                if not minors_ok:
                    assert not psd_check_exact(a)


class TestDense:
    def test_det_matches_cofactor(self):
        rng = random.Random(71)
        for _ in range(10):
            rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
                    for _ in range(3)]
            expected = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
            assert det_frac(rows) == expected

    def test_nullspace_annihilates(self):
        rng = random.Random(73)
        for _ in range(10):
            rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
            for v in nullspace_frac(rows):
                assert all(sum(r[i] * v[i] for i in range(5)) == 0 for r in rows)
            assert rank_oracle(rows) + len(nullspace_frac(rows)) == 5

    def test_solve(self):
        rows = [[1, 2], [3, 4]]
        x = solve_frac(rows, [5, 6])
        assert x is not None
        assert [sum(F(r[i]) * x[i] for i in range(2)) for r in rows] == [5, 6]
        assert solve_frac([[1, 1], [1, 1]], [0, 1]) is None

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SymMatrix([[1, 2], [3, 4]])


# -- the integer Faddeev-LeVerrier kernel against independent oracles ------------


def psd_ldl_oracle(a: SymMatrix) -> bool:
    """Independent route: symmetric pivoted LDL^T over Q.  A negative
    diagonal entry refutes PSD; a positive one is eliminated by its Schur
    complement; with an all-zero diagonal a PSD matrix must be zero."""
    m = [list(r) for r in a.rows]
    while m:
        diag = [m[i][i] for i in range(len(m))]
        if any(x < 0 for x in diag):
            return False
        p = next((i for i, x in enumerate(diag) if x > 0), None)
        if p is None:
            return all(x == 0 for r in m for x in r)
        rest = [i for i in range(len(m)) if i != p]
        m = [[m[i][j] - m[i][p] * m[p][j] / m[p][p] for j in rest] for i in rest]
    return True


wide_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)


@st.composite
def sym_matrices(draw, max_dim=4, entries=wide_rationals):
    d = draw(st.integers(1, max_dim))
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = draw(entries)
    return SymMatrix(rows)


@st.composite
def psd_candidates(draw):
    """Random symmetric matrices, Gram matrices of any rank (PSD), and Gram
    matrices with one diagonal entry lowered by 1/10^k (mostly not PSD)."""
    kind = draw(st.sampled_from(("random", "gram", "lowered")))
    if kind == "random":
        return draw(sym_matrices(max_dim=5))
    d = draw(st.integers(1, 5))
    rank = draw(st.integers(1, d))
    small = st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 3)
    g = [[draw(small) for _ in range(d)] for _ in range(rank)]
    gram = [[sum(g[k][i] * g[k][j] for k in range(rank)) for j in range(d)]
            for i in range(d)]
    if kind == "lowered":
        i = draw(st.integers(0, d - 1))
        gram[i][i] -= F(1, 10 ** draw(st.integers(1, 30)))
    return SymMatrix(gram)


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(sym_matrices())
    @example(SymMatrix([[F(7, 999999)]]))
    @example(SymMatrix.zeros(1))
    @example(SymMatrix.zeros(3))
    def test_char_poly_matches_the_permutation_sum(self, a):
        assert char_poly(a) == char_poly_oracle(a)

    @settings(max_examples=300, deadline=None)
    @given(psd_candidates())
    @example(SymMatrix.zeros(2))
    @example(SymMatrix([[F(-1, 10 ** 6)]]))
    def test_psd_matches_pivoted_ldl(self, a):
        assert psd_check_exact(a) == psd_ldl_oracle(a)

    def test_char_poly_of_a_scaled_matrix(self):
        # det(lambda I - A/L) = sum_k c_k L^(k-d) lambda^k for c = char_poly(A)
        a = SymMatrix([[2, 3, 0], [3, -1, 5], [0, 5, 4]])
        scaled = SymMatrix([[x / 10 ** 6 for x in r] for r in a.rows])
        assert char_poly(scaled) == tuple(c * F(1, 10 ** 6) ** (3 - k)
                                          for k, c in enumerate(char_poly(a)))
