import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvehull.linalg import (_bareiss_pivot, _symmetric_pivots, det_frac, nullspace_frac,
                              psd_check_exact, solve_frac)
from curvehull.unipoly import UniPoly, _over_lcm


def sym(rows):
    """Square symmetric rows as a tuple of Fraction tuples."""
    rows = tuple(tuple(F(x) for x in r) for r in rows)
    assert all(len(r) == len(rows) for r in rows)
    assert all(x == rows[j][i] for i, r in enumerate(rows) for j, x in enumerate(r))
    return rows


def scale(a, c):
    return tuple(tuple(c * x for x in r) for r in a)


def rand_sym(rng, d):
    entries = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            entries[i][j] = entries[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return sym(entries)


def leading_principal_minors(a):
    """The d leading principal minors of a, exactly."""
    return [det_frac([r[: k + 1] for r in a[: k + 1]]) for k in range(len(a))]


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


def char_poly_oracle(a):
    """Independent route: expand det(lambda*I - A) as a univariate polynomial
    by the permutation sum."""
    d = len(a)
    lam = UniPoly.t()
    entries = [[(lam if i == j else UniPoly.zero()) - UniPoly.constant(a[i][j])
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


def psd_by_char_poly_oracle(a) -> bool:
    """A real symmetric matrix has a real-rooted characteristic polynomial
    lambda^d + c_{d-1} lambda^{d-1} + ... + c_0; all roots are >= 0 iff
    (-1)^(d-k) c_k >= 0 for every k."""
    c = char_poly_oracle(a)
    return all((-1) ** (len(a) - k) * c[k] >= 0 for k in range(len(a)))


def psd_inputs(a):
    """The forms psd_check_exact takes for a: its rows as tuples and as lists
    of Fractions, and cleared to integers by a positive lcm."""
    d = len(a)
    ints, _ = _over_lcm([x for r in a for x in r])
    return a, [list(r) for r in a], [list(ints[i * d:(i + 1) * d]) for i in range(d)]


def assert_psd_matches_oracle(a):
    expected = psd_by_char_poly_oracle(a)
    for form in psd_inputs(a):
        assert psd_check_exact(form) == expected, form


class TestPsd:
    def test_matches_char_poly_sign_rule(self):
        rng = random.Random(31)
        for d in (1, 2, 3, 4):
            for _ in range(6):
                assert_psd_matches_oracle(rand_sym(rng, d))

    def test_char_poly_oracle_known_cases(self):
        swap, ones = sym([[0, 1], [1, 0]]), sym([[1, 1], [1, 1]])
        assert char_poly_oracle(swap) == (F(-1), F(0), F(1))
        assert char_poly_oracle(ones) == (F(0), F(-2), F(1))
        assert not psd_by_char_poly_oracle(swap)
        assert psd_by_char_poly_oracle(ones)
        assert_psd_matches_oracle(swap)
        assert_psd_matches_oracle(ones)

    def test_identity(self):
        assert psd_check_exact(sym([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_indefinite(self):
        assert not psd_check_exact(sym([[0, 1], [1, 0]]))

    def test_rank_one_gram(self):
        assert psd_check_exact(sym([[1, 1], [1, 1]]))

    def test_gram_matrices_are_psd(self):
        rng = random.Random(41)
        for d in (2, 3):
            for _ in range(10):
                g = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
                gram = [[sum(g[k][i] * g[k][j] for k in range(d)) for j in range(d)]
                        for i in range(d)]
                assert psd_check_exact(sym(gram))

    @pytest.mark.parametrize("rows", [[[0.5]], [[1, 0.25], [0.25, 1]]])
    def test_float_entries_are_refused(self, rows):
        with pytest.raises(TypeError, match="a float is not an exact rational"):
            psd_check_exact(rows)

    def test_negative_shift_fails(self):
        assert not psd_check_exact(sym([[1, 0], [0, -F(1, 10 ** 9)]]))
        assert psd_check_exact(sym([[1, 0], [0, 0]]))

    def test_minor_probe_consistency(self):
        # probe: PSD implies all leading principal minors of A + eps*I positive;
        # a failing minor test implies not PSD.  The exact test is authoritative.
        rng = random.Random(59)
        eps = F(1, 10 ** 6)
        for d in (2, 3):
            for _ in range(25):
                a = rand_sym(rng, d)
                shifted = sym([[x + eps * (i == j) for j, x in enumerate(r)]
                                     for i, r in enumerate(a)])
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
        with pytest.raises(ValueError, match=r"not symmetric at \(1,0\)"):
            psd_check_exact([[1, 2], [3, 4]])


# -- the fraction-free symmetric elimination kernel against independent oracles --


def psd_ldl_oracle(a) -> bool:
    """Symmetric pivoted LDL^T over Q.  A negative diagonal entry refutes
    PSD; a positive one is eliminated by its Schur complement; with an
    all-zero diagonal a PSD matrix must be zero."""
    m = [list(r) for r in a]
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
    return sym(rows)


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
    return sym(gram)


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(sym_matrices(), psd_candidates()))
    @example(sym([[F(7, 999999)]]))
    @example(sym([[F(-1, 10 ** 6)]]))
    @example(sym([[0]]))
    @example(sym([[0, 0], [0, 0]]))
    @example(sym([[0] * 3] * 3))
    @example(sym([[0, 1], [1, 0]]))
    @example(sym([[1, 1, 1], [1, 1, 0], [1, 0, 1]]))  # zero diagonal left
    def test_psd_matches_char_poly_sign_rule(self, a):
        assert_psd_matches_oracle(a)

    @settings(max_examples=300, deadline=None)
    @given(psd_candidates())
    @example(sym([[0, 0], [0, 0]]))
    @example(sym([[F(-1, 10 ** 6)]]))
    def test_psd_matches_pivoted_ldl(self, a):
        assert psd_check_exact(a) == psd_ldl_oracle(a)

    @settings(max_examples=200, deadline=None)
    @given(psd_candidates())
    @example(sym([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
    def test_pivots_are_principal_minors(self, a):
        # a PSD matrix has one pivot per unit of rank; a positive definite one
        # pivots in index order, so pivot k is its k-th leading principal minor
        m = psd_inputs(a)[2]
        pivots = _symmetric_pivots(m)
        assert (pivots is not None) == psd_by_char_poly_oracle(a)
        if pivots is not None:
            assert len(pivots) == rank_oracle(m)
            if len(pivots) == len(a):
                assert pivots == leading_principal_minors(sym(m))

    def test_psd_of_a_scaled_matrix(self):
        # det(lambda I - A/L) = sum_k c_k L^(k-d) lambda^k for c the
        # characteristic polynomial of A; PSD survives positive scaling only
        a = sym([[2, 3, 0], [3, -1, 5], [0, 5, 4]])
        scaled = scale(a, F(1, 10 ** 6))
        assert char_poly_oracle(scaled) == tuple(
            c * F(1, 10 ** 6) ** (3 - k) for k, c in enumerate(char_poly_oracle(a)))
        gram = sym([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        for m in (a, gram):
            for c in (F(1, 10 ** 6), F(-1, 10 ** 6)):
                assert_psd_matches_oracle(scale(m, c))
        assert psd_check_exact(scale(gram, F(1, 10 ** 6)))
        assert not psd_check_exact(scale(gram, F(-1, 10 ** 6)))

    @settings(max_examples=100, deadline=None)
    @given(sym_matrices(), st.data())
    def test_rows_must_be_square_and_symmetric(self, a, data):
        rows = [list(r) for r in a]
        ragged = [r[:-1] if i == len(rows) - 1 else r for i, r in enumerate(rows)]
        bad = [[r[:-1] for r in rows], ragged, rows + [rows[-1]]]
        if len(a) > 1:
            bad.append(rows[:-1])
            i = data.draw(st.integers(1, len(a) - 1))
            j = data.draw(st.integers(0, i - 1))
            asymmetric = [list(r) for r in rows]
            asymmetric[i][j] += data.draw(wide_rationals.filter(bool))
            bad.append(asymmetric)
            ints = psd_inputs(sym(rows))[2]
            ints[j][i] -= 1
            bad.append(ints)
        for m in bad:
            with pytest.raises(ValueError, match="not square|not symmetric"):
                psd_check_exact(m)


# -- the fraction-free elimination kernel against the Fraction loops it replaced --


def det_oracle(rows) -> F:
    """Determinant by Fraction Gaussian elimination."""
    a = [[F(x) for x in r] for r in rows]
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
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def rref_oracle(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan, and its pivots."""
    a = [[F(x) for x in r] for r in rows]
    if not a:
        return a, []
    pivots = []
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = 1 / a[r][c]
        a[r] = [x * scale for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def nullspace_oracle(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = rref_oracle(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def solve_oracle(rows, rhs):
    if not rows:
        return () if not any(rhs) else None
    ncols = len(rows[0])
    rref, pivots = rref_oracle([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][-1]
    return tuple(x)


small_rationals = st.integers(-3, 3).map(F)
# plain ints, the rows elimination takes as they are: small ones, ones beyond
# the shared small Fractions (+-16) and ones beyond 2^64
plain_ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-2 ** 80, 2 ** 80))


@st.composite
def dense_matrices(draw, square=False):
    """Matrices from 0 x 0 to 8 x 9 of small integers (many zeros, so many
    row swaps), wide rationals (denominators up to 10^6) or plain ints; some
    rows are then zeroed, duplicated or replaced by a combination of earlier
    rows, with int coefficients in an int matrix."""
    m = draw(st.integers(0, 8))
    n = m if square else draw(st.integers(0, 9))
    entries = draw(st.sampled_from((small_rationals, wide_rationals, plain_ints)))
    ints = entries is plain_ints
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "duplicate", "combination")))
        a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        if kind == "zero":
            rows[i] = [0 if ints else F(0)] * n
        elif kind == "duplicate":
            rows[i] = list(rows[a])
        elif kind == "combination":
            c = draw(plain_ints if ints else wide_rationals)
            rows[i] = [c * x + y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def dense_systems(draw):
    """(rows, rhs): rhs is random (often inconsistent when rows are rank
    deficient) or rows times a random x (always consistent); ints when the
    rows are."""
    rows = draw(dense_matrices())
    if all(type(x) is int for r in rows for x in r):
        entries = plain_ints
    else:
        entries = st.one_of(small_rationals, wide_rationals)
    if draw(st.booleans()):
        return rows, [draw(entries) for _ in rows]
    x = [draw(entries) for _ in range(len(rows[0]) if rows else 0)]
    return rows, [sum((a * b for a, b in zip(r, x)), 0) for r in rows]


class TestEliminationKernel:
    @settings(max_examples=200, deadline=None)
    @given(dense_matrices(square=True))
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    @example([[F(1, 10 ** 6), 2], [3, F(-7, 999999)]])
    def test_det_matches_fraction_elimination(self, rows):
        assert det_frac(rows) == det_oracle(rows)

    @settings(max_examples=200, deadline=None)
    @given(dense_matrices())
    @example([[0, 0, 1, 2], [0, 2, 4, 6], [0, 1, 2, 3]])
    def test_nullspace_matches_fraction_rref(self, rows):
        assert nullspace_frac(rows) == nullspace_oracle(rows)

    @settings(max_examples=200, deadline=None)
    @given(dense_systems())
    @example(([[1, 1], [1, 1]], [0, 1]))
    @example(([[0, 2], [1, 0]], [4, F(1, 3)]))
    def test_solve_matches_fraction_rref(self, system):
        rows, rhs = system
        assert solve_frac(rows, rhs) == solve_oracle(rows, rhs)

    def test_empty_and_non_square(self):
        assert det_frac([]) == 1
        assert nullspace_frac([]) == []
        assert nullspace_frac([[], []]) == []
        assert solve_frac([[], []], [0, 0]) == ()
        assert solve_frac([[], []], [0, 1]) is None
        for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="not square"):
                det_frac(rows)
        # ragged rows and a right-hand side of another length are refused,
        # not truncated or read past
        for rows in ([[1, 2], [3]], [[1], [F(1, 2), 3]], [[], [1]]):
            with pytest.raises(ValueError, match="unequal length"):
                nullspace_frac(rows)
            with pytest.raises(ValueError, match="unequal length"):
                solve_frac(rows, [1, 2])
        for rows, rhs in (([[1], [1]], [1]), ([[1, 2]], [1, 2]), ([], [0])):
            with pytest.raises(ValueError, match="differ in length"):
                solve_frac(rows, rhs)

    def test_forward_pivot_leaves_the_rows_above(self):
        tab = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
        den = _bareiss_pivot(tab, 1, 0, 0, first=1)
        assert (den, tab) == (2, [[2, 1, 0], [0, 5, 2], [0, 2, 4]])
        den = _bareiss_pivot(tab, den, 1, 1, first=2)
        assert (den, tab) == (5, [[2, 1, 0], [0, 5, 2], [0, 0, 8]])
        assert det_frac([[2, 1, 0], [1, 3, 1], [0, 1, 2]]) == 8
