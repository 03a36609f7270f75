"""Exact rational linear algebra: symmetric matrices, characteristic
polynomials, semidefiniteness, determinants and nullspaces."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .unipoly import _q


class SymMatrix:
    """Symmetric matrix of Fractions; symmetry is checked exactly."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_q(x) for x in r) for r in rows)
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("matrix is not square")
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def zeros(cls, d: int) -> "SymMatrix":
        return cls([[0] * d for _ in range(d)])

    @classmethod
    def identity(cls, d: int) -> "SymMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def __eq__(self, other):
        if isinstance(other, SymMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        if not isinstance(other, SymMatrix) or other.dim != self.dim:
            return NotImplemented
        return SymMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "SymMatrix":
        c = _q(c)
        return SymMatrix([[c * x for x in r] for r in self.rows])

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def __repr__(self):
        return f"SymMatrix({[[str(x) for x in r] for r in self.rows]})"


def _mirror_upper(upper):
    """Rows of the symmetric matrix whose row i from the diagonal on is
    upper[i]."""
    d = len(upper)
    return [[upper[i][j - i] if j >= i else upper[j][i - j] for j in range(d)]
            for i in range(d)]


def _integer_char_poly(a: SymMatrix):
    """Clear the denominators of a with their positive lcm L and run
    Faddeev-LeVerrier over the integers on B = L*A.

    Returns (L, (c'_0, ..., c'_{d-1}, 1)), the characteristic polynomial of B;
    that of A is c'_k / L^(d-k).  M_k = B M_{k-1} + c'_{d-k+1} I is a
    polynomial in B, hence symmetric: only the upper triangle of B M_k is
    multiplied out, and tr(B M_k) is read as the entrywise sum of B * M_k.
    """
    d = a.dim
    scale = lcm(*(x.denominator for r in a.rows for x in r))
    b = [[x.numerator * (scale // x.denominator) for x in r] for r in a.rows]
    coeffs = [0] * d + [1]
    m = [[0] * d for _ in range(d)]  # B M_{k-1}; symmetric, M_0 = 0
    for k in range(1, d + 1):
        ck1 = coeffs[d - k + 1]
        for i in range(d):
            m[i][i] += ck1
        tr = sum(x * y for br, mr in zip(b, m) for x, y in zip(br, mr))
        ck, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by k")
        coeffs[d - k] = ck
        if k < d:
            # column j of the symmetric M_k is its row j
            m = _mirror_upper([[sum(x * y for x, y in zip(br, m[j])) for j in range(i, d)]
                               for i, br in enumerate(b)])
    return scale, coeffs


def char_poly(a: SymMatrix):
    """Coefficients (c_0, ..., c_{d-1}, 1) of det(lambda*I - A), by the
    Faddeev-LeVerrier recurrence (exact, over the integers after clearing
    denominators)."""
    scale, coeffs = _integer_char_poly(a)
    d = a.dim
    return tuple(Fraction(c, scale ** (d - k)) for k, c in enumerate(coeffs))


def psd_check_exact(a: SymMatrix) -> bool:
    """Exact positive-semidefiniteness test.

    A real symmetric matrix has a real-rooted characteristic polynomial
    lambda^d + c_{d-1} lambda^{d-1} + ... + c_0; all roots are >= 0 iff
    (-1)^{d-k} c_k >= 0 for every k.  Handles zero eigenvalues with no case
    analysis (unlike rational Cholesky).  The signs are read from the integer
    coefficients of L*A, which differ from c_k by the positive factor
    L^(d-k).
    """
    _, coeffs = _integer_char_poly(a)
    d = a.dim
    return all((c if (d - k) % 2 == 0 else -c) >= 0 for k, c in enumerate(coeffs[:d]))


# -- dense rational matrices (lists of lists) --------------------------------


def det_frac(rows) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    a = [[_q(x) for x in r] for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
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


def _rref(rows):
    a = [[_q(x) for x in r] for r in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def nullspace_frac(rows):
    """Basis of the right nullspace of a rational matrix, as tuples."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def solve_frac(rows, rhs):
    """One solution x of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return () if not any(_q(b) != 0 for b in rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    rref, pivots = _rref(aug)
    for row in rref:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rref[r][-1]
    return tuple(x)
