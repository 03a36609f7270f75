"""Exact rational linear algebra: symmetric matrices, characteristic
polynomials, semidefiniteness, determinants and nullspaces."""

from __future__ import annotations

from fractions import Fraction

from .unipoly import _over_lcm, _q


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
    ints, scale = _over_lcm([x for r in a.rows for x in r])
    b = [ints[i * d:(i + 1) * d] for i in range(d)]
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


def _bareiss_pivot(tab, den, leave, enter, first=0):
    """Fraction-free pivot step (Bareiss, Math. Comp. 22, 1968).

    tab holds den times a rational tableau in integers.  Every row from
    index first on, except the pivot row, becomes
    (piv * row - f * pivot_row) // den, an exact division; the pivot row and
    the rows before first stay as they are, and piv is the new denominator.
    first = 0 is a Gauss-Jordan step, first = leave + 1 a forward one.
    """
    prow = tab[leave]
    piv = prow[enter]
    for i in range(first, len(tab)):
        if i != leave:
            row = tab[i]
            f = row[enter]
            tab[i] = [(piv * x - f * y) // den for x, y in zip(row, prow)]
    return piv


def _eliminate(rows, forward=False):
    """Fraction-free row reduction of a rational matrix.

    Each row is scaled to integers by the lcm of its denominators, and
    row_scale is the product of the scales.  In each column the first row
    with a nonzero entry is swapped up (flipping sign) and pivoted by
    `_bareiss_pivot`, Gauss-Jordan or, with forward set, forward only.
    Returns (tab, den, pivots, sign, row_scale): tab[r][c] / den is the
    reduced row echelon form after Gauss-Jordan; a forward pass over a
    nonsingular matrix leaves its determinant sign * den / row_scale.
    """
    tab = []
    row_scale = 1
    for r in rows:
        ints, scale = _over_lcm([_q(x) for x in r])
        tab.append(ints)
        row_scale *= scale
    den, sign, pivots = 1, 1, []
    for c in range(len(tab[0]) if tab else 0):
        top = len(pivots)
        if top == len(tab):
            break
        piv = next((i for i in range(top, len(tab)) if tab[i][c]), None)
        if piv is None:
            continue
        if piv != top:
            tab[top], tab[piv] = tab[piv], tab[top]
            sign = -sign
        den = _bareiss_pivot(tab, den, top, c, top + 1 if forward else 0)
        pivots.append(c)
    return tab, den, pivots, sign, row_scale


def det_frac(rows) -> Fraction:
    """Determinant by fraction-free forward elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    _, den, pivots, sign, row_scale = _eliminate(rows, forward=True)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * den, row_scale)


def nullspace_frac(rows):
    """Basis of the right nullspace of a rational matrix, as tuples."""
    if not rows:
        return []
    ncols = len(rows[0])
    tab, den, pivots, _, _ = _eliminate(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-tab[r][fc], den)
        basis.append(tuple(v))
    return basis


def solve_frac(rows, rhs):
    """One solution x of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return () if not any(_q(b) != 0 for b in rhs) else None
    ncols = len(rows[0])
    tab, den, pivots, _, _ = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:  # a pivot in the right-hand side
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(tab[r][-1], den)
    return tuple(x)
