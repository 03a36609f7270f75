"""Exact rational linear algebra: semidefiniteness of symmetric rows by
fraction-free symmetric elimination, determinants, nullspaces and solves."""

from __future__ import annotations

from fractions import Fraction

from .unipoly import _over_lcm, _q


def _check_symmetric(rows):
    """Raise ValueError unless rows is a square symmetric matrix (exactly)."""
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix is not square")
    for i in range(d):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"not symmetric at ({i},{j})")


def _symmetric_pivots(m):
    """Fraction-free symmetric elimination of square symmetric integer rows
    m: its positive pivots, or None if m is not PSD.  A negative diagonal
    entry refutes PSD; else the first positive one p is eliminated by
    `_bareiss_pivot`, and its row and column are dropped.  The rest stays
    den > 0 times the Schur complement of the pivots so far, PSD iff m is,
    and each pivot is the principal minor of m on the pivot indices; with no
    positive diagonal entry left, the rest is PSD iff it is zero."""
    pivots = []
    den = 1
    m = list(m)
    while m:
        p = None
        for i, r in enumerate(m):
            if r[i] < 0:
                return None
            if r[i] and p is None:
                p = i
        if p is None:
            return None if any(map(any, m)) else pivots
        den = _bareiss_pivot(m, den, p, p)
        pivots.append(den)
        m = [r[:p] + r[p + 1:] for i, r in enumerate(m) if i != p]
    return pivots


def psd_check_exact(a) -> bool:
    """Exact PSD test of square symmetric rows of ints or Fractions, checked
    exactly, cleared to integers by their positive lcm and reduced by
    `_symmetric_pivots`: no floating point."""
    _check_symmetric(a)
    if not all(type(x) is int for r in a for x in r):
        d = len(a)
        ints, _ = _over_lcm([_q(x) for r in a for x in r])
        a = [ints[i * d:(i + 1) * d] for i in range(d)]
    return _symmetric_pivots(a) is not None


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

    A row of ints is kept; any other row is scaled to integers by the lcm
    of its denominators, and row_scale is the product of the scales.  In
    each column the first row with a nonzero entry is swapped up (flipping
    sign) and pivoted by `_bareiss_pivot`, Gauss-Jordan or, with forward
    set, forward only.  Returns (tab, den, pivots, sign, row_scale):
    tab[r][c] / den is the reduced row echelon form after Gauss-Jordan; a
    forward pass over a nonsingular matrix leaves its determinant
    sign * den / row_scale.  Ragged rows are refused.
    """
    tab = []
    row_scale = 1
    for r in rows:
        if len(r) != len(rows[0]):
            raise ValueError("rows of unequal length")
        if not all(type(x) is int for x in r):
            r, scale = _over_lcm([_q(x) for x in r])
            row_scale *= scale
        tab.append(r)
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
    if len(rhs) != len(rows):
        raise ValueError("right-hand side and rows differ in length")
    if not rows:
        return ()
    ncols = len(rows[0])
    tab, den, pivots, _, _ = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:  # a pivot in the right-hand side
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(tab[r][-1], den)
    return tuple(x)
