"""Sparse multivariate polynomials over exact rationals.

A polynomial's one state is its integer form, `integer_form()`: nonzero
int numerators by exponent tuple over their least positive common
denominator.  Its arithmetic, substitutions and kernels run on the
numerators, and the Fraction coefficients `terms` are computed on each
read.  The arity is fixed per instance.  Two kernels carry the determinant
identities:

* `MultiPoly.exact_divide(i, j)` divides by t_i - t_j synthetically
  (additions on the integer form) and so decides divisibility, so
  `diagonal.divide_diagonals`, which divides a diagonal product
  prod (t_i - t_j)^k one binomial at a time, makes no Fraction.
* `poly_det` expands det(D * C) for a wide polynomial D and a rational C by
  Cauchy-Binet, reading every maximal minor of D off one column-subset
  recursion and each one of C off its int rows, the columns of C cleared by
  their lcms once; a square determinant is det(D * I).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add

from .linalg import det_frac
from .unipoly import UniPoly, _Poly, _over_lcm, _positive_int, _q, _render_terms


def _slot(i, arity: int) -> int:
    if type(i) is not int or not 0 <= i < arity:
        raise ValueError(f"variable index {i!r} is outside 0..{arity - 1}")
    return i


def _collect(pairs) -> dict:
    """The (exponent, int) pairs summed by exponent, zero sums dropped."""
    out = {}
    for e, v in pairs:
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


class MultiPoly(_Poly):
    """Multivariate polynomial in variables t_0, ..., t_{arity-1}.

    Instances are immutable.  `integer_form()` is (nums, den): nums maps
    exponent tuples to nonzero int numerators over den, the least positive
    common denominator; `terms` is the map of each exponent e to the
    Fraction nums[e] / den.  The public constructor checks its input, drops
    zero coefficients and clears the denominators by their lcm; the kernels
    build their results by `_trusted`.
    """

    __slots__ = ("arity", "_ints")

    def __init__(self, arity: int, terms=None):
        object.__setattr__(self, "arity", _positive_int(arity, "arity"))
        clean = {}
        for exp, c in (terms or {}).items():
            c = _q(c)
            if c == 0:
                continue
            exp = tuple(exp)
            if len(exp) != arity or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for arity {arity}")
            clean[exp] = c
        nums, den = _over_lcm(list(clean.values()))
        object.__setattr__(self, "_ints", (dict(zip(clean, nums)), den))

    @classmethod
    def _trusted(cls, arity: int, nums: dict, den: int) -> "MultiPoly":
        """Constructor for the kernels: nums maps valid exponent tuples to
        nonzero ints over the positive int den, with no checks but one
        division by gcd(den, *nums.values())."""
        g = gcd(den, *nums.values())
        if g > 1:
            nums, den = {e: v // g for e, v in nums.items()}, den // g
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_ints", (nums, den))
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, c) -> "MultiPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity: int, i: int) -> "MultiPoly":
        exp = [0] * _positive_int(arity, "arity")
        exp[_slot(i, arity)] = 1
        return cls._trusted(arity, {tuple(exp): 1}, 1)

    @classmethod
    def monomial(cls, arity: int, exp, c=1) -> "MultiPoly":
        return cls(arity, {tuple(exp): c})

    @classmethod
    def inject(cls, p: UniPoly, arity: int, slot: int) -> "MultiPoly":
        """The univariate p placed on variable t_slot."""
        _slot(slot, _positive_int(arity, "arity"))
        nums, den = p.integer_form()
        terms = {}
        for k, v in enumerate(nums):
            if v:
                exp = [0] * arity
                exp[slot] = k
                terms[tuple(exp)] = v
        return cls._trusted(arity, terms, den)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Exponent tuple -> nonzero Fraction coefficient."""
        nums, den = self._ints
        return {e: Fraction(v, den) for e, v in nums.items()}

    def monomials(self):
        return self.integer_form()[0].keys()

    def coeff(self, exp) -> Fraction:
        exp = tuple(exp)
        if len(exp) != self.arity:
            raise ValueError(f"exponent {exp} does not have arity {self.arity}")
        nums, den = self._ints
        return Fraction(nums.get(exp, 0), den)

    def _key(self, frozen=False):
        nums, den = self._ints
        return self.arity, frozenset(nums.items()) if frozen else nums, den

    def _constant(self):
        origin = (0,) * self.arity
        return self.coeff(origin) if self._ints[0].keys() <= {origin} else None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            nums = {(0,) * self.arity: c.numerator} if c else {}
            return MultiPoly._trusted(self.arity, nums, c.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = self.integer_form(), o.integer_form()
        den = da if da == db else lcm(da, db)
        sa, sb = den // da, den // db
        out = _collect(chain(((e, v * sa) for e, v in a.items()),
                             ((e, v * sb) for e, v in b.items())))
        return MultiPoly._trusted(self.arity, out, den)

    def __neg__(self):
        nums, den = self.integer_form()
        return MultiPoly._trusted(self.arity, {e: -v for e, v in nums.items()}, den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = self.integer_form(), o.integer_form()
        out = _collect((tuple(map(add, e1, e2)), c1 * c2)
                       for e1, c1 in a.items() for e2, c2 in b.items())
        return MultiPoly._trusted(self.arity, out, da * db)

    # -- substitution --------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        point = [_q(x) for x in point]
        if len(point) != self.arity:
            raise ValueError("point dimension mismatch")
        nums, den = self.integer_form()
        return Fraction(sum(v * prod(x ** e for x, e in zip(point, exp) if e)
                            for exp, v in nums.items()), den)

    def merge_variables(self, target: list, new_arity: int) -> "MultiPoly":
        """Map variable i to variable target[i], adding exponents (the block
        collapse map: exponents of merged variables accumulate)."""
        _positive_int(new_arity, "new_arity")
        if len(target) != self.arity:
            raise ValueError("target map must cover every variable")
        for i in target:
            _slot(i, new_arity)

        def merged(exp):
            e = [0] * new_arity
            for i, k in zip(target, exp):
                e[i] += k
            return tuple(e)

        nums, den = self.integer_form()
        return MultiPoly._trusted(new_arity, _collect((merged(e), v) for e, v in nums.items()), den)

    # -- division ------------------------------------------------------------

    def exact_divide(self, i: int, j: int):
        """Exact quotient of self by t_i - t_j, or None when self is not a
        multiple of it; slots outside 0..arity-1, or i == j, raise
        ValueError.

        Synthetic division on the integer form nums / den of self.  Group
        the terms by the exponents of the other variables and by
        d = e_i + e_j; in each group the quotient numerator of
        t_i^(k-1) t_j^(d-k) is the suffix sum c_d + ... + c_k of the group's
        numerators, and the group leaves a zero remainder iff its numerators
        sum to zero.  Additions only: t_i - t_j has unit coefficients, so the
        quotient numerators are over the same den.
        """
        if _slot(i, self.arity) == _slot(j, self.arity):
            raise ValueError(f"exact_divide needs two different slots, got {i} and {j}")
        nums, den = self.integer_form()
        groups = {}
        for exp, c in nums.items():
            e = list(exp)
            k = e[i]
            e[j] += k
            e[i] = 0
            key = tuple(e)
            group = groups.get(key)
            if group is None:
                groups[key] = {k: c}
            else:
                group[k] = c
        quot = {}
        while groups:  # popped, so the groups are freed as the quotient grows
            key, coeffs = groups.popitem()
            e = list(key)
            d = e[j]
            s = 0
            for k in range(max(coeffs), -1, -1):
                c = coeffs.get(k)
                if c is not None:
                    s += c
                if k and s:
                    e[i] = k - 1
                    e[j] = d - k
                    quot[tuple(e)] = s
            if s:  # the group's remainder: its coefficients must sum to zero
                return None
        return MultiPoly._trusted(self.arity, quot, den)

    # -- printing --------------------------------------------------------------

    def to_string(self, var: str = "t") -> str:
        def mono(exp):
            return "*".join(f"{var}{i}" if e == 1 else f"{var}{i}^{e}"
                            for i, e in enumerate(exp) if e)
        terms = self.terms
        keys = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        return _render_terms((terms[e], mono(e)) for e in keys)


def poly_det(rows, right=None) -> MultiPoly:
    """Determinant of rows, or of the product rows * right.

    Column-subset dynamic programming on integer term dicts: after row i every
    state maps a set S of i + 1 columns to the minor of rows 0..i on the
    columns S, so the work is O(2^K K) polynomial products for K columns,
    much less than the Leibniz sum for the matrix sizes used here.

    * right None: rows is a square matrix of MultiPoly entries, and its
      determinant is det(rows * I) by the same route.
    * right a K x N matrix of rationals: rows is N x K of MultiPoly entries
      (K >= N), the final states are every maximal minor det(rows[:, S]), and
      Cauchy-Binet gives det(rows * right) = sum over S of
      det(rows[:, S]) * det(right[S, :]).  Each column of right is cleared
      to ints once, so every minor det(right[S, :]) is one det_frac of int
      rows, an int over the product of the column denominators.
      Columns whose row of right is zero take part in no nonzero term and
      are skipped.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows of unequal length")
    if right is None:
        if width != n:
            raise ValueError("matrix is not square")
        right = [[int(r == c) for c in range(n)] for r in range(n)]
    if len(right) != width or any(len(r) != n for r in right):
        raise ValueError("right factor must be columns x rows")
    columns = [s for s in range(width) if any(right[s])]
    arity = rows[0][0].arity
    if any(e.arity != arity for row in rows for e in row):
        raise ValueError("entries of unequal arity")
    states = {0: {(0,) * arity: 1}}
    den = 1
    for i, row in enumerate(rows):
        # each row on int numerators over the lcm of its denominators: int
        # products are much cheaper than Fraction products in the inner loop,
        # and the minors are int polynomials over the product den
        forms = [(1 << j, row[j].integer_form()) for j in columns]
        row_den = lcm(*(d for _, (_, d) in forms))
        den *= row_den
        entries = [(bit, [(e, v * (row_den // d)) for e, v in nums.items()])
                   for bit, (nums, d) in forms if nums]
        nxt = {}
        for mask, val in states.items():
            for bit, eterms in entries:
                if mask & bit:
                    continue
                negate = (i + (mask & (bit - 1)).bit_count()) & 1
                acc = nxt.setdefault(mask | bit, {})
                for e2, c2 in eterms:
                    if negate:
                        c2 = -c2
                    for e1, c1 in val.items():
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        states = {}
        for mask, acc in nxt.items():
            clean = {e: c for e, c in acc.items() if c}
            if clean:
                states[mask] = clean
        if not states:  # det is zero
            break
    cols = [_over_lcm([_q(r[c]) for r in right]) for c in range(n)]
    right_den = prod(d for _, d in cols)
    right = list(zip(*(ints for ints, _ in cols)))
    out = {}
    while states:  # popped, so the minors are freed as the sum grows
        mask, minor = states.popitem()
        scale = det_frac([r for s, r in enumerate(right) if mask >> s & 1]).numerator
        if scale:
            for e, c in minor.items():
                out[e] = out.get(e, 0) + scale * c
    return MultiPoly._trusted(arity, {e: v for e, v in out.items() if v}, den * right_den)
