"""Extreme rays of cones of polynomials nonnegative on an interval.

A linear system is an (n+1)-dimensional space of univariate polynomials,
normalized so the distinguished base point sits at t = 0 with strictly
decreasing vanishing orders.  Extreme-ray candidates are determinants of
confluent evaluation matrices whose top row is the symbolic basis; one
fraction-free elimination of the evaluation rows gives every cofactor of that
row at once.  Supporting faces, exact zero counts, the nonvanishing sign of
full evaluation determinants, and the sampled interval validation all live
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .diagonal import (BlockPartition, evaluation_matrix, normalize_basis_orders,
                       vandermonde_cofactor)
from .linalg import _eliminate, det_frac, nullspace_frac, solve_frac
from .multipoly import MultiPoly
from .schur import _scan, schur_via_tableaux
from .unipoly import (Interval, UniPoly, _derivative, _horner, _layer_roots, _monic,
                      _positive_int, _q, count_roots_interior, count_roots_with_multiplicity,
                      is_nonnegative_on, poly_gcd, squarefree_decomposition)


@dataclass(frozen=True)
class LinearSystem:
    """Basis of a polynomial space in local coordinates (base point at 0).

    basis[i] vanishes at 0 to order orders[i], the orders strictly decrease,
    the coefficient of t^{orders[i]} in basis[i] is 1, and orders[-1] = 0
    (no base point).  base_point records the original distinguished point;
    every downstream interval and zero location is in local coordinates.
    """

    basis: tuple
    base_point: Fraction
    orders: tuple

    @property
    def n(self) -> int:
        return len(self.basis) - 1

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member_coefficients(self, f: UniPoly):
        """Coordinates of f in the basis, or None if f is outside the span:
        one solve of the coefficient rows, basis and f over one lcm."""
        (*cols, rhs), _ = _common_columns([*self.basis, f])
        return solve_frac(list(zip(*cols)), rhs)


def profile_and_normalize(basis, xi) -> LinearSystem:
    """Translate the basis so xi becomes 0, triangularize to strictly
    decreasing vanishing orders with unit leading Taylor coefficients, and
    strip the common power of t if xi was a base point."""
    xi = _q(xi)
    shifted = [(p if isinstance(p, UniPoly) else UniPoly(p)).shift(xi) for p in basis]
    normalized, orders = normalize_basis_orders(shifted)
    strip = orders[-1]
    if strip > 0:
        tpow = UniPoly.monomial(strip)
        normalized = tuple(p.exact_divide(tpow) for p in normalized)
        orders = tuple(o - strip for o in orders)
    return LinearSystem(basis=normalized, base_point=xi, orders=orders)


@dataclass(frozen=True)
class ZeroPattern:
    """Prescribed interior zeros xi_1 < ... < xi_r with multiplicities.

    Multiplicities need only be positive here; the even-multiplicity setting
    (the one extreme-ray claims are made for) is exposed via all_even.
    """

    points: tuple
    mults: tuple

    def __post_init__(self):
        points = tuple(_q(x) for x in self.points)
        mults = tuple(_positive_int(b, "multiplicity") for b in self.mults)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mults", mults)
        if len(points) != len(mults) or not points:
            raise ValueError("points and multiplicities must pair up")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ValueError("points must be strictly increasing")

    @property
    def total(self) -> int:
        return sum(self.mults)

    @property
    def all_even(self) -> bool:
        return all(b % 2 == 0 for b in self.mults)

    def interior_to(self, s: Interval) -> bool:
        return all(s.strictly_contains(x) for x in self.points)


def _common_columns(polys, width=None):
    """(columns, L): the coefficients of each poly by degree, as ints over L,
    the lcm of their denominators, padded with zeros to width entries
    (default: one past the top degree)."""
    forms = [p.integer_form() for p in polys]
    big = lcm(*(d for _, d in forms))
    width = max(len(nums) for nums, _ in forms) if width is None else width
    return [tuple(c * (big // d) for c in nums) + (0,) * (width - len(nums))
            for nums, d in forms], big


def _derivative_rows(basis, points, mults):
    """(rows, scales): int rows, rows[i][j] / scales[i] = p_j^(k)(x) with k < b,
    for each point x of multiplicity b.  One derivative chain of the basis
    numerators over their lcm L is shared by every point; each entry at
    x = p/q is one `_horner` at d = max(top degree - k, 0), so the row's
    scale is L * q^d > 0."""
    cols, big = _common_columns(basis)
    chain = [cols]
    for _ in range(max(mults, default=0) - 1):
        chain.append([_derivative(nums) for nums in chain[-1]])
    rows, scales = [], []
    for x, b in zip(points, mults):
        for k in range(b):
            d = max(len(cols[0]) - 1 - k, 0)
            rows.append([_horner(nums, x.numerator, x.denominator, d) for nums in chain[k]])
            scales.append(big * x.denominator ** d)
    return rows, scales


def _top_row_cofactors(rows, ncols: int):
    """cof_j = (-1)^j times the minor of the n x (n+1) rows without column j.

    One Gauss-Jordan elimination gives all of them: below rank n every minor
    vanishes; otherwise cof spans the kernel, and at the one free column f it
    is (-1)^f times the minor on the pivot columns, sign * den / row_scale.
    """
    tab, den, pivots, sign, row_scale = _eliminate(rows)
    cof = [Fraction(0)] * ncols
    if len(pivots) == len(rows):
        free = next(c for c in range(ncols) if c not in pivots)
        scale = Fraction((-1) ** free * sign, row_scale)
        cof[free] = scale * den
        for r, c in enumerate(pivots):
            cof[c] = -scale * tab[r][free]
    return cof


def extreme_candidate(system: LinearSystem, pattern: ZeroPattern) -> UniPoly:
    """Determinant of the candidate matrix, sign-normalized.

    The matrix has the basis as its top row over the n derivative-evaluation
    rows of the pattern, so its determinant is sum_j cof_j p_j over the
    cofactors of the top row.

    The result lies in the span of the basis and vanishes to order >= b_i at
    each pattern point; it is the zero polynomial exactly when the prescribed
    zero conditions cut out a space of dimension > 1 (callers must check).
    The sign is normalized so the value at the base point 0 is positive
    (equivalently, when the candidate vanishes at 0, so the lowest Taylor
    coefficient is positive)."""
    if pattern.total != system.n:
        raise ValueError(
            f"pattern prescribes {pattern.total} conditions, need n = {system.n}")
    rows, scales = _derivative_rows(system.basis, pattern.points, pattern.mults)
    cof = _top_row_cofactors(rows, system.dim)
    det = sum((c * p for c, p in zip(cof, system.basis) if c), UniPoly.zero())
    det = det * Fraction(1, prod(scales))
    lowest = next((c for c in det.integer_form()[0] if c), 0)
    return -det if lowest < 0 else det


def zero_conditions_dim(system: LinearSystem, pattern: ZeroPattern) -> int:
    """Dimension of {f in span : ord_{xi_i}(f) >= b_i for every i}: dim
    minus the rank of the derivative-evaluation condition matrix, read off a
    forward elimination."""
    rows, _ = _derivative_rows(system.basis, pattern.points, pattern.mults)
    return system.dim - len(_eliminate(rows, forward=True)[2])


def _sympy_irreducible_factors(p: UniPoly):
    """Irreducible monic factors of squarefree p over Q, each once, from
    sympy's factoring of the integer coefficient list."""
    import sympy  # imported on first use: it dominates the package's import time

    nums, _ = p.integer_form()
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly.from_list(nums[::-1], x, domain="ZZ"))
    return [_monic(tuple(int(c) for c in reversed(fac.all_coeffs()))) for fac, _ in factors]


def _supported_factors(f: UniPoly, s: Interval):
    """Yield (h, mult, whole) for each factor h of f with a root in the
    closed interval s: h is a squarefree layer of f (multiplicity mult) with
    all of its distinct roots in s, or a sympy-irreducible factor of a layer
    with only some of them there; whole is true when all of h's roots lie in
    s.  A Sturm count skips a layer with no roots in s, so only a layer
    partly inside is factored."""
    for q, mult in squarefree_decomposition(f)[1]:
        inside = sum(_layer_roots(q, s.lo, s.hi))
        if inside == q.degree:
            yield q, mult, True
        elif inside:
            for h in _sympy_irreducible_factors(q):
                roots = sum(_layer_roots(h, s.lo, s.hi))
                if roots:
                    yield h, mult, roots == h.degree


def interval_supported_divisor(f: UniPoly, s: Interval) -> UniPoly:
    """The conjugate closure of the part of f whose roots lie in s.

    For each squarefree layer of f (multiplicity i), the irreducible factors
    with at least one root in the closed interval are kept and raised to the
    power i.  Over Q, a vanishing-order condition at one root propagates to
    all of its conjugates, so divisibility by this polynomial captures the
    conditions "at least f's zeros in s" exactly on rational spaces.
    """
    return prod((h ** mult for h, mult, _ in _supported_factors(f, s)), start=UniPoly.one())


def supporting_face_basis(system: LinearSystem, f: UniPoly, s: Interval):
    """Basis of the span of the supporting face of f: all members with at
    least f's zeros in s, multiplicities included.

    Computed as {g in span : d | g} with d the conjugate-closed
    interval-supported divisor of f; the kernel of the remainder-mod-d map
    on basis coordinates gives the face span.
    """
    if f.is_zero:
        raise ValueError("supporting face of the zero polynomial is undefined")
    coords = system.member_coefficients(f)
    if coords is None:
        raise ValueError("f is not in the span of the system")
    d = interval_supported_divisor(f, s)
    if d.degree <= 0:
        return list(system.basis)
    cols, _ = _common_columns([p % d for p in system.basis], d.degree)
    return [sum((c * p for c, p in zip(v, system.basis)), UniPoly.zero()).monic()
            for v in nullspace_frac(list(zip(*cols)))]


@dataclass(frozen=True)
class ExtremeReport:
    """verify_extreme outcome: exact nonnegativity, interior zero count with
    multiplicity, supporting-face dimension, and the extremality verdict
    (None where the rational face cannot decide it)."""

    nonneg: bool
    zero_count: int
    face_dim: int
    extreme: bool | None


def verify_extreme(system: LinearSystem, f: UniPoly, s: Interval) -> ExtremeReport:
    """Exact extremality report for a member f of the system on s.

    extreme means nonnegative with one-dimensional supporting face; an
    extreme member must have at least n zeros in s, endpoints included,
    counted with multiplicity, and on validated intervals with positive
    endpoint values exactly n of them.

    All arithmetic is rational, so face_dim is the dimension of the face
    span inside the space of rational members.  When no irreducible factor
    of f has some but not all of its roots in s (in particular when every
    zero of f in s is rational) this is the real face dimension.  Otherwise
    the real face can be larger, and a one-dimensional rational face is
    checked by the count alone: with fewer than n zeros in s the real face
    has dimension at least n + 1 minus that count, so f is not extreme;
    else Q cannot decide, and extreme is None.
    """
    if f.is_zero:
        raise ValueError("cannot report on the zero polynomial")
    nonneg = is_nonnegative_on(f, s)
    zero_count = count_roots_interior(f, s)
    face_dim = len(supporting_face_basis(system, f, s))
    extreme = nonneg and face_dim == 1
    if extreme and not all(whole for _, _, whole in _supported_factors(f, s)):
        extreme = False if count_roots_with_multiplicity(f, s) < system.n else None
    return ExtremeReport(nonneg=nonneg, zero_count=zero_count, face_dim=face_dim,
                         extreme=extreme)


def chebyshev_det_sign(system: LinearSystem, pattern: ZeroPattern, s: Interval) -> int:
    """Exact sign of the full confluent evaluation determinant.

    Rows are the derivative evaluations p_j^(k)(xi_i), k < b_i, at the
    pattern's points in increasing order, with the multiplicities summing to
    n+1.  On an interval passing validation this determinant never vanishes;
    a zero sign falsifies the validation.
    """
    if any(not s.contains(x) for x in pattern.points):
        raise ValueError("points must lie in the interval")
    if any(x == 0 for x in pattern.points):
        raise ValueError("points must differ from the base point")
    if pattern.total != system.dim:
        raise ValueError(f"multiplicities must sum to {system.dim}")
    det = det_frac(_derivative_rows(system.basis, pattern.points, pattern.mults)[0])
    return (det > 0) - (det < 0)  # the row scales are positive


# -- interval validation -------------------------------------------------------


@dataclass(frozen=True)
class IntervalValidation:
    """Outcome of the interval conditions: the base-point and sign conditions
    are exact; the cofactor-positivity condition is sampled on grids and
    explicitly non-exhaustive."""

    s0_no_base_point: bool
    s2_coordinate_nonneg: bool
    s1_sampled: bool
    s1_patterns: tuple
    samples: int
    exhaustive: bool = False
    note: str = "the derivative condition on the uniformizer holds identically"

    @property
    def all_pass(self) -> bool:
        return self.s0_no_base_point and self.s2_coordinate_nonneg and self.s1_sampled


def _compositions(total: int):
    """All ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _cofactor_term_decomposition(system: LinearSystem):
    """Write the Vandermonde cofactor of the evaluation-matrix determinant as
    sum over Schur monomials alpha of t^alpha (1 + g_alpha) with g_alpha in
    the ideal (t_0, ..., t_n); returns {alpha: g_alpha} (g may be zero)."""
    cof = vandermonde_cofactor(evaluation_matrix(system.basis).det())
    if cof is None:
        raise AssertionError("evaluation determinant not divisible by the Vandermonde")
    sigma = schur_via_tableaux(system.orders)
    h = cof - sigma
    report = _scan(h.monomials(), sigma.monomials(), proper=True)
    if not report.ok:
        raise AssertionError("cofactor tail not in the product ideal; basis not normalized?")
    parts = {alpha: {} for alpha in sorted(sigma.monomials())}
    terms = h.terms
    for mono, alpha in report.witness.items():
        parts[alpha][tuple(m - a for m, a in zip(mono, alpha))] = terms[mono]
    return {alpha: MultiPoly(system.dim, terms) for alpha, terms in parts.items()}


def validate_interval(system: LinearSystem, s: Interval, samples: int) -> IntervalValidation:
    """Check the interval conditions for extreme-ray claims.

    Exact checks: the basis has no common zero in s, and the coordinate t is
    nonnegative on s.  The sampled check evaluates, for every block pattern,
    the collapsed cofactor factors 1 + g_alpha on a rational grid of
    samples^(r+1) configurations; it certifies only the sampled points.
    """
    _positive_int(samples, "samples")
    g = system.basis[0]
    for p in system.basis[1:]:
        g = poly_gcd(g, p)
    s0 = g.degree <= 0 or count_roots_with_multiplicity(g, s) == 0
    s2 = s.lo >= 0

    try:
        g_alpha = _cofactor_term_decomposition(system)
    except AssertionError as exc:
        return IntervalValidation(
            s0_no_base_point=s0,
            s2_coordinate_nonneg=s2,
            s1_sampled=False,
            s1_patterns=(),
            samples=samples,
            note=f"cofactor decomposition unavailable: {exc}",
        )
    if samples == 1:
        axis = [s.lo + (s.hi - s.lo) / 2]
    else:
        axis = [s.lo + (s.hi - s.lo) * Fraction(k, samples - 1) for k in range(samples)]
    patterns = []
    for sizes in _compositions(system.dim):
        r1 = len(sizes)
        slot = BlockPartition(sizes).slot_of_row()
        collapsed = [h for h in (g.merge_variables(slot, r1) for g in g_alpha.values())
                     if not h.is_zero]
        patterns.append((sizes, all(1 + h.evaluate(x) > 0
                                    for h in collapsed for x in product(axis, repeat=r1))))
    return IntervalValidation(
        s0_no_base_point=s0,
        s2_coordinate_nonneg=s2,
        s1_sampled=all(ok for _, ok in patterns),
        s1_patterns=tuple(patterns),
        samples=samples,
    )
