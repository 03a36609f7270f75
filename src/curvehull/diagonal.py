"""Determinant factorizations over the slot-tensor polynomial ring.

For a rational coordinate ring the (n+1)-fold tensor product is just the
polynomial ring Q[t_0, ..., t_n], and the vanishing ideal of every pairwise
diagonal t_i = t_j is principal.  This module builds the evaluation matrix
of a basis across slots, extracts Vandermonde cofactors, tests membership in
the monomial ideal spanned by Schur monomials, checks the Taylor congruence,
and factors the Taylor-process determinant, whose blocks of derivative rows
pull powers of (t_i - t_j) out of the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .linalg import _eliminate
from .multipoly import MultiPoly, poly_det
from .schur import DivisibilityReport, _scan, _seq, schur_via_tableaux
from .unipoly import UniPoly, _positive_int


class DivisibilityError(ArithmeticError):
    """Raised when a division guaranteed by the factorization theory fails;
    this always signals an implementation bug or an unnormalized basis."""


@dataclass(frozen=True)
class BlockPartition:
    """Sizes (b_0, ..., b_r) of consecutive row blocks covering {0, ..., n}."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(_positive_int(b, "block size") for b in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("a partition needs at least one block")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    def slot_of_row(self):
        """Row index -> block index."""
        out = []
        for nu, b in enumerate(self.sizes):
            out.extend([nu] * b)
        return out


def _partition(b) -> BlockPartition:
    return b if isinstance(b, BlockPartition) else BlockPartition(tuple(b))


@dataclass(frozen=True)
class TensorMatrix:
    """Square matrix of MultiPoly entries: a basis and a block partition.

    Block nu of size b holds the rows (p_j^(k)(t_nu))_j, k = 0, ..., b - 1, of
    raw derivatives of the basis: the evaluation matrix has all-ones blocks,
    and the Taylor-process matrix the blocks of its partition.  Row (nu, k)
    times (-1)^k / k! is the reference normalization.
    """

    basis: tuple
    partition: BlockPartition

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "partition", _partition(self.partition))
        if self.partition.total != len(self.basis):
            raise ValueError("block sizes must sum to the basis size")

    @property
    def arity(self) -> int:
        return self.partition.nblocks

    @property
    def size(self) -> int:
        return self.partition.total

    def _rows(self):
        """(slot nu, derivative order k) of each row, in order."""
        return [(nu, k) for nu, b in enumerate(self.partition.sizes) for k in range(b)]

    @property
    def entries(self) -> tuple:
        """The rows, built on each access; det() does not need them."""
        return tuple(tuple(MultiPoly.inject(p.derivative(k), self.arity, nu) for p in self.basis)
                     for nu, k in self._rows())

    def det(self) -> MultiPoly:
        """The determinant, by Cauchy-Binet over the basis coefficients.

        The matrix factors as D * C with C[s][j] the coefficient of t^s in
        p_j and D[(nu, k), s] = s!/(s-k)! * t_nu^(s-k), the k-th derivative of
        t^s at t_nu; poly_det sums det(D[:, S]) * det(C[S, :]) over the
        column sets S.
        """
        width = max(1, 1 + max(p.degree for p in self.basis))
        zero = MultiPoly.zero(self.arity)
        left = [[MultiPoly.monomial(self.arity, [(s - k) * (i == nu) for i in range(self.arity)],
                                    factorial(s) // factorial(s - k)) if s >= k else zero
                 for s in range(width)] for nu, k in self._rows()]
        right = [[p.coeff(s) for p in self.basis] for s in range(width)]
        return poly_det(left, right)

    def reference_scale(self) -> Fraction:
        """Product of the per-row scales (-1)^k / k!: reference determinant =
        this scale times the raw determinant."""
        return prod((Fraction((-1) ** k, factorial(k)) for _, k in self._rows()), start=Fraction(1))


def evaluation_matrix(basis) -> TensorMatrix:
    """Matrix with entry (i, j) = p_j(t_i) over Q[t_0, ..., t_n]."""
    basis = tuple(basis)
    return TensorMatrix(basis, (1,) * len(basis))


def divide_diagonals(f: MultiPoly, sizes=None):
    """Exact quotient of f by prod_{i<j} (t_i - t_j)^(b_i b_j), or None if f
    is not a multiple of it.  sizes = (b_0, ..., b_r), one positive int per
    variable of f, defaults to all ones (the Vandermonde product).  One exact
    division per binomial factor, so every factor proves a zero remainder."""
    n1 = f.arity
    sizes = (1,) * n1 if sizes is None else tuple(_positive_int(b, "block size") for b in sizes)
    if len(sizes) != n1:
        raise ValueError(f"need one block size per variable ({n1}), got {len(sizes)}")
    for i in range(n1):
        for j in range(i + 1, n1):
            for _ in range(sizes[i] * sizes[j]):
                f = f.exact_divide(i, j)
                if f is None:
                    return None
    return f


def vandermonde_cofactor(f: MultiPoly):
    """Exact quotient of f by prod_{i<j} (t_i - t_j), or None if f is not a
    multiple of the full diagonal product."""
    return divide_diagonals(f)


@dataclass(frozen=True)
class SchurMonomialIdeal:
    """Monomial ideal generated by the monomials of a Schur polynomial,
    optionally collapsed through a block product map."""

    arity: int
    generators: tuple

    @classmethod
    def from_sequence(cls, m) -> "SchurMonomialIdeal":
        return cls.collapsed(m, (1,) * len(_seq(m)))

    @classmethod
    def collapsed(cls, m, partition) -> "SchurMonomialIdeal":
        """Generators pushed through the block collapse: exponents of the
        variables inside each block are added."""
        m = _seq(m)
        partition = _partition(partition)
        if partition.total != len(m):
            raise ValueError("block sizes must sum to the number of variables")
        r1 = partition.nblocks
        merged = schur_via_tableaux(m).merge_variables(partition.slot_of_row(), r1)
        return cls(arity=r1, generators=tuple(sorted(merged.monomials())))

    def contains(self, g: MultiPoly) -> DivisibilityReport:
        """Membership test: in a monomial ideal, g is a member iff every one
        of its monomials is divisible by some generator."""
        if g.arity != self.arity:
            raise ValueError("arity mismatch")
        return _scan(g.monomials(), self.generators, proper=False)


def taylor_remainder_check(f: UniPoly, r: int) -> bool:
    """Verify that f(x) - f(y) - sum_{v=1}^{r} f^(v)(y)/v! (x-y)^v is an exact
    multiple of (x-y)^{r+1}, the diagonal product of the block sizes
    (1, r + 1); true for every polynomial, so a False return flags broken
    arithmetic."""
    _positive_int(r, "r")
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    fx = MultiPoly.inject(f, 2, 0)
    rem = fx - MultiPoly.inject(f, 2, 1)
    delta = x - y
    for v in range(1, r + 1):
        coef = MultiPoly.inject(f.derivative(v), 2, 1) * Fraction(1, factorial(v))
        rem = rem - coef * delta ** v
    return divide_diagonals(rem, (1, r + 1)) is not None


def normalize_basis_orders(basis):
    """The reduced echelon basis at 0: strictly decreasing vanishing orders,
    each with a unit coefficient at its order.

    One Gauss-Jordan `_eliminate` of the integer coefficient rows (scaling
    a row leaves the reduced echelon form as it is), columns in increasing
    degree: each pivot column is a vanishing order and each reduced row,
    scaled to 1 at its pivot, is the basis element of that order.  The
    result spans the same space and depends only on that span.  Raises on
    linearly dependent input, a zero element included.
    """
    rows = [(p if isinstance(p, UniPoly) else UniPoly(p)).integer_form()[0] for p in basis]
    width = max(map(len, rows), default=0)
    tab, _, pivots, _, _ = _eliminate([r + (0,) * (width - len(r)) for r in rows])
    if len(pivots) < len(rows):
        raise ValueError("linearly dependent basis")
    normalized = [UniPoly([Fraction(x, row[c]) for x in row]) for row, c in zip(tab, pivots)]
    return tuple(normalized[::-1]), tuple(pivots[::-1])


@dataclass(frozen=True)
class TaylorFactorization:
    """Result of factoring a Taylor-process determinant."""

    det: MultiPoly
    cofactor: MultiPoly
    ideal: SchurMonomialIdeal
    membership: DivisibilityReport
    checked: bool
    reference_scale: Fraction


def factor_taylor_determinant(basis, partition) -> TaylorFactorization:
    """Factor det of the Taylor-process matrix as
    cofactor * prod_{i<j} (t_i - t_j)^{b_i b_j} and test the cofactor against
    the collapsed Schur monomial ideal of the basis orders.

    The basis is triangularized to strictly decreasing orders with unit
    leading Taylor coefficients first (a change of basis only rescales the
    determinant).  A failed division raises DivisibilityError: the theory
    guarantees exactness, so failure means a bug.
    """
    basis, orders = normalize_basis_orders(basis)
    matrix = TensorMatrix(basis, partition)
    partition = matrix.partition
    det = matrix.det()
    cof = divide_diagonals(det, partition.sizes)
    if cof is None:
        raise DivisibilityError(
            f"det not divisible by prod (t_i-t_j)^(b_i b_j) for blocks {partition.sizes}")
    ideal = SchurMonomialIdeal.collapsed(orders, partition)
    membership = ideal.contains(cof)
    return TaylorFactorization(
        det=det,
        cofactor=cof,
        ideal=ideal,
        membership=membership,
        checked=membership.ok,
        reference_scale=matrix.reference_scale(),
    )
