"""Schur polynomials of strictly decreasing exponent sequences.

Two independent constructions are provided: a count of the weights of
the admissible Young-diagram fillings, and the bialternant quotient
det((x_i^{m_j})) / prod_{i<j}(x_i - x_j).  They must agree term for term;
the divisibility comparisons between the monomial sets of two such
polynomials (with witnesses) live here as well.  They run on packed
exponent vectors, one int per monomial with a guard bit atop each field,
so that each divisibility test is one subtraction and one mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .multipoly import MultiPoly
from .unipoly import UniPoly


@dataclass(frozen=True)
class DecreasingSeq:
    """Strictly decreasing sequence of nonnegative integers (m_0, ..., m_n)."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("empty sequence")
        if any(type(e) is not int or e < 0 for e in entries):  # bool is not an entry
            raise ValueError(f"entries must be nonnegative integers, got {entries!r}")
        if any(a <= b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"sequence {entries} is not strictly decreasing")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def shape(self) -> tuple:
        """Row lengths of the associated Young diagram: m_i - (n - i)."""
        n = len(self.entries) - 1
        return tuple(m - (n - i) for i, m in enumerate(self.entries))


def _seq(m) -> DecreasingSeq:
    return m if isinstance(m, DecreasingSeq) else DecreasingSeq(tuple(m))


MAX_TABLEAU_CELLS = 500  # the fillings are searched one recursion level per cell


def schur_via_tableaux(m) -> MultiPoly:
    """sigma_m(x_0, ..., x_n) as the generating sum over admissible fillings;
    a diagram of more than MAX_TABLEAU_CELLS cells is refused."""
    return _tableaux_sum(_seq(m).entries)


@cache
def _tableaux_sum(entries: tuple) -> MultiPoly:
    """schur_via_tableaux, computed once per sequence.  The cache is unbounded,
    but sequences with top entry k number 2^k, so it stays small.

    Depth-first over the cells, column by column (top to bottom within a
    column).  Each cell takes a value at least the cell to its left and
    greater than the cell above it (so at least its row index), so every
    complete filling is admissible; counts[v] is the number of cells
    holding v, and its tuple is the filling's weight.
    """
    shape = _seq(entries).shape()
    if sum(shape) > MAX_TABLEAU_CELLS:
        raise ValueError(f"diagram of {sum(shape)} cells, more than {MAX_TABLEAU_CELLS}")
    n = len(shape) - 1
    cells = [(row, col) for col in range(max(shape)) for row in range(n + 1)
             if shape[row] > col]
    grid = [[0] * k for k in shape]
    counts = [0] * (n + 1)
    terms: dict = {}

    def fill(idx):
        if idx == len(cells):
            w = tuple(counts)
            terms[w] = terms.get(w, 0) + 1
            return
        row, col = cells[idx]
        low = grid[row - 1][col] + 1 if row else 0
        if col:
            low = max(low, grid[row][col - 1])
        for v in range(low, n + 1):
            grid[row][col] = v
            counts[v] += 1
            fill(idx + 1)
            counts[v] -= 1

    fill(0)
    return MultiPoly(n + 1, terms)


def schur_via_bialternant(m) -> MultiPoly:
    """sigma_m via the alternant determinant divided by the Vandermonde.

    The alternant (x_i^{m_j}) is the evaluation matrix of the basis t^{m_j}.
    The division is performed binomial by binomial and is always exact; the
    result agrees with the tableau construction.
    """
    from .diagonal import evaluation_matrix, vandermonde_cofactor  # diagonal imports this module

    basis = (UniPoly.monomial(e) for e in _seq(m).entries)
    sigma = vandermonde_cofactor(evaluation_matrix(basis).det())
    if sigma is None:
        raise AssertionError("alternant not divisible by the Vandermonde")
    return sigma


# -- monomial divisibility comparisons ----------------------------------------


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a monomial-set divisibility scan.

    witness maps each checked monomial (exponent tuple) to a dividing
    monomial: the least generator in lex (tuple) order that divides it, and
    for a proper scan the least one other than the monomial itself.
    failures lists the monomials with no divisor, in lex order.
    """

    ok: bool
    witness: dict
    failures: tuple


def _pack(e, width: int) -> int:
    """The exponent vector e as one int of len(e) fields of width bits,
    variable 0 in the highest field."""
    key = 0
    for x in e:
        key = key << width | x
    return key


def _scan(targets, generators, proper: bool) -> DivisibilityReport:
    """Find, for every target, its witness among the generators; all are
    exponent tuples of nonnegative ints and of one length.

    Each field is one bit wider than the largest exponent, and its top bit
    is a guard, which no exponent reaches.  So alpha divides beta exactly
    when the guards survive ((pack(beta) | G) - pack(alpha)) & G: a field
    with a_i > b_i clears its guard without borrowing from the next.  Packed
    keys order as the tuples do and divisibility implies lex-<=, so the
    scan of the sorted generators stops at the first key above pack(beta),
    or at pack(beta) itself in a proper scan.
    """
    targets, generators = list(targets), list(generators)
    monomials = targets + generators
    if len({len(e) for e in monomials}) > 1:
        raise ValueError("exponent vectors of unequal length")
    width = max((x for e in monomials for x in e), default=0).bit_length() + 1
    guard = _pack((1 << width - 1,) * (len(targets[0]) if targets else 0), width)
    gens = sorted((_pack(alpha, width), alpha) for alpha in generators)
    witness = {}
    failures = []
    for key, beta in sorted((_pack(beta, width), beta) for beta in targets):
        top = key | guard
        last = key - 1 if proper else key  # greater keys cannot divide beta
        hit = None
        for k, alpha in gens:
            if k > last:
                break
            if (top - k) & guard == guard:
                hit = alpha
                break
        if hit is None:
            failures.append(beta)
        else:
            witness[beta] = hit
    return DivisibilityReport(ok=not failures, witness=witness, failures=tuple(failures))


def proper_dominance_check(a, b) -> DivisibilityReport:
    """Check that every monomial of sigma_b is properly divisible by some
    monomial of sigma_a, for componentwise b >= a with a != b."""
    a, b = _seq(a), _seq(b)
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if any(bi < ai for ai, bi in zip(a.entries, b.entries)):
        raise ValueError("need b >= a componentwise")
    if a.entries == b.entries:
        raise ValueError("need a != b")
    return _scan(schur_via_tableaux(b).monomials(),
                 schur_via_tableaux(a).monomials(), proper=True)


def subsequence_divisibility_check(a, indices) -> DivisibilityReport:
    """Check that every monomial of sigma_b(x_0..x_r), b the subsequence of a
    at the given positions, is divisible by a monomial of
    sigma_a(x_0..x_r, 1, ..., 1)."""
    a = _seq(a)
    indices = tuple(indices)
    if not indices:
        raise ValueError("empty index sequence")
    if any(type(i) is not int for i in indices):  # bool is not an index
        raise ValueError(f"indices must be integers, got {indices!r}")
    if any(i < 0 or i >= len(a) for i in indices):
        raise ValueError("index out of range")
    if any(i >= j for i, j in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly increasing")
    b = DecreasingSeq(tuple(a[i] for i in indices))
    # the coefficients of sigma_a count fillings, so are positive and no two
    # terms cancel when x_{r+1} = ... = x_n = 1: the monomials of the
    # substitution are those of sigma_a cut to their first r + 1 exponents
    substituted = {e[:len(b)] for e in schur_via_tableaux(a).monomials()}
    return _scan(schur_via_tableaux(b).monomials(), substituted, proper=False)
