"""Block linear matrix inequalities for moment curves on intervals.

Builders for the full Hankel pencil of the even moment curve and the
two-block localized moment pencil of an interval (block sizes at most
1 + floor(n/2)), exact membership by an integer PSD test of each block,
square certificates for validated extreme candidates, sparse SDPA emission,
and a JSON wire format.  There are no lifted variables: every
representation here is a genuine spectrahedron, so membership is a pure
PSD check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from .linalg import _check_symmetric, _symmetric_pivots, psd_check_exact
from .unipoly import (_RATIONAL_RE, Interval, UniPoly, _combine, _horner, _over_lcm,
                      _polys_over_lcm, _positive_int, _q)


@dataclass(frozen=True)
class Block:
    """One pencil block A + sum_i x_i B_i of symmetric matrices, each held
    as a tuple of Fraction rows."""

    size: int
    a0: tuple
    coeff: tuple  # one matrix per ambient variable
    # (i, j, L * A_ij, ((v, L * B_v,ij) for each nonzero)) for i <= j, over
    # one positive lcm L of every denominator in the block
    _entries: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = _positive_int(self.size, "size")
        mats = [tuple(tuple(_q(x) for x in r) for r in m) for m in (self.a0, *self.coeff)]
        for m in mats:
            _check_symmetric(m)
            if len(m) != size:
                raise ValueError("block matrices must share the block size")
        object.__setattr__(self, "a0", mats[0])
        object.__setattr__(self, "coeff", tuple(mats[1:]))
        upper = [(i, j) for i in range(size) for j in range(i, size)]
        k = len(upper)
        ints, _ = _over_lcm([m[i][j] for m in mats for i, j in upper])
        object.__setattr__(self, "_entries", tuple(
            (i, j, ints[e], tuple((v, b) for v, b in enumerate(ints[e + k::k]) if b))
            for e, (i, j) in enumerate(upper)))

    def integer_rows(self, xs, q):
        """Integer rows q*L*(A + sum_v x_v B_v) at x_v = xs_v / q, for ints
        xs and q > 0."""
        rows = [[0] * self.size for _ in range(self.size)]
        for i, j, a, terms in self._entries:
            rows[i][j] = rows[j][i] = q * a + sum(xs[v] * b for v, b in terms)
        return rows


@dataclass(frozen=True)
class BlockLMI:
    """Block-diagonal pencil in ambient variables x_1, ..., x_n."""

    n: int
    blocks: tuple

    def __post_init__(self):
        _positive_int(self.n, "n")
        if not self.blocks:
            raise ValueError("a pencil needs at least one block")
        for blk in self.blocks:
            if len(blk.coeff) != self.n:
                raise ValueError("every block needs one coefficient matrix per variable")

    @property
    def max_block_size(self) -> int:
        return max(blk.size for blk in self.blocks)


def _hankel_block(n: int, size: int, weight: UniPoly) -> Block:
    """Localized Hankel block: entry (i, j) = sum_d w_d x_{i+j+d}, x_0 = 1."""
    a0 = [[Fraction(0)] * size for _ in range(size)]
    coeff = [[[Fraction(0)] * size for _ in range(size)] for _ in range(n)]
    weights = weight.coeffs
    for i in range(size):
        for j in range(size):
            for d, wd in enumerate(weights):
                if wd == 0:
                    continue
                k = i + j + d
                if k == 0:
                    a0[i][j] += wd
                elif k <= n:
                    coeff[k - 1][i][j] += wd
                else:
                    raise ValueError(f"moment index {k} exceeds ambient dimension {n}")
    return Block(size=size, a0=a0, coeff=tuple(coeff))


def hankel_lmi(n: int) -> BlockLMI:
    """The (k+1) x (k+1) Hankel pencil of the even moment curve, n = 2k:
    entry (i, j) = x_{i+j} with x_0 = 1.  This is the minimal-size
    spectrahedral description of the closed convex hull of
    {(t, t^2, ..., t^n) : t real}."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the full Hankel pencil needs even n >= 2")
    k = n // 2
    return BlockLMI(n=n, blocks=(_hankel_block(n, k + 1, UniPoly.one()),))


def interval_moment_lmi(n: int, s: Interval) -> BlockLMI:
    """Two-block moment pencil for the curve (t, ..., t^n), t in [a, b].

    Even n = 2k: the full Hankel of (1, x_1, ..., x_n) (size k+1) and the
    localized Hankel of the weight (b - t)(t - a) (size k).  Odd n = 2k+1:
    the localized Hankels of (t - a) and (b - t) (each size k+1).  Every
    block has size at most 1 + floor(n/2).
    """
    _positive_int(n, "n")
    a, b = s.lo, s.hi
    t = UniPoly.t()
    if n % 2 == 0:
        k = n // 2
        blocks = [
            _hankel_block(n, k + 1, UniPoly.one()),
            _hankel_block(n, k, (b - t) * (t - a)),
        ]
    else:
        k = (n - 1) // 2
        blocks = [
            _hankel_block(n, k + 1, t - a),
            _hankel_block(n, k + 1, b - t),
        ]
    return BlockLMI(n=n, blocks=tuple(blocks))


def lmi_membership(lmi: BlockLMI, x) -> bool:
    """Exact membership: every block pencil evaluated at x is PSD, tested
    on its integer rows over one denominator q > 0 of x."""
    x = [_q(v) for v in x]
    if len(x) != lmi.n:
        raise ValueError(f"point has dimension {len(x)}, pencil has {lmi.n}")
    xs, q = _over_lcm(x)
    return all(psd_check_exact(blk.integer_rows(xs, q)) for blk in lmi.blocks)


def compose_curve(lmi: BlockLMI, components) -> tuple:
    """The pencil along the curve t -> (p_1(t), ..., p_n(t)), p_i UniPolys:
    per block, the symmetric rows of UniPolys c * (A + sum_i p_i(t) B_i)
    with integer coefficients, for c > 0 the lcm of the block's
    denominators times that of the curve's.  A positive scale keeps every
    PSD verdict."""
    if len(components) != lmi.n:
        raise ValueError(f"curve has dimension {len(components)}, pencil has {lmi.n}")
    nums, den = _polys_over_lcm(components)
    composed = []
    for blk in lmi.blocks:
        upper = {}
        for i, j, a, terms in blk._entries:
            entry = (a * den,)
            for v, b in terms:
                entry = _combine(entry, 1, nums[v], b)
            upper[i, j] = UniPoly(entry)
        composed.append(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(blk.size))
                              for i in range(blk.size)))
    return tuple(composed)


def curve_membership(composed, p: int, q: int) -> bool:
    """Exact membership of the curve point at t = p/q, for ints p and q > 0,
    in a pencil composed with its curve by `compose_curve`: each block's
    entries at t are q^d times their values by one integer Horner
    (`unipoly._horner`), d the block's largest degree; the int rows, mirrored
    so symmetric by construction, go to `linalg._symmetric_pivots` directly."""
    for block in composed:
        forms = [[e.integer_form()[0] for e in row[i:]] for i, row in enumerate(block)]
        d = max(max(map(len, row)) for row in forms) - 1
        upper = [[_horner(f, p, q, d) for f in row] for row in forms]
        rows = [[upper[j][i - j] for j in range(i)] + r for i, r in enumerate(upper)]
        if _symmetric_pivots(rows) is None:
            return False
    return True


# -- square certificates -------------------------------------------------------


@dataclass(frozen=True)
class SosxCertificate:
    """f = scale * square_root^2 with scale > 0; declared_rank counts the
    coefficients of square_root (1 + n/2 for an n-zero candidate)."""

    scale: Fraction
    square_root: UniPoly
    declared_rank: int


def sosx_certificate(f: UniPoly, pattern, c) -> SosxCertificate:
    """Certificate that a validated extreme candidate is a scaled square.

    pattern is a `rays.ZeroPattern` (unannotated: this module does not
    import rays).  Requires every pattern multiplicity even; reconstructs
    g = prod (t - xi_j)^{b_j/2} and checks f = c * g^2 exactly, raising if
    the reconstruction fails (a caller error: f was not of the stated form).
    """
    c = _q(c)
    if c <= 0:
        raise ValueError("scale must be positive")
    if not pattern.all_even:
        raise ValueError("pattern multiplicities must all be even")
    g = UniPoly.one()
    for x, b in zip(pattern.points, pattern.mults):
        g = g * UniPoly((-x, 1)) ** (b // 2)
    if f - c * g * g != UniPoly.zero():
        raise ValueError("reconstruction failed: f != c * g^2 for this pattern")
    return SosxCertificate(scale=c, square_root=g, declared_rank=1 + g.degree)


# -- SDPA sparse emission -------------------------------------------------------


def _terminating_decimal(q: Fraction):
    """Exact decimal string for q when the denominator divides some 10^e, else
    None; such an e is at most the denominator's bit length."""
    den, e = q.denominator, 0
    while 10 ** e % den:
        if e > den.bit_length():
            return None
        e += 1
    return f"{Decimal(f'{q.numerator * 10 ** e // den}E-{e}'):f}"


def _sig_digits(q: Fraction, digits: int = 30) -> str:
    """q rounded half up to the given number of significant digits (decimal
    division is correctly rounded): fixed notation without trailing zeros
    when the decimal point lands at -6 < point <= digits, else m.mmm...e{exp}."""
    d = Context(prec=digits, rounding=ROUND_HALF_UP).divide(q.numerator, q.denominator)
    point = d.adjusted() + 1
    if -6 < point <= digits:
        out = f"{d:f}"
        return out.rstrip("0").rstrip(".") if "." in out else out
    sign, m, _ = d.as_tuple()
    m = "".join(map(str, m)).ljust(digits, "0")
    return f"{'-' * sign}{m[0]}.{m[1:]}e{point - 1}"


def emit_sdpa(lmi: BlockLMI, objective) -> str:
    """Serialize to the sparse SDPA text format.

    The emitted problem follows SDPA's sign convention F_0 = -A_nu,
    F_i = B_{nu i}, so sum_i x_i F_i - F_0 >= 0 is exactly the pencil
    A_nu + sum_i x_i B_{nu i} >= 0.  Entries with a terminating decimal
    expansion are written exactly; anything else is rounded to 30
    significant digits and flagged in the header.
    """
    objective = [_q(c) for c in objective]
    if len(objective) != lmi.n:
        raise ValueError(f"objective has length {len(objective)}, need {lmi.n}")
    entries = []
    lossy = False

    def fmt(q: Fraction) -> str:
        nonlocal lossy
        exact = _terminating_decimal(q)
        if exact is not None:
            return exact
        lossy = True
        return _sig_digits(q)

    for matno in range(lmi.n + 1):
        for blkno, blk in enumerate(lmi.blocks, start=1):
            mat = blk.a0 if matno == 0 else blk.coeff[matno - 1]
            for i in range(blk.size):
                for j in range(i, blk.size):
                    v = -mat[i][j] if matno == 0 else mat[i][j]
                    if v != 0:
                        entries.append(f"{matno} {blkno} {i + 1} {j + 1} {fmt(v)}")
    lines = [
        "* SDPA sparse format",
        "* pencil per block: A + x_1 B_1 + ... + x_n B_n >= 0; emitted as F0 = -A, F_i = B_i",
        "* entries: inexact (rounded to 30 significant digits)" if lossy else "* entries: exact",
        str(lmi.n),
        str(len(lmi.blocks)),
        " ".join(str(blk.size) for blk in lmi.blocks),
        " ".join(fmt(c) for c in objective),
    ]
    lines.extend(entries)
    return "\n".join(lines) + "\n"


# -- JSON wire format -----------------------------------------------------------


def _matrix_to_strings(m):
    return [str(x) for row in m for x in row]


def _matrix_from_strings(vals, size: int):
    """The rows of a row-major payload; a string entry must be an integer,
    "p/q" or a terminating decimal."""
    if len(vals) != size * size:
        raise ValueError("matrix payload has the wrong length")
    for v in vals:  # refused before Fraction expands an exponent such as 1e30000000
        if isinstance(v, str) and not _RATIONAL_RE.fullmatch(v):
            raise ValueError(f"malformed pencil payload: cannot parse rational: {v!r}")
    return [vals[i * size:(i + 1) * size] for i in range(size)]


def lmi_to_json(lmi: BlockLMI) -> dict:
    """Schema: {n, blocks: [{size, A: row-major 'p/q' strings, B: [per-variable
    dense matrices]}]}; exact round trip."""
    return {
        "n": lmi.n,
        "blocks": [
            {
                "size": blk.size,
                "A": _matrix_to_strings(blk.a0),
                "B": [_matrix_to_strings(b) for b in blk.coeff],
            }
            for blk in lmi.blocks
        ],
    }


def lmi_from_json(data) -> BlockLMI:
    """Inverse of lmi_to_json; a payload (or JSON text) that does not follow
    its schema raises ValueError."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        blocks = []
        for payload in data["blocks"]:
            size = payload["size"]
            blocks.append(Block(size=size, a0=_matrix_from_strings(payload["A"], size),
                                coeff=tuple(_matrix_from_strings(b, size) for b in payload["B"])))
        return BlockLMI(n=data["n"], blocks=tuple(blocks))
    except (TypeError, KeyError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed pencil payload: {type(exc).__name__}: {exc}") from None
