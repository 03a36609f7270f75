"""Dense univariate polynomials over exact rationals.

Everything in this module is exact.  Coefficients are rationals, held only
as int numerators over their least positive common denominator; the
arithmetic, gcds, Yun, Sturm chains and evaluation run on the numerators,
and `fractions.Fraction`s are made only when coefficients are read.  Root
counting runs Sturm chains on squarefree parts, and sign questions on
closed intervals are decided symbolically.  No floating point anywhere.
Each polynomial caches its Yun squarefree decomposition, so the root
counts, the nonnegativity test and the factoring of one polynomial share
one run, and its Sturm chain, so isolation and every refinement share one
chain.  The counts and the test read a layer's endpoint roots by sign and
its interior roots by one Sturm count on its cached chain.  Domains are
`Interval`s (lo < hi); root isolation returns `RationalEnclosure`s
(lo <= hi), where an exact root is an enclosure of width 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod


_SMALL = tuple(Fraction(k) for k in range(-16, 17))  # shared, as zeros are common
_ZERO = _SMALL[16]


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):  # numpy.float64 too; Fraction refuses the other numpy floats
        raise TypeError(f"a float is not an exact rational: {x!r}")
    if type(x) is int and -16 <= x <= 16:
        return _SMALL[x + 16]
    if isinstance(x, bool):  # JSON true/false are not the numbers 1 and 0
        raise TypeError(f"a bool is not an exact rational: {x!r}")
    return Fraction(x)


# The text of a rational in the CLI arguments and the pencil files: an
# integer, "p/q" or a terminating decimal.  It has no exponent, so its length
# bounds the size of the Fraction it spells.
_UNSIGNED_RATIONAL = r"\d+(?:/\d+|\.\d+)?"
_RATIONAL_RE = re.compile(rf"[+-]?{_UNSIGNED_RATIONAL}")


def _positive_int(value, name: str) -> int:
    if type(value) is not int or value < 1:  # bool is not a count
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _order(value, name: str) -> int:
    if type(value) is not int or value < 0:  # bool is not an order
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _render_terms(pairs) -> str:
    """Text of a sum of (coefficient, monomial text) pairs in the given order;
    an empty monomial text marks the constant term, and no pairs read "0"."""
    parts = []
    for c, mono in pairs:
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {term[1:]}" if term.startswith("-") else f" + {term}"
                              for term in parts[1:])


def _over_lcm(values):
    """(ints, den) for a sequence of Fractions: den is the positive lcm of
    their denominators and values[k] == ints[k] / den."""
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _polys_over_lcm(polys):
    """(nums, den) for a sequence of polynomials: den is the positive lcm of
    their denominators and polys[k] has the int coefficients nums[k] / den."""
    forms = [p.integer_form() for p in polys]
    den = lcm(*(d for _, d in forms))
    return [tuple(x * (den // d) for x in n) for n, d in forms], den


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints and lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _q(self.lo))
        object.__setattr__(self, "hi", _q(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    def contains(self, x) -> bool:
        return self.lo <= _q(x) <= self.hi

    def strictly_contains(self, x) -> bool:
        return self.lo < _q(x) < self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class RationalEnclosure:
    """Rational interval [lo, hi] known to contain an exact real value; lo == hi
    when the value is known exactly."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _q(self.lo))
        object.__setattr__(self, "hi", _q(self.hi))
        if self.lo > self.hi:
            raise ValueError("inverted enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def intersects(self, other: "RationalEnclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


class _Poly:
    """The arithmetic protocol UniPoly and MultiPoly share.  Instances are
    immutable; an int or Fraction operand is the constant polynomial, and a
    constant equals, and hashes like, its coefficient.

    A polynomial's one state is its integer form `_ints` = (nums, den): int
    numerators over den > 0 with gcd(den, *nums) == 1, so each value has
    exactly one form.  The Fraction coefficients are computed from it on
    each read.  A subclass supplies the layout of nums, `_trusted` (the
    unchecked constructor of kernel results, which divides out the common
    factor), `_coerce(other)` (the polynomial, or None for any other
    operand), `_key(frozen)` (what equality compares, hashable when
    frozen), `_constant()` (the value of a constant polynomial, else None),
    `__add__`, `__neg__`, `__mul__` and `to_string`."""

    __slots__ = ()

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def integer_form(self):
        """(nums, den): the coefficients as int numerators over den > 0."""
        return self._ints

    @property
    def is_zero(self) -> bool:
        return not self._ints[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._constant() == other
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        c = self._constant()
        return hash(self._key(frozen=True) if c is None else c)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        """self**k by square-and-multiply, starting from the ring's 1."""
        if type(k) is not int or k < 0:  # bool is not an exponent
            raise ValueError(f"exponent must be an int >= 0, not a negative power, got {k!r}")
        result, base = self._coerce(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()})"


# -- int coefficient lists (low degree first) ---------------------------------


def _strip(nums) -> tuple:
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return tuple(nums[:n])


def _primitive(nums) -> tuple:
    """nums divided by their positive content (the gcd of the entries)."""
    g = gcd(*nums)
    return tuple(nums) if g < 2 else tuple(x // g for x in nums)


def _combine(a, sa: int, b, sb: int) -> tuple:
    """sa*a + sb*b."""
    return _strip([x * sa + y * sb for x, y in zip_longest(a, b, fillvalue=0)])


def _derivative(nums, k: int = 1) -> tuple:
    for _ in range(k):
        nums = tuple(j * c for j, c in enumerate(nums[1:], 1))
    return nums


def _horner(nums, p: int, q: int, d: int) -> int:
    """q^d times the value of sum nums_k t^k at t = p/q, for any d >= the
    degree: integer Horner, acc <- acc*p + nums_k*q^(d-k)."""
    if not nums:
        return 0
    qk = q ** (d - len(nums) + 1)
    acc = nums[-1] * qk
    for c in reversed(nums[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def _pdivmod(a, b):
    """(q, r, s), s*a == q*b + r with deg r < deg b and s > 0, for int lists a
    and b != (): pseudo-division that scales by |lc(b)|/gcd only at a step
    lc(b) does not divide, so s is 1 when the quotient over Q is integral."""
    lead, deg = b[-1], len(b) - 1
    rem = list(a)
    q = [0] * max(len(a) - deg, 0)
    s = 1
    for k in reversed(range(len(q))):
        c = rem[k + deg]
        if not c:
            continue
        f, r = divmod(c, lead)
        if r:
            m = abs(lead) // gcd(c, lead)
            s *= m
            rem = [x * m for x in rem[:k + deg + 1]]
            q = [x * m for x in q]
            f = c * m // lead
        q[k] = f
        rem[k:k + deg + 1] = [x - f * y for x, y in zip(rem[k:k + deg + 1], b)]
    return tuple(q), _strip(rem[:deg]), s


def _prs_gcd(a, b) -> tuple:
    """A primitive gcd of int lists by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return a


def _monic(nums) -> "UniPoly":
    """The monic multiple of the int tuple nums."""
    if nums and nums[-1] < 0:
        nums = tuple(-x for x in nums)
    return UniPoly._trusted(nums, nums[-1] if nums else 1)


def _taylor(nums, mu: int, nu: int) -> list:
    """Ints b with sum nums_k (t + mu/nu)^k = sum b_k (nu t)^k / nu^d, d = deg:
    the Taylor shift by mu of sum nums_k nu^(d-k) t^k (synthetic division)."""
    d = len(nums) - 1
    b = [c * nu ** (d - k) for k, c in enumerate(nums)]
    for i in range(d if mu else 0):
        for j in range(d - 1, i - 1, -1):
            b[j] += mu * b[j + 1]
    return b


class UniPoly(_Poly):
    """Univariate polynomial over Q, dense by degree.

    Instances are immutable.  `integer_form()` is (nums, den) with nums the
    int numerators by degree, the last one nonzero (empty for the zero
    polynomial, of degree -1), over the least positive den; `coeffs` is the
    Fractions nums[k] / den.  The public constructor checks its input and
    clears its denominators by their lcm; the kernels build their results
    by `_trusted`.  The squarefree decomposition and the Sturm chain
    (`_sturm_chain_of`) are filled on first use.
    """

    __slots__ = ("_ints", "_sqf", "_sturm")

    def __init__(self, coeffs=()):
        object.__setattr__(self, "_ints", _over_lcm(_strip([_q(c) for c in coeffs])))

    @classmethod
    def _trusted(cls, nums: tuple, den: int) -> "UniPoly":
        """Constructor for the kernels: the int tuple nums, whose last entry
        is nonzero, over the positive int den, with no checks but one
        division by gcd(den, *nums)."""
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple(x // g for x in nums), den // g
        self = object.__new__(cls)
        object.__setattr__(self, "_ints", (nums, den))
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        return cls((0,) * _order(k, "exponent") + (c,))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Fraction coefficients by degree, the last one nonzero."""
        nums, den = self._ints
        return tuple(Fraction(v, den) if v else _ZERO for v in nums)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self._ints[0]) - 1

    def coeff(self, k: int) -> Fraction:
        if type(k) is not int:  # bool is not a degree
            raise ValueError(f"degree must be an int, got {k!r}")
        nums, den = self._ints
        v = nums[k] if 0 <= k < len(nums) else 0
        return Fraction(v, den) if v else _ZERO

    @property
    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def _key(self, frozen=False):
        return self._ints

    def _constant(self):
        return self.coeff(0) if self.degree < 1 else None

    # -- arithmetic on the integer form -------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            return UniPoly._trusted((c.numerator,) if c else (), c.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = self.integer_form(), o.integer_form()
        den = da if da == db else lcm(da, db)
        return UniPoly._trusted(_combine(a, den // da, b, den // db), den)

    def __neg__(self):
        nums, den = self.integer_form()
        return UniPoly._trusted(tuple(-x for x in nums), den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, da), (b, db) = self.integer_form(), o.integer_form()
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return UniPoly._trusted((), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                out[i:i + len(a)] = [u + x * y for u, x in zip(out[i:i + len(a)], a)]
        return UniPoly._trusted(tuple(out), da * db)

    def __call__(self, x) -> Fraction:
        """Integer Horner at x = p/q (`_horner`), one normalisation of
        acc / (den*q^d) at the end."""
        x = _q(x)
        nums, den = self._ints
        q, d = x.denominator, len(nums) - 1 if nums else 0
        return Fraction(_horner(nums, x.numerator, q, d), den * q ** d)

    def __divmod__(self, other):
        """Pseudo-division of the numerators: s*a = q*b + r gives
        a/da = (q*db / (s*da)) * (b/db) + r/(s*da)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        (a, da), (b, db) = self.integer_form(), o.integer_form()
        q, r, s = _pdivmod(a, b)
        return UniPoly._trusted(tuple(x * db for x in q), s * da), UniPoly._trusted(r, s * da)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_divide(self, other) -> "UniPoly":
        """Exact quotient self/other; raises ValueError if the division leaves a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("not divisible")
        return q

    # -- calculus and rigid motions ----------------------------------------

    def derivative(self, k: int = 1) -> "UniPoly":
        """k-th derivative; derivative(p, 0) = p."""
        if _order(k, "derivative order") == 0:
            return self
        nums, den = self.integer_form()
        return UniPoly._trusted(_derivative(nums, k), den)

    def shift(self, a) -> "UniPoly":
        """Return q with q(t) = self(t + a)."""
        return self.affine(a, 1)

    def affine(self, a, w) -> "UniPoly":
        """Return q with q(s) = self(a + w s): for a = mu/nu and w = g/h,
        q(s) is sum b_k (nu g)^k h^(d-k) s^k / (den (nu h)^d) with b from
        `_taylor`."""
        a, w = _q(a), _q(w)
        if (not a and w == 1) or self.is_zero:
            return self
        nums, den = self.integer_form()
        nu, g, h, d = a.denominator, w.numerator, w.denominator, len(nums) - 1
        b = _taylor(nums, a.numerator, nu)
        scaled = [c * (nu * g) ** k * h ** (d - k) for k, c in enumerate(b)]
        return UniPoly._trusted(_strip(scaled), den * (nu * h) ** d)

    def monic(self) -> "UniPoly":
        return _monic(self.integer_form()[0])

    def ord_at(self, xi) -> int:
        """Vanishing order at the rational point xi (0 if xi is not a root)."""
        if self.is_zero:
            raise ValueError("vanishing order of the zero polynomial is undefined")
        return next(k for k, c in enumerate(self.shift(xi).integer_form()[0]) if c)

    def to_string(self, var: str = "t") -> str:
        return _render_terms((c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
                             for k, c in reversed(list(enumerate(self.coeffs))) if c)


# -- gcd and squarefree structure ------------------------------------------


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor (gcd(0, 0) = 0), by the primitive
    remainder sequence of the numerators."""
    return _monic(_prs_gcd(f.integer_form()[0], g.integer_form()[0]))


def squarefree_decomposition(p: UniPoly):
    """Yun decomposition p = unit * prod f_i^i with the f_i monic, squarefree, coprime.

    Returns (unit, [(f_i, i), ...]) sorted by multiplicity; constants yield an
    empty factor list.  The decomposition is computed once per polynomial and
    kept on it; each call returns a fresh list.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    try:
        unit, layers = p._sqf
    except AttributeError:
        unit, layers = _yun(p)
        object.__setattr__(p, "_sqf", (unit, tuple(layers)))
    return unit, list(layers)


def _yun(p: UniPoly):
    """Yun on the primitive numerators of p, from b = p, d = p' (the first
    gcd, gcd(p, p'), is no layer).  Each b, d is one rational multiple of the
    monic run's and each divisor a primitive gcd, so every exact quotient has
    int coefficients (Gauss).  Layers are made monic once."""
    b = _primitive(p.integer_form()[0])
    d, out, i = _derivative(b), [], 0
    while len(b) > 1:
        f = _prs_gcd(b, d)
        if not i and len(f) == 1:  # p is squarefree: one layer
            return p.leading_coeff, [(_monic(b), 1)]
        b = _pdivmod(b, f)[0]
        d = _combine(_pdivmod(d, f)[0], 1, _derivative(b), -1)
        if i and len(f) > 1:
            out.append((_monic(f), i))
        i += 1
    return p.leading_coeff, out


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    return prod((f for f, _ in squarefree_decomposition(p)[1]), start=UniPoly.one())


# -- Sturm machinery ---------------------------------------------------------


def sturm_chain(q: UniPoly):
    """Sturm chain of a squarefree polynomial: q, q', then each negated
    remainder scaled to a leading coefficient of +-1."""
    chain = [q, q.derivative()]
    a, b = (_primitive(p.integer_form()[0]) for p in chain)
    while len(b) > 1:
        # positive multiples of the last two entries: so is the remainder
        a, b = b, _primitive(tuple(-x for x in _pdivmod(a, b)[1]))
        if not b:
            break
        chain.append(UniPoly._trusted(b, abs(b[-1])))
    return chain


def _sturm_chain_of(q: UniPoly):
    """sturm_chain(q), built once per polynomial.  q keeps the chain without
    its first entry: that entry is q itself, and would make a reference cycle."""
    try:
        tail = q._sturm
    except AttributeError:
        tail = tuple(sturm_chain(q)[1:])
        object.__setattr__(q, "_sturm", tail)
    return (q,) + tail


def _variations(chain, x) -> int:
    """Sign variations of the chain at x, each sign read off `_horner`: the
    value times den * q^d > 0."""
    x = _q(x)
    p, q = x.numerator, x.denominator
    vals = [_horner(c._ints[0], p, q, len(c._ints[0]) - 1) for c in chain]
    signs = [1 if v > 0 else -1 for v in vals if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate_ends(q: UniPoly, lo: Fraction, hi: Fraction):
    """(ends, quotient): the endpoints lo, hi that are roots of squarefree q,
    and q with those linear factors divided out."""
    ends = []
    for x in (lo, hi):
        if q.degree > 0 and q(x) == 0:
            ends.append(x)
            q = q.exact_divide(UniPoly((-x, 1)))
    return ends, q


def _layer_roots(q: UniPoly, lo: Fraction, hi: Fraction):
    """(ends, inner) for squarefree q: how many of lo, hi are roots (by the
    sign of `_horner`) and how many distinct roots lie in (lo, hi).  V(lo) -
    V(hi) on q's cached chain counts the roots in (lo, hi], root ends or not."""
    nums = q.integer_form()[0]
    at_lo, at_hi = (not _horner(nums, x.numerator, x.denominator, len(nums)) for x in (lo, hi))
    chain = _sturm_chain_of(q)
    return at_lo + at_hi, _variations(chain, lo) - _variations(chain, hi) - at_hi


def count_roots_with_multiplicity(p: UniPoly, s: Interval) -> int:
    """Total multiplicity of the roots of p in the closed interval s, exactly:
    each Yun layer's roots weighted by its multiplicity."""
    _, layers = squarefree_decomposition(p)
    return sum(mult * sum(_layer_roots(q, s.lo, s.hi)) for q, mult in layers)


def count_roots_interior(p: UniPoly, s: Interval) -> int:
    """Total multiplicity of the roots of p in the open interval (lo, hi).
    The Yun layers are squarefree and coprime, so each interior root of a
    layer is a root of p of the layer's multiplicity."""
    _, layers = squarefree_decomposition(p)
    return sum(mult * _layer_roots(q, s.lo, s.hi)[1] for q, mult in layers)


def _interior_nonroot(p: UniPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """Some interior rational point where p does not vanish."""
    n = p.degree + 2
    for k in range(1, n + 1):
        x = lo + (hi - lo) * Fraction(k, n + 1)
        if p(x) != 0:
            return x
    raise AssertionError("polynomial with more roots than its degree")


def is_nonnegative_on(p: UniPoly, s: Interval) -> bool:
    """Exact test for p >= 0 on the closed interval s.

    p is nonnegative on [lo, hi] iff it has no odd-multiplicity root strictly
    inside and is positive at one interior non-root point: an interior sign
    change forces an odd-order crossing, and endpoint negativity would create
    one by the intermediate value theorem.
    """
    if p.is_zero:
        return True
    _, layers = squarefree_decomposition(p)
    if any(mult % 2 and _layer_roots(q, s.lo, s.hi)[1] for q, mult in layers):
        return False
    return p(_interior_nonroot(p, s.lo, s.hi)) > 0


# -- root isolation ----------------------------------------------------------


class _RationalRoot(Exception):
    def __init__(self, x):
        self.x = x


def _split_point(q: UniPoly, a: Fraction, b: Fraction) -> Fraction:
    """The point a + (b - a) * floor(n/2)/n, n = 3(deg q + 2): the midpoint,
    or just left of it for odd n.  Raises _RationalRoot when it is a root of q."""
    n = 3 * (q.degree + 2)
    x = a + (b - a) * Fraction(n // 2, n)
    if q(x) == 0:
        raise _RationalRoot(x)
    return x


def isolate_roots(q: UniPoly, s: Interval):
    """Isolate the distinct real roots of squarefree q in the closed interval s.

    Returns RationalEnclosures sorted by lo: lo == hi marks an exact rational
    root; lo < hi marks an open interval with q(lo) != 0, q(hi) != 0
    containing exactly one root.  Rational roots discovered while splitting
    are deflated and the bisection restarts on the quotient.
    """
    if q.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = s.lo, s.hi
    exact, q = _deflate_ends(q, lo, hi)
    while True:
        if q.degree <= 0:
            intervals = []
            break
        chain = _sturm_chain_of(q)
        try:
            intervals = _bisect(q, chain, lo, hi, _variations(chain, lo), _variations(chain, hi))
            break
        except _RationalRoot as root:
            exact.append(root.x)
            q = q.exact_divide(UniPoly((-root.x, 1)))
    out = [RationalEnclosure(x, x) for x in exact] + intervals
    out.sort(key=lambda enc: enc.lo)
    return out


def _bisect(q, chain, a, b, va, vb):
    count = va - vb
    if count == 0:
        return []
    if count == 1:
        return [RationalEnclosure(a, b)]
    m = _split_point(q, a, b)
    vm = _variations(chain, m)
    return _bisect(q, chain, a, m, va, vm) + _bisect(q, chain, m, b, vm, vb)


def refine_isolating_interval(q: UniPoly, enc: RationalEnclosure,
                              max_width: Fraction) -> RationalEnclosure:
    """Shrink an isolating enclosure of squarefree q to width at most max_width.

    The input holds exactly one root, with q nonzero at both ends unless it
    is already exact; the result is exact (lo == hi) when a split point hits
    the root.
    """
    max_width = _q(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    u, v = enc.lo, enc.hi
    chain = _sturm_chain_of(q)
    while v - u > max_width:
        try:
            m = _split_point(q, u, v)
        except _RationalRoot as root:
            return RationalEnclosure(root.x, root.x)
        if _variations(chain, u) - _variations(chain, m) == 1:
            v = m
        else:
            u = m
    return RationalEnclosure(u, v)


def derivative_bound(p: UniPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """Upper bound for |p'| on [lo, hi].

    Taylor expansion of p' around the interval midpoint m (exact, the sum is
    finite): |p'(x)| <= sum_k |p'^(k)(m)| / k! * r^k for |x - m| <= r.  The
    bound shrinks with the interval, which keeps branch-and-bound pruning
    effective near flat minima.  With p' = sum c_j t^j / den of degree e,
    m = mu/nu, r = rho/sigma and b = _taylor(c, mu, nu), the bound is
    sum_k |b_k|*nu^k*rho^k*sigma^(e-k) / (den*nu^e*sigma^e).
    """
    lo, hi = _q(lo), _q(hi)
    nums, den = p.integer_form()
    m, r = (lo + hi) / 2, (hi - lo) / 2
    nu, rho, sigma = m.denominator, r.numerator, r.denominator
    b = _taylor(_derivative(nums), m.numerator, nu)
    if not b:
        return _ZERO
    total, sk = 0, 1
    for bk in reversed(b):
        total = total * (nu * rho) + abs(bk) * sk
        sk *= sigma
    return Fraction(total, den * (nu * sigma) ** (len(b) - 1))
