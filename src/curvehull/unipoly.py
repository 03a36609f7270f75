"""Dense univariate polynomials over exact rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`,
root counting runs Sturm chains on squarefree parts, and sign questions on
closed intervals are decided symbolically.  No floating point anywhere.
Evaluation and the Taylor derivative bound run on Python integers: each
polynomial caches its coefficients over their common denominator.  Each
polynomial also caches its Yun squarefree decomposition, so the root counts,
the nonnegativity test and the factoring of one polynomial share one run,
and its Sturm chain, so isolation and every refinement share one chain.
The counts and the test take one Sturm count per layer, after dividing out
the layer's endpoint roots.  Domains are `Interval`s (lo < hi); root
isolation returns `RationalEnclosure`s (lo <= hi), where an exact root is an
enclosure of width 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):  # numpy.float64 too; Fraction refuses the other numpy floats
        raise TypeError(f"a float is not an exact rational: {x!r}")
    return Fraction(x)


def _positive_int(value, name: str) -> int:
    if type(value) is not int or value < 1:  # bool is not a count
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
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
    constant equals, and hashes like, its coefficient.  A subclass supplies
    the layout: `_coerce(other)` (the polynomial, or None for any other
    operand), `_key(frozen)` (what equality compares, hashable when frozen),
    `_constant()` (the value of a constant polynomial, else None), `is_zero`,
    `__add__`, `__neg__`, `__mul__` and `to_string`."""

    __slots__ = ()

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        if k < 0:
            raise ValueError("negative power")
        result, base = self._coerce(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()})"


class UniPoly(_Poly):
    """Univariate polynomial with Fraction coefficients, dense by degree.

    Instances are immutable; all operations return new polynomials. The zero
    polynomial has an empty coefficient tuple and degree -1.  The integer
    form (see `integer_form`), the squarefree decomposition (see
    `squarefree_decomposition`) and the Sturm chain (see `_sturm_chain_of`)
    are filled on first use, so construction does no extra work.
    """

    __slots__ = ("coeffs", "_ints", "_sqf", "_sturm")

    def __init__(self, coeffs=()):
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def integer_form(self):
        """(numerators, den): den is the positive lcm of the coefficient
        denominators and coeffs[k] == numerators[k] / den."""
        try:
            return self._ints
        except AttributeError:
            ints = _over_lcm(self.coeffs)
            object.__setattr__(self, "_ints", ints)
            return ints

    def _key(self, frozen=False):
        return self.coeffs

    def _constant(self):
        return self.coeff(0) if len(self.coeffs) < 2 else None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly([self.coeff(k) + o.coeff(k) for k in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] += a * b
        return UniPoly(out)

    def __call__(self, x) -> Fraction:
        """Integer Horner at x = p/q: acc <- acc*p + c_k*q^(d-k), one
        normalisation of acc / (den*q^d) at the end."""
        x = _q(x)
        nums, den = self.integer_form()
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = nums[-1]
        qk = 1
        for c in reversed(nums[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, den * qk)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(o.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead, deg = o.leading_coeff, o.degree
        for k in reversed(range(len(q))):
            f = rem[k + deg] / lead
            if f:
                q[k] = f
                for j, c in enumerate(o.coeffs):
                    rem[k + j] -= f * c
        return UniPoly(q), UniPoly(rem)

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
        if k < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(k):
            p = UniPoly([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def shift(self, a) -> "UniPoly":
        """Return q with q(t) = self(t + a)."""
        a = _q(a)
        if a == 0:
            return self
        acc = UniPoly.zero()
        x_plus_a = UniPoly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * x_plus_a + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.leading_coeff
        return UniPoly([c / lc for c in self.coeffs])

    def ord_at(self, xi) -> int:
        """Vanishing order at the rational point xi (0 if xi is not a root)."""
        if self.is_zero:
            raise ValueError("vanishing order of the zero polynomial is undefined")
        return next(k for k, c in enumerate(self.shift(xi).coeffs) if c)

    def to_string(self, var: str = "t") -> str:
        return _render_terms((c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
                             for k, c in reversed(list(enumerate(self.coeffs))) if c)


# -- gcd and squarefree structure ------------------------------------------


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor (gcd(0, 0) = 0)."""
    a, b = f, g
    while b:
        a, b = b, (a % b).monic()
    return a.monic()


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
        _set_squarefree_decomposition(p, unit, layers)
    return unit, list(layers)


def _set_squarefree_decomposition(p: UniPoly, unit, layers) -> None:
    """Store (unit, layers) as the decomposition of p; callers that already
    know it (an irreducible monic factor is (1, [(h, 1)])) skip Yun."""
    object.__setattr__(p, "_sqf", (unit, tuple(layers)))


def _yun(p: UniPoly):
    unit = p.leading_coeff
    a = p.monic()
    if a.degree == 0:
        return unit, []
    g = poly_gcd(a, a.derivative())
    if g.degree == 0:
        return unit, [(a, 1)]
    b = a.exact_divide(g)
    d = a.derivative().exact_divide(g) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        b = b.exact_divide(f)
        d = d.exact_divide(f) - b.derivative()
        if f.degree > 0:
            out.append((f, i))
        i += 1
    return unit, out


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    _, factors = squarefree_decomposition(p)
    out = UniPoly.one()
    for f, _ in factors:
        out = out * f
    return out


# -- Sturm machinery ---------------------------------------------------------


def sturm_chain(q: UniPoly):
    """Sturm chain of a squarefree polynomial (positive scalings only)."""
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        rem = -(chain[-2] % chain[-1])
        if rem.is_zero:
            break
        lc = abs(rem.leading_coeff)
        chain.append(UniPoly([c / lc for c in rem.coeffs]))
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
    vals = [p(x) for p in chain]
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
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
    """(ends, inner) for squarefree q: how many of lo, hi are roots, and how
    many distinct roots lie in (lo, hi), by one Sturm chain on the deflated q."""
    ends, q = _deflate_ends(q, lo, hi)
    if q.degree <= 0:
        return len(ends), 0
    chain = _sturm_chain_of(q)
    return len(ends), _variations(chain, lo) - _variations(chain, hi)


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

    Taylor expansion of p' around the interval midpoint (exact, the sum is
    finite): |p'(x)| <= sum_k |p'^(k)(m)| / k! * r^k for |x - m| <= r.  The
    bound shrinks with the interval, which keeps branch-and-bound pruning
    effective near flat minima.

    Computed in integers: with p' = sum_j c_j t^j / den of degree e and
    m = mu/nu, the coefficients c_j*nu^(e-j) are Taylor-shifted to mu by
    synthetic division, giving b_k with p'^(k)(m)/k! = b_k*nu^k / (den*nu^e);
    with r = rho/sigma the bound is
    sum_k |b_k|*nu^k*rho^k*sigma^(e-k) / (den*nu^e*sigma^e).
    """
    lo, hi = _q(lo), _q(hi)
    nums, den = p.integer_form()
    e = len(nums) - 2
    if e < 0:
        return Fraction(0)
    m = (lo + hi) / 2
    r = (hi - lo) / 2
    mu, nu = m.numerator, m.denominator
    rho, sigma = r.numerator, r.denominator
    b = [j * nums[j] * nu ** (e + 1 - j) for j in range(1, e + 2)]
    if mu:
        for i in range(e):
            for j in range(e - 1, i - 1, -1):
                b[j] += mu * b[j + 1]
    total = 0
    sk = 1
    for bk in reversed(b):
        total = total * (nu * rho) + abs(bk) * sk
        sk *= sigma
    return Fraction(total, den * (nu * sigma) ** e)
