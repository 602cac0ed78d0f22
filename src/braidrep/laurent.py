"""Exact arithmetic in Z[t, t^-1] and its fraction field Q(t).

``LaurentPoly`` stores a sparse exponent -> coefficient map with integer
coefficients; the map never contains zeros, so structural equality is ring
equality and hashing is sound.  ``SymPoly`` shares this core with monomial
keys: ``_Sparse`` holds the term-map methods, and ``_summing`` and
``_product`` make ``+``, ``-`` and ``*``, one loop each.  ``RationalFunction``
keeps a reduced numerator/denominator pair in a canonical form (denominator
has lowest exponent 0 and positive lowest coefficient).  Constants compare
equal to the ``int`` or ``Fraction`` they stand for, and hash like it.
Specializing t at a nonzero rational lands in ``fractions.Fraction``.

The gcd is only taken where it can cancel something.  A denominator that is
a unit +-t^k has a unit gcd with any numerator, so it is folded into the
numerator, leaving denominator 1.  Sums and products of two values with
denominator 1 are Laurent sums and products, which need no reduction either.
Every other pair is reduced by ``laurent_gcd``; each path gives the one
canonical form, so equality and hashing do not depend on the path taken.

``rational_roots`` finds the rational roots of a polynomial over Q on one
path for every degree: bisection between critical points, no trial division.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import ZeroSpecialization

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "T",
    "ZERO",
    "ONE",
    "laurent_gcd",
    "parse_laurent",
    "rational_roots",
]


class _Sparse:
    """The term map of ``LaurentPoly`` and ``SymPoly``: ``terms`` maps keys
    (exponents or monomials) to nonzero coefficients, the constant term at
    the key ``_CONST``.  Each subclass binds its own ``+`` and ``*``."""

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, terms: dict):
        """The polynomial with these terms, each a nonzero coefficient, as they are."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return self._of({key: -c for key, c in self.terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __hash__(self):
        # Constants compare equal to their coefficient, so they hash like it.
        if self.terms.keys() <= {self._CONST}:
            return hash(self.terms.get(self._CONST, 0))
        return hash(frozenset(self.terms.items()))


def _summing(minus: bool):
    """``+`` (or ``-`` when ``minus``) of a ``_Sparse`` type.  One pass over
    the right operand folds each coefficient in with its sign and drops the
    keys that cancel, so a difference forms no negated copy."""

    def op(self, other):
        cls = type(self)
        try:
            other = cls.coerce(other)
        except TypeError:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key)
            if acc is None:
                terms[key] = -c if minus else c
            elif total := acc - c if minus else acc + c:
                terms[key] = total
            else:
                del terms[key]
        return cls._of(terms)

    return op


def _product(combine):
    """``*`` of a ``_Sparse`` type, ``combine`` giving the key of the product
    of two terms.  One pass over the pairs of terms folds each product in
    and drops the keys that cancel."""

    def op(self, other):
        cls = type(self)
        try:
            other = cls.coerce(other)
        except TypeError:
            return NotImplemented
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = combine(k1, k2)
                prod = c1 * c2
                acc = terms.get(key)
                if acc is None:
                    terms[key] = prod
                elif total := acc + prod:
                    terms[key] = total
                else:
                    del terms[key]
        return cls._of(terms)

    return op


def _rational_sum(combine):
    """``RationalFunction``'s ``+`` or ``-``, as ``combine`` is ``operator.add``
    or ``operator.sub``: a/b +- c/d = (a*d +- c*b)/(b*d), reduced unless
    b = d = 1."""

    def op(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._canonical(combine(self.num, other.num))
        return RationalFunction(combine(self.num * other.den, other.num * self.den),
                                self.den * other.den)

    return op


class LaurentPoly(_Sparse):
    """Sparse Laurent polynomial over the integers.

    >>> p = (T + 1) * (T - 1)
    >>> str(p)
    't^2 - 1'
    >>> p == LaurentPoly({2: 1, 0: -1})
    True
    >>> (T ** -3).is_unit()
    True
    """

    __slots__ = ()
    _CONST = 0

    def __init__(self, terms=None):
        data = {}
        if terms:
            for exp, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficients must be integers, got {coeff!r}")
                if coeff:
                    data[int(exp)] = coeff
        object.__setattr__(self, "terms", data)

    # -- constructors --------------------------------------------------

    @staticmethod
    def coerce(value) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({0: value})
        raise TypeError(f"cannot coerce {value!r} into the Laurent ring")

    # -- structure -----------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def is_unit(self) -> bool:
        """Units of Z[t, t^-1] are exactly the monomials with coefficient +-1."""
        if len(self.terms) != 1:
            return False
        ((_, c),) = self.terms.items()
        return c in (1, -1)

    def inverse_unit(self) -> LaurentPoly:
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        ((e, c),) = self.terms.items()
        return LaurentPoly({-e: c})

    def degree(self):
        """Largest exponent, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def valuation(self):
        """Smallest exponent, or None for the zero polynomial."""
        return min(self.terms) if self.terms else None

    def content(self) -> int:
        return math.gcd(*self.terms.values())

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    # -- arithmetic ------------------------------------------------------

    __add__ = __radd__ = _summing(minus=False)
    __sub__ = _summing(minus=True)
    __mul__ = __rmul__ = _product(operator.add)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse_unit() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other) -> LaurentPoly:
        """Exact division in the ring; raises ValueError when the quotient
        would leave Z[t, t^-1]."""
        other = LaurentPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        if other.is_unit():
            # A shift and a sign: no dense form, whose length is the exponent span.
            ((k, sign),) = other.terms.items()
            return LaurentPoly._of({e - k: sign * c for e, c in self.terms.items()})
        va, vb = self.valuation(), other.valuation()
        if other.degree() - vb > self.degree() - va:
            # A wider divisor divides nothing nonzero: refused before the
            # dense forms, whose length is the exponent span.
            raise ValueError(f"({self}) is not an exact multiple of ({other})")
        a = _dense(self)
        b = _dense(other)
        qdeg = len(a) - len(b)
        lead = b[-1]
        rem = a[:]
        quo = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            c = rem[k + len(b) - 1]
            if c % lead:
                raise ValueError(f"({self}) is not an exact multiple of ({other})")
            q = c // lead
            quo[k] = q
            if q:
                for j, bj in enumerate(b):
                    rem[k + j] -= q * bj
        if any(rem):
            raise ValueError(f"({self}) is not an exact multiple of ({other})")
        return LaurentPoly({k + va - vb: c for k, c in enumerate(quo) if c})

    # -- specialization --------------------------------------------------

    def evaluate(self, t0) -> Fraction:
        """Value at a nonzero rational t0."""
        t0 = Fraction(t0)
        if t0 == 0:
            raise ZeroSpecialization("t may not be specialized to 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * t0 ** e
        return total

    # -- comparison / text -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int) or isinstance(other, Fraction) and other.denominator == 1:
            return self.terms == LaurentPoly({0: int(other)}).terms
        return NotImplemented

    __hash__ = _Sparse.__hash__

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if mag == 1 else f"{mag}*{tpart}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})


def _dense(p: LaurentPoly) -> list[int]:
    """Coefficient list of p shifted to valuation 0."""
    v = p.valuation()
    d = p.degree()
    out = [0] * (d - v + 1)
    for e, c in p.terms.items():
        out[e - v] = c
    return out


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive_rem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the pseudo-remainder of a by b, dense integer
    lists lowest power first, or [] when b divides a: one step of Euclid
    over Q that stays in Z and strips the content, so the coefficients do
    not swell as a Euclid over ``Fraction`` lets them."""
    a = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(a) > db:
        top = a.pop()
        if top:
            off = len(a) - db
            if lead != 1:
                a = [lead * c for c in a]
            for j in range(db):
                a[off + j] -= top * b[j]
    a = _trim(a)
    return _primitive(a) if a else a


def _primitive(coeffs: list[Fraction]) -> list[int]:
    """Scale a nonzero rational polynomial to a primitive integer polynomial
    with positive leading coefficient."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _value(h: list[int], x: int) -> int:
    """h (integer coefficients, highest power first) at the integer x."""
    out = 0
    for c in h:
        out = out * x + c
    return out


def _floors(h: list[int]) -> set[int]:
    """Integers holding the floor of every real root of h (integer
    coefficients, highest power first).  The roots lie in (-bound, bound),
    cut at k and k + 1 for the floors k of the roots of h'.  On a piece
    wider than 1, h is monotone, so it has a root inside only where its ends
    differ in sign, narrowed to width 1 by bisection.  A piece of width 1,
    or one starting at a root, keeps its lower end."""
    if len(h) < 2:
        return set()
    bound = 1 + max(map(abs, h))
    cuts = {-bound, bound}
    for k in _floors([c * (len(h) - 1 - i) for i, c in enumerate(h[:-1])]):
        cuts.update((k, k + 1))
    points = sorted(cuts)
    values = [_value(h, x) for x in points]
    out = set()
    for p, q, hp, hq in zip(points, points[1:], values, values[1:]):
        if hp * hq < 0:
            while q - p > 1:
                m = (p + q) // 2
                p, q = (m, q) if _value(h, m) * hq <= 0 else (p, m)
        if not hp or q - p == 1:
            out.add(p)
    return out


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of the nonzero polynomial with the given
    coefficients (highest power first), sorted and without repeats, on one
    path for every degree.  Once f = a_0*x^d + ... + a_d is primitive over
    Z, the monic g(y) = a_0^(d-1)*f(y/a_0) has only integer rational roots
    y, each giving the root y/a_0 of f; ``_floors`` finds their candidates
    in a number of evaluations of g polynomial in the coefficients' bits."""
    f = _primitive(coeffs[::-1])[::-1]
    g = [1] + [c * f[0] ** i for i, c in enumerate(f[1:])]
    return sorted(Fraction(y, f[0]) for y in _floors(g) if not _value(g, y))


def laurent_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """A gcd in Z[t, t^-1], canonicalized to valuation 0 with positive
    leading coefficient.  Includes the integer content, so e.g.
    laurent_gcd(2, 4*t) == 2."""
    if f.is_zero() and g.is_zero():
        return ZERO
    cont = math.gcd(f.content(), g.content())
    if len(f.terms) == 1 or len(g.terms) == 1:
        # c*t^k is c times a unit, so only the integer contents meet; no
        # dense form, whose length is the other operand's exponent span.
        return LaurentPoly({0: cont})
    # A zero operand is the empty coefficient list, which any divisor leaves as [].
    a, b = (_primitive(_dense(p)) if p else [] for p in (f, g))
    while b:
        a, b = b, _primitive_rem(a, b)
    return LaurentPoly({e: c * cont for e, c in enumerate(a) if c})


class RationalFunction:
    """Element of Q(t) as a reduced fraction of Laurent polynomials.

    The canonical form has gcd(num, den) a unit, den with lowest exponent 0
    and positive lowest-degree coefficient, so structural equality is field
    equality.

    >>> RationalFunction(T ** 2 - 1, T + 1)
    RationalFunction('t - 1')
    >>> str(RationalFunction(ONE, 2 * T))
    '(t^-1)/(2)'
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = LaurentPoly.coerce(num)
        den = LaurentPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num.is_zero():
            num, den = ZERO, ONE
        elif den.is_unit():
            # A gcd with a unit is a unit: nothing cancels.
            if not den.is_one():
                num = num * den.inverse_unit()
            den = ONE
        else:
            g = laurent_gcd(num, den)
            if not g.is_unit():
                num = num.exact_div(g)
                den = den.exact_div(g)
            shift = -den.valuation()
            num = num.shifted(shift)
            den = den.shifted(shift)
            if den.terms[0] < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num: LaurentPoly, den: LaurentPoly = ONE) -> RationalFunction:
        """Wrap a pair that is already in canonical form, skipping the gcd."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def coerce(value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, LaurentPoly)):
            return RationalFunction(value)
        if isinstance(value, Fraction):
            return RationalFunction(
                LaurentPoly.coerce(value.numerator),
                LaurentPoly.coerce(value.denominator),
            )
        raise TypeError(f"cannot coerce {value!r} into Q(t)")

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self) -> bool:
        """True when the reduced denominator is a unit, i.e. the value lies
        in Z[t, t^-1] up to the unit."""
        return self.den.is_unit()

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self.num * self.den.inverse_unit()

    # -- arithmetic --------------------------------------------------------

    __add__ = __radd__ = _rational_sum(operator.add)
    __sub__ = _rational_sum(operator.sub)

    def __neg__(self):
        return RationalFunction._canonical(-self.num, self.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._canonical(self.num * other.num)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(t)")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverting zero in Q(t)")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def evaluate(self, t0) -> Fraction:
        top = self.num.evaluate(t0)
        bottom = self.den.evaluate(t0)
        if bottom == 0:
            raise ZeroDivisionError(f"denominator {self.den} vanishes at t = {t0}")
        return top / bottom

    # -- comparison / text ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            if not isinstance(other, (int, LaurentPoly, Fraction)):
                return NotImplemented
            other = RationalFunction.coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # Values equal to a LaurentPoly or a Fraction hash like it.
        if self.den.is_one():
            return hash(self.num)
        if self.num.terms.keys() <= {0} and self.den.terms.keys() <= {0}:
            return hash(Fraction(self.num.terms[0], self.den.terms[0]))
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction('{self}')"


RF_ONE = RationalFunction(1)


_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?")


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the rendering produced by ``str(LaurentPoly)``.

    Accepts e.g. '0', '-t', '2*t^3 - 1', 't^-2 + 4'.  Whitespace around
    '+'/'-' is ignored; every other deviation is an error.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError(f"empty Laurent literal: {text!r}")
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad Laurent literal: {text!r}")
        sign, coeff, tpart, exp = m.groups()
        if coeff is None and tpart is None:
            raise ValueError(f"bad Laurent literal: {text!r}")
        if not first and sign == "":
            raise ValueError(f"missing sign between terms: {text!r}")
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        if tpart is None:
            e = 0
        else:
            e = int(exp) if exp is not None else 1
        terms[e] = terms.get(e, 0) + c
        pos = m.end()
        first = False
    return LaurentPoly(terms)
