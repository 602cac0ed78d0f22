"""Polynomials in named unknowns with coefficients in Q(t).

``SymPoly`` is the sparse multivariate polynomial type of the solver: it
holds the matrix-relation constraints, linear or not, and the solved
bindings.  A monomial is a sorted tuple of (name, power) pairs, the empty
tuple being the constant monomial.  The term map, ``+``, ``-`` and ``*``
are ``laurent``'s sparse core, with the monomial product on keys.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import RF_ONE, LaurentPoly, RationalFunction, _product, _Sparse, _summing
from .matrix import EntryDomain

__all__ = ["SymPoly", "SYMBOLIC"]

Mono = tuple


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    powers: dict[str, int] = dict(m1)
    for name, k in m2:
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted(powers.items()))


def _mono_degree(m: Mono) -> int:
    return sum(k for _, k in m)


class SymPoly(_Sparse):
    """Sparse polynomial in named unknowns over Q(t)."""

    __slots__ = ()
    _CONST = ()

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = RationalFunction.coerce(coeff)
                if not coeff.is_zero():
                    data[mono] = coeff
        object.__setattr__(self, "terms", data)

    @classmethod
    def const(cls, value) -> SymPoly:
        return cls({(): RationalFunction.coerce(value)})

    @classmethod
    def symbol(cls, name: str) -> SymPoly:
        return cls({((name, 1),): RF_ONE})

    @staticmethod
    def coerce(value) -> SymPoly:
        if isinstance(value, SymPoly):
            return value
        if isinstance(value, (int, Fraction, LaurentPoly, RationalFunction)):
            return SymPoly.const(value)
        raise TypeError(f"cannot coerce {value!r} into a symbolic polynomial")

    # -- structure ---------------------------------------------------------

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def degree(self) -> int:
        """Total degree in the unknowns; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    # -- arithmetic -----------------------------------------------------------

    __add__ = __radd__ = _summing(minus=False)
    __sub__ = _summing(minus=True)
    __mul__ = __rmul__ = _product(_mono_mul)

    def substitute(self, mapping: dict[str, "SymPoly"]) -> SymPoly:
        """Replace unknowns by polynomials; unmapped names stay symbolic."""
        out = SymPoly()
        for mono, coeff in self.terms.items():
            term = SymPoly.const(coeff)
            for name, power in mono:
                # Test membership: a binding to the zero polynomial is falsy.
                factor = mapping[name] if name in mapping else SymPoly.symbol(name)
                for _ in range(power):
                    term = term * factor
            out = out + term
        return out

    # -- comparison / text -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly, RationalFunction)):
            other = SymPoly.const(other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = _Sparse.__hash__

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (-_mono_degree(m), m)):
            coeff = self.terms[mono]
            body = "*".join(
                name if k == 1 else f"{name}^{k}" for name, k in mono
            )
            if not body:
                pieces.append(str(coeff))
            elif coeff.is_one():
                pieces.append(body)
            elif (-coeff).is_one():
                pieces.append(f"-{body}")
            elif coeff.den.is_one() and len(coeff.num.terms) == 1:
                # A monomial coefficient follows its unknowns, its sign in front.
                sign = "-" if coeff.num.terms[coeff.num.degree()] < 0 else ""
                pieces.append(f"{sign}{body}*{-coeff if sign else coeff}")
            else:
                pieces.append(f"{body}*({coeff})")
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"SymPoly('{self}')"


def _sym_is_unit(p: SymPoly) -> bool:
    return set(p.terms) == {()} and not p.terms[()].is_zero()


def _sym_exact_div(a: SymPoly, b: SymPoly) -> SymPoly:
    if not _sym_is_unit(b):
        raise ValueError("symbolic division is only available by nonzero constants")
    inv = RationalFunction(1) / b.terms[()]
    return SymPoly({m: c * inv for m, c in a.terms.items()})


SYMBOLIC = EntryDomain(
    name="symbolic",
    zero=SymPoly(),
    one=SymPoly.const(1),
    is_field=False,
    coerce=SymPoly.coerce,
    is_unit=_sym_is_unit,
    exact_div=_sym_exact_div,
)

