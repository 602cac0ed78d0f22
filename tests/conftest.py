"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from braidrep import RationalFunction


@pytest.fixture(scope="session")
def sympy():
    """sympy as an independent reference (a test-only dependency)."""
    return pytest.importorskip("sympy")


@pytest.fixture(scope="session")
def to_sympy(sympy):
    """Converter of a Laurent, Q(t) or Q value into a sympy expression in t."""
    t = sympy.Symbol("t")

    def convert(value):
        f = RationalFunction.coerce(value)
        num, den = (sum((c * t ** e for e, c in p.terms.items()), sympy.Integer(0))
                    for p in (f.num, f.den))
        return num / den

    return convert
