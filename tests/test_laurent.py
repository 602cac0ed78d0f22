"""Exact arithmetic in Z[t, t^-1] and Q(t)."""

from __future__ import annotations

import doctest
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import (
    LaurentPoly,
    RationalFunction,
    SymPoly,
    laurent_gcd,
    parse_laurent,
)
from braidrep import laurent
from braidrep.errors import ZeroSpecialization
from braidrep.laurent import ONE, T, ZERO

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)
signed_units = st.builds(lambda e, s: LaurentPoly({e: s}), exps, st.sampled_from((1, -1)))
points = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
).filter(lambda q: q != 0)


def test_canonical_form_drops_zero_coefficients():
    p = LaurentPoly({2: 1, 0: 0, -1: 3})
    assert set(p.terms) == {2, -1}
    assert LaurentPoly({0: 0}) == ZERO
    assert LaurentPoly({0: 1}) == ONE


def test_coercion_and_equality():
    assert LaurentPoly.coerce(5) == LaurentPoly({0: 5})
    assert T + 1 == LaurentPoly({1: 1, 0: 1})
    assert 2 * T == T + T
    assert 3 - T == LaurentPoly({0: 3, 1: -1})
    with pytest.raises(TypeError):
        LaurentPoly.coerce(1.5)


@given(polys, polys, polys)
@settings(max_examples=200)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ZERO == f
    assert f * ONE == f
    assert f - f == ZERO


@given(polys, polys, points)
def test_evaluation_is_a_ring_homomorphism(f, g, t0):
    assert (f + g).evaluate(t0) == f.evaluate(t0) + g.evaluate(t0)
    assert (f * g).evaluate(t0) == f.evaluate(t0) * g.evaluate(t0)


def test_evaluation_rejects_zero():
    with pytest.raises(ZeroSpecialization):
        (T + 1).evaluate(0)


def test_units_are_signed_monomials():
    assert T.is_unit()
    assert (-(T ** -3)).is_unit()
    assert not (T + 1).is_unit()
    assert not LaurentPoly({0: 2}).is_unit()
    assert T.shifted(2) * T.shifted(2).inverse_unit() == ONE
    with pytest.raises(ValueError):
        (T + 1).inverse_unit()


def test_degree_valuation_content_shift():
    p = LaurentPoly({3: 4, -2: 6})
    assert p.degree() == 3
    assert p.valuation() == -2
    assert p.content() == 2
    assert p.shifted(2) == LaurentPoly({5: 4, 0: 6})
    assert ZERO.degree() is None and ZERO.valuation() is None


@given(polys, st.one_of(polys, signed_units))
def test_exact_division_inverts_multiplication(f, g):
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.exact_div(g)
    else:
        assert (f * g).exact_div(g) == f


def test_exact_division_rejects_non_multiples():
    with pytest.raises(ValueError):
        (T + 1).exact_div(T - 1)
    with pytest.raises(ValueError):
        ONE.exact_div(LaurentPoly({0: 2}))


def test_gcd_examples():
    f = (T + 1) * (T - 1)
    g = (T + 1) * (T + 2)
    d = laurent_gcd(f, g)
    assert f.exact_div(d) * d == f
    assert g.exact_div(d) * d == g
    assert d.exact_div(T + 1) * (T + 1) == d


@given(polys, polys)
@settings(max_examples=60)
def test_gcd_divides_both_arguments(f, g):
    d = laurent_gcd(f, g)
    if d.is_zero():
        assert f.is_zero() and g.is_zero()
    else:
        assert f.exact_div(d) * d == f
        assert g.exact_div(d) * d == g


@given(polys)
def test_parse_inverts_str(p):
    assert parse_laurent(str(p)) == p


def test_parse_laurent_forms():
    assert parse_laurent("t^2 - 3t + 1") == LaurentPoly({2: 1, 1: -3, 0: 1})
    assert parse_laurent("-t^-1") == LaurentPoly({-1: -1})
    assert parse_laurent("0") == ZERO
    assert parse_laurent("2*t") == LaurentPoly({1: 2})


def test_rational_function_normalization():
    r = RationalFunction(T ** 2 - T, T ** 3)
    assert r.den.valuation() == 0
    assert r.den.terms[0] > 0
    assert r == RationalFunction(T - 1, T ** 2)
    again = RationalFunction(r.num, r.den)
    assert again.num == r.num and again.den == r.den


def test_rational_function_laurent_detection():
    assert RationalFunction(T + 1, T).is_laurent()
    assert RationalFunction(T + 1, T).as_laurent() == ONE + T ** -1
    assert not RationalFunction(ONE, T + 1).is_laurent()
    with pytest.raises(ValueError):
        RationalFunction(ONE, T + 1).as_laurent()


@given(polys, polys, polys, polys)
@settings(max_examples=100)
def test_rational_arithmetic_matches_fraction_arithmetic(a, b, c, d):
    if b.is_zero() or d.is_zero():
        return
    x = RationalFunction(a, b)
    y = RationalFunction(c, d)
    t0 = Fraction(7, 3)
    if b.evaluate(t0) == 0 or d.evaluate(t0) == 0:
        return
    assert (x + y).evaluate(t0) == x.evaluate(t0) + y.evaluate(t0)
    assert (x * y).evaluate(t0) == x.evaluate(t0) * y.evaluate(t0)
    assert (x - y).evaluate(t0) == x.evaluate(t0) - y.evaluate(t0)
    if not y.is_zero() and y.evaluate(t0) != 0:
        assert (x / y).evaluate(t0) == x.evaluate(t0) / y.evaluate(t0)


def test_rational_division_and_powers():
    r = RationalFunction(ONE, T + 1)
    assert r * (T + 1) == RationalFunction.coerce(1)
    assert r ** -1 == RationalFunction.coerce(T + 1)
    with pytest.raises(ZeroDivisionError):
        r / 0


def test_rational_coerce_accepts_fractions():
    half = RationalFunction.coerce(Fraction(1, 2))
    assert half + half == RationalFunction.coerce(1)


def test_constants_hash_like_the_numbers_they_equal():
    assert LaurentPoly({0: 5}) == 5
    assert LaurentPoly({0: 5}) in {5}
    assert ZERO in {0} and 0 in {ZERO}
    half = RationalFunction.coerce(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert half in {Fraction(1, 2)}
    assert RationalFunction(2, 4) in {Fraction(1, 2)}
    assert RationalFunction(-3) in {-3, LaurentPoly({0: 7})}
    assert RationalFunction(T + 1) in {T + 1}


def test_laurent_constants_equal_the_fractions_they_hash_like():
    two = LaurentPoly({0: 2})
    assert two == Fraction(2) and Fraction(2) == two
    assert two != Fraction(5, 2) and Fraction(5, 2) != two
    assert LaurentPoly({0: 5}) != Fraction(5, 2)
    assert ZERO == Fraction(0) and T != Fraction(1)
    assert len({two, Fraction(2)}) == 1
    assert len({Fraction(2), RationalFunction(2), two, SymPoly.const(2)}) == 1


@given(polys, polys)
def test_equal_values_hash_equal(p, q):
    constant = p.terms.get(0, 0)
    if p == constant:
        assert hash(p) == hash(constant)
    if q.is_zero():
        return
    r = RationalFunction(p, q)
    constant = r.num.terms.get(0, 0)
    for other in (r.num, constant, Fraction(constant, r.den.terms[0])):
        if r == other:
            assert hash(r) == hash(other)


def test_module_docstring_examples_pass():
    result = doctest.testmod(laurent)
    assert result.attempted > 0
    assert result.failed == 0


# Denominators of every shape the arithmetic distinguishes: exactly 1, a
# signed unit +-t^k (reduced without a gcd), and a non-unit such as 2 or t + 1.
non_units = polys.filter(lambda p: not p.is_zero() and not p.is_unit())
denominators = st.one_of(st.just(ONE), signed_units, non_units)


def assert_canonical(r: RationalFunction):
    assert r.den.valuation() == 0
    assert r.den.terms[0] > 0
    assert laurent_gcd(r.num, r.den).is_unit()
    if r.num.is_zero():
        assert r.den == ONE


def assert_same(x: RationalFunction, y: RationalFunction):
    assert (x.num, x.den) == (y.num, y.den)
    assert hash(x) == hash(y)


@given(polys, denominators, polys, denominators)
@settings(max_examples=150)
def test_rational_arithmetic_keeps_the_canonical_form(a, b, c, d):
    x, y = RationalFunction(a, b), RationalFunction(c, d)
    assert_canonical(x)
    assert_canonical(y)
    results = [
        (x + y, RationalFunction(a * d + c * b, b * d)),
        (x - y, RationalFunction(a * d - c * b, b * d)),
        (x * y, RationalFunction(a * c, b * d)),
    ]
    if not c.is_zero():
        results.append((x / y, RationalFunction(a * d, b * c)))
    for got, rebuilt in results:
        assert_canonical(got)
        # The same value reached by arithmetic and by one reduction of the
        # unreduced pair is the same structure, with the same hash.
        assert_same(got, rebuilt)
    assert_same(x + y, y + x)
    assert_same(x * y, y * x)
    assert_same((x + y) - y, x)
    assert_same(-(-x), x)
    assert_same(x + 3, RationalFunction(a + 3 * b, b))
    assert_same(3 * x, RationalFunction(3 * a, b))


@given(polys, signed_units)
def test_unit_denominators_fold_into_the_numerator(p, u):
    assert_same(RationalFunction(p * u, u), RationalFunction(p))
    assert_same(RationalFunction(p, u), RationalFunction(p * u.inverse_unit()))


rationals = st.builds(RationalFunction, polys, denominators)
monomials = st.sampled_from([(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),)])
sympolys = st.dictionaries(monomials, rationals, max_size=4).map(SymPoly)


def negate_then_add(p, q):
    """The difference as it was once defined: the sum with the negated copy."""
    return p + (-q)


@pytest.mark.parametrize("values", [polys, rationals, sympolys],
                         ids=["LaurentPoly", "RationalFunction", "SymPoly"])
@given(data=st.data())
@settings(max_examples=80)
def test_subtraction_is_the_sum_with_the_negation(values, data):
    p, q = data.draw(values), data.draw(values)
    diff, reference = p - q, negate_then_add(p, q)
    assert diff == reference
    if isinstance(diff, RationalFunction):
        assert_same(diff, reference)
    else:
        # Same terms in the same order: no zero kept, no key moved.
        assert list(diff.terms.items()) == list(reference.terms.items())
    assert (p - q) + q == p
    assert p - p == 0
    assert not (p - p)


def convolution(p, q):
    """The product as a reference forms it: every pair of terms, summed per
    key, the zeros dropped by the validating constructor."""
    terms = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            if isinstance(p, LaurentPoly):
                key = k1 + k2
            else:
                key = tuple(sorted((Counter(dict(k1)) + Counter(dict(k2))).items()))
            terms[key] = terms.get(key, 0) + c1 * c2
    return type(p)(terms)


@pytest.mark.parametrize("values", [polys, sympolys], ids=["LaurentPoly", "SymPoly"])
@given(data=st.data())
@settings(max_examples=80)
def test_a_product_is_the_convolution_of_the_terms(values, data):
    p, q = data.draw(values), data.draw(values)
    product = p * q
    assert product == convolution(p, q)
    assert all(product.terms.values())
    assert p * 3 == 3 * p == convolution(p, type(p).coerce(3))


def test_a_product_builds_through_no_constructor(monkeypatch):
    # Coefficients with denominator 1 multiply and add without a gcd, so a
    # call to either validating constructor could only come from the product.
    x, y = (("x", 1),), (("y", 2),)
    s = SymPoly({x: T - 1, (): 2 * T, y: 4})
    cases = [
        (LaurentPoly({-2: 3, 0: -1, 4: 5}), T + 1),
        (T + 1, T - 1),
        (s, s),
        (s, SymPoly({x: T + 1, (): -(T ** -1)})),
        (s, SymPoly()),
    ]
    expected = [convolution(p, q) for p, q in cases]

    def refuse(self, terms=None):
        raise AssertionError(f"built a {type(self).__name__} through __init__")

    for cls in (LaurentPoly, SymPoly):
        monkeypatch.setattr(cls, "__init__", refuse)
    for (p, q), want in zip(cases, expected):
        assert p * q == want


@pytest.mark.parametrize("value", [T + 1, SymPoly.symbol("x")], ids=["LaurentPoly", "SymPoly"])
def test_the_sparse_types_are_immutable(value):
    for name in ("terms", "other"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, {})


def test_a_difference_negates_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError(f"negated {type(self).__name__} {self}")

    p = LaurentPoly({-2: 3, 0: -1, 4: 5})
    r = RationalFunction(p, T + 2)
    s = SymPoly({(("x", 1),): r, (): RationalFunction(T - 1, 3 * T), (("y", 2),): 4})
    for cls in (LaurentPoly, RationalFunction, SymPoly):
        monkeypatch.setattr(cls, "__neg__", refuse)
    for value in (p, r, s):
        assert (value - value).is_zero()
    assert s - SymPoly({(("x", 1),): r}) == SymPoly(
        {(): RationalFunction(T - 1, 3 * T), (("y", 2),): 4})


@pytest.mark.parametrize("f,g,gcd", [
    ("0", "2*t^3 + 4 - 6*t^-2", "2*t^5 + 4*t^2 - 6"),
    ("9*t^4 - 3*t", "0", "9*t^3 - 3"),
    ("0", "0", "0"),
    ("-1", "0", "1"),
    ("0", "-7*t^5", "7"),
])
def test_gcd_with_a_zero_operand_normalizes_the_other(f, g, gcd):
    assert laurent_gcd(parse_laurent(f), parse_laurent(g)) == parse_laurent(gcd)
