"""Exact matrices over Z[t, t^-1], Q(t), and Q."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import (
    LAURENT,
    QQ,
    RATFUNC,
    Echelon,
    LaurentPoly,
    Matrix,
    RationalFunction,
    Subspace,
    T,
    mul_local,
)
from braidrep.errors import NotInvertible, NotSquare, ShapeMismatch
from braidrep import matrix
from braidrep.reps import _block_rep


def embed(block, i, n):
    """The dense image of a k x k block at strand position i of n, in
    dimension n + k - 2, as ``Representation.image`` builds it."""
    return _block_rep(n, block, "").image("s", i)

fracs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def qq_matrices(rows, cols):
    return st.lists(
        st.lists(fracs, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda rs: Matrix(QQ, rs))


def test_multiplication_against_hand_computation():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[5, 6], [7, 8]])
    assert a * b == Matrix(QQ, [[19, 22], [43, 50]])
    assert b * a == Matrix(QQ, [[23, 34], [31, 46]])
    assert a * Matrix.identity(QQ, 2) == a


def test_laurent_matrix_product():
    s = Matrix(LAURENT, [[0, T], [1, 0]])
    assert s * s == Matrix(LAURENT, [[T, 0], [0, T]])
    assert (s * s) * s == s * (s * s)


def test_shape_errors():
    a = Matrix(QQ, [[1, 2]])
    b = Matrix(QQ, [[1, 2]])
    with pytest.raises(ShapeMismatch):
        a * b
    with pytest.raises(ShapeMismatch):
        a + Matrix(QQ, [[1], [2]])
    with pytest.raises(NotSquare):
        a.det()


def _cofactor_det(m: Matrix):
    if m.rows == 1:
        return m.entries[0][0]
    dom = m.domain
    total = dom.zero
    for j in range(m.cols):
        minor = Matrix(dom, [row[:j] + row[j + 1:] for row in m.entries[1:]])
        term = m.entries[0][j] * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@given(qq_matrices(3, 3))
@settings(max_examples=80)
def test_bareiss_determinant_matches_cofactor_expansion(m):
    assert m.det() == _cofactor_det(m)


def test_determinant_examples():
    s = Matrix(LAURENT, [[0, T], [1, 0]])
    assert s.det() == -T
    a, c = 2, 3
    block = Matrix(LAURENT, [[a, c * T], [c, a]])
    assert block.det() == LaurentPoly({0: a * a, 1: -c * c})
    assert _cofactor_det(block) == block.det()


def test_laurent_determinant_of_triangular_product():
    u = Matrix(LAURENT, [[1, T + 1, 0], [0, 1, T], [0, 0, 1]])
    l = Matrix(LAURENT, [[1, 0, 0], [T, 1, 0], [1 - T, T ** 2, 1]])
    assert (u * l).det() == LaurentPoly({0: 1})
    assert (l * u).det() == LaurentPoly({0: 1})


def test_inverse_over_field():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(QQ, 2)
    assert inv * m == Matrix.identity(QQ, 2)
    with pytest.raises(NotInvertible):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()


def test_inverse_over_laurent_requires_unit_determinant():
    s = Matrix(LAURENT, [[0, T], [1, 0]])
    inv = s.inverse()
    assert s * inv == Matrix.identity(LAURENT, 2)
    assert inv.domain is LAURENT
    bad = Matrix(LAURENT, [[1, T], [1, 1]])
    with pytest.raises(NotInvertible) as info:
        bad.inverse()
    assert info.value.det == LaurentPoly({0: 1, 1: -1})


def test_a_singular_field_matrix_reports_det_zero_without_a_determinant(monkeypatch):
    # The elimination already shows the matrix singular, so no Bareiss
    # determinant is run just to attach its 0.
    def no_det(self):
        raise AssertionError("det called")

    monkeypatch.setattr(Matrix, "det", no_det)
    with pytest.raises(NotInvertible) as info:
        Matrix(QQ, [[1, 1], [1, 1]]).inverse()
    assert info.value.det == 0


@given(qq_matrices(3, 4))
@settings(max_examples=80)
def test_rank_nullity(m):
    assert len(Echelon(QQ, m.entries)) + m.nullspace().dim == m.cols


@given(qq_matrices(3, 4))
@settings(max_examples=40)
def test_nullspace_vectors_are_in_the_kernel(m):
    ns = m.nullspace()
    zero = Matrix(QQ, [[0]] * m.rows)
    for vec in ns.basis:
        assert m * Matrix(QQ, [[e] for e in vec]) == zero


def dense_rref(m):
    """The reduced rows ``Echelon`` keeps for m, dense, and their pivots."""
    rows = Echelon(m.domain, m.entries).reduced()
    return ([[row.get(c, m.domain.zero) for c in range(m.cols)] for _, row in rows],
            tuple(pivot for pivot, _ in rows))


def test_rref_is_idempotent():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    reduced, pivots = dense_rref(m)
    again, pivots2 = dense_rref(Matrix(QQ, reduced))
    assert reduced == again
    assert pivots == pivots2 == (0, 2)


def test_rref_rejects_ring_entries():
    with pytest.raises(TypeError):
        Echelon(LAURENT, [[T]])


def test_subspace_membership():
    sub = Subspace(QQ, 3, ((Fraction(1), Fraction(0), Fraction(1)),
                           (Fraction(0), Fraction(1), Fraction(0))))
    assert sub.dim == 2
    assert sub.contains([1, 1, 1])
    assert sub.contains([2, -3, 2])
    assert not sub.contains([1, 0, 0])
    with pytest.raises(ValueError):
        Subspace(QQ, 2, ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))))


def test_block_embed_layout():
    block = Matrix(LAURENT, [[0, T], [1, 0]])
    m = embed(block, 2, 4)
    assert (m.rows, m.cols) == (4, 4)
    assert m.entries[0][0] == LaurentPoly({0: 1})
    assert m.entries[1][2] == T
    assert m.entries[2][1] == LaurentPoly({0: 1})
    assert m.entries[3][3] == LaurentPoly({0: 1})
    assert m.entries[1][1] == LaurentPoly()


def test_far_apart_blocks_commute():
    block = Matrix(LAURENT, [[1, T], [2, 3]])
    left = embed(block, 1, 5)
    right = embed(block, 3, 5)
    assert left * right == right * left


def test_adjacent_blocks_need_not_commute():
    block = Matrix(LAURENT, [[0, T], [1, 0]])
    left = embed(block, 1, 3)
    right = embed(block, 2, 3)
    assert left * right != right * left


def test_field_lift_preserves_values():
    m = Matrix(LAURENT, [[T, 1], [2, T ** -1]])
    lifted = m._field_lift()
    assert lifted.domain is RATFUNC
    assert lifted.map_entries(lambda e: e.as_laurent(), LAURENT) == m


@given(st.integers(2, 4), st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_local_product_matches_dense_product(n, k, data):
    block = data.draw(qq_matrices(k, k))
    rep, i = _block_rep(n, block, ""), data.draw(st.integers(1, n - 1))
    image = rep.image("s", i)
    left = data.draw(qq_matrices(3, image.rows))
    offset, local = rep.local_image("s", i)
    assert Matrix(QQ, mul_local(left.entries, offset, local)) == left * image


@pytest.mark.parametrize("domain", [QQ, LAURENT, RATFUNC])
def test_local_product_of_rows_holding_other_ones(domain):
    # Entries equal to one that are not the domain's shared one object.
    fresh_one = Fraction(1) if domain is QQ else domain.coerce(LaurentPoly({0: 1}))
    assert fresh_one == domain.one and fresh_one is not domain.one
    value = domain.coerce(3 if domain is QQ else T + 2)
    rows = [
        [domain.one, domain.zero, fresh_one, value],
        [fresh_one, fresh_one, domain.zero, domain.one],
        [domain.zero, value, domain.one, fresh_one],
    ]
    entries = [[2, 3], [1, 0]] if domain is QQ else [[T, 1], [1, 1 - T]]
    block = Matrix(domain, entries)
    rep = _block_rep(4, block, "")
    for i in (1, 2, 3):
        offset, local = rep.local_image("s", i)
        expected = Matrix(domain, rows) * rep.image("s", i)
        assert Matrix(domain, mul_local(rows, offset, local)) == expected


def test_local_product_lays_out_each_block_once(monkeypatch):
    # Two products by one block object read the layout built on the first;
    # both equal the dense products by the embedded image.
    block = Matrix(LAURENT, [[T, 1], [1, 1 - T]])
    image = embed(block, 2, 4)
    left = Matrix(LAURENT, [[1, T, 2, 0], [0, 3, T ** -1, 1], [T, 0, 1, 1 - T]])
    layouts = []

    def recording(b):
        layouts.append(b)
        return lay_out(b)

    lay_out = matrix._lay_out
    monkeypatch.setattr(matrix, "_lay_out", recording)
    first = mul_local(left.entries, 1, block)
    second = mul_local(first, 1, block)
    assert layouts == [block]
    assert Matrix(LAURENT, first) == left * image
    assert Matrix(LAURENT, second) == left * image * image


# -- the echelon engine --------------------------------------------------------

small_fracs = st.one_of(st.just(Fraction(0)), fracs)
coordinate_sets = st.sampled_from([
    list(range(5)),
    [(i, j, e) for i in range(2) for j in range(2) for e in (-1, 1)],
])


@given(coordinate_sets, st.data())
@settings(max_examples=50, deadline=None)
def test_echelon_is_independent_of_insertion_order(keys, data):
    vectors = data.draw(st.lists(
        st.fixed_dictionaries({k: small_fracs for k in keys}), max_size=6))
    basis = Echelon(QQ, vectors)
    shuffled = Echelon(QQ, data.draw(st.permutations(vectors)))
    rref = basis.reduced()
    assert len(shuffled) == len(basis) == len(rref)
    assert shuffled.reduced() == rref
    for pivot, row in rref:
        assert min(row) == pivot and row[pivot] == 1
        assert all(p == pivot or p not in row for p, _ in rref)


@given(coordinate_sets, st.data())
@settings(max_examples=50, deadline=None)
def test_echelon_remainder_is_empty_exactly_on_the_span(keys, data):
    vectors = data.draw(st.lists(
        st.fixed_dictionaries({k: small_fracs for k in keys}), min_size=1, max_size=4))
    basis = Echelon(QQ, vectors)
    weights = data.draw(st.lists(small_fracs, min_size=len(vectors), max_size=len(vectors)))
    combination = {k: sum(w * v[k] for w, v in zip(weights, vectors)) for k in keys}
    assert basis.remainder(combination) == {}
    assert not basis.insert(combination)
    probe = data.draw(st.fixed_dictionaries({k: small_fracs for k in keys}))
    rest = basis.remainder(probe)
    assert all(p not in rest for p in basis.rows)
    grown = Echelon(QQ, [*vectors, probe])
    assert len(grown) == len(basis) + (1 if rest else 0)
    assert Echelon(QQ, [*vectors, rest]).reduced() == grown.reduced()


def test_echelon_reads_sequences_as_indexed_vectors():
    basis = Echelon(QQ, [[0, 2, 4], (0, 1, 3)])
    assert basis.reduced() == [(1, {1: 1}), (2, {2: 1})]
    assert basis.remainder([5, 1, 1]) == {0: 5}
    with pytest.raises(TypeError):
        Echelon(LAURENT)


# -- sympy as an independent reference (test-only dependency) ------------------


@st.composite
def shaped_qq_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero_row = [Fraction(0)] * cols
    return Matrix(QQ, [
        zero_row if draw(st.integers(0, 3)) == 0
        else draw(st.lists(small_fracs, min_size=cols, max_size=cols))
        for _ in range(rows)
    ])


@given(m=shaped_qq_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_rank_and_nullity_match_sympy_over_q(sympy, to_sympy, m):
    ref = sympy.Matrix([[to_sympy(e) for e in row] for row in m.entries])
    ref_reduced, ref_pivots = ref.rref()
    reduced, pivots = dense_rref(m)
    assert pivots == ref_pivots
    padded = reduced + [[0] * m.cols] * (m.rows - len(reduced))
    assert [[to_sympy(e) for e in row] for row in padded] == ref_reduced.tolist()
    assert len(reduced) == ref.rank()
    assert m.nullspace().dim == len(ref.nullspace())


@pytest.mark.parametrize("entries", [
    [[T, 1, T ** 2], [1, T ** -1, T]],
    [[T, 1, 0], [1, T, 1], [0, 1, T], [1, 1, 1]],
    [[1, T + 1, 0, 2], [T, 0, T - 1, 1], [1 + T, T + 1, T - 1, 3]],
])
def test_rref_matches_sympy_over_q_of_t(sympy, to_sympy, entries):
    m = Matrix(LAURENT, entries)._field_lift()
    ref = sympy.Matrix([[to_sympy(e) for e in row] for row in m.entries])
    ref_reduced, ref_pivots = ref.rref(simplify=sympy.cancel)
    reduced, pivots = dense_rref(m)
    assert pivots == ref_pivots
    padded = reduced + [[RationalFunction(0)] * m.cols] * (m.rows - len(reduced))
    assert all(
        sympy.cancel(to_sympy(ours) - theirs) == 0
        for ours, theirs in zip((e for row in padded for e in row), ref_reduced)
    )
    assert len(reduced) == len(ref_pivots)
    assert m.nullspace().dim == m.cols - len(ref_pivots)


small_laurent = st.dictionaries(
    st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def square_matrices(draw, domain):
    size = draw(st.integers(1, 4 if domain is LAURENT else 3))

    def entry():
        if domain is LAURENT:
            return draw(small_laurent)
        return RationalFunction(
            draw(small_laurent), draw(small_laurent.filter(lambda p: not p.is_zero())))

    return Matrix(domain, [[entry() for _ in range(size)] for _ in range(size)])


@given(m=st.one_of(square_matrices(LAURENT), square_matrices(RATFUNC)))
@settings(max_examples=60, deadline=None)
def test_det_matches_sympy(sympy, to_sympy, m):
    ref = sympy.Matrix([[to_sympy(e) for e in row] for row in m.entries])
    assert sympy.cancel(to_sympy(m.det()) - ref.det(method="berkowitz")) == 0
