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
    LaurentPoly,
    Matrix,
    Subspace,
    T,
    block_embed,
    local_block,
    mat_vec,
    mul_local,
    stack,
)
from braidrep.errors import NotInvertible, NotSquare, NotUnitDeterminant, ShapeMismatch

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
    with pytest.raises(NotUnitDeterminant) as info:
        bad.inverse()
    assert info.value.det == LaurentPoly({0: 1, 1: -1})


@given(qq_matrices(3, 4))
@settings(max_examples=80)
def test_rank_nullity(m):
    assert m.rank() + m.nullspace().dim == m.cols


@given(qq_matrices(3, 4))
@settings(max_examples=40)
def test_nullspace_vectors_are_in_the_kernel(m):
    ns = m.nullspace()
    zero = tuple([QQ.zero] * m.rows)
    for vec in ns.basis:
        assert mat_vec(m, vec) == zero


def test_rref_is_idempotent():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert reduced == again
    assert pivots == pivots2 == (0, 2)


def test_rref_rejects_ring_entries():
    with pytest.raises(TypeError):
        Matrix(LAURENT, [[T]]).rref()


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
    m = block_embed(block, 2, 4)
    assert (m.rows, m.cols) == (4, 4)
    assert m.entries[0][0] == LaurentPoly({0: 1})
    assert m.entries[1][2] == T
    assert m.entries[2][1] == LaurentPoly({0: 1})
    assert m.entries[3][3] == LaurentPoly({0: 1})
    assert m.entries[1][1] == LaurentPoly()


def test_far_apart_blocks_commute():
    block = Matrix(LAURENT, [[1, T], [2, 3]])
    left = block_embed(block, 1, 5)
    right = block_embed(block, 3, 5)
    assert left * right == right * left


def test_adjacent_blocks_need_not_commute():
    block = Matrix(LAURENT, [[0, T], [1, 0]])
    left = block_embed(block, 1, 3)
    right = block_embed(block, 2, 3)
    assert left * right != right * left


def test_stack_and_mat_vec():
    a = Matrix(QQ, [[1, 0], [0, 1]])
    b = Matrix(QQ, [[2, 3]])
    s = stack([a, b])
    assert (s.rows, s.cols) == (3, 2)
    assert mat_vec(s, [1, 1]) == (Fraction(1), Fraction(1), Fraction(5))
    with pytest.raises(ShapeMismatch):
        mat_vec(a, [1, 2, 3])


def test_json_round_trip_all_domains():
    samples = [
        Matrix(LAURENT, [[T, 1], [0, T ** -2]]),
        Matrix(QQ, [[Fraction(1, 2), 3]]),
        Matrix(LAURENT, [[T + 1]])._field_lift(),
    ]
    for m in samples:
        again = Matrix.from_json_dict(m.to_json_dict())
        assert again == m
        assert again.domain is m.domain


def test_field_lift_preserves_values():
    m = Matrix(LAURENT, [[T, 1], [2, T ** -1]])
    lifted = m._field_lift()
    assert lifted.domain is RATFUNC
    assert lifted.map_entries(lambda e: e.as_laurent(), LAURENT) == m


def test_local_block_is_the_smallest_non_identity_block():
    block = Matrix(LAURENT, [[0, T], [1, 0]])
    assert local_block(block_embed(block, 2, 5)) == (1, block)
    full = Matrix(QQ, [[1, 2], [3, 4]])
    assert local_block(full) == (0, full)
    assert local_block(Matrix.identity(QQ, 3)) == (0, Matrix.identity(QQ, 1))
    corner = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [5, 0, 1]])
    assert local_block(corner) == (0, corner)


@given(st.integers(2, 4), st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_local_product_matches_dense_product(n, k, data):
    block = data.draw(qq_matrices(k, k))
    image = block_embed(block, data.draw(st.integers(1, n - 1)), n)
    left = data.draw(qq_matrices(3, image.rows))
    offset, local = local_block(image)
    assert Matrix(QQ, mul_local(left.entries, offset, local)) == left * image
