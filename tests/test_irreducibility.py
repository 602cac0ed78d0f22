"""Span-criterion irreducibility, witnesses, and the parameter grid."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import (
    LAURENT,
    Matrix,
    QQ,
    RATFUNC,
    RationalFunction,
    T,
    all_ones_check,
    burnside_span,
    grid_report,
    is_irreducible,
    matrix_algebra_span,
    predicted_irreducible,
    specialize,
    specialized_extension,
    standard_rep,
    symbolic_extension,
)
from braidrep.errors import NonInvertibleTau, SingularTau, ZeroSpecialization
from braidrep.irreducibility import (
    GridCell,
    GridReport,
    _rational_roots,
    grid_cell,
    invariant_line_witness,
)

ONE_RF = RationalFunction(1)


def test_specialize_to_rational_point():
    spec = specialize(standard_rep(3), 2)
    assert spec.domain is QQ
    assert spec.params["t0"] == 2
    assert spec.images()[0] == Matrix(QQ, [[0, 2, 0], [1, 0, 0], [0, 0, 1]])


def test_specialize_symbolically():
    spec = specialize(standard_rep(3), None)
    assert spec.domain is RATFUNC
    assert "t0" not in spec.params
    assert spec.images()[0].entries[0][1] == RationalFunction(T)


def test_specialize_rejects_zero():
    with pytest.raises(ZeroSpecialization):
        specialize(standard_rep(3), 0)


def test_specialize_needs_laurent_entries():
    spec = specialize(standard_rep(2), 2)
    with pytest.raises(TypeError):
        specialize(spec, 3)


def test_span_oracles_over_q():
    identity = Matrix.identity(QQ, 2)
    assert matrix_algebra_span([identity]) == 1
    flip = Matrix(QQ, [[0, 1], [1, 0]])
    assert matrix_algebra_span([flip]) == 2
    e12 = Matrix(QQ, [[0, 1], [0, 0]])
    e21 = Matrix(QQ, [[0, 0], [1, 0]])
    assert matrix_algebra_span([e12, e21]) == 4
    diag = Matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert matrix_algebra_span([diag]) == 3


def test_span_lifts_laurent_entries():
    # Lifted to Q(t): sigma^2 = t*I, so the algebra is span{I, sigma}.
    s = Matrix(LAURENT, [[0, T], [1, 0]])
    assert matrix_algebra_span([s]) == 2


def test_symbolic_span_is_a_dimension_over_q_of_t():
    # t is a scalar of Q(t), so t*I spans the same line as I.
    t = RationalFunction(T)
    scaled_identity = Matrix(RATFUNC, [[t, 0], [0, t]])
    assert matrix_algebra_span([scaled_identity]) == 1
    assert matrix_algebra_span([Matrix.identity(RATFUNC, 2)]) == 1
    sigma = Matrix(RATFUNC, [[0, t], [1, 0]])
    assert matrix_algebra_span([scaled_identity, sigma]) == 2
    e12 = Matrix(RATFUNC, [[0, t], [0, 0]])
    assert matrix_algebra_span([e12, sigma]) == 4


def test_permutation_image_span_at_t_one():
    spec = specialize(standard_rep(3), 1)
    perms = spec.images()
    assert all(
        sorted(e for row in g.entries for e in row) == [0] * 6 + [1] * 3
        for g in perms
    )
    # the 3-dim permutation representation splits as trivial + 2-dim,
    # so its algebra has dimension 1 + 4
    assert matrix_algebra_span(perms) == 5


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("t0", [2, -1, 3, Fraction(1, 2)])
def test_standard_extension_irreducible_away_from_t_one(n, t0):
    spec = specialized_extension(n, t0, 0, 1)
    verdict = is_irreducible(spec)
    assert verdict.irreducible
    assert verdict.span_dim == n * n
    assert verdict.witness is None


def test_reducible_at_t_one_when_a_plus_c_is_one():
    spec = specialized_extension(3, 1, 2, -1)
    verdict = is_irreducible(spec)
    assert not verdict.irreducible
    assert verdict.span_dim < 9
    assert verdict.witness is not None
    assert verdict.witness.basis == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_irreducible_at_t_one_when_a_plus_c_is_not_one():
    spec = specialized_extension(3, 1, 2, 1)
    assert is_irreducible(spec).irreducible


def test_two_strand_specializations_are_never_irreducible():
    for t0, a, c in [(2, 0, 1), (-1, 2, 1), (3, 1, 3)]:
        verdict = is_irreducible(specialized_extension(2, t0, a, c))
        assert verdict.status == "reducible"
        assert verdict.span_dim == 2


def test_two_strand_square_t_gets_an_eigenline_witness():
    verdict = is_irreducible(specialized_extension(2, 4, 0, 1))
    assert verdict.status == "reducible"
    assert verdict.witness is not None
    line = verdict.witness.basis[0]
    assert line in (((Fraction(-2), Fraction(1))), ((Fraction(2), Fraction(1))))


def test_symbolic_two_strand_span_is_two():
    # tau = a*I + c*sigma and sigma^2 = t*I, so the algebra is Q(t)[sigma].
    for a, c in [(0, 1), (2, -1), (3, 0)]:
        spec = symbolic_extension(2, a, c)
        assert spec.domain is RATFUNC
        assert burnside_span(spec) == 2
        verdict = is_irreducible(spec)
        assert verdict.status == "reducible"
        # sigma's eigenvalues are +-sqrt(t), so no invariant line is Q(t)-rational.
        assert verdict.witness is None


def test_symbolic_extension_rejects_a_zero_tau_in_group_mode():
    with pytest.raises(NonInvertibleTau):
        symbolic_extension(3, 0, 0)
    assert burnside_span(symbolic_extension(3, 0, 0, group=False)) == 9


def test_symbolic_three_strand_span():
    assert burnside_span(symbolic_extension(3, 2, -1)) == 9


def test_all_ones_check():
    assert all_ones_check(specialized_extension(3, 1, 2, -1))
    assert not all_ones_check(specialized_extension(3, 2, 2, -1))
    assert not all_ones_check(specialized_extension(3, 1, 2, 1))


def test_invariant_line_witness_maps_into_itself():
    spec = specialized_extension(4, 1, 3, -2)
    witness = invariant_line_witness(spec)
    assert witness is not None and witness.dim == 1
    ones = tuple([Fraction(1)] * 4)
    assert witness.contains(ones)


def test_predicted_irreducible_dichotomy():
    assert predicted_irreducible(2, 5, 5)
    assert predicted_irreducible(1, 2, 1)
    assert predicted_irreducible(1, 0, 2)
    assert not predicted_irreducible(1, 2, -1)
    assert not predicted_irreducible(1, Fraction(1, 2), Fraction(1, 2))


def test_grid_cell_fields():
    cell = grid_cell(3, 2, 0, 1)
    assert cell.span_dim == 9
    assert cell.verdict == "irreducible"
    assert cell.predicted == "irreducible"
    assert cell.agree and not cell.watch
    assert cell.csv_row() == "3,2,0,1,9,irreducible,irreducible,yes"


def test_grid_cell_rejects_singular_tau():
    with pytest.raises(SingularTau):
        grid_cell(3, 1, 1, 1)
    with pytest.raises(NonInvertibleTau):
        specialized_extension(3, 4, 2, 1, group=True)


def test_grid_report_three_strands_passes():
    report = grid_report(3, [2, -1, 3], [(0, 1), (2, -1)])
    assert len(report.cells) == 6
    assert report.agreements == 6
    assert report.divergences == ()
    assert report.status == "pass"
    lines = report.csv().splitlines()
    assert lines[0] == "n,t0,a,c,span_dim,verdict,predicted,agree"
    assert len(lines) == 7


def test_grid_report_two_strands_diverges():
    report = grid_report(2, [2, -1], [(0, 1)])
    assert report.agreements == 0
    assert all(cell.watch for cell in report.divergences)
    assert report.status == "divergence"


def test_grid_report_status_fail_on_unwatched_divergence():
    cell = GridCell(n=3, t0=Fraction(2), a=Fraction(0), c=Fraction(1),
                    span_dim=5, verdict="reducible", predicted="irreducible",
                    agree=False, watch=False)
    assert GridReport((cell,)).status == "fail"


def test_grid_report_includes_t_one_cells():
    report = grid_report(3, [1], [(2, -1), (2, 1)])
    assert report.status == "pass"
    by_params = {(cell.a, cell.c): cell for cell in report.cells}
    assert by_params[(2, -1)].verdict == "reducible"
    assert by_params[(2, 1)].verdict == "irreducible"


# Roots and scales far beyond what trial division up to sqrt(|const|) could
# reach, so only the direct linear and quadratic formulas finish in time.
big_rationals = st.fractions(max_denominator=10**12).filter(lambda q: abs(q.numerator) < 10**24)
nonzero_scales = st.fractions(max_denominator=10**6).filter(lambda q: q != 0)


@given(big_rationals, big_rationals, nonzero_scales)
@settings(max_examples=200)
def test_quadratic_roots_are_recovered(r1, r2, k):
    coeffs = [k, -k * (r1 + r2), k * r1 * r2]
    assert _rational_roots(coeffs) == sorted({r1, r2})
    assert _rational_roots([k, -k * r1]) == [r1]


def test_rational_roots_of_other_degrees():
    assert _rational_roots([Fraction(1), Fraction(0), Fraction(-10**21)]) == []
    assert _rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    assert _rational_roots([Fraction(3), Fraction(0), Fraction(0)]) == [0]
    assert _rational_roots([Fraction(5)]) == []
    # (x - 1/2)(x + 3)(x - 2) x: the cubic factor goes through the divisor search.
    quartic = [Fraction(c) for c in (1, Fraction(1, 2), Fraction(-13, 2), 3, 0)]
    assert _rational_roots(quartic) == [-3, 0, Fraction(1, 2), 2]
