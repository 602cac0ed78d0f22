"""Span-criterion irreducibility, witnesses, and the parameter grid."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidrep import (
    LAURENT,
    Echelon,
    Matrix,
    QQ,
    RATFUNC,
    RationalFunction,
    Representation,
    Subspace,
    T,
    burau_rep,
    burnside_span,
    f_rep,
    grid_report,
    is_irreducible,
    matrix_algebra_span,
    predicted_irreducible,
    specialize,
    specialized_extension,
    standard_rep,
    symbolic_extension,
)
from braidrep.errors import NonInvertibleTau, ZeroSpecialization
from braidrep import irreducibility
from braidrep.irreducibility import (
    GridCell,
    GridReport,
    IrreducibilityVerdict,
    _exact_span,
    _rank_one,
    grid_cell,
    invariant_line_witness,
)
from braidrep.laurent import rational_roots

ONE_RF = RationalFunction(1)


def span(images):
    """The algebra span of dense images, each given to the span as its full
    block at offset 0."""
    return matrix_algebra_span([(0, image) for image in images], images[0].rows)


def test_specialize_to_rational_point():
    spec = specialize(standard_rep(3), 2)
    assert spec.domain is QQ
    assert spec.params["t0"] == 2
    assert spec.image("s", 1) == Matrix(QQ, [[0, 2, 0], [1, 0, 0], [0, 0, 1]])


def test_specialize_symbolically():
    spec = specialize(standard_rep(3), None)
    assert spec.domain is RATFUNC
    assert "t0" not in spec.params
    assert spec.image("s", 1).entries[0][1] == RationalFunction(T)


def test_specialize_rejects_zero():
    with pytest.raises(ZeroSpecialization):
        specialize(standard_rep(3), 0)


def test_specialize_needs_laurent_entries():
    spec = specialize(standard_rep(2), 2)
    with pytest.raises(TypeError):
        specialize(spec, 3)


def test_span_oracles_over_q():
    identity = Matrix.identity(QQ, 2)
    assert span([identity]) == 1
    flip = Matrix(QQ, [[0, 1], [1, 0]])
    assert span([flip]) == 2
    e12 = Matrix(QQ, [[0, 1], [0, 0]])
    e21 = Matrix(QQ, [[0, 0], [1, 0]])
    assert span([e12, e21]) == 4
    diag = Matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert span([diag]) == 3


def test_span_lifts_laurent_entries():
    # Lifted to Q(t): sigma^2 = t*I, so the algebra is span{I, sigma}.
    s = Matrix(LAURENT, [[0, T], [1, 0]])
    assert span([s]) == 2


def test_symbolic_span_is_a_dimension_over_q_of_t():
    # t is a scalar of Q(t), so t*I spans the same line as I.
    t = RationalFunction(T)
    scaled_identity = Matrix(RATFUNC, [[t, 0], [0, t]])
    assert span([scaled_identity]) == 1
    assert span([Matrix.identity(RATFUNC, 2)]) == 1
    sigma = Matrix(RATFUNC, [[0, t], [1, 0]])
    assert span([scaled_identity, sigma]) == 2
    e12 = Matrix(RATFUNC, [[0, t], [0, 0]])
    assert span([e12, sigma]) == 4


def test_permutation_image_span_at_t_one():
    spec = specialize(standard_rep(3), 1)
    perms = list(spec.assignment.values())
    assert all(
        sorted(e for row in g.entries for e in row) == [0] * 6 + [1] * 3
        for g in perms
    )
    # the 3-dim permutation representation splits as trivial + 2-dim,
    # so its algebra has dimension 1 + 4
    assert span(perms) == 5


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


def maps_into(rep, sub):
    """Whether ``_invariant`` accepts the subspace under the lifted blocks,
    as the witness search checks its candidates."""
    blocks = [(offset, block._field_lift()) for offset, block in rep.local_images()]
    return irreducibility._invariant(Echelon(sub.domain, sub.basis), blocks)


def ones_line(d):
    return Subspace(QQ, d, ((Fraction(1),) * d,))


def test_all_ones_check():
    assert maps_into(specialized_extension(3, 1, 2, -1), ones_line(3))
    assert not maps_into(specialized_extension(3, 2, 2, -1), ones_line(3))
    assert not maps_into(specialized_extension(3, 1, 2, 1), ones_line(3))


def test_invariant_line_witness_maps_into_itself():
    spec = specialized_extension(4, 1, 3, -2)
    witness = invariant_line_witness(spec)
    assert witness is not None and witness.dim == 1
    ones = tuple([Fraction(1)] * 4)
    assert witness.contains(ones)


def test_laurent_representations_get_witnesses_over_q_of_t():
    ones = is_irreducible(burau_rep(3))
    assert ones.status == "reducible"
    assert ones.witness == Subspace(RATFUNC, 3, ((ONE_RF,) * 3,))
    fixed = is_irreducible(f_rep(3)).witness
    zero = RationalFunction(0)
    assert fixed == Subspace(RATFUNC, 4, ((ONE_RF, zero, zero, zero), (zero, zero, zero, ONE_RF)))


def two_block_rep():
    """s1 = [[0, 4], [1, 0]] at offset 1 and s2 = diag(2, -2) at offset 0:
    no common fixed vector, but e1 is fixed by s1 (the eigenvalue 1 outside
    its block) and an eigenvector of s2."""
    return Representation(2, "braid", 3, {("s", 1): (1, Matrix(QQ, [[0, 4], [1, 0]])),
                                          ("s", 2): (0, Matrix(QQ, [[2, 0], [0, -2]]))})


# One witness per branch of the search: the common fixed space, the spin S
# of a single block's eigenline, the line L of two blocks that share one
# coordinate, a fixed vector outside a lone block, and none over Q(t).
PINNED_WITNESSES = [
    (lambda: specialize(f_rep(3), 2), [[1, 0, 0, 0], [0, 0, 0, 1]]),
    (lambda: specialize(standard_rep(2), 4), [[-2, 1]]),
    (lambda: specialize(standard_rep(2), Fraction(9, 4)), [[Fraction(-3, 2), 1]]),
    (lambda: specialize(standard_rep(2), Fraction(1, 4)), [[Fraction(-1, 2), 1]]),
    (lambda: specialize(standard_rep(2), 16), [[-4, 1]]),
    (two_block_rep, [[1, 0, 0]]),
    (lambda: Representation(2, "braid", 3, {("s", 1): (0, Matrix(QQ, [[0, 4], [1, 0]]))}),
     [[0, 0, 1]]),
    (lambda: symbolic_extension(2, 0, 1), None),
]


@pytest.mark.parametrize("build,basis", PINNED_WITNESSES)
def test_pinned_witnesses(build, basis):
    witness = invariant_line_witness(build())
    if basis is None:
        assert witness is None
    else:
        assert [list(v) for v in witness.basis] == basis


# Two representations that fix the all-ones direction: a swap of the first
# two coordinates of three, whose common fixed space is a plane, and one
# block [[0, 2], [2, 0]], which fixes nothing and whose eigenline for -2 is
# the certificate's S.
ONES_THEN = [
    (Representation(2, "braid", 3, {("s", 1): (0, Matrix(QQ, [[0, 1], [1, 0]]))}),
     [[1, 1, 0], [0, 0, 1]]),
    (Representation(2, "braid", 2, {("s", 1): (0, Matrix(QQ, [[0, 2], [2, 0]]))}), [[-1, 1]]),
]


@pytest.mark.parametrize("rep,basis", ONES_THEN)
def test_a_refused_candidate_falls_through_to_the_next(rep, basis):
    ones = ones_line(rep.dim)
    invariant = irreducibility._invariant

    def refuse_ones(echelon, blocks):
        is_ones = len(echelon) == 1 and not echelon.remainder(ones.basis[0])
        return not is_ones and invariant(echelon, blocks)

    def refuse(*args):
        raise AssertionError("a later candidate was built")

    # Accepted first, the all-ones line leaves the later candidates unbuilt.
    with mock.patch.object(irreducibility, "_spins", refuse), \
            mock.patch.object(Echelon, "kernel", refuse):
        assert invariant_line_witness(rep) == ones
    with mock.patch.object(irreducibility, "_invariant", refuse_ones):
        witness = invariant_line_witness(rep)
    assert [list(v) for v in witness.basis] == basis
    with mock.patch.object(irreducibility, "_invariant", lambda echelon, blocks: False):
        assert invariant_line_witness(rep) is None


@pytest.mark.parametrize("build,basis", PINNED_WITNESSES)
def test_a_witness_needs_the_invariance_test(build, basis):
    with mock.patch.object(irreducibility, "_invariant", lambda echelon, blocks: False):
        assert invariant_line_witness(build()) is None


def dense_invariant(rep, sub):
    """True iff every dense image maps the subspace into itself."""
    return all(sub.contains([row[0] for row in (g * Matrix(sub.domain, [[e] for e in v])).entries])
               for g in rep.assignment.values() for v in sub.basis)


def dense_reference_witness(rep):
    """The first two branches of the witness search on dense images: the
    all-ones line, then the kernel of the stacked g - I, each checked by
    dense products; None past them."""
    d = rep.dim
    ones = Subspace(QQ, d, ((Fraction(1),) * d,))
    if dense_invariant(rep, ones):
        return ones
    identity = Matrix.identity(QQ, d)
    fixed = Matrix(QQ, [row for g in rep.assignment.values()
                        for row in (g - identity).entries]).nullspace()
    if fixed.dim and dense_invariant(rep, fixed):
        return fixed
    return None


@st.composite
def block_reps(draw):
    """Rational representations of 1-3 generators, each a block of size 1-3
    at some offset in dimension 2-5; half the blocks are triangular, so
    that rational eigenvalues are common."""
    d = draw(st.integers(2, 5))
    blocks = {}
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(3, d)))
        offset = draw(st.integers(0, d - k))
        entries = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                                min_size=k, max_size=k))
        if draw(st.booleans()):
            entries = [[e if j >= r else 0 for j, e in enumerate(row)]
                       for r, row in enumerate(entries)]
        blocks[("s", i + 1)] = (offset, Matrix(QQ, entries))
    return Representation(2, "braid", d, blocks)


@given(block_reps())
@settings(max_examples=150, deadline=None)
def test_block_row_witness_equals_the_dense_reference(rep):
    # Past the all-ones line and the fixed space, any witness must be a
    # nonzero proper subspace that every dense image maps into itself.
    witness, reference = invariant_line_witness(rep), dense_reference_witness(rep)
    if reference is not None:
        assert witness == reference
    elif witness is not None:
        assert 0 < witness.dim < rep.dim and dense_invariant(rep, witness)


def test_predicted_irreducible_dichotomy():
    assert predicted_irreducible(2, 5, 5)
    assert predicted_irreducible(1, 2, 1)
    assert predicted_irreducible(1, 0, 2)
    assert not predicted_irreducible(1, 2, -1)
    assert not predicted_irreducible(1, Fraction(1, 2), Fraction(1, 2))


def test_grid_cell_fields():
    cell = grid_cell(3, 2, 0, 1)
    assert cell.verdict.span_dim == 9
    assert cell.verdict.status == "irreducible"
    assert cell.predicted == "irreducible"
    assert cell.agree and not cell.watch
    assert cell.csv_row() == "3,2,0,1,9,irreducible,irreducible,yes"


def test_grid_cell_rejects_singular_tau():
    with pytest.raises(NonInvertibleTau, match=r"\(a, c\) = \(1, 1\) at t = 1"):
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
                    verdict=IrreducibilityVerdict(5, 3, None))
    assert not cell.watch
    assert GridReport((cell,)).status == "fail"


def test_a_failing_cell_is_not_a_divergence():
    failing = GridCell(n=3, t0=Fraction(2), a=Fraction(0), c=Fraction(1),
                       verdict=IrreducibilityVerdict(5, 3, None))
    watched = grid_cell(2, 2, 0, 1)
    assert (failing.status, watched.status) == ("fail", "divergence")
    report = GridReport((failing, watched))
    assert report.divergences == (watched,)
    assert report.to_json_dict()["divergences"] == [watched.to_json_dict()]
    assert report.status == "fail"


def test_symbolic_cell_is_predicted_irreducible():
    cell = grid_cell(3, None, 2, 1)
    assert cell.t0 is None
    assert cell.verdict.span_dim == 9 and cell.predicted == "irreducible"
    assert cell.status == "pass"
    assert grid_cell(2, None, 0, 1).status == "divergence"


def test_grid_report_includes_t_one_cells():
    report = grid_report(3, [1], [(2, -1), (2, 1)])
    assert report.status == "pass"
    by_params = {(cell.a, cell.c): cell for cell in report.cells}
    assert by_params[(2, -1)].verdict.status == "reducible"
    assert by_params[(2, 1)].verdict.status == "irreducible"


# -- the span certificate ----------------------------------------------------

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def extension_cells(draw, min_n=2):
    """n, t0, a, c, at t0 = 1 about half the time and with a + c = 1 about
    half the time, so that deficient spans are common."""
    n = draw(st.integers(min_n, 6))
    t0 = draw(st.one_of(st.just(Fraction(1)), st.sampled_from(
        [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])))
    a = draw(small_q)
    c = 1 - a if draw(st.booleans()) else draw(small_q)
    return n, t0, a, c


def extension_rep(cell, group):
    n, t0, a, c = cell
    assume(not group or a * a != t0 * c * c)
    return specialized_extension(n, t0, a, c, group=group)


def certified_span(rep):
    """The span, and whether the certificate gave it without the exact
    closure."""
    fallbacks = []

    def recording(images, d):
        fallbacks.append(d)
        return _exact_span(images, d)

    with mock.patch.object(irreducibility, "_exact_span", recording):
        span = burnside_span(rep)
    return span, not fallbacks


def _algebra_rows(images):
    """The reduced echelon rows of the algebra, closed with dense products."""
    dom = images[0].domain
    basis = Echelon(dom)
    frontier = [Matrix.identity(dom, images[0].rows)]
    while frontier:
        kept = [w for w in frontier if basis.insert([e for row in w.entries for e in row])]
        frontier = [w * g for w in kept for g in images]
    return basis.reduced()


def check_certificate(rep):
    """Whenever the certificate answers, its answer is the exact closure's,
    and u*v^T lies in the algebra the dense images generate."""
    d = rep.dim
    span, certified = certified_span(rep)
    if certified:
        assert span == _exact_span(rep.local_images(), d)
    found = _rank_one([(offset, block._field_lift()) for offset, block in rep.local_images()], d)
    if found is not None:
        u, v = found
        algebra = Echelon(rep.domain, [row for _, row in _algebra_rows(
            list(rep.assignment.values()))])
        x = {i * d + j: u[i] * v[j] for i in u for j in v}
        assert x and not algebra.remainder(x)
    return certified


@given(block_reps())
@example(Representation(2, "braid", 3, {("s", 1): (0, Matrix(QQ, [[2, 1], [0, 2]]))}))
@example(Representation(2, "braid", 3, {
    ("s", 1): (0, Matrix(QQ, [[2, 1, 0], [0, 3, 1], [0, 0, -1]])),
    ("s", 2): (2, Matrix(QQ, [[2]]))}))
@settings(max_examples=150, deadline=None)
def test_the_certificate_holds_on_block_representations(rep):
    # The first example's eigenvalue 2 is double, with one eigenvector e1 and
    # the left one e2: x = e1*e2^T = (g - 2I)*(g - I).  In the second a full
    # block's projection I meets the 1x1 block's in e3: x = e3*e3^T.
    check_certificate(rep)


@given(extension_cells(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_certified_span_equals_the_exact_closure(cell, group):
    check_certificate(extension_rep(cell, group))


@given(extension_cells(min_n=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_every_extension_cell_from_three_strands_is_certified(cell, group):
    # Over Q at t0 = 1 and t0 != 1, in both modes.
    assert certified_span(extension_rep(cell, group))[1]


@given(st.sampled_from([3, 4]), small_q, small_q, st.booleans())
@settings(max_examples=25, deadline=None)
def test_symbolic_extensions_are_certified(n, a, c, group):
    assume(a or c)
    assert check_certificate(symbolic_extension(n, a, c, group=group))


@st.composite
def closure_reps(draw):
    """Block representations, extension cells over Q, and extension cells
    over Q(t) on 2-4 strands, in either mode."""
    kind = draw(st.sampled_from(["block", "rational", "symbolic"]))
    if kind == "block":
        return draw(block_reps())
    group = draw(st.booleans())
    if kind == "rational":
        return extension_rep(draw(extension_cells()), group)
    n, a, c = draw(st.integers(2, 4)), draw(small_q), draw(small_q)
    assume(a or c)
    return symbolic_extension(n, a, c, group=group)


@given(closure_reps())
@settings(max_examples=100, deadline=None)
def test_the_exact_closure_equals_the_dense_closure(rep):
    # The reference right-multiplies dense words; the closure moves d x d
    # matrices by g - I from the left.
    assert _exact_span(rep.local_images(), rep.dim) \
        == len(_algebra_rows(list(rep.assignment.values())))


@given(extension_cells(), st.sampled_from(["random", "changed"]), st.data())
@settings(max_examples=80, deadline=None)
def test_block_local_witness_checks_agree_with_dense_products(cell, kind, data):
    # The reference multiplies every dense image by the whole vector.  Each
    # cell checks the all-ones line and a random line or the all-ones line
    # with one coordinate changed.
    rep = specialized_extension(*cell, group=False)
    d = rep.dim

    def dense_products(v):
        column = Matrix(QQ, [[e] for e in v])
        return [tuple(row[0] for row in (g * column).entries) for g in rep.assignment.values()]

    ones = [Fraction(1)] * d
    assert maps_into(rep, ones_line(d)) == all(len(set(w)) == 1 for w in dense_products(ones))
    if kind == "random":
        other = data.draw(st.lists(small_q, min_size=d, max_size=d).filter(any))
    else:
        other = list(ones)
        other[data.draw(st.integers(0, d - 1))] = data.draw(small_q.filter(lambda x: x != 1))
    for v in (ones, other):
        line = Subspace(QQ, d, (tuple(v),))
        assert maps_into(rep, line) == all(line.contains(w) for w in dense_products(v))


def test_deficient_spans_are_certified_without_the_exact_closure():
    for n, dim in ((2, 2), (3, 5), (5, 17)):
        assert certified_span(specialized_extension(n, 1, 2, -1)) == (dim, True)


def test_cells_that_once_fell_back_are_certified():
    # Cells that lost rank mod 3, had 3 in a denominator, or had 2^61 - 1
    # in a denominator, when the span was decided mod a prime.
    p = 2**61 - 1
    for t0, a, c, dim in ((1, 5, -1, 9), (Fraction(1, 3), 5, -1, 9), (Fraction(1, p), 2, 1, 9),
                          (1, Fraction(1, p), 1 - Fraction(1, p), 5)):
        rep = specialized_extension(3, t0, a, c)
        assert certified_span(rep) == (dim, True)
        assert _exact_span(rep.local_images(), 3) == dim


TRIANGULAR = [Matrix(QQ, [[1, 0], [0, 2]]), Matrix(QQ, [[1, 1], [0, 1]])]


def triangular_rep(transpose):
    """diag(1, 2) and [[1, 1], [0, 1]], or their transposes: they generate
    the upper (or lower) triangular matrices, of dimension 3, whose one
    invariant line, e1 (or e2), has no invariant complement."""
    return Representation(2, "braid", 2, {("s", i + 1): (0, g.transpose() if transpose else g)
                                          for i, g in enumerate(TRIANGULAR)})


def test_the_certificate_refuses_a_tampered_basis():
    # The eigenvalue 2 of diag(1, 2) gives x = e2*e2^T.  Upper triangular:
    # S = V and R = span(e2); lower: S = span(e2) and R = V.  With e1
    # dropped from the full spin, |S| = |R| = 1 and L = span(e1) is not
    # inside S, but the upper S, or the lower L, is not invariant.
    spins = irreducibility._spins
    for transpose, full in ((False, 0), (True, 1)):
        def dropped(blocks, d):
            out = list(spins(blocks, d))
            out[full] = Echelon(QQ, [row for _, row in out[full].reduced()[1:]])
            return tuple(out)

        with mock.patch.object(irreducibility, "_spins", dropped):
            assert certified_span(triangular_rep(transpose)) == (3, False)


def test_the_certificate_needs_l_outside_s():
    # The upper triangular matrices hold x = e1*e2^T = g2 - I, whose spins
    # are S = span(e1) and R = span(e2): |S| = |R| = 1, both invariant, but
    # L = R^perp = S, so V is not S + L.
    rows = _algebra_rows(TRIANGULAR)
    assert len(rows) == 3 and not Echelon(QQ, [row for _, row in rows]).remainder({1: 1})
    x = ({0: Fraction(1)}, {1: Fraction(1)})
    with mock.patch.object(irreducibility, "_rank_one", lambda blocks, d: x):
        assert certified_span(triangular_rep(False)) == (3, False)


# Roots and scales far beyond what trial division up to sqrt(|const|) could
# reach, so only the direct linear and quadratic formulas finish in time.
big_rationals = st.fractions(max_denominator=10**12).filter(lambda q: abs(q.numerator) < 10**24)
nonzero_scales = st.fractions(max_denominator=10**6).filter(lambda q: q != 0)


@given(big_rationals, big_rationals, nonzero_scales)
@settings(max_examples=200)
def test_quadratic_roots_are_recovered(r1, r2, k):
    coeffs = [k, -k * (r1 + r2), k * r1 * r2]
    assert rational_roots(coeffs) == sorted({r1, r2})
    assert rational_roots([k, -k * r1]) == [r1]


def test_rational_roots_of_other_degrees():
    assert rational_roots([Fraction(1), Fraction(0), Fraction(-10**21)]) == []
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    assert rational_roots([Fraction(3), Fraction(0), Fraction(0)]) == [0]
    assert rational_roots([Fraction(5)]) == []
    # (x - 1/2)(x + 3)(x - 2) x: the cubic factor goes through the divisor search.
    quartic = [Fraction(c) for c in (1, Fraction(1, 2), Fraction(-13, 2), 3, 0)]
    assert rational_roots(quartic) == [-3, 0, Fraction(1, 2), 2]
