"""Catalog representations and relation verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import (
    LAURENT,
    LaurentPoly,
    Matrix,
    QQ,
    RATFUNC,
    T,
    build_presentation,
    burau_rep,
    evaluate_word,
    f_rep,
    parse_word,
    pure_braid_generator,
    sigma,
    singular_extension,
    solve_involution_2x2,
    standard_rep,
    tau,
    verify_relations,
    vsb2_extension,
    word,
)
from braidrep.errors import (
    DivisibilityViolation,
    ModeMismatch,
    NonInvertibleLetter,
    NonInvertibleTau,
    ZeroQ,
)
from braidrep import laurent, reps
from braidrep.cli import main
from braidrep.presentations import GeneratorSymbol
from braidrep.laurent import RationalFunction
from braidrep.reps import Representation, standard_block
from braidrep.symbolic import SymPoly
from paper_involutions import involution_matrix

FAMILIES = {family.family_id: family for family in solve_involution_2x2()}


def full_blocks(assignment: dict) -> dict:
    """Each dense image as its own block at offset 0."""
    return {key: (0, m) for key, m in assignment.items()}


@pytest.mark.parametrize("builder", [standard_rep, burau_rep, f_rep])
@pytest.mark.parametrize("n", range(2, 7))
def test_braid_representations_satisfy_all_relations(builder, n):
    rep = builder(n)
    assert verify_relations(rep, build_presentation(n, "braid")) == []


def test_dimensions():
    assert standard_rep(4).dim == 4
    assert burau_rep(4).dim == 4
    assert f_rep(4).dim == 5


def test_tau_block_is_a_plus_c_times_standard():
    # One builder, four rings: Laurent, Q at t0, Q(t) and the solver's
    # symbolic unknowns.
    for t, a, c in [
        (T, T + 2, 1 - T),
        (Fraction(3, 2), Fraction(2), Fraction(-1, 3)),
        (RationalFunction(T), Fraction(1, 2), Fraction(3)),
        (SymPoly.const(T), SymPoly.symbol("a"), SymPoly.symbol("c")),
    ]:
        rep = singular_extension(2, a, c, t=t)
        sigma = standard_block(t)
        expected = Matrix.identity(sigma.domain, 2).scaled(a) + sigma.scaled(c)
        assert rep.assignment[("s", 1)] == sigma
        assert rep.assignment[("t", 1)] == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_singular_extension_satisfies_all_relations(n):
    rng = random.Random(n)
    pres = build_presentation(n, "singular")
    for _ in range(20):
        a = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        rep = singular_extension(n, a, c)
        assert verify_relations(rep, pres) == []


def test_singular_extension_specialized_satisfies_relations():
    pres = build_presentation(4, "singular")
    rep = singular_extension(4, 2, -1, t=Fraction(3))
    assert verify_relations(rep, pres) == []
    assert rep.domain.name == "rational"


def test_broken_assignment_is_caught():
    base = singular_extension(3, 1, 1)
    broken = {**base.assignment, ("t", 2): Matrix.identity(LAURENT, 3).scaled(T)}
    rep = Representation(3, "singular", 3, full_blocks(broken), group=base.group)
    violations = verify_relations(rep, build_presentation(3, "singular"))
    assert violations
    kinds = {v.relation.kind for v in violations}
    assert "tau_slide_up" in kinds or "tau_slide_down" in kinds
    v = violations[0]
    assert v.diff == v.lhs - v.rhs and v.lhs != v.rhs


def test_a_representation_needs_a_generator():
    with pytest.raises(ModeMismatch):
        Representation(3, "braid", 3, {})


def test_a_generator_block_must_be_square():
    with pytest.raises(ModeMismatch):
        Representation(3, "braid", 3, {("s", 1): (0, Matrix(LAURENT, [[1, T]]))})


def test_generator_blocks_must_share_one_domain():
    blocks = {("s", 1): (0, standard_block()), ("s", 2): (1, standard_block(Fraction(2)))}
    with pytest.raises(ModeMismatch):
        Representation(3, "braid", 3, blocks)


@pytest.mark.parametrize("offset", [-1, 2])
def test_a_generator_block_must_fit_in_the_dimension(offset):
    # A 2 x 2 block fits in dimension 3 at offsets 0 and 1 only.
    with pytest.raises(ModeMismatch):
        Representation(3, "braid", 3, {("s", 1): (offset, standard_block())})
    fits = Representation(3, "braid", 3, {("s", 1): (1, standard_block())})
    assert fits.image("s", 1) == standard_rep(3).image("s", 2)


def test_a_representation_cannot_be_changed_after_use():
    # The blocks are a representation's only state, so a write to an image
    # after its block was used must raise instead of going unseen.
    rep = singular_extension(3, 1, 1)
    pres = build_presentation(3, "singular")
    assert verify_relations(rep, pres) == []
    tau2 = rep.image("t", 2)
    with pytest.raises(TypeError):
        rep.assignment[("t", 2)] = Matrix.identity(LAURENT, 3).scaled(T)
    with pytest.raises(TypeError):
        rep.params["a"] = 2
    for attr in ("assignment", "dim", "group"):
        with pytest.raises(AttributeError):
            setattr(rep, attr, None)
    assert rep.image("t", 2) == tau2
    assert verify_relations(rep, pres) == []


def test_group_mode_rejects_non_unit_tau_determinant():
    with pytest.raises(NonInvertibleTau):
        singular_extension(3, 1, 1, group=True)
    with pytest.raises(NonInvertibleTau):
        singular_extension(3, 2, 1, group=True, t=Fraction(4))
    rep = singular_extension(3, 0, 1, group=True)
    assert rep.image("t", 1, -1) * rep.image("t", 1) == Matrix.identity(LAURENT, 3)


def test_a_far_exponent_is_refused_without_a_dense_form(monkeypatch):
    # The determinant's Bareiss step divides by the unit 1; a dense
    # coefficient list of t^(2e) - t would hold 2 * 10^12 integers.
    def refuse(p):
        raise AssertionError(f"densified {p}")

    monkeypatch.setattr(laurent, "_dense", refuse)
    with pytest.raises(NonInvertibleTau, match=r"determinant t\^2000000000000 - t is not"):
        singular_extension(3, T ** 10 ** 12, 1, group=True)


def test_monoid_mode_blocks_tau_inversion():
    rep = singular_extension(3, 1, 1)
    with pytest.raises(NonInvertibleLetter):
        rep.image("t", 1, -1)


def test_verify_relations_mode_mismatch():
    with pytest.raises(ModeMismatch):
        verify_relations(standard_rep(3), build_presentation(3, "singular"))
    with pytest.raises(ModeMismatch):
        verify_relations(standard_rep(3), build_presentation(4, "braid"))


def test_evaluate_word_respects_inverses():
    rep = standard_rep(3)
    w = parse_word("s1 s2 s2^-1 s1^-1")
    assert evaluate_word(rep, w).is_identity()
    assert evaluate_word(rep, ()).is_identity()


def test_pure_braid_images_are_diagonal():
    rep = standard_rep(3)
    a12 = evaluate_word(rep, pure_braid_generator(1, 2, 3))
    assert a12 == Matrix(LAURENT, [[T, 0, 0], [0, T, 0], [0, 0, 1]])
    a13 = evaluate_word(rep, pure_braid_generator(1, 3, 3))
    assert a13 == Matrix(LAURENT, [[T, 0, 0], [0, 1, 0], [0, 0, T]])
    a23 = evaluate_word(rep, pure_braid_generator(2, 3, 3))
    assert a23 == Matrix(LAURENT, [[1, 0, 0], [0, T, 0], [0, 0, T]])


def test_sigma_and_tau_images_commute_blockwise():
    rep = singular_extension(4, T, 1 - T)
    s2 = rep.image("s", 2)
    t2 = rep.image("t", 2)
    assert s2 * t2 == t2 * s2


@pytest.mark.parametrize("family_id,kwargs", [
    (1, {"p": 0, "q": 1}),
    (1, {"p": 3, "q": 2}),
    (1, {"p": T, "q": 1 - T}),
    (2, {"r": 5}),
    (3, {"r": T ** -1}),
    (4, {}),
    (5, {}),
])
def test_involution_families_square_to_identity(family_id, kwargs):
    # The derived family's image against the paper's table.
    m = FAMILIES[family_id].image(kwargs)
    assert m == involution_matrix(family_id, **kwargs)
    assert (m * m).is_identity()


def test_involution_family_one_divisibility():
    family = FAMILIES[1]
    with pytest.raises(ZeroQ, match=r"^family 1 requires q != 0$"):
        family.image({"p": 1, "q": 0})
    with pytest.raises(DivisibilityViolation, match=r"^q = t \+ 1 does not divide "
                       r"-p\^2 \+ 1 = 1 in the Laurent ring$"):
        family.image({"p": 0, "q": T + 1})
    m = family.image({"p": T, "q": T + 1})
    assert m.entries[1][0] == 1 - T


def test_a_far_divisor_is_refused_without_a_dense_form(monkeypatch):
    # q = t^e + 1 does not divide the constant -p^2 + 1 = -3.  The gcd of a
    # monomial c*t^k with anything is an integer gcd, and exact division by
    # a divisor of wider exponent span is refused outright; a dense
    # coefficient list of q would hold 10^12 + 1 integers.
    def refuse(p):
        raise AssertionError(f"densified {p}")

    monkeypatch.setattr(laurent, "_dense", refuse)
    far = T ** 10 ** 12 + 1
    with pytest.raises(DivisibilityViolation, match=r"^q = t\^1000000000000 \+ 1 does not "
                       r"divide -p\^2 \+ 1 = -3 in the Laurent ring$"):
        FAMILIES[1].image({"p": 2, "q": far})
    three = laurent.LaurentPoly({0: -3})
    with pytest.raises(ValueError, match="is not an exact multiple"):
        three.exact_div(far)
    assert laurent.laurent_gcd(three, far) == 1
    assert laurent.laurent_gcd(6 * T ** 10 ** 12, 4 * far) == 2
    assert laurent.laurent_gcd(laurent.ZERO, three) == 3


@pytest.mark.parametrize("family_id,kwargs", [
    (1, {"p": 0, "q": 1}),
    (2, {"r": 0}),
    (3, {"r": 2}),
    (4, {}),
    (5, {}),
])
def test_vsb2_extension_satisfies_all_relations(family_id, kwargs):
    pres = build_presentation(2, "virtual_singular")
    for a, c in [(1, 1), (0, 1), (2, -3)]:
        rep = vsb2_extension(FAMILIES[family_id], kwargs, a=a, c=c)
        assert verify_relations(rep, pres) == []


def test_vsb2_family_one_nu_slide_needs_no_indices_beyond_two_strands():
    rep = vsb2_extension(FAMILIES[1], {"p": 2, "q": 3}, a=1, c=1)
    assert rep.image("v", 1) == Matrix(LAURENT, [[2, 3], [-1, -2]])
    pres = build_presentation(2, "virtual_singular")
    assert verify_relations(rep, pres) == []


def test_word_images_multiply():
    rep = singular_extension(3, 1, 2)
    w = word(sigma(1), tau(2), sigma(2))
    expected = rep.image("s", 1) * rep.image("t", 2) * rep.image("s", 2)
    assert evaluate_word(rep, w) == expected


# -- block-local letters against the dense reference ---------------------------

LOCAL_CASES = [
    standard_rep(2), standard_rep(5), burau_rep(4), f_rep(4),
    singular_extension(4, 0, T ** -1, group=True),
    singular_extension(3, -T, 0, group=True),
    singular_extension(5, 1 + T, T ** -1),
    singular_extension(4, 2, -1, group=True, t=Fraction(3, 2)),
    singular_extension(3, Fraction(1, 2), 3, t=Fraction(-2)),
    vsb2_extension(FAMILIES[1], {"p": T, "q": 1 - T}, a=0, c=1, group=True),
    vsb2_extension(FAMILIES[2], {"r": 1 + T}, a=T, c=2),
    # Seven strands: words whose letters' blocks leave gaps between them.
    standard_rep(7),
    singular_extension(7, 1 + T, T ** -1),
]


def dense_word(rep, w):
    """The reference: fold Matrix.__mul__ over the dense images, inverting
    with Matrix.inverse()."""
    out = Matrix.identity(rep.domain, rep.dim)
    for g in w:
        image = rep.image(g.kind, g.index)
        out = out * (image if g.exp == 1 else image.inverse())
    return out


def invertible_letters(rep):
    return [
        GeneratorSymbol(kind, index, exp)
        for kind, index in rep.generator_keys()
        for exp in (1, -1)
        if exp == 1 or kind != "t" or rep.group
    ]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_local_word_product_matches_dense_fold(data):
    rep = data.draw(st.sampled_from(LOCAL_CASES))
    w = tuple(data.draw(st.lists(st.sampled_from(invertible_letters(rep)), max_size=8)))
    assert evaluate_word(rep, w) == dense_word(rep, w)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verify_relations_matches_dense_fold_on_tampered_images(data):
    # One generator image gets one block entry changed, or is replaced by a
    # full scalar matrix; the violations must be exactly the dense ones.
    rep = data.draw(st.sampled_from(LOCAL_CASES))
    key = data.draw(st.sampled_from(rep.generator_keys()))
    change = rep.domain.coerce(data.draw(st.sampled_from([-1, 2, 3])))
    blocks = {k: rep.local_image(*k) for k in rep.generator_keys()}
    if data.draw(st.booleans()):
        offset, block = blocks[key]
        r, c = (data.draw(st.integers(0, block.rows - 1)) for _ in range(2))
        entries = [list(row) for row in block.entries]
        entries[r][c] += change
        blocks[key] = (offset, Matrix(rep.domain, entries))
    else:
        blocks[key] = (0, Matrix.identity(rep.domain, rep.dim).scaled(change))
    rep = Representation(rep.n, rep.mode, rep.dim, blocks, group=rep.group)
    pres = build_presentation(rep.n, rep.mode)
    dense = []
    for rel in pres.relations:
        lhs, rhs = dense_word(rep, rel.lhs), dense_word(rep, rel.rhs)
        if lhs != rhs:
            dense.append((rel, lhs, rhs, lhs - rhs))
    assert [(v.relation, v.lhs, v.rhs, v.diff) for v in verify_relations(rep, pres)] == dense


def with_blocks(rep, changed: dict) -> Representation:
    """``rep`` with the blocks of the keys in ``changed`` replaced, each at
    its offset."""
    blocks = {k: rep.local_image(*k) for k in rep.generator_keys()}
    blocks.update((k, (blocks[k][0], block)) for k, block in changed.items())
    return Representation(rep.n, rep.mode, rep.dim, blocks, group=rep.group)


def test_verify_multiplies_each_relation_shape_once(monkeypatch, capsys):
    # 145 relations on ten strands, in 8 shapes: each shape's pair of sides
    # is multiplied once, and at least once, for its verdict.
    calls = []
    products = reps._products

    def counting(domain, size, letters):
        calls.append(len(letters))
        return products(domain, size, letters)

    monkeypatch.setattr(reps, "_products", counting)
    assert main(["verify", "singular-ext", "10"]) == 0
    assert "checked 145 relations" in capsys.readouterr().out
    assert calls == [2] * 8


def test_a_changed_block_takes_no_verdict_from_an_equal_shape():
    # Only tau_4's (1, 1) entry is raised by one.  Each relation that holds
    # tau_4 has the compressed positions of one that holds tau_1, whose
    # verdict it must not take.
    rep = singular_extension(8, 1 + T, T ** -1)
    block = rep.local_image("t", 4)[1]
    entries = [list(row) for row in block.entries]
    entries[0][0] += 1
    rep = with_blocks(rep, {("t", 4): Matrix(rep.domain, entries)})
    pres = build_presentation(8, "singular")
    dense = []
    for rel in pres.relations:
        lhs, rhs = dense_word(rep, rel.lhs), dense_word(rep, rel.rhs)
        if lhs != rhs:
            dense.append((rel, lhs, rhs, lhs - rhs))
    violations = verify_relations(rep, pres)
    assert [(v.relation, v.lhs, v.rhs, v.diff) for v in violations] == dense
    assert violations and all(tau(4) in v.relation.lhs + v.relation.rhs for v in violations)


def test_equal_blocks_held_as_distinct_objects_still_verify():
    rep = singular_extension(6, 1 + T, T ** -1)
    copies = {key: Matrix(rep.domain, [list(row) for row in rep.local_image(*key)[1].entries])
              for key in rep.generator_keys() if key[0] == "s"}
    rep = with_blocks(rep, copies)
    assert len({id(rep.local_image(*key)[1]) for key in copies}) == len(copies)
    assert verify_relations(rep, build_presentation(6, "singular")) == []


@pytest.mark.parametrize("rep", LOCAL_CASES, ids=repr)
def test_block_inverse_matches_dense_inverse(rep):
    for g in invertible_letters(rep):
        if g.exp == -1:
            dense = rep.image(g.kind, g.index)
            assert rep.image(g.kind, g.index, -1) == dense.inverse()


@pytest.mark.parametrize("a,c", [(1, 1), (2, 0), (1 + T, T)])
def test_group_mode_non_unit_tau_block_is_not_invertible(a, c):
    assignment = singular_extension(3, a, c).assignment
    rep = Representation(3, "singular", 3, full_blocks(assignment), group=True)
    with pytest.raises(NonInvertibleLetter):
        rep.image("t", 2, -1)
    with pytest.raises(NonInvertibleLetter):
        evaluate_word(rep, word(sigma(1), tau(2, -1)))


@pytest.mark.parametrize("domain", [QQ, RATFUNC], ids=lambda d: d.name)
def test_a_singular_block_over_a_field_is_a_non_invertible_letter(domain):
    # Over a field a singular block has no inverse either, and the error
    # names the letter as it does over the Laurent ring.
    singular = Matrix(domain, [[1, 1], [1, 1]])
    rep = Representation(2, "braid", 2, {("s", 1): (0, singular)})
    with pytest.raises(NonInvertibleLetter, match=r"image of s1 is not invertible"):
        evaluate_word(rep, (sigma(1, -1),))
