"""Assembly and exact solving of the extension constraint systems."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import (
    LAURENT,
    ConstraintSystem,
    LaurentPoly,
    Matrix,
    QQ,
    RationalFunction,
    SolutionFamily,
    SymPoly,
    T,
    assemble,
    block_form_match,
    build_presentation,
    involution_classify,
    laurent_representability,
    solve_involution_2x2,
    solve_linear,
    solve_with_residue,
    solved_images,
    standard_rep,
    verify_relations,
    vsb2_problem,
)
from braidrep.errors import (
    BraidRepError,
    Inconsistent,
    ModeMismatch,
    NonlinearSystem,
    NotInvolution,
    UnassignedGenerator,
    Unclassifiable,
    ZeroQ,
)
from braidrep.reps import Representation, singular_extension, standard_block
from braidrep.symbolic import SYMBOLIC
from braidrep import solver
from braidrep.solver import entry_names
from paper_involutions import involution_matrix

a, b, c, d, x, y, z = (SymPoly.symbol(name) for name in "abcdxyz")


def singular_problem(n: int):
    """The extension problem on n strands: the singular presentation, the
    s-images of ``standard_rep(n)`` known, every t-image unknown."""
    return build_presentation(n, "singular"), standard_rep(n), [("t", i) for i in range(1, n)]


def vsb2_quadratics() -> ConstraintSystem:
    """The quadratic system of the v-image: the residue of the affine-first
    solve of the vsb2 problem, over its unknowns."""
    system, _, residue = solve_with_residue(*vsb2_problem())
    return replace(system, equations=residue)


def laurent_values(family, params: dict) -> dict:
    """Every unknown's Laurent value when the free parameters take ``params``."""
    point = {name: SymPoly.const(v) for name, v in params.items()}
    values = dict(point, **{name: e.substitute(point) for name, e in family.bindings.items()})
    assert set(params) == set(family.free)
    assert not any(v.variables() for v in values.values())
    return {name: RationalFunction.coerce(v.terms.get((), 0)).as_laurent()
            for name, v in values.items()}


def test_entry_names():
    assert entry_names(2, "v", "") == [["p", "q"], ["r", "s"]]
    assert entry_names(2, "t", "") == [["a", "b"], ["c", "d"]]
    assert entry_names(3, "t", "2") == [["a2", "b2", "c2"], ["d2", "e2", "f2"], ["g2", "h2", "i2"]]
    five = entry_names(5, "t", "1")
    assert five[0][0] == "a1" and five[4][4] == "z1"
    assert all("t1" != name for row in five for name in row)
    six = entry_names(6, "t", "")
    assert six[0][0] == "x1_1" and six[5][5] == "x6_6"
    assert entry_names(12, "t", "1")[0][10] == "x1_11_1"
    assert entry_names(12, "t", "11")[0][0] == "x1_1_11"


@pytest.mark.parametrize("n", range(2, 21))
def test_unknown_names_are_distinct(n):
    suffixes = [str(i) if n > 2 else "" for i in range(1, n)]
    names = [name for s in suffixes for row in entry_names(n, "t", s) for name in row]
    assert len(set(names)) == len(names) == n * n * (n - 1)


def test_repeated_unknown_names_are_refused(monkeypatch):
    # Naming every generator's entries alike must not merge their unknowns.
    family = solve_linear(assemble(*singular_problem(3)))
    monkeypatch.setattr(solver, "entry_names",
                        lambda dim, kind, suffix: entry_names(dim, kind, ""))
    with pytest.raises(BraidRepError, match="repeat"):
        assemble(*singular_problem(3))
    with pytest.raises(BraidRepError, match="repeat"):
        solved_images(family, 3, [("t", 1), ("t", 2)])


def test_two_strand_assembly():
    system = assemble(*singular_problem(2))
    assert system.unknowns == ("a", "b", "c", "d")
    assert all(e.degree() == 1 for e in system.equations)
    assert system.discarded_zero == 0
    assert system.discarded_duplicate == 1
    assert set(system.equations) == {b - c * T, a * T - d * T, a - d}


def test_two_strand_solution_family():
    family = solve_linear(assemble(*singular_problem(2)))
    assert family.free == ("a", "c")
    assert family.bindings["d"] == a
    assert family.bindings["b"] == c * T
    assert family.to_json_dict()["bindings"] == {"d": "a", "b": "c*t"}


def test_two_strand_solution_satisfies_the_relation():
    family = solve_linear(assemble(*singular_problem(2)))
    values = laurent_values(family, {"a": 5, "c": T})
    tau = Matrix(LAURENT, [[values["a"], values["b"]], [values["c"], values["d"]]])
    sigma = standard_block()
    assert tau * sigma == sigma * tau
    assert tau == Matrix(LAURENT, [[5, T ** 2], [T, 5]])


def test_three_strand_assembly_counts():
    system = assemble(*singular_problem(3))
    assert len(system.unknowns) == 18
    assert len(system.equations) == 32
    assert all(e.degree() == 1 for e in system.equations)
    assert system.discarded_zero == 11
    assert system.discarded_duplicate == 2
    # the five defining relations contribute 5 * 9 = 45 matrix entries
    assert len(system.equations) + system.discarded_zero + system.discarded_duplicate == 45


def test_three_strand_solution_family():
    family = solve_linear(assemble(*singular_problem(3)))
    assert family.free == ("a1", "d1", "i1")
    zero = SymPoly()
    a1, d1, i1 = (SymPoly.symbol(name) for name in ("a1", "d1", "i1"))
    expected = {"b1": d1 * T, "e1": a1, "a2": i1, "e2": a1, "f2": d1 * T, "h2": d1, "i2": a1}
    for name, expr in expected.items():
        assert family.bindings[name] == expr
    others = set(family.bindings) - set(expected)
    assert others == {"c1", "f1", "g1", "h1", "b2", "c2", "d2", "g2"}
    assert all(family.bindings[name] == zero for name in others)


def test_three_strand_solution_annihilates_every_equation():
    system = assemble(*singular_problem(3))
    family = solve_linear(system)
    for eq in system.equations:
        assert eq.substitute(family.bindings).is_zero()


def test_three_strand_solution_passes_relation_verification():
    family = solve_linear(assemble(*singular_problem(3)))
    values = laurent_values(family, {"a1": 2, "d1": 3, "i1": 5})
    names = entry_names(3, "t", "")
    mats = {}
    for idx in (1, 2):
        rows = [[values[f"{name}{idx}"] for name in row] for row in names]
        mats[("t", idx)] = Matrix(LAURENT, rows)
    assignment = dict(standard_rep(3).assignment)
    assignment.update(mats)
    rep = Representation(3, "singular", 3, {key: (0, m) for key, m in assignment.items()},
                         group=False)
    pres = build_presentation(3, "singular")
    assert verify_relations(rep, pres) == []
    assert mats[("t", 1)] == Matrix(LAURENT, [[2, 3 * T, 0], [3, 2, 0], [0, 0, 5]])
    assert mats[("t", 2)] == Matrix(LAURENT, [[5, 0, 0], [0, 2, 3 * T], [0, 3, 2]])


def solve_singular(n: int):
    """``solve_with_residue`` on the extension problem on n strands."""
    return solve_with_residue(*singular_problem(n))


def test_four_strand_solution_has_three_parameters_and_no_residue():
    system = assemble(*singular_problem(4))
    _, family, residue = solve_singular(4)
    assert residue == ()
    assert len(family.free) == 3
    # every relation entry is kept, identically zero, or a duplicate; the
    # 16 entries of t_1 t_3 - t_3 t_1 are the kept quadratics
    pres = build_presentation(4, "singular")
    entry_count = len(pres.relations) * 16
    assert (len(system.equations)
            + system.discarded_zero + system.discarded_duplicate) == entry_count
    assert sum(e.degree() == 2 for e in system.equations) == 16


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_affine_solve_counts_what_the_full_assembly_counts(n):
    # Every entry of t_i t_j - t_j t_i for generic images has degree 2 and
    # is distinct from every other up to sign, so leaving the far
    # commutations out of the assembly moves no linear equation or count.
    full = dense_assemble(*singular_problem(n))
    system, _, residue = solve_singular(n)
    assert system.unknowns == full.unknowns
    assert system.equations == tuple(e for e in full.equations if e.degree() <= 1)
    assert (system.discarded_zero, system.discarded_duplicate) \
        == (full.discarded_zero, full.discarded_duplicate)
    assert residue == ()


def test_solved_images_two_strands():
    family = solve_linear(assemble(*singular_problem(2)))
    images = solved_images(family, 2, [("t", 1)])
    tau = images[("t", 1)]
    a, c = SymPoly.symbol("a"), SymPoly.symbol("c")
    assert tau.entries[0][0] == a
    assert tau.entries[0][1] == c * SymPoly.const(T)
    assert tau.entries[1][0] == c
    assert tau.entries[1][1] == a


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_form_match_rejects_a_tampered_family(n):
    _, family, _ = solve_singular(n)
    assert block_form_match(family, n)[0]
    names = entry_names(n, "t", "1" if n > 2 else "")
    top_right, off = names[0][1], names[1][0]
    # tau_1's (1,2) entry is c*t; bind it to c instead.
    bindings = dict(family.bindings, **{top_right: SymPoly.symbol(off)})
    assert not block_form_match(replace(family, bindings=bindings), n)[0]


def test_block_form_match_sets_the_residual_parameter_to_one():
    _, family, _ = solve_singular(3)
    assert block_form_match(family, 3) == (True, ("i1",))
    # Binding the outer diagonal to 0 instead of leaving it free to be set to 1.
    bindings = dict(family.bindings, i1=SymPoly())
    tampered = replace(family, free=("a1", "d1"), bindings=bindings)
    assert block_form_match(tampered, 3) == (False, ())


def test_assemble_validates_generators():
    pres = build_presentation(2, "singular")
    with pytest.raises(ModeMismatch):
        assemble(pres, standard_rep(2), [("v", 1)])
    only_s1 = Representation(3, "braid", 3, {("s", 1): (0, standard_block())})
    with pytest.raises(UnassignedGenerator):
        assemble(build_presentation(3, "singular"), only_s1, [("t", 1), ("t", 2)])


def test_an_unassigned_generator_is_named_by_kind_and_index():
    with pytest.raises(UnassignedGenerator, match="for t2$"):
        assemble(build_presentation(3, "singular"), standard_rep(3), [("t", 1)])


def dense_assemble(pres, known, unknown_gens) -> ConstraintSystem:
    """The constraint system of ``assemble``, with each relation folded by
    the dense ``Matrix.__mul__`` and the two sides subtracted in full: every
    nonzero entry, sign-normalized, kept once in first-seen order."""
    dim = known.dim
    images = {key: known.image(*key).map_entries(SymPoly.coerce, SYMBOLIC)
              for key in known.generator_keys()}
    unknowns = []
    for key, names in solver._unknown_names(dim, unknown_gens).items():
        unknowns += [name for row in names for name in row]
        images[key] = Matrix(SYMBOLIC, [[SymPoly.symbol(name) for name in row] for row in names])
    rep = Representation(pres.n, pres.mode, dim, {key: (0, m) for key, m in images.items()})
    equations, seen, zero, duplicate = [], set(), 0, 0
    for rel in pres.relations:
        lhs, rhs = (prod((rep.image(g.kind, g.index, g.exp) for g in w),
                         start=Matrix.identity(SYMBOLIC, dim)) for w in (rel.lhs, rel.rhs))
        for entry in (e for row in (lhs - rhs).entries for e in row):
            if entry.is_zero():
                zero += 1
                continue
            p = solver._normalize_sign(entry)
            if p in seen:
                duplicate += 1
                continue
            seen.add(p)
            equations.append(p)
    return ConstraintSystem(tuple(unknowns), tuple(equations), zero, duplicate)


# (dim^2 times the relation count, the problem)
SUPPORT_CASES = [
    *[(entries, lambda n=n: singular_problem(n))
      for n, entries in [(2, 4), (3, 45), (4, 208), (5, 625)]],
    (8, vsb2_problem),
    (8, lambda: (build_presentation(2, "virtual_singular"),
                 singular_extension(2, 1 + T, T ** -1), [("v", 1)])),
]


@pytest.mark.parametrize("entries,problem", SUPPORT_CASES,
                         ids=["sb2", "sb3", "sb4", "sb5", "vsb2-symbolic", "vsb2-laurent"])
def test_support_local_assembly_equals_the_dense_reference(entries, problem):
    pres, known, unknown = problem()
    system, reference = assemble(pres, known, unknown), dense_assemble(pres, known, unknown)
    assert system == reference
    assert system.to_json_dict() == reference.to_json_dict()
    assert entries == known.dim ** 2 * len(pres.relations) == (
        len(system.equations) + system.discarded_zero + system.discarded_duplicate)


def test_inconsistent_system_raises_with_witness():
    system = ConstraintSystem(
        unknowns=("x",),
        equations=(x + 1, x),
        discarded_zero=0,
        discarded_duplicate=0,
    )
    with pytest.raises(Inconsistent) as info:
        solve_linear(system)
    assert info.value.witness is not None
    # The witness is the first equation inconsistent with the ones before it.
    system = ConstraintSystem(
        unknowns=("x", "y"),
        equations=(x + 1, x, y),
        discarded_zero=0,
        discarded_duplicate=0,
    )
    with pytest.raises(Inconsistent) as info:
        solve_linear(system)
    assert info.value.witness == x


def test_nonlinear_system_refuses_linear_solver():
    with pytest.raises(NonlinearSystem):
        solve_linear(assemble(*vsb2_problem()))


def test_a_quadratic_entry_is_refused_by_name():
    # The full four-strand assembly keeps the far commutation t_1 t_3 =
    # t_3 t_1 among its equations; the solver refuses its first quadratic.
    system = assemble(*singular_problem(4))
    first = next(e for e in system.equations if e.degree() > 1)
    with pytest.raises(NonlinearSystem) as info:
        solve_linear(system)
    assert str(info.value).startswith(f"equation {first} = 0 is not affine")
    # Without the quadratics the same system solves.
    solve_linear(replace(system, equations=tuple(e for e in system.equations
                                                 if e.degree() <= 1)))


def test_a_symbolic_known_coefficient_is_refused_by_name():
    # v_1 t_3 = t_3 v_1 on four strands, against a t-image with symbols a
    # and c: the relation has one unknown letter a side, but its entries
    # carry a and c, which are not unknowns.
    pres = build_presentation(4, "virtual_singular")
    far = next(rel for rel in pres.relations if rel.kind == "nu_tau_far")
    known = singular_extension(4, a, c, t=SymPoly.const(T))
    system = assemble(replace(pres, relations=(far,)), known, [("v", i) for i in range(1, 4)])
    first = system.equations[0]
    assert first.variables() & {"a", "c"}
    with pytest.raises(NonlinearSystem) as info:
        solve_linear(system)
    assert str(info.value).startswith(f"equation {first} = 0 is not affine")
    # A foreign symbol refuses even an equation of degree 1.
    with pytest.raises(NonlinearSystem, match=r"^equation a \+ x = 0 is not affine"):
        solve_linear(ConstraintSystem(("x",), (x + a,), 0, 0))


def test_rename_pass_prefers_earliest_names():
    system = ConstraintSystem(
        unknowns=("x", "y", "z"),
        equations=(x - z, y - z),
        discarded_zero=0,
        discarded_duplicate=0,
    )
    family = solve_linear(system)
    assert family.free == ("x",)
    assert family.bindings["y"] == x
    assert family.bindings["z"] == x


def test_laurent_representability_flags_denominators():
    system = ConstraintSystem(
        unknowns=("x", "y"),
        equations=(x * (T + 1) - y,),
        discarded_zero=0,
        discarded_duplicate=0,
    )
    family = solve_linear(system)
    report = laurent_representability(family)
    assert not report["representable"]
    assert report["flagged"][0]["unknown"] == "y" or report["flagged"][0]["unknown"] == "x"

    clean = laurent_representability(solve_linear(assemble(*singular_problem(3))))
    assert clean["representable"] and clean["flagged"] == []


def test_vsb2_assembly_is_the_involution_problem():
    system = assemble(*vsb2_problem())
    assert system.unknowns == ("p", "q", "r", "s")
    assert system.discarded_zero == 4
    p, q, r, s = (SymPoly.symbol(x) for x in "pqrs")
    one = SymPoly.const(1)
    assert set(system.equations) == {
        p * p + q * r - one,
        p * q + q * s,
        p * r + r * s,
        q * r + s * s - one,
    }


def test_vsb2_assembly_with_numeric_parameters_matches():
    generic = assemble(*vsb2_problem())
    concrete = assemble(build_presentation(2, "virtual_singular"), singular_extension(2, 2, 3),
                        [("v", 1)])
    assert set(concrete.equations) == set(generic.equations)


def test_vsb2_residue_is_the_full_quadratic_system():
    reference = dense_assemble(*vsb2_problem())
    system, family, residue = solve_with_residue(*vsb2_problem())
    assert family.free == ("p", "q", "r", "s")
    assert residue == tuple(e for e in reference.equations if e.degree() > 1)
    assert len(residue) == 4
    # The affine part has no equation and discards what the full one does.
    assert system == replace(reference, equations=())


def test_involution_catalog():
    sols = solve_involution_2x2()
    assert [s.family_id for s in sols] == [1, 2, 3, 4, 5]
    assert sols[0].free == ("p", "q")
    assert sols[0].entries[1][0] == "(-p^2 + 1)/q"
    assert sols[0].constraints == ("q != 0", "q divides -p^2 + 1 in the Laurent ring")
    assert sols[3].entries == (("-1", "0"), ("0", "-1"))


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5])
def test_involution_families_square_to_identity_symbolically(family_id):
    system = vsb2_quadratics()
    family = solve_involution_2x2(system)[family_id - 1]
    assert family.family_id == family_id
    assert family.solves(system)


def tampered(family, name, value):
    bindings = dict(family.bindings)
    bindings[name] = (value, SymPoly.const(1))
    return replace(family, bindings=bindings)


def test_a_tampered_family_fails_the_substitution_check():
    system = vsb2_quadratics()
    one, two = solve_involution_2x2(system)[:2]
    assert not tampered(one, "s", SymPoly.symbol("p")).solves(system)
    num, den = one.bindings["r"]
    bindings = dict(one.bindings, r=(num + 1, den))
    assert not replace(one, bindings=bindings).solves(system)
    assert not tampered(two, "p", SymPoly.const(1)).solves(system)


def test_a_tampered_family_image_is_not_an_involution():
    # The check raises by name, so ``python -O`` cannot strip it.
    one = solve_involution_2x2()[0]
    m = one.image({"p": 2, "q": 1})
    assert (m * m).is_identity()
    with pytest.raises(NotInvolution, match="family 1"):
        tampered(one, "s", SymPoly.symbol("p")).image({"p": 2, "q": 1})


def test_families_that_differ_in_a_binding_are_unequal():
    family = SolutionFamily(("a",), {"b": a})
    assert family != SolutionFamily(("a",), {"b": SymPoly.const(7)})
    assert family == SolutionFamily(("a",), {"b": a})
    assert hash(family) == hash(SolutionFamily(("a",), {"b": SymPoly.const(7)}))
    one = solve_involution_2x2(vsb2_quadratics())[0]
    assert tampered(one, "s", SymPoly.symbol("p")) != one
    assert replace(one, bindings=dict(one.bindings)) == one


def quadratics(unknowns, *polys):
    return ConstraintSystem(unknowns=tuple(unknowns), equations=polys,
                            discarded_zero=0, discarded_duplicate=0)


def test_case_split_refuses_a_system_no_rule_reaches():
    p, q = SymPoly.symbol("p"), SymPoly.symbol("q")
    system = quadratics("pq", p * p + q * q - 2)
    with pytest.raises(BraidRepError, match="no case-split rule"):
        solve_involution_2x2(system)


def test_a_coefficient_that_depends_on_t_is_not_rational():
    assert solver._rational(RationalFunction(3, 2)) == Fraction(3, 2)
    for c in (RationalFunction(T), RationalFunction(1, T), RationalFunction(1, T + 1)):
        assert solver._rational(c) is None
    # So p^2 - t is not univariate over Q: no rule reaches it, and reading t
    # as 0 would branch on the root p = 0 instead.
    p = SymPoly.symbol("p")
    with pytest.raises(BraidRepError, match="no case-split rule"):
        solve_involution_2x2(quadratics("p", p * p - T))


def test_case_split_resolves_earlier_bindings():
    # s = -p is bound first; p = 1 found later must reach s's binding too.
    p, q, s = (SymPoly.symbol(x) for x in "pqs")
    system = quadratics("pqs", p + s, p * q - q)
    first, second = solve_involution_2x2(system)
    assert (first.free, first.nonzero) == (("q",), ("q",))
    assert first.bindings["s"][0] == -1 and first.bindings["p"][0] == 1
    assert (second.free, second.nonzero) == (("p",), ())
    assert second.bindings["s"][0] == -p and second.bindings["q"][0] == 0
    assert first.solves(system) and second.solves(system)


def test_case_split_drops_branches_without_rational_roots():
    p = SymPoly.symbol("p")
    assert solve_involution_2x2(quadratics("p", p * p - 2)) == []


def family_value(family, name, params):
    if name in family.free:
        return RationalFunction.coerce(params[name])
    point = {k: SymPoly.const(v) for k, v in params.items()}
    num, den = (part.substitute(point) for part in family.bindings[name])
    return num.terms.get((), RationalFunction(0)) / den.terms[()]


small = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@given(small, small.filter(lambda x: x != 0), small)
@settings(max_examples=25, deadline=None)
def test_derived_families_are_the_involution_matrix_families(p, q, r):
    families = solve_involution_2x2()
    samples = {1: {"p": p, "q": q}, 2: {"r": r}, 3: {"r": r}, 4: {}, 5: {}}
    for family in families:
        params = samples[family.family_id]
        built = involution_matrix(family.family_id, domain=QQ, **params)
        derived = tuple(tuple(family_value(family, name, params) for name in row)
                        for row in entry_names(2, "v", ""))
        assert derived == built.entries
        assert involution_classify(built) == (family.family_id, params)


laurents = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3)).map(LaurentPoly)


@given(laurents, laurents, st.integers(-2, 2), st.sampled_from([1, -1]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_derived_family_images_are_the_table_over_the_laurent_ring(p, r, k, sign, plus):
    # q = +-t^k (1 -+ p) divides 1 - p^2, so family 1 stays in the ring.
    q = LaurentPoly({k: sign}) * (1 + p if plus else 1 - p)
    samples = {1: {"p": p, "q": q}, 2: {"r": r}, 3: {"r": r}, 4: {}, 5: {}}
    for family in solve_involution_2x2():
        params = samples[family.family_id]
        if family.family_id == 1 and not q:
            with pytest.raises(ZeroQ):
                family.image(params)
            continue
        assert family.image(params) == involution_matrix(family.family_id, **params)


@pytest.mark.parametrize("m", [
    Matrix.identity(QQ, 3), Matrix(QQ, [[1, 0], [0, 1], [0, 0]]),
    Matrix(QQ, [[1, 0, 0], [0, 1, 0]]), Matrix.identity(LAURENT, 2),
], ids=["3x3-over-Q", "3x2-over-Q", "2x3-over-Q", "2x2-over-Laurent"])
def test_classification_refuses_a_matrix_that_is_not_rational_2x2(m):
    with pytest.raises(NotInvolution, match="expects a 2x2 matrix over Q"):
        involution_classify(m)


@pytest.mark.parametrize("family_id", [1, 2, 3, 4, 5])
def test_classifying_without_a_family_leaves_its_matrices_unclassified(family_id):
    families = solve_involution_2x2()
    others = [f for f in families if f.family_id != family_id]
    params = {1: {"p": 2, "q": 3}, 2: {"r": 5}, 3: {"r": -1}, 4: {}, 5: {}}[family_id]
    m = involution_matrix(family_id, domain=QQ, **params)
    assert involution_classify(m, families)[0] == family_id
    with pytest.raises(Unclassifiable):
        involution_classify(m, others)


def test_involution_classification_round_trip():
    cases = [
        (1, {"p": Fraction(3), "q": Fraction(2)}),
        (2, {"r": Fraction(5)}),
        (2, {"r": Fraction(0)}),
        (3, {"r": Fraction(-7, 2)}),
        (3, {"r": Fraction(0)}),
        (4, {}),
        (5, {}),
    ]
    for family_id, params in cases:
        m = involution_matrix(family_id, domain=QQ, **params)
        got_id, got_params = involution_classify(m)
        assert got_id == family_id
        assert got_params == params


def test_involution_classify_rejects_non_involutions():
    with pytest.raises(NotInvolution):
        involution_classify(Matrix(QQ, [[2, 0], [0, 2]]))
    with pytest.raises(NotInvolution):
        involution_classify(Matrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


def test_constraint_system_json_shape():
    obj = assemble(*singular_problem(2)).to_json_dict()
    assert set(obj) == {"unknowns", "equations", "discarded_zero_equations",
                        "discarded_duplicate_equations"}
    assert obj["unknowns"] == ["a", "b", "c", "d"]
    assert obj["discarded_zero_equations"] == 0
    assert obj["discarded_duplicate_equations"] == 1
    assert "b - c*t" in obj["equations"]


# A non-unit coefficient follows its monomial, its sign in front: the format
# of the binding lines that solve-extension reports.
@pytest.mark.parametrize("poly,text", [
    (c * T, "c*t"),
    (x * -T, "-x*t"),
    (x * 2, "x*2"),
    (x * -2, "-x*2"),
    (x * 2 * T ** -1, "x*2*t^-1"),
    (x * (T + 1), "x*(t + 1)"),
    (x * (-T - 1), "x*(-t - 1)"),
    (x * RationalFunction(1, T + 1), "x*((1)/(t + 1))"),
    (x * RationalFunction(-1, T + 1), "x*((-1)/(t + 1))"),
    (a - b + T - 1, "a - b + t - 1"),
    (x * 3 * T ** 2 + RationalFunction(1, T + 1), "x*3*t^2 + (1)/(t + 1)"),
    (SymPoly(), "0"),
    (SymPoly.const(-3), "-3"),
])
def test_symbolic_rendering(poly, text):
    assert str(poly) == text


def test_symbolic_constants_hash_like_their_coefficient():
    assert SymPoly.const(3) in {3}
    assert SymPoly.const(Fraction(2, 3)) in {Fraction(2, 3)}
    assert SymPoly.const(T) in {T}
    assert SymPoly() in {0}


sym_coeffs = st.sampled_from([
    RationalFunction(1), RationalFunction(-1), RationalFunction(2), RationalFunction(T),
    RationalFunction(-T), RationalFunction(T + 1), RationalFunction(1, T + 1),
    RationalFunction(1, 2),
])
sym_monos = st.sampled_from([(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),)])
sym_polys = st.dictionaries(sym_monos, sym_coeffs, max_size=4).map(SymPoly)


@given(sym_polys, sym_polys)
@settings(max_examples=100, deadline=None)
def test_sympoly_arithmetic_keeps_canonical_terms(p, q):
    """Sums, differences, negations and products store no zero coefficient
    and equal the same terms passed through the public constructor."""
    for result in (p + q, p - q, -p, p * q, q * p, p + 3, p * Fraction(1, 2)):
        assert all(isinstance(c, RationalFunction) and not c.is_zero()
                   for c in result.terms.values())
        assert result == SymPoly(dict(result.terms))
    assert not (p + (-p)).terms
    assert not (p - p).terms
    monos = p.terms.keys() | q.terms.keys()
    assert p + q == SymPoly({m: p.terms.get(m, 0) + q.terms.get(m, 0) for m in monos})
    assert -p == SymPoly({m: c * -1 for m, c in p.terms.items()})


# -- sympy as an independent reference (test-only dependency) ------------------


def _expr_to_sympy(to_sympy, expr: SymPoly, values: dict):
    return sum((to_sympy(c) * prod((values[name] ** k for name, k in mono), start=1)
                for mono, c in expr.terms.items()), start=0)


def _rank_over_q_of_t(sympy, rows: list[list], ncols: int) -> int:
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    if not rows:
        return 0
    dm = DomainMatrix.from_list_sympy(len(rows), ncols, rows)
    return dm.convert_to(sympy.QQ.frac_field(t)).rank()


def check_solve_linear_against_sympy(sympy, to_sympy, system: ConstraintSystem):
    """len(free) is the nullity sympy finds, and the bindings satisfy every
    equation; an inconsistent system has a larger augmented rank."""
    names = list(system.unknowns)
    matrix = [[to_sympy(eq.terms.get(((name, 1),), 0)) for name in names]
              for eq in system.equations]
    rank = _rank_over_q_of_t(sympy, matrix, len(names))
    try:
        family = solve_linear(system)
    except Inconsistent:
        augmented = [row + [to_sympy(eq.terms.get((), 0))]
                     for row, eq in zip(matrix, system.equations)]
        assert _rank_over_q_of_t(sympy, augmented, len(names) + 1) == rank + 1
        return
    assert len(family.free) == len(names) - rank
    assert set(family.free) | set(family.bindings) == set(names)
    assert not set(family.free) & set(family.bindings)
    values = {name: sympy.Symbol(name) for name in family.free}
    values.update({name: _expr_to_sympy(to_sympy, expr, values)
                   for name, expr in family.bindings.items()})
    for eq in system.equations:
        assert sympy.cancel(_expr_to_sympy(to_sympy, eq, values)) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_solve_linear_matches_sympy_on_the_singular_systems(sympy, to_sympy, n):
    check_solve_linear_against_sympy(sympy, to_sympy, solve_singular(n)[0])


coefficients = st.sampled_from([
    1, -1, 2, T, -T, T ** -1, T + 1,
    RationalFunction(1, T + 1), RationalFunction(T, T - 1), RationalFunction(T, 2),
])
constants = st.one_of(st.just(0), coefficients)
NAMES = ("w", "x", "y", "z")


def affine(constant, coeffs: dict) -> SymPoly:
    return sum((SymPoly.symbol(name) * c for name, c in coeffs.items()), SymPoly.const(constant))


@st.composite
def sparse_systems(draw):
    unknowns = NAMES[:draw(st.integers(1, len(NAMES)))]
    # Half the systems are homogeneous, so both outcomes occur often.
    constant = st.just(0) if draw(st.booleans()) else constants
    equations = draw(st.lists(
        st.builds(affine, constant,
                  st.dictionaries(st.sampled_from(unknowns), coefficients,
                                  min_size=1, max_size=2)),
        min_size=1, max_size=6))
    return ConstraintSystem(unknowns=unknowns, equations=tuple(equations),
                            discarded_zero=0, discarded_duplicate=0)


@given(system=sparse_systems())
@settings(max_examples=60, deadline=None)
def test_solve_linear_matches_sympy_on_small_sparse_systems(sympy, to_sympy, system):
    check_solve_linear_against_sympy(sympy, to_sympy, system)
