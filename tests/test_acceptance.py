"""Acceptance gate: the ten headline results, checked exactly.

Each test covers one criterion and prints one pass line; every comparison is
exact (integer, Fraction, Laurent, or symbolic equality - never a tolerance).
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from braidrep import (
    LAURENT,
    Echelon,
    LaurentPoly,
    Matrix,
    QQ,
    SymPoly,
    T,
    assemble,
    build_presentation,
    burnside_span,
    evaluate_word,
    grid_report,
    involution_classify,
    is_irreducible,
    pure_commutator_certificate,
    singular_extension,
    solve_involution_2x2,
    solve_linear,
    solve_with_residue,
    solved_images,
    specialize,
    specialized_extension,
    standard_rep,
    symbolic_extension,
    verify_relations,
    vsb2_extension,
    vsb2_problem,
)
from braidrep.presentations import TAU
from braidrep.reps import _block_rep
from braidrep.symbolic import SYMBOLIC


def singular_system(n: int):
    """Every relation of the n-strand singular presentation, assembled with
    the standard s-images known and every t-image unknown."""
    return assemble(build_presentation(n, "singular"), standard_rep(n),
                    [(TAU, i) for i in range(1, n)])


def random_laurent(rng: random.Random) -> LaurentPoly:
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def test_criterion_01_two_strand_extension_family():
    family = solve_linear(singular_system(2))
    assert family.free == ("a", "c")
    assert set(family.bindings) == {"b", "d"}
    assert family.bindings["d"] == SymPoly.symbol("a")
    assert family.bindings["b"] == SymPoly.symbol("c") * T
    print("criterion 1: PASS")


def test_criterion_02_three_strand_equations_and_block_form():
    system = singular_system(3)
    assert len(system.equations) == 32
    assert len(system.unknowns) == 18
    assert all(e.degree() == 1 for e in system.equations)

    family = solve_linear(system)
    residual = sorted(name for name in family.free if name not in ("a1", "d1"))
    assert residual == ["i1"]

    images = solved_images(family, 3, [(TAU, 1), (TAU, 2)])
    setting = {name: SymPoly.const(1) for name in residual}
    diag, off = SymPoly.symbol("a1"), SymPoly.symbol("d1")
    core = Matrix(SYMBOLIC, [[diag, off * SymPoly.const(T)], [off, diag]])
    for position in (1, 2):
        substituted = images[(TAU, position)].map_entries(lambda e: e.substitute(setting))
        assert substituted == _block_rep(3, core, "").image("s", position)
    print("criterion 2: PASS")


def test_criterion_03_extension_verifies_on_more_strands():
    for n in (4, 5, 6):
        rng = random.Random(300 + n)
        pres = build_presentation(n, "singular")
        for _ in range(20):
            rep = singular_extension(n, random_laurent(rng), random_laurent(rng))
            assert verify_relations(rep, pres) == []
    print("criterion 3: PASS")


def test_criterion_04_irreducible_away_from_t_one():
    for n in (3, 4):
        for t0 in (2, -1, Fraction(3, 2)):
            rng = random.Random(100 * n + int(2 * Fraction(t0)))
            drawn = 0
            while drawn < 10:
                a, c = random_fraction(rng), random_fraction(rng)
                if a * a - t0 * c * c == 0:
                    continue
                drawn += 1
                spec = specialized_extension(n, t0, a, c)
                assert burnside_span(spec) == n * n
    print("criterion 4: PASS")


def test_criterion_05_t_one_dichotomy_in_a_plus_c():
    for n in (3, 4):
        rng = random.Random(500 + n)
        ones = tuple([Fraction(1)] * n)

        drawn = 0
        while drawn < 10:
            a = random_fraction(rng)
            c = 1 - a
            if a == c:
                continue
            drawn += 1
            spec = specialized_extension(n, 1, a, c)
            verdict = is_irreducible(spec)
            assert not verdict.irreducible
            assert verdict.witness is not None
            assert verdict.witness.dim == 1
            assert verdict.witness.contains(ones)

        drawn = 0
        while drawn < 10:
            a, c = random_fraction(rng), random_fraction(rng)
            if a + c == 1 or a * a - c * c == 0:
                continue
            drawn += 1
            spec = specialized_extension(n, 1, a, c)
            assert burnside_span(spec) == n * n
    print("criterion 5: PASS")


def test_criterion_06_two_strand_divergence_and_symbolic_span():
    rng = random.Random(600)
    t_values = (2, -1, 3)
    pairs = [(Fraction(0), Fraction(1))]
    while len(pairs) < 6:
        a, c = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        if all(a * a - t0 * c * c != 0 for t0 in t_values):
            pairs.append((a, c))

    report = grid_report(2, t_values, pairs)
    assert len(report.cells) == 18
    assert all(cell.verdict.span_dim == 2 for cell in report.cells)
    assert all(cell.verdict.span_dim < 4 for cell in report.cells)
    assert report.status == "divergence"

    # Over Q(t) the algebra is Q(t)[sigma] (sigma^2 = t*I, tau = a*I + c*sigma),
    # of dimension 2: two strands are reducible with t symbolic too.
    for a, c in pairs:
        assert burnside_span(symbolic_extension(2, a, c)) == 2
    print("criterion 6: PASS")


def test_criterion_07_braid_images_alone_match_the_t_dichotomy():
    for n in (3, 4):
        assert burnside_span(specialize(standard_rep(n), 2)) == n * n
        assert burnside_span(specialize(standard_rep(n), 1)) < n * n
    print("criterion 7: PASS")


def test_criterion_08_pure_braid_commutator_certificates():
    for n in (3, 4, 5):
        rng = random.Random(800 + n)
        for _ in range(10):
            rep = singular_extension(n, random_laurent(rng), random_laurent(rng))
            cert = pure_commutator_certificate(rep, (1, 2), (1, 3))
            assert cert.word
            assert cert.nontriviality.startswith("cited")
            assert evaluate_word(rep, cert.word).is_identity()
    print("criterion 8: PASS")


def test_criterion_09_involution_families_and_classifier():
    affine, _, residue = solve_with_residue(*vsb2_problem())
    system = replace(affine, equations=residue)
    families = solve_involution_2x2(system)
    assert [f.family_id for f in families] == [1, 2, 3, 4, 5]
    assert families[0].entries == (("p", "q"), ("(-p^2 + 1)/q", "-p"))
    assert families[1].entries == (("-1", "0"), ("r", "1"))
    assert families[2].entries == (("1", "0"), ("r", "-1"))
    assert families[3].entries == (("-1", "0"), ("0", "-1"))
    assert families[4].entries == (("1", "0"), ("0", "1"))
    assert all(f.solves(system) for f in families)

    rng = random.Random(900)
    for _ in range(200):
        while True:
            v = Matrix(QQ, [[Fraction(rng.randint(-5, 5)) for _ in range(2)]
                            for _ in range(2)])
            if v.det() != 0:
                break
        signs = rng.choice([(1, 1), (-1, -1), (1, -1), (-1, 1)])
        d = Matrix(QQ, [[Fraction(signs[0]), 0], [0, Fraction(signs[1])]])
        conjugate = v * d * v.inverse()
        family_id, _params = involution_classify(conjugate)
        assert family_id in (1, 2, 3, 4, 5)

    pres = build_presentation(2, "virtual_singular")
    cases = [(1, {"p": 2, "q": 3}), (2, {"r": 4}), (3, {"r": -1}), (4, {}), (5, {})]
    for family_id, params in cases:
        rep = vsb2_extension(families[family_id - 1], params, a=T, c=2)
        assert verify_relations(rep, pres) == []
    print("criterion 9: PASS")


def test_criterion_10_infrastructure_properties():
    rng = random.Random(1000)

    def poly():
        return LaurentPoly({rng.randint(-4, 4): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 4))})

    for _ in range(500):
        f, g, h = poly(), poly(), poly()
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    for _ in range(100):
        f, g = poly(), poly()
        t0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert (f + g).evaluate(t0) == f.evaluate(t0) + g.evaluate(t0)
        assert (f * g).evaluate(t0) == f.evaluate(t0) * g.evaluate(t0)

    def qq_matrix(rows, cols):
        return Matrix(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(cols)] for _ in range(rows)])

    for _ in range(50):
        a, b = qq_matrix(3, 3), qq_matrix(3, 3)
        assert (a * b).det() == a.det() * b.det()

    for _ in range(50):
        m = qq_matrix(3, 5)
        assert len(Echelon(QQ, m.entries)) + m.nullspace().dim == 5

    for _ in range(50):
        block1 = Matrix(LAURENT, [[poly(), poly()], [poly(), poly()]])
        block2 = Matrix(LAURENT, [[poly(), poly()], [poly(), poly()]])
        left = _block_rep(5, block1, "").image("s", 1)
        right = _block_rep(5, block2, "").image("s", rng.choice([3, 4]))
        assert left * right == right * left
    print("criterion 10: PASS")
