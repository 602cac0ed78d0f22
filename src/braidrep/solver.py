"""Assembling and solving the matrix-relation constraint systems.

Given a presentation, a representation holding the known generator images,
and a set of generators whose images are unknown, ``assemble`` builds a
representation from symbolic blocks, multiplies the two sides of every
relation on their support as ``verify_relations`` does, and collects the
entrywise scalar equations.  Entries that vanish identically are discarded
(counted, those outside the support without being formed), as is the second
member of any pair of equations equal up to overall sign; what survives is
the honest equation count of the problem.

Every equation and every solved binding is a ``SymPoly``.  ``solve_linear``
inserts the equations, each as a sparse ``{unknown: coefficient}`` row with
the constant in a last column, into an ``Echelon`` basis over Q(t), refusing
the first one that is not affine in the unknowns and stopping at the first
one inconsistent with the ones before it, reads the solution set off the
unique reduced form, and presents it with the earliest-named unknowns as the
free parameters, so a chain of forced equalities like a = e = i is reported
as bindings onto ``a`` rather than onto ``i``.

``solve_with_residue`` assembles and solves only the relations with at most
one unknown letter on each side, whose entries are affine, and checks every
other relation (such as the far commutations t_i t_j = t_j t_i) by
multiplying it out on the solved images; the nonzero entries left over are
the residue.  Both extension problems go through it: on the singular one the
residue is empty, and on ``vsb2_problem()``, whose one relation in the
v-image is v_1 v_1 = 1, it is the four quadratics of that image.

``solve_involution_2x2`` derives the 2x2 involution families from that
residue by a four-rule case split, checks each family by substituting it
back into the quadratics, and ``involution_classify`` matches a rational
involution against the derived families.  ``involution_families`` derives
them once per process; the CLI and both defaults read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import prod

from .errors import (
    BraidRepError,
    DivisibilityViolation,
    Inconsistent,
    ModeMismatch,
    NonlinearSystem,
    NotInvolution,
    Unclassifiable,
    UnassignedGenerator,
    ZeroQ,
)
from .laurent import T, RationalFunction, rational_roots
from .matrix import LAURENT, RATFUNC, Echelon, Matrix, QQ
from .presentations import NU, TAU, Presentation, build_presentation
from .reps import Representation, _local_products, singular_extension
from .symbolic import SYMBOLIC, SymPoly

__all__ = [
    "ConstraintSystem",
    "SolutionFamily",
    "InvolutionSolution",
    "assemble",
    "vsb2_problem",
    "solved_images",
    "block_form_match",
    "solve_linear",
    "solve_with_residue",
    "laurent_representability",
    "solve_involution_2x2",
    "involution_families",
    "involution_classify",
]

# Unknown-entry letters, row-major; 't' is reserved for the ring variable.
_ENTRY_LETTERS = "abcdefghijklmnopqrsuvwxyz"


def entry_names(dim: int, kind: str, suffix: str) -> list[list[str]]:
    """Row-major unknown names for one generator image.

    A lone 2x2 v-generator gets the traditional p, q, r, s; up to 5x5, the
    entries are consecutive letters (starting at 'a') with the generator
    suffix; larger images use x{row}_{col}_{suffix}, underscores keeping the
    names of different generators apart.
    """
    if kind == NU and dim == 2 and suffix == "":
        return [["p", "q"], ["r", "s"]]
    if dim * dim <= len(_ENTRY_LETTERS):
        flat = [_ENTRY_LETTERS[k] + suffix for k in range(dim * dim)]
    else:
        tail = f"_{suffix}" if suffix else ""
        flat = [f"x{r + 1}_{c + 1}{tail}" for r in range(dim) for c in range(dim)]
    return [flat[r * dim:(r + 1) * dim] for r in range(dim)]


def _unknown_names(dim: int, unknown_gens: list) -> dict:
    """The entry names of each unknown generator, suffixed by its index
    when there are several; raises if any name repeats."""
    suffixed = len(unknown_gens) > 1
    names = {key: entry_names(dim, key[0], str(key[1]) if suffixed else "")
             for key in unknown_gens}
    flat = [name for grid in names.values() for row in grid for name in row]
    if len(set(flat)) != len(flat):
        raise BraidRepError(f"unknown names repeat across {len(flat)} entries")
    return names


@dataclass(frozen=True)
class ConstraintSystem:
    """The scalar equations extracted from a presentation's relations."""

    unknowns: tuple[str, ...]
    equations: tuple[SymPoly, ...]
    discarded_zero: int
    discarded_duplicate: int

    def to_json_dict(self) -> dict:
        return {
            "unknowns": list(self.unknowns),
            "equations": [str(e) for e in self.equations],
            "discarded_zero_equations": self.discarded_zero,
            "discarded_duplicate_equations": self.discarded_duplicate,
        }


def _normalize_sign(p: SymPoly) -> SymPoly:
    """Flip the overall sign so the first monomial of top degree has a
    coefficient whose numerator leads positive; p and -p come out alike."""
    top = p.degree()
    lead = p.terms[min(m for m in p.terms if sum(k for _, k in m) == top)]
    return -p if lead.num.terms[lead.num.degree()] < 0 else p


def _symbolic_rep(pres: Presentation, known: Representation, unknown_images: dict) -> Representation:
    """``known`` over the symbolic ring, its blocks lifted, with the full
    images of the unknown generators added; raises if a generator of
    ``pres`` still has no image."""
    blocks = {key: (offset, block.map_entries(SymPoly.coerce, SYMBOLIC))
              for key, (offset, block) in zip(known.generator_keys(), known.local_images())}
    blocks.update((key, (0, image)) for key, image in unknown_images.items())
    for key in pres.generator_keys():
        if key not in blocks:
            raise UnassignedGenerator(f"no image (known or unknown) for {key[0]}{key[1]}")
    return Representation(pres.n, pres.mode, known.dim, blocks)


def assemble(pres: Presentation, known: Representation, unknown_gens) -> ConstraintSystem:
    """Entrywise constraints making the unknown images satisfy the relations.

    ``known`` holds the known generator images (its blocks are lifted to
    symbolic entries); ``unknown_gens`` lists the (kind, index) pairs to
    solve for, each a full symbolic block, in the order that fixes the
    unknown naming and the elimination order.  The two sides of a relation
    are multiplied on their support, outside which both are the identity, so
    every entry there is counted as discarded without being formed.
    """
    unknown_gens = list(unknown_gens)
    for kind, index in unknown_gens:
        if (kind, index) not in pres.generator_keys():
            raise ModeMismatch(
                f"generator {kind}{index} does not exist in mode {pres.mode} on n={pres.n}")
    names = _unknown_names(known.dim, unknown_gens)
    unknowns = [name for grid in names.values() for row in grid for name in row]
    rep = _symbolic_rep(pres, known, {
        key: Matrix(SYMBOLIC, [[SymPoly.symbol(name) for name in row] for row in grid])
        for key, grid in names.items()})
    return ConstraintSystem(tuple(unknowns), *_collect(rep, pres.relations))


def _collect(rep: Representation, relations) -> tuple[tuple[SymPoly, ...], int, int]:
    """The entries of lhs - rhs over ``relations``, each relation multiplied
    on its support: the nonzero ones sign-normalized and without repeats, in
    first-seen order, then the counts of zero entries (those outside the
    support counted without being formed) and of repeats."""
    kept: dict[SymPoly, None] = {}
    zero = duplicate = 0
    for rel in relations:
        support, (lhs, rhs) = _local_products(rep, [rel.lhs, rel.rhs])
        zero += rep.dim ** 2 - len(support) ** 2
        for lrow, rrow in zip(lhs, rhs):
            for left, right in zip(lrow, rrow):
                if (entry := left - right).is_zero():
                    zero += 1
                elif (p := _normalize_sign(entry)) in kept:
                    duplicate += 1
                else:
                    kept[p] = None
    return tuple(kept), zero, duplicate


def vsb2_problem() -> tuple[Presentation, Representation, list]:
    """The two-strand virtual extension problem: the presentation, the s-
    and t-images known (the t-image with symbolic entries a and c, matching
    the general extension it restricts to), and the v-generator unknown."""
    known = singular_extension(2, SymPoly.symbol("a"), SymPoly.symbol("c"), t=SymPoly.const(T))
    return build_presentation(2, "virtual_singular"), known, [(NU, 1)]


def solved_images(family: SolutionFamily, dim: int, unknown_gens) -> dict:
    """Rebuild the unknown generators' image matrices from a solved family:
    free unknowns stay as symbols, bound unknowns become their expressions."""
    out = {}
    for key, names in _unknown_names(dim, list(unknown_gens)).items():
        entries = [
            [
                SymPoly.symbol(name) if name in family.free else family.bindings[name]
                for name in row
            ]
            for row in names
        ]
        out[key] = Matrix(SYMBOLIC, entries)
    return out


def block_form_match(family: SolutionFamily, n: int) -> tuple[bool, tuple[str, ...]]:
    """Compare the solved t-images of the extension problem on n strands
    (s-images those of ``standard_rep(n)``, every t-image unknown) with the
    embedded a*I + c*sigma_i block family.

    The block pair is named by the unknowns in the (1,1) and (2,1) entries
    of the t_1 image; every other free parameter is residual.  Returns
    whether the solved images, with the residual parameters set to 1, equal
    ``singular_extension``'s t-images over the symbolic ring, and the
    residual parameters in unknown order.
    """
    unknown = [(TAU, i) for i in range(1, n)]
    names = _unknown_names(n, unknown)[(TAU, 1)]
    diag, off = names[0][0], names[1][0]
    residual = tuple(name for name in family.free if name not in (diag, off))
    setting = {name: SymPoly.const(1) for name in residual}
    expected = singular_extension(n, SymPoly.symbol(diag), SymPoly.symbol(off),
                                  t=SymPoly.const(T))
    images = solved_images(family, n, unknown)
    ok = all(
        images[key].map_entries(lambda e: e.substitute(setting)) == expected.image(*key)
        for key in unknown
    )
    return ok, residual


@dataclass(frozen=True)
class SolutionFamily:
    """Solution set of a linear system, as free parameters plus bindings.

    Every unknown is either listed in ``free`` or bound by an affine
    polynomial in the free parameters.
    """

    free: tuple[str, ...]
    bindings: dict[str, SymPoly] = field(hash=False)

    def to_json_dict(self) -> dict:
        return {"free": list(self.free),
                "bindings": {name: str(e) for name, e in self.bindings.items()}}


def solve_linear(system: ConstraintSystem) -> SolutionFamily:
    """Row-reduce the equations over Q(t).

    Raises NonlinearSystem at the first equation that is not affine in the
    unknowns (of degree above 1, or holding another symbol), and
    Inconsistent when no solution exists; its witness is the first equation
    inconsistent with the ones before it.  Free parameters are the non-pivot
    unknowns, renamed so each forced-equality chain is parametrized by its
    earliest member.
    """
    unknowns = list(system.unknowns)
    order = {name: k for k, name in enumerate(unknowns)}
    ncols = len(unknowns)

    # Sparse rows over the unknowns' columns, the constant in column ncols.
    echelon = Echelon(RATFUNC)
    for eq in system.equations:
        if eq.degree() > 1 or not eq.variables() <= order.keys():
            raise NonlinearSystem(
                f"equation {eq} = 0 is not affine in the unknowns; the linear solver does not apply")
        row = {order[mono[0][0]]: c for mono, c in eq.terms.items() if mono}
        row[ncols] = -eq.terms.get((), 0)
        if echelon.insert(row) and ncols in echelon.rows:
            raise Inconsistent(f"equation {eq} = 0 is unsatisfiable", witness=eq)

    rows = echelon.rows
    free = [unknowns[c] for c in range(ncols) if c not in rows]
    bindings: dict[str, SymPoly] = {
        unknowns[c]: SymPoly({(): rest.get(ncols, 0), **{
            ((unknowns[f], 1),): -e for f, e in rest.items() if f != ncols}})
        for c, rest in sorted(rows.items())
    }

    # A free parameter and the unknowns bound to exactly it form a chain of
    # forced equalities; make the chain's earliest member the free one.
    earliest = {}
    for bound, expr in bindings.items():
        names = expr.variables()
        if len(names) == 1 and expr == SymPoly.symbol(param := min(names)):
            if order[bound] < order[earliest.get(param, param)]:
                earliest[param] = bound
    for param, first in earliest.items():
        del bindings[first]
        bindings[param] = SymPoly.symbol(first)
        free[free.index(param)] = first
    renaming = {param: SymPoly.symbol(first) for param, first in earliest.items()}
    bindings = {name: e.substitute(renaming) for name, e in bindings.items()}

    free.sort(key=order.get)
    return SolutionFamily(free=tuple(free), bindings=bindings)


def solve_with_residue(pres: Presentation, known: Representation,
                       unknown_gens) -> tuple[ConstraintSystem, SolutionFamily, tuple]:
    """Solve the relations that are affine in the unknowns, then check the
    rest on the solved images.

    A relation with at most one unknown letter on each side has affine
    entries: those relations are assembled and solved by ``solve_linear``.
    Every other relation (two unknown letters on one side, such as
    t_i t_j = t_j t_i) is multiplied out on its support with the unknown
    images replaced by ``solved_images``, so it is written in the free
    parameters alone.  The residue is the nonzero entries of lhs - rhs,
    sign-normalized and without repeats, as ``assemble`` keeps them; it is
    empty when the affine solution satisfies every relation, and on
    ``vsb2_problem()`` it is the quadratic system of the v-image.  Returns
    the affine system, its solution family and the residue.
    """
    unknown_gens = list(unknown_gens)
    unknown = set(unknown_gens)

    def affine(rel) -> bool:
        return all(sum((g.kind, g.index) in unknown for g in side) <= 1
                   for side in (rel.lhs, rel.rhs))

    system = assemble(replace(pres, relations=tuple(filter(affine, pres.relations))),
                      known, unknown_gens)
    family = solve_linear(system)
    rep = _symbolic_rep(pres, known, solved_images(family, known.dim, unknown_gens))
    residue, _, _ = _collect(rep, [rel for rel in pres.relations if not affine(rel)])
    return system, family, residue


def laurent_representability(family: SolutionFamily) -> dict:
    """Check whether every binding stays inside the Laurent ring, i.e. the
    solved family needs no denominators beyond units.  Returns a report with
    the offending bindings, if any."""
    flagged = []
    for name in sorted(family.bindings):
        expr = family.bindings[name]
        bad = [str(coeff.den) for coeff in expr.terms.values() if not coeff.is_laurent()]
        if bad:
            flagged.append({"unknown": name, "binding": str(expr), "denominators": bad})
    return {"representable": not flagged, "flagged": flagged}




@dataclass(frozen=True)
class InvolutionSolution:
    """A family of 2x2 involutions [[p, q], [r, s]]: each entry is free or
    bound to a quotient (num, den) of polynomials in the free entries, and
    the entries in ``nonzero`` must not vanish."""

    family_id: int
    free: tuple[str, ...]
    bindings: dict[str, tuple[SymPoly, SymPoly]] = field(hash=False)
    nonzero: tuple[str, ...]

    @property
    def entries(self) -> tuple[tuple[str, ...], ...]:
        def show(name):
            if name in self.free:
                return name
            num, den = self.bindings[name]
            return str(num) if den == 1 else f"({num})/{den}"
        return tuple(tuple(show(name) for name in row) for row in entry_names(2, NU, ""))

    @property
    def constraints(self) -> tuple[str, ...]:
        return tuple(f"{name} != 0" for name in self.nonzero) + tuple(
            f"{den} divides {num} in the Laurent ring"
            for num, den in self.bindings.values() if den != 1)

    def image(self, values: dict) -> Matrix:
        """The family's involution over the Laurent ring: each free entry
        takes its value from ``values`` and each bound one its quotient
        there.  Raises ZeroQ when a ``nonzero`` entry (a free one) is 0,
        DivisibilityViolation when a quotient leaves the Laurent ring, and
        NotInvolution when the matrix does not square to the identity."""
        entries = {name: RationalFunction(LAURENT.coerce(values[name])) for name in self.free}
        for name in self.nonzero:
            if not entries[name]:
                raise ZeroQ(f"family {self.family_id} requires {name} != 0")
        point = {name: SymPoly.const(e) for name, e in entries.items()}
        for name, (num, den) in self.bindings.items():
            top, bottom = (part.substitute(point).terms.get((), _RF_ZERO) for part in (num, den))
            try:
                # Exact division in the ring: no gcd of the two in Q(t).
                entries[name] = RationalFunction(top.as_laurent().exact_div(bottom.as_laurent()))
            except ValueError:
                raise DivisibilityViolation(f"{den} = {bottom} does not divide {num} = {top} "
                                            "in the Laurent ring") from None
        m = Matrix(LAURENT, [[entries[name].as_laurent() for name in row]
                             for row in entry_names(2, NU, "")])
        if not (m * m).is_identity():
            raise NotInvolution(f"family {self.family_id} produced a non-involution:\n{m}")
        return m

    def solves(self, system: ConstraintSystem) -> bool:
        """Whether every equation of ``system`` vanishes on the family, each
        quotient binding multiplied through by its denominator."""
        for eq in system.equations:
            for name, (num, den) in self.bindings.items():
                eq = _put(eq, name, num, den)[0]
            if eq:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {"family": self.family_id, "free": list(self.free),
                "entries": [list(r) for r in self.entries], "constraints": list(self.constraints)}


_ONE = SymPoly.const(1)
_RF_ZERO = RationalFunction(0)


def _put(poly: SymPoly, name: str, num: SymPoly, den: SymPoly) -> tuple[SymPoly, SymPoly]:
    """``poly`` at ``name`` = num/den, times den^m for m its degree in
    ``name``; returns that polynomial and den^m."""
    m = max((dict(mono).get(name, 0) for mono in poly.terms), default=0)
    out = SymPoly()
    for mono, coeff in poly.terms.items():
        k = dict(mono).get(name, 0)
        rest = SymPoly({tuple(v for v in mono if v[0] != name): coeff})
        out = out + prod([num] * k + [den] * (m - k), start=rest)
    return out, prod([den] * m, start=_ONE)


def _lone(e: SymPoly, x: str) -> tuple[SymPoly, SymPoly] | None:
    """(cofactor, rest) with e = cofactor*x + rest, when x occurs in just one
    monomial of e, to the first power."""
    hits = [mono for mono in e.terms if x in dict(mono)]
    if len(hits) != 1 or (x, 1) not in hits[0]:
        return None
    return (SymPoly({tuple(v for v in hits[0] if v[0] != x): e.terms[hits[0]]}),
            SymPoly({mono: c for mono, c in e.terms.items() if mono != hits[0]}))


def _rational(c: RationalFunction) -> Fraction | None:
    if c.num.terms.keys() <= {0} and c.den.terms.keys() <= {0}:
        return Fraction(c.num.terms.get(0, 0), c.den.terms[0])
    return None


def _branch(eqs, bindings, nonzero, name, num, den=_ONE) -> list:
    """Continue the case split with ``name`` = num/den substituted into the
    equations and the earlier bindings."""
    if name in nonzero and not num:
        return []
    rebound = {}
    for other, (n, d) in bindings.items():
        n, scale = _put(n, name, num, den)
        rebound[other] = (n, d * scale)
    rebound[name] = (num, den)
    return _case_split([_put(e, name, num, den)[0] for e in eqs], rebound, nonzero)


def _case_split(eqs, bindings, nonzero) -> list[tuple[dict, tuple]]:
    """The solution branches of ``eqs`` as (bindings, nonzero entries), by
    the rules of ``solve_involution_2x2``."""
    eqs = [e for e in eqs if e]
    if not eqs or any(not e.variables() for e in eqs):
        return [] if eqs else [(bindings, nonzero)]
    for e in eqs:  # 1. univariate: branch on the rational roots
        coeffs = [_rational(c) for c in e.terms.values()]
        if len(e.variables()) == 1 and None not in coeffs:
            (x,) = e.variables()
            dense = [Fraction(0)] * (e.degree() + 1)
            for mono, c in zip(e.terms, coeffs):
                dense[-1 - dict(mono).get(x, 0)] = c
            return [branch for root in rational_roots(dense)
                    for branch in _branch(eqs, bindings, nonzero, x, SymPoly.const(root))]
    for e in eqs:  # 2. constant coefficient: eliminate the latest-named variable
        lone = [(x, cr) for x in sorted(e.variables())
                if (cr := _lone(e, x)) and not cr[0].variables()]
        if lone:
            x, (cofactor, rest) = lone[-1]
            return _branch(eqs, bindings, nonzero, x, rest * (-1 / cofactor.terms[()]))
    for e in eqs:  # 3. variable factor x: x != 0, divided out, then x = 0
        for x in sorted(e.variables()):
            if all(dict(mono).get(x) for mono in e.terms):
                divided = SymPoly({tuple((v, k - (v == x)) for v, k in mono if (v, k) != (x, 1)): c
                                   for mono, c in e.terms.items()})
                rest = [divided if f is e else f for f in eqs]
                if x in nonzero:
                    return _case_split(rest, bindings, nonzero)
                return (_case_split(rest, bindings, nonzero + (x,))
                        + _branch(eqs, bindings, nonzero, x, SymPoly()))
    for e in eqs:  # 4. D*y + R with D required nonzero: y = -R/D
        for y in sorted(e.variables()):
            if (cr := _lone(e, y)) and cr[0].degree() == 1 and cr[0].variables() <= set(nonzero):
                return _branch(eqs, bindings, nonzero, y, -cr[1], cr[0])
    raise BraidRepError("no case-split rule applies to " + ", ".join(f"{e} = 0" for e in eqs))


def solve_involution_2x2(system: ConstraintSystem | None = None) -> list[InvolutionSolution]:
    """Every 2x2 involution [[p, q], [r, s]], derived from the equations of
    ``system``: by default the quadratics of the v-image, the residue of
    ``solve_with_residue(*vsb2_problem())`` over its unknowns, whose
    families ``involution_families`` derives once per process.

    The case split applies the first rule that fits: a univariate equation
    branches on its rational roots; a variable with a constant coefficient
    is eliminated, the latest-named one first; a variable factor x splits
    into x != 0, divided out, then x = 0; an equation D*y + R = 0 whose D is
    a variable already required nonzero binds y = -R/D.  When no rule fits
    it raises.  Families with more free entries come first.
    """
    if system is None:
        return list(involution_families()[2])
    branches = sorted(_case_split(system.equations, {}, ()), key=lambda branch: len(branch[0]))
    return [InvolutionSolution(k, tuple(x for x in system.unknowns if x not in bindings),
                               bindings, nonzero)
            for k, (bindings, nonzero) in enumerate(branches, 1)]


@cache
def involution_families() -> tuple[ConstraintSystem, ConstraintSystem,
                                   tuple[InvolutionSolution, ...]]:
    """The affine system of ``vsb2_problem()``, the quadratic system of its
    residue and the involution families derived from that, once per
    process: none depends on any argument."""
    system, _, residue = solve_with_residue(*vsb2_problem())
    quadratics = replace(system, equations=residue)
    return system, quadratics, tuple(solve_involution_2x2(quadratics))


def involution_classify(m: Matrix, families=None) -> tuple[int, dict[str, Fraction]]:
    """The first of ``families`` (by default the derived ones) whose nonzero
    conditions and bindings a rational 2x2 involution meets, as (family_id,
    free-entry values)."""
    if m.rows != 2 or m.cols != 2 or m.domain is not QQ:
        raise NotInvolution("classification expects a 2x2 matrix over Q")
    if not (m * m).is_identity():
        raise NotInvolution(f"matrix does not square to the identity:\n{m}")
    names = [name for row in entry_names(2, NU, "") for name in row]
    values = dict(zip(names, (e for row in m.entries for e in row)))
    point = {name: SymPoly.const(v) for name, v in values.items()}
    for f in involution_families()[2] if families is None else families:
        if all(values[x] != 0 for x in f.nonzero) and all(
                num.substitute(point) == den.substitute(point) * values[name]
                for name, (num, den) in f.bindings.items()):
            return f.family_id, {name: values[name] for name in f.free}
    raise Unclassifiable(f"involution matches none of the families:\n{m}")
