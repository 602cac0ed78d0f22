"""Assembling and solving the matrix-relation constraint systems.

Given a presentation, known generator images, and a set of generators whose
images are unknown, ``assemble`` builds symbolic image matrices, pushes every
relation through them, and collects the entrywise scalar equations.  Entries
that vanish identically are discarded (counted), as is the second member of
any pair of equations equal up to overall sign; what survives is the honest
equation count of the problem.

``solve_linear`` inserts the affine equations as sparse rows into an
``Echelon`` basis over Q(t), stopping at the first equation inconsistent with
the ones before it, reads the solution set off the unique reduced form, and
presents it with the earliest-named unknowns as the free parameters, so a
chain of forced equalities like a = e = i is reported as bindings onto ``a``
rather than onto ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    Inconsistent,
    ModeMismatch,
    NonlinearSystem,
    NotInvolution,
    Unclassifiable,
    UnassignedGenerator,
)
from .laurent import T, RationalFunction
from .matrix import RATFUNC, Echelon, Matrix, QQ, local_block, mul_local
from .presentations import NU, SIGMA, TAU, Presentation, build_presentation
from .reps import singular_extension, standard_rep
from .symbolic import SYMBOLIC, LinearExpr, SymPoly

__all__ = [
    "ConstraintSystem",
    "SolutionFamily",
    "InvolutionSolution",
    "assemble",
    "assemble_singular",
    "assemble_vsb2",
    "solved_images",
    "block_form_match",
    "solve_linear",
    "solve_with_residue",
    "laurent_representability",
    "solve_involution_2x2",
    "involution_classify",
]

# Unknown-entry letters, row-major; 't' is reserved for the ring variable.
_ENTRY_LETTERS = "abcdefghijklmnopqrsuvwxyz"


def entry_names(dim: int, kind: str, suffix: str) -> list[list[str]]:
    """Row-major unknown names for one generator image.

    A lone 2x2 v-generator gets the traditional p, q, r, s; everything else
    uses consecutive letters (starting at 'a') with the generator suffix.
    """
    if kind == NU and dim == 2 and suffix == "":
        return [["p", "q"], ["r", "s"]]
    if dim * dim <= len(_ENTRY_LETTERS):
        flat = [_ENTRY_LETTERS[k] + suffix for k in range(dim * dim)]
    else:
        flat = [f"x{r + 1}_{c + 1}{suffix}" for r in range(dim) for c in range(dim)]
    return [flat[r * dim:(r + 1) * dim] for r in range(dim)]


@dataclass(frozen=True)
class ConstraintSystem:
    """The scalar equations extracted from a presentation's relations."""

    unknowns: tuple[str, ...]
    equations: tuple[LinearExpr, ...]
    nonlinear: tuple[SymPoly, ...]
    discarded_zero: int
    discarded_duplicate: int

    def to_json_dict(self) -> dict:
        return {
            "unknowns": list(self.unknowns),
            "equations": [e.render() for e in self.equations],
            "nonlinear": [str(p) for p in self.nonlinear],
            "discarded_zero_equations": self.discarded_zero,
            "discarded_duplicate_equations": self.discarded_duplicate,
        }


def _rf_sign(x: RationalFunction) -> int:
    """Deterministic sign: that of the numerator's leading coefficient."""
    if x.is_zero():
        return 0
    return 1 if x.num.terms[x.num.degree()] > 0 else -1


def _normalize_sign(expr: LinearExpr, order: dict[str, int]) -> LinearExpr:
    """Flip the overall sign so the earliest unknown (or the constant, for
    constant-only equations) has positive leading coefficient."""
    if expr.coeffs:
        lead = min(expr.coeffs, key=lambda nc: order[nc[0]])[1]
    else:
        lead = expr.constant
    return expr.negated() if _rf_sign(lead) < 0 else expr


def _sym_normalize_sign(p: SymPoly) -> SymPoly:
    top = p.degree()
    mono = min(m for m in p.terms if sum(k for _, k in m) == top)
    return -p if _rf_sign(p.terms[mono]) < 0 else p


def assemble(pres: Presentation, known: dict, unknown_gens) -> ConstraintSystem:
    """Entrywise constraints making the unknown images satisfy the relations.

    ``known`` maps (kind, index) to a matrix (Laurent or already-symbolic
    entries); ``unknown_gens`` lists the (kind, index) pairs to solve for, in
    the order that fixes the unknown naming and the elimination order.
    """
    unknown_gens = list(unknown_gens)
    for kind, index in unknown_gens:
        if (kind, index) not in pres.generator_keys():
            raise ModeMismatch(
                f"generator {kind}{index} does not exist in mode {pres.mode} on n={pres.n}")
    images: dict = {}
    dim = None
    for key, mat in known.items():
        entries = [[SymPoly.coerce(e) for e in row] for row in mat.entries]
        images[key] = Matrix(SYMBOLIC, entries)
        dim = mat.rows
    if dim is None:
        raise UnassignedGenerator("assemble needs at least one known image to fix the dimension")

    unknowns: list[str] = []
    multiple = len(unknown_gens) > 1
    for kind, index in unknown_gens:
        suffix = str(index) if multiple else ""
        names = entry_names(dim, kind, suffix)
        unknowns.extend(name for row in names for name in row)
        images[(kind, index)] = Matrix(
            SYMBOLIC, [[SymPoly.symbol(name) for name in row] for row in names])

    for key in pres.generator_keys():
        if key not in images:
            raise UnassignedGenerator(f"no image (known or unknown) for {key[0]}{key[1]}")

    order = {name: k for k, name in enumerate(unknowns)}
    unknown_set = set(unknowns)
    equations: list[LinearExpr] = []
    seen: set = set()
    nonlinear: list[SymPoly] = []
    nonlinear_seen: set = set()
    discarded_zero = 0
    discarded_duplicate = 0

    identity = Matrix.identity(SYMBOLIC, dim).entries
    blocks = {key: local_block(m) for key, m in images.items()}

    def evaluate(w):
        rows = identity
        for g in w:
            assert g.exp == 1, "defining relations are positive words"
            rows = mul_local(rows, *blocks[(g.kind, g.index)])
        return Matrix(SYMBOLIC, rows)

    for rel in pres.relations:
        diff = evaluate(rel.lhs) - evaluate(rel.rhs)
        for row in diff.entries:
            for entry in row:
                if entry.is_zero():
                    discarded_zero += 1
                    continue
                entry_vars = entry.variables()
                if entry.is_linear() and entry_vars <= unknown_set:
                    expr = _normalize_sign(LinearExpr.from_sympoly(entry), order)
                    if expr in seen:
                        discarded_duplicate += 1
                    else:
                        seen.add(expr)
                        equations.append(expr)
                else:
                    p = _sym_normalize_sign(entry)
                    if p in nonlinear_seen:
                        discarded_duplicate += 1
                    else:
                        nonlinear_seen.add(p)
                        nonlinear.append(p)

    return ConstraintSystem(
        unknowns=tuple(unknowns),
        equations=tuple(equations),
        nonlinear=tuple(nonlinear),
        discarded_zero=discarded_zero,
        discarded_duplicate=discarded_duplicate,
    )


def assemble_singular(n: int, group: bool = True) -> ConstraintSystem:
    """The extension problem for the standard representation on n strands:
    s-images known, all t-images unknown."""
    pres = build_presentation(n, "singular", group=group)
    known = {(SIGMA, i): m for (_, i), m in standard_rep(n).assignment.items()}
    unknown = [(TAU, i) for i in range(1, n)]
    return assemble(pres, known, unknown)


def assemble_vsb2(a=None, c=None) -> ConstraintSystem:
    """The two-strand virtual extension problem: s- and t-images known, the
    v-image unknown.  With no arguments the t-image keeps symbolic entries
    a and c, matching the general extension it restricts to."""
    pres = build_presentation(2, "virtual_singular", group=False)
    if a is None and c is None:
        known = singular_extension(2, SymPoly.symbol("a"), SymPoly.symbol("c"),
                                   t=SymPoly.const(T)).assignment
    else:
        known = singular_extension(2, a, c).assignment
    return assemble(pres, known, [(NU, 1)])


def solved_images(family: SolutionFamily, dim: int, unknown_gens) -> dict:
    """Rebuild the unknown generators' image matrices from a solved family:
    free unknowns stay as symbols, bound unknowns become their expressions."""
    unknown_gens = list(unknown_gens)
    multiple = len(unknown_gens) > 1
    out = {}
    for kind, index in unknown_gens:
        suffix = str(index) if multiple else ""
        names = entry_names(dim, kind, suffix)
        entries = [
            [
                SymPoly.symbol(name) if name in family.free
                else family.bindings[name].to_sympoly()
                for name in row
            ]
            for row in names
        ]
        out[(kind, index)] = Matrix(SYMBOLIC, entries)
    return out


def block_form_match(family: SolutionFamily, n: int) -> tuple[bool, tuple[str, ...]]:
    """Compare the solved t-images of ``assemble_singular(n)`` with the
    embedded a*I + c*sigma_i block family.

    The block pair is named by the unknowns in the (1,1) and (2,1) entries
    of the t_1 image; every other free parameter is residual.  Returns
    whether the solved images, with the residual parameters set to 1, equal
    ``singular_extension``'s t-images over the symbolic ring, and the
    residual parameters in unknown order.
    """
    unknown = [(TAU, i) for i in range(1, n)]
    names = entry_names(n, TAU, "1" if n > 2 else "")
    diag, off = names[0][0], names[1][0]
    residual = tuple(name for name in family.free if name not in (diag, off))
    setting = {name: SymPoly.const(1) for name in residual}
    expected = singular_extension(n, SymPoly.symbol(diag), SymPoly.symbol(off),
                                  t=SymPoly.const(T)).assignment
    images = solved_images(family, n, unknown)
    ok = all(
        images[key].map_entries(lambda e: e.substitute(setting)) == expected[key]
        for key in unknown
    )
    return ok, residual


@dataclass(frozen=True)
class SolutionFamily:
    """Solution set of a linear system, as free parameters plus bindings.

    Every unknown is either listed in ``free`` or bound by an affine
    expression in the free parameters.
    """

    unknowns: tuple[str, ...]
    free: tuple[str, ...]
    bindings: dict[str, LinearExpr] = field(compare=False)

    def assignment(self, values: dict) -> dict[str, RationalFunction]:
        """Full unknown -> Q(t) map for one choice of free-parameter values."""
        vals = {name: RationalFunction.coerce(v) for name, v in values.items()}
        if set(vals) != set(self.free):
            raise KeyError(f"need values exactly for {self.free}")
        out = dict(vals)
        for name, expr in self.bindings.items():
            out[name] = expr.substitute(vals)
        return out

    def binding_strings(self) -> dict[str, str]:
        return {name: self.bindings[name].render() for name in self.bindings}

    def to_json_dict(self) -> dict:
        return {"free": list(self.free), "bindings": self.binding_strings()}


def solve_linear(system: ConstraintSystem) -> SolutionFamily:
    """Row-reduce the affine equations over Q(t).

    Raises NonlinearSystem when the system carries nonlinear residue, and
    Inconsistent when no solution exists; its witness is the first equation
    inconsistent with the ones before it.  Free parameters are the non-pivot
    unknowns, renamed so each forced-equality chain is parametrized by its
    earliest member.
    """
    if system.nonlinear:
        raise NonlinearSystem(
            f"{len(system.nonlinear)} equations of degree > 1; the linear solver does not apply")
    unknowns = list(system.unknowns)
    order = {name: k for k, name in enumerate(unknowns)}
    ncols = len(unknowns)

    # Sparse rows over the unknowns' columns, the constant in column ncols.
    echelon = Echelon(RATFUNC)
    for eq in system.equations:
        row = {order[name]: c for name, c in eq.coeffs}
        row[ncols] = -eq.constant
        if echelon.insert(row) and echelon.rows[-1][0] == ncols:
            raise Inconsistent(f"equation {eq.render()} = 0 is unsatisfiable", witness=eq)

    rows = echelon.reduced()
    pivots = {c for c, _ in rows}
    free = [unknowns[c] for c in range(ncols) if c not in pivots]
    bindings: dict[str, LinearExpr] = {
        unknowns[c]: LinearExpr.build(
            row.get(ncols, 0),
            {unknowns[f]: -e for f, e in row.items() if f != c and f != ncols})
        for c, row in rows
    }

    # Present each pure-rename binding (x = y with coefficient 1) with the
    # earlier-named unknown free: swap the roles of x and y.
    changed = True
    while changed:
        changed = False
        for bound in sorted(bindings, key=order.get):
            expr = bindings[bound]
            if expr.constant.is_zero() and len(expr.coeffs) == 1:
                other, coeff = expr.coeffs[0]
                if coeff.is_one() and order[bound] < order[other]:
                    del bindings[bound]
                    bindings[other] = LinearExpr.build(0, {bound: 1})
                    bindings = {
                        name: e.rename(other, bound) if name != other else e
                        for name, e in bindings.items()
                    }
                    free.remove(other)
                    free.append(bound)
                    changed = True
                    break

    free.sort(key=order.get)
    return SolutionFamily(unknowns=tuple(unknowns), free=tuple(free), bindings=bindings)


def solve_with_residue(system: ConstraintSystem) -> tuple[SolutionFamily, tuple[SymPoly, ...]]:
    """Solve the affine part, then push the solution through the nonlinear
    equations; the returned residue is what remains of them (empty when the
    affine solution already satisfies everything)."""
    linear_only = ConstraintSystem(
        unknowns=system.unknowns,
        equations=system.equations,
        nonlinear=(),
        discarded_zero=system.discarded_zero,
        discarded_duplicate=system.discarded_duplicate,
    )
    family = solve_linear(linear_only)
    substitution = {name: expr.to_sympoly() for name, expr in family.bindings.items()}
    residue = tuple(
        p for p in (q.substitute(substitution) for q in system.nonlinear) if not p.is_zero()
    )
    return family, residue


def laurent_representability(family: SolutionFamily) -> dict:
    """Check whether every binding stays inside the Laurent ring, i.e. the
    solved family needs no denominators beyond units.  Returns a report with
    the offending bindings, if any."""
    flagged = []
    for name in sorted(family.bindings):
        expr = family.bindings[name]
        bad = []
        if not expr.constant.is_zero() and not expr.constant.is_laurent():
            bad.append(str(expr.constant.den))
        for _, coeff in expr.coeffs:
            if not coeff.is_laurent():
                bad.append(str(coeff.den))
        if bad:
            flagged.append({"unknown": name, "binding": expr.render(), "denominators": bad})
    return {"representable": not flagged, "flagged": flagged}


@dataclass(frozen=True)
class InvolutionSolution:
    """One family of 2x2 involutions, as displayed entries plus constraints."""

    family_id: int
    free: tuple[str, ...]
    entries: tuple[tuple[str, str], tuple[str, str]]
    constraints: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_id,
            "free": list(self.free),
            "entries": [list(r) for r in self.entries],
            "constraints": list(self.constraints),
        }


def solve_involution_2x2() -> list[InvolutionSolution]:
    """All solutions of M^2 = I for a 2x2 matrix [[p, q], [r, s]].

    The entrywise system is {p^2 + q*r = 1, q*(p + s) = 0, r*(p + s) = 0,
    q*r + s^2 = 1}; splitting on q != 0, then r != 0, then the diagonal signs
    gives exactly five families.
    """
    return [
        InvolutionSolution(1, ("p", "q"),
                           (("p", "q"), ("(1 - p^2)/q", "-p")),
                           ("q != 0", "q divides 1 - p^2 in the Laurent ring")),
        InvolutionSolution(2, ("r",), (("-1", "0"), ("r", "1")), ()),
        InvolutionSolution(3, ("r",), (("1", "0"), ("r", "-1")), ()),
        InvolutionSolution(4, (), (("-1", "0"), ("0", "-1")), ()),
        InvolutionSolution(5, (), (("1", "0"), ("0", "1")), ()),
    ]


def involution_square_is_identity(family_id: int) -> bool:
    """Symbolic check that the family squares to the identity.

    Family 1 is verified modulo the defining constraint q*r = 1 - p^2 by
    rewriting every monomial divisible by q*r.
    """
    p, q, r, s = (SymPoly.symbol(x) for x in "pqrs")
    one = SymPoly.const(1)
    if family_id == 1:
        m = [[p, q], [r, -1 * p]]

        def reduce_qr(poly: SymPoly) -> SymPoly:
            # replace q*r by 1 - p^2 until no monomial contains both
            while True:
                hit = next((mono for mono in poly.terms
                            if dict(mono).get("q", 0) >= 1 and dict(mono).get("r", 0) >= 1), None)
                if hit is None:
                    return poly
                coeff = poly.terms[hit]
                powers = dict(hit)
                powers["q"] -= 1
                powers["r"] -= 1
                rest = SymPoly({tuple(sorted((n, k) for n, k in powers.items() if k)): coeff})
                poly = poly - SymPoly({hit: coeff}) + rest * (one - p * p)

        post = reduce_qr
    elif family_id == 2:
        m = [[SymPoly.const(-1), SymPoly.const(0)], [r, one]]
        post = lambda x: x
    elif family_id == 3:
        m = [[one, SymPoly.const(0)], [r, SymPoly.const(-1)]]
        post = lambda x: x
    elif family_id == 4:
        m = [[SymPoly.const(-1), SymPoly.const(0)], [SymPoly.const(0), SymPoly.const(-1)]]
        post = lambda x: x
    elif family_id == 5:
        m = [[one, SymPoly.const(0)], [SymPoly.const(0), one]]
        post = lambda x: x
    else:
        raise ValueError(f"family_id must be 1..5, got {family_id}")
    mat = Matrix(SYMBOLIC, m)
    square = mat * mat
    expected = Matrix.identity(SYMBOLIC, 2)
    return all(
        post(square.entries[i][j] - expected.entries[i][j]).is_zero()
        for i in range(2) for j in range(2)
    )


def involution_classify(m: Matrix) -> tuple[int, dict[str, Fraction]]:
    """Identify which involution family a rational 2x2 involution belongs to,
    returning (family_id, parameters).  The case split is exhaustive, so
    Unclassifiable can only indicate a bug."""
    if m.rows != 2 or m.cols != 2 or m.domain is not QQ:
        raise NotInvolution("classification expects a 2x2 matrix over Q")
    if not (m * m).is_identity():
        raise NotInvolution(f"matrix does not square to the identity:\n{m}")
    p, q = m.entries[0]
    r, s = m.entries[1]
    if q != 0:
        return 1, {"p": p, "q": q}
    if r != 0:
        if p == -1:
            return 2, {"r": r}
        if p == 1:
            return 3, {"r": r}
    else:
        if (p, s) == (-1, 1):
            return 2, {"r": Fraction(0)}
        if (p, s) == (1, -1):
            return 3, {"r": Fraction(0)}
        if (p, s) == (-1, -1):
            return 4, {}
        if (p, s) == (1, 1):
            return 5, {}
    raise Unclassifiable(f"involution escaped the case split:\n{m}")  # pragma: no cover
