"""Irreducibility of specialized representations via the span criterion.

A set of matrices over a field acts irreducibly (over the algebraic closure)
exactly when the unital algebra it generates is the full matrix algebra.
The dimension of that algebra is a rank over the base field and ranks do not
change under field extension, so exact rational arithmetic settles the
question outright: span = dim^2 certifies irreducibility, span < dim^2
certifies a proper invariant subspace exists over the closure.  The span is
measured by one ``Echelon`` basis over the images' own field: Q for a
specialization at a rational t0, Q(t) when t stays symbolic.  Over Q(t) it
is a genuine Q(t)-dimension, so on two strands, where sigma^2 = t*I and
tau = a*I + c*sigma, the algebra Q(t)[sigma] has dimension 2, not 4.

Witness extraction (an explicit invariant line) is best effort: common fixed
vectors, the all-ones direction, and simultaneous rational eigenvectors.  A
verdict never depends on finding a witness, since eigenvectors may need
irrational coordinates that the span criterion happily avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import SingularTau, ZeroSpecialization
from .laurent import T, RationalFunction
from .matrix import (
    LAURENT,
    QQ,
    EntryDomain,
    Echelon,
    Matrix,
    Subspace,
    local_block,
    mat_vec,
    mul_local,
    stack,
)
from .reps import Representation, singular_extension

__all__ = [
    "IrreducibilityVerdict",
    "GridCell",
    "GridReport",
    "specialize",
    "specialized_extension",
    "symbolic_extension",
    "matrix_algebra_span",
    "burnside_span",
    "is_irreducible",
    "all_ones_check",
    "invariant_line_witness",
    "predicted_irreducible",
    "grid_report",
]


def specialize(rep: Representation, t0) -> Representation:
    """Evaluate every Laurent entry at t0 (recorded as the parameter t0), or
    lift to Q(t) when t0 is None."""
    if rep.domain is not LAURENT:
        raise TypeError(f"can only specialize Laurent-entry representations, got {rep.domain.name}")
    params = dict(rep.params)
    if t0 is None:
        assignment = {key: m._field_lift() for key, m in rep.assignment.items()}
    else:
        t0 = Fraction(t0)
        if t0 == 0:
            raise ZeroSpecialization("t may not be specialized to 0")
        assignment = {
            key: m.map_entries(lambda e: e.evaluate(t0), QQ)
            for key, m in rep.assignment.items()
        }
        params["t0"] = t0
    return Representation(rep.n, rep.mode, assignment, group=rep.group,
                          name=rep.name, params=params)


def specialized_extension(n: int, t0, a, c, group: bool = True) -> Representation:
    """Singular extension with rational parameters at a rational point t0."""
    return singular_extension(n, Fraction(a), Fraction(c), group=group, t=Fraction(t0))


def symbolic_extension(n: int, a, c, group: bool = True) -> Representation:
    """Singular extension over Q(t): t stays a variable, a and c rational."""
    return singular_extension(n, Fraction(a), Fraction(c), group=group,
                              t=RationalFunction(T))


# -- algebra span ------------------------------------------------------------


def matrix_algebra_span(images: list[Matrix]) -> int:
    """Dimension of the unital algebra generated by the given field matrices.

    Breadth-first closure: seed with the identity and the images, then keep
    right-multiplying new basis elements by the images (as block-local
    updates, see ``mul_local``), inserting each product into an exact
    ``Echelon`` basis over the images' own field (Q, or Q(t) once Laurent
    entries are lifted), on the cells in row-major order, until nothing new
    appears (or the full dim^2 is reached, at which point nothing larger is
    possible).
    """
    if not images:
        raise ValueError("need at least one matrix")
    dom = images[0].domain
    if not dom.is_field:
        images = [m._field_lift() for m in images]
        dom = images[0].domain
    d = images[0].rows
    cap = d * d
    basis = Echelon(dom)
    blocks = [local_block(g) for g in images]
    candidates = iter([Matrix.identity(dom, d).entries, *(g.entries for g in images)])
    while True:
        frontier = []
        for rows in candidates:
            if basis.insert([e for row in rows for e in row]):
                if len(basis) == cap:
                    return cap
                frontier.append(rows)
        if not frontier:
            return len(basis)
        candidates = (mul_local(rows, offset, block)
                      for rows in frontier for offset, block in blocks)


def burnside_span(rep: Representation) -> int:
    return matrix_algebra_span(rep.images())


# -- witness search ----------------------------------------------------------


def all_ones_check(rep: Representation) -> bool:
    """True iff every image maps (1, ..., 1)^T to a scalar multiple of it."""
    dom = rep.domain
    ones = [dom.one] * rep.dim
    for g in rep.images():
        w = mat_vec(g, ones)
        if any(e != w[0] for e in w[1:]):
            return False
    return True


def _char_poly(m: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, highest power first.

    Trace recurrence: M_1 = A, c_k = tr(M_k)/k, M_{k+1} = A(M_k - c_k I);
    then det(xI - A) = x^d - c_1 x^(d-1) - ... - c_d.
    """
    d = m.rows
    identity = Matrix.identity(QQ, d)
    coeffs = [Fraction(1)]
    power = m
    for k in range(1, d + 1):
        ck = sum((power.entries[i][i] for i in range(d)), Fraction(0)) / k
        coeffs.append(-ck)
        if k < d:
            power = m * (power - identity.scaled(ck))
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            if k * k != n:
                out.append(n // k)
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients
    (highest power first), sorted and without repeats.

    After clearing denominators and splitting off the root 0, a linear
    factor gives its root directly and a quadratic has rational roots iff
    its discriminant is a perfect square.  Higher degrees try every p/q with
    p dividing the constant and q the leading coefficient, which costs
    O(sqrt(const) + sqrt(lead)) trial divisions.
    """
    scale = lcm(*(c.denominator for c in coeffs)) if len(coeffs) > 1 else 1
    ints = [int(c * scale) for c in coeffs]
    roots = set()
    while ints and ints[-1] == 0:
        ints.pop()
        roots.add(Fraction(0))
    if len(ints) == 2:
        roots.add(Fraction(-ints[1], ints[0]))
    elif len(ints) == 3:
        a, b, c = ints
        disc = b * b - 4 * a * c
        if disc >= 0 and (root := isqrt(disc)) ** 2 == disc:
            roots.update(Fraction(-b + s, 2 * a) for s in (root, -root))
    elif len(ints) > 3:
        for p in _divisors(ints[-1]):
            for q in _divisors(ints[0]):
                for candidate in (Fraction(p, q), Fraction(-p, q)):
                    value = Fraction(0)
                    for c in ints:
                        value = value * candidate + c
                    if value == 0:
                        roots.add(candidate)
    return sorted(roots)


def _eigenspaces(m: Matrix) -> list[list[tuple]]:
    """Bases (as vector lists) of the rational eigenspaces of a Q-matrix."""
    out = []
    identity = Matrix.identity(QQ, m.rows)
    for lam in _rational_roots(_char_poly(m)):
        space = (m - identity.scaled(lam)).nullspace()
        if space.dim:
            out.append([list(v) for v in space.basis])
    return out


def _independent(vectors: list, dom: EntryDomain) -> list:
    """Echelon-filter a list of vectors down to an independent subset."""
    basis = Echelon(dom)
    return [list(vec) for vec in vectors if basis.insert(vec)]


def _intersect(basis1: list, basis2: list, dom: EntryDomain, ambient: int) -> list:
    """Basis of span(basis1) meet span(basis2)."""
    if not basis1 or not basis2:
        return []
    cols = len(basis1) + len(basis2)
    rows = []
    for i in range(ambient):
        rows.append([b[i] for b in basis1] + [-b[i] for b in basis2])
    null = Matrix(dom, rows).nullspace()
    vectors = []
    for coeff in null.basis:
        vec = [dom.zero] * ambient
        for k, b in enumerate(basis1):
            if coeff[k] != dom.zero:
                vec = [x + coeff[k] * y for x, y in zip(vec, b)]
        vectors.append(vec)
    return _independent(vectors, dom)


def _maps_into(images: list[Matrix], sub: Subspace) -> bool:
    return all(sub.contains(mat_vec(g, v)) for g in images for v in sub.basis)


def invariant_line_witness(rep: Representation) -> Subspace | None:
    """Best-effort explicit invariant subspace for a reducible specialization.

    Tries, in order: the all-ones line, the common fixed subspace, and (over
    Q) a simultaneous rational eigenvector.  Returns None when all three come
    up empty; reducibility itself is already settled by the span criterion.
    """
    dom = rep.domain
    d = rep.dim
    images = rep.images()
    if all_ones_check(rep):
        ones = Subspace(dom, d, (tuple([dom.one] * d),))
        if _maps_into(images, ones):
            return ones
    identity = Matrix.identity(dom, d)
    fixed = stack([g - identity for g in images]).nullspace()
    if fixed.dim:
        if _maps_into(images, fixed):
            return fixed
    if dom is not QQ:
        return None
    candidates: list[list] | None = None
    for g in images:
        spaces = _eigenspaces(g)
        if candidates is None:
            candidates = spaces
        else:
            candidates = [
                meet
                for prev in candidates
                for space in spaces
                for meet in [_intersect(prev, space, dom, d)]
                if meet
            ]
        if not candidates:
            return None
    for space in candidates or []:
        line = Subspace(dom, d, (tuple(space[0]),))
        if _maps_into(images, line):
            return line
    return None


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str  # "irreducible" | "reducible"
    span_dim: int
    dim: int
    witness: Subspace | None

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "span_dim": self.span_dim,
               "full_dim": self.dim * self.dim}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def is_irreducible(rep: Representation) -> IrreducibilityVerdict:
    span = burnside_span(rep)
    d = rep.dim
    if span == d * d:
        return IrreducibilityVerdict("irreducible", span, d, None)
    witness = invariant_line_witness(rep)
    if witness is not None:
        assert _maps_into(rep.images(), witness)
    return IrreducibilityVerdict("reducible", span, d, witness)


# -- parameter grid ----------------------------------------------------------


def predicted_irreducible(t0, a, c) -> bool:
    """The dichotomy the grid is compared against: irreducible away from
    t = 1, and at t = 1 exactly when a + c != 1."""
    return Fraction(t0) != 1 or Fraction(a) + Fraction(c) != 1


@dataclass(frozen=True)
class GridCell:
    n: int
    t0: Fraction
    a: Fraction
    c: Fraction
    span_dim: int
    verdict: str
    predicted: str
    agree: bool
    watch: bool  # n = 2 cells are expected to diverge from the prediction

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), str(self.t0), str(self.a), str(self.c),
            str(self.span_dim), self.verdict, self.predicted,
            "yes" if self.agree else "no",
        ])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "t0": str(self.t0), "a": str(self.a), "c": str(self.c),
            "span_dim": self.span_dim, "verdict": self.verdict,
            "predicted": self.predicted, "agree": self.agree, "watch": self.watch,
        }


@dataclass(frozen=True)
class GridReport:
    cells: tuple[GridCell, ...]

    @property
    def agreements(self) -> int:
        return sum(1 for cell in self.cells if cell.agree)

    @property
    def divergences(self) -> tuple[GridCell, ...]:
        return tuple(cell for cell in self.cells if not cell.agree)

    @property
    def status(self) -> str:
        bad = self.divergences
        if not bad:
            return "pass"
        if all(cell.watch for cell in bad):
            return "divergence"
        return "fail"

    def csv(self) -> str:
        lines = ["n,t0,a,c,span_dim,verdict,predicted,agree"]
        lines.extend(cell.csv_row() for cell in self.cells)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "cells": [cell.to_json_dict() for cell in self.cells],
            "agreements": self.agreements,
            "divergences": [cell.to_json_dict() for cell in self.divergences],
            "status": self.status,
        }


def grid_cell(n: int, t0, a, c) -> GridCell:
    t0, a, c = Fraction(t0), Fraction(a), Fraction(c)
    if a * a - t0 * c * c == 0:
        raise SingularTau(
            f"(a, c) = ({a}, {c}) makes the block determinant vanish at t = {t0}")
    rep = specialized_extension(n, t0, a, c, group=True)
    verdict = is_irreducible(rep)
    predicted = predicted_irreducible(t0, a, c)
    return GridCell(
        n=n, t0=t0, a=a, c=c,
        span_dim=verdict.span_dim,
        verdict=verdict.status,
        predicted="irreducible" if predicted else "reducible",
        agree=verdict.irreducible == predicted,
        watch=(n == 2),
    )


def grid_report(n: int, t_samples, ac_samples) -> GridReport:
    cells = [grid_cell(n, t0, a, c) for t0 in t_samples for (a, c) in ac_samples]
    return GridReport(tuple(cells))
