"""Irreducibility of specialized representations via the span criterion.

A set of matrices over a field acts irreducibly (over the algebraic closure)
exactly when the unital algebra it generates is the full matrix algebra.
The dimension of that algebra is a rank over the base field and ranks do not
change under field extension, so exact arithmetic settles the question
outright: span = dim^2 certifies irreducibility, span < dim^2 certifies a
proper invariant subspace exists over the closure.  The span is measured
over the images' own field: Q for a specialization at a rational t0, Q(t)
when t stays symbolic.  Over Q(t) it is a genuine Q(t)-dimension, so on two
strands, where sigma^2 = t*I and tau = a*I + c*sigma, the algebra
Q(t)[sigma] has dimension 2, not 4.

The span is certified from one rank-one element u*v^T of the algebra, read
off the generators' blocks, and two spins of length-d vectors: u under the
images and v under their transposes.  Full spins give d^2; spins of d - 1
whose invariant subspaces split the space give 1 + (d - 1)^2 (see
``matrix_algebra_span``).  Any other case, or no rank-one element, falls
back to the exact closure: the spin of the identity, whose vectors are d x d
matrices that each image moves by g - I, one column at a time.  All three
spins run on one loop (``_spin``) and an ``Echelon`` basis, exact over the
images' field; they read each generator's local image, its block, and form
no dense image and no word product.

Witness extraction (an explicit invariant subspace) is best effort: the
all-ones direction, common fixed vectors (the kernel of rows read off the
blocks), and the smaller invariant subspace of the certificate's spins, in
that order.  Each candidate is built only when the one before it is
refused, and each passes the block-local test that the certificate's S and
L pass (``_invariant``).  A verdict never depends on finding a witness,
since an invariant subspace may need irrational coordinates that the span
criterion happily avoids.

The paper's dichotomy is checked one ``grid_cell`` at a time, t0 None
keeping t symbolic: a grid reports many cells, ``irreducible`` one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ZeroSpecialization
from .laurent import T, RationalFunction, rational_roots
from .matrix import LAURENT, QQ, Echelon, Matrix, Subspace
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
    "invariant_line_witness",
    "predicted_irreducible",
    "agreement_status",
    "grid_report",
]


def specialize(rep: Representation, t0) -> Representation:
    """Evaluate every Laurent entry of the blocks at t0 (recorded as the
    parameter t0), or lift them to Q(t) when t0 is None."""
    if rep.domain is not LAURENT:
        raise TypeError(f"can only specialize Laurent-entry representations, got {rep.domain.name}")
    params = dict(rep.params)
    if t0 is None:
        lift = Matrix._field_lift
    else:
        t0 = Fraction(t0)
        if t0 == 0:
            raise ZeroSpecialization("t may not be specialized to 0")
        params["t0"] = t0

        def lift(block):
            return block.map_entries(lambda e: e.evaluate(t0), QQ)
    blocks = {key: (offset, lift(block))
              for key, (offset, block) in zip(rep.generator_keys(), rep.local_images())}
    return Representation(rep.n, rep.mode, rep.dim, blocks, group=rep.group,
                          name=rep.name, params=params)


def specialized_extension(n: int, t0, a, c, group: bool = True) -> Representation:
    """Singular extension with rational parameters at a rational point t0."""
    return singular_extension(n, Fraction(a), Fraction(c), group=group, t=Fraction(t0))


def symbolic_extension(n: int, a, c, group: bool = True) -> Representation:
    """Singular extension over Q(t): t stays a variable, a and c rational."""
    return singular_extension(n, Fraction(a), Fraction(c), group=group,
                              t=RationalFunction(T))


# -- algebra span ------------------------------------------------------------


def matrix_algebra_span(images: list[tuple[int, Matrix]], dim: int) -> int:
    """Dimension of the unital algebra A generated by the given dim x dim
    matrices, each given by its local image (offset, block), as
    ``Representation.local_image`` returns it.

    First a certificate, exact over the images' field.  ``_rank_one`` reads
    an element x = u*v^T of A off the blocks; S is the spin of u under the
    images and R the spin of v under their transposes (``_spins``).  Then
    A*x*A, the sums of s*r^T with s in S and r in R, lies in A and has
    dimension |S|*|R|, so |S| = |R| = d gives d^2.  If |S| = |R| = d - 1,
    S and the line L = R^perp are invariant (checked), and L is not inside
    S, then V = S + L is direct: A lies in End(S) x End(L), so
    dim A <= (d - 1)^2 + 1; and A*x*A kills L and restricts onto End(S),
    so I is not in it and dim A >= (d - 1)^2 + 1.  Anything else falls back
    to the exact closure (``_exact_span``).
    """
    if not images:
        raise ValueError("need at least one matrix")
    d = dim
    blocks = [(offset, block._field_lift()) for offset, block in images]
    spins = _spins(blocks, d)
    if spins is not None:
        s, r = spins
        if len(s) == len(r) == d:
            return d * d
        if len(s) == len(r) == d - 1:
            ell = r.kernel(d).basis[0]
            if s.remainder(ell) and _invariant(s, blocks) \
                    and _invariant(Echelon(s.domain, [ell]), blocks):
                return 1 + (d - 1) ** 2
    return _exact_span(blocks, d)


def _exact_span(images: list[tuple[int, Matrix]], d: int) -> int:
    """The exact closure: the spin of the identity under the images, each
    word a d x d matrix X whose cell (i, j) is coordinate j*d + i, so that
    column j is the d coordinates from j*d on.  An image g moves X to
    (g - I)*X, column by column (``_moved``).  A subspace U holding X holds
    g*X exactly when it holds (g - I)*X, so the spin is the span of every
    word.  It runs on an ``Echelon`` basis over the images' own field (Q, or
    Q(t) once Laurent blocks are lifted) and stops at the full d^2."""
    images = [(offset, block._field_lift()) for offset, block in images]
    one = images[0][1].domain.one

    def move(x, offset, block):
        return {k: e for column in range(offset, d * d, d)
                for k, e in _moved(x, column, block).items()}

    return len(_spin({i * (d + 1): one for i in range(d)}, images, d * d, move))


def _rank_one(blocks: list[tuple[int, Matrix]], d: int) -> tuple[dict, dict] | None:
    """Vectors u and v with u*v^T in the algebra the images generate, read
    off their blocks (over a field), or None.

    A block B with det(I - B) != 0 gives the projection onto its
    coordinates, I - chi_B(g)/chi_B(1): by Cayley-Hamilton chi_B(g) is 0 on
    the block and chi_B(1)*I off it (so a block of size d gives I).  If two
    such blocks share exactly one coordinate j, their projections multiply
    to e_j*e_j^T.  Otherwise, over Q, take the first block with a rational
    eigenvalue lam != 1 whose eigenvectors form a line, at its smallest one,
    and q(x) = chi_B(x)*(x - 1)/(x - lam).  Then q(g) is zero off the block,
    since q(1) = 0.  On it q(B) kills every generalized eigenspace but
    lam's, on which B - lam is one Jordan block of some size m and q(B) is
    (B - lam)^(m-1) times an invertible factor: rank one, so a nonzero
    multiple of u*v^T for B's right and left eigenvectors u and v for lam.
    """
    dom = blocks[0][1].domain
    one = dom.one
    projections = [(offset, offset + block.rows) for offset, block in blocks
                   if (Matrix.identity(dom, block.rows) - block).det()]
    for (start, end), (start2, end2) in combinations(projections, 2):
        if min(end, end2) - max(start, start2) == 1:
            j = max(start, start2)
            return {j: one}, {j: one}
    if dom is not QQ:
        return None
    for offset, block in blocks:
        for lam in rational_roots(_char_poly(block)):
            if lam != 1:
                shift = block - Matrix.identity(QQ, block.rows).scaled(lam)
                right = shift.nullspace().basis
                if len(right) == 1:
                    left = shift.transpose().nullspace().basis
                    return ({offset + i: e for i, e in enumerate(right[0]) if e},
                            {offset + i: e for i, e in enumerate(left[0]) if e})
    return None


def _spins(blocks: list[tuple[int, Matrix]], d: int) -> tuple[Echelon, Echelon] | None:
    """The spins S of u under the images and R of v under their transposes,
    for the u*v^T that ``_rank_one`` finds, or None when it finds none."""
    found = _rank_one(blocks, d)
    if found is None:
        return None
    u, v = found
    return (_spin(u, blocks, d, _moved),
            _spin(v, [(offset, block.transpose()) for offset, block in blocks], d, _moved))


def _spin(seed: dict, blocks: list[tuple[int, Matrix]], cap: int, move) -> Echelon:
    """An ``Echelon`` basis of the span of the seed's images under every
    word in the images, cut short once it has ``cap`` dimensions, the whole
    space.  Each kept vector w is moved by every g - I, as
    ``move(w, offset, block)`` computes it, which adds what g does to a
    span that already holds w.  The certificate moves length-d vectors by
    ``_moved``, the exact closure moves d x d matrices (``_exact_span``)."""
    basis = Echelon(blocks[0][1].domain, [seed])
    kept = [seed]
    for w in kept:
        for offset, block in blocks:
            if len(basis) == cap:
                return basis
            moved = move(w, offset, block)
            if basis.insert(moved):
                kept.append(moved)
    return basis


def _moved(w: dict, offset: int, block: Matrix) -> dict:
    """(g - I)*w for the image g with ``block`` at ``offset``: zero off the
    block, and on it the block times w's coordinates there, minus them.
    Products with a zero factor are skipped."""
    zero = block.domain.zero
    segment = [w.get(offset + j, zero) for j in range(block.rows)]
    if not any(segment):
        return {}
    return {offset + i: sum((b * x for b, x in zip(row, segment) if b and x), -segment[i])
            for i, row in enumerate(block.entries)}


def _invariant(basis: Echelon, blocks: list[tuple[int, Matrix]]) -> bool:
    """True iff every image maps the span into itself: (g - I)*r lies in it
    for every reduced row r."""
    return not any(basis.remainder(_moved(row, offset, block))
                   for _, row in basis.reduced() for offset, block in blocks)


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


def burnside_span(rep: Representation) -> int:
    return matrix_algebra_span(rep.local_images(), rep.dim)


# -- witness search ----------------------------------------------------------


def invariant_line_witness(rep: Representation) -> Subspace | None:
    """Best-effort explicit invariant subspace for a reducible specialization.

    Tries, in order: the all-ones line, the common fixed subspace (the
    kernel of the rows of every block minus I, read at its offset), and the
    smaller of the certificate's proper S and L = R^perp, S on a tie (see
    ``matrix_algebra_span``).  Each is built only once the one before it
    is refused, and given in the basis that ``Echelon.kernel`` reads off,
    so a line has 1 at its last nonzero coordinate.  Returns the first
    nonzero candidate that ``_invariant`` accepts, or None; reducibility
    itself is already settled by the span criterion.  Witnesses are over
    the fraction field of the entries.
    """
    d = rep.dim
    blocks = [(offset, block._field_lift()) for offset, block in rep.local_images()]
    dom = blocks[0][1].domain
    one = dom.one

    def candidates():
        yield Subspace(dom, d, (tuple([one] * d),))
        yield Echelon(dom, ({offset + j: e - one if i == j else e for j, e in enumerate(row)}
                            for offset, block in blocks
                            for i, row in enumerate(block.entries))).kernel(d)
        spins = _spins(blocks, d)
        if spins is None:
            return
        s, r = spins  # dim S = len(s) and dim L = d - len(r)
        if len(s) < d and (len(r) == d or len(s) <= d - len(r)):
            yield s.kernel(d).echelon.kernel(d)
        else:
            yield r.kernel(d)

    return next((sub for sub in candidates()
                 if sub.dim and _invariant(sub.echelon, blocks)), None)


@dataclass(frozen=True)
class IrreducibilityVerdict:
    span_dim: int
    dim: int
    witness: Subspace | None

    @property
    def irreducible(self) -> bool:
        return self.span_dim == self.dim * self.dim

    @property
    def status(self) -> str:
        return "irreducible" if self.irreducible else "reducible"

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
        return IrreducibilityVerdict(span, d, None)
    return IrreducibilityVerdict(span, d, invariant_line_witness(rep))


# -- parameter grid ----------------------------------------------------------


def predicted_irreducible(t0, a, c) -> bool:
    """The dichotomy the grid is compared against: irreducible away from
    t = 1, and at t = 1 exactly when a + c != 1.  A t0 of None keeps t
    symbolic, which is away from 1."""
    return t0 is None or Fraction(t0) != 1 or Fraction(a) + Fraction(c) != 1


def agreement_status(n: int, agree: bool) -> str:
    """A verdict's status against the prediction: "pass" when they agree;
    otherwise "divergence" on two strands, the recorded watch cases (there
    tau = a*I + c*sigma commutes with sigma, so the algebra has dimension
    at most 2), and "fail" from three strands on."""
    return "pass" if agree else ("divergence" if n == 2 else "fail")


@dataclass(frozen=True)
class GridCell:
    """The verdict, with its witness, on the group-mode singular extension
    at (n, t0, a, c), t0 None when t stays symbolic.  The prediction, the
    agreement and the status follow from it (``agreement_status``)."""

    n: int
    t0: Fraction | None
    a: Fraction
    c: Fraction
    verdict: IrreducibilityVerdict

    @property
    def predicted(self) -> str:
        return "irreducible" if predicted_irreducible(self.t0, self.a, self.c) else "reducible"

    @property
    def agree(self) -> bool:
        return self.verdict.status == self.predicted

    @property
    def status(self) -> str:
        return agreement_status(self.n, self.agree)

    @property
    def watch(self) -> bool:
        """True on the cells where a disagreement is a recorded divergence."""
        return agreement_status(self.n, False) == "divergence"

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), str(self.t0), str(self.a), str(self.c),
            str(self.verdict.span_dim), self.verdict.status, self.predicted,
            "yes" if self.agree else "no",
        ])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "t0": str(self.t0), "a": str(self.a), "c": str(self.c),
            "span_dim": self.verdict.span_dim, "verdict": self.verdict.status,
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
        """The cells whose status is "divergence"; failures are not among them."""
        return tuple(cell for cell in self.cells if cell.status == "divergence")

    @property
    def status(self) -> str:
        """The worst status among the cells."""
        return max((cell.status for cell in self.cells),
                   key=("pass", "divergence", "fail").index, default="pass")

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
    """The cell at (n, t0, a, c), over Q(t) when t0 is None.  A singular
    tau block raises ``NonInvertibleTau`` from ``singular_extension``."""
    a, c = Fraction(a), Fraction(c)
    if t0 is None:
        rep = symbolic_extension(n, a, c)
    else:
        t0 = Fraction(t0)
        rep = specialized_extension(n, t0, a, c)
    return GridCell(n, t0, a, c, is_irreducible(rep))


def grid_report(n: int, t_samples, ac_samples) -> GridReport:
    cells = [grid_cell(n, t0, a, c) for t0 in t_samples for (a, c) in ac_samples]
    return GridReport(tuple(cells))
