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

Over Q the closure runs mod the prime 2^61 - 1 when it divides no
denominator of the images, on an ``Echelon`` basis over the residue field,
an ``EntryDomain`` whose ``coerce`` reduces mod p.  Independence mod p
implies independence over Q, so a full span mod p is the answer.  A
deficient span mod p is lifted to Q by rational reconstruction of its
reduced echelon form, which the basis keeps as it goes, and accepted only if
that exact subspace holds the identity and is closed under right
multiplication by every image, which bounds the span from above.  When the
prime cannot settle the span this way, the exact closure on an ``Echelon``
basis over Q gives it, as it always does over Q(t).

The span and the witness search read each generator's local image, its
block, and build no dense image.  Witness extraction (an explicit invariant
subspace) is best effort: the all-ones direction, common fixed vectors, and
simultaneous rational eigenvectors, in that order.  The last two are
nullspaces of rows read off the blocks: those of g - lam*I for each image g,
which is the block minus lam inside it and (1 - lam)*I outside.  A verdict
never depends on finding a witness, since eigenvectors may need irrational
coordinates that the span criterion happily avoids.
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
    Echelon,
    EntryDomain,
    Matrix,
    Subspace,
    block_columns,
    mul_local,
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
              for key, (offset, block, _) in zip(rep.generator_keys(), rep.local_images())}
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

# The prime of the modular span.
_PRIME = 2**61 - 1


def matrix_algebra_span(images: list[tuple[int, Matrix, list]], dim: int) -> int:
    """Dimension of the unital algebra generated by the given dim x dim
    matrices, each given by its local image (offset, block, columns), as
    ``Representation.local_image`` returns it.

    Breadth-first closure: seed with the identity, then keep right-multiplying
    new basis elements by the images (as block-local updates, see
    ``mul_local``), until nothing new appears (or the full dim^2 is reached,
    at which point nothing larger is possible).

    Over Q the closure runs mod the prime p = ``_PRIME`` if it divides no
    denominator of an image entry, inserting each word into an ``Echelon``
    basis over the residue field mod p.  Every word then has entries in
    Z_(p) and reduction mod p is a ring map, so the k words it keeps,
    independent mod p, are independent over Q: the dimension is at least k,
    and k = dim^2 is the answer.  A smaller k is certified over Q
    (``_spans_algebra``): the basis's reduced echelon form mod p,
    rational-reconstructed entrywise, gives k rows R in reduced echelon
    shape; if I is in span R and r*g is in span R for every row r and
    image g, every word lies in span R and the dimension is at most k.
    Neither half trusts the reconstruction.  When p divides a denominator,
    the reconstruction fails or the check refuses R, the exact closure
    (``_exact_span``) gives the answer, as it does over Q(t).
    """
    if not images:
        raise ValueError("need at least one matrix")
    if images[0][1].domain is QQ:
        span = _modular_span(dim, images)
        if span is not None:
            return span
    return _exact_span(images, dim)


def _exact_span(images: list[tuple[int, Matrix, list]], d: int) -> int:
    """The closure of ``matrix_algebra_span`` inserting each product into an
    exact ``Echelon`` basis over the images' own field (Q, or Q(t) once
    Laurent blocks are lifted), on the cells in row-major order."""
    if not images[0][1].domain.is_field:
        lifted = [(offset, block._field_lift()) for offset, block, _ in images]
        images = [(offset, block, block_columns(block)) for offset, block in lifted]
    dom = images[0][1].domain
    cap = d * d
    basis = Echelon(dom)
    candidates = iter([Matrix.identity(dom, d).entries])
    while True:
        frontier = []
        for rows in candidates:
            if basis.insert([e for row in rows for e in row]):
                if len(basis) == cap:
                    return cap
                frontier.append(rows)
        if not frontier:
            return len(basis)
        candidates = (mul_local(rows, offset, block, columns)
                      for rows in frontier for offset, block, columns in images)


def _modular_span(d: int, blocks: list[tuple[int, Matrix, list]]) -> int | None:
    """The span of the images given by their local images over Q, decided
    mod ``_PRIME`` as ``matrix_algebra_span`` describes; None when the prime
    divides a denominator or a deficient span is not certified."""
    p = _PRIME
    if any(e.denominator % p == 0 for _, block, _ in blocks for row in block.entries for e in row):
        return None
    residues = EntryDomain(f"F_{p}", 0, 1, True, p.__rmod__, bool,
                           lambda a, b: a * pow(b, -1, p) % p)
    cap = d * d
    mod_blocks = [
        (offset, [[(j, b.numerator * pow(b.denominator, -1, p) % p)
                   for j, b in enumerate(col) if b]
                  for col in zip(*block.entries)])
        for offset, block, _ in blocks
    ]
    # Words are flat row-major lists of d^2 residues.
    basis = Echelon(residues)
    candidates = iter([[int(i % (d + 1) == 0) for i in range(cap)]])
    while True:
        frontier = []
        for word in candidates:
            if basis.insert(word):
                if len(basis) == cap:
                    return cap
                frontier.append(word)
        if not frontier:
            break
        candidates = (_mul_mod(word, d, offset, columns, p)
                      for word in frontier for offset, columns in mod_blocks)
    rows = _reconstruct(sorted(basis.rows.items()), p)
    if rows is not None and _spans_algebra(rows, blocks, d):
        return len(rows)
    return None


def _mul_mod(word: list, d: int, offset: int, columns: list, p: int) -> list:
    """The flat word times the image whose block, reduced mod p and laid out
    as its nonzero columns, sits at ``offset``: only the block's columns
    change, each to a combination of the old ones."""
    out = list(word)
    for k, col in enumerate(columns):
        acc = [0] * d
        for j, b in col:
            acc = [x + y * b for x, y in zip(acc, word[offset + j::d])]
        out[offset + k::d] = [x % p for x in acc]
    return out


def _rational(e: int, p: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= floor(sqrt(p/2)) and r = s*e mod p,
    found by the extended Euclidean algorithm, or None if there is none."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, e, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _reconstruct(rows, p: int) -> list[tuple[int, dict]] | None:
    """The rows of a reduced echelon form mod p lifted to Q entrywise, in
    the shape of ``Echelon.reduced``; None if an entry has no lift."""
    out = []
    for pivot, rest in rows:
        row = {pivot: Fraction(1)}
        for k, e in rest.items():
            if (lift := _rational(e, p)) is None:
                return None
            row[k] = lift
        out.append((pivot, row))
    return out


def _spans_algebra(rows, blocks: list[tuple[int, Matrix, list]], d: int) -> bool:
    """True iff the Q-rows, (pivot, row) pairs in reduced echelon shape over
    the d x d cells in row-major order, span a space that contains I and is
    closed under right multiplication by every image, given by its local
    image.

    Then the span contains every word.  A vector x lies in the span iff
    x = sum of x[q] * row_q over the pivots q, which needs checking only off
    the pivots.  For r in the span, r*g does iff r*g - r = r*(g - I) does,
    and that is nonzero only in the block's columns.  Every check runs on
    integers: the rows scaled by one common denominator, and g - I by its
    own, which does not change membership and spares the gcd that every
    ``Fraction`` operation takes.
    """
    pivots = {pivot for pivot, _ in rows}
    if len(pivots) != len(rows) or any(
            row.get(pivot) != 1 or len(row.keys() & pivots) != 1 for pivot, row in rows):
        return False
    scale = lcm(*(e.denominator for _, row in rows for e in row.values()))
    scaled = {pivot: {k: e.numerator * (scale // e.denominator) for k, e in row.items()}
              for pivot, row in rows}

    def member(x: dict) -> bool:
        acc = {k: e * scale for k, e in x.items() if k not in pivots}
        for q, coeff in x.items():
            if coeff and q in pivots:
                for k, e in scaled[q].items():
                    if k != q:
                        acc[k] = acc.get(k, 0) - coeff * e
        return not any(acc.values())

    if not member({i * (d + 1): 1 for i in range(d)}):
        return False
    moves = []
    for offset, block, _ in blocks:
        k = block.rows
        shift = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(block.entries)]
        den = lcm(*(e.denominator for row in shift for e in row))
        moves.append((offset, k, [[(c, e.numerator * (den // e.denominator))
                                   for c, e in enumerate(row) if e] for row in shift]))
    for row in scaled.values():
        by_column: dict[int, list] = {}
        for cell, e in row.items():
            base, j = divmod(cell, d)
            by_column.setdefault(j, []).append((base * d, e))
        for offset, k, shift in moves:
            x: dict[int, int] = {}
            for j in range(k):
                for base, e in by_column.get(offset + j, ()):
                    for c, m in shift[j]:
                        x[base + offset + c] = x.get(base + offset + c, 0) + e * m
            if x and not member(x):
                return False
    return True


def burnside_span(rep: Representation) -> int:
    return matrix_algebra_span(rep.local_images(), rep.dim)


# -- witness search ----------------------------------------------------------


def all_ones_check(rep: Representation) -> bool:
    """True iff every image maps (1, ..., 1)^T to a scalar multiple of it.

    An image moves only its block's coordinates, to the block's row sums.
    They must all be one scalar, and when the block is smaller than the
    image the coordinates outside it stay 1, so the scalar must be 1.
    """
    dom = rep.domain
    for _, block, _ in rep.local_images():
        sums = [sum(row, dom.zero) for row in block.entries]
        if any(s != sums[0] for s in sums) or (block.rows < rep.dim and sums[0] != dom.one):
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


def _maps_into(rep: Representation, sub: Subspace) -> bool:
    """True iff every image maps the subspace into itself.  For v in it, g*v
    lies in it iff (g - I)*v does, which is zero outside g's block, where it
    is the block times v's coordinates there, minus those coordinates."""
    zero = rep.domain.zero
    for offset, block, _ in rep.local_images():
        for v in sub.basis:
            segment = v[offset:offset + block.rows]
            moved = [zero] * rep.dim
            for i, row in enumerate(block.entries):
                moved[offset + i] = sum((a * b for a, b in zip(row, segment)), zero) - segment[i]
            if not sub.contains(moved):
                return False
    return True


def _minus_rows(offset: int, block: Matrix, lam, d: int) -> list[list]:
    """Rows spanning the row space of g - lam*I, where g is ``block`` at
    ``offset`` and the identity elsewhere: the block's rows of
    block - lam*I, embedded at ``offset``, and when lam != 1 one unit row
    per coordinate outside the block, where g - lam*I is (1 - lam)*I."""
    dom = block.domain
    k = block.rows
    rows = [[dom.zero] * offset + [e - lam if i == j else e for j, e in enumerate(row)]
            + [dom.zero] * (d - offset - k) for i, row in enumerate(block.entries)]
    if lam != dom.one:
        rows += [[dom.one if j == i else dom.zero for j in range(d)]
                 for i in range(d) if not offset <= i < offset + k]
    return rows


def invariant_line_witness(rep: Representation) -> Subspace | None:
    """Best-effort explicit invariant subspace for a reducible specialization.

    Tries, in order: the all-ones line, the common fixed subspace (the
    kernel of every g - I), and over Q a common eigenvector (in the kernel
    of every g - lam*I, for one rational eigenvalue lam of each generator,
    in sorted order; a block smaller than the image adds the eigenvalue 1).
    Kernels are taken of stacked ``_minus_rows`` and their bases read off
    the unique reduced echelon form.  Returns None when all three come up
    empty; reducibility itself is already settled by the span criterion.
    Witnesses are over the fraction field of the entries, and each is
    checked exactly once: the all-ones line by ``all_ones_check``, any other
    by ``_maps_into``.
    """
    d = rep.dim
    blocks = [(offset, block._field_lift()) for offset, block, _ in rep.local_images()]
    dom = blocks[0][1].domain
    if all_ones_check(rep):
        return Subspace(dom, d, (tuple([dom.one] * d),))
    fixed = Matrix(dom, [row for offset, block in blocks
                         for row in _minus_rows(offset, block, dom.one, d)]).nullspace()
    if fixed.dim and _maps_into(rep, fixed):
        return fixed
    if dom is not QQ:
        return None
    # Each choice is its stacked rows and their kernel, nonzero.
    choices = [([], None)]
    for offset, block in blocks:
        lams = set(_rational_roots(_char_poly(block)))
        if block.rows < d:
            lams.add(dom.one)
        extended = (rows + _minus_rows(offset, block, lam, d)
                    for rows, _ in choices for lam in sorted(lams))
        choices = [(rows, space) for rows in extended
                   if (space := Matrix(dom, rows).nullspace()).dim]
        if not choices:
            return None
    for _, space in choices:
        line = Subspace(dom, d, space.basis[:1])
        if _maps_into(rep, line):
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
    return IrreducibilityVerdict("reducible", span, d, invariant_line_witness(rep))


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
