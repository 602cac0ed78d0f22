"""The catalog of matrix representations and relation checking.

Crossing generators act by a 2x2 block embedded at the strand position; the
three named braid representations differ only in that block:

    standard   [[0, t], [1, 0]]
    burau      [[1-t, t], [1, 0]]
    f          [[1, 1, 0], [0, -t, 0], [0, t, 1]]   (3x3 block, dimension n+1)

The singular extension sends the singular generator at position i to the
embedded block [[a, c*t], [c, a]] = a*I + c*(standard block).  One builder,
``singular_extension``, writes both blocks out over whichever ring the value
given for t lives in: the Laurent ring (t the variable, a and c Laurent
polynomials), Q (t a nonzero rational), Q(t), or the symbolic unknowns' ring
of the solver.  On two strands the virtual extension additionally sends the
virtual generator to the involution of one of the five families that the
solver derives, at given values of that family's free entries.

Word evaluation relies on one invariant: every image equals the identity
outside one diagonal block.  A ``Representation`` is built from those blocks
and holds each generator as its block alone: the builders pass the block they
write, and a caller with only a dense image passes it as the full block at
offset 0.  ``local_image`` returns the pair (offset, block), inverting only
the block for exponent -1.  A word's image is the identity outside the union
of its letters' blocks, its support, so words are multiplied there only, as
block-local updates (``mul_local``); dense images are built on demand.
``verify_relations`` compares the two sides of each relation on its support,
and multiplies them once per shape: relations that differ by an index shift
place the same blocks at the same compressed positions, so their products
agree.  It builds the full matrices only for a relation that fails.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    BadStrandCount,
    ModeMismatch,
    NonInvertibleLetter,
    NonInvertibleTau,
    NotInvertible,
    UnassignedGenerator,
    ZeroSpecialization,
)
from .laurent import ONE, T, LaurentPoly, RationalFunction
from .matrix import (
    LAURENT,
    QQ,
    RATFUNC,
    EntryDomain,
    Matrix,
    mul_local,
)
from .presentations import NU, SIGMA, TAU, Presentation, Relation, Word
from .symbolic import SYMBOLIC, SymPoly

__all__ = [
    "Representation",
    "Violation",
    "standard_block",
    "standard_rep",
    "burau_rep",
    "f_rep",
    "singular_extension",
    "vsb2_extension",
    "evaluate_word",
    "verify_relations",
]


class Representation:
    """An image for every generator of one mode, each held as its local
    image: the identity outside one diagonal block.

    ``group`` records whether t-kind letters may be inverted when evaluating
    words; s- and v-kind images are always invertible by construction.  A
    representation is immutable: the blocks are its only state, and dense
    images are built from them on demand.
    """

    __slots__ = ("n", "mode", "dim", "domain", "group", "name", "params", "_blocks", "_inverses")

    def __init__(self, n: int, mode: str, dim: int, blocks: dict, group: bool = True,
                 name: str = "", params: dict | None = None):
        """The representation whose image of each key is the d x d identity
        outside the diagonal block given for it as (offset, block); a dense
        image is its own block at offset 0."""
        if n < 2:
            raise BadStrandCount(f"need at least 2 strands, got {n}")
        if not blocks:
            raise ModeMismatch("a representation needs at least one generator image")
        domain = next(iter(blocks.values()))[1].domain
        for (kind, index), (offset, block) in blocks.items():
            if not block.is_square() or block.domain is not domain:
                raise ModeMismatch("all generator blocks must be square over one domain")
            if not 0 <= offset <= dim - block.rows:
                raise ModeMismatch(f"the block of {kind}{index} at offset {offset} "
                                   f"does not fit in dimension {dim}")
        fields = {
            "n": n, "mode": mode, "dim": dim, "group": group, "name": name, "domain": domain,
            "params": MappingProxyType(dict(params or {})),
            "_blocks": dict(blocks),
            "_inverses": {},
        }
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def generator_keys(self):
        return sorted(self._blocks, key=lambda k: (k[0], k[1]))

    def local_images(self) -> list[tuple[int, Matrix]]:
        """The generators' local images in ``generator_keys`` order."""
        return [self._blocks[key] for key in self.generator_keys()]

    @property
    def assignment(self) -> MappingProxyType:
        """The dense image of every generator, built on demand; read-only."""
        return MappingProxyType({key: self.image(*key) for key in self.generator_keys()})

    def local_image(self, kind: str, index: int, exp: int = 1) -> tuple[int, Matrix]:
        """The letter's image as (offset, block): the image is the identity
        outside the diagonal block at that offset.  For exponent -1 only the
        block is inverted, once; its determinant is the image's, and a block
        with no inverse in the domain raises ``NonInvertibleLetter``."""
        key = (kind, index)
        if key not in self._blocks:
            raise UnassignedGenerator(f"no image assigned to {kind}{index}")
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if exp == 1:
            return self._blocks[key]
        if kind == TAU and not self.group:
            raise NonInvertibleLetter(
                f"{kind}{index} has no inverse in monoid mode"
            )
        if key not in self._inverses:
            offset, block = self._blocks[key]
            try:
                block = block.inverse()
            except NotInvertible as exc:
                raise NonInvertibleLetter(
                    f"image of {kind}{index} is not invertible over {self.domain.name}: {exc}"
                ) from exc
            self._inverses[key] = (offset, block)
        return self._inverses[key]

    def image(self, kind: str, index: int, exp: int = 1) -> Matrix:
        """The letter's dense image: its block (inverted for exponent -1),
        embedded in the identity."""
        offset, block = self.local_image(kind, index, exp)
        return _embed(self, range(offset, offset + block.rows), block.entries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "mode": self.mode,
            "group": self.group,
            "domain": self.domain.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "assignment": {
                f"{kind}{index}": self.image(kind, index).to_json_dict()
                for kind, index in self.generator_keys()
            },
        }

    def __repr__(self):
        label = self.name or self.mode
        return f"Representation({label}, n={self.n}, dim={self.dim}, domain={self.domain.name})"


_RINGS = {LaurentPoly: LAURENT, Fraction: QQ, RationalFunction: RATFUNC, SymPoly: SYMBOLIC}


def _ring(t) -> EntryDomain:
    """The entry domain that the value given for t lives in."""
    try:
        return _RINGS[type(t)]
    except KeyError:
        raise TypeError(f"no entry domain holds t = {t!r}") from None


def standard_block(t=T) -> Matrix:
    """[[0, t], [1, 0]] over the ring that t lives in."""
    return Matrix(_ring(t), [[0, t], [1, 0]])


def _block_rep(n: int, block: Matrix, name: str) -> Representation:
    """Sends sigma_i to ``block`` at strand position i, in dimension n + k - 2."""
    blocks = {(SIGMA, i): (i - 1, block) for i in range(1, n)}
    return Representation(n, "braid", n + block.rows - 2, blocks, name=name)


def standard_rep(n: int) -> Representation:
    return _block_rep(n, standard_block(), "standard")


def burau_rep(n: int) -> Representation:
    block = Matrix(LAURENT, [[ONE - T, T], [1, 0]])
    return _block_rep(n, block, "burau")


def f_rep(n: int) -> Representation:
    """The (n+1)-dimensional representation with 3x3 local block."""
    block = Matrix(LAURENT, [[1, 1, 0], [0, -T, 0], [0, T, 1]])
    return _block_rep(n, block, "f")


def singular_extension(n: int, a, c, group: bool = False, t=T) -> Representation:
    """Extension of the standard representation by t-generators with the
    block [[a, c*t], [c, a]] = a*I + c*(standard block) at each position.

    Everything is built over the ring that t lives in: the Laurent ring (t
    the variable, the default), Q (t a nonzero rational t0), Q(t), or the
    symbolic unknowns' ring; a and c are coerced into it.  A t other than
    the variable itself is recorded as the parameter t0.  In group mode the
    block determinant a^2 - t*c^2 must be a unit of that ring; monoid mode
    (the default) accepts any parameters.
    """
    dom = _ring(t)
    if not t:
        raise ZeroSpecialization("t may not be specialized to 0")
    a, c = dom.coerce(a), dom.coerce(c)
    block = Matrix(dom, [[a, c * t], [c, a]])
    if group and not dom.is_unit(d := block.det()):
        at = "" if t == T else f" at t = {t}"
        raise NonInvertibleTau(
            f"tau block determinant {d} is not a unit for (a, c) = ({a}, {c}){at}, "
            "so the images do not land in the general linear group")
    sigma = standard_block(t)
    blocks = {(kind, i): (i - 1, image)
              for kind, image in ((SIGMA, sigma), (TAU, block)) for i in range(1, n)}
    params = {"a": a, "c": c} if t == T else {"t0": t, "a": a, "c": c}
    return Representation(n, "singular", n, blocks, group=group,
                          name="singular-extension", params=params)


def vsb2_extension(family, values: dict, *, a, c, group: bool = False) -> Representation:
    """Two-strand virtual singular representation: standard s-image, the
    (a, c) t-image, and as v-image the involution of ``family``, one of the
    solver's derived families, at the given values of its free entries."""
    base = singular_extension(2, a, c, group=group)
    blocks = {key: base.local_image(*key) for key in base.generator_keys()}
    blocks[(NU, 1)] = (0, family.image(values))
    params = {**base.params, **values, "family": family.family_id}
    return Representation(2, "virtual_singular", 2, blocks, group=group,
                          name=f"vsb2-extension-family-{family.family_id}", params=params)


def evaluate_word(rep: Representation, w: Word) -> Matrix:
    """Product of the letter images; the empty word gives the identity."""
    support, (rows,) = _local_products(rep, [w])
    return _embed(rep, support, rows)


def _local_products(rep: Representation, words) -> tuple[list[int], Iterator[list[list]]]:
    """The support of the words and each word's product as its rows there."""
    support, letters = _local_letters(rep, words)
    return support, _products(rep.domain, len(support), letters)


def _local_letters(rep: Representation, words) -> tuple[list[int], list[list[tuple]]]:
    """The support of the words (the sorted union of the coordinates their
    letters move) and their letters, looked up in order, as (position, block)
    pairs in compressed coordinates, where each block stays contiguous."""
    letters = [[rep.local_image(g.kind, g.index, g.exp) for g in w] for w in words]
    support = sorted({o + k for word_letters in letters
                      for o, block in word_letters for k in range(block.rows)})
    position = {o: i for i, o in enumerate(support)}
    return support, [[(position[o], b) for o, b in word_letters] for word_letters in letters]


def _products(domain: EntryDomain, size: int, letters) -> Iterator[list[list]]:
    """Each word's rows on a support of ``size``, from its (position, block) letters."""
    for word_letters in letters:
        rows = _identity_rows(domain, size)
        for i, block in word_letters:
            rows = mul_local(rows, i, block)
        yield rows


def _embed(rep: Representation, support, rows) -> Matrix:
    """The d x d matrix that is ``rows`` on the support and the identity elsewhere."""
    full = _identity_rows(rep.domain, rep.dim)
    for i, row in zip(support, rows):
        for j, e in zip(support, row):
            full[i][j] = e
    return Matrix(rep.domain, full)


def _identity_rows(domain: EntryDomain, size: int) -> list[list]:
    one, zero = domain.one, domain.zero
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


@dataclass(frozen=True)
class Violation:
    relation: Relation
    lhs: Matrix
    rhs: Matrix
    diff: Matrix

    def to_json_dict(self) -> dict:
        return {
            "relation": str(self.relation),
            "kind": self.relation.kind,
            "indices": list(self.relation.indices),
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "diff": self.diff.to_json_dict(),
        }


def verify_relations(rep: Representation, pres: Presentation) -> list[Violation]:
    """Check every defining relation on the support of its two sides; returns
    the list of violations, each carrying the two sides and their difference.
    The products there depend only on the shape, each side's (position,
    block) letters, which also fix the support size.  So each shape, its
    blocks keyed by id (``rep`` keeps them all alive), is multiplied once."""
    if rep.n != pres.n or rep.mode != pres.mode:
        raise ModeMismatch(
            f"representation ({rep.mode}, n={rep.n}) does not match "
            f"presentation ({pres.mode}, n={pres.n})")
    violations, memo = [], {}
    for rel in pres.relations:
        support, letters = _local_letters(rep, [rel.lhs, rel.rhs])
        shape = tuple(tuple((i, id(b)) for i, b in side) for side in letters)
        if shape not in memo:
            lhs, rhs = _products(rep.domain, len(support), letters)
            memo[shape] = None if lhs == rhs else (lhs, rhs)
        if memo[shape]:
            lhs, rhs = (_embed(rep, support, rows) for rows in memo[shape])
            violations.append(Violation(rel, lhs, rhs, lhs - rhs))
    return violations
