"""Generators, words, and defining relations for the braid family on n strands.

Three generator kinds exist: ``s`` (the invertible crossings), ``t`` (the
singular crossings, invertible only in group mode), and ``v`` (the virtual
crossings, which are involutions).  Words are plain tuples of
``GeneratorSymbol``; the text format is space-separated letters such as
``"s1 s2^-1 t1 v1"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BadIndices, BadStrandCount

__all__ = [
    "SIGMA",
    "TAU",
    "NU",
    "MODES",
    "RELATION_KINDS",
    "GeneratorSymbol",
    "Relation",
    "Presentation",
    "sigma",
    "tau",
    "nu",
    "word",
    "format_word",
    "parse_word",
    "word_inverse",
    "free_reduce",
    "commutator",
    "pure_braid_generator",
    "build_presentation",
]

SIGMA = "s"
TAU = "t"
NU = "v"
KINDS = (SIGMA, TAU, NU)

MODES = ("braid", "singular", "virtual_singular")


class GeneratorSymbol(NamedTuple):
    kind: str
    index: int
    exp: int = 1

    def inverse(self) -> GeneratorSymbol:
        return GeneratorSymbol(self.kind, self.index, -self.exp)

    def __str__(self):
        return f"{self.kind}{self.index}" + (f"^{self.exp}" if self.exp != 1 else "")


def sigma(i: int, exp: int = 1) -> GeneratorSymbol:
    return GeneratorSymbol(SIGMA, i, exp)


def tau(i: int, exp: int = 1) -> GeneratorSymbol:
    return GeneratorSymbol(TAU, i, exp)


def nu(i: int, exp: int = 1) -> GeneratorSymbol:
    return GeneratorSymbol(NU, i, exp)


Word = tuple


def word(*letters: GeneratorSymbol) -> Word:
    return tuple(letters)


def format_word(w: Word) -> str:
    return " ".join(str(g) for g in w)


_LETTER_KINDS = set(KINDS)


def parse_word(text: str) -> Word:
    """Inverse of format_word; the empty string is the empty word."""
    letters = []
    for token in text.split():
        body, caret, exp_text = token.partition("^")
        if len(body) < 2 or body[0] not in _LETTER_KINDS or not body[1:].isdigit():
            raise ValueError(f"bad word letter {token!r}")
        exp = 1
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError(f"bad word letter {token!r}") from None
            if exp not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {token!r}")
        letters.append(GeneratorSymbol(body[0], int(body[1:]), exp))
    return tuple(letters)


def word_inverse(w: Word) -> Word:
    """The formal inverse; whether a t^-1 letter has an image is up to the
    representation (``Representation.group``), as for the relations."""
    return tuple(g.inverse() for g in reversed(w))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent letter/inverse pairs until none remain."""
    out: list[GeneratorSymbol] = []
    for g in w:
        if out and out[-1].kind == g.kind and out[-1].index == g.index and out[-1].exp == -g.exp:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def commutator(u: Word, v: Word) -> Word:
    """u v u^-1 v^-1, not freely reduced."""
    return tuple(u) + tuple(v) + word_inverse(u) + word_inverse(v)


def pure_braid_generator(i: int, j: int, n: int) -> Word:
    """The standard pure-braid generator linking strands i < j:
    s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1."""
    if n < 2:
        raise BadStrandCount(f"need at least 2 strands, got {n}")
    if not (1 <= i < j <= n):
        raise BadIndices(f"need 1 <= i < j <= n, got ({i}, {j}) with n = {n}")
    conj = [sigma(k) for k in range(j - 1, i, -1)]
    middle = [sigma(i), sigma(i)]
    return tuple(conj) + tuple(middle) + tuple(g.inverse() for g in reversed(conj))


class Relation(NamedTuple):
    kind: str
    indices: tuple
    lhs: Word
    rhs: Word

    def __str__(self):
        rhs = format_word(self.rhs) if self.rhs else "1"
        return f"{format_word(self.lhs)} = {rhs}"


def _adjacent(n: int) -> Iterable[tuple[int]]:
    """Indices i with i + 1 also a generator index."""
    return ((i,) for i in range(1, n - 1))


def _every(n: int) -> Iterable[tuple[int]]:
    return ((i,) for i in range(1, n))


def _far_pairs(n: int) -> Iterable[tuple[int, int]]:
    """Unordered index pairs (i, j), i < j, with |i - j| >= 2."""
    for i in range(1, n):
        for j in range(i + 2, n):
            yield (i, j)


def _far_ordered(n: int) -> Iterable[tuple[int, int]]:
    """Ordered index pairs with |i - j| >= 2."""
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                yield (i, j)


# The relation schemas in canonical emission order: kind -> (index tuples on
# n strands, lhs and rhs words for one index tuple).  Presentations list
# their relations grouped in this order, each group in index order.
_RELATIONS = {
    "braid": (_adjacent,
              lambda i: word(sigma(i), sigma(i + 1), sigma(i)),
              lambda i: word(sigma(i + 1), sigma(i), sigma(i + 1))),
    "sigma_far": (_far_pairs,
                  lambda i, j: word(sigma(i), sigma(j)),
                  lambda i, j: word(sigma(j), sigma(i))),
    "tau_far": (_far_pairs,
                lambda i, j: word(tau(i), tau(j)),
                lambda i, j: word(tau(j), tau(i))),
    "tau_sigma_far": (_far_ordered,
                      lambda i, j: word(tau(i), sigma(j)),
                      lambda i, j: word(sigma(j), tau(i))),
    "tau_sigma_same": (_every,
                       lambda i: word(tau(i), sigma(i)),
                       lambda i: word(sigma(i), tau(i))),
    "tau_slide_up": (_adjacent,
                     lambda i: word(sigma(i), sigma(i + 1), tau(i)),
                     lambda i: word(tau(i + 1), sigma(i), sigma(i + 1))),
    "tau_slide_down": (_adjacent,
                       lambda i: word(sigma(i + 1), sigma(i), tau(i + 1)),
                       lambda i: word(tau(i), sigma(i + 1), sigma(i))),
    "nu_involution": (_every,
                      lambda i: word(nu(i), nu(i)),
                      lambda i: word()),
    "nu_braid": (_adjacent,
                 lambda i: word(nu(i), nu(i + 1), nu(i)),
                 lambda i: word(nu(i + 1), nu(i), nu(i + 1))),
    "nu_sigma_slide": (_adjacent,
                       lambda i: word(nu(i), sigma(i + 1), nu(i)),
                       lambda i: word(nu(i + 1), sigma(i), nu(i + 1))),
    "nu_tau_slide": (_adjacent,
                     lambda i: word(nu(i), tau(i + 1), nu(i)),
                     lambda i: word(nu(i + 1), tau(i), nu(i + 1))),
    "nu_sigma_far": (_far_ordered,
                     lambda i, j: word(nu(i), sigma(j)),
                     lambda i, j: word(sigma(j), nu(i))),
    "nu_tau_far": (_far_ordered,
                   lambda i, j: word(nu(i), tau(j)),
                   lambda i, j: word(tau(j), nu(i))),
}

RELATION_KINDS = tuple(_RELATIONS)

_MODE_KINDS = {
    "braid": RELATION_KINDS[:2],
    "singular": RELATION_KINDS[:7],
    "virtual_singular": RELATION_KINDS,
}


@dataclass(frozen=True)
class Presentation:
    n: int
    mode: str
    relations: tuple[Relation, ...]

    def generator_keys(self) -> tuple[tuple[str, int], ...]:
        kinds = [SIGMA]
        if self.mode in ("singular", "virtual_singular"):
            kinds.append(TAU)
        if self.mode == "virtual_singular":
            kinds.append(NU)
        return tuple((k, i) for k in kinds for i in range(1, self.n))


def _make_relations(kind: str, n: int) -> list[Relation]:
    indices, lhs, rhs = _RELATIONS[kind]
    return [Relation(kind, idx, lhs(*idx), rhs(*idx)) for idx in indices(n)]


def build_presentation(n: int, mode: str) -> Presentation:
    """Defining presentation on n strands.

    ``mode`` picks the generator/relation family: "braid" (s only),
    "singular" (adds t), or "virtual_singular" (adds v).  The relations are
    the same whether or not t letters are invertible; that is a property of
    the representation (``Representation.group``), not of the presentation.
    """
    if n < 2:
        raise BadStrandCount(f"need at least 2 strands, got {n}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    relations = []
    for kind in _MODE_KINDS[mode]:
        relations.extend(_make_relations(kind, n))
    return Presentation(n=n, mode=mode, relations=tuple(relations))
