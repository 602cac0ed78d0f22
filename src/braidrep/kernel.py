"""Explicit non-identity words that the representations send to the identity.

The certified family consists of commutators of two pure-braid generators
A_ij that share exactly one strand.  Every A_ij image here is a conjugate of
an embedded diagonal block, and the images turn out to commute, so such
commutators land on the identity matrix; their nontriviality in the group is
cited from the literature rather than recomputed (solving the word problem is
out of scope, and the certificate says so).

Pairs that share no strand are rejected by the guard: generators on disjoint
or nested strand intervals commute already in the pure braid group, so their
commutator is the trivial element and certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadIndices, NotInKernel, TrivialWord
from .presentations import Word, commutator, format_word, free_reduce, pure_braid_generator
from .reps import Representation, _embed, _identity_rows, _local_products

__all__ = [
    "KernelCertificate",
    "CITED_SOURCE",
    "commutator_word",
    "certify",
    "pure_commutator_certificate",
]

CITED_SOURCE = "cited:pure-braid-commutator"


@dataclass(frozen=True)
class KernelCertificate:
    """A freely reduced, nonempty word whose image is exactly the identity."""

    word: Word
    n: int
    params: dict = field(hash=False)
    nontriviality: str

    def to_json_dict(self) -> dict:
        return {
            "word": format_word(self.word),
            "n": self.n,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "image": "identity",
            "nontriviality": self.nontriviality,
        }


def commutator_word(pair1: tuple[int, int], pair2: tuple[int, int], n: int) -> Word:
    """[A_{ij}, A_{kl}] as a word in the braid generators."""
    u = pure_braid_generator(pair1[0], pair1[1], n)
    v = pure_braid_generator(pair2[0], pair2[1], n)
    return commutator(u, v)


def certify(rep: Representation, w: Word,
            nontriviality: str = "unchecked") -> KernelCertificate:
    """Certificate that the word maps to the identity matrix.

    The word must survive free reduction (the trivial element certifies
    nothing) and evaluate to the exact identity.  Whether the word is a
    nontrivial group element is recorded as a tag, never computed here.
    """
    reduced = free_reduce(w)
    if not reduced:
        raise TrivialWord("word freely reduces to the identity element")
    support, (rows,) = _local_products(rep, [reduced])
    if rows != _identity_rows(rep.domain, len(support)):
        raise NotInKernel(f"word {format_word(reduced)} does not map to the identity:\n"
                          f"{_embed(rep, support, rows)}")
    return KernelCertificate(
        word=reduced,
        n=rep.n,
        params=dict(rep.params),
        nontriviality=nontriviality,
    )


def _guard(pair1: tuple[int, int], pair2: tuple[int, int]) -> None:
    if tuple(pair1) == tuple(pair2):
        raise TrivialWord("a generator commutes with itself")
    shared = len(set(pair1) & set(pair2))
    if shared != 1:
        i, j = sorted(pair1)
        k, m = sorted(pair2)
        disjoint = j < k or m < i
        nested = (i < k and m < j) or (k < i and j < m)
        if disjoint or nested:
            raise TrivialWord(
                f"generators on strands {pair1} and {pair2} commute in the "
                "pure braid group, so their commutator is the trivial element")
        raise TrivialWord(
            f"strand pairs {pair1} and {pair2} share no strand; only "
            "one-shared-strand commutators carry a citable nontriviality")


def pure_commutator_certificate(rep: Representation,
                                pair1: tuple[int, int],
                                pair2: tuple[int, int]) -> KernelCertificate:
    """Certificate for [A_{ij}, A_{kl}] where the pairs share one strand.

    The guard rejects pair choices whose commutator is already trivial as a
    group element (equal, disjoint, or nested pairs) and pair choices outside
    the cited family.  It runs after the word is built, so a strand out of
    range raises ``BadIndices`` rather than a rejection.
    """
    if rep.n < 3:
        raise BadIndices("pure-braid commutators need at least 3 strands")
    word = commutator_word(pair1, pair2, rep.n)
    _guard(pair1, pair2)
    return certify(rep, word, nontriviality=CITED_SOURCE)
