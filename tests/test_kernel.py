"""Kernel certificates built from commuting pure-braid images."""

from __future__ import annotations

import random

import pytest

from braidrep import (
    LaurentPoly,
    certify,
    evaluate_word,
    parse_word,
    pure_braid_generator,
    pure_commutator_certificate,
    sigma,
    singular_extension,
    standard_rep,
    word,
)
from braidrep.errors import BadIndices, NotInKernel, TrivialWord
from braidrep.kernel import CITED_SOURCE, commutator_word
from braidrep.presentations import format_word, free_reduce


def one_shared_strand_pairs(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [
        (p1, p2)
        for p1 in pairs
        for p2 in pairs
        if p1 != p2 and len(set(p1) & set(p2)) == 1
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_all_one_shared_strand_commutators_map_to_identity(n):
    rep = standard_rep(n)
    for p1, p2 in one_shared_strand_pairs(n):
        assert evaluate_word(rep, commutator_word(p1, p2, n)).is_identity()


@pytest.mark.parametrize("n", [3, 4])
def test_certificates_survive_random_extension_parameters(n):
    rng = random.Random(97 + n)
    for _ in range(10):
        a = LaurentPoly({rng.randint(-1, 1): rng.randint(-3, 3)})
        c = LaurentPoly({rng.randint(-1, 1): rng.randint(-3, 3)})
        rep = singular_extension(n, a, c)
        cert = pure_commutator_certificate(rep, (1, 2), (1, n))
        assert cert.nontriviality == CITED_SOURCE
        assert cert.n == n
        assert evaluate_word(rep, cert.word).is_identity()


def test_certificate_word_is_freely_reduced_and_nonempty():
    rep = standard_rep(3)
    cert = pure_commutator_certificate(rep, (1, 2), (1, 3))
    assert cert.word
    assert free_reduce(cert.word) == cert.word
    assert format_word(cert.word) == (
        "s1 s1 s2 s1 s1 s2^-1 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2^-1"
    )


def test_commutator_word_layout():
    w = commutator_word((1, 2), (2, 3), 3)
    u = parse_word("s1 s1")
    v = parse_word("s2 s2")
    assert w == u + v + parse_word("s1^-1 s1^-1 s2^-1 s2^-1")


def test_guard_rejects_equal_pairs():
    rep = standard_rep(4)
    with pytest.raises(TrivialWord, match="commutes with itself"):
        pure_commutator_certificate(rep, (1, 2), (1, 2))


def test_guard_rejects_disjoint_and_nested_pairs():
    rep = standard_rep(5)
    with pytest.raises(TrivialWord, match="commute in the pure braid group"):
        pure_commutator_certificate(rep, (1, 2), (3, 4))
    with pytest.raises(TrivialWord, match="commute in the pure braid group"):
        pure_commutator_certificate(rep, (1, 4), (2, 3))


def test_guard_rejects_interleaved_pairs():
    rep = standard_rep(4)
    with pytest.raises(TrivialWord, match="share no strand"):
        pure_commutator_certificate(rep, (1, 3), (2, 4))


def test_small_strand_counts_are_rejected():
    rep = standard_rep(2)
    with pytest.raises(BadIndices):
        pure_commutator_certificate(rep, (1, 2), (1, 2))


def test_certify_rejects_words_outside_the_kernel():
    rep = standard_rep(3)
    with pytest.raises(NotInKernel):
        certify(rep, word(sigma(1)))
    with pytest.raises(TrivialWord):
        certify(rep, parse_word("s1 s1^-1"))


def test_certify_accepts_a_hand_built_kernel_word():
    rep = standard_rep(4)
    w = commutator_word((2, 3), (3, 4), 4)
    cert = certify(rep, w, nontriviality=CITED_SOURCE)
    assert cert.to_json_dict()["image"] == "identity"
    assert cert.to_json_dict()["nontriviality"] == CITED_SOURCE


def test_certificate_json_shape():
    rep = singular_extension(3, 1, 1)
    cert = pure_commutator_certificate(rep, (1, 2), (1, 3))
    obj = cert.to_json_dict()
    assert set(obj) == {"word", "n", "params", "image", "nontriviality"}
    assert obj["n"] == 3
    assert obj["params"] == {"a": "1", "c": "1"}


def test_certificates_hash_by_value():
    # params is a dict, so it takes part in == but not in the hash.
    first = pure_commutator_certificate(singular_extension(4, 1, 1), (1, 2), (1, 3))
    again = pure_commutator_certificate(singular_extension(4, 1, 1), (1, 2), (1, 3))
    other = pure_commutator_certificate(singular_extension(4, 2, 1), (1, 2), (1, 3))
    assert first == again and hash(first) == hash(again)
    assert first.word == other.word and first != other
    assert len({first, again, other}) == 2


def test_pure_braid_images_commute_pairwise():
    rep = standard_rep(4)
    mats = [
        evaluate_word(rep, pure_braid_generator(i, j, 4))
        for i in range(1, 5) for j in range(i + 1, 5)
    ]
    for x in mats:
        for y in mats:
            assert x * y == y * x
