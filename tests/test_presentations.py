"""Words and defining presentations for the three generator families."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrep import (
    build_presentation,
    commutator,
    evaluate_word,
    format_word,
    free_reduce,
    nu,
    parse_word,
    pure_braid_generator,
    sigma,
    singular_extension,
    tau,
    word,
)
from braidrep.errors import BadIndices, BadStrandCount, NonInvertibleLetter
from braidrep.presentations import word_inverse

letters = st.builds(
    lambda kind, index, exp: {"s": sigma, "t": tau, "v": nu}[kind](index, exp),
    st.sampled_from("stv"),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([-1, 1]),
)
words = st.lists(letters, max_size=8).map(tuple)


def far_pairs(n):
    return (n - 2) * (n - 3) // 2


@pytest.mark.parametrize("n", range(2, 9))
def test_relation_counts_match_closed_forms(n):
    braid = build_presentation(n, "braid")
    assert len(braid.relations) == (n - 2) + far_pairs(n)

    singular = build_presentation(n, "singular")
    extra = far_pairs(n) + 2 * far_pairs(n) + (n - 1) + 2 * (n - 2)
    assert len(singular.relations) == len(braid.relations) + extra

    virtual = build_presentation(n, "virtual_singular")
    v_extra = (n - 1) + 3 * (n - 2) + 2 * (2 * far_pairs(n))
    assert len(virtual.relations) == len(singular.relations) + v_extra


def test_two_strand_relation_sets():
    assert [str(r) for r in build_presentation(2, "braid").relations] == []
    assert [str(r) for r in build_presentation(2, "singular").relations] == [
        "t1 s1 = s1 t1",
    ]
    assert [str(r) for r in build_presentation(2, "virtual_singular").relations] == [
        "t1 s1 = s1 t1",
        "v1 v1 = 1",
    ]


def test_three_strand_singular_relations():
    pres = build_presentation(3, "singular")
    assert [str(r) for r in pres.relations] == [
        "s1 s2 s1 = s2 s1 s2",
        "t1 s1 = s1 t1",
        "t2 s2 = s2 t2",
        "s1 s2 t1 = t2 s1 s2",
        "s2 s1 t2 = t1 s2 s1",
    ]


def test_four_strand_distant_commutations_appear():
    pres = build_presentation(4, "singular")
    kinds = {r.kind for r in pres.relations}
    assert "sigma_far" in kinds and "tau_far" in kinds and "tau_sigma_far" in kinds
    far = [r for r in pres.relations if r.kind == "tau_sigma_far"]
    assert {r.indices for r in far} == {(1, 3), (3, 1)}


def test_defining_relations_are_positive_words():
    for mode in ("braid", "singular", "virtual_singular"):
        for n in (2, 3, 4, 5):
            for rel in build_presentation(n, mode).relations:
                for g in rel.lhs + rel.rhs:
                    assert g.exp == 1


def test_generator_keys_order():
    assert build_presentation(3, "braid").generator_keys() == (("s", 1), ("s", 2))
    assert build_presentation(3, "virtual_singular").generator_keys() == (
        ("s", 1), ("s", 2), ("t", 1), ("t", 2), ("v", 1), ("v", 2),
    )


def test_strand_count_validation():
    with pytest.raises(BadStrandCount):
        build_presentation(1, "braid")
    with pytest.raises(ValueError):
        build_presentation(3, "planar")


@given(words)
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w)) == w


def test_parse_word_forms():
    assert parse_word("s1 t2^-1 v3") == (sigma(1), tau(2, -1), nu(3))
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("x7")


@given(words)
def test_free_reduce_is_idempotent(w):
    once = free_reduce(w)
    assert free_reduce(once) == once


@given(words)
def test_word_times_inverse_reduces_to_nothing(w):
    assert free_reduce(w + word_inverse(w)) == ()


def test_monoid_mode_blocks_tau_inverses():
    # The inverse is formal; a monoid-mode representation refuses t^-1.
    assert word_inverse(word(sigma(1), tau(2))) == (tau(2, -1), sigma(1, -1))
    with pytest.raises(NonInvertibleLetter):
        evaluate_word(singular_extension(3, 1, 1, group=False), word_inverse(word(tau(1))))


def test_commutator_shape():
    c = commutator(word(sigma(1)), word(sigma(2)))
    assert c == (sigma(1), sigma(2), sigma(1, -1), sigma(2, -1))


@pytest.mark.parametrize("i,j,n", [(1, 2, 3), (1, 3, 3), (2, 5, 6), (1, 4, 4)])
def test_pure_braid_generator_shape(i, j, n):
    w = pure_braid_generator(i, j, n)
    assert len(w) == 2 * (j - i - 1) + 2
    assert w[j - i - 1] == sigma(i) and w[j - i] == sigma(i)
    assert free_reduce(w) == w


def test_pure_braid_generator_validation():
    with pytest.raises(BadIndices):
        pure_braid_generator(2, 2, 4)
    with pytest.raises(BadIndices):
        pure_braid_generator(1, 5, 4)
    with pytest.raises(BadStrandCount):
        pure_braid_generator(1, 2, 1)


# SHA-256 over [str, kind, indices] of every relation, in emission order,
# captured from the hand-written schema list the relation table replaced.
PINNED_RELATIONS = {
    ("braid", 2): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("braid", 3): "998849b2d980632fb042bad60dc7a8905093ec815334ca24f43c840e2d3d02d6",
    ("braid", 4): "73274776864009de87127f81008f0da1379eb114fbcd426d8dade9021c8dbcc6",
    ("braid", 5): "7d889e4d4b7cb740a34f23196da95d49e7b8e8978fae8782490cd682aab66430",
    ("braid", 6): "60065b7423391b188b10ddeb50c55e534917774ff7985883864fb10ea6bd5d4c",
    ("singular", 2): "51909c00e135a3c465c9a530745ef365ec8d52c98f4fa7540780215a815b9b86",
    ("singular", 3): "75cb1b97c99a0a2e07a21153f27122d2207c3584afb0c55f00ecacea7bd91867",
    ("singular", 4): "ae0264e9d8f6d2fbf31712c2a38afa73e55e09cd8025e30f9e0f6410badf68f1",
    ("singular", 5): "c048e9389910250ff9c8e7bfe8cb3df67b8d2180c87ab5061d9322676dab7e18",
    ("singular", 6): "1bf0dc95c2b6de4e357733c3000af8f6510850138823d67a56561f4a54556932",
    ("virtual_singular", 2): "3a703dd736c0645727a928026b4f0aaad5d52f90727c4b876ff84b13dca4fcc5",
    ("virtual_singular", 3): "0da8f23a447bd1bac4eee98c6dcbdb39b77f6423bf5b080e2615461a444f2fb6",
    ("virtual_singular", 4): "9d135b315e531f58058725e4e9bd711ba47548f98c5887a4ae000bea49899c97",
    ("virtual_singular", 5): "cfb77ec84399a721bf4f0575d6866e388282135e1eaaef51677ce9f8b5ff7729",
    ("virtual_singular", 6): "f916c04f252cb003298c8941966fb13d5441873affc052397bf0501097e62330",
}


@pytest.mark.parametrize("mode,n", sorted(PINNED_RELATIONS))
def test_relations_are_pinned(mode, n):
    relations = build_presentation(n, mode).relations
    text = json.dumps([[str(r), r.kind, list(r.indices)] for r in relations])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RELATIONS[(mode, n)]

