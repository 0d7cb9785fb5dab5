"""Commitments, mask expansion, the word arithmetic masking is checked by,
and group's word count (ops.differing_words) checked against it."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdzkp.crypto import (
    COMMIT_TAGS,
    DIGEST_BYTES,
    OPENING_BYTES,
    SEED_BYTES,
    apply_mask,
    commit,
    expand_mask,
    fresh_seed,
    opens,
    tuple_add,
    tuple_sub,
    verify_commitment,
)
from sdzkp.group import make_ops, word_width
from sdzkp.instance import make_instance
from sdzkp.perm import MAX_TUPLE_LENGTH, Permutation, hamming, identity, random_perm
from sdzkp.protocol import Z1, slot_opens
from test_reference_verifier import commit_slot, weight


def test_commit_verify_round_trip():
    rng = random.Random(30)
    for tag in COMMIT_TAGS:
        digest, opening = commit_slot(b"payload", tag, rng)
        assert len(digest) == DIGEST_BYTES
        assert len(opening) == OPENING_BYTES
        assert verify_commitment(digest, b"payload", tag, opening)


def test_commit_rejects_any_tamper():
    rng = random.Random(31)
    digest, opening = commit_slot(b"payload", "C1", rng)
    assert not verify_commitment(digest, b"payloae", "C1", opening)
    assert not verify_commitment(digest, b"payload", "C2", opening)
    other = bytes(b ^ 1 for b in opening)
    assert not verify_commitment(digest, b"payload", "C1", other)
    wrong = bytes(b ^ 0x80 for b in digest)
    assert not verify_commitment(wrong, b"payload", "C1", opening)


def test_verify_commitment_is_total():
    """Malformed inputs return False, never raise; each refusal is made
    before the hash, and only the exact bytes triple that commit hashed,
    under its tag, is accepted."""
    assert not verify_commitment(b"short", b"", "C1", b"\x00" * OPENING_BYTES)
    assert not verify_commitment(b"\x00" * DIGEST_BYTES, b"", "C1", b"short")
    assert not verify_commitment(None, b"", "C1", b"\x00" * OPENING_BYTES)
    assert not verify_commitment(b"\x00" * DIGEST_BYTES, b"", "C1", None)
    assert not verify_commitment(b"\x00" * DIGEST_BYTES, b"", "C9", b"\x00" * OPENING_BYTES)
    rng = random.Random(34)
    message = b"payload"
    for tag in COMMIT_TAGS:
        digest, opening = commit_slot(message, tag, rng)
        assert verify_commitment(digest, message, tag, opening) is True
        for other in ("C9", b"C1", tag.encode(), None, 1, [tag], *(t for t in COMMIT_TAGS if t != tag)):
            assert verify_commitment(digest, message, other, opening) is False
        for form in (bytearray, memoryview):
            assert verify_commitment(form(digest), message, tag, opening) is False
            assert verify_commitment(digest, form(message), tag, opening) is False
            assert verify_commitment(digest, message, tag, form(opening)) is False
        for bad in (digest[:-1], digest + b"\x00"):
            assert verify_commitment(bad, message, tag, opening) is False
        for bad in (opening[:-1], opening + b"\x00"):
            assert verify_commitment(digest, message, tag, bad) is False
        for bad in (message[:-1], message + b"\x00", b""):
            assert verify_commitment(digest, bad, tag, opening) is False


def test_round_commit_is_three_tagged_hashes():
    """commit's 96 bytes are SHA3-256(tag || opening || message) of each
    slot in order, and opens, the unchecked core verify_commitment wraps,
    accepts each slot's own triple only."""
    rng = random.Random(35)
    messages = (b"z1", b"z2" * 40, bytes(SEED_BYTES))
    openings, commitment = commit(*messages, rng)
    assert len(commitment) == 3 * DIGEST_BYTES and all(len(o) == OPENING_BYTES for o in openings)
    assert commitment == b"".join(
        hashlib.sha3_256(tag.encode() + opening + message).digest()
        for tag, opening, message in zip(COMMIT_TAGS, openings, messages)
    )
    for slot, (message, opening) in enumerate(zip(messages, openings)):
        digest = commitment[32 * slot : 32 * slot + 32]
        for other in range(3):
            assert opens(digest, other, opening, message) is (other == slot)
        assert opens(digest, slot, opening, message + b"\x00") is False
        assert opens(digest, slot, bytes(b ^ 1 for b in opening), message) is False


def test_commit_randomized():
    rng = random.Random(32)
    d1, o1 = commit_slot(b"m", "C1", rng)
    d2, o2 = commit_slot(b"m", "C1", rng)
    assert d1 != d2 and o1 != o2


def pack(words, width):
    """Words of `width` bytes, little-endian, one after another."""
    return b"".join(w.to_bytes(width, "little") for w in words)


def test_expand_mask_deterministic_and_prefix_stable():
    seed = bytes(range(32))
    for width in (1, 4):
        m1 = expand_mask(seed, 16, width)
        m2 = expand_mask(seed, 16, width)
        assert m1 == m2
        assert len(m1) == 16
        assert all(0 <= w < 1 << (8 * width) for w in m1)
        # longer expansion of the same seed extends the shorter one
        assert expand_mask(seed, 32, width)[:16] == m1
        assert expand_mask(bytes(32), 16, width) != m1
        # the words are the stream's first width·n bytes, read in order
        assert pack(m1, width) == hashlib.shake_256(seed).digest(16 * width)


def test_expand_mask_validates_seed():
    with pytest.raises(ValueError):
        expand_mask(b"short", 4, 1)
    with pytest.raises(ValueError):
        expand_mask(bytes(SEED_BYTES), 0, 4)


def test_mask_cancellation():
    rng = random.Random(33)
    seed = fresh_seed(rng)
    for width in (1, 4):
        mask = expand_mask(seed, 8, width)
        data = tuple(rng.randrange(1 << (8 * width)) for _ in range(8))
        assert tuple_sub(tuple_add(data, mask), mask) == data


def test_tuple_arithmetic_is_xor():
    # addition in GF(2^8w) carries nothing, out of a word or within it
    assert tuple_add((2**32 - 1,), (1,)) == (2**32 - 2,)
    assert tuple_add((0x80, 0xFF), (0x80, 0x0F)) == (0, 0xF0)
    assert tuple_sub((0,), (1,)) == (1,)
    with pytest.raises(ValueError):
        tuple_add((1, 2), (1,))
    with pytest.raises(ValueError):
        tuple_sub((1,), (1, 2))


def edge_words(width):
    """Words at the edges of a word of `width` bytes: its low and top bits."""
    top = 1 << (8 * width)
    return (0, 1, top // 2 - 1, top // 2, top - 1)


EDGE_WORDS = edge_words(4)


def plain_add(a, b):
    """The sum in GF(2^8w) by its definition: each coefficient of the two
    polynomials, one a bit, added mod 2."""
    return tuple(sum(((x >> i & 1) + (y >> i & 1)) % 2 << i for i in range(32)) for x, y in zip(a, b))


def assert_matches_the_per_word_formula(a, b):
    """tuple_add and tuple_sub give the per-word sum, and so does one XOR of
    the words packed as lanes of one integer, as apply_mask adds them, at
    every width that holds them."""
    assert tuple_add(a, b) == plain_add(a, b)
    assert tuple_sub(a, b) == plain_add(a, b)
    for width in (1, 4):
        if max(a + b) < 1 << (8 * width):
            packed = int.from_bytes(pack(a, width), "little") ^ int.from_bytes(pack(b, width), "little")
            assert packed.to_bytes(width * len(a), "little") == pack(plain_add(a, b), width)


@pytest.mark.parametrize("n", [1, 2, 16, 128, 300])
def test_lane_arithmetic_matches_the_per_word_formula(n):
    for width in (1, 4):
        for x, y in product(edge_words(width), repeat=2):
            assert_matches_the_per_word_formula((x,) * n, (y,) * n)
    rng = random.Random(n)
    words = [*edge_words(1), *EDGE_WORDS, *(rng.getrandbits(32) for _ in range(5))]
    for _ in range(50):
        a, b = tuple(rng.choices(words, k=n)), tuple(rng.choices(words, k=n))
        assert_matches_the_per_word_formula(a, b)


u32_pairs = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), min_size=1, max_size=300)


@given(u32_pairs)
@settings(max_examples=100, deadline=None)
def test_lane_arithmetic_property(pairs):
    a, b = tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
    assert_matches_the_per_word_formula(a, b)
    assert tuple_sub(tuple_add(a, b), b) == a


@pytest.mark.parametrize("bad", [-1, 2**32, 2**64, 1.5, "1", None])
@pytest.mark.parametrize("op", [tuple_add, tuple_sub])
def test_tuple_arithmetic_refuses_words_outside_u32(op, bad):
    with pytest.raises(ValueError):
        op((0, bad), (1, 2))
    with pytest.raises(ValueError):
        op((1, 2), (bad, 0))


def assert_masking_matches_the_tuple_reference(seed, words):
    """At degree n = len(words), with words of group.word_width(n) bytes:
    apply_mask gives what tuple_add gives with expand_mask's words, and
    given the masked value back it returns the words."""
    n = len(words)
    width = word_width(n)
    mask = expand_mask(seed, n, width)
    value, z = pack(words, width), pack(tuple_add(words, mask), width)
    assert len(z) == width * n
    assert apply_mask(seed, value) == (z,)
    assert apply_mask(seed, value, bytearray(value)) == (z, z)
    assert apply_mask(seed, z) == (value,)


# Both widths and the boundary between them: one byte a word up to 256, four past it.
MASK_DEGREES = [1, 2, 5, 128, 255, 256, 257, 300]


@pytest.mark.parametrize("n", MASK_DEGREES)
def test_masking_matches_the_tuple_reference_on_edge_words(n):
    rng = random.Random(n)
    edges = edge_words(word_width(n))
    for w in edges:
        assert_masking_matches_the_tuple_reference(rng.randbytes(SEED_BYTES), (w,) * n)
    for _ in range(20):
        assert_masking_matches_the_tuple_reference(rng.randbytes(SEED_BYTES), tuple(rng.choices(edges, k=n)))


@pytest.mark.parametrize("n", MASK_DEGREES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_masking_property(n, data):
    seed = data.draw(st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES))
    edges = edge_words(word_width(n))
    word = st.one_of(st.sampled_from(edges), st.integers(0, edges[-1]))
    words = data.draw(st.lists(word, min_size=n, max_size=n))
    assert_masking_matches_the_tuple_reference(seed, tuple(words))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_apply_mask_is_its_own_inverse(data):
    # a degree of each word width: one byte an image up to 256, four past it
    n = data.draw(st.one_of(st.integers(1, 256), st.integers(257, 300)))
    seed = data.draw(st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES))
    size = word_width(n) * n
    value = data.draw(st.binary(min_size=size, max_size=size))
    assert apply_mask(seed, *apply_mask(seed, value)) == (value,)


_THREE = Permutation((0, 1, 2)).to_bytes()  # 16 bytes: a count, then three u32 words


# A masked value at degree 3 is 3 bytes, a byte an image, which cannot hold
# a word that is not an integer, a word past a byte, or a count other than
# 3.  Each word tuple the reference refuses is paired with a value that is
# not 3 bytes, or not bytes, which protocol.slot_opens refuses even when it
# is committed, before apply_mask unmasks it.
@pytest.mark.parametrize("words, value", [
    ((0, -1, 2), b"\x00\x01"),
    ((0, 2**32, 2), bytes((0, 1, 2, 0))),
    ((0, 1.5, 2), b""),
    ((0, "1", 2), bytearray((0, 1, 2))),
    ((0, None, 2), (0, 1, 2)),
    ((0, 1), _THREE),
    ((0, 1, 2, 3), bytes(12)),
], ids=[f"words{i}" for i in range(7)])
def test_masking_refuses_what_the_tuple_reference_refuses(words, value):
    seed = bytes(SEED_BYTES)
    for op in (tuple_add, tuple_sub):
        with pytest.raises(ValueError):
            op(words, expand_mask(seed, 3, 1))
    inst = make_instance(identity(3), (identity(3),), 0)
    # a value that is not bytes stands beside the commitment to its bytes
    message = value if isinstance(value, bytes) else bytes((0, 1, 2))
    digest, opening = commit_slot(message, COMMIT_TAGS[Z1], random.Random(0))
    assert slot_opens(inst, digest, Z1, value, opening) is False


# apply_mask masks values of one length under one mask read; it refuses a
# value of any other length than the first's.
@pytest.mark.parametrize("words", [b"", bytes(8), bytes(11), bytes(13), bytes(16), _THREE])
def test_apply_mask_refuses_words_of_another_length(words):
    three = bytes((0, 1, 2))
    with pytest.raises(ValueError):
        apply_mask(bytes(SEED_BYTES), three, words)
    with pytest.raises(ValueError):
        apply_mask(bytes(SEED_BYTES), words, three)


def test_masking_validates_seed_and_length():
    three = bytes((0, 1, 2))
    with pytest.raises(ValueError):
        apply_mask(b"short", three)
    for empty in (b"", bytearray()):
        with pytest.raises(ValueError):
            apply_mask(bytes(SEED_BYTES), empty)
    with pytest.raises(ValueError):
        apply_mask(bytes(SEED_BYTES))


def assert_differing_words_match_the_reference(a, b, ops):
    """ops.differing_words counts the words in which a and b, packed at the
    word width of ops' degree, differ: the weight of their difference."""
    width = word_width(ops.degree)
    ea, eb = pack(a, width), pack(b, width)
    assert ops.differing_words(ea, eb) == weight(tuple_sub(a, b))
    assert ops.differing_words(ea, eb) == sum(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 128, 255, 256, 257, 300])
def test_differing_words_match_the_reference_on_edge_words(n):
    ops = make_ops(n)
    width = word_width(n)
    edges = edge_words(width)
    for x, y in product(edges, repeat=2):
        assert_differing_words_match_the_reference((x,) * n, (y,) * n, ops)
    rng = random.Random(n)
    for _ in range(50):
        a = tuple(rng.choices(edges, k=n))
        # every word differs from its partner in at most one bit, if at all
        b = tuple(x ^ (rng.choice((0, 1 << rng.randrange(8 * width)))) for x in a)
        assert_differing_words_match_the_reference(a, b, ops)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_differing_words_property(data):
    # a byte-table degree and a tuple degree: one ops of each word width
    ops = data.draw(st.sampled_from((make_ops(64), make_ops(300))))
    edges = edge_words(word_width(ops.degree))
    word = st.one_of(st.sampled_from(edges), st.integers(0, edges[-1]))
    a = data.draw(st.lists(word, min_size=1, max_size=64))
    flip = st.integers(0, 8 * word_width(ops.degree) - 1)
    b = [data.draw(st.one_of(st.just(x), word, flip.map(lambda s, x=x: x ^ (1 << s)))) for x in a]
    assert_differing_words_match_the_reference(tuple(a), tuple(b), ops)


def test_differing_words_refuses_unequal_lengths():
    tables, tuples = make_ops(3), make_ops(300)
    with pytest.raises(ValueError):
        tables.differing_words(bytes(2), bytes(3))
    with pytest.raises(ValueError):
        tuples.differing_words(_THREE, _THREE[:-1])
    # a length that is not whole u32 words
    with pytest.raises(ValueError):
        tuples.differing_words(_THREE + b"\x01", _THREE + b"\x00")
    assert tables.differing_words(_THREE + b"\x01", _THREE + b"\x00") == 1


def test_weight():
    assert weight(()) == 0
    assert weight((0, 0, 0)) == 0
    assert weight((0, 5, 0, 1)) == 2


def test_weight_and_hamming_equal_a_plain_count():
    rng = random.Random(37)
    for n in (1, 2, 16, 128, 300):
        t = tuple(rng.choice((0, 0, 1, 2**32 - 1)) for _ in range(n))
        assert weight(t) == sum(1 for x in t if x != 0)
        a, b = random_perm(n, rng), random_perm(n, rng)
        assert hamming(a, b) == sum(1 for i in range(n) if a.images[i] != b.images[i])
        assert hamming(a, b) == weight(tuple_sub(a.images, b.images))
        ops = make_ops(n)
        assert hamming(a, b) == ops.differing_words(ops.words(ops.encode(a.images)), ops.words(ops.encode(b.images)))


# The u32 tuple codec that commitments and frames carry permutations in is
# Permutation.to_bytes / from_bytes / unpack_from.

def test_tuple_codec_round_trip():
    rng = random.Random(34)
    for _ in range(50):
        p = random_perm(rng.randrange(1, 20), rng)
        data = p.to_bytes()
        assert len(data) == 4 + 4 * p.n
        assert Permutation.from_bytes(data) == p
        # the encoding is read wherever it stands
        assert Permutation.unpack_from(b"xy" + data + b"z", 2) == (p, len(data) + 2)


def test_tuple_codec_rejects_malformed():
    good = Permutation((1, 2, 0)).to_bytes()
    with pytest.raises(ValueError):
        Permutation.from_bytes(good[:-2])
    with pytest.raises(ValueError):
        Permutation.from_bytes(good + b"\x00")
    with pytest.raises(ValueError):
        Permutation.from_bytes(b"")
    # zero-length and absurd lengths are rejected on untrusted input
    with pytest.raises(ValueError):
        Permutation.from_bytes(bytes(4))
    with pytest.raises(ValueError):
        Permutation.from_bytes(b"\xff\xff\xff\xff")


def test_tuple_decoder_refuses_a_length_past_the_cap():
    # a full body behind the header: only the cap can refuse it
    n = MAX_TUPLE_LENGTH + 1
    data = n.to_bytes(4, "little") + bytes(4 * n)
    with pytest.raises(ValueError, match="unreasonable"):
        Permutation.unpack_from(data)
    at_cap = identity(MAX_TUPLE_LENGTH).to_bytes()
    assert Permutation.unpack_from(at_cap)[0].n == MAX_TUPLE_LENGTH


def test_fresh_seed_length_and_variety():
    rng = random.Random(35)
    seeds = {fresh_seed(rng) for _ in range(100)}
    assert len(seeds) == 100
    assert all(len(s) == SEED_BYTES for s in seeds)


def test_mask_words_look_uniform():
    # chi-square on the low byte of the first mask word across many seeds
    rng = random.Random(36)
    counts = [0] * 256
    samples = 20000
    for _ in range(samples):
        word = expand_mask(fresh_seed(rng), 1, 1)[0]
        counts[word & 0xFF] += 1
    expected = samples / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 255 degrees of freedom: mean 255, std ~22.6; 400 is > 6 sigma
    assert chi2 < 400
