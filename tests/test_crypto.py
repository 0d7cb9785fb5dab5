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
    both_open,
    commit,
    expand_mask,
    mask_rounds,
    mask_values,
    opens,
    tuple_add,
    tuple_sub,
    verify_commitment,
)
from sdzkp.group import make_ops, word_width
from sdzkp.instance import make_instance
from sdzkp.perm import Permutation, hamming, identity, random_perm
from sdzkp.protocol import Z1, slot_opens
from test_reference_verifier import arbitrary_words, commit_slot, masked_value, weight


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
    """commit's 96 bytes are SHA-256(tag || opening || message) of each
    slot in order, and opens, the unchecked core verify_commitment wraps,
    accepts each slot's own triple only."""
    rng = random.Random(35)
    messages = (b"z1", b"z2" * 40, bytes(SEED_BYTES))
    openings, commitment = commit(*messages, rng.randbytes(3 * OPENING_BYTES))
    assert len(commitment) == 3 * DIGEST_BYTES and all(len(o) == OPENING_BYTES for o in openings)
    assert commitment == b"".join(
        hashlib.sha256(tag.encode() + opening + message).digest()
        for tag, opening, message in zip(COMMIT_TAGS, openings, messages)
    )
    for slot, (message, opening) in enumerate(zip(messages, openings)):
        digest = commitment[32 * slot : 32 * slot + 32]
        for other in range(3):
            assert opens(digest, other, opening, message) is (other == slot)
        assert opens(digest, slot, opening, message + b"\x00") is False
        assert opens(digest, slot, bytes(b ^ 1 for b in opening), message) is False


def flip_a_byte(data, rng):
    """data with one byte, at a random place, XORed with a nonzero byte."""
    at = rng.randrange(len(data))
    return data[:at] + bytes((data[at] ^ rng.randrange(1, 256),)) + data[at + 1 :]


def test_both_open_is_two_opens():
    # both_open(digests, s, ...) must say what opens says of slot s on the
    # first 32 digest bytes and of slot t on the last 32, in one compare
    rng = random.Random(12)

    def agree(digests, s, s_opening, s_message, t, t_opening, t_message):
        two = opens(digests[:DIGEST_BYTES], s, s_opening, s_message)
        two = two and opens(digests[DIGEST_BYTES:], t, t_opening, t_message)
        assert both_open(digests, s, s_opening, s_message, t, t_opening, t_message) is two
        return two

    for _ in range(150):
        s, t = rng.sample(range(3), 2)
        messages = [rng.randbytes(rng.choice((1, 16, 32, 128, 1040))) for _ in range(3)]
        openings, commitment = commit(*messages, rng.randbytes(3 * OPENING_BYTES))
        digests = [commitment[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES] for i in range(3)]
        args = [digests[s] + digests[t], s, openings[s], messages[s], t, openings[t], messages[t]]
        assert agree(*args)
        assert not agree(rng.randbytes(2 * DIGEST_BYTES), *args[1:])  # random digests
        first, second = args[0][:DIGEST_BYTES], args[0][DIGEST_BYTES:]
        # a flip in the first digest, the second, either opening, either value
        flips = [(0, flip_a_byte(first, rng) + second), (0, first + flip_a_byte(second, rng))]
        flips += [(at, flip_a_byte(args[at], rng)) for at in (2, 5, 3, 6)]
        for at, flipped in flips:
            assert not agree(*args[:at], flipped, *args[at + 1 :])


def test_mask_values_is_tuple_add_of_the_expanded_mask():
    # the one-seed mask is the plain word-wise definition: expand_mask's
    # words added by tuple_add, and the reference verifier's masked_value
    rng = random.Random(13)
    for n in (1, 5, 16, 256, 257, 260):
        seed, width = rng.randbytes(SEED_BYTES), word_width(n)
        words = [arbitrary_words(n, rng) for _ in range(2)]
        masked = tuple(pack(tuple_add(tuple(w), expand_mask(seed, n, width)), width) for w in words)
        assert masked == tuple(masked_value(w, seed, n) for w in words)
        assert mask_values(seed, *(pack(w, width) for w in words)) == masked
        assert mask_values(seed, pack(words[0], width)) == masked[:1]


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
    seed = rng.randbytes(SEED_BYTES)
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
    the words packed as lanes of one integer, as mask_values adds them, at
    every width that holds them."""
    assert tuple_add(a, b) == plain_add(a, b)
    assert tuple_sub(a, b) == plain_add(a, b)
    for width in (1, 4):
        if max(a + b) < 1 << (8 * width):
            packed = int.from_bytes(pack(a, width), "little") ^ int.from_bytes(pack(b, width), "little")
            assert packed.to_bytes(width * len(a), "little") == pack(plain_add(a, b), width)


@pytest.mark.parametrize("n", [1, 2, 16, 128, 300])
def test_tuple_add_matches_the_per_word_formula(n):
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
def test_tuple_add_property(pairs):
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
    mask_values gives what tuple_add gives with expand_mask's words, and
    given the masked value back it returns the words."""
    n = len(words)
    width = word_width(n)
    mask = expand_mask(seed, n, width)
    value, z = pack(words, width), pack(tuple_add(words, mask), width)
    assert len(z) == width * n
    assert mask_values(seed, value) == (z,)
    assert mask_values(seed, value, bytearray(value)) == (z, z)
    assert mask_values(seed, z) == (value,)


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
def test_mask_values_is_its_own_inverse(data):
    # a degree of each word width: one byte an image up to 256, four past it
    n = data.draw(st.one_of(st.integers(1, 256), st.integers(257, 300)))
    seed = data.draw(st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES))
    size = word_width(n) * n
    value = data.draw(st.binary(min_size=size, max_size=size))
    assert mask_values(seed, *mask_values(seed, value)) == (value,)


_THREE = Permutation((0, 1, 2)).to_bytes()  # 16 bytes: a count, then three u32 words


# A masked value at degree 3 is 3 bytes, a byte an image, which cannot hold
# a word that is not an integer, a word past a byte, or a count other than
# 3.  Each word tuple the reference refuses is paired with a value that is
# not 3 bytes, or not bytes, which protocol.slot_opens refuses even when it
# is committed, before mask_values unmasks it.
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


def test_mask_rounds_is_the_word_wise_mask_round_by_round():
    # the many-seed mask is the one-seed mask's plain word-wise definition
    # share by share, and given the masked values back it returns them
    rng = random.Random(6)
    for n in (1, 5, 16, 256, 257, 260):
        size, width = word_width(n) * n, word_width(n)
        for count in range(1, 6):
            seeds = [rng.randbytes(SEED_BYTES) for _ in range(count)]
            rounds = [[arbitrary_words(n, rng) for _ in range(2)] for _ in seeds]
            joined = [b"".join(pack(w, width) for w in slot) for slot in zip(*rounds)]
            z1, z2 = mask_rounds(seeds, *joined)
            assert mask_rounds(seeds, z1, z2) == tuple(joined)
            for i, (seed, words) in enumerate(zip(seeds, rounds)):
                masked = tuple(masked_value(w, seed, n) for w in words)
                assert (z1[i * size : (i + 1) * size], z2[i * size : (i + 1) * size]) == masked


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


def test_mask_words_look_uniform():
    # chi-square on the low byte of the first mask word across many seeds
    rng = random.Random(36)
    counts = [0] * 256
    samples = 20000
    for _ in range(samples):
        word = expand_mask(rng.randbytes(SEED_BYTES), 1, 1)[0]
        counts[word & 0xFF] += 1
    expected = samples / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 255 degrees of freedom: mean 255, std ~22.6; 400 is > 6 sigma
    assert chi2 < 400
