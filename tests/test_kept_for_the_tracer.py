"""The unit tests of the names src/ keeps only for the benchmark's tracer
(sdzbench/spans.py): crypto's verify_commitment, expand_mask, tuple_add
and tuple_sub, and protocol's encode_response, decode_response and
decode_proof.  No other code or test reads them (tests/test_package.py
checks), so ROADMAP item 8 deletes this file together with the names."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdzkp.analysis import make_cheating_prover
from sdzkp.crypto import (
    COMMIT_TAGS, DIGEST_BYTES, OPENING_BYTES, SEED_BYTES, expand_mask, mask_values, tuple_add, tuple_sub,
    verify_commitment,
)
from sdzkp.group import word_width
from sdzkp.instance import plant_instance
from sdzkp.protocol import (
    CHALLENGES, Z1, _write_response, commit_round, decode_proof, decode_response, encode_proof, encode_response,
    fs_prove, prover_commit, prover_respond, slot_size,
)
from reference import FAMILIES, OPENED, arbitrary_words, commit_slot, edge_words, masked_value, pack_words


@pytest.fixture(scope="module")
def planted():
    return plant_instance(16, 4, 6, random.Random(50))


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


def test_mask_values_is_tuple_add_of_the_expanded_mask():
    # the one-seed mask is the plain word-wise definition: expand_mask's
    # words added by tuple_add, and the reference verifier's masked_value
    rng = random.Random(13)
    for n in (1, 5, 16, 256, 257, 260):
        seed, width = rng.randbytes(SEED_BYTES), word_width(n)
        words = [arbitrary_words(n, rng) for _ in range(2)]
        masked = tuple(pack_words(tuple_add(tuple(w), expand_mask(seed, n, width)), width) for w in words)
        assert masked == tuple(masked_value(w, seed, n) for w in words)
        assert mask_values(seed, *(pack_words(w, width) for w in words)) == masked
        assert mask_values(seed, pack_words(words[0], width)) == masked[:1]


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
        assert pack_words(m1, width) == hashlib.shake_256(seed).digest(16 * width)


def test_expand_mask_validates_seed():
    with pytest.raises(ValueError):
        expand_mask(b"short", 4, 1)
    with pytest.raises(ValueError):
        expand_mask(bytes(SEED_BYTES), 0, 4)


def test_tuple_arithmetic_is_xor():
    # addition in GF(2^8w) carries nothing, out of a word or within it
    assert tuple_add((2**32 - 1,), (1,)) == (2**32 - 2,)
    assert tuple_add((0x80, 0xFF), (0x80, 0x0F)) == (0, 0xF0)
    assert tuple_sub((0,), (1,)) == (1,)
    with pytest.raises(ValueError):
        tuple_add((1, 2), (1,))
    with pytest.raises(ValueError):
        tuple_sub((1,), (1, 2))


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
            packed = int.from_bytes(pack_words(a, width), "little") ^ int.from_bytes(pack_words(b, width), "little")
            assert packed.to_bytes(width * len(a), "little") == pack_words(plain_add(a, b), width)


@pytest.mark.parametrize("n", [1, 2, 16, 128, 300])
def test_tuple_add_matches_the_per_word_formula(n):
    for width in (1, 4):
        for x, y in product(edge_words(width), repeat=2):
            assert_matches_the_per_word_formula((x,) * n, (y,) * n)
    rng = random.Random(n)
    words = [*edge_words(1), *edge_words(4), *(rng.getrandbits(32) for _ in range(5))]
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


def test_encode_response_refuses_a_misshapen_response(planted):
    # an extra entry would otherwise be written: a response's wire form holds no count of its entries
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(70))
    for ch in CHALLENGES:
        kind, values, openings = decode_response(prover_respond(state, ch), inst.degree)
        assert encode_response(kind, values, openings) == prover_respond(state, ch)
        for count in (0, 1, 3):  # every kind opens two slots
            with pytest.raises(ValueError):
                encode_response(kind, (values * 2)[:count], openings)
            with pytest.raises(ValueError):
                encode_response(kind, values, (openings * 2)[:count])
        with pytest.raises(TypeError):  # an entry that is not bytes has no wire form
            encode_response(kind, (None, values[1]), openings)
    for kind in (3, -1, 255, None):
        with pytest.raises(ValueError, match="kind"):
            encode_response(kind, values, openings)


@pytest.mark.parametrize("n, gens, k, preset", FAMILIES.values(), ids=FAMILIES)
def test_the_unchecked_writer_writes_what_encode_response_writes(n, gens, k, preset):
    # fs_prove answers through _write_response with no check of its own, and
    # prover_respond after its challenge check: on honest and cheating
    # states each writes the kind byte, then what README's table opens
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset=preset)
    rng = random.Random(n + 7)
    states = [prover_commit(inst, wit, rng) for _ in range(3)]
    states += [make_cheating_prover(inst, targets, rng) for targets in ({0, 2}, {1, 2}, {0, 1})]
    for state in states:
        for ch, slots in OPENED.items():
            values = [state.values[slot] for slot in slots]
            openings = [state.openings[slot] for slot in slots]
            written = _write_response(ch, state.values, state.openings)
            assert written == encode_response(ch, values, openings) == prover_respond(state, ch)
            assert written == bytes((ch,)) + b"".join(values) + b"".join(openings)


@pytest.mark.parametrize("n", [5, 16, 260])
def test_encode_response_inverts_decode_response(n):
    # 260 is past the byte-table limit; up to 32 bytes of masked value the
    # kind 0 and 1 responses are at least as long as kind 2
    rng = random.Random(n)
    z1, z2 = (rng.randbytes(slot_size(Z1, n)) for _ in range(2))
    state = commit_round(z1, z2, rng.randbytes(SEED_BYTES), rng)
    for ch in CHALLENGES:
        data = prover_respond(state, ch)
        kind, values, openings = decode_response(data, n)
        assert kind == ch
        assert encode_response(kind, values, openings) == data


def test_response_codec_rejects_malformed(planted):
    inst, wit = planted
    rng = random.Random(62)
    state = prover_commit(inst, wit, rng)
    data = prover_respond(state, 2)
    with pytest.raises(ValueError):
        decode_response(data[:-1], inst.degree)
    with pytest.raises(ValueError):
        decode_response(data + b"\x00", inst.degree)
    with pytest.raises(ValueError):
        decode_response(b"", inst.degree)
    bad = bytearray(data)
    bad[0] = 7  # unknown variant
    with pytest.raises(ValueError):
        decode_response(bytes(bad), inst.degree)


def test_decode_proof_splits_what_encode_proof_joins(planted):
    inst, wit = planted
    proof = fs_prove(inst, wit, 8, b"", random.Random(64))
    data = encode_proof(proof)
    assert decode_proof(data, inst.degree) == decode_proof(bytearray(data), inst.degree) == proof
    for bad in (data[:-1], data + b"\x00", b"NOPE" + data[4:], b""):
        with pytest.raises(ValueError):
            decode_proof(bad, inst.degree)
