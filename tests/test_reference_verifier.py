"""fs_verify_bytes against a reference verifier written from README's format.

The reference reads the proof with its own parser, written in plain loops
from the format: the magic SDP4 and a u32 round count, then per round a
96-byte commitment, a kind byte, each opened value (a masked value as w·n
bytes, n words of w = 1 byte up to degree 256 and 4 past it; the seed as
32 bytes), then two 32-byte openings.  It requires the round count the
verifier asks for, derives the challenges one stream byte at a time
(reference_challenges), opens each commitment with its own SHA-256,
unmasks word by word (each word XOR the matching word of SHAKE-256(seed),
as addition in GF(2^8w) is), builds the opened member with the validating
Permutation constructor, compose and contains, and counts challenge-2
differences word by word.  It imports no codec and shares none of the
raw-form code (byte tables, the one-integer XOR, the byte count of
ops.differing_words, the translated challenge stream) that fs_verify_bytes
runs, so each verdict is checked against the definition.  Per round, what
the reference shows (the member's images at challenges 0 and 1, the
distance at 2) is checked against what protocol.read_round shows.
"""

import hashlib
import random

import pytest

from sdzkp.analysis import make_cheating_prover
from sdzkp.crypto import COMMIT_TAGS, commit, mask_values
from sdzkp.instance import instance_digest, plant_instance
from sdzkp.perm import Permutation, compose, inverse
from sdzkp.protocol import (
    OPENS,
    NIZKProof,
    commit_round,
    encode_proof,
    fs_prove,
    fs_verify_bytes,
    prover_commit,
    prover_respond,
    read_round,
    verify_round,
)

# The format's constants, as README states them.
MAGIC = b"SDP4"
FS_DOMAIN = b"SDZKP-FS-v4"
COMMITMENT = 96
# what each kind opens, in wire order: slot 0 is Z1, 1 is Z2, 2 the seed
OPENED = {0: (0, 2), 1: (1, 2), 2: (0, 1)}
SEED_SLOT = 2


def commit_slot(message, tag, rng):
    """The digest and opening of message in the slot of `tag`, from one
    crypto.commit of a round that holds message in all three slots."""
    slot = COMMIT_TAGS.index(tag)
    openings, commitment = commit(message, message, message, rng.randbytes(3 * 32))
    return commitment[32 * slot : 32 * slot + 32], openings[slot]


def weight(t):
    """The count of nonzero entries of t."""
    return sum(1 for x in t if x != 0)


def word_bytes(n):
    """w: the bytes of one word of a masked value at degree n."""
    return 1 if n <= 256 else 4


def words_of(value, n):
    """A masked value's n words, each w little-endian bytes."""
    w = word_bytes(n)
    words = []
    for i in range(n):
        words.append(int.from_bytes(value[w * i : w * i + w], "little"))
    return words


def mask_words(seed, n):
    """The mask: SHAKE-256(seed) read as n words of w bytes."""
    return words_of(hashlib.shake_256(seed).digest(word_bytes(n) * n), n)


def masked_value(words, seed, n):
    """words masked under seed: each word plus its mask word in GF(2^8w),
    which is XOR, written back as w bytes."""
    w, out = word_bytes(n), b""
    for word, m in zip(words, mask_words(seed, n)):
        out += (word ^ m).to_bytes(w, "little")
    return out


def reference_read_response(data, at, n):
    """The response at degree n that starts at offset `at` of data, read by
    the format: a kind byte, each value the kind opens (a masked value as
    w·n bytes, the seed as 32), then one 32-byte opening per value.
    Returns (kind, values, openings) and the offset past it; ValueError if
    the kind is unknown or data ends first."""
    if at >= len(data) or data[at] not in OPENED:
        raise ValueError("no response kind")
    kind, at, values = data[at], at + 1, []
    for slot in OPENED[kind]:
        length = 32 if slot == SEED_SLOT else word_bytes(n) * n
        values.append(data[at : at + length])
        at += length
    openings = []
    for _ in values:
        openings.append(data[at : at + 32])
        at += 32
    if at > len(data):
        raise ValueError("truncated response")
    return (kind, tuple(values), tuple(openings)), at


def reference_read_proof(data, n):
    """A proof at degree n read by the format: the magic SDP4, a u32 round
    count, then per round a 96-byte commitment and a response
    (reference_read_response).  Returns each round's (commitment,
    response); ValueError unless the last round ends where data does."""
    if data[:4] != MAGIC or len(data) < 8:
        raise ValueError("bad header")
    count = int.from_bytes(data[4:8], "little")
    rounds, at = [], 8
    for _ in range(count):
        commitment, start = data[at : at + COMMITMENT], at + COMMITMENT
        _, at = reference_read_response(data, start, n)
        rounds.append((commitment, data[start:at]))
    if at != len(data):
        raise ValueError("trailing bytes")
    return rounds


def reference_round(inst, commitment, challenge, response):
    """What one round shows by definition, on its wire bytes, or None unless
    it verifies: the response parsed by reference_read_response, then its
    kind, its openings (SHA-256 of the tag C1, C2 or C3, the opening and
    the value), and the challenge's predicate.  A round shows the member's
    image tuple at challenges 0 and 1 (u∘h, then u) and the distance at 2."""
    n = inst.degree
    try:
        (kind, values, openings), end = reference_read_response(response, 0, n)
    except ValueError:
        return None
    if kind != challenge or end != len(response) or len(commitment) != COMMITMENT:
        return None
    for slot, value, opening in zip(OPENED[challenge], values, openings):
        tag = b"C%d" % (slot + 1)
        if hashlib.sha256(tag + opening + value).digest() != commitment[32 * slot : 32 * slot + 32]:
            return None
    if challenge == 2:
        a, b = (words_of(value, n) for value in values)
        distance = weight([x ^ y for x, y in zip(a, b)])
        return distance if distance <= inst.max_distance else None
    z, seed = values
    try:
        member = Permutation(tuple(x ^ m for x, m in zip(words_of(z, n), mask_words(seed, n))))
    except ValueError:
        return None
    if challenge == 1:
        member = compose(member, inverse(inst.target))
    return member.images if inst.group.contains(member) else None


def shake_stream(data):
    """The bytes of SHAKE-256(data), one at a time, for as long as they are
    taken (each longer read's first bytes are the shorter read's)."""
    length, at = 64, 0
    while True:
        stream = hashlib.shake_256(data).digest(length)
        for byte in stream[at:]:
            yield byte
        at, length = length, 2 * length


def fs_prefix(statement_digest, context, commitments):
    """What the challenge stream hashes: the domain ‖ u32 len(context) ‖
    context ‖ statement digest ‖ every commitment."""
    return FS_DOMAIN + len(context).to_bytes(4, "little") + context + statement_digest + b"".join(commitments)


def reference_challenges(statement_digest, context, commitments):
    """The challenge rule written plainly: one SHAKE-256 stream over
    fs_prefix; round i's challenge is the i-th byte of it that is not 255,
    mod 3."""
    stream, challenges = shake_stream(fs_prefix(statement_digest, context, commitments)), []
    while len(challenges) < len(commitments):
        byte = next(stream)
        if byte != 255:
            challenges.append(byte % 3)
    return challenges


def reference_verify(inst, data, context, rounds) -> bool:
    try:
        proof = reference_read_proof(data, inst.degree)
    except ValueError:
        return False
    if len(proof) != rounds:
        return False
    commitments = [commitment for commitment, _ in proof]
    challenges = reference_challenges(instance_digest(inst), context, commitments)
    return all(reference_round(inst, com, ch, rsp) is not None for (com, rsp), ch in zip(proof, challenges))


# (degree, generators, k, preset): A_5-or-S_5 at n = 5, S_12, A_16, a
# 5-level abelian2 chain, the benchmark's S_128, and A_260, past the
# byte-table limit.
FAMILIES = {
    "n5": (5, 2, 2, "general"),
    "S12": (12, 3, 4, "general"),
    "A16": (16, 4, 6, "general"),
    "abelian2-16": (16, 5, 4, "abelian2"),
    "S128": (128, 3, 32, "general"),
    "A260": (260, 3, 65, "general"),
}


@pytest.fixture(scope="module", params=FAMILIES.values(), ids=FAMILIES)
def family(request):
    n, gens, k, preset = request.param
    return plant_instance(n, gens, k, random.Random(n), preset=preset)


def assert_verifiers_agree(inst, data, rounds, context=b"ctx"):
    got = fs_verify_bytes(inst, data, context, rounds)
    assert got is reference_verify(inst, data, context, rounds)
    return got


def test_honest_proofs_and_their_mutations_agree(family):
    inst, wit = family
    rng = random.Random(inst.degree + 1)
    data = encode_proof(fs_prove(inst, wit, 6, b"ctx", rng))
    assert assert_verifiers_agree(inst, data, 6)
    assert not assert_verifiers_agree(inst, data, 6, b"other")
    assert not assert_verifiers_agree(inst, data, 5)
    flips = bytearray(data)
    for _ in range(1000):
        pos = rng.randrange(len(flips))
        flips[pos] ^= rng.randrange(1, 256)
        assert_verifiers_agree(inst, bytes(flips), 6)
        flips[pos] = data[pos]
    for end in sorted(rng.sample(range(len(data)), 40)) + [len(data) - 1]:
        assert not assert_verifiers_agree(inst, data[:end], 6)
    for extra in (b"\x00", b"\xff", bytes([rng.randrange(256)])):
        assert not assert_verifiers_agree(inst, data + extra, 6)
    # fs_verify_bytes finds each round in place from its kind byte and the
    # degree; these cases move what that walk reads: every kind byte value at
    # the first and the last round, masked values a byte short or long (as
    # committed to, so each opening holds), and the buffer cut at each round
    # boundary.
    starts = [8]
    for _, rsp in reference_read_proof(data, inst.degree):
        starts.append(starts[-1] + COMMITMENT + len(rsp))
    assert starts.pop() == len(data)

    def agree_on(position, value):
        return assert_verifiers_agree(inst, data[:position] + value + data[position + len(value):], 6)

    for start in (starts[0], starts[-1]):
        for kind in range(256):
            assert agree_on(start + COMMITMENT, bytes([kind])) is (kind == data[start + COMMITMENT])
    z1, z2, seed = prover_commit(inst, wit, rng).values
    for bad1, bad2 in ((z1[:-1], z2[:-1]), (z1 + b"\x00", z2 + b"\x00")):
        state = commit_round(bad1, bad2, seed, rng)
        for ch in (0, 1, 2):
            assert not assert_verifiers_agree(inst, proof_opening(inst, wit, state, ch, rng), 3)
    for start in starts:
        assert not assert_verifiers_agree(inst, data[:start], 6)


def proof_opening(inst, wit, state, challenge, rng, context=b"ctx"):
    """A proof whose first round is state, followed by two honest rounds
    drawn until the derived challenge of that first round is `challenge`."""
    while True:
        states = [state] + [prover_commit(inst, wit, rng) for _ in range(2)]
        commitments = tuple(s.commitment for s in states)
        challenges = reference_challenges(instance_digest(inst), context, commitments)
        if challenges[0] == challenge:
            responses = tuple(prover_respond(s, ch) for s, ch in zip(states, challenges))
            return encode_proof(NIZKProof(commitments, responses))


def test_noisy_cheaters_arbitrary_words_agree(family):
    # make_cheating_prover masks a member beside itself plus noise: the noisy
    # words are arbitrary, which the mask must take as they are.
    inst, wit = family
    rng = random.Random(inst.degree + 3)
    for targets in ({0, 2}, {1, 2}, {0, 1}):
        for _ in range(3):
            state = make_cheating_prover(inst, targets, rng)
            for ch in (0, 1, 2):
                expected = assert_readers_agree(inst, state.commitment, ch, prover_respond(state, ch)) is not None
                assert expected == (ch in targets)
                assert assert_verifiers_agree(inst, proof_opening(inst, wit, state, ch, rng), 3) is (ch in targets)


def assert_readers_agree(inst, commitment, challenge, response):
    """read_round shows what reference_round does, its raw element decoded
    to an image tuple at challenges 0 and 1, and verify_round accepts
    exactly when it shows something.  Returns what the reference shows."""
    expected = reference_round(inst, commitment, challenge, response)
    shown = read_round(inst, commitment, challenge, response)
    if shown is not None and challenge != 2:
        shown = inst.group.ops.decode(shown)
    assert shown == expected
    assert verify_round(inst, commitment, challenge, response) is (expected is not None)
    return expected


def test_read_round_shows_what_the_reference_shows(family):
    inst, wit = family
    rng = random.Random(inst.degree + 4)
    states = [prover_commit(inst, wit, rng) for _ in range(3)]
    for state in states:
        for ch in OPENS:
            assert assert_readers_agree(inst, state.commitment, ch, prover_respond(state, ch)) is not None
            for other in OPENS.keys() - {ch}:  # a response read under another challenge
                assert assert_readers_agree(inst, state.commitment, other, prover_respond(state, ch)) is None
    # every single-byte flip of one response of each kind
    for ch in OPENS:
        response = prover_respond(states[0], ch)
        for position in range(len(response)):
            flipped = bytearray(response)
            flipped[position] ^= rng.randrange(1, 256)
            assert_readers_agree(inst, states[0].commitment, ch, bytes(flipped))


@pytest.mark.parametrize("n, gens, preset", [(n, gens, preset) for n, gens, _, preset in FAMILIES.values()],
                         ids=FAMILIES)
def test_a_distance_0_round_shows_0(n, gens, preset):
    # on a k = 0 planted instance the witness is the target itself: a
    # challenge-2 round shows the distance 0, which still verifies
    inst, wit = plant_instance(n, gens, 0, random.Random(n), preset=preset)
    rng = random.Random(n + 5)
    for _ in range(2):
        state = prover_commit(inst, wit, rng)
        for ch in OPENS:
            assert assert_readers_agree(inst, state.commitment, ch, prover_respond(state, ch)) is not None
        assert read_round(inst, state.commitment, 2, prover_respond(state, 2)) == 0
        assert verify_round(inst, state.commitment, 2, prover_respond(state, 2)) is True


def arbitrary_words(n, rng):
    """n words of w bytes, each an edge of the word range or a uniform word."""
    top = 1 << (8 * word_bytes(n))
    return [rng.choice((0, 1, min(n, top - 1), top // 2 - 1, top // 2, top - 1, rng.randrange(top))) for _ in range(n)]


def test_mask_values_takes_arbitrary_words():
    rng = random.Random(5)
    for n in (1, 5, 16, 256, 257, 260):
        words = arbitrary_words(n, rng)
        value = b"".join(word.to_bytes(word_bytes(n), "little") for word in words)
        seed = rng.randbytes(32)
        assert mask_values(seed, value) == (masked_value(words, seed, n),)
