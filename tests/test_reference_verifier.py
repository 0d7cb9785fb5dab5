"""fs_verify_bytes against a reference verifier written from the plain helpers.

The reference reads the proof with its own parser, written from the
format: the magic and a u32 round count, then per round a 96-byte
commitment, a kind byte, each opened value (a masked tuple by its own u32
count prefix, the seed as 32 bytes), then two 32-byte openings.  It never
asks the degree where a value ends, so it walks a proof apart from the
package's layout-driven walk.  It requires the round count the verifier
asks for, derives the challenges, opens each commitment with
crypto.verify_commitment, unmasks with tuple_sub(decode_tuple(z),
expand_mask(seed, n)), builds the opened member with the validating
Permutation constructor, compose and contains, and counts challenge-2
differences with weight.  It shares none of the raw-form code (byte
tables, lane slices, the one-subtraction unmask) that fs_verify_bytes
runs, so each verdict is checked against the definition.  Per round, what
the reference shows (the member's images at challenges 0 and 1, the
distance at 2) is checked against what protocol.read_round shows.
"""

import random
import struct

import pytest

from sdzkp.analysis import make_cheating_prover
from sdzkp.crypto import (
    COMMIT_TAGS,
    apply_mask,
    decode_tuple,
    encode_tuple,
    encode_words,
    expand_mask,
    fresh_seed,
    tuple_add,
    tuple_sub,
    verify_commitment,
)
from sdzkp.instance import instance_digest, plant_instance
from sdzkp.perm import Permutation, compose, inverse
from sdzkp.protocol import (
    COMMITMENT_BYTES,
    OPENS,
    SEED,
    NIZKProof,
    commit_round,
    derive_challenges,
    encode_proof,
    fs_prove,
    fs_verify_bytes,
    prover_commit,
    read_round,
    verify_round,
)


def weight(t):
    """The count of nonzero entries of t."""
    return sum(1 for x in t if x != 0)


def reference_read_response(data, at):
    """The response that starts at offset `at` of data, read by the format:
    a kind byte, each value OPENS[kind] lists (a masked tuple as its u32
    count prefix and that many u32 words, the seed as 32 bytes), then one
    32-byte opening per value.  Returns (kind, values, openings) and the
    offset past it; ValueError if the kind is unknown or data ends first."""
    if at >= len(data) or data[at] not in OPENS:
        raise ValueError("no response kind")
    kind, at, values = data[at], at + 1, []
    for slot in OPENS[kind]:
        if slot == SEED:
            length = 32
        else:
            if at + 4 > len(data):
                raise ValueError("truncated count prefix")
            (count,) = struct.unpack_from("<I", data, at)
            length = 4 + 4 * count
        values.append(data[at : at + length])
        at += length
    openings = tuple(data[at + 32 * i : at + 32 * i + 32] for i in range(len(values)))
    at += 32 * len(values)
    if at > len(data):
        raise ValueError("truncated response")
    return (kind, tuple(values), openings), at


def reference_read_proof(data):
    """A proof read by the format: the magic SDP1, a u32 round count, then
    per round a 96-byte commitment and a response (reference_read_response).
    Returns each round's (commitment, response); ValueError unless the last
    round ends where data does."""
    if data[:4] != b"SDP1" or len(data) < 8:
        raise ValueError("bad header")
    (count,) = struct.unpack_from("<I", data, 4)
    rounds, at = [], 8
    for _ in range(count):
        commitment, start = data[at : at + COMMITMENT_BYTES], at + COMMITMENT_BYTES
        _, at = reference_read_response(data, start)
        rounds.append((commitment, data[start:at]))
    if at != len(data):
        raise ValueError("trailing bytes")
    return rounds


def reference_round(inst, commitment, challenge, response):
    """What one round shows by definition, on its wire bytes, or None unless
    it verifies: the response parsed by reference_read_response, then its
    kind, its openings, and the challenge's predicate.  A round shows the
    member's image tuple at challenges 0 and 1 (u∘h, then u) and the
    distance at 2."""
    n = inst.degree
    try:
        (kind, values, openings), end = reference_read_response(response, 0)
    except ValueError:
        return None
    if kind != challenge or end != len(response):
        return None
    words = {}
    for slot, value, opening in zip(OPENS[challenge], values, openings):
        if not verify_commitment(commitment[32 * slot : 32 * slot + 32], value, COMMIT_TAGS[slot], opening):
            return None
        if slot != SEED:
            words[slot] = decode_tuple(value)
            if len(words[slot]) != n:
                return None
    if challenge == 2:
        a, b = words.values()
        distance = weight(tuple_sub(a, b))
        return distance if distance <= inst.max_distance else None
    (z,), seed = words.values(), values[1]
    try:
        member = Permutation(tuple_sub(z, expand_mask(seed, n)))
    except ValueError:
        return None
    if challenge == 1:
        member = compose(member, inverse(inst.target))
    return member.images if inst.group.contains(member) else None


def reference_verify(inst, data, context, rounds) -> bool:
    try:
        proof = reference_read_proof(data)
    except ValueError:
        return False
    if len(proof) != rounds:
        return False
    commitments = [commitment for commitment, _ in proof]
    challenges = derive_challenges(instance_digest(inst), context, commitments)
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
    # the first and the last round, each opened masked tuple's count prefix
    # in a challenge-0/1 round and in a challenge-2 round (as it lies, then
    # committed to, so each opening holds), and the buffer cut at each round
    # boundary.
    n, kinds, starts = inst.degree, [], [8]
    for _, rsp in reference_read_proof(data):
        kinds.append(rsp[0])
        starts.append(starts[-1] + COMMITMENT_BYTES + len(rsp))
    assert starts.pop() == len(data)

    def agree_on(position, value):
        return assert_verifiers_agree(inst, data[:position] + value + data[position + len(value):], 6)

    for start in (starts[0], starts[-1]):
        for kind in range(256):
            assert agree_on(start + COMMITMENT_BYTES, bytes([kind])) is (kind == data[start + COMMITMENT_BYTES])
    for index, tuples in ((next(i for i, k in enumerate(kinds) if k != 2), 1), (kinds.index(2), 2)):
        first = starts[index] + COMMITMENT_BYTES + 1
        for position in range(first, first + tuples * (4 + 4 * n), 4 + 4 * n):
            for count in (n - 1, n + 1, 0, 2**32 - 1):
                assert not agree_on(position, struct.pack("<I", count))
    z1, z2, seed = prover_commit(inst, wit, rng).values
    for count in (n - 1, n + 1, 0, 2**32 - 1):
        prefix = struct.pack("<I", count)
        state = commit_round(prefix + z1[4:], prefix + z2[4:], seed, rng)
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
        challenges = derive_challenges(instance_digest(inst), context, commitments)
        if challenges[0] == challenge:
            responses = tuple(s.respond(ch) for s, ch in zip(states, challenges))
            return encode_proof(NIZKProof(commitments, responses))


def forged_state(inst, words1, words2, rng):
    """A state committing to arbitrary u32 words under one fresh mask."""
    seed = fresh_seed(rng)
    return commit_round(*apply_mask(seed, inst.degree, encode_words(words1), encode_words(words2)), seed, rng)


def test_a_borrowing_lane_is_refused_by_both(family):
    # Words at or past 2^31 borrow in the lane subtraction's top bit; every
    # such unmasked word must be refused, as the validating constructor does.
    inst, wit = family
    rng = random.Random(inst.degree + 2)
    images = wit.element.images
    for bad in (2**31, 2**31 + images[0], 2**32 - 1, 2**31 - 1, inst.degree):
        words = (bad, *images[1:])
        state = forged_state(inst, words, words, rng)
        for ch in (0, 1):
            assert not verify_round(inst, state.commitment, ch, state.respond(ch))
            assert reference_round(inst, state.commitment, ch, state.respond(ch)) is None
            assert not assert_verifiers_agree(inst, proof_opening(inst, wit, state, ch, rng), 3)


def test_noisy_cheaters_arbitrary_words_agree(family):
    # make_cheating_prover masks a member beside itself plus noise: the noisy
    # words are arbitrary u32s, which apply_mask must take as they are.
    inst, wit = family
    rng = random.Random(inst.degree + 3)
    for targets in ({0, 2}, {1, 2}, {0, 1}):
        for _ in range(3):
            state = make_cheating_prover(inst, targets, rng)
            for ch in (0, 1, 2):
                expected = assert_readers_agree(inst, state.commitment, ch, state.respond(ch)) is not None
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
            assert assert_readers_agree(inst, state.commitment, ch, state.respond(ch)) is not None
            for other in OPENS.keys() - {ch}:  # a response read under another challenge
                assert assert_readers_agree(inst, state.commitment, other, state.respond(ch)) is None
    # every single-byte flip of one response of each kind
    for ch in OPENS:
        response = states[0].respond(ch)
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
            assert assert_readers_agree(inst, state.commitment, ch, state.respond(ch)) is not None
        assert read_round(inst, state.commitment, 2, state.respond(2)) == 0
        assert verify_round(inst, state.commitment, 2, state.respond(2)) is True


def test_apply_mask_takes_arbitrary_words():
    rng = random.Random(5)
    for n in (1, 5, 16, 260):
        words = tuple(rng.choice((0, 1, n, 2**31 - 1, 2**31, 2**32 - 1, rng.getrandbits(32))) for _ in range(n))
        seed = fresh_seed(rng)
        assert apply_mask(seed, n, encode_words(words)) == (encode_tuple(tuple_add(words, expand_mask(seed, n))),)
