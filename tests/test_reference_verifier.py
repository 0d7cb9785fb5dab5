"""fs_verify_bytes against the plain reference verifier in tests/reference.py
on honest proofs and their mutations, and per round what the reference
shows (the member's images at challenges 0 and 1, the distance at 2)
against what protocol.read_round shows.
"""

import random

import pytest

from sdzkp.analysis import make_cheating_prover
from sdzkp.crypto import mask_values
from sdzkp.instance import instance_digest, plant_instance
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
from reference import (
    COMMITMENT, FAMILIES, arbitrary_words, masked_value, pack_words, reference_challenges, reference_read_proof,
    reference_round, reference_verify, word_bytes,
)


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
    # every single-byte flip of one response of each kind is refused: in its
    # kind byte, in either opened value, and in either slot's opening, the
    # second slot's among them, which is checked only once the first opens
    for ch in OPENS:
        response = prover_respond(states[0], ch)
        for position in range(len(response)):
            flipped = bytearray(response)
            flipped[position] ^= rng.randrange(1, 256)
            assert assert_readers_agree(inst, states[0].commitment, ch, bytes(flipped)) is None


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


def test_mask_values_takes_arbitrary_words():
    rng = random.Random(5)
    for n in (1, 5, 16, 256, 257, 260):
        words = arbitrary_words(n, rng)
        value = pack_words(words, word_bytes(n))
        seed = rng.randbytes(32)
        assert mask_values(seed, value) == (masked_value(words, seed, n),)
