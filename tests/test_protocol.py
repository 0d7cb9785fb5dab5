"""The three-challenge round, amplification, and the hash-derived variant."""

import hashlib
import random
import time
from functools import cache
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdzkp.protocol
from sdzkp.analysis import accepted_challenges, completeness_rate
from sdzkp.crypto import COMMIT_TAGS, COMMITMENT_BYTES, OPENING_BYTES, SEED_BYTES, mask_values, opens
from sdzkp.group import _ChainBuilder, _Level, _normalize, _sift, word_width
from sdzkp.instance import Witness, instance_digest, make_instance, plant_instance, validate_witness
from sdzkp.perm import Permutation, compose_images, hamming, identity, random_perm
from sdzkp.protocol import (
    CHALLENGES,
    NIZKProof,
    OPENS,
    SEED,
    Z1,
    Z2,
    ProverState,
    _response_layout,
    _split_proof,
    _write_response,
    commit_round,
    derive_challenges,
    encode_proof,
    fs_prove,
    fs_verify_bytes,
    honest_rounds,
    masked_round,
    max_response_bytes,
    prover_commit,
    prover_respond,
    prover_round,
    read_round,
    slot_opens,
    slot_size,
    verifier_challenge,
    verify_round,
)
from reference import (
    commit_slot, fs_prefix, masked_value, masked_words, pack_words, reference_challenges,
    reference_read_proof, reference_read_response,
)


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(50)
    return plant_instance(16, 4, 6, rng)


def test_honest_round_accepts_every_challenge(planted):
    inst, wit = planted
    rng = random.Random(51)
    for _ in range(30):
        state = prover_commit(inst, wit, rng)
        for ch in CHALLENGES:
            assert verify_round(inst, state.commitment, ch, prover_respond(state, ch))


@pytest.fixture
def witness_checks(monkeypatch):
    """The witnesses the protocol module checks, in call order."""
    calls = []
    check = sdzkp.protocol.validate_witness

    def counted(inst, h):
        calls.append(h)
        return check(inst, h)

    monkeypatch.setattr(sdzkp.protocol, "validate_witness", counted)
    return calls


def foreign_witness(inst):
    _, wit = plant_instance(16, 4, 6, random.Random(112))
    assert not validate_witness(inst, wit.element)
    return wit


@pytest.mark.parametrize("prove", [
    pytest.param(
        lambda inst, wit, rng: fs_verify_bytes(inst, encode_proof(fs_prove(inst, wit, 219, b"ctx", rng)), b"ctx"),
        id="fs_prove",
    ),
    pytest.param(lambda inst, wit, rng: accepted_challenges(inst, prover_commit(inst, wit, rng)) == set(CHALLENGES),
                 id="prover_commit"),
    pytest.param(lambda inst, wit, rng: completeness_rate(inst, wit, 219, rng) == 1.0, id="analyze_completeness"),
])
def test_multi_round_prover_checks_the_witness_once(planted, witness_checks, prove):
    inst, wit = planted
    assert prove(inst, wit, random.Random(56))
    assert witness_checks == [wit.element]
    rng = random.Random(57)
    coins = rng.getstate()
    with pytest.raises(ValueError, match="witness"):
        prove(inst, foreign_witness(inst), rng)
    assert rng.getstate() == coins  # refused before the first commitment drew a coin
    assert len(witness_checks) == 2


def test_honest_rounds_checks_first_then_draws_prover_rounds_lazily(planted):
    inst, wit = planted
    refused = ((0, wit), (5, foreign_witness(inst)))
    for refuse, (rounds, witness) in product((honest_rounds, completeness_rate), refused):
        rng = random.Random(59)
        coins = rng.getstate()
        with pytest.raises(ValueError):
            refuse(inst, witness, rounds, rng)
        assert rng.getstate() == coins  # refused before a coin was drawn
    h = inst.group.ops.encode(wit.element.images)
    rng, plain = random.Random(60), random.Random(60)
    states = honest_rounds(inst, wit, 5, rng)
    first = next(states)
    assert first == prover_round(inst, h, plain)
    assert rng.getstate() == plain.getstate()  # one state taken, one round's coins drawn
    rng, plain = random.Random(61), random.Random(61)
    assert list(honest_rounds(inst, wit, 5, rng)) == [prover_round(inst, h, plain) for _ in range(5)]
    assert rng.getstate() == plain.getstate()


def test_commit_refuses_bad_witness(planted):
    inst, _ = planted
    rng = random.Random(54)
    # an element far from the target: resample until one exceeds the bound
    for _ in range(64):
        h = Permutation(inst.group.ops.decode(inst.group.sample_uniform(rng)))
        if hamming(h, inst.target) > inst.max_distance:
            with pytest.raises(ValueError):
                prover_commit(inst, Witness(h), rng)
            return
    pytest.skip("all sampled elements were within the bound")


def test_challenge_response_mismatch_rejected(planted):
    inst, wit = planted
    rng = random.Random(55)
    state = prover_commit(inst, wit, rng)
    com = state.commitment
    for ch in CHALLENGES:
        for other in CHALLENGES:
            rsp = prover_respond(state, other)
            assert verify_round(inst, com, ch, rsp) == (ch == other)
    assert not verify_round(inst, com, 3, prover_respond(state, 0))
    for ch in (3, -1):
        with pytest.raises(ValueError, match="challenge must be 0, 1 or 2"):
            prover_respond(state, ch)


def test_tampered_masked_tuple_rejected(planted):
    inst, wit = planted
    rng = random.Random(56)
    state = prover_commit(inst, wit, rng)
    com = state.commitment
    z1, z2, seed = state.values
    bumped = bytes([z1[0] ^ 1]) + z1[1:]  # at degree 16 a byte is a word
    assert not verify_round(inst, com, 0, _write_response(0, (bumped, z2, seed), state.openings))


def test_wrong_seed_rejected(planted):
    inst, wit = planted
    rng = random.Random(57)
    state = prover_commit(inst, wit, rng)
    com = state.commitment
    assert not verify_round(inst, com, 1, _write_response(1, (*state.values[:SEED], bytes(32)), state.openings))


def test_missing_fields_rejected(planted):
    inst, wit = planted
    rng = random.Random(58)
    state = prover_commit(inst, wit, rng)
    com = state.commitment
    assert not verify_round(inst, com, 0, bytes([0]))
    assert not verify_round(inst, com, 2, bytes([2]) + state.values[Z1])


@cache
def _trivial_instance(n):
    return make_instance(identity(n), (identity(n),), 0)


@cache
def _symmetric_instance(n):
    """An instance over S_n, whose membership test refuses no permutation."""
    swap = Permutation((1, 0, *range(2, n))) if n > 1 else identity(n)
    return make_instance(identity(n), (swap, Permutation((*range(1, n), 0))), 0)


def unmask(z, seed, n):
    """The permutation that read_round shows for a challenge-0 opening of
    the bytes z under seed at degree n, each honestly committed, over S_n;
    ValueError when it shows none."""
    inst = _symmetric_instance(n)
    state = commit_round(z, z, seed, random.Random(0))
    shown = read_round(inst, state.commitment, 0, prover_respond(state, 0))
    if shown is None:
        raise ValueError("unmasked tuple is not a permutation")
    return Permutation._trusted(inst.group.ops.decode(shown))


def test_non_permutation_unmask_rejected(planted):
    # a masked tuple opening to a non-bijection must fail challenges 0 and 1
    # even with freshly honest commitments over the forged value
    inst, wit = planted
    rng = random.Random(59)
    n = inst.degree
    seed = rng.randbytes(SEED_BYTES)
    # every image below n, two of them equal: only the bijection check can refuse
    images = wit.element.images
    collided = (images[1], *images[1:])
    value = pack_words(collided, word_width(n))
    state = commit_round(*mask_values(seed, value, value), seed, rng)
    com = state.commitment
    for slot in (Z1, Z2, SEED):
        assert opens(com, slot, state.openings[slot], state.values[slot])
    assert not verify_round(inst, com, 0, prover_respond(state, 0))
    assert not verify_round(inst, com, 1, prover_respond(state, 1))
    assert verify_round(inst, com, 2, prover_respond(state, 2))  # the openings themselves are sound
    with pytest.raises(ValueError, match="not a permutation"):
        unmask(state.values[Z1], seed, n)


def non_canonical_encodings(z):
    """Stand-ins for the masked value z that are not a value of its slot: a
    byte or a u32 word short or long, and values that are not bytes (its
    plain word tuple among them)."""
    return [
        z[:-1],
        z[:-4],
        z + b"\x00",
        z + bytes(4),
        b"",
        tuple(z),
        bytearray(z),
        None,
    ]


def test_verify_round_rejects_honestly_committed_non_canonical_encodings(planted):
    inst, wit = planted
    rng = random.Random(61)
    honest = prover_commit(inst, wit, rng)
    z1, z2, seed = honest.values
    com = honest.commitment
    assert all(verify_round(inst, com, ch, prover_respond(honest, ch)) for ch in CHALLENGES)
    for bad1, bad2 in zip(non_canonical_encodings(z1), non_canonical_encodings(z2)):
        if not isinstance(bad1, bytes):  # only bytes can be committed; the slot check refuses the rest
            assert not slot_opens(inst, com, Z1, bad1, honest.openings[Z1])
            assert not slot_opens(inst, com, Z2, bad2, honest.openings[Z2])
            continue
        # the forged value beside an honest one, and a pair forged alike
        for pair, challenges in (((bad1, z2), (0, 2)), ((z1, bad2), (1, 2)), ((bad1, bad2), CHALLENGES)):
            state = commit_round(*pair, seed, rng)
            for ch in challenges:
                assert not verify_round(inst, state.commitment, ch, prover_respond(state, ch))


def _outcome(unmasker, z, seed, n):
    try:
        return unmasker(z, seed, n)
    except ValueError:
        return ValueError


def assert_unmask_matches_the_reference(z, seed, n):
    """unmask of the words z, packed at degree n, raises ValueError exactly
    when the validating constructor does on the reference's unmasked words
    (masked_words, which refuses a count other than n), and otherwise
    returns an equal Permutation."""
    expected = _outcome(lambda z, seed, n: Permutation(masked_words(z, seed, n)), z, seed, n)
    got = _outcome(unmask, pack_words(z, word_width(n)), seed, n)
    assert got == expected
    if expected is not ValueError:
        assert type(got) is Permutation and type(got.images) is tuple


@pytest.mark.parametrize("n", [1, 2, 5, 16, 128, 257])
def test_unmask_matches_the_validating_constructor(n):
    seed = random.Random(n).randbytes(32)
    top = (1 << (8 * word_width(n))) - 1
    below = tuple(range(n - 1))
    hidden = [
        tuple(range(n)),  # a permutation
        (*below, n),  # the value n, every word distinct
        (*below, top),  # the top word of the width, every word distinct
        (*below, n - 2) if n > 1 else (1,),  # a duplicate (or, at n = 1, the value n)
        tuple(reversed(range(n))),
    ]
    for words in hidden:
        z = masked_words(words, seed, n)
        assert_unmask_matches_the_reference(z, seed, n)
        assert_unmask_matches_the_reference(z[:-1], seed, n)  # wrong lengths
        assert_unmask_matches_the_reference(z + (0,), seed, n)
        # a value cannot hold a word wider than its width; what stands in
        # for one is a value of another length (one that is not bytes has
        # no wire form; test_verify_round_rejects_honestly_committed_non_canonical_encodings
        # checks that slot_opens refuses it)
        for bad in non_canonical_encodings(pack_words(z, word_width(n))):
            if isinstance(bad, bytes):
                assert _outcome(unmask, bad, seed, n) is ValueError


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unmask_matches_the_validating_constructor_on_arbitrary_words(data):
    n = data.draw(st.integers(1, 8))
    seed = data.draw(st.binary(min_size=32, max_size=32))
    word = st.one_of(st.integers(0, n), st.sampled_from((255, 128)))
    words = tuple(data.draw(st.lists(word, min_size=n - 1, max_size=n + 1)))
    z = masked_words(words, seed, len(words))  # at most 9 words, one byte each
    assert_unmask_matches_the_reference(z, seed, n)


@pytest.mark.parametrize("preset, gens, k, instance_seed", [
    ("abelian2", 5, 4, 71),
    ("general", 4, 6, 70),  # a certified S_16
])
def test_masked_round_and_read_round_match_their_definitions(preset, gens, k, instance_seed):
    inst, wit = plant_instance(16, gens, k, random.Random(instance_seed), preset=preset)
    assert (inst.group.giant == "S_n") == (preset == "general")
    n, g, ops = inst.degree, inst.target.images, inst.group.ops
    rng = random.Random(62)
    # the witness, a member of H, and a permutation that is almost surely in neither
    for x in (wit.element.images, ops.decode(inst.group.sample_uniform(rng)), random_perm(n, rng).images):
        u = ops.decode(inst.group.sample_uniform(rng))
        seed = rng.randbytes(SEED_BYTES)
        state = masked_round(inst, ops.encode(u), ops.encode(x), seed, rng.randbytes(3 * OPENING_BYTES))
        assert state.values[SEED] == seed
        assert state.values[Z1] == masked_value(compose_images(u, x), seed, n)
        assert state.values[Z2] == masked_value(compose_images(u, g), seed, n)
        shown = [read_round(inst, state.commitment, ch, prover_respond(state, ch)) for ch in CHALLENGES]
        ux, distance = Permutation(compose_images(u, x)), hamming(Permutation(x), inst.target)
        assert shown[0] == (ops.encode(ux.images) if inst.group.contains(ux) else None)
        assert shown[1] == ops.encode(u)
        assert ops.differing_words(state.values[Z1], state.values[Z2]) == distance
        assert shown[2] == (distance if distance <= k else None)


def test_verify_round_is_total_on_non_messages(planted, honest_state):
    inst, _ = planted
    state, com = honest_state
    digests = (com[:32], com[32:64], com[64:])
    for ch in CHALLENGES:
        rsp = prover_respond(state, ch)
        assert verify_round(inst, com, ch, rsp)
        for bad in (
            None, "response", b"", 0, reference_read_response(rsp, 0, inst.degree)[0], bytearray(rsp), memoryview(rsp),
            rsp.decode("latin-1"),
        ):
            assert verify_round(inst, com, ch, bad) is False
        for bad_com in (None, "commitment", digests, tuple(com), com[:-1], com + b"\x00", bytearray(com), memoryview(com)):
            assert verify_round(inst, bad_com, ch, rsp) is False


def test_fs_verify_is_total_on_non_proofs(planted):
    inst, wit = planted
    proof = fs_prove(inst, wit, 3, b"", random.Random(71))
    assert fs_verify_bytes(inst, encode_proof(proof), b"", 3)
    for bad in (
        None,
        "proof",
        proof,
        (proof.commitments, proof.responses),
        NIZKProof(proof.commitments, (None,) * 3),
        NIZKProof(proof.commitments, ("response",) * 3),
        NIZKProof((None,) * 3, proof.responses),
        NIZKProof((0,) * 3, proof.responses),
        NIZKProof(None, None),
    ):
        assert fs_verify_bytes(inst, bad, b"", 3) is False


def test_proving_verifying_and_decoding_share_one_round_cap(planted, monkeypatch):
    inst, wit = planted
    proof = fs_prove(inst, wit, 4, b"", random.Random(72))
    data = encode_proof(proof)
    assert fs_verify_bytes(inst, data, b"", 4)
    monkeypatch.setattr(sdzkp.protocol, "_MAX_ROUNDS", 3)
    rng = random.Random(73)
    before = rng.getstate()
    with pytest.raises(ValueError, match="unreasonable round count 4"):
        fs_prove(inst, wit, 4, b"", rng)
    assert rng.getstate() == before  # refused before a single commitment
    assert fs_verify_bytes(inst, data, b"", 4) is False
    with pytest.raises(ValueError, match="unreasonable round count 4"):
        _split_proof(data, inst.degree)
    with pytest.raises(ValueError, match="unreasonable round count 4"):
        encode_proof(proof)
    at_cap = fs_prove(inst, wit, 3, b"", rng)
    assert fs_verify_bytes(inst, encode_proof(at_cap), b"", 3)


def test_encode_proof_writes_only_proofs_that_decode_proof_reads(planted):
    inst, wit = planted
    proof = fs_prove(inst, wit, 5, b"", random.Random(74))
    assert reference_read_proof(encode_proof(proof), inst.degree) == list(zip(*proof))
    for bad in (
        NIZKProof(proof.commitments, proof.responses[:3]),
        NIZKProof(proof.commitments[:3], proof.responses),
        NIZKProof((), ()),
    ):
        with pytest.raises(ValueError):
            encode_proof(bad)


@pytest.mark.parametrize("rounds", [218, 220])
def test_fs_verify_requires_its_own_round_count(planted, rounds):
    # The verifier sets the soundness error: a proof one round short of the
    # default, or one round over it, is refused there and accepted only at
    # its own count.
    inst, wit = planted
    data = encode_proof(fs_prove(inst, wit, rounds, b"", random.Random(rounds)))
    assert fs_verify_bytes(inst, data, b"") is False
    assert fs_verify_bytes(inst, data, b"", 219) is False
    assert fs_verify_bytes(inst, data, b"", rounds)


def test_fs_verify_refuses_a_round_count_no_proof_holds(planted, monkeypatch):
    # None, 0, a negative count and one past the cap set no soundness error:
    # each is refused before the proof is walked, so an honest one-round
    # proof (soundness error 2/3) does not pass for want of a count
    inst, wit = planted
    data = encode_proof(fs_prove(inst, wit, 1, b"", random.Random(75)))
    assert fs_verify_bytes(inst, data, b"", 1)
    bad_counts = (None, 0, -1, sdzkp.protocol._MAX_ROUNDS + 1)
    for rounds in bad_counts:
        assert fs_verify_bytes(inst, data, b"", rounds) is False
    walks = []
    monkeypatch.setattr(sdzkp.protocol, "_split_proof", lambda *args: walks.append(args))
    for rounds in bad_counts:
        assert fs_verify_bytes(inst, data, b"", rounds) is False
    assert walks == []


def test_verifier_challenge_range_and_distribution():
    rng = random.Random(60)
    counts = [0, 0, 0]
    for _ in range(9000):
        ch = verifier_challenge(rng)
        counts[ch] += 1
    assert all(2700 < c < 3300 for c in counts)
    assert verifier_challenge(random.Random(7)) == verifier_challenge(random.Random(7))


@pytest.mark.parametrize("n", [1, 2, 6, 7, 32, 33, 256, 257])
def test_the_degree_is_the_input_of_a_responses_layout(n):
    # up to n = 32 the kind 0 and 1 responses are at least as long as kind 2;
    # 256/257 is the byte-table boundary, where a word goes from 1 byte to 4.
    # A response is read by its layout at n alone (_response_layout): at
    # n - 1 or n + 1 its length is wrong, and any bytes of a value's length
    # lie in place, so only verify_round refuses a value that is not what
    # the round claims.
    inst, rng = _trivial_instance(n), random.Random(n)
    seed = rng.randbytes(SEED_BYTES)
    images = pack_words(range(n), word_width(n))
    z1, z2 = mask_values(seed, images, images)
    honest = commit_round(z1, z2, seed, rng)
    for ch in CHALLENGES:
        data = prover_respond(honest, ch)
        end, parts = _response_layout(ch, n)
        assert end == len(data) and [slot for slot, _, _ in parts] == list(OPENS[ch])
        for slot, value, opening in parts:
            assert (data[value], data[opening]) == (honest.values[slot], honest.openings[slot])
        assert verify_round(inst, honest.commitment, ch, data)
        for other in (n - 1, n + 1):
            assert _response_layout(ch, other)[0] != len(data)
        # both values' first image moved by one bit: no longer a permutation,
        # and the two still agree, at distance 0
        moved = commit_round(bytes([z1[0] ^ 1]) + z1[1:], bytes([z2[0] ^ 1]) + z2[1:], seed, rng)
        wrong = prover_respond(moved, ch)
        assert len(wrong) == len(data)
        assert [wrong[value] for _, value, _ in parts] == [moved.values[slot] for slot in OPENS[ch]]
        assert verify_round(inst, moved.commitment, ch, wrong) is (ch == 2)


def test_a_proof_holds_each_round_as_its_prover_state_emits_it(planted):
    # encode_proof only joins: round i is state i's commitment, then its response to challenge i
    inst, wit = planted
    states = list(honest_rounds(inst, wit, 12, random.Random(74)))
    data = encode_proof(fs_prove(inst, wit, 12, b"ctx", random.Random(74)))
    commitments = [state.commitment for state in states]
    offset = 8
    for state, ch in zip(states, derive_challenges(instance_digest(inst), b"ctx", commitments)):
        response = prover_respond(state, ch)
        assert data[offset : offset + COMMITMENT_BYTES] == state.commitment
        offset += COMMITMENT_BYTES
        assert data[offset : offset + len(response)] == response
        offset += len(response)
    assert offset == len(data)


def test_fs_round_trip(planted):
    inst, wit = planted
    rng = random.Random(63)
    proof = fs_prove(inst, wit, 40, b"ctx", rng)
    assert proof.rounds == 40
    assert fs_verify_bytes(inst, encode_proof(proof), b"ctx", 40)
    assert not fs_verify_bytes(inst, encode_proof(proof), b"other-ctx", 40)


def test_proof_in_any_byte_buffer_verifies(planted):
    inst, wit = planted
    data = encode_proof(fs_prove(inst, wit, 8, b"", random.Random(66)))
    for buffer in (bytearray(data), memoryview(data), memoryview(bytearray(data))):
        assert _split_proof(buffer, inst.degree) == _split_proof(data, inst.degree)
        assert fs_verify_bytes(inst, buffer, b"", 8)
    # not buffers: refused at once (bytes(10**9) would allocate a gigabyte)
    for bad in (10**9, data.decode("latin-1"), None):
        t0 = time.monotonic()
        assert fs_verify_bytes(inst, bad, b"", 8) is False
        with pytest.raises(TypeError):
            _split_proof(bad, inst.degree)
        assert time.monotonic() - t0 < 1.0


def test_fs_single_byte_flips_reject(planted):
    """A flip is refused unless it lies in the digest of a slot its round
    leaves unopened and the challenges derived over the flipped commitments
    are the proof's own: such a digest is checked through the challenges
    alone, so each such flip passes with probability 3^-6 here.  The 200
    seeded flips are checked against that rule, and then the first flip, in
    a fixed order, that keeps the challenges must be accepted."""
    inst, wit = planted
    rng = random.Random(65)
    proof = fs_prove(inst, wit, 6, b"ctx", rng)
    data = bytearray(encode_proof(proof))
    statement = instance_digest(inst)
    challenges = derive_challenges(statement, b"ctx", proof.commitments)
    unopened, at = [], 8
    for commitment, response, ch in zip(proof.commitments, proof.responses, challenges):
        (slot,) = {Z1, Z2, SEED} - set(OPENS[ch])
        unopened.extend(range(at + 32 * slot, at + 32 * slot + 32))
        at += len(commitment) + len(response)

    def keeps_challenges():
        commitments = [commitment for commitment, _ in reference_read_proof(bytes(data), inst.degree)]
        return derive_challenges(statement, b"ctx", commitments) == challenges

    for _ in range(200):
        pos = rng.randrange(len(data))
        old = data[pos]
        data[pos] ^= 1 + rng.randrange(255)
        expected = pos in unopened and keeps_challenges()
        assert fs_verify_bytes(inst, bytes(data), b"ctx", 6) is expected
        data[pos] = old
    # sanity: restored bytes still verify
    assert fs_verify_bytes(inst, bytes(data), b"ctx", 6)
    for pos, flip in product(unopened, range(1, 256)):
        data[pos] ^= flip
        if keeps_challenges():
            break
        data[pos] ^= flip
    else:
        raise AssertionError("no flip of an unopened digest keeps the challenges")
    assert fs_verify_bytes(inst, bytes(data), b"ctx", 6)


def test_fs_challenges_deterministic(planted):
    inst, wit = planted
    rng = random.Random(66)
    proof = fs_prove(inst, wit, 10, b"ctx", rng)
    c1 = derive_challenges(instance_digest(inst), b"ctx", proof.commitments)
    c2 = derive_challenges(instance_digest(inst), b"ctx", proof.commitments)
    assert c1 == c2
    assert all(ch in CHALLENGES for ch in c1)
    c3 = derive_challenges(instance_digest(inst), b"different", proof.commitments)
    assert c1 != c3 or len(c1) < 4  # 10 rounds virtually never collide
    # a commitment one byte short is no round's
    with pytest.raises(ValueError, match="95 bytes are not the commitments of 1 rounds"):
        derive_challenges(instance_digest(inst), b"ctx", [proof.commitments[0][:-1]])


def test_fs_challenge_distribution(planted):
    inst, wit = planted
    rng = random.Random(67)
    counts = [0, 0, 0]
    proof = fs_prove(inst, wit, 600, b"", rng)
    for ch in derive_challenges(instance_digest(inst), b"", proof.commitments):
        counts[ch] += 1
    assert all(140 < c < 260 for c in counts)


def test_derive_challenges_matches_the_plain_reference_on_both_rejections():
    """derive_challenges reads the stream's first `rounds` bytes, and a longer
    prefix of it only while they hold too few bytes that are not 255.
    Contexts are searched in a fixed order until each case below holds: at
    219 rounds, a first read with no 255 (enough) and one with a 255 (read
    again); at one round, a stream behind ff (read again) and behind ff ff
    (the second read is short too)."""
    statement = bytes(32)
    cases = {
        "219 rounds, no 255 in the first read": (219, lambda stream: 255 not in stream[:219]),
        "219 rounds, a 255 in the first read": (219, lambda stream: 255 in stream[:219]),
        "one round behind ff": (1, lambda stream: stream[0] == 255 != stream[1]),
        "one round behind ff ff": (1, lambda stream: stream[:2] == b"\xff\xff"),
    }
    for what, (rounds, holds) in cases.items():
        commitments = [bytes(COMMITMENT_BYTES)] * rounds
        for c in count():
            assert c < 1 << 20, f"no context gives {what}"
            context = b"ctx%d" % c
            if holds(hashlib.shake_256(fs_prefix(statement, context, commitments)).digest(rounds + 1)):
                break
        assert derive_challenges(statement, context, commitments) == reference_challenges(statement, context, commitments)


def test_opens_reads_each_slot_as_commit_round_writes_it(planted):
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(69))
    for slot in (Z1, Z2, SEED):
        for other in (Z1, Z2, SEED):
            assert opens(state.commitment, other, state.openings[slot], state.values[slot]) is (other == slot)


def test_slot_opens_accepts_only_the_committed_slot(planted):
    """slot_opens is True only for a slot's own value and opening under the
    round's commitment as committed; every other slot, 1.0 (equal to Z2
    but no index) among them, a non-bytes part, and a commitment or
    opening one byte short or long is False, never an exception."""
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(70))
    com, values, openings = state.commitment, state.values, state.openings
    for slot in (Z1, Z2, SEED):
        value, opening = values[slot], openings[slot]
        assert slot_opens(inst, com, slot, value, opening) is True
        for other in (3, -1, "C1", b"C1", None, 1.5, 1.0, *({Z1, Z2, SEED} - {slot})):
            assert slot_opens(inst, com, other, value, opening) is False
        for form in (bytearray, memoryview):
            assert slot_opens(inst, form(com), slot, value, opening) is False
            assert slot_opens(inst, com, slot, form(value), opening) is False
            assert slot_opens(inst, com, slot, value, form(opening)) is False
        # a longer buffer would hold the slot's digest where a commitment does
        for bad in (com[:-1], com + b"\x00", None, com.decode("latin-1")):
            assert slot_opens(inst, bad, slot, value, opening) is False
        for bad in (opening[:-1], opening + b"\x00"):
            assert slot_opens(inst, com, slot, value, bad) is False


@pytest.mark.parametrize("n", [5, 256, 257, 260])
def test_every_byte_string_of_a_slots_length_is_its_value(n):
    """At both widths a masked value is w·n bytes of any content and the
    seed 32: committed, every byte string of its slot's length opens, and
    every other length is refused, the other width's length among them."""
    inst, rng = _symmetric_instance(n), random.Random(n)
    for slot in (Z1, Z2, SEED):
        size = slot_size(slot, n)
        assert size == (32 if slot == SEED else word_width(n) * n)
        for value in (bytes(size), b"\xff" * size, rng.randbytes(size)):
            commitment, opening = commit_slot(value, COMMIT_TAGS[slot], rng)
            assert slot_opens(inst, commitment, slot, value, opening) is True
        for length in sorted({0, 1, size - 1, size + 1, n, 4 * n, 4 * n + 4} - {size}):
            value = rng.randbytes(length)
            commitment, opening = commit_slot(value, COMMIT_TAGS[slot], rng)
            assert slot_opens(inst, commitment, slot, value, opening) is False


def test_a_proof_with_the_old_magic_is_refused(planted):
    # SDP1 proofs masked tuples with a count prefix, SDP2 proofs derived each
    # round's challenge from its own SHAKE-256 read and SDP3 proofs committed
    # with SHA3-256; this format's magic is SDP4
    inst, wit = planted
    data = encode_proof(fs_prove(inst, wit, 4, b"", random.Random(71)))
    assert data[:4] == b"SDP4" and fs_verify_bytes(inst, data, b"", 4)
    for magic in (b"SDP1", b"SDP2", b"SDP3"):
        old = magic + data[4:]
        assert fs_verify_bytes(inst, old, b"", 4) is False
        with pytest.raises(ValueError):
            _split_proof(old, inst.degree)


def test_proof_codec_rejects_malformed(planted):
    inst, wit = planted
    rng = random.Random(68)
    data = encode_proof(fs_prove(inst, wit, 3, b"", rng))
    for bad in (data[:-1], data + b"\x00", b"NOPE" + data[4:], b""):
        with pytest.raises(ValueError):
            _split_proof(bad, inst.degree)
    assert not fs_verify_bytes(inst, data[:-1], b"", 3)


def test_masked_values_hide_witness(planted):
    # the same witness masked twice yields unrelated-looking tuples
    inst, wit = planted
    rng = random.Random(69)
    s1 = prover_commit(inst, wit, rng)
    s2 = prover_commit(inst, wit, rng)
    assert s1.values[Z1] != s2.values[Z1]
    assert s1.values[Z2] != s2.values[Z2]


def _transport(inst, points):
    """An element of H that maps each of points as the target does, or None.
    The chain's base starts with points, so sifting the target through those
    levels leaves a residue r that fixes them, and g∘r^-1 lies in H."""
    ops, g = inst.group.ops, inst.target_tables[0]
    builder = _ChainBuilder(ops)
    builder.levels = [_Level(p) for p in points]
    levels = builder.run([ops.encode(gen.images) for gen in _normalize(inst.generators)[1]])
    residue, stop = _sift(levels[: len(points)], ops.then, g)
    return None if stop < len(points) else Permutation(ops.decode(ops.then(ops.inv(residue), g)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: a challenge-2 opening reveals D")
def test_a_challenge_2_opening_gives_no_witness():
    """Z1 and Z2 agree exactly where u∘h and u∘g do, that is off D = {i :
    h(i) != g(i)}, and any h' in H that agrees with g off D is a witness.
    Once an opening hides D, the agreeing points are a uniform (n - k)-set,
    on which an element of H agrees with g with negligible probability."""
    rng = random.Random(90)
    recovered = 0
    for _ in range(20):
        inst, wit = plant_instance(64, 16, 16, rng, preset="abelian2")
        proof = fs_prove(inst, wit, 219, b"ctx", rng)
        responses = (reference_read_response(r, 0, inst.degree)[0] for r in proof.responses)
        z1, z2 = next(values for kind, values, _ in responses if kind == 2)
        agree = [i for i, (a, b) in enumerate(zip(z1, z2)) if a == b]  # a byte a word at degree 64
        found = _transport(inst, agree)
        recovered += found is not None and validate_witness(inst, found)
    assert recovered == 0


# SHA-256 of a 219-round proof with fixed coins, pinned so that any change to
# the commitment order, the response layout or the rng schedule shows up.
@pytest.mark.parametrize("n, gens, k, digest", [
    (16, 4, 6, "a48274f1fc138b0446dcaa573aeaf7d274d879c142da49f7fee3e26532cc462c"),  # H = A_16
    (12, 3, 4, "8ee864cc57c1dbc657ca7a5de3c3e593084bef9bc4853a2bd280b7876484b995"),  # H = S_12
    # while a masked value is under 32 bytes the kind 0 and 1 responses are the longest
    (5, 2, 2, "d0f6e91825c32f18e087a4074a1f1c1757d3299ff4a56d220da3fe032d34a2fc"),
    # the shape of the nizk-n128-giant benchmark workload
    (128, 3, 32, "dcb2a992af8f175367876277be1191deecda7d92df60fe7a4603d77200d26eef"),  # H = S_128
    # past the byte-table limit: group elements are image tuples
    (260, 3, 65, "7566fd33210fe6110c370ac566b04ddf750d423ff083cf1e5e121c2d61b02b74"),  # H = A_260
])
def test_fs_proof_bytes_are_pinned(n, gens, k, digest):
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset="general")
    data = encode_proof(fs_prove(inst, wit, 219, b"ctx", random.Random(7)))
    assert hashlib.sha256(data).hexdigest() == digest


def test_fs_proof_bytes_are_pinned_on_a_tuple_chain():
    # an 8-level stabilizer chain past the byte-table limit, so sampling and
    # membership sift on image tuples
    inst, wit = plant_instance(260, 8, 64, random.Random(260), preset="abelian2")
    assert inst.group.giant == "no" and len(inst.group.base) == 8
    data = encode_proof(fs_prove(inst, wit, 219, b"ctx", random.Random(7)))
    assert hashlib.sha256(data).hexdigest() == "e1737f3813e09844badcae35c646b03628033c093a27173fce0db85c7cae4967"


_bytes32 = st.binary(min_size=32, max_size=32)
_bytes96 = st.binary(min_size=COMMITMENT_BYTES, max_size=COMMITMENT_BYTES)


@st.composite
def _prover_states(draw):
    """A coin tape with arbitrary contents at an arbitrary small degree."""
    n = draw(st.integers(1, 40))
    masked = st.binary(min_size=slot_size(Z1, n), max_size=slot_size(Z1, n))
    return n, ProverState(
        values=(draw(masked), draw(masked), draw(_bytes32)),
        openings=(draw(_bytes32), draw(_bytes32), draw(_bytes32)),
        commitment=draw(_bytes96),
    )


@settings(max_examples=40, deadline=None)
@given(_prover_states())
def test_response_codec_round_trips_and_meets_the_cap(drawn):
    n, state = drawn
    lengths = []
    for ch in CHALLENGES:
        data, slots = prover_respond(state, ch), OPENS[ch]
        opened = (ch, tuple(state.values[i] for i in slots), tuple(state.openings[i] for i in slots))
        assert reference_read_response(data, 0, n) == (opened, len(data))
        lengths.append(len(data))
    assert max(lengths) == max_response_bytes(n)


@pytest.fixture(scope="module")
def honest_state(planted):
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(70))
    return state, state.commitment


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decoder_and_verifier_are_total_on_arbitrary_bytes(planted, honest_state, data):
    inst, _ = planted
    state, com = honest_state
    raw = bytearray(prover_respond(state, data.draw(st.sampled_from(CHALLENGES))))
    for pos, flip in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), max_size=3)):
        raw[pos] ^= flip
    end = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))
    raw = data.draw(st.one_of(st.just(bytes(raw[:end])), st.binary(max_size=300)))
    raw += data.draw(st.binary(max_size=4))
    for ch in CHALLENGES:
        assert verify_round(inst, com, ch, raw) is (raw == prover_respond(state, ch))


@cache
def _honest_proof(n):
    """A 4-round honest proof under context b"ctx" at degree n, with its instance."""
    gens, k = {5: (2, 2), 16: (4, 6), 260: (3, 65)}[n]
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset="general")
    return inst, encode_proof(fs_prove(inst, wit, 4, b"ctx", random.Random(n + 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_proof_walk_and_the_reference_parser_agree(data):
    """_split_proof is the walk fs_verify_bytes makes, the reference parser
    reads by README's layout in plain loops.  On an honest proof with up to
    3 byte flips, a cut or appended bytes, the walk either refuses it, and
    then fs_verify_bytes does too, or splits it into rounds that
    encode_proof joins back to the same bytes; where the reference parser
    also reads it, the two give the same rounds."""
    n = data.draw(st.sampled_from((5, 16, 260)))
    inst, proof = _honest_proof(n)
    raw = bytearray(proof)
    mutation = data.draw(st.sampled_from(("flips", "cut", "append")))
    if mutation == "flips":
        for pos, flip in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), max_size=3)):
            raw[pos] ^= flip
    elif mutation == "cut":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=8))
    raw = bytes(raw)
    try:
        commitments, responses = _split_proof(raw, n)
    except ValueError:
        assert fs_verify_bytes(inst, raw, b"ctx", 4) is False
        return
    assert encode_proof(NIZKProof(tuple(commitments), tuple(responses))) == raw
    try:
        reference = reference_read_proof(raw, n)
    except ValueError:
        return
    assert reference == list(zip(commitments, responses))


def test_every_prefix_and_one_byte_extension_of_a_proof_is_refused():
    # The proof walk is total at every boundary: a cut anywhere, exactly
    # where a round's kind byte would start included, or one more byte of
    # any value, is False and never an exception.
    inst, wit = plant_instance(5, 2, 2, random.Random(5), preset="general")
    data = encode_proof(fs_prove(inst, wit, 3, b"", random.Random(6)))
    assert fs_verify_bytes(inst, data, b"", 3)
    for cut in range(len(data)):
        assert fs_verify_bytes(inst, data[:cut], b"", 3) is False
    for byte in range(256):
        assert fs_verify_bytes(inst, data + bytes((byte,)), b"", 3) is False


def test_read_round_is_total_on_every_challenge_and_kind_byte(planted, honest_state):
    # Any int challenge against any kind byte in front of each honest
    # response's body: only the honest pair shows anything, and nothing raises.
    inst, _ = planted
    state, com = honest_state
    for ch in CHALLENGES:
        body = prover_respond(state, ch)[1:]
        for kind in range(256):
            response = bytes((kind,)) + body
            for challenge in range(-1, 257):
                shown = read_round(inst, com, challenge, response)
                assert (shown is not None) is (challenge == kind == ch)
