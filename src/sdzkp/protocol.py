"""The three-round proof of knowledge of a close subgroup element.

One round: the prover picks a uniform shuffle u from H and a mask seed s,
and commits to three values, its slots: 0 is Z1 = oneline(u∘h) + mask,
1 is Z2 = oneline(u∘g) + mask, 2 is s, where + adds words in GF(2^8w),
which is XOR (crypto).  Slot i is committed under tag
crypto.COMMIT_TAGS[i] as digest i of the round's 96-byte commitment,
which commitment_digests alone reads.  The verifier sends a challenge in
{0, 1, 2}, and the opening table OPENS says which slots the answer
reveals, in wire order:

  challenge  opens     the verifier checks the openings, then
  0          Z1, s     unmasking Z1 must give an element of H (this is u∘h)
  1          Z2, s     unmasking Z2 must give w with w∘g^-1 in H (w is u∘g)
  2          Z1, Z2    they must differ in at most max_distance words

Every value is its own committed message and wire form, slot_size long;
every byte string of that length is a value, so its length is its only
form check.  The prover, the verifier's checks and the response codecs
all follow OPENS; only the final predicate above is written per
challenge, once each: membership at 0 and 1 in _member, distance at 2 in
_shown.

A round works on the group's raw elements (group.make_ops) and has one
form, its wire bytes: a ProverState's commitment is the 96 bytes, and
prover_respond, the one way to answer a round, returns the encoded
response.  An honest round's coins are drawn here, in the order
_round_coins states; crypto only hashes and masks bytes.
_response_layout is the one statement of where a response's parts lie,
_write_response its one writer and read_round the one reader of a round.

A single round convinces the verifier with soundness error 2/3; sequential
repetition amplifies.  The non-interactive variant derives every challenge
from one SHAKE-256 stream over the statement, a context string, and all
round commitments (derive_challenges), so fs_prove builds its rounds a
layer at a time; sessions and the analysis harness take rounds one at a
time from honest_rounds.

This module holds the round and the proof only.  A session over TCP, its
frame types included, is net's; transcripts, rewinding and simulation are
analysis's.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter
from random import Random
from typing import Iterator, NamedTuple, Sequence

from .crypto import (
    DIGEST_BYTES, OPENING_BYTES, SEED_BYTES, both_open, commit, mask_rounds, mask_values, opens,
)
from .group import word_width
from .instance import SDPInstance, Witness, instance_digest, validate_witness

Z1, Z2, SEED = 0, 1, 2
SLOTS = (Z1, Z2, SEED)

OPENS = {0: (Z1, SEED), 1: (Z2, SEED), 2: (Z1, Z2)}

CHALLENGES = tuple(OPENS)

# Each challenge opens two slots, so each getter returns a pair.
_OPENED = {challenge: itemgetter(*slots) for challenge, slots in OPENS.items()}
_KIND_BYTES = tuple(bytes((kind,)) for kind in CHALLENGES)

COMMITMENT_BYTES = 3 * DIGEST_BYTES

# The one statement of the commitment's layout: the digests of slots Z1, Z2
# and SEED, in that order, slot i's at bytes [32i, 32i+32) of the commitment.
commitment_digests = itemgetter(*(slice(i * DIGEST_BYTES, (i + 1) * DIGEST_BYTES) for i in SLOTS))

PROOF_MAGIC = b"SDP4"
_PROOF_HEADER_BYTES = 8  # the magic, then a u32 round count
_MAX_ROUNDS = 1 << 20

# The default round count: the least t with (2/3)^t <= 2^-128, that is
# t * log2(3/2) >= 128.
ROUNDS = 219

_FS_DOMAIN = b"SDZKP-FS-v4"
# Each stream byte's challenge, byte % 3; derive_challenges deletes 255.
_CHALLENGE_OF_BYTE = bytes(b % 3 for b in range(256))


def slot_size(slot: int, n: int) -> int:
    """Encoded length of a slot's value at degree n: w·n for a masked value
    of n words of w = group.word_width(n) bytes.  A value is canonical at
    degree n iff it is a bytes object of this length."""
    return SEED_BYTES if slot == SEED else word_width(n) * n


class ProverState(NamedTuple):
    """Frozen per-round coin tape: prover_respond(state, ch) is a pure
    function of it, so any challenge can be answered, in any order and more
    than once.
    values and openings hold one entry per slot (Z1, Z2, seed); commitment
    is the round's 96 bytes, slot i's digest at [32i, 32i+32)."""

    values: tuple[bytes, bytes, bytes]
    openings: tuple[bytes, bytes, bytes]
    commitment: bytes


class NIZKProof(NamedTuple):
    """Each round's 96-byte commitment and encoded response."""

    commitments: tuple[bytes, ...]
    responses: tuple[bytes, ...]

    @property
    def rounds(self) -> int:
        return len(self.commitments)


def require_positive(count: int, what: str = "round") -> None:
    """Refuse a count below 1: a zero-round session would accept without a
    single check, and a rate over zero trials divides by zero."""
    if count < 1:
        raise ValueError(f"need at least one {what}")


def _proof_rounds(rounds: int) -> int:
    if not 1 <= rounds <= _MAX_ROUNDS:  # one cap, so that the proof walk reads every proof made
        raise ValueError(f"unreasonable round count {rounds}")
    return rounds


# A round's one coin read after u: the seed, then the three openings.
_ROUND_COIN_BYTES = SEED_BYTES + 3 * OPENING_BYTES


def _round_coins(inst: SDPInstance, rng: Random) -> tuple:
    """A round's coins (u, seed, openings), the one statement of their
    order: u uniform in H, in the raw form of inst.group.ops
    (BSGS.sample_uniform), then one getrandbits(1024) read split at 32
    bytes into the seed and the three openings.  The read is
    rng.randbytes(128) less that call's Python frame, and CPython fills
    getrandbits(k > 32) from its least significant 32-bit word up, so on
    random.Random it gives the bytes, and leaves the state, of
    rng.randbytes(SEED_BYTES) then rng.randbytes(3 * OPENING_BYTES), the
    two draws with which commit_round and the analysis provers take the
    same coins."""
    u = inst.group.sample_uniform(rng)
    coins = rng.getrandbits(8 * _ROUND_COIN_BYTES).to_bytes(_ROUND_COIN_BYTES, "little")
    return u, coins[:SEED_BYTES], coins[SEED_BYTES:]


def commit_round(z1: bytes, z2: bytes, seed: bytes, rng: Random) -> ProverState:
    """The round whose slots hold the masked pair and the seed, committed by
    one crypto.commit call under rng.randbytes(3 * OPENING_BYTES); the
    analysis harness's noisy cheater and the tests commit chosen slots with
    it."""
    return ProverState((z1, z2, seed), *commit(z1, z2, seed, rng.randbytes(3 * OPENING_BYTES)))


def masked_round(inst: SDPInstance, u, x, seed: bytes, openings: bytes) -> ProverState:
    """Commit to Z1 = oneline(u∘x) + mask and Z2 = oneline(u∘g) + mask under
    one seed, and the three slots under the 96 bytes of openings: the round
    of every prover that claims x, honest (x = h) or not.  u and x are in
    the raw form of inst.group.ops, and seed is a 32-byte coin, so
    crypto.mask_values masks each product's n words from one read with
    nothing to re-check, and one crypto.commit call commits the slots."""
    ops = inst.group.ops
    z1, z2 = mask_values(seed, ops.words(ops.then(x, u)), ops.words(ops.then(inst.target_tables[0], u)))
    return ProverState((z1, z2, seed), *commit(z1, z2, seed, openings))


def prover_round(inst: SDPInstance, h, rng: Random) -> ProverState:
    """The honest round for a witness h in the raw form of inst.group.ops, on
    the coins _round_coins draws.  It does not check the witness;
    honest_rounds does."""
    u, seed, openings = _round_coins(inst, rng)
    return masked_round(inst, u, h, seed, openings)


def _shown(inst: SDPInstance, challenge: int, value: bytes, other: bytes):
    """What a round shows on the two values its challenge opens, in OPENS
    order (masked values taken at their slot's length), or None unless the
    challenge's predicate holds.  At 0 and 1 crypto.mask_values under the
    seed, which the slot's length makes 32 bytes, unmasks the one value,
    and _member judges its words.
    At 2, the count of words the values differ in (ops.differing_words), if
    at most max_distance, the distance predicate's one statement; it may be
    0, so callers test `is not None`."""
    if challenge == 2:
        distance = inst.group.ops.differing_words(value, other)
        return distance if distance <= inst.max_distance else None
    (words,) = mask_values(other, value)
    return _member(inst, challenge, words)


def _member(inst: SDPInstance, challenge: int, words: bytes):
    """The membership predicate of challenges 0 and 1, written here only, on
    an opened masked value's unmasked words: the raw element of
    inst.group.ops they read as (from_words), u∘h at 0 and composed with the
    cached raw g^-1 at 1 into u, if contains finds it in H, else None."""
    ops = inst.group.ops
    member = ops.from_words(words)
    if member is not None and challenge:
        member = ops.then(inst.target_tables[1], member)
    return member if member is not None and inst.group.contains(member) else None


def _honest_element(inst: SDPInstance, wit: Witness):
    """The honest prover's one refusal and one encoding: ValueError if the
    witness fails the statement (no round could be honest), else h in the
    raw form of inst.group.ops.  honest_rounds and fs_prove call it before
    they draw a coin."""
    if not validate_witness(inst, wit.element):
        raise ValueError("witness does not satisfy the statement")
    return inst.group.ops.encode(wit.element.images)


def honest_rounds(inst: SDPInstance, wit: Witness, rounds: int, rng: Random) -> Iterator[ProverState]:
    """The checked source of honest rounds one at a time, for sessions and
    the analysis harness.  Before any coin is drawn it refuses rounds < 1
    and a witness that fails the statement (_honest_element); then it
    returns a lazy iterator of `rounds` prover_round states, each drawn
    from rng only when taken."""
    require_positive(rounds)
    h = _honest_element(inst, wit)
    return map(prover_round, repeat(inst, rounds), repeat(h), repeat(rng))


def prover_commit(inst: SDPInstance, wit: Witness, rng: Random) -> ProverState:
    """First move of one checked honest round; the state's commitment is the
    message to send."""
    return next(honest_rounds(inst, wit, 1, rng))


def uniform_challenge(rng: Random) -> int:
    """Uniform draw from {0, 1, 2}, made with the getrandbits calls
    rng.randrange(3) makes, so seeded draws and the rng state after them
    match it exactly."""
    r = rng.getrandbits(2)
    while r == 3:
        r = rng.getrandbits(2)
    return r


def verifier_challenge(rng: Random) -> int:
    """Uniform challenge from {0, 1, 2}."""
    return uniform_challenge(rng)


def prover_respond(state: ProverState, challenge: int) -> bytes:
    """Third move, and the one way to answer a round: the encoded response
    that opens exactly what the challenge demands.  ValueError on a
    challenge outside OPENS."""
    if challenge not in OPENS:
        raise ValueError(f"challenge must be 0, 1 or 2, got {challenge!r}")
    return _write_response(challenge, state.values, state.openings)


def slot_opens(inst: SDPInstance, digest: bytes, slot: int, value: bytes, opening: bytes) -> bool:
    """The one check of one slot of a ProverState, for
    analysis.accepted_challenges: slot is Z1, Z2 or SEED, digest is bytes,
    value is bytes of slot_size's length at the instance's degree (its only
    form check), opening is OPENING_BYTES of bytes, and crypto.opens, the
    unchecked hash and compare, opens digest to value.  Total: returns
    False, never raises."""
    try:
        return (
            slot in SLOTS and isinstance(digest, bytes)
            and isinstance(value, bytes) and len(value) == slot_size(slot, inst.degree)
            and isinstance(opening, bytes) and len(opening) == OPENING_BYTES
            and opens(digest, slot, opening, value)
        )
    except TypeError:  # a slot equal to one of SLOTS that is no index (1.0)
        return False


def read_round(inst: SDPInstance, commitment: bytes, challenge: int, response: bytes):
    """What one round shows (_shown) if it verifies, else None, from its wire
    bytes, each bytes: the 96-byte commitment and the encoded response,
    whose kind byte must be the challenge and whose length _response_layout
    fixes, and so every value's and opening's; then both slots the
    challenge opens must open, checked by one crypto.both_open call on
    their digests, read through commitment_digests.  Total: None, never an
    exception."""
    try:
        if (
            challenge not in OPENS or not isinstance(commitment, bytes) or not isinstance(response, bytes)
            or len(commitment) != COMMITMENT_BYTES or not response or response[0] != challenge
        ):
            return None
        # each challenge opens two slots, laid out as (slot, value, opening)
        end, ((s, a, a_opening), (t, b, b_opening)) = _response_layout(challenge, inst.degree)
        if len(response) != end:
            return None
        digests, value, other = commitment_digests(commitment), response[a], response[b]
        if both_open(digests[s] + digests[t], s, response[a_opening], value, t, response[b_opening], other):
            return _shown(inst, challenge, value, other)
        return None
    except (ValueError, TypeError, struct.error):
        return None


def verify_round(inst: SDPInstance, commitment: bytes, challenge: int, response: bytes) -> bool:
    """Check one round on its wire bytes: whether read_round shows anything.
    Total on untrusted input: returns False, never raises."""
    return read_round(inst, commitment, challenge, response) is not None


# --- non-interactive variant ---

def derive_challenges(statement_digest: bytes, context: bytes, commitments: Sequence[bytes]) -> list[int]:
    """One hash-derived challenge per round, binding the statement, the
    context and all the rounds' 96-byte commitments: round i's challenge is
    the i-th byte that is not 255 of one SHAKE-256 stream over _FS_DOMAIN ‖
    u32 len(context) ‖ context ‖ statement digest ‖ commitments, mod 3.
    255 = 85 * 3, so dropping it leaves each residue exactly 85 of the 255
    byte values.  The stream's first `rounds` bytes are read, and a longer
    prefix of the same stream only while those hold too few.  ValueError
    unless the commitments hold COMMITMENT_BYTES per round."""
    rounds, joined = len(commitments), b"".join(commitments)
    if len(joined) != rounds * COMMITMENT_BYTES:
        raise ValueError(f"{len(joined)} bytes are not the commitments of {rounds} rounds")
    shake = hashlib.shake_256(_FS_DOMAIN + struct.pack("<I", len(context)) + context + statement_digest + joined)
    challenges, length = b"", rounds
    while len(challenges) < rounds:
        challenges = shake.digest(length).translate(_CHALLENGE_OF_BYTE, b"\xff")
        length *= 2
    return list(challenges[:rounds])


def fs_prove(inst: SDPInstance, wit: Witness, rounds: int, context: bytes, rng: Random) -> NIZKProof:
    """Non-interactive proof: commit to all rounds, derive challenges, respond.
    No challenge exists before every round is committed, so the rounds are
    built a layer at a time: after _proof_rounds and _honest_element refuse,
    every round's coins are drawn (_round_coins), the products' words of
    both slots of all rounds are masked by one crypto.mask_rounds call,
    each round is committed by one crypto.commit call, and each is answered
    from its values and openings by _write_response, the writer
    prover_respond calls.  The proof and the rng's end state are those of
    honest_rounds' states answered by prover_respond."""
    rounds = _proof_rounds(rounds)
    h, ops = _honest_element(inst, wit), inst.group.ops
    us, seeds, drawn = zip(*[_round_coins(inst, rng) for _ in range(rounds)])
    z1, z2 = mask_rounds(seeds, b"".join(map(ops.words, map(ops.then, repeat(h), us))),
                         b"".join(map(ops.words, map(ops.then, repeat(inst.target_tables[0]), us))))
    size = slot_size(Z1, inst.degree)
    ats = range(0, rounds * size, size)
    z1s, z2s = [z1[at : at + size] for at in ats], [z2[at : at + size] for at in ats]
    openings, commitments = zip(*map(commit, z1s, z2s, seeds, drawn))
    challenges = derive_challenges(instance_digest(inst), context, commitments)
    responses = tuple(map(_write_response, challenges, zip(z1s, z2s, seeds), openings))
    return NIZKProof(commitments=commitments, responses=responses)


def fs_verify_bytes(inst: SDPInstance, data: bytes, context: bytes, rounds: int = ROUNDS) -> bool:
    """Check a serialized non-interactive proof in place.  False on any
    malformed buffer or failing round, and unless the proof holds exactly
    `rounds` rounds: the verifier, not the prover, sets the soundness error,
    so a `rounds` that _proof_rounds refuses (None among them) is False
    before any byte is read, and the walk (_split_proof) checks the count
    before any round.  The challenges are derived from the commitments'
    slices of the buffer, and verify_round checks each round on its slices."""
    try:
        commitments, responses = _split_proof(data, inst.degree, _proof_rounds(rounds))
        challenges = derive_challenges(instance_digest(inst), context, commitments)
    except (ValueError, TypeError, struct.error):
        return False
    return all(map(verify_round, repeat(inst), commitments, challenges, responses))


def _split_proof(data: bytes, n: int, rounds: int | None = None) -> tuple[list[bytes], list[bytes]]:
    """The one proof walk: each round's commitment and response, as bytes
    (any other buffer is copied once; memoryview refuses an int or a str
    with TypeError).  The header's round count goes through _proof_rounds
    and must equal `rounds`, if given, before any round is read; a round is
    its commitment, then a response as long as its kind byte says at degree
    n (_response_layout).  ValueError on an unknown kind, and unless the
    last round ends where data does."""
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    if data[:4] != PROOF_MAGIC or len(data) < _PROOF_HEADER_BYTES:
        raise ValueError("bad proof header")
    count = _proof_rounds(int.from_bytes(data[4:_PROOF_HEADER_BYTES], "little"))
    if rounds is not None and count != rounds:
        raise ValueError(f"proof holds {count} rounds, not {rounds}")
    lengths = {kind: _response_layout(kind, n)[0] for kind in OPENS}
    commitments, responses, at, size = [], [], _PROOF_HEADER_BYTES, len(data)
    for _ in range(count):
        start, at = at, at + COMMITMENT_BYTES  # at the round's kind byte
        length = lengths.get(data[at]) if at < size else None
        if length is None:
            raise ValueError("truncated proof, or an unknown response kind")
        commitments.append(data[start:at])
        responses.append(data[at : at + length])
        at += length
    if at != size:
        raise ValueError("proof does not end where its last round does")
    return commitments, responses


# --- serialization ---

def _write_response(kind: int, values, openings) -> bytes:
    """The one response writer, unchecked: the kind byte, then the values and
    then the openings that _OPENED[kind] picks from a round's slots (each
    indexed by slot).  prover_respond and encode_response call it after
    their checks, and fs_prove on the challenges it derived."""
    opened = _OPENED[kind]
    return b"".join([_KIND_BYTES[kind], *opened(values), *opened(openings)])


def encode_response(kind: int, values: Sequence[bytes], openings: Sequence[bytes]) -> bytes:
    """The checked response writer: kind byte, the opened values in OPENS
    order, then their openings, each placed at its slot for
    _write_response.  ValueError on a kind outside OPENS, or unless there is
    one value and one opening per slot the kind opens; TypeError on an entry
    that is not bytes."""
    if kind not in OPENS:
        raise ValueError(f"cannot encode response of kind {kind!r}")
    slots = OPENS[kind]
    if len(values) != len(slots) or len(openings) != len(slots):
        raise ValueError(f"a kind {kind} response must hold one value and one opening per slot it opens")
    return _write_response(kind, dict(zip(slots, values)), dict(zip(slots, openings)))


@lru_cache(maxsize=16)  # bounded: three kinds at each degree a process checks
def _response_layout(kind: int, n: int) -> tuple[int, tuple[tuple[int, slice, slice], ...]]:
    """Where the parts of an encoded kind `kind` response at degree n lie,
    as offsets from its kind byte: its end, and for each slot OPENS[kind]
    lists, in order, (slot, value slice, opening slice).  The kind byte
    comes first, then the values (slot_size each), then their openings."""
    slots, parts, at = OPENS[kind], [], 1
    openings = at + sum(slot_size(slot, n) for slot in slots)
    for i, slot in enumerate(slots):
        opening = openings + i * OPENING_BYTES
        parts.append((slot, slice(at, at + slot_size(slot, n)), slice(opening, opening + OPENING_BYTES)))
        at += slot_size(slot, n)
    return openings + len(slots) * OPENING_BYTES, tuple(parts)


def max_response_bytes(n: int) -> int:
    """Length of the longest encoded response at degree n.

    Kind 2 (two masked values, two openings) when a masked value's w·n
    bytes are more than the seed's 32; otherwise kind 0 and 1 (one masked
    value, a seed, two openings) are at least as long."""
    return max(_response_layout(kind, n)[0] for kind in OPENS)


def max_proof_bytes(n: int, rounds: int) -> int:
    """Length of the longest encoded proof of `rounds` rounds at degree n.
    ValueError for a round count that no proof holds."""
    return _PROOF_HEADER_BYTES + _proof_rounds(rounds) * (COMMITMENT_BYTES + max_response_bytes(n))


def encode_proof(proof: NIZKProof) -> bytes:
    """Magic, round count, then per round its commitment and its response.
    ValueError unless the proof holds one response per commitment and a
    round count that _proof_rounds takes, so that decode_proof reads every
    proof written."""
    rounds = zip(proof.commitments, proof.responses, strict=True)
    return b"".join([PROOF_MAGIC, struct.pack("<I", _proof_rounds(proof.rounds)), *chain.from_iterable(rounds)])


def decode_proof(data: bytes, n: int) -> NIZKProof:
    """Split proof bytes at degree n into each round's commitment and
    response, by the walk fs_verify_bytes makes (_split_proof).  No value's
    form is checked."""
    commitments, responses = _split_proof(data, n)
    return NIZKProof(commitments=tuple(commitments), responses=tuple(responses))


def decode_response(data: bytes, n: int) -> tuple[int, tuple[bytes, bytes], tuple[bytes, bytes]]:
    """Read an encoded response at degree n by its layout (_response_layout)
    alone into (kind, values, openings): the values of the slots OPENS[kind]
    in that order and their openings in the same order, which
    encode_response turns back into the response.  ValueError on a kind
    outside OPENS or a length other than the kind's at degree n.  No value's
    form or opening is checked; read_round does."""
    kind = data[0] if data else None
    if kind not in OPENS:
        raise ValueError(f"unknown response kind {kind}")
    # each kind opens two slots, laid out as (slot, value, opening)
    end, ((_, a, a_opening), (_, b, b_opening)) = _response_layout(kind, n)
    if len(data) != end:
        raise ValueError(f"a kind {kind} response at degree {n} is {end} bytes, not {len(data)}")
    return kind, (data[a], data[b]), (data[a_opening], data[b_opening])
