"""The three-round proof of knowledge of a close subgroup element.

One round: the prover picks a uniform shuffle u from H and a mask seed s,
and commits to three values, its slots: 0 is Z1 = oneline(u∘h) + mask,
1 is Z2 = oneline(u∘g) + mask, 2 is s, where + adds words in GF(2^8w),
which is XOR (crypto).  Slot i is committed under tag
crypto.COMMIT_TAGS[i] as digest i of the round's 96-byte commitment, its
bytes [32i, 32i+32), which commitment_digests alone reads.  The verifier
sends a challenge in {0, 1, 2}, and the opening table OPENS says which
slots the answer reveals, in wire order:

  challenge  opens     the verifier checks the openings, then
  0          Z1, s     unmasking Z1 must give an element of H (this is u∘h)
  1          Z2, s     unmasking Z2 must give w with w∘g^-1 in H (w is u∘g)
  2          Z1, Z2    they must differ in at most max_distance words

Every value is its own committed message and wire form, slot_size long;
every byte string of that length is a value, so its length is its only
form check.  The prover, the verifier's checks and the response codecs
all follow OPENS; only the final predicate above is written per
challenge, once, in _shown, which takes its masked values at their slot's
length and returns what the round shows (u∘h at 0, u at 1, the distance
at 2) or None.

A round works on the group's raw elements (group.make_ops: byte tables up
to degree 256, image tuples past it): prover_round draws u in that form
from BSGS.sample_uniform, masked_round composes u with x and with g and
masks each product's words (ops.words) with crypto.apply_mask, and
commit_round commits the three slots in one crypto.commit call, which
draws their openings at once and alone writes the hash input (tag ‖
opening ‖ message).  _shown unmasks with the same apply_mask (XOR is its
own inverse) into words that ops.from_words reads back, composed with
the cached raw g^-1 at challenge 1, and contains tests as they stand; at
2, ops.differing_words counts the words the masked values differ in.

A round has one form, its wire bytes: a ProverState's commitment is the
96 bytes, and prover_respond returns the encoded response that
encode_response, the one writer, writes.  read_round, the one reader of a
round, checks once that both are bytes, lays the response out by
_response_layout (the one reader of a response, whose lengths are a
value's only form check), checks each opened slot on its slices with
crypto.opens, and returns what _shown shows.  verify_round is
read_round(...) is not None; the extractor and the distribution tally use
what read_round shows.  One walk, _split_proof, reads a proof.

A single round convinces the verifier with soundness error 2/3; sequential
repetition amplifies.  The non-interactive variant derives challenges by
hashing the statement, a context string, and all round commitments.

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
    COMMIT_TAGS,
    DIGEST_BYTES,
    OPENING_BYTES,
    SEED_BYTES,
    apply_mask,
    commit,
    fresh_seed,
    opens,
    verify_commitment,
)
from .group import word_width
from .instance import SDPInstance, Witness, instance_digest, validate_witness

Z1, Z2, SEED = 0, 1, 2

OPENS = {0: (Z1, SEED), 1: (Z2, SEED), 2: (Z1, Z2)}

CHALLENGES = tuple(OPENS)

# Each challenge opens two slots, so each getter returns a pair.
_OPENED = {challenge: itemgetter(*slots) for challenge, slots in OPENS.items()}

COMMITMENT_BYTES = 3 * DIGEST_BYTES

# The one statement of the commitment's layout: the digests of slots Z1, Z2
# and SEED, in that order, slot i's at bytes [32i, 32i+32) of the commitment.
commitment_digests = itemgetter(*(slice(i * DIGEST_BYTES, (i + 1) * DIGEST_BYTES) for i in (Z1, Z2, SEED)))

# Each slot's commitment tag; a slot outside (Z1, Z2, SEED) has none.
_SLOT_TAGS = dict(enumerate(COMMIT_TAGS))

PROOF_MAGIC = b"SDP2"
_PROOF_HEADER_BYTES = 8  # the magic, then a u32 round count
_MAX_ROUNDS = 1 << 20

# The default round count: the least t with (2/3)^t <= 2^-128, that is
# t * log2(3/2) >= 128.
ROUNDS = 219

_FS_DOMAIN = b"SDZKP-FS-v2"


def slot_size(slot: int, n: int) -> int:
    """Encoded length of a slot's value at degree n: w·n for a masked value
    of n words of w = group.word_width(n) bytes.  A value is canonical at
    degree n iff it is a bytes object of this length."""
    return SEED_BYTES if slot == SEED else word_width(n) * n


class Response(NamedTuple):
    """A decoded response (decode_response): what challenge `kind` opens, the
    values of the slots OPENS[kind] in that order, and their commitment
    openings in the same order.  Its three fields, passed to
    encode_response, give back its wire form."""

    kind: int
    values: tuple[bytes, ...]
    openings: tuple[bytes, ...]


class ProverState(NamedTuple):
    """Frozen per-round coin tape: respond(ch) is a pure function of it, so
    any challenge can be answered, in any order and more than once.
    values and openings hold one entry per slot (Z1, Z2, seed); commitment
    is the round's 96 bytes, slot i's digest at [32i, 32i+32)."""

    values: tuple[bytes, bytes, bytes]
    openings: tuple[bytes, bytes, bytes]
    commitment: bytes

    def respond(self, challenge: int) -> bytes:
        return prover_respond(self, challenge)


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


def commit_round(z1: bytes, z2: bytes, seed: bytes, rng: Random) -> ProverState:
    """The round whose slots hold the masked pair and the seed, committed by
    one crypto.commit call; the analysis harness's provers commit with it."""
    return ProverState((z1, z2, seed), *commit(z1, z2, seed, rng))


def masked_round(inst: SDPInstance, u, x, seed: bytes, rng: Random) -> ProverState:
    """Commit to Z1 = oneline(u∘x) + mask and Z2 = oneline(u∘g) + mask under
    one seed: the round of every prover that claims x, honest (x = h) or not.
    u and x are in the raw form of inst.group.ops; apply_mask masks each
    product's words as they stand."""
    ops = inst.group.ops
    z1, z2 = apply_mask(seed, ops.words(ops.then(x, u)), ops.words(ops.then(inst.target_tables[0], u)))
    return commit_round(z1, z2, seed, rng)


def prover_round(inst: SDPInstance, h, rng: Random) -> ProverState:
    """The honest round for a witness h in the raw form of inst.group.ops: u
    uniform in H (sample_uniform draws it in that form), then a fresh seed,
    then the three commitments, in that coin order.  It does not check the
    witness; honest_rounds does."""
    return masked_round(inst, inst.group.sample_uniform(rng), h, fresh_seed(rng), rng)


def _shown(inst: SDPInstance, challenge: int, value: bytes, other: bytes):
    """What a round shows on the two values its challenge opens, in OPENS
    order (masked values taken at their slot's length), or None unless the
    challenge's predicate holds; each predicate is written here only.  At 0
    and 1 apply_mask under the seed (which it checks) unmasks the value into
    the words of a raw element of inst.group.ops (from_words): u∘h =
    unmask(Z1) at 0, u = unmask(Z2)∘g^-1 at 1, shown if in H.  At 2,
    the count of words the values differ in (ops.differing_words), if at
    most max_distance; it may be 0, so callers test `is not None`."""
    ops = inst.group.ops
    if challenge == 2:
        distance = ops.differing_words(value, other)
        return distance if distance <= inst.max_distance else None
    (words,) = apply_mask(other, value)
    member = ops.from_words(words)
    if member is not None and challenge:
        member = ops.then(inst.target_tables[1], member)
    return member if member is not None and inst.group.contains(member) else None


def honest_rounds(inst: SDPInstance, wit: Witness, rounds: int, rng: Random) -> Iterator[ProverState]:
    """The one checked source of honest rounds.  Before any coin is drawn it
    refuses rounds < 1 and a witness that fails the statement (no round could
    be honest); then it encodes h once and returns a lazy iterator of
    `rounds` prover_round states, each drawn from rng only when taken."""
    require_positive(rounds)
    if not validate_witness(inst, wit.element):
        raise ValueError("witness does not satisfy the statement")
    h = inst.group.ops.encode(wit.element.images)
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
    """Third move: the encoded response that opens exactly what the
    challenge demands."""
    if challenge not in OPENS:
        raise ValueError(f"challenge must be 0, 1 or 2, got {challenge!r}")
    opened = _OPENED[challenge]
    return encode_response(challenge, opened(state.values), opened(state.openings))


def slot_opens(inst: SDPInstance, digest: bytes, slot: int, value: bytes, opening: bytes) -> bool:
    """Whether value is a canonical value of the slot at the instance's degree
    (bytes of slot_size's length) and opening opens the slot's digest to it
    (crypto.verify_commitment), for analysis.accepted_challenges.  Total,
    a slot outside (Z1, Z2, SEED) included: returns False, never raises."""
    try:
        return len(value) == slot_size(slot, inst.degree) and verify_commitment(
            digest, value, _SLOT_TAGS.get(slot), opening
        )
    except TypeError:  # a value with no length, or a slot with no hash
        return False


def read_round(inst: SDPInstance, commitment: bytes, challenge: int, response: bytes):
    """What one round shows (_shown) if it verifies, else None, from its wire
    bytes, each bytes: the 96-byte commitment and the encoded response,
    whose kind byte must be the challenge and whose length _response_layout
    fixes, and so every value's and opening's; then each slot the challenge
    opens must open (crypto.opens).  Total: None, never an exception."""
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
        if opens(digests[s], s, response[a_opening], value) and opens(digests[t], t, response[b_opening], other):
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
    context and all the rounds' 96-byte commitments.  ValueError unless the
    commitments hold COMMITMENT_BYTES per round."""
    rounds, joined = len(commitments), b"".join(commitments)
    if len(joined) != rounds * COMMITMENT_BYTES:
        raise ValueError(f"{len(joined)} bytes are not the commitments of {rounds} rounds")
    prefix = hashlib.shake_256(_FS_DOMAIN + struct.pack("<I", len(context)) + context + statement_digest + joined)
    challenges = []
    for i in range(rounds):
        shake = prefix.copy()
        shake.update(i.to_bytes(4, "little"))
        # Rejection sampling over bytes: 255 = 85 * 3, so dropping the value
        # 255 leaves a multiple of 3 and the first other byte % 3 is exactly
        # uniform.  The stream is read further only when it starts with 255.
        byte = shake.digest(1)[0]
        length = 1
        while byte == 255:
            length *= 64
            stream = shake.digest(length).lstrip(b"\xff")
            byte = stream[0] if stream else 255
        challenges.append(byte % 3)
    return challenges


def fs_prove(inst: SDPInstance, wit: Witness, rounds: int, context: bytes, rng: Random) -> NIZKProof:
    """Non-interactive proof: commit to all rounds, derive challenges, respond."""
    states = list(honest_rounds(inst, wit, _proof_rounds(rounds), rng))
    commitments = tuple([state.commitment for state in states])
    challenges = derive_challenges(instance_digest(inst), context, commitments)
    responses = tuple(map(prover_respond, states, challenges))
    return NIZKProof(commitments=commitments, responses=responses)


def fs_verify_bytes(inst: SDPInstance, data: bytes, context: bytes, rounds: int = ROUNDS) -> bool:
    """Check a serialized non-interactive proof in place.  False on any
    malformed buffer or failing round, and unless the proof holds exactly
    `rounds` rounds: the verifier, not the prover, sets the soundness error,
    so the walk (_split_proof) checks the count before any round.  The
    challenges are derived from the commitments' slices of the buffer, and
    verify_round checks each round on its slices."""
    try:
        commitments, responses = _split_proof(data, inst.degree, rounds)
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

def encode_response(kind: int, values: Sequence[bytes], openings: Sequence[bytes]) -> bytes:
    """The one response writer: kind byte, the opened values in OPENS order,
    then their openings.  ValueError on a kind outside OPENS, or unless there
    is one value and one opening per slot the kind opens."""
    if kind not in OPENS:
        raise ValueError(f"cannot encode response of kind {kind!r}")
    width = len(OPENS[kind])
    if len(values) != width or len(openings) != width:
        raise ValueError(f"a kind {kind} response must hold one value and one opening per slot it opens")
    return b"".join([bytes((kind,)), *values, *openings])


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


def decode_response(data: bytes, n: int) -> Response:
    """Read an encoded response at degree n by its layout (_response_layout)
    alone: ValueError on a kind outside OPENS or a length other than the
    kind's at degree n.  No value's form or opening is checked; read_round does."""
    kind = data[0] if data else None
    if kind not in OPENS:
        raise ValueError(f"unknown response kind {kind}")
    # each kind opens two slots, laid out as (slot, value, opening)
    end, ((_, a, a_opening), (_, b, b_opening)) = _response_layout(kind, n)
    if len(data) != end:
        raise ValueError(f"a kind {kind} response at degree {n} is {end} bytes, not {len(data)}")
    return Response(kind, (data[a], data[b]), (data[a_opening], data[b_opening]))
