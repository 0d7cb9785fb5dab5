"""The three-round proof of knowledge of a close subgroup element.

One round: the prover picks a uniform shuffle u from H and a mask seed s,
and commits to three values, its slots: 0 is Z1 = oneline(u∘h) + mask,
1 is Z2 = oneline(u∘g) + mask, 2 is s.  Slot i is committed under tag
crypto.COMMIT_TAGS[i] into CommitmentMsg field i.  The verifier sends a
challenge in {0, 1, 2}, and the opening table OPENS says which slots the
answer reveals, in wire order:

  challenge  opens     the verifier checks the openings, then
  0          Z1, s     unmasking Z1 must give an element of H (this is u∘h)
  1          Z2, s     unmasking Z2 must give w with w∘g^-1 in H (w is u∘g)
  2          Z1, Z2    they must differ in at most max_distance words

Every value is its own committed message and wire form: slot_span reads
one off the wire and slot_size gives its length.  The prover, the
verifier's checks and the response codecs all follow OPENS; only the
final predicate above is written per challenge.

A single round convinces the verifier with soundness error 2/3; sequential
repetition amplifies.  The non-interactive variant derives challenges by
hashing the statement, a context string, and all round commitments.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from operator import itemgetter
from random import Random
from typing import NamedTuple

from .crypto import (
    COMMIT_TAGS,
    DIGEST_BYTES,
    OPENING_BYTES,
    SEED_BYTES,
    apply_mask,
    commit,
    differing_words,
    fresh_seed,
    remove_mask,
    tuple_span,
    verify_commitment,
)
from .instance import SDPInstance, Witness, instance_digest, validate_witness
from .perm import Permutation, compose, compose_images

Z1, Z2, SEED = 0, 1, 2

OPENS = {0: (Z1, SEED), 1: (Z2, SEED), 2: (Z1, Z2)}

CHALLENGES = tuple(OPENS)

# Each challenge opens two slots, so each getter returns a pair.
_OPENED = {challenge: itemgetter(*slots) for challenge, slots in OPENS.items()}

MSG_COMMIT = 0x01
MSG_CHALLENGE = 0x02
MSG_RESPONSE = 0x03

COMMITMENT_BYTES = 3 * DIGEST_BYTES

PROOF_MAGIC = b"SDP1"
_MAX_ROUNDS = 1 << 20

_FS_DOMAIN = b"SDZKP-FS-v1"


def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if len(data) < end:
        raise ValueError("truncated message")
    return data[offset:end], end


def slot_span(slot: int, data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """The value of a slot at offset, as it stands; returns (value, next offset).
    A value v is canonical at degree n iff slot_span(slot, v) == (v, slot_size(slot, n))."""
    return _take(data, offset, SEED_BYTES) if slot == SEED else tuple_span(data, offset)


def slot_size(slot: int, n: int) -> int:
    """Encoded length of a slot's value at degree n."""
    return SEED_BYTES if slot == SEED else 4 + 4 * n


class CommitmentMsg(NamedTuple):
    """The three 32-byte commitment digests of one round, one per slot."""

    c1: bytes
    c2: bytes
    c3: bytes

    def encode(self) -> bytes:
        return self.c1 + self.c2 + self.c3

    @classmethod
    def decode(cls, data: bytes) -> "CommitmentMsg":
        if len(data) != COMMITMENT_BYTES:
            raise ValueError(f"commitment message must be {COMMITMENT_BYTES} bytes, got {len(data)}")
        return cls(data[0:32], data[32:64], data[64:96])


@dataclass(frozen=True)
class Response:
    """What challenge `kind` opens: the values of the slots OPENS[kind], in
    that order, and their commitment openings in the same order."""

    kind: int
    values: tuple[bytes, ...]
    openings: tuple[bytes, ...]


def _opens_its_slots(rsp: Response) -> bool:
    """Whether rsp holds one bytes value and one bytes opening per slot of OPENS[rsp.kind]."""
    values, openings, width = rsp.values, rsp.openings, len(OPENS[rsp.kind])
    if not (isinstance(values, tuple) and isinstance(openings, tuple)):
        return False
    if len(values) != width or len(openings) != width:
        return False
    for part in values + openings:
        if not isinstance(part, bytes):
            return False
    return True


@dataclass(frozen=True)
class ProverState:
    """Frozen per-round coin tape: respond(ch) is a pure function of it, so
    any challenge can be answered, in any order and more than once.
    values and openings hold one entry per slot (Z1, Z2, seed)."""

    values: tuple[bytes, bytes, bytes]
    openings: tuple[bytes, bytes, bytes]
    commitment: CommitmentMsg

    def respond(self, challenge: int) -> Response:
        return prover_respond(self, challenge)


@dataclass(frozen=True)
class Transcript:
    commitment: CommitmentMsg
    challenge: int
    response: Response


@dataclass(frozen=True)
class NIZKProof:
    commitments: tuple[CommitmentMsg, ...]
    responses: tuple[Response, ...]

    @property
    def rounds(self) -> int:
        return len(self.commitments)


def require_positive(count: int, what: str = "round") -> None:
    """Refuse a count below 1: a zero-round session would accept without a
    single check, and a rate over zero trials divides by zero."""
    if count < 1:
        raise ValueError(f"need at least one {what}")


def _proof_rounds(rounds: int) -> int:
    if not 1 <= rounds <= _MAX_ROUNDS:  # one cap, so that decode_proof reads every proof made
        raise ValueError(f"unreasonable round count {rounds}")
    return rounds


def unmask(z: bytes, seed: bytes, n: int) -> Permutation:
    """The permutation a masked tuple hides; ValueError if it hides none.

    remove_mask yields exactly n u32 words, so they form a permutation of
    {0, .., n-1} iff all are below n and all are distinct."""
    images = remove_mask(z, seed, n)
    if max(images) >= n or len(set(images)) != n:
        raise ValueError("unmasked tuple is not a permutation")
    return Permutation._trusted(images)


def commit_round(z1: bytes, z2: bytes, seed: bytes, rng: Random) -> ProverState:
    """Commit to the masked pair and the seed, slot by slot (C1, C2, C3).
    The analysis harness commits its cheating and simulated tuples with it."""
    c1, o1 = commit(z1, COMMIT_TAGS[Z1], rng)
    c2, o2 = commit(z2, COMMIT_TAGS[Z2], rng)
    c3, o3 = commit(seed, COMMIT_TAGS[SEED], rng)
    return ProverState((z1, z2, seed), (o1, o2, o3), CommitmentMsg(c1, c2, c3))


def masked_round(
    inst: SDPInstance, u: tuple[int, ...], x: tuple[int, ...], seed: bytes, rng: Random
) -> ProverState:
    """Commit to Z1 = oneline(u∘x) + mask and Z2 = oneline(u∘g) + mask under
    one seed: the round of every prover that claims x, honest (x = h) or not.
    u and x are image tuples; their products go straight into lanes."""
    z1, z2 = apply_mask(seed, inst.degree, compose_images(u, x), compose_images(u, inst.target.images))
    return commit_round(z1, z2, seed, rng)


def opened_member(inst: SDPInstance, challenge: int, response: Response) -> Permutation:
    """The element that a challenge-0 or challenge-1 opening claims lies in H:
    unmask(Z1) = u∘h at 0, unmask(Z2)∘g^-1 = u at 1.  ValueError if the
    opening hides no permutation."""
    if challenge not in (0, 1):
        raise ValueError(f"challenge {challenge!r} opens no group element")
    z, seed = response.values  # OPENS[challenge]: a masked tuple, then the seed
    opened = unmask(z, seed, inst.degree)
    return compose(opened, inst.target_inverse) if challenge else opened


def require_witness(inst: SDPInstance, wit: Witness) -> None:
    """Refuse a witness that fails the statement: no round can be honest.
    Every honest prover calls it once, before its first round."""
    if not validate_witness(inst, wit.element):
        raise ValueError("witness does not satisfy the statement")


def prover_commit(inst: SDPInstance, wit: Witness, rng: Random) -> ProverState:
    """First move; the state's commitment is the message to send.  Refuses
    to run on a witness that fails the statement.  A prover that runs many
    rounds checks the witness once and then makes this masked_round call."""
    require_witness(inst, wit)
    return masked_round(inst, inst.group.sample_uniform(rng).images, wit.element.images, fresh_seed(rng), rng)


def verifier_challenge(rng: Random) -> int:
    """Uniform challenge from {0, 1, 2}."""
    return rng.randrange(3)


def prover_respond(state: ProverState, challenge: int) -> Response:
    """Third move: open exactly what the challenge demands."""
    if challenge not in OPENS:
        raise ValueError(f"challenge must be 0, 1 or 2, got {challenge!r}")
    opened = _OPENED[challenge]
    return Response(challenge, opened(state.values), opened(state.openings))


def verify_round(inst: SDPInstance, commitment: CommitmentMsg, challenge: int, response: Response) -> bool:
    """Check one round.  Total on untrusted input: returns False, never raises."""
    if not isinstance(commitment, CommitmentMsg) or not isinstance(response, Response):
        return False
    try:
        if challenge not in CHALLENGES or response.kind != challenge or not _opens_its_slots(response):
            return False
        n = inst.degree
        for slot, value, opening in zip(OPENS[challenge], response.values, response.openings):
            if slot_span(slot, value) != (value, slot_size(slot, n)) or not verify_commitment(
                commitment[slot], value, COMMIT_TAGS[slot], opening
            ):
                return False
        if challenge == 2:
            return differing_words(*response.values) <= inst.max_distance
        return inst.group.contains(opened_member(inst, challenge, response))
    except (ValueError, TypeError, struct.error):
        return False


def honest_round(inst: SDPInstance, wit: Witness, prover_rng: Random, verifier_rng: Random) -> Transcript:
    """One honest round: commit, uniform challenge, response.  It draws the
    coins prover_commit draws but does not check the witness: a caller runs
    require_witness once, before its first round."""
    state = masked_round(
        inst, inst.group.sample_uniform(prover_rng).images, wit.element.images, fresh_seed(prover_rng), prover_rng
    )
    ch = verifier_challenge(verifier_rng)
    return Transcript(state.commitment, ch, prover_respond(state, ch))


def run_interactive(
    inst: SDPInstance,
    wit: Witness,
    rounds: int,
    prover_rng: Random,
    verifier_rng: Random,
) -> bool:
    """Honest in-process session: accept iff every round verifies."""
    require_positive(rounds)
    require_witness(inst, wit)
    for _ in range(rounds):
        t = honest_round(inst, wit, prover_rng, verifier_rng)
        if not verify_round(inst, t.commitment, t.challenge, t.response):
            return False
    return True


# --- non-interactive variant ---

def _reduce_to_challenge(prefix, i: int) -> int:
    shake = prefix.copy()
    shake.update(struct.pack("<I", i))
    # Rejection sampling over bytes: 255 = 85 * 3, so dropping the value 255
    # leaves a multiple of 3 and byte % 3 is exactly uniform.
    length = 64
    while True:
        for b in shake.digest(length):
            if b != 255:
                return b % 3
        length *= 2


def derive_challenges(
    statement_digest: bytes,
    context: bytes,
    commitments: tuple[CommitmentMsg, ...],
    rounds: int,
) -> list[int]:
    """Hash-derived challenges binding the statement, context and all commitments."""
    prefix = hashlib.shake_256(
        _FS_DOMAIN
        + struct.pack("<I", len(context))
        + context
        + statement_digest
        + b"".join(c.encode() for c in commitments)
    )
    return [_reduce_to_challenge(prefix, i) for i in range(rounds)]


def fs_prove(inst: SDPInstance, wit: Witness, rounds: int, context: bytes, rng: Random) -> NIZKProof:
    """Non-interactive proof: commit to all rounds, derive challenges, respond."""
    _proof_rounds(rounds)
    require_witness(inst, wit)
    group, h = inst.group, wit.element.images
    states = [masked_round(inst, group.sample_uniform(rng).images, h, fresh_seed(rng), rng) for _ in range(rounds)]
    commitments = tuple(state.commitment for state in states)
    challenges = derive_challenges(instance_digest(inst), context, commitments, rounds)
    responses = tuple(prover_respond(state, ch) for state, ch in zip(states, challenges))
    return NIZKProof(commitments=commitments, responses=responses)


def fs_verify(inst: SDPInstance, proof: NIZKProof, context: bytes) -> bool:
    """Check a non-interactive proof.  False on any malformed or failing round."""
    if not isinstance(proof, NIZKProof):
        return False
    try:
        if not all(isinstance(com, CommitmentMsg) for com in proof.commitments):
            return False
        rounds = _proof_rounds(len(proof.commitments))
        if len(proof.responses) != rounds:
            return False
        challenges = derive_challenges(instance_digest(inst), context, proof.commitments, rounds)
        return all(
            verify_round(inst, com, ch, rsp)
            for com, ch, rsp in zip(proof.commitments, challenges, proof.responses)
        )
    except (ValueError, TypeError, struct.error):
        return False


def fs_verify_bytes(inst: SDPInstance, data: bytes, context: bytes) -> bool:
    """fs_verify on serialized proof bytes; parse failures count as rejection."""
    try:
        proof = decode_proof(data)
    except (ValueError, TypeError, struct.error):
        return False
    return fs_verify(inst, proof, context)


# --- serialization ---

def encode_response(rsp: Response) -> bytes:
    """Kind byte, the opened values in OPENS order, then their openings."""
    if rsp.kind not in OPENS:
        raise ValueError(f"cannot encode response of kind {rsp.kind!r}")
    if not _opens_its_slots(rsp):
        raise ValueError(f"a kind {rsp.kind} response must hold one bytes value and opening per slot it opens")
    return bytes([rsp.kind]) + b"".join(rsp.values) + b"".join(rsp.openings)


def max_response_bytes(n: int) -> int:
    """Length of the longest encoded response at degree n.

    Kind 2 (two tuples, two openings) for n >= 7; below that kind 0 and 1
    (one tuple, a seed, two openings) are longer."""
    return 1 + max(sum(slot_size(slot, n) + OPENING_BYTES for slot in slots) for slots in OPENS.values())


def decode_response_from(data: bytes, offset: int = 0) -> tuple[Response, int]:
    if len(data) <= offset:
        raise ValueError("empty response")
    kind = data[offset]
    if kind not in OPENS:
        raise ValueError(f"unknown response kind {kind}")
    first, second = OPENS[kind]
    value1, offset = slot_span(first, data, offset + 1)
    value2, offset = slot_span(second, data, offset)
    middle, end = offset + OPENING_BYTES, offset + 2 * OPENING_BYTES
    if len(data) < end:
        raise ValueError("truncated message")
    return Response(kind, (value1, value2), (data[offset:middle], data[middle:end])), end


def decode_response(data: bytes) -> Response:
    rsp, end = decode_response_from(data, 0)
    if end != len(data):
        raise ValueError("trailing bytes after response")
    return rsp


def encode_proof(proof: NIZKProof) -> bytes:
    parts = [PROOF_MAGIC, struct.pack("<I", proof.rounds)]
    for com, rsp in zip(proof.commitments, proof.responses):
        parts.append(com.encode())
        parts.append(encode_response(rsp))
    return b"".join(parts)


def decode_proof(data: bytes) -> NIZKProof:
    """Parse proof bytes.  Any other buffer is copied to bytes once, so every
    field is bytes; memoryview refuses an int or a str (TypeError)."""
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    if data[:4] != PROOF_MAGIC:
        raise ValueError("bad proof magic")
    if len(data) < 8:
        raise ValueError("truncated proof header")
    rounds = _proof_rounds(struct.unpack_from("<I", data, 4)[0])
    offset = 8
    commitments = []
    responses = []
    for _ in range(rounds):
        c2, c3, end = offset + DIGEST_BYTES, offset + 2 * DIGEST_BYTES, offset + COMMITMENT_BYTES
        if len(data) < end:
            raise ValueError("truncated message")
        commitments.append(CommitmentMsg(data[offset:c2], data[c2:c3], data[c3:end]))
        rsp, offset = decode_response_from(data, end)
        responses.append(rsp)
    if offset != len(data):
        raise ValueError("trailing bytes after proof")
    return NIZKProof(commitments=tuple(commitments), responses=tuple(responses))
