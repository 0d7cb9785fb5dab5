"""The three-round proof of knowledge of a close subgroup element.

One round: the prover picks a uniform shuffle u from H and a mask seed s,
commits to Z1 = oneline(u∘h) + mask, Z2 = oneline(u∘g) + mask, and to s
(slots C1, C2, C3).  The verifier sends a challenge in {0, 1, 2}:

  0  reveal Z1 and s; unmasking Z1 must give an element of H (this is u∘h)
  1  reveal Z2 and s; unmasking Z2 must give w with w∘g^-1 in H (w is u∘g)
  2  reveal Z1 and Z2; they must differ in at most max_distance positions

A single round convinces the verifier with soundness error 2/3; sequential
repetition amplifies.  The non-interactive variant derives challenges by
hashing the statement, a context string, and all round commitments.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from random import Random

from .crypto import (
    DIGEST_BYTES,
    OPENING_BYTES,
    SEED_BYTES,
    commit,
    decode_tuple_from,
    encode_tuple,
    expand_mask,
    fresh_seed,
    tuple_add,
    tuple_sub,
    verify_commitment,
    weight,
)
from .instance import SDPInstance, Witness, instance_digest, validate_witness
from .perm import Permutation, compose, inverse

CHALLENGES = (0, 1, 2)

MSG_COMMIT = 0x01
MSG_CHALLENGE = 0x02
MSG_RESPONSE = 0x03

COMMITMENT_BYTES = 3 * DIGEST_BYTES

PROOF_MAGIC = b"SDP1"
_MAX_ROUNDS = 1 << 20

_FS_DOMAIN = b"SDZKP-FS-v1"


@dataclass(frozen=True)
class CommitmentMsg:
    """The three 32-byte commitment digests of one round."""

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
    """Challenge-dependent opening.  Fields not revealed stay None."""

    kind: int
    masked_witness: tuple[int, ...] | None = None
    masked_target: tuple[int, ...] | None = None
    seed: bytes | None = None
    open_witness: bytes | None = None
    open_target: bytes | None = None
    open_seed: bytes | None = None


@dataclass(frozen=True)
class ProverState:
    """Frozen per-round coin tape; any challenge can be answered from it."""

    instance: SDPInstance
    shuffle: Permutation
    seed: bytes
    masked_witness: tuple[int, ...]
    masked_target: tuple[int, ...]
    open_witness: bytes
    open_target: bytes
    open_seed: bytes
    commitment: CommitmentMsg


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


def prover_commit(inst: SDPInstance, wit: Witness, rng: Random) -> tuple[ProverState, CommitmentMsg]:
    """First move.  Refuses to run on a witness that fails the statement."""
    if not validate_witness(inst, wit.element):
        raise ValueError("witness does not satisfy the statement")
    shuffle = inst.group.sample_uniform(rng)
    seed = fresh_seed(rng)
    mask = expand_mask(seed, inst.degree)
    z1 = tuple_add(compose(shuffle, wit.element).images, mask)
    z2 = tuple_add(compose(shuffle, inst.target).images, mask)
    c1, o1 = commit(encode_tuple(z1), "C1", rng)
    c2, o2 = commit(encode_tuple(z2), "C2", rng)
    c3, o3 = commit(seed, "C3", rng)
    msg = CommitmentMsg(c1, c2, c3)
    state = ProverState(
        instance=inst,
        shuffle=shuffle,
        seed=seed,
        masked_witness=z1,
        masked_target=z2,
        open_witness=o1,
        open_target=o2,
        open_seed=o3,
        commitment=msg,
    )
    return state, msg


def verifier_challenge(rng: Random) -> int:
    """Uniform challenge from {0, 1, 2}."""
    return rng.randrange(3)


def prover_respond(state: ProverState, challenge: int) -> Response:
    """Third move: open exactly what the challenge demands."""
    if challenge == 0:
        return Response(
            kind=0,
            masked_witness=state.masked_witness,
            seed=state.seed,
            open_witness=state.open_witness,
            open_seed=state.open_seed,
        )
    if challenge == 1:
        return Response(
            kind=1,
            masked_target=state.masked_target,
            seed=state.seed,
            open_target=state.open_target,
            open_seed=state.open_seed,
        )
    if challenge == 2:
        return Response(
            kind=2,
            masked_witness=state.masked_witness,
            masked_target=state.masked_target,
            open_witness=state.open_witness,
            open_target=state.open_target,
        )
    raise ValueError(f"challenge must be 0, 1 or 2, got {challenge!r}")


def _decoded_perm(entries: tuple[int, ...]) -> Permutation | None:
    try:
        return Permutation(entries)
    except ValueError:
        return None


def verify_round(inst: SDPInstance, commitment: CommitmentMsg, challenge: int, response: Response) -> bool:
    """Check one round.  Total on untrusted input: returns False, never raises."""
    try:
        if challenge not in CHALLENGES or response.kind != challenge:
            return False
        n = inst.degree
        if challenge == 0:
            z1, seed = response.masked_witness, response.seed
            if z1 is None or seed is None or len(z1) != n:
                return False
            if not verify_commitment(commitment.c1, encode_tuple(z1), "C1", response.open_witness):
                return False
            if not verify_commitment(commitment.c3, seed, "C3", response.open_seed):
                return False
            unmasked = _decoded_perm(tuple_sub(z1, expand_mask(seed, n)))
            return unmasked is not None and inst.group.contains(unmasked)
        if challenge == 1:
            z2, seed = response.masked_target, response.seed
            if z2 is None or seed is None or len(z2) != n:
                return False
            if not verify_commitment(commitment.c2, encode_tuple(z2), "C2", response.open_target):
                return False
            if not verify_commitment(commitment.c3, seed, "C3", response.open_seed):
                return False
            unmasked = _decoded_perm(tuple_sub(z2, expand_mask(seed, n)))
            if unmasked is None:
                return False
            shuffle = compose(unmasked, inverse(inst.target))
            return inst.group.contains(shuffle)
        z1, z2 = response.masked_witness, response.masked_target
        if z1 is None or z2 is None or len(z1) != n or len(z2) != n:
            return False
        if not verify_commitment(commitment.c1, encode_tuple(z1), "C1", response.open_witness):
            return False
        if not verify_commitment(commitment.c2, encode_tuple(z2), "C2", response.open_target):
            return False
        return weight(tuple_sub(z1, z2)) <= inst.max_distance
    except (ValueError, TypeError, struct.error):
        return False


def run_interactive(
    inst: SDPInstance,
    wit: Witness,
    rounds: int,
    prover_rng: Random,
    verifier_rng: Random,
) -> bool:
    """Honest in-process session: accept iff every round verifies."""
    if rounds < 1:
        raise ValueError("need at least one round")
    for _ in range(rounds):
        state, com = prover_commit(inst, wit, prover_rng)
        ch = verifier_challenge(verifier_rng)
        rsp = prover_respond(state, ch)
        if not verify_round(inst, com, ch, rsp):
            return False
    return True


# --- non-interactive variant ---

def _reduce_to_challenge(shake) -> int:
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
    base = (
        _FS_DOMAIN
        + struct.pack("<I", len(context))
        + context
        + statement_digest
        + b"".join(c.encode() for c in commitments)
    )
    return [
        _reduce_to_challenge(hashlib.shake_256(base + struct.pack("<I", i)))
        for i in range(rounds)
    ]


def fs_prove(inst: SDPInstance, wit: Witness, rounds: int, context: bytes, rng: Random) -> NIZKProof:
    """Non-interactive proof: commit to all rounds, derive challenges, respond."""
    if rounds < 1:
        raise ValueError("need at least one round")
    pairs = [prover_commit(inst, wit, rng) for _ in range(rounds)]
    commitments = tuple(msg for _, msg in pairs)
    challenges = derive_challenges(instance_digest(inst), context, commitments, rounds)
    responses = tuple(prover_respond(state, ch) for (state, _), ch in zip(pairs, challenges))
    return NIZKProof(commitments=commitments, responses=responses)


def fs_verify(inst: SDPInstance, proof: NIZKProof, context: bytes) -> bool:
    """Check a non-interactive proof.  False on any malformed or failing round."""
    try:
        rounds = len(proof.commitments)
        if rounds < 1 or len(proof.responses) != rounds:
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

def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if len(data) < end:
        raise ValueError("truncated message")
    return data[offset:end], end


def encode_response(rsp: Response) -> bytes:
    if rsp.kind == 0:
        return (
            bytes([0])
            + encode_tuple(rsp.masked_witness)
            + rsp.seed
            + rsp.open_witness
            + rsp.open_seed
        )
    if rsp.kind == 1:
        return (
            bytes([1])
            + encode_tuple(rsp.masked_target)
            + rsp.seed
            + rsp.open_target
            + rsp.open_seed
        )
    if rsp.kind == 2:
        return (
            bytes([2])
            + encode_tuple(rsp.masked_witness)
            + encode_tuple(rsp.masked_target)
            + rsp.open_witness
            + rsp.open_target
        )
    raise ValueError(f"cannot encode response of kind {rsp.kind!r}")


def max_response_bytes(n: int) -> int:
    """Length of the longest encoded response at degree n.

    Kind 2 (two tuples, two openings) for n >= 7; below that kind 0 and 1
    (one tuple, a seed, two openings) are longer."""
    tuple_bytes = 4 + 4 * n
    return 1 + max(2 * tuple_bytes + 2 * OPENING_BYTES, tuple_bytes + SEED_BYTES + 2 * OPENING_BYTES)


def decode_response_from(data: bytes, offset: int = 0) -> tuple[Response, int]:
    if len(data) <= offset:
        raise ValueError("empty response")
    kind = data[offset]
    offset += 1
    if kind == 0:
        z1, offset = decode_tuple_from(data, offset)
        seed, offset = _take(data, offset, SEED_BYTES)
        o1, offset = _take(data, offset, OPENING_BYTES)
        o3, offset = _take(data, offset, OPENING_BYTES)
        return Response(kind=0, masked_witness=z1, seed=seed, open_witness=o1, open_seed=o3), offset
    if kind == 1:
        z2, offset = decode_tuple_from(data, offset)
        seed, offset = _take(data, offset, SEED_BYTES)
        o2, offset = _take(data, offset, OPENING_BYTES)
        o3, offset = _take(data, offset, OPENING_BYTES)
        return Response(kind=1, masked_target=z2, seed=seed, open_target=o2, open_seed=o3), offset
    if kind == 2:
        z1, offset = decode_tuple_from(data, offset)
        z2, offset = decode_tuple_from(data, offset)
        o1, offset = _take(data, offset, OPENING_BYTES)
        o2, offset = _take(data, offset, OPENING_BYTES)
        return Response(kind=2, masked_witness=z1, masked_target=z2, open_witness=o1, open_target=o2), offset
    raise ValueError(f"unknown response kind {kind}")


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
    if data[:4] != PROOF_MAGIC:
        raise ValueError("bad proof magic")
    if len(data) < 8:
        raise ValueError("truncated proof header")
    (rounds,) = struct.unpack_from("<I", data, 4)
    if rounds == 0 or rounds > _MAX_ROUNDS:
        raise ValueError(f"unreasonable round count {rounds}")
    offset = 8
    commitments = []
    responses = []
    for _ in range(rounds):
        raw, offset = _take(data, offset, COMMITMENT_BYTES)
        commitments.append(CommitmentMsg.decode(raw))
        rsp, offset = decode_response_from(data, offset)
        responses.append(rsp)
    if offset != len(data):
        raise ValueError("trailing bytes after proof")
    return NIZKProof(commitments=tuple(commitments), responses=tuple(responses))
