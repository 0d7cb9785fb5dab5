"""Hash-based commitments and the seeded mask that blinds a round's values.

Slot i (0, 1, 2) of a round is committed as SHA-256 (FIPS 180-4) over
(ASCII tag COMMIT_TAGS[i] || 32-byte opening || message); _digest alone
writes that input.  A round's commitment is its three slots' digests,
COMMITMENT_BYTES in all, slot i's at bytes [32i, 32i+32): commit writes
it and opens reads a slot of it, and no other code knows where a slot's
digest lies.  Binding needs the 128-bit collision resistance of a
256-bit digest, and hiding rests on the secret opening; every message is
read at its slot's fixed length, so length extension, which lengthens a
message, gives no second opening of a digest.

A masked value is the n words of a raw group element (group.word_width:
w = 1 byte per image up to degree 256, 4 past it) plus a mask of n words
read from SHAKE-256 keyed by a 32-byte seed, the sum taken in GF(2^8w),
whose addition is XOR.  So a masked value is exactly w·n bytes, with no
prefix, every byte string of that length is one, and masking a masked
value again unmasks it.  The mask is read in two places, one per shape:
mask_values under one seed, mask_rounds under one seed per round.  Both
are unchecked, for callers that fixed the seeds and the lengths.

This module sees only bytes and draws no coin, so it imports no random
number generator: protocol draws every coin, and how an element is
written as words, and how the words of two values are compared, is
group's (ops.words, ops.differing_words).  verify_commitment,
expand_mask, tuple_add and tuple_sub are read by no code: each is kept
for the benchmark's tracer (sdzbench/spans.py) until ROADMAP item 8.
"""

from __future__ import annotations

import hashlib
import hmac
from operator import methodcaller
from typing import Sequence

SEED_BYTES = 32
OPENING_BYTES = 32
DIGEST_BYTES = 32
COMMITMENT_BYTES = 3 * DIGEST_BYTES
COMMIT_TAGS = ("C1", "C2", "C3")

_TAG_SLOTS = {tag: slot for slot, tag in enumerate(COMMIT_TAGS)}
# Slot i's SHA-256 state after its tag, never updated: _digest hashes into
# a copy, which costs less than a new hash object.
_TAGGED = tuple(hashlib.sha256(tag.encode("ascii")) for tag in COMMIT_TAGS)


def _digest(slot: int, opening: bytes, message: bytes) -> bytes:
    h = _TAGGED[slot].copy()
    h.update(opening)
    h.update(message)
    return h.digest()


def commit(z1: bytes, z2: bytes, seed: bytes, openings: bytes) -> tuple[tuple[bytes, bytes, bytes], bytes]:
    """Commit to a round's slots z1, z2 and seed (tags C1, C2, C3) under
    openings, the 96 bytes the caller drew: bytes [32i, 32i+32) open slot
    i.  Returns the three openings and the round's commitment, the slots'
    digests, each in that order."""
    o1, o2, o3 = openings[:OPENING_BYTES], openings[OPENING_BYTES:-OPENING_BYTES], openings[-OPENING_BYTES:]
    return (o1, o2, o3), _digest(0, o1, z1) + _digest(1, o2, z2) + _digest(2, o3, seed)


def opens(commitment: bytes, slot: int, opening: bytes, message: bytes) -> bool:
    """Whether opening opens slot 0, 1 or 2 (commit's order) of a round's
    commitment to message: bytes [32·slot, 32·slot+32) of the commitment
    against the slot's hash, in one constant-time compare.  The hash and
    the compare only, on bytes the caller has sized."""
    at = slot * DIGEST_BYTES
    return hmac.compare_digest(commitment[at : at + DIGEST_BYTES], _digest(slot, opening, message))


def verify_commitment(digest: bytes, message: bytes, tag: str, opening: bytes) -> bool:
    """Whether opening opens one slot's lone digest to message, behind
    checks of the tag and of each part's type and length: total, False
    before any hash on malformed input.  Kept for the benchmark's tracer
    until ROADMAP item 8."""
    slot = _TAG_SLOTS.get(tag) if isinstance(tag, str) else None
    if (
        slot is None
        or not isinstance(digest, bytes) or not isinstance(message, bytes) or not isinstance(opening, bytes)
        or len(digest) != DIGEST_BYTES or len(opening) != OPENING_BYTES
    ):
        return False
    return hmac.compare_digest(digest, _digest(slot, opening, message))


def expand_mask(seed: bytes, n: int, width: int) -> tuple[int, ...]:
    """SHAKE-256(seed)'s first width·n bytes as n little-endian words.
    ValueError unless seed is 32 bytes and width·n is positive.  Kept for
    the benchmark's tracer until ROADMAP item 8."""
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES or width * n < 1:
        raise ValueError(f"a mask needs a {SEED_BYTES}-byte seed and a positive length")
    stream = hashlib.shake_256(seed).digest(width * n)
    return tuple(int.from_bytes(stream[i : i + width], "little") for i in range(0, width * n, width))


def tuple_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Word-wise sum in GF(2^8w), XOR, of two equal-length tuples of words
    in [0, 2^32); ValueError otherwise.  Kept for the benchmark's tracer
    until ROADMAP item 8."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for x in (*a, *b):
        if not isinstance(x, int) or not 0 <= x < 1 << 32:
            raise ValueError(f"not a word of at most 32 bits: {x!r}")
    return tuple(x ^ y for x, y in zip(a, b))


def tuple_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Word-wise difference, in characteristic 2 the sum.  Kept for the
    benchmark's tracer until ROADMAP item 8."""
    return tuple_add(a, b)


def mask_values(seed: bytes, *values: bytes) -> tuple[bytes, ...]:
    """Each value masked under one seed: the value XOR SHAKE-256(seed) read
    once to the first value's length, as one integer.  Unchecked: the seed
    must be 32 bytes and the values share one positive length."""
    length = len(values[0])
    mask = int.from_bytes(hashlib.shake_256(seed).digest(length), "little")
    masked = ()
    for value in values:
        masked += ((int.from_bytes(value, "little") ^ mask).to_bytes(length, "little"),)
    return masked


def mask_rounds(seeds: Sequence[bytes], *values: bytes) -> tuple[bytes, ...]:
    """Each value masked under one seed per round: a value joins one equal
    share per seed, and share i is masked under seeds[i] as mask_values
    masks it, by one XOR of the whole value against the seeds' SHAKE-256
    streams, each read to a share's length, joined.  Unchecked: every seed
    must be 32 bytes and the values share one length, a positive multiple
    of len(seeds)."""
    length = len(values[0])
    share = length // len(seeds)
    mask = int.from_bytes(b"".join(map(methodcaller("digest", share), map(hashlib.shake_256, seeds))), "little")
    return tuple([(int.from_bytes(value, "little") ^ mask).to_bytes(length, "little") for value in values])
