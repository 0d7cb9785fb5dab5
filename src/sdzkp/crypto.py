"""Hash-based commitments and the seeded masking used to blind a round's values.

Slot i (0, 1, 2) of a round is committed as SHA3-256 over (ASCII tag
COMMIT_TAGS[i] || 32-byte opening || message); _digest alone writes that
input.  commit commits a round's three slots in one call, drawing their
openings at once; opens checks one opened slot with the hash and a
constant-time compare only, for callers that fixed the types and lengths;
verify_commitment is the total check over it.  A masked value is the n
words of a raw group element (group.word_width: w = 1 byte per image up
to degree 256, 4 past it) plus a mask of n words read from SHAKE-256
keyed by a 32-byte seed, the sum taken in GF(2^8w), whose addition is
XOR.  So a masked value is exactly w·n bytes, with no prefix, and every
byte string of that length is one.  apply_mask, the one seed check and
mask read, XORs each whole value, as one integer, with the mask read to
its length; XOR is its own inverse, so the same call unmasks.  This
module sees only bytes: how an element is written as words, and how the
words of two values are compared, is group's (ops.words,
ops.differing_words).  expand_mask, tuple_add and tuple_sub are the plain
word-wise reference of apply_mask that tests compare it with (and
sdzbench/spans.py traces), the only code here that knows a word.
"""

from __future__ import annotations

import hashlib
import hmac
from random import Random

SEED_BYTES = 32
OPENING_BYTES = 32
DIGEST_BYTES = 32
COMMIT_TAGS = ("C1", "C2", "C3")

_C1, _C2, _C3 = _TAG_BYTES = tuple(tag.encode("ascii") for tag in COMMIT_TAGS)
_TAG_SLOTS = {tag: slot for slot, tag in enumerate(COMMIT_TAGS)}


def _digest(tag: bytes, opening: bytes, message: bytes) -> bytes:
    return hashlib.sha3_256(tag + opening + message).digest()


def commit(z1: bytes, z2: bytes, seed: bytes, rng: Random) -> tuple[tuple[bytes, bytes, bytes], bytes]:
    """Commit to a round's slots z1, z2 and seed (tags C1, C2, C3): their
    openings, and the 96 bytes of their digests in that order.  The openings
    are rng.randbytes(96) without its frame, one getrandbits(768) call: on
    random.Random, the words three randbytes(32) calls read, in order."""
    openings = rng.getrandbits(3 * 8 * OPENING_BYTES).to_bytes(3 * OPENING_BYTES, "little")
    o1, o2, o3 = openings[:OPENING_BYTES], openings[OPENING_BYTES:-OPENING_BYTES], openings[-OPENING_BYTES:]
    return (o1, o2, o3), _digest(_C1, o1, z1) + _digest(_C2, o2, z2) + _digest(_C3, o3, seed)


def opens(digest: bytes, slot: int, opening: bytes, message: bytes) -> bool:
    """Whether opening opens digest to message in slot 0, 1 or 2 (commit's
    order): the hash and a compare only, on bytes the caller has sized."""
    return hmac.compare_digest(digest, _digest(_TAG_BYTES[slot], opening, message))


def verify_commitment(digest: bytes, message: bytes, tag: str, opening: bytes) -> bool:
    """Check an opened commitment: digest must be commit's hash of the same
    tag, opening and message.  Total: never raises on malformed input; an
    unknown or non-str tag, a value that is not bytes, and a digest or
    opening of the wrong length are refused before anything is hashed."""
    slot = _TAG_SLOTS.get(tag) if isinstance(tag, str) else None
    if (
        slot is None
        or not isinstance(digest, bytes) or not isinstance(message, bytes) or not isinstance(opening, bytes)
        or len(digest) != DIGEST_BYTES or len(opening) != OPENING_BYTES
    ):
        return False
    return opens(digest, slot, opening, message)


def expand_mask(seed: bytes, n: int, width: int) -> tuple[int, ...]:
    """apply_mask's mask of width·n zero bytes, SHAKE-256(seed), as n little-endian words."""
    (stream,) = apply_mask(seed, bytes(width * n))
    return tuple(int.from_bytes(stream[i : i + width], "little") for i in range(0, width * n, width))


def tuple_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Word-wise sum in GF(2^8w) of two equal-length tuples of words of w <= 4
    bytes (integers in [0, 2^32)): each pair XORed.  ValueError on any other
    entry or on unequal lengths."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for x in (*a, *b):
        if not isinstance(x, int) or not 0 <= x < 1 << 32:
            raise ValueError(f"not a word of at most 32 bits: {x!r}")
    return tuple(x ^ y for x, y in zip(a, b))


def tuple_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Word-wise difference in GF(2^8w), which in characteristic 2 is the
    sum: tuple_add(a, b)."""
    return tuple_add(a, b)


def apply_mask(seed: bytes, *values: bytes) -> tuple[bytes, ...]:
    """Each value masked under seed, all from one SHAKE read: the value's n
    words of w bytes plus expand_mask(seed, n, w), as one XOR of the whole
    value with the stream read to its length.  The sum in GF(2^8w) is also
    the difference, so a masked value given back returns its words.  The
    values must share one length, at least 1, and the seed must be 32 bytes
    (ValueError otherwise)."""
    length = len(values[0]) if values else 0
    if length < 1 or not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ValueError(f"a mask needs a {SEED_BYTES}-byte seed and a positive length")
    mask = int.from_bytes(hashlib.shake_256(seed).digest(length), "little")
    masked = ()
    for value in values:
        if len(value) != length:
            raise ValueError(f"values of {length} and {len(value)} bytes cannot share a mask")
        masked += ((int.from_bytes(value, "little") ^ mask).to_bytes(length, "little"),)
    return masked


def fresh_seed(rng: Random) -> bytes:
    """rng.randbytes(SEED_BYTES), drawn with the one getrandbits call it makes."""
    return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "little")
