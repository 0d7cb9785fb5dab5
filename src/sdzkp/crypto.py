"""Hash-based commitments and the seeded masking used to blind a round's values.

Commitments are SHA3-256 over (ASCII tag || 32-byte opening || message),
hashed in place by commit and verify_commitment; the tag separates the
three commitment slots of a round.  A masked value is the n words of a raw
group element (group.word_width: w = 1 byte per image up to degree 256, 4
past it) plus a mask of n words read from SHAKE-256 keyed by a 32-byte
seed, the sum taken in GF(2^8w), whose addition is XOR.  So a masked value
is exactly w·n bytes, with no prefix, and every byte string of that length
is one.  apply_mask is one XOR of each whole value, as one integer, with
the mask read to the value's length; XOR is its own inverse, so the same
call unmasks.  _mask_stream is the one seed check and the one mask read.
This module sees only bytes: how a group element is written as words, and
how the words of two values are compared, is group's (ops.words,
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


_TAG_BYTES = {tag: tag.encode("ascii") for tag in COMMIT_TAGS}


def commit(message: bytes, tag: str, rng: Random) -> tuple[bytes, bytes]:
    """Commit to message under the given slot tag; returns (digest, opening)."""
    prefix = _TAG_BYTES.get(tag)
    if prefix is None:
        raise ValueError(f"unknown commitment tag {tag!r}")
    # rng.randbytes(OPENING_BYTES) without its Python frame: the same single
    # getrandbits call, so seeded openings and the rng state after match it.
    opening = rng.getrandbits(8 * OPENING_BYTES).to_bytes(OPENING_BYTES, "little")
    return hashlib.sha3_256(prefix + opening + message).digest(), opening


def verify_commitment(digest: bytes, message: bytes, tag: str, opening: bytes) -> bool:
    """Check an opened commitment: digest must be commit's hash of the same
    tag, opening and message.  Total: never raises on malformed input; an
    unknown or non-str tag, a value that is not bytes, and a digest or
    opening of the wrong length are refused before anything is hashed."""
    prefix = _TAG_BYTES.get(tag) if isinstance(tag, str) else None
    if (
        prefix is None
        or not isinstance(digest, bytes) or not isinstance(message, bytes) or not isinstance(opening, bytes)
        or len(digest) != DIGEST_BYTES or len(opening) != OPENING_BYTES
    ):
        return False
    return hmac.compare_digest(digest, hashlib.sha3_256(prefix + opening + message).digest())


def _mask_stream(seed: bytes, length: int) -> bytes:
    if length < 1 or not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ValueError(f"a mask needs a {SEED_BYTES}-byte seed and a positive length")
    return hashlib.shake_256(seed).digest(length)


def expand_mask(seed: bytes, n: int, width: int) -> tuple[int, ...]:
    """The first width·n bytes of SHAKE-256(seed) as n little-endian words
    of `width` bytes: the mask apply_mask adds, word by word."""
    stream = _mask_stream(seed, width * n)
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
    mask = int.from_bytes(_mask_stream(seed, length), "little")
    masked = []
    for value in values:
        if len(value) != length:
            raise ValueError(f"values of {length} and {len(value)} bytes cannot share a mask")
        masked.append((int.from_bytes(value, "little") ^ mask).to_bytes(length, "little"))
    return tuple(masked)


def fresh_seed(rng: Random) -> bytes:
    """rng.randbytes(SEED_BYTES), drawn with the one getrandbits call it makes."""
    return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "little")
