"""Hash-based commitments and the seeded masking used to blind a round's values.

Commitments are SHA3-256 over (ASCII tag || 32-byte opening || message),
hashed in place by commit and verify_commitment; the tag separates the
three commitment slots of a round.  A masked value is the n words of a raw
group element (group.word_width: w = 1 byte per image up to degree 256, 4
past it) plus a mask of n words read from SHAKE-256 keyed by a 32-byte
seed, the sum taken in GF(2^8w), whose addition is XOR.  So a masked value
is exactly w·n bytes, with no prefix, and every byte string of that length
is one.  apply_mask and _unmask are one XOR each of the whole value, as
one integer, with the mask read to the value's length; _mask_stream is the
one seed check and the one mask read.  differing_words counts the words two
values differ in.  expand_mask, tuple_add and tuple_sub are the plain
word-wise reference of that fast path.  decode_tuple_from is the one
length-prefix parser, for the permutations in instance and witness files.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from random import Random

SEED_BYTES = 32
OPENING_BYTES = 32
DIGEST_BYTES = 32
COMMIT_TAGS = ("C1", "C2", "C3")
# Tuples and permutations are serialized with a u32 length; anything near
# that bound is nonsense here, so decoders cap the length they allocate for.
MAX_TUPLE_LENGTH = 1 << 20


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
    value with the stream read to its length.  The values must share one
    length, at least 1 (ValueError otherwise)."""
    length = len(values[0]) if values else 0
    mask = int.from_bytes(_mask_stream(seed, length), "little")
    masked = []
    for value in values:
        if len(value) != length:
            raise ValueError(f"values of {length} and {len(value)} bytes cannot share a mask")
        masked.append((int.from_bytes(value, "little") ^ mask).to_bytes(length, "little"))
    return tuple(masked)


def _unmask(z: bytes, seed: bytes) -> bytes:
    """The words that z masks under seed: z minus the mask, which in GF(2^8w)
    is the same one XOR apply_mask makes (ValueError unless seed and z's
    length are ones _mask_stream takes)."""
    mask = _mask_stream(seed, len(z))
    return (int.from_bytes(z, "little") ^ int.from_bytes(mask, "little")).to_bytes(len(z), "little")


def differing_words(a: bytes, b: bytes, width: int) -> int:
    """The count of `width`-byte words in which two equal-length values
    differ: the nonzero words of a XOR b, which at width 1 are its nonzero
    bytes.  ValueError unless both are one length, a multiple of width."""
    if len(a) != len(b) or len(a) % width:
        raise ValueError(f"values of {len(a)} and {len(b)} bytes are not both words of {width} bytes")
    n = len(a) // width
    x = (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
    if width > 1:  # a word differs iff one of its bytes does: OR them into one
        folded = 0
        for i in range(width):
            folded |= int.from_bytes(x[i::width], "little")
        x = folded.to_bytes(n, "little")
    return n - x.count(0)


def encode_tuple(t: tuple[int, ...]) -> bytes:
    """Length-prefixed canonical encoding: count u32 LE, then entries u32 LE."""
    n = len(t)
    return struct.pack(f"<I{n}I", n, *t)


def encode_words(t: tuple[int, ...]) -> bytes:
    """encode_tuple(t) without its length prefix: the entries as u32 LE words."""
    return struct.pack(f"<{len(t)}I", *t)


def decode_tuple_from(data: bytes, offset: int = 0) -> tuple[tuple[int, ...], int]:
    """Decode one length-prefixed tuple; returns (tuple, next offset).
    ValueError on a count of 0 or above MAX_TUPLE_LENGTH, or on truncation."""
    if len(data) - offset < 4:
        raise ValueError("truncated tuple: missing length")
    (n,) = struct.unpack_from("<I", data, offset)
    if n == 0 or n > MAX_TUPLE_LENGTH:
        raise ValueError(f"unreasonable tuple length {n}")
    end = offset + 4 + 4 * n
    if len(data) < end:
        raise ValueError("truncated tuple: missing entries")
    return struct.unpack_from(f"<{n}I", data, offset + 4), end


def decode_tuple(data: bytes) -> tuple[int, ...]:
    t, end = decode_tuple_from(data, 0)
    if end != len(data):
        raise ValueError("trailing bytes after tuple")
    return t


def fresh_seed(rng: Random) -> bytes:
    """rng.randbytes(SEED_BYTES), drawn with the one getrandbits call it makes."""
    return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "little")
