"""Hash-based commitments and the seeded masking used to blind image tuples.

Commitments are SHA3-256 over (ASCII tag || 32-byte opening || message),
hashed in place by commit and verify_commitment; the tag separates the
three commitment slots of a round.  Masks are drawn from SHAKE-256 keyed by
a 32-byte seed and consumed as little-endian u32 words, so masked tuples
live in (Z / 2^32)^n.  Tuple arithmetic packs each tuple into one integer,
a u32 word per 32-bit lane, and adds or subtracts all lanes at once with
carries kept inside each lane (Hacker's Delight, 2nd ed., section 2-18).
A round's mask is one such integer, read from SHAKE.  A masked tuple exists
only as its encoding, the committed message and wire form, which
_is_tuple_encoding tests.  apply_mask writes it from n u32 words (4n
bytes, as encode_words writes them); _unmask gives them back from an
encoding whose form protocol.slot_opens tested.  _mask_stream is the one
seed check and the one mask read; _add_lanes and _sub_lanes are the one
lane sum and difference.  decode_tuple_from is the one length-prefix
parser, for the permutations in instance and witness files.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from functools import lru_cache
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


def _mask_stream(seed: bytes, n: int) -> bytes:
    if n < 1 or not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ValueError(f"a mask needs a {SEED_BYTES}-byte seed and a positive length")
    return hashlib.shake_256(seed).digest(4 * n)


def expand_mask(seed: bytes, n: int) -> tuple[int, ...]:
    """First 4n bytes of SHAKE-256(seed) as n little-endian u32 words."""
    return struct.unpack(f"<{n}I", _mask_stream(seed, n))


@lru_cache(maxsize=8)  # bounded: a decoded tuple's length comes from a peer
def _lanes(n: int) -> tuple[struct.Struct, int, int, int]:
    """The codec of n u32 words and three lane masks of the packed integer:
    every bit, each lane's top bit, each lane's low 31 bits."""
    every = (1 << (32 * n)) - 1
    high = int.from_bytes(b"\x00\x00\x00\x80" * n, "little")
    return struct.Struct(f"<{n}I"), every, high, every ^ high


def _packed(codec: struct.Struct, t: tuple[int, ...]) -> int:
    try:
        return int.from_bytes(codec.pack(*t), "little")
    except struct.error as exc:
        raise ValueError(f"need {codec.size // 4} u32 words: {exc}") from None


def _add_lanes(lanes: tuple[struct.Struct, int, int, int], x: int, y: int) -> bytes:
    codec, _, high, low = lanes
    s = ((x & low) + (y & low)) ^ ((x ^ y) & high)
    return s.to_bytes(codec.size, "little")


def _sub_lanes(lanes: tuple[struct.Struct, int, int, int], x: int, y: int) -> bytes:
    codec, every, high, low = lanes
    d = ((x | high) - (y & low)) ^ ((x ^ y ^ every) & high)
    return d.to_bytes(codec.size, "little")


def tuple_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise sum mod 2^32 of two equal-length tuples of u32 words
    (integers in [0, 2^32)); ValueError on any other entry."""
    lanes = _lanes(len(a))  # _packed refuses a b of another length
    return lanes[0].unpack(_add_lanes(lanes, _packed(lanes[0], a), _packed(lanes[0], b)))


def tuple_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise difference mod 2^32 of two equal-length tuples of u32
    words (integers in [0, 2^32)); ValueError on any other entry."""
    lanes = _lanes(len(a))  # _packed refuses a b of another length
    return lanes[0].unpack(_sub_lanes(lanes, _packed(lanes[0], a), _packed(lanes[0], b)))


def apply_mask(seed: bytes, n: int, *words: bytes) -> tuple[bytes, ...]:
    """encode_tuple(tuple_add(w, expand_mask(seed, n))) for each tuple w,
    given as encode_words(w), from one SHAKE draw.  Each must be n u32 words,
    4n bytes of any values (ValueError otherwise); all get the same mask, and
    each lane sum goes straight into its encoding."""
    lanes = _lanes(n)
    mask = int.from_bytes(_mask_stream(seed, n), "little")
    prefix = n.to_bytes(4, "little")
    masked = []
    for w in words:
        if len(w) != lanes[0].size:
            raise ValueError(f"need {n} u32 words, got {len(w)} bytes")
        masked.append(prefix + _add_lanes(lanes, int.from_bytes(w, "little"), mask))
    return tuple(masked)


def _unmask(z: bytes, seed: bytes, n: int) -> bytes:
    """encode_words(tuple_sub(decode_tuple(z), expand_mask(seed, n))) for a
    z taken as canonical (_is_tuple_encoding(z, n), which the caller tests):
    one SHAKE read (ValueError unless seed is one _mask_stream takes), one
    lane subtraction."""
    mask = int.from_bytes(_mask_stream(seed, n), "little")
    return _sub_lanes(_lanes(n), int.from_bytes(z[4:], "little"), mask)


def differing_words(a: bytes, b: bytes) -> int:
    """The count of nonzero entries of tuple_sub(decode_tuple(a), decode_tuple(b))
    for equal-length encodings: the nonzero lanes of a ^ b, as a u32
    difference is 0 iff a ^ b is."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    _, _, high, low = _lanes(-(-len(a) // 4))  # a trailing partial word counts as one
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return ((((x & low) + low) | x) & high).bit_count()


def encode_tuple(t: tuple[int, ...]) -> bytes:
    """Length-prefixed canonical encoding: count u32 LE, then entries u32 LE."""
    n = len(t)
    return struct.pack(f"<I{n}I", n, *t)


def encode_words(t: tuple[int, ...]) -> bytes:
    """encode_tuple(t) without its length prefix: the entries as u32 LE words."""
    return struct.pack(f"<{len(t)}I", *t)


def _is_tuple_encoding(z: bytes, n: int) -> bool:
    """Whether z is encode_tuple of n u32 words: bytes, 4 + 4n long, prefix n."""
    return isinstance(z, bytes) and len(z) == 4 + 4 * n and z[:4] == n.to_bytes(4, "little")


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
