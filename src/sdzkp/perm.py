"""Permutations of {0, .., n-1} in one-line notation, with the Hamming metric.

The one-line form of a permutation p is the tuple (p(0), .., p(n-1)).
Composition is function composition: compose(a, b) applies b first, then a.
The Hamming distance between two permutations of the same degree counts the
positions where their one-line forms differ; it is bi-invariant and never 1.
A permutation's file form (to_bytes, for instance and witness files) is its
degree n as a u32 LE count, then its n images as u32 LE words; unpack_from
is the one reader of that form.
"""

from __future__ import annotations

import struct
from math import ceil, log
from operator import itemgetter, ne
from random import Random

# The file form's degree is a u32; anything near that bound is nonsense
# here, so the reader caps the degree it allocates for.
MAX_TUPLE_LENGTH = 1 << 20


def compose_images(a, b):
    """One-line form of a∘b for raw image tuples (b applied first)."""
    # itemgetter gathers every image in one C loop, several times faster than
    # map(a.__getitem__, b); given a single index it returns a bare item.
    return itemgetter(*b)(a) if len(b) > 1 else tuple(map(a.__getitem__, b))


def invert_images(a):
    """One-line form of a^-1 for a raw image tuple."""
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


_PLAIN_INTS = frozenset((int, bool))


class Permutation:
    """An immutable permutation stored as its one-line image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        object.__setattr__(self, "images", images)
        self.__post_init__()

    # sdzbench/spans.py times every checked construction by wrapping this
    # method under this name.
    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        # C-level accept path: plain ints (or bools) that sort to 0..n-1.
        # Anything else, int subclasses included, takes the loop below, which
        # accepts or names the first offending image.
        if n and set(map(type, images)) <= _PLAIN_INTS and sorted(images) == list(range(n)):
            return
        if n == 0:
            raise ValueError("permutation degree must be at least 1")
        seen = bytearray(n)
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"image {v!r} out of range for degree {n}")
            if seen[v]:
                raise ValueError(f"image {v} repeated; not a bijection")
            seen[v] = 1

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a bijection (a product or inverse of
        valid permutations, or a raw form the group's ops already checked to
        be one, as analysis.extract_witness wraps what protocol.read_round
        shows) unchecked; other outside input goes through __init__."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to {name!r}: Permutation is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, never __setattr__
        return Permutation, (self.images,)

    def __eq__(self, other):
        return self.images == other.images if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @property
    def n(self) -> int:
        return len(self.images)

    def to_bytes(self) -> bytes:
        """Canonical encoding: the degree n as u32 LE, then the images as u32 LE."""
        n = len(self.images)
        return struct.pack(f"<I{n}I", n, *self.images)

    @classmethod
    def unpack_from(cls, data: bytes, offset: int = 0) -> tuple["Permutation", int]:
        """Decode one permutation starting at offset; returns (perm, next
        offset).  ValueError on a degree of 0 or above MAX_TUPLE_LENGTH, on
        truncation, and on images that are not a permutation."""
        if len(data) - offset < 4:
            raise ValueError("truncated permutation: missing degree")
        (n,) = struct.unpack_from("<I", data, offset)
        if n == 0 or n > MAX_TUPLE_LENGTH:
            raise ValueError(f"unreasonable permutation degree {n}")
        end = offset + 4 + 4 * n
        if len(data) < end:
            raise ValueError("truncated permutation: missing images")
        return cls(struct.unpack_from(f"<{n}I", data, offset + 4)), end

    @classmethod
    def from_bytes(cls, data: bytes) -> "Permutation":
        """The one permutation data encodes, with no bytes after it."""
        perm, end = cls.unpack_from(data)
        if end != len(data):
            raise ValueError("trailing bytes after permutation")
        return perm


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def _check_same_degree(a: Permutation, b: Permutation) -> None:
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a∘b, i.e. i -> a(b(i)). Degrees must match."""
    _check_same_degree(a, b)
    return Permutation._trusted(compose_images(a.images, b.images))


def inverse(a: Permutation) -> Permutation:
    return Permutation._trusted(invert_images(a.images))


def hamming(a: Permutation, b: Permutation) -> int:
    """Number of points where the one-line forms differ. Never equals 1."""
    _check_same_degree(a, b)
    return sum(map(ne, a.images, b.images))


def _shuffle(x: list, rng: Random) -> None:
    """rng.shuffle(x), drawn with the getrandbits calls its _randbelow makes
    (CPython 3.10–3.13): the same order and the same rng state after."""
    getrandbits = rng.getrandbits
    for m in range(len(x), 1, -1):  # swap x[m - 1] with a uniform x[j], j < m
        b = m.bit_length()
        j = getrandbits(b)
        while j >= m:
            j = getrandbits(b)
        x[m - 1], x[j] = x[j], x[m - 1]


def _sample(n: int, k: int, rng: Random) -> list[int]:
    """rng.sample(range(n), k).  Its pool branch (n at most the stdlib's set
    size) is inlined here, with the getrandbits calls rng.sample makes
    (CPython 3.10–3.13); past that size rng.sample itself draws."""
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        picked = []
        for m in range(n, n - k, -1):
            b = m.bit_length()
            j = getrandbits(b)
            while j >= m:
                j = getrandbits(b)
            picked.append(pool[j])
            pool[j] = pool[m - 1]
        return picked
    return rng.sample(range(n), k)


def random_perm(n: int, rng: Random) -> Permutation:
    """Uniformly random permutation of degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    images = list(range(n))
    _shuffle(images, rng)
    return Permutation._trusted(tuple(images))


def random_support_perm(n: int, m: int, rng: Random) -> Permutation:
    """Uniformly random permutation of degree n moving exactly m points.

    m == 0 yields the identity.  m == 1 is impossible (a bijection cannot
    move a single point) and raises ValueError, as does m > n or m < 0.
    The moved points are a uniform m-subset and the action on them is a
    uniform derangement, found by rejection (about e tries on average).
    """
    if m == 0:
        return identity(n)
    if m == 1:
        raise ValueError("no permutation moves exactly one point")
    if m < 0 or m > n:
        raise ValueError(f"support size {m} out of range for degree {n}")
    points = _sample(n, m, rng)
    values = points[:]
    while True:
        _shuffle(values, rng)
        if all(p != v for p, v in zip(points, values)):
            break
    images = list(range(n))
    for p, v in zip(points, values):
        images[p] = v
    return Permutation._trusted(tuple(images))  # the identity with its moved points permuted among themselves
