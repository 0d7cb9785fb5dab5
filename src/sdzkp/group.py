"""Stabilizer chains for permutation subgroups given by generators.

Implements the deterministic Schreier-Sims algorithm.  A BSGS (base and
strong generating set) supports exact membership tests, the group order,
uniform random sampling, and bounded enumeration.  All of this is exact
group theory; nothing here is probabilistic.

The giant groups S_n and A_n skip Schreier-Sims: a transitive group that
contains an element with a cycle of prime length p, n/2 < p < n-2, is
primitive and by Jordan's theorem contains A_n (Seress, Permutation Group
Algorithms, 2003, section 10.2).  Such an element is searched for by
product replacement seeded from a hash of the generators, so the search is
deterministic too; when it succeeds no chain is stored (membership is a
parity check, sampling an in-place shuffle), and when it fails nothing is
claimed and Schreier-Sims runs.

Intended for desk-scale degrees (up to a few hundred points).  For degree
at most 256 the chain stores permutations as 256-byte translation tables
(identity beyond the degree) so composition is bytes.translate; above that,
as image tuples.  This raw form is also what a proof round composes, masks
and unmasks (BSGS.ops, and BSGS.contains takes it), and what
BSGS.sample_uniform returns.  A round masks an element's words (ops.words):
a table's first n bytes, or the tuple's n u32 words; ops.from_words reads
them back and ops.differing_words counts the words two values differ in.
Which of the two forms a degree gets, and so a word's width, is decided
only here, by word_width, and each form's words are written and read only
by its ops.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import groupby, permutations
from math import factorial, isqrt, prod
from operator import itemgetter
from random import Random
from typing import Sequence

from .perm import Permutation, compose_images, invert_images

_BYTES_IDENT = bytes(range(256))


class _ByteOps:
    """Permutations as padded 256-byte tables; compose via C-level translate.

    then(p, a) is the product a∘p, its factors named in the order they act:
    for tables that is bytes.translate itself, so no product calls a Python
    function.  words(a) is a's n images, one byte each: the table's first n
    bytes, sliced by a C-level getter; from_words(d) takes them back, or
    None unless they are a permutation of 0..n-1.  differing_words(a, b)
    counts the bytes in which two values differ.  encode and from_words pad
    n images with the identity's bytes past n, sliced once here."""

    __slots__ = ("degree", "ident", "words", "_pad")

    def __init__(self, degree: int):
        self.degree = degree
        self.ident = _BYTES_IDENT
        self.words = itemgetter(slice(0, degree))
        self._pad = _BYTES_IDENT[degree:]

    def encode(self, images):
        return bytes(images) + self._pad

    def decode(self, raw):
        return tuple(raw[: self.degree])

    then = staticmethod(bytes.translate)

    @staticmethod
    def inv(a):
        # a table maps a[i] back to i: the inverse, as one C call
        return bytes.maketrans(a, _BYTES_IDENT)

    def from_words(self, d: bytes):
        table = d + self._pad
        # maketrans maps each image back to the last position holding it, so
        # composing gives the identity iff no image repeats; an image at or
        # past n repeats one of the padding's.
        return table if table.translate(bytes.maketrans(table, _BYTES_IDENT)) == _BYTES_IDENT else None

    @staticmethod
    def differing_words(a: bytes, b: bytes) -> int:
        return len(a) - _xor(a, b).count(0)


class _TupleOps:
    """Plain image tuples, for degrees past the byte-table limit.  words(a)
    is a's n images as u32 LE words, which from_words(d) takes back, or None
    unless their set is the degree's points; both use the degree's word
    format, and from_words that set, each built once here.
    differing_words(a, b) counts the u32 words in which two values differ."""

    __slots__ = ("degree", "ident", "_words", "_points")

    def __init__(self, degree: int):
        self.degree = degree
        self.ident = tuple(range(degree))
        self._words = struct.Struct(f"<{degree}I")
        self._points = frozenset(self.ident)

    def __reduce__(self):
        # a Struct does not pickle: copies and pickles rebuild both from the degree
        return _TupleOps, (self.degree,)

    def encode(self, images):
        return tuple(images)

    def decode(self, raw):
        return raw

    @staticmethod
    def then(p, a):
        return compose_images(a, p)

    inv = staticmethod(invert_images)

    def words(self, a) -> bytes:
        return self._words.pack(*a)

    def from_words(self, d: bytes):
        images = self._words.unpack(d)
        return images if set(images) == self._points else None

    @staticmethod
    def differing_words(a: bytes, b: bytes) -> int:
        x = _xor(a, b)
        if len(x) % 4:
            raise ValueError(f"{len(x)} bytes are not whole u32 words")
        # a word differs iff one of its four bytes does: OR the four byte planes into one
        planes = int.from_bytes(x[0::4], "little") | int.from_bytes(x[1::4], "little")
        planes |= int.from_bytes(x[2::4], "little") | int.from_bytes(x[3::4], "little")
        return len(x) // 4 - planes.to_bytes(len(x) // 4, "little").count(0)


def _xor(a: bytes, b: bytes) -> bytes:
    """a XOR b, byte by byte: the nonzero bytes are where the two differ.
    ValueError unless both are one length."""
    if len(a) != len(b):
        raise ValueError(f"values of {len(a)} and {len(b)} bytes cannot be compared word by word")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def word_width(degree: int) -> int:
    """Bytes per image in the words a round masks (ops.words) at this degree:
    1 up to 256 points, where an element is a byte table, and 4 (u32 words)
    past that, where it is an image tuple.  The one statement of that split."""
    return 1 if degree <= 256 else 4


def make_ops(degree: int):
    """The raw form of permutations of this degree: byte tables while
    word_width is 1, image tuples past that."""
    return _ByteOps(degree) if word_width(degree) == 1 else _TupleOps(degree)


class _Level:
    """One level of the chain: a base point with its orbit data.

    gens generate the subgroup fixing all base points of earlier levels:
    an insertion-ordered set, each generator a key mapped to None.
    transversal maps each orbit point y to a representative u with
    u(point) == y; inv_transversal holds the inverses.  verified remembers
    Schreier generators already sifted to identity; orbits only ever extend
    and representatives never change, so that fact stays true as deeper
    levels grow.
    """

    __slots__ = ("point", "gens", "transversal", "inv_transversal", "verified", "reps")

    def __init__(self, point: int):
        self.point = point
        self.gens = {}
        self.transversal = {}
        self.inv_transversal = {}
        self.verified = set()
        self.reps = None


def _sift(levels: list[_Level], then, p, start: int = 0):
    """Strip p through levels[start:]; returns (residue, index of the level
    whose orbit misses p's image, or len(levels)).  then is ops.then."""
    for idx in range(start, len(levels)):
        level = levels[idx]
        y = p[level.point]
        if y == level.point:
            continue
        u_inv = level.inv_transversal.get(y)
        if u_inv is None:
            return p, idx
        p = then(p, u_inv)
    return p, len(levels)


class _ChainBuilder:
    def __init__(self, ops):
        self.ops = ops
        self.degree = ops.degree
        self.levels: list[_Level] = []

    def _new_level_for(self, g) -> None:
        point = next(i for i in range(self.degree) if g[i] != i)
        self.levels.append(_Level(point))

    def place_generator(self, g) -> None:
        """Insert an input generator at every level whose base prefix it fixes."""
        j = 0
        while True:
            if j == len(self.levels):
                self._new_level_for(g)
            level = self.levels[j]
            level.gens[g] = None
            if g[level.point] != level.point:
                return
            j += 1

    def extend_orbit(self, level: _Level) -> None:
        """Grow the orbit closure under the current generators.

        Existing representatives are kept untouched so earlier Schreier
        checks against them remain valid."""
        ops = self.ops
        then, inv = ops.then, ops.inv
        t = level.transversal
        if not t:
            t[level.point] = ops.ident
            level.inv_transversal[level.point] = ops.ident
        queue = list(t)
        while queue:
            y = queue.pop()
            u_y = t[y]
            for g in level.gens:
                z = g[y]
                if z not in t:
                    u_z = then(u_y, g)
                    t[z] = u_z
                    level.inv_transversal[z] = inv(u_z)
                    queue.append(z)

    def complete_level(self, i: int) -> None:
        """Make level i satisfy the strong generating property.

        Precondition: all deeper levels already satisfy it.  Every Schreier
        generator of level i is sifted through the deeper chain; a nontrivial
        residue is a new strong generator for the deeper levels, which are
        then re-completed before continuing.
        """
        level = self.levels[i]
        self.extend_orbit(level)
        then = self.ops.then
        ident = self.ops.ident
        verified = level.verified
        # level.gens and hence this orbit never change inside this call;
        # new generators only ever land at deeper levels.  A pair once
        # handled stays handled: its Schreier generator is a member of the
        # deeper group from then on (the residue was added as a generator),
        # and deeper groups only grow.
        for y in list(level.transversal):
            u_y = level.transversal[y]
            for g in level.gens:
                key = (y, g)
                if key in verified:
                    continue
                verified.add(key)
                w = then(u_y, g)
                z = g[y]
                if w == level.transversal[z]:
                    continue
                sgen = then(w, level.inv_transversal[z])
                residue, j = _sift(self.levels, then, sgen, i + 1)
                if residue == ident:
                    continue
                if j == len(self.levels):
                    self._new_level_for(residue)
                for l in range(i + 1, j + 1):
                    self.levels[l].gens[residue] = None
                for l in range(j, i, -1):
                    self.complete_level(l)

    def run(self, gens) -> list[_Level]:
        for g in gens:
            self.place_generator(g)
        for i in reversed(range(len(self.levels))):
            self.complete_level(i)
        for level in self.levels:
            level.reps = [level.transversal[y] for y in sorted(level.transversal)]
        return self.levels


# Below degree 8 no prime lies strictly between n/2 and n-2.
_GIANT_MIN_DEGREE = 8
# Product replacement: state size, unchecked warm-up steps, checked steps.
_PR_SLOTS = 10
_PR_WARMUP = 50
_PR_TRIES = 250


def _cycle_lengths(p, degree: int) -> list[int]:
    """The lengths of p's cycles, in the order of their smallest points."""
    seen = [False] * degree
    lengths = []
    for start in range(degree):
        if seen[start]:
            continue
        length = 1
        x = p[start]
        while x != start:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return lengths


def _is_odd(p, degree: int) -> bool:
    return (degree - len(_cycle_lengths(p, degree))) % 2 == 1


def _is_transitive(gens, degree: int) -> bool:
    seen = bytearray(degree)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        y = stack.pop()
        for g in gens:
            z = g[y]
            if not seen[z]:
                seen[z] = 1
                reached += 1
                stack.append(z)
    return reached == degree


def _jordan_primes(degree: int) -> frozenset[int]:
    """The primes p with degree/2 < p < degree - 2, by a sieve below degree."""
    sieve = bytearray([1]) * degree
    for d in range(2, isqrt(degree) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, degree, d)))
    return frozenset(p for p in range(degree // 2 + 1, degree - 2) if sieve[p])


def _certify_giant(ops, gens: tuple[Permutation, ...]) -> bool:
    """True only if <gens> provably contains A_n.

    The proof is transitivity plus one element with a cycle of prime length
    p, n/2 < p < n-2.  Its other cycles are shorter than p, so a power of it
    is a p-cycle; a transitive group with a p-cycle for p > n/2 is primitive,
    and a primitive group with a p-cycle for p <= n-3 contains A_n (Jordan).
    False means only that no such element turned up within the try budget.
    The search is seeded from a hash of the generators, so equal generator
    lists always get the same answer.
    """
    degree = ops.degree
    raw = [ops.encode(g.images) for g in gens]
    if not raw or degree < _GIANT_MIN_DEGREE or not _is_transitive(raw, degree):
        return False
    primes = _jordan_primes(degree)
    seed = hashlib.sha256(b"".join(g.to_bytes() for g in gens)).digest()
    rng = Random(int.from_bytes(seed, "big"))
    then, getrandbits = ops.then, rng.getrandbits
    slots = [raw[i % len(raw)] for i in range(max(_PR_SLOTS, len(raw)))]
    # Each step's pair is rng.sample(range(count), 2), drawn with the
    # getrandbits calls it makes.  Up to 21 slots it walks a pool: the second
    # pick is below count - 1, and the pool's last slot stands in for the
    # first pick.  Past 21 it walks a set: the second pick is redrawn until it
    # differs from the first.
    count = len(slots)
    pool = count <= 21
    second = count - 1 if pool else count
    bits, second_bits = count.bit_length(), second.bit_length()
    acc = ops.ident
    for step in range(_PR_WARMUP + _PR_TRIES):
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        j = getrandbits(second_bits)
        while j >= second or (j == i and not pool):
            j = getrandbits(second_bits)
        if j == i:
            j = count - 1
        slots[i] = then(slots[j], slots[i]) if rng.random() < 0.5 else then(slots[i], slots[j])
        acc = then(slots[i], acc)
        if step >= _PR_WARMUP and not primes.isdisjoint(_cycle_lengths(acc, degree)):
            return True
    return False


class BSGS:
    """Base and strong generating set for the subgroup the generators span.

    Construct via build_bsgs().  A certified giant keeps no chain (levels is
    None) and answers in closed form: it is A_n if alternating, else S_n.
    Immutable once built, so instances are safe to share across threads.
    ops is the raw form of its elements (make_ops), which contains also
    takes and sample_uniform returns.  generators are the generators as
    given to build_bsgs, identity entries and duplicates included.
    """

    def __init__(self, ops, generators: tuple[Permutation, ...], levels: list[_Level] | None,
                 alternating: bool = False):
        self.ops = ops
        self.generators = generators
        self._levels = levels
        self._alternating = alternating
        if levels is None:
            n = ops.degree
            self.base = tuple(range(n - (2 if alternating else 1)))
            # sample_uniform's levels in runs: (levels, k) for each maximal
            # run of levels i whose range n - i has bit length k.
            runs = [list(run) for _, run in groupby(self.base, lambda i: (n - i).bit_length())]
            self._draws = tuple((range(run[0], run[-1] + 1), (n - run[0]).bit_length()) for run in runs)
            # sample_uniform's start: it swaps images in a copy of this list
            self._images = list(range(n))
            self._order = factorial(n) // (2 if alternating else 1)
        else:
            self.base = tuple(level.point for level in levels)
            # Level i's draw in sample_uniform: (its representatives, their
            # count, the count's bit length).
            self._draws = tuple((level.reps, len(level.reps), len(level.reps).bit_length()) for level in levels)
            self._order = prod(len(level.transversal) for level in levels)

    @property
    def degree(self) -> int:
        return self.ops.degree

    @property
    def giant(self) -> str:
        """'S_n' or 'A_n' when |H| is n! or n!/2, else 'no'."""
        full = factorial(self.degree)
        return "S_n" if self._order == full else "A_n" if 2 * self._order == full else "no"

    def contains(self, p) -> bool:
        """Exact membership test: parity on a certified giant, else a sift.
        p is a Permutation of the group's degree, or an element already in
        the raw form of self.ops (as a proof round unmasks one)."""
        if isinstance(p, Permutation):
            if p.n != self.degree:
                raise ValueError(f"degree mismatch: group acts on {self.degree} points, element on {p.n}")
            p = self.ops.encode(p.images)
        if self._levels is None:
            return not (self._alternating and _is_odd(p, self.degree))
        residue, _ = _sift(self._levels, self.ops.then, p)
        return residue == self.ops.ident

    def order(self) -> int:
        """|H|, the product of the orbit sizes along the chain."""
        return self._order

    def sample_uniform(self, rng: Random):
        """Uniformly random element, in the raw form of self.ops (the form a
        proof round composes and contains takes; a caller that needs a
        Permutation wraps ops.decode of it): one uniform coset representative
        per level.  Each level's index is drawn with the getrandbits calls
        rng.randrange(m) makes for its m choices, so seeded draws and the rng
        state after them match it exactly."""
        getrandbits = rng.getrandbits
        if self._levels is None:
            # Level i draws y in [i, n): y = i + r with r < n - i, so testing
            # y < n is randrange(n - i)'s test, and k is the same for a whole
            # run of levels.  Level i's representatives are (i y) for S_n and
            # (i y z) for A_n; multiplying by one on the right rotates those
            # positions.
            n = self.ops.degree
            images = self._images.copy()
            if self._alternating:
                for levels, k in self._draws:
                    for i in levels:
                        y = i + getrandbits(k)
                        while y >= n:
                            y = i + getrandbits(k)
                        if y != i:  # the representative for y == i is the identity
                            z = n - 1 if y != n - 1 else n - 2
                            images[i], images[y], images[z] = images[y], images[z], images[i]
            else:
                for levels, k in self._draws:
                    for i in levels:
                        y = i + getrandbits(k)
                        while y >= n:
                            y = i + getrandbits(k)
                        images[i], images[y] = images[y], images[i]
            return self.ops.encode(images)
        then = self.ops.then
        acc = None
        for reps, m, k in self._draws:
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            acc = reps[r] if acc is None else then(reps[r], acc)
        return acc if acc is not None else self.ops.ident

    def elements(self, limit: int) -> list[Permutation]:
        """All group elements, in a fixed deterministic order.

        Raises ValueError if the group order exceeds limit; call sites must
        opt in to the exponential cost explicitly.
        """
        if self._order > limit:
            raise ValueError(f"group order {self._order} exceeds enumeration limit {limit}")
        if self._levels is None:
            return [p for p in map(Permutation, permutations(range(self.degree))) if self.contains(p)]
        then = self.ops.then
        elems = [self.ops.ident]
        for level in reversed(self._levels):
            elems = [then(e, u) for u in level.reps for e in elems]
        return [Permutation(self.ops.decode(e)) for e in elems]


def _normalize(generators: Sequence[Permutation]) -> tuple[int, tuple[Permutation, ...]]:
    if not generators:
        raise ValueError("at least one generator is required")
    for g in generators:
        if not isinstance(g, Permutation):
            raise TypeError(f"expected Permutation, got {type(g).__name__}")
    degree = generators[0].n
    seen = set()
    kept = []
    for g in generators:
        if g.n != degree:
            raise ValueError(f"generator degree mismatch: {g.n} vs {degree}")
        if g.images == tuple(range(degree)) or g.images in seen:
            continue
        seen.add(g.images)
        kept.append(g)
    return degree, tuple(kept)


def build_bsgs(generators: Sequence[Permutation]) -> BSGS:
    """Build a stabilizer chain for the subgroup generated by `generators`.

    Deterministic given the generator list.  The group keeps the list as
    given; the build ignores identity generators and merges duplicates, so
    an all-identity list yields the trivial group.  S_n and A_n, once
    certified, keep no chain and answer in closed form; every other group
    goes through Schreier-Sims.
    """
    given = tuple(generators)
    degree, gens = _normalize(given)
    ops = make_ops(degree)
    if _certify_giant(ops, gens):
        return BSGS(ops, given, None, alternating=not any(_is_odd(g.images, degree) for g in gens))
    raw = [ops.encode(g.images) for g in gens]
    levels = _ChainBuilder(ops).run(raw)

    # The chain invariant: every input and strong generator strips to the
    # identity.  Each distinct generator is sifted once.
    for g in dict.fromkeys([*raw, *(g for level in levels for g in level.gens)]):
        if _sift(levels, ops.then, g)[0] != ops.ident:
            raise RuntimeError("stabilizer chain failed self-check")
    return BSGS(ops, given, levels)
