"""Planted subgroup-distance instances, witness checks, and their files.

An instance is a permutation subgroup H (given by generators), a target
permutation g of the same degree, and a distance bound k.  A witness is an
element h of H with Hamming distance at most k from g.  Planted instances
are built backwards from a uniform h in H, so the planted witness sits at
distance exactly k.
"""

from __future__ import annotations

import hashlib
import os
import struct
from random import Random
from typing import NamedTuple

from .group import BSGS, build_bsgs
from .perm import Permutation, _shuffle, compose, hamming, random_perm, random_support_perm

INSTANCE_MAGIC = b"SDZ1"
WITNESS_MAGIC = b"SDW1"

PRESETS = ("general", "abelian2")

# Generator counts are capped, by the instance constructor and by the
# reader before it allocates, so a corrupt header cannot drive allocation
# and every instance that can be made can be read back; real instances use
# a handful of generators.
_MAX_GENS = 1 << 16


class SDPInstance:
    """Public statement: find h in H with d(h, target) <= max_distance.

    group is H, built from the statement's generators; degree and
    generators are read from it, so H has one definition.  Two instances are
    equal when their bound, target and generators are.  target_tables is
    (g, g^-1) in the raw form of group.ops, built with the instance: every
    round composes with g, and challenge 1 with g^-1.  Immutable, so it
    always holds target and its inverse.  Copies and pickles rebuild it from
    the constructor arguments.  _digest is instance_digest's cache: None
    until that function's first call on the instance fills it."""

    __slots__ = ("degree", "max_distance", "target", "generators", "group", "target_tables", "_digest")

    def __init__(self, target: Permutation, group: BSGS, max_distance: int):
        degree, generators = group.degree, group.generators
        if not 0 <= max_distance <= degree:
            raise ValueError(f"distance bound {max_distance} out of range for degree {degree}")
        if max_distance == 1:
            raise ValueError("distance bound 1 is unsatisfiable for permutations")
        if target.n != degree:
            raise ValueError("target degree mismatch")
        if len(generators) > _MAX_GENS:
            raise ValueError(f"unreasonable generator count {len(generators)}")
        ops = group.ops
        g = ops.encode(target.images)
        values = (degree, max_distance, target, generators, group, (g, ops.inv(g)), None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to {name!r}: SDPInstance is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return SDPInstance, (self.target, self.group, self.max_distance)

    def _statement(self) -> tuple:
        return self.max_distance, self.target, self.generators

    def __eq__(self, other):
        return self._statement() == other._statement() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._statement())


class Witness(NamedTuple):
    element: Permutation


def make_instance(target: Permutation, generators, max_distance: int) -> SDPInstance:
    """Assemble an instance from explicit parts, building the stabilizer chain."""
    return SDPInstance(target, build_bsgs(generators), max_distance)


def _abelian2_generators(n: int, num_gens: int, rng: Random) -> list[Permutation]:
    """Commuting involutions: products of random subsets of one fixed
    set of disjoint transpositions, so the group is elementary abelian
    of exponent 2."""
    if n < 2:
        raise ValueError("abelian2 preset needs degree at least 2")
    points = list(range(n))
    _shuffle(points, rng)
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(n // 2)]
    gens = []
    for _ in range(num_gens):
        while True:
            chosen = [p for p in pairs if rng.random() < 0.5]
            if chosen:
                break
        images = list(range(n))
        for a, b in chosen:
            images[a], images[b] = images[b], images[a]
        gens.append(Permutation._trusted(tuple(images)))  # the identity with pairs swapped
    return gens


def plant_instance(
    n: int,
    num_gens: int,
    k: int,
    rng: Random,
    preset: str = "general",
) -> tuple[SDPInstance, Witness]:
    """Sample an instance with a known witness at distance exactly k.

    h is uniform in H and the target is tau∘h for a random permutation tau
    moving exactly k points, so d(h, target) == k by left-invariance.
    k == 0 plants the trivial statement (target in H, allowed for testing);
    k == 1 is rejected, as is k > n.  num_gens must be at least 1.
    """
    if num_gens < 1:
        raise ValueError("need at least one generator")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    if k == 1 or not 0 <= k <= n:
        raise ValueError(f"distance {k} is not plantable at degree {n}")

    if preset == "general":
        gens = [random_perm(n, rng) for _ in range(num_gens)]
    else:
        gens = _abelian2_generators(n, num_gens, rng)
    group = build_bsgs(gens)
    h = Permutation._trusted(group.ops.decode(group.sample_uniform(rng)))
    tau = random_support_perm(n, k, rng)
    inst = SDPInstance(compose(tau, h), group, k)
    if hamming(h, inst.target) != k:
        raise RuntimeError("planted witness failed self-check")
    return inst, Witness(element=h)


def validate_witness(inst: SDPInstance, h: Permutation) -> bool:
    """True iff h is in H and within the distance bound of the target;
    ValueError (from BSGS.contains) when h has another degree."""
    return inst.group.contains(h) and hamming(h, inst.target) <= inst.max_distance


def instance_to_bytes(inst: SDPInstance) -> bytes:
    parts = [
        INSTANCE_MAGIC,
        struct.pack("<II", inst.degree, inst.max_distance),
        inst.target.to_bytes(),
        struct.pack("<I", len(inst.generators)),
    ]
    parts.extend(g.to_bytes() for g in inst.generators)
    return b"".join(parts)


def instance_from_bytes(data: bytes) -> SDPInstance:
    if data[:4] != INSTANCE_MAGIC:
        raise ValueError("bad instance magic")
    if len(data) < 12:
        raise ValueError("truncated instance header")
    n, k = struct.unpack_from("<II", data, 4)
    target, offset = Permutation.unpack_from(data, 12)
    if target.n != n:
        raise ValueError("target degree does not match header")
    if len(data) - offset < 4:
        raise ValueError("truncated generator count")
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if count == 0 or count > _MAX_GENS:
        raise ValueError(f"unreasonable generator count {count}")
    gens = []
    for _ in range(count):
        g, offset = Permutation.unpack_from(data, offset)
        if g.n != n:
            raise ValueError("generator degree does not match header")
        gens.append(g)
    if offset != len(data):
        raise ValueError("trailing bytes after instance")
    return make_instance(target, gens, k)


def witness_to_bytes(wit: Witness) -> bytes:
    return WITNESS_MAGIC + wit.element.to_bytes()


def witness_from_bytes(data: bytes) -> Witness:
    if data[:4] != WITNESS_MAGIC:
        raise ValueError("bad witness magic")
    return Witness(element=Permutation.from_bytes(data[4:]))


def save_instance(inst: SDPInstance, path) -> None:
    with open(path, "wb") as f:
        f.write(instance_to_bytes(inst))


def load_instance(path) -> SDPInstance:
    with open(path, "rb") as f:
        return instance_from_bytes(f.read())


def save_witness(wit: Witness, path) -> None:
    """Create the witness file, the prover's secret key, readable by its
    owner only (mode 0600, which the umask can only narrow); FileExistsError
    if path exists, so no witness is ever replaced."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "wb") as f:
        f.write(witness_to_bytes(wit))


def load_witness(path) -> Witness:
    with open(path, "rb") as f:
        return witness_from_bytes(f.read())


def instance_digest(inst: SDPInstance) -> bytes:
    """Binding digest of the public statement, used for challenge derivation;
    computed on the first call and kept in the instance's digest slot."""
    digest = inst._digest
    if digest is None:
        digest = hashlib.sha3_256(b"SDZKP-inst-v1" + instance_to_bytes(inst)).digest()
        object.__setattr__(inst, "_digest", digest)
    return digest
