"""Instance planting, witness checks, and the on-disk formats."""

import copy
import hashlib
import pickle
import random

import pytest

import sdzkp.instance
from sdzkp.group import build_bsgs
from sdzkp.instance import (
    Witness,
    brute_force_distance,
    instance_digest,
    instance_from_bytes,
    instance_to_bytes,
    load_instance,
    load_witness,
    make_instance,
    plant_instance,
    save_instance,
    save_witness,
    validate_witness,
    witness_from_bytes,
    witness_to_bytes,
)
from sdzkp.perm import Permutation, hamming, identity, inverse, random_perm
from sdzkp.protocol import encode_proof, fs_prove, fs_verify_bytes


def test_planted_distance_is_exact():
    rng = random.Random(40)
    for n, k in [(6, 0), (8, 3), (16, 8), (32, 16), (16, 16)]:
        inst, wit = plant_instance(n, 3, k, rng)
        assert inst.degree == n
        assert inst.max_distance == k
        assert hamming(wit.element, inst.target) == k
        assert validate_witness(inst, wit.element)


# SHA-256 of instance_to_bytes + witness_to_bytes for
# plant_instance(n, gens, k, Random(n), preset), computed while planting still
# drew through rng.shuffle and rng.sample; the n = 260 abelian2 instance is
# the tuple chain the FS proof pin plants.
@pytest.mark.parametrize("n, gens, k, preset, digest", [
    (16, 3, 4, "general", "6a16a0145f9df1ab7e54f83df75f6b8df5551f59d27c630aa1bca38450cc6297"),  # A_16
    (128, 3, 32, "general", "258abc83c79cdebb29b917b0bcdb62c3d8fa24239446952da9350948962a55cd"),  # S_128
    (260, 3, 65, "general", "fe53a32f92a5ee44582497882b940c6cb9e0949fec4b3f344b3845772a1eb976"),  # A_260
    (16, 5, 4, "abelian2", "aa1b2b25ce9caaafeeca29dbc464800942d7745c729b7482ed68f36862f2ed45"),
    (260, 8, 64, "abelian2", "d3c76535bcde6988174619cb69d27086737a2cb69db023b161453ae221a4dd27"),
])
def test_planted_instances_are_pinned(n, gens, k, preset, digest):
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset=preset)
    data = instance_to_bytes(inst) + witness_to_bytes(wit)
    assert hashlib.sha256(data).hexdigest() == digest


def test_planting_rejects_bad_distance():
    rng = random.Random(41)
    with pytest.raises(ValueError):
        plant_instance(8, 3, 1, rng)
    with pytest.raises(ValueError):
        plant_instance(8, 3, 9, rng)
    with pytest.raises(ValueError):
        plant_instance(8, 3, -1, rng)
    with pytest.raises(ValueError):
        plant_instance(8, 0, 4, rng)
    with pytest.raises(ValueError):
        plant_instance(8, 3, 4, rng, preset="nope")


def test_abelian2_preset_structure():
    rng = random.Random(42)
    inst, wit = plant_instance(16, 5, 4, rng, preset="abelian2")
    # every element of an elementary abelian 2-group is an involution
    for p in inst.group.elements(1 << 8):
        imgs = p.images
        assert all(imgs[imgs[i]] == i for i in range(16))
    assert inst.group.order() & (inst.group.order() - 1) == 0  # power of two
    assert validate_witness(inst, wit.element)


def test_validate_witness_rejects():
    rng = random.Random(43)
    inst, wit = plant_instance(8, 3, 4, rng)
    # far element: the target itself is at distance 0 but may not be in H;
    # an h in H beyond the bound must fail
    for h in inst.group.elements(1 << 16)[:50]:
        assert validate_witness(inst, h) == (hamming(h, inst.target) <= 4)
    with pytest.raises(ValueError):
        validate_witness(inst, Permutation((0, 1, 2)))


def test_brute_force_hand_example():
    # H = {id, (0 1)} acting on 4 points, target swaps the last two points:
    # d(id, g) = 4, d((0 1), g) = 2, so the minimum is 2 at the transposition.
    gen = Permutation((1, 0, 2, 3))
    target = Permutation((1, 0, 3, 2))
    inst = make_instance(target, [gen], 2)
    dist, elem = brute_force_distance(inst)
    assert dist == 2
    assert elem == Permutation((1, 0, 2, 3))


def test_brute_force_matches_planting():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randrange(5, 10)
        k = rng.choice([0] + list(range(2, n + 1)))
        inst, wit = plant_instance(n, 2, k, rng)
        if inst.group.order() > 5000:
            continue
        dist, elem = brute_force_distance(inst, limit=5000)
        assert dist <= k
        assert validate_witness(inst, elem)


def test_brute_force_limit():
    rng = random.Random(45)
    inst, _ = plant_instance(16, 4, 4, rng)
    if inst.group.order() > 100:
        with pytest.raises(ValueError):
            brute_force_distance(inst, limit=100)


def test_make_instance_validation():
    gen = Permutation((1, 0, 2))
    target = Permutation((2, 1, 0))
    inst = make_instance(target, [gen], 2)
    assert inst.degree == 3
    with pytest.raises(ValueError):
        make_instance(target, [gen], 1)  # distance 1 impossible
    with pytest.raises(ValueError):
        make_instance(target, [gen], 7)
    with pytest.raises(ValueError):
        make_instance(Permutation((1, 0)), [gen], 0)


def test_instances_compare_by_their_statement():
    gen, target = Permutation((1, 0, 2)), Permutation((2, 1, 0))
    inst = make_instance(target, [gen], 2)
    same = make_instance(Permutation((2, 1, 0)), [Permutation((1, 0, 2))], 2)
    assert same.group is not inst.group
    assert same == inst and hash(same) == hash(inst)
    assert make_instance(target, [gen], 3) != inst
    assert make_instance(gen, [gen], 2) != inst


def tables_of(inst):
    """(g, g^-1) in the raw form of the instance's group, computed afresh."""
    ops = inst.group.ops
    return ops.encode(inst.target.images), ops.encode(inverse(inst.target).images)


def test_target_tables_are_computed_once():
    for n in (16, 260):  # byte tables, then image tuples
        inst, _ = plant_instance(n, 3, 4, random.Random(47))
        g, g_inv = inst.target_tables
        assert (g, g_inv) == tables_of(inst)
        assert inst.target_tables is inst.target_tables
        assert inst.group.ops.then(g_inv, g) == inst.group.ops.ident


@pytest.mark.parametrize(
    "name", ["degree", "max_distance", "target", "generators", "group", "_target_tables", "_digest", "x"],
)
def test_instance_refuses_assignment_and_deletion(name):
    # A reassigned target would leave the cached target_tables holding the old one.
    inst, _ = plant_instance(16, 3, 4, random.Random(47))
    other, _ = plant_instance(16, 3, 4, random.Random(48))
    for fresh in (False, True):  # before and after the cache is filled
        if fresh:
            assert inst.target_tables == tables_of(inst)
        before = {slot: getattr(inst, slot) for slot in type(inst).__slots__}
        with pytest.raises(AttributeError, match="immutable"):
            setattr(inst, name, getattr(other, name, None))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(inst, name)
        assert {slot: getattr(inst, slot) for slot in type(inst).__slots__} == before
    assert inst.target_tables == tables_of(inst)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
@pytest.mark.parametrize("n", [16, 260])  # byte tables, then image tuples
def test_instance_copies_and_pickles(round_trip, n):
    inst, wit = plant_instance(n, 3, 4, random.Random(47))
    assert inst.target_tables  # a filled cache is rebuilt, not carried over
    back = round_trip(inst)
    assert back == inst and back.group.order() == inst.group.order()
    assert back.target_tables == tables_of(inst)
    for name in ("target", "_target_tables"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(back, name, None)
    proof = encode_proof(fs_prove(inst, wit, 16, b"ctx", random.Random(49)))
    assert fs_verify_bytes(back, proof, b"ctx", 16)


def test_instance_bytes_round_trip():
    rng = random.Random(46)
    for preset in ("general", "abelian2"):
        inst, _ = plant_instance(12, 4, 6, rng, preset=preset)
        data = instance_to_bytes(inst)
        back = instance_from_bytes(data)
        assert back.degree == inst.degree
        assert back.max_distance == inst.max_distance
        assert back.target == inst.target
        assert back.generators == inst.generators
        assert back.group.order() == inst.group.order()


def _made_instances():
    """Instances from every path that makes one: planting (a certified giant
    and a chain, at byte-table and tuple degrees), explicit parts, the
    reader, and copies and pickles of each."""
    rng = random.Random(50)
    made = [plant_instance(n, 3, 4, rng, preset=preset)[0] for n in (16, 260) for preset in sdzkp.instance.PRESETS]
    made.append(make_instance(Permutation((2, 1, 0)), [Permutation((1, 0, 2))], 2))
    made += [instance_from_bytes(instance_to_bytes(inst)) for inst in made]
    return made + [round_trip(inst) for inst in made for round_trip in ROUND_TRIPS.values()]


def test_instance_takes_its_generators_and_degree_from_its_group():
    for inst in _made_instances():
        assert inst.generators is inst.group.generators
        assert inst.degree == inst.group.degree == inst.target.n


def test_one_constructor_takes_target_group_and_bound():
    gen, target = Permutation((1, 0, 2)), Permutation((2, 1, 0))
    inst = sdzkp.instance.SDPInstance(target, build_bsgs([gen]), 2)
    assert inst == make_instance(target, [gen], 2)
    with pytest.raises(ValueError, match="target degree mismatch"):
        sdzkp.instance.SDPInstance(Permutation((1, 0)), build_bsgs([gen]), 0)


def test_generators_round_trip_as_given():
    g, e = Permutation((1, 2, 0, 4, 3)), identity(5)
    assert build_bsgs([g, g, e]).generators == (g, g, e)
    inst = make_instance(Permutation((2, 0, 1, 3, 4)), [g, g, e], 2)
    assert inst.generators == (g, g, e)
    data = instance_to_bytes(inst)
    back = instance_from_bytes(data)
    assert back.generators == (g, g, e)
    assert instance_to_bytes(back) == data and instance_digest(back) == instance_digest(inst)


def test_constructor_refuses_more_generators_than_the_reader_reads():
    # Every instance that can be made can be read back: the constructor and
    # instance_from_bytes share one cap.
    cap = sdzkp.instance._MAX_GENS
    rng = random.Random(51)
    target, gen = random_perm(8, rng), random_perm(8, rng)
    with pytest.raises(ValueError, match=f"unreasonable generator count {cap + 1}"):
        make_instance(target, [gen] * (cap + 1), 4)
    inst = make_instance(target, [gen] * cap, 4)
    assert instance_from_bytes(instance_to_bytes(inst)) == inst


def cuts_and_extensions(data):
    """Every proper prefix of data, and data with one more byte of each value."""
    return [data[:cut] for cut in range(len(data))] + [data + bytes((byte,)) for byte in range(256)]


def test_instance_bytes_rejects_malformed():
    # The reader is total on a cut at any byte, one more byte of any value
    # and another magic: ValueError, and no other exception.
    rng = random.Random(47)
    inst, _ = plant_instance(8, 3, 4, rng)
    data = instance_to_bytes(inst)
    for bad in cuts_and_extensions(data):
        with pytest.raises(ValueError):
            instance_from_bytes(bad)
    with pytest.raises(ValueError):
        instance_from_bytes(b"XXXX" + data[4:])


def u32(*words):
    return b"".join(w.to_bytes(4, "little") for w in words)


# One SDZ1 file for each refusal of instance_from_bytes past its magic,
# after the header n = 3, k = 2 where there is one.
_HEADER, _THREE = b"SDZ1" + u32(3, 2), identity(3).to_bytes()
_PAST_CAP = sdzkp.instance._MAX_GENS + 1


@pytest.mark.parametrize("data, message", [
    (b"SDZ1" + u32(3), "truncated instance header"),
    (_HEADER + _THREE + b"\x01\x00\x00", "truncated generator count"),
    (_HEADER + _THREE + u32(0), "unreasonable generator count 0$"),
    (_HEADER + _THREE + u32(_PAST_CAP), f"unreasonable generator count {_PAST_CAP}$"),
    (_HEADER + _THREE + u32(1) + identity(4).to_bytes(), "generator degree does not match header"),
    # refused as soon as it is read: no generator count follows
    (_HEADER + identity(4).to_bytes(), "target degree does not match header"),
], ids=["header", "count-cut", "count-0", "count-cap", "generator-degree", "target-degree"])
def test_instance_bytes_refuses_each_malformed_field(data, message):
    with pytest.raises(ValueError, match=message):
        instance_from_bytes(data)


def test_witness_bytes_round_trip():
    wit = Witness(Permutation((3, 1, 0, 2)))
    assert witness_from_bytes(witness_to_bytes(wit)) == wit
    for bad in cuts_and_extensions(witness_to_bytes(wit)):
        with pytest.raises(ValueError):
            witness_from_bytes(bad)
    with pytest.raises(ValueError):
        witness_from_bytes(b"BAD!" + witness_to_bytes(wit)[4:])


def test_file_round_trip(tmp_path):
    rng = random.Random(48)
    inst, wit = plant_instance(10, 3, 5, rng)
    ipath = tmp_path / "a.sdz"
    wpath = tmp_path / "a.sdw"
    save_instance(inst, ipath)
    save_witness(wit, wpath)
    inst2 = load_instance(ipath)
    wit2 = load_witness(wpath)
    assert inst2.target == inst.target
    assert wit2 == wit
    assert validate_witness(inst2, wit2.element)


def test_instance_digest_stable_and_sensitive():
    rng = random.Random(49)
    inst, _ = plant_instance(8, 3, 4, rng)
    d1 = instance_digest(inst)
    d2 = instance_digest(instance_from_bytes(instance_to_bytes(inst)))
    assert d1 == d2 and len(d1) == 32
    other, _ = plant_instance(8, 3, 4, rng)
    assert instance_digest(other) != d1


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_instance_digest_is_kept_and_copies_compute_their_own(round_trip):
    """instance_digest is computed on the first call and returned as kept
    after it; a copy, filled or not, gives a fresh computation's bytes, and
    the cache moves neither equality nor the hash."""
    inst, _ = plant_instance(16, 3, 4, random.Random(50))
    fresh = hashlib.sha3_256(b"SDZKP-inst-v1" + instance_to_bytes(inst)).digest()
    unfilled, hashed = round_trip(inst), hash(inst)
    assert instance_digest(inst) == fresh
    assert instance_digest(inst) is instance_digest(inst)
    filled = round_trip(inst)
    for copied in (unfilled, filled):
        assert instance_digest(copied) == fresh
        assert copied == inst and hash(copied) == hash(inst) == hashed
    assert instance_digest(instance_from_bytes(instance_to_bytes(inst))) == fresh


def test_plant_instance_self_check_raises_without_assert(monkeypatch):
    # a RuntimeError, not an assert, so the check survives python -O
    monkeypatch.setattr(sdzkp.instance, "random_support_perm", lambda n, k, rng: identity(n))
    with pytest.raises(RuntimeError, match="self-check"):
        plant_instance(16, 2, 4, random.Random(1))
