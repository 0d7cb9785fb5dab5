"""Every direct getrandbits draw against the stdlib call it replaces.

sample_uniform, the challenges, the simulator's guess, the cheating noise
and a round's one read of its seed and openings call rng.getrandbits
themselves instead of rng.randrange or rng.randbytes, and perm._sample
and perm._shuffle walk rng.sample and rng.shuffle for random_perm,
random_support_perm, the abelian2 generators and the noise positions; the
giant certificate draws its slot pairs inline, as
rng.sample(range(slots), 2) does.  Each
must return what the stdlib call returns and leave the rng where it leaves
it, so seeded instances and proofs stay byte-identical; the next
rng.random() tells the two states apart.
"""

import hashlib
import math
import random
import struct

import pytest

import sdzkp.analysis as analysis
import sdzkp.group as group
import sdzkp.instance as instance
import sdzkp.perm as perm
from sdzkp.crypto import OPENING_BYTES, SEED_BYTES
from sdzkp.group import build_bsgs, word_width
from sdzkp.instance import instance_to_bytes, plant_instance, witness_to_bytes
from sdzkp.perm import Permutation, _sample, _shuffle, random_perm, random_support_perm
from sdzkp.protocol import (
    SEED,
    NIZKProof,
    derive_challenges,
    encode_proof,
    fs_prove,
    honest_rounds,
    masked_round,
    prover_respond,
    prover_round,
    uniform_challenge,
    verifier_challenge,
)
from test_reference_verifier import FAMILIES

SEEDS = range(50)


class Rejecting(random.Random):
    """Answers every other getrandbits(k) call with 2^k - 1, the value each
    bounded draw here rejects, so every redraw loop runs."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return (1 << k) - 1 if self.calls % 2 else super().getrandbits(k)


def paired_rngs():
    """Pairs of identically seeded rngs: plain ones, then rejecting ones."""
    for seed in SEEDS:
        yield random.Random(seed), random.Random(seed)
    for seed in range(5):
        yield Rejecting(seed), Rejecting(seed)


def same_state(fast, slow):
    return fast.random() == slow.random() and getattr(fast, "calls", 0) == getattr(slow, "calls", 0)


def cycle_perm(n, *cycles):
    images = list(range(n))
    for points in cycles:
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return Permutation(tuple(images))


def randrange_walk(grp, rng):
    """The chain's draw written with rng.randrange: one uniform coset
    representative per level, multiplied on the right."""
    ops = grp.ops
    acc = ops.ident
    for level in grp._levels:
        acc = ops.then(level.reps[rng.randrange(len(level.reps))], acc)
    return ops.decode(acc)


def abelian2_n16():
    return plant_instance(16, 5, 4, random.Random(71), preset="abelian2")[0].group


def abelian2_n64():
    return plant_instance(64, 16, 16, random.Random(72), preset="abelian2")[0].group


def s4_wr_s4():
    """S_4 wr S_4 on blocks {4b, .., 4b+3}, the imprimitive group that
    tests/test_group.py builds: not giant, not abelian, a byte-table chain."""
    n = 16
    return build_bsgs([
        cycle_perm(n, (0, 1)),
        cycle_perm(n, (0, 1, 2, 3)),
        cycle_perm(n, (0, 4), (1, 5), (2, 6), (3, 7)),
        cycle_perm(n, *[tuple(range(i, n, 4)) for i in range(4)]),
    ])


def s7_times_c293():
    """S_7 on 0..6 times a 293-cycle on the rest: not giant, past the
    byte-table limit, with orbits of 293, 7, 6, 5, 4, 3 and 2 points."""
    n = 300
    return build_bsgs([cycle_perm(n, (0, 1)), cycle_perm(n, tuple(range(7))), cycle_perm(n, tuple(range(7, n)))])


@pytest.mark.parametrize("make", [abelian2_n16, abelian2_n64, s4_wr_s4, s7_times_c293])
def test_chain_draws_match_the_randrange_walk(make):
    """sample_uniform returns the raw form of grp.ops: its decoding is the
    randrange walk's tuple, and it is that tuple's encoding, a member."""
    grp = make()
    ops = grp.ops
    assert grp.giant == "no"
    for fast, slow in paired_rngs():
        raw, images = grp.sample_uniform(fast), randrange_walk(grp, slow)
        assert ops.decode(raw) == images
        assert raw == ops.encode(images)
        assert Permutation(images).images == images
        assert grp.contains(raw)
        assert same_state(fast, slow)


@pytest.mark.parametrize("draw", [uniform_challenge, verifier_challenge])
def test_challenge_draws_match_randrange_3(draw):
    for fast, slow in paired_rngs():
        assert [draw(fast) for _ in range(20)] == [slow.randrange(3) for _ in range(20)]
        assert same_state(fast, slow)


def test_simulator_guess_matches_randrange_3(monkeypatch):
    """The guess is the simulator's own coin: drawn as rng.randrange(3) draws
    it, and never through verifier_challenge, whose calls in a simulation
    count the attempts an honest verifier challenges."""
    inst = plant_instance(16, 5, 4, random.Random(71), preset="abelian2")[0]

    def refuse(_rng):
        raise AssertionError("the simulator's guess went through verifier_challenge")

    monkeypatch.setattr(analysis, "verifier_challenge", refuse)
    for fast, slow in paired_rngs():
        seen = []
        analysis.simulate(inst, lambda msg: seen.append(msg) or 0, 1, fast)
        expected = analysis._simulated_state(inst, slow.randrange(3), slow)
        assert seen == [expected.commitment]
        assert same_state(fast, slow)


def randrange_noise(n, k, rng):
    """_noise written with rng.randrange: n words of w bytes as one integer."""
    bits, noise = 8 * word_width(n), 0
    for pos in rng.sample(range(n), k):
        noise |= rng.randrange(1, 1 << bits) << (bits * pos)
    return noise


@pytest.mark.parametrize("n, k", [(16, 4), (40, 8), (300, 64)])
def test_noise_words_match_randrange(n, k):
    bits = 8 * word_width(n)
    for fast, slow in paired_rngs():
        noise = analysis._noise(n, k, fast)
        assert noise == randrange_noise(n, k, slow)
        words = [noise >> (bits * i) & ((1 << bits) - 1) for i in range(n)]
        assert sum(1 for w in words if w) == k and noise < 1 << (bits * n)
        assert same_state(fast, slow)


def test_a_rounds_one_coin_read_is_the_seed_then_the_openings():
    """prover_round reads a round's seed and three openings in one
    getrandbits(1024) call.  On random.Random that gives the bytes of
    randbytes(32) followed by randbytes(96), and leaves the rng where they
    leave it, because CPython fills getrandbits(k > 32) from its least
    significant 32-bit word up, one generator output a word (seen on
    3.10.13, 3.11.7, 3.12.1 and 3.13.0; each CI leg checks it again).
    SystemRandom draws fresh bytes either way, so its rounds are as uniform
    in one read as in two."""
    inst, wit = plant_instance(16, 3, 4, random.Random(7), preset="general")
    h = inst.group.ops.encode(wit.element.images)
    for seed in SEEDS:
        fast, slow = random.Random(seed), random.Random(seed)
        coins = fast.getrandbits(1024).to_bytes(128, "little")
        assert coins == slow.randbytes(SEED_BYTES) + slow.randbytes(3 * OPENING_BYTES)
        assert same_state(fast, slow)
        fast, slow = random.Random(seed), random.Random(seed)
        state = prover_round(inst, h, fast)
        inst.group.sample_uniform(slow)  # u is drawn first
        expected = slow.randbytes(SEED_BYTES) + slow.randbytes(3 * OPENING_BYTES)
        assert state.values[SEED] + b"".join(state.openings) == expected
        assert same_state(fast, slow)


def stdlib_round(inst, h, rng):
    """A round on coins each drawn by the stdlib call it stands for, in the
    order a round draws them: u, then randbytes for the seed and for the
    openings.  On random.Random it is prover_round's round, though no coin
    goes through prover code."""
    u = inst.group.sample_uniform(rng)
    return masked_round(inst, u, h, rng.randbytes(SEED_BYTES), rng.randbytes(3 * OPENING_BYTES))


def per_round_fs_prove(inst, wit, rounds, context, rng, make_round=None):
    """fs_prove round by round: honest_rounds' states, or make_round's on
    the witness's raw element, each drawn whole before the next, then the
    derived challenges and each state's response."""
    if make_round is None:
        states = list(honest_rounds(inst, wit, rounds, rng))
    else:
        h = inst.group.ops.encode(wit.element.images)
        states = [make_round(inst, h, rng) for _ in range(rounds)]
    commitments = tuple(state.commitment for state in states)
    challenges = derive_challenges(instance.instance_digest(inst), context, commitments)
    return NIZKProof(commitments, tuple(map(prover_respond, states, challenges)))


# every reference-verifier family, and the n = 260 abelian2 tuple chain of the FS pin
LAYERED = {**FAMILIES, "abelian2-260": (260, 8, 64, "abelian2")}


@pytest.mark.parametrize("n, gens, k, preset", LAYERED.values(), ids=LAYERED)
def test_the_layered_prover_is_the_per_round_prover(n, gens, k, preset):
    """fs_prove draws every round's coins before it masks any round, then
    masks and commits all rounds a layer at a time: the proof's bytes and
    the rng's end state must be those of the rounds drawn one by one, by
    honest_rounds and, on random.Random, by the stdlib calls (stdlib_round),
    which share no coin code with either prover."""
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset=preset)
    for rounds in (1, 2, 7, 219):
        for seed in range(3):
            pairs = ((random.Random(seed), random.Random(seed), None), (Rejecting(seed), Rejecting(seed), None),
                     (random.Random(seed), random.Random(seed), stdlib_round))
            for fast, slow, make_round in pairs:
                proof = fs_prove(inst, wit, rounds, b"ctx", fast)
                expected = per_round_fs_prove(inst, wit, rounds, b"ctx", slow, make_round)
                assert encode_proof(proof) == encode_proof(expected)
                assert same_state(fast, slow)


# --- rng.sample and rng.shuffle ---

def stdlib_sample(n, k, rng):
    return rng.sample(range(n), k)


def stdlib_shuffle(x, rng):
    rng.shuffle(x)


def takes_set_branch(n, k):
    """rng.sample's choice: a pool of n when n is at most its set size (21,
    plus 4^ceil(log4(3k)) past k = 5), else redraws against a set."""
    return n > 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


# Each side of both branch boundaries, k = n (whose last pick is from a pool
# of one, still one getrandbits(1) call), and k = 0.
SAMPLES = [(1, 1), (5, 0), (10, 2), (21, 2), (22, 2), (24, 2), (16, 4), (16, 16), (40, 8), (85, 8), (86, 8),
           (100, 6), (277, 75), (278, 75), (300, 75), (300, 300)]


def test_sample_cases_take_both_branches():
    assert {takes_set_branch(n, k) for n, k in SAMPLES} == {False, True}
    assert not takes_set_branch(277, 75) and takes_set_branch(278, 75)


@pytest.mark.parametrize("n, k", SAMPLES)
def test_sample_matches_rng_sample(n, k):
    for fast, slow in paired_rngs():
        assert _sample(n, k, fast) == slow.sample(range(n), k)
        assert same_state(fast, slow)


@pytest.mark.parametrize("n, k", [(3, 5), (3, -1)])
def test_sample_refuses_what_rng_sample_refuses(n, k):
    # before any draw: past n, the pool walk would redraw getrandbits(0) forever
    fast, slow = random.Random(0), random.Random(0)
    with pytest.raises(ValueError):
        _sample(n, k, fast)
    with pytest.raises(ValueError):
        slow.sample(range(n), k)
    assert same_state(fast, slow)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 128, 256, 257, 300])
def test_shuffle_matches_rng_shuffle(n):
    for fast, slow in paired_rngs():
        x, y = list(range(n)), list(range(n))
        _shuffle(x, fast)
        slow.shuffle(y)
        assert x == y
        assert same_state(fast, slow)


def test_shuffle_matches_rng_shuffle_at_every_length():
    for n in range(2, 301):
        for fast, slow in ((random.Random(n), random.Random(n)), (Rejecting(n), Rejecting(n))):
            x, y = list(range(n)), list(range(n))
            _shuffle(x, fast)
            slow.shuffle(y)
            assert x == y
            assert same_state(fast, slow)


@pytest.mark.parametrize("n", [1, 2, 16, 128, 300])
def test_random_perm_matches_rng_shuffle(n):
    for fast, slow in paired_rngs():
        images = list(range(n))
        slow.shuffle(images)
        drawn = random_perm(n, fast)
        assert drawn.images == tuple(images)
        assert Permutation(drawn.images) == drawn
        assert same_state(fast, slow)


def stdlib_support_perm(n, m, rng):
    """random_support_perm written with rng.sample and rng.shuffle."""
    points = rng.sample(range(n), m)
    values = points[:]
    while True:
        rng.shuffle(values)
        if all(p != v for p, v in zip(points, values)):
            break
    images = list(range(n))
    for p, v in zip(points, values):
        images[p] = v
    return tuple(images)


@pytest.mark.parametrize("n, m", [(2, 2), (16, 4), (16, 16), (128, 32), (300, 75), (300, 300)])
def test_random_support_perm_matches_rng_sample_and_shuffle(n, m):
    for fast, slow in paired_rngs():
        assert random_support_perm(n, m, fast).images == stdlib_support_perm(n, m, slow)
        assert same_state(fast, slow)


@pytest.mark.parametrize("n, gens, k, preset", [(16, 3, 4, "general"), (64, 3, 16, "general"),
                                                (16, 5, 4, "abelian2"), (64, 16, 16, "abelian2"),
                                                (260, 8, 64, "abelian2")])
def test_planting_matches_the_stdlib_helpers(monkeypatch, n, gens, k, preset):
    """plant_instance with every helper it reaches swapped for rng.sample and
    rng.shuffle: the generators, the certificate, h and tau all agree."""
    seeds = range(10) if n < 260 else range(2)
    fast_rngs = [random.Random(seed) for seed in seeds] + [Rejecting(seed) for seed in seeds]
    slow_rngs = [random.Random(seed) for seed in seeds] + [Rejecting(seed) for seed in seeds]
    planted = [plant_instance(n, gens, k, rng, preset=preset) for rng in fast_rngs]
    for module in (perm, instance, group):
        for name, stdlib in (("_sample", stdlib_sample), ("_shuffle", stdlib_shuffle)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stdlib)
    for (inst, wit), fast, slow in zip(planted, fast_rngs, slow_rngs):
        expected = plant_instance(n, gens, k, slow, preset=preset)
        assert instance_to_bytes(inst) + witness_to_bytes(wit) == instance_to_bytes(expected[0]) + witness_to_bytes(
            expected[1])
        assert same_state(fast, slow)


def reference_certificate_search(ops, gens):
    """group._certify_giant's product-replacement walk written with
    rng.sample(range(len(slots)), 2) for each slot pair: its answer and the
    elements it tests for a Jordan cycle, each as u32 words."""
    degree = ops.degree
    raw = [ops.encode(g.images) for g in gens]
    if not group._is_transitive(raw, degree):
        return False, []
    primes = group._jordan_primes(degree)
    rng = random.Random(int.from_bytes(hashlib.sha256(b"".join(g.to_bytes() for g in gens)).digest(), "big"))
    slots = [raw[i % len(raw)] for i in range(max(group._PR_SLOTS, len(raw)))]
    acc, tested = ops.ident, []
    for step in range(group._PR_WARMUP + group._PR_TRIES):
        i, j = rng.sample(range(len(slots)), 2)
        slots[i] = ops.then(slots[j], slots[i]) if rng.random() < 0.5 else ops.then(slots[i], slots[j])
        acc = ops.then(slots[i], acc)
        if step >= group._PR_WARMUP:
            tested.append(struct.pack(f"<{degree}I", *acc[:degree]))
            if not primes.isdisjoint(group._cycle_lengths(acc, degree)):
                return True, tested
    return False, tested


@pytest.mark.parametrize("n, count", [(8, 3), (64, 3), (64, 24), (300, 2)])
def test_certificate_search_matches_rng_sample(monkeypatch, n, count):
    """The elements the giant certificate tests, with its slot pairs drawn
    inline and by rng.sample; 24 generators make slots past the pool branch."""
    rng = random.Random(n + count)
    gens = tuple(random_perm(n, rng) for _ in range(count))
    tested = []
    cycle_lengths = group._cycle_lengths

    def recording(p, degree):
        tested.append(struct.pack(f"<{degree}I", *p[:degree]))
        return cycle_lengths(p, degree)

    ops = group.make_ops(n)
    with monkeypatch.context() as patched:
        patched.setattr(group, "_cycle_lengths", recording)
        certified = group._certify_giant(ops, gens)
    assert tested and (certified, tested) == reference_certificate_search(ops, gens)
    assert takes_set_branch(max(group._PR_SLOTS, count), 2) == (count == 24)
