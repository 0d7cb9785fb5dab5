"""Every direct getrandbits draw against the stdlib call it replaces.

sample_uniform, the challenges, the simulator's guess, the cheating noise,
commitment openings and mask seeds call rng.getrandbits themselves instead
of rng.randrange or rng.randbytes.  Each must return what the stdlib call
returns and leave the rng where it leaves it, so seeded proofs stay
byte-identical; the next rng.random() tells the two states apart.
"""

import random

import pytest

import sdzkp.analysis as analysis
from sdzkp.crypto import COMMIT_TAGS, OPENING_BYTES, SEED_BYTES, commit, fresh_seed, verify_commitment
from sdzkp.group import build_bsgs
from sdzkp.instance import plant_instance
from sdzkp.perm import Permutation
from sdzkp.protocol import uniform_challenge, verifier_challenge

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


def cycle_perm(n, points):
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Permutation(tuple(images))


def randrange_walk(grp, rng):
    """The chain's draw written with rng.randrange: one uniform coset
    representative per level, multiplied on the right."""
    ops = grp.ops
    acc = ops.ident
    for level in grp._levels:
        acc = ops.mul(acc, level.reps[rng.randrange(len(level.reps))])
    return ops.decode(acc)


def abelian2_n16():
    return plant_instance(16, 5, 4, random.Random(71), preset="abelian2")[0].group


def s7_times_c293():
    """S_7 on 0..6 times a 293-cycle on the rest: not giant, past the
    byte-table limit, with orbits of 293, 7, 6, 5, 4, 3 and 2 points."""
    n = 300
    return build_bsgs([cycle_perm(n, (0, 1)), cycle_perm(n, tuple(range(7))), cycle_perm(n, tuple(range(7, n)))])


@pytest.mark.parametrize("make", [abelian2_n16, s7_times_c293])
def test_chain_draws_match_the_randrange_walk(make):
    grp = make()
    assert grp.giant == "no"
    for fast, slow in paired_rngs():
        drawn = grp.sample_uniform(fast)
        assert drawn.images == randrange_walk(grp, slow)
        assert Permutation(drawn.images) == drawn
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
    """_noise_tuple written with rng.randrange."""
    noise = [0] * n
    for pos in rng.sample(range(n), k):
        noise[pos] = rng.randrange(1, 1 << 32)
    return tuple(noise)


@pytest.mark.parametrize("n, k", [(16, 4), (40, 8)])
def test_noise_words_match_randrange(n, k):
    for fast, slow in paired_rngs():
        noise = analysis._noise_tuple(n, k, fast)
        assert noise == randrange_noise(n, k, slow)
        assert sum(1 for w in noise if w) == k and max(noise) < 1 << 32
        assert same_state(fast, slow)


def test_commit_openings_and_seeds_match_randbytes():
    for fast, slow in paired_rngs():
        for tag in COMMIT_TAGS:
            digest, opening = commit(b"message", tag, fast)
            assert opening == slow.randbytes(OPENING_BYTES)
            assert verify_commitment(digest, b"message", tag, opening)
        assert fresh_seed(fast) == slow.randbytes(SEED_BYTES)
        assert same_state(fast, slow)
