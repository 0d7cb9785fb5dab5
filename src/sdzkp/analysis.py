"""Security-analysis harness: extraction, cheating provers, simulation.

Everything here treats the protocol as an object of study.  The tools are:

* rewinding: a protocol.ProverState is a frozen coin tape that answers any
  challenge, so a single committed state can be probed on all of {0, 1, 2}
  (honest_rewindable_prover is protocol.prover_commit under that name);
* Transcript, one round's wire bytes and its challenge, used only here;
* a witness extractor that turns three accepting transcripts (one per
  challenge) under one commitment into an element of H within the bound,
  reading each opened value off the slices of protocol._response_layout
  that read_round has just checked;
* accepted_challenges, which judges a committed state on all three
  challenges in one pass: the commitment checked once, each slot once
  (protocol.slot_opens), both membership values unmasked by one
  crypto.mask_values read, and each predicate as protocol writes it
  (_member at 0 and 1, _shown at 2), so that it agrees with read_round;
* cheating provers that pass exactly two chosen challenges per state,
  realizing the 2/3 single-round soundness error;
* a rewinding simulator that produces accepting transcripts without the
  witness, and a distribution test comparing them to real ones.  Its
  attempts (_attempt) are shared with the attempt success rate, which
  counts hits and makes no transcript; the abort rate counts the runs
  of simulate itself that end in None.

The package exports the five rates `sdzkp analyze` reports, completeness
(the one in-process honest session) among them, and nothing else here.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count, islice
from random import Random
from typing import Callable, NamedTuple

from .crypto import OPENING_BYTES, SEED_BYTES, mask_values
from .group import BSGS, word_width
from .instance import SDPInstance, Witness
from .perm import Permutation, _sample, random_support_perm
from .protocol import (
    CHALLENGES,
    SEED,
    Z1,
    Z2,
    ProverState,
    _member,
    _response_layout,
    _shown,
    commit_round,
    honest_rounds,
    masked_round,
    prover_commit,
    prover_respond,
    prover_round,
    read_round,
    require_positive,
    slot_opens,
    uniform_challenge,
    verifier_challenge,
    verify_round,
)

VerifierOracle = Callable[[bytes], int]

_RESAMPLE_BOUND = 64

# A statistical check passes iff the p-value of what it measures exceeds ALPHA.
ALPHA = 0.001

# The distribution test tallies one chi-square cell per element of H.
DISTRIBUTION_MAX_ORDER = 120


_SLOT_NAMES = ("masked witness", "masked target", "seed")

# The challenge pairs a cheating state can pass.
_TARGET_PAIRS = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))


class ExtractionError(Exception):
    """Raised when three transcripts do not admit extraction."""


class Transcript(NamedTuple):
    """One round's wire bytes and its challenge."""

    commitment: bytes
    challenge: int
    response: bytes


honest_rewindable_prover = prover_commit


def accepted_challenges(inst: SDPInstance, prover: ProverState) -> set[int]:
    """Which challenges this committed state would survive: the set of ch
    for which read_round shows something on its commitment and
    prover_respond(prover, ch).
    One pass: each slot is checked once (slot_opens, which refuses a
    commitment that is not COMMITMENT_BYTES of bytes, so then no challenge
    passes) rather than under both challenges that open it.  Challenge 2
    opens Z1 and Z2, and _shown judges them; 0 and 1 each open theirs
    beside the seed (OPENS), and _member judges the words that one
    crypto.mask_values read unmasks for both, unchecked, as slot_opens has
    fixed the seed's and the values' lengths.
    A part that fails its check fails just the challenges that open its
    slot."""
    com, (z1, z2, seed), (o1, o2, o3) = prover.commitment, prover.values, prover.openings
    ok1, ok2 = slot_opens(inst, com, Z1, z1, o1), slot_opens(inst, com, Z2, z2, o2)
    accepted = {2} if ok1 and ok2 and _shown(inst, 2, z1, z2) is not None else set()
    if (ok1 or ok2) and slot_opens(inst, com, SEED, seed, o3):
        if ok1 and ok2:
            w1, w2 = mask_values(seed, z1, z2)
        else:  # the one value that opened; the other's words go unread
            (w1,) = (w2,) = mask_values(seed, z1 if ok1 else z2)
        if ok1 and _member(inst, 0, w1) is not None:
            accepted.add(0)
        if ok2 and _member(inst, 1, w2) is not None:
            accepted.add(1)
    return accepted


def transcript_for(inst: SDPInstance, prover: ProverState, challenge: int) -> Transcript:
    return Transcript(prover.commitment, challenge, prover_respond(prover, challenge))


def completeness_rate(inst: SDPInstance, wit: Witness, rounds: int, rng: Random) -> float:
    """Fraction of `rounds` honest rounds, each challenged uniformly from rng
    after it is drawn, that verify."""
    states = honest_rounds(inst, wit, rounds, rng)
    accepted = 0
    for state in states:
        ch = verifier_challenge(rng)
        accepted += verify_round(inst, state.commitment, ch, prover_respond(state, ch))
    return accepted / rounds


# --- extraction ---

def extract_witness(inst: SDPInstance, t0: Transcript, t1: Transcript, t2: Transcript) -> Permutation:
    """Witness from three accepting transcripts sharing one commitment.

    The transcripts must carry challenges {0, 1, 2} in any order, and each
    must verify: read_round shows u∘h at challenge 0 and u at 1, in the
    group's raw form, and h = u^-1 ∘ (u∘h).  Inconsistencies that the
    commitment scheme is supposed to rule out (diverging seeds or masked
    tuples under equal digests) are reported loudly rather than silently
    tolerated; each opened value is read off its response at its
    _response_layout slice, which read_round has checked.
    """
    transcripts = (t0, t1, t2)
    by_ch = {t.challenge: t for t in transcripts}
    if set(by_ch) != set(CHALLENGES):
        raise ExtractionError(f"need one transcript per challenge, got {sorted(t.challenge for t in transcripts)}")
    com = transcripts[0].commitment
    if any(t.commitment != com for t in transcripts):
        raise ExtractionError("transcripts do not share a commitment")
    shown = {}
    for ch, t in sorted(by_ch.items()):
        shown[ch] = read_round(inst, com, ch, t.response)
        if shown[ch] is None:
            raise ExtractionError(f"transcript for challenge {ch} does not verify")

    # Every value is opened under two challenges; both openings must agree.
    opened = {}
    for ch in CHALLENGES:
        response = by_ch[ch].response
        for slot, at, _ in _response_layout(ch, inst.degree)[1]:
            if opened.setdefault(slot, response[at]) != response[at]:
                raise ExtractionError(f"binding violation: two openings of the {_SLOT_NAMES[slot]} differ")

    ops = inst.group.ops
    return Permutation._trusted(ops.decode(ops.then(shown[0], ops.inv(shown[1]))))


# --- cheating provers ---

def _noise(n: int, k: int, rng: Random) -> int:
    """n words of group.word_width(n) bytes, exactly k of them nonzero at
    random positions, as one little-endian integer."""
    bits = 8 * word_width(n)
    top, noise = (1 << bits) - 1, 0
    getrandbits = rng.getrandbits
    for pos in _sample(n, k, rng):
        # 1 + a uniform r < 2^bits - 1, drawn with the getrandbits calls
        # rng.randrange(1, 1 << bits) makes.
        r = getrandbits(bits)
        while r == top:
            r = getrandbits(bits)
        noise |= (1 + r) << (bits * pos)
    return noise


def make_cheating_prover(inst: SDPInstance, targets: frozenset[int] | set[int], rng: Random) -> ProverState:
    """A witness-less prover whose state passes exactly the two challenges
    in `targets`.

    {0,1}: commit honestly but with a fake witness drawn from H; both
    membership challenges pass, and the distance challenge fails as long as
    the fake sits further than the bound from the target (resampled until
    it does).  {0,2} / {1,2}: put a real group element behind the covered
    membership challenge and mask it beside itself plus noise of weight
    exactly k, so the distance challenge passes while the uncovered
    membership challenge unmasks to garbage.  Every element is drawn in the
    group's raw form (BSGS.sample_uniform) and used as drawn; the fake's
    distance from g is the count of words in which theirs differ.

    Raises ValueError if, after bounded resampling, some state refuses to
    fail its third challenge (possible only for tiny or degenerate groups).
    """
    targets = frozenset(targets)
    if targets not in _TARGET_PAIRS:
        raise ValueError(f"targets must be two distinct challenges, got {sorted(targets)}")
    n, k = inst.degree, inst.max_distance
    group: BSGS = inst.group
    ops = group.ops

    for _ in range(_RESAMPLE_BOUND):
        seed = rng.randbytes(SEED_BYTES)
        if 2 not in targets:
            fake = group.sample_uniform(rng)
            if ops.differing_words(ops.words(fake), ops.words(inst.target_tables[0])) <= k:
                continue
            prover = masked_round(inst, group.sample_uniform(rng), fake, seed, rng.randbytes(3 * OPENING_BYTES))
        else:  # the noise goes on Z2 when 0 is covered, on Z1 when 1 is
            member = group.sample_uniform(rng)
            if 1 in targets:
                member = ops.then(inst.target_tables[0], member)
            # the noisy words are arbitrary, not the words of any permutation
            words = ops.words(member)
            noisy = (int.from_bytes(words, "little") ^ _noise(n, k, rng)).to_bytes(len(words), "little")
            pair = mask_values(seed, words, noisy)
            prover = commit_round(*(pair if 0 in targets else pair[::-1]), seed, rng)
        if accepted_challenges(inst, prover) == targets:
            return prover
    raise ValueError(f"could not build a cheating state for {sorted(targets)} on this instance")


def _cheating_round_accepted(inst: SDPInstance, targets, rng: Random) -> bool:
    """One uniformly challenged round of a fresh cheating state.  The state
    passes exactly `targets` (make_cheating_prover checked that), so the
    round is won iff the challenge is one of them."""
    make_cheating_prover(inst, targets, rng)
    return verifier_challenge(rng) in targets


def cheating_acceptance_rate(inst: SDPInstance, targets, rounds: int, rng: Random) -> float:
    """Fraction of uniformly-challenged rounds a fresh cheating state survives."""
    require_positive(rounds)
    return sum(_cheating_round_accepted(inst, targets, rng) for _ in range(rounds)) / rounds


# --- simulation ---

def honest_verifier(rng: Random) -> VerifierOracle:
    """Oracle that ignores the commitment and challenges uniformly."""
    return lambda _msg: verifier_challenge(rng)


def _simulated_state(inst: SDPInstance, guess: int, rng: Random) -> ProverState:
    """Fake round for one attempt.  guess in {0,1} is an honest round for the
    fake witness e, the identity (both membership challenges will verify);
    guess 2 masks τ∘g beside g for a uniform τ moving exactly k points, the
    distance of a planted witness (the distance challenge verifies)."""
    ops = inst.group.ops
    if guess < 2:
        return prover_round(inst, ops.ident, rng)
    tau = ops.encode(random_support_perm(inst.degree, inst.max_distance, rng).images)
    seed = rng.randbytes(SEED_BYTES)
    return masked_round(inst, ops.ident, ops.then(inst.target_tables[0], tau), seed, rng.randbytes(3 * OPENING_BYTES))


def _attempt(inst: SDPInstance, verifier: VerifierOracle, rng: Random) -> tuple[ProverState, int] | None:
    """One simulator attempt: guess which kind of challenge is coming (the
    simulator's own coin, not verifier_challenge), prepare a state that
    survives it, and query the verifier.  The state and the challenge if the
    guess covers it, else None."""
    guess = uniform_challenge(rng)
    prover = _simulated_state(inst, guess, rng)
    ch = verifier(prover.commitment)
    if ch not in CHALLENGES:
        raise ValueError(f"verifier oracle returned invalid challenge {ch!r}")
    return (prover, ch) if (ch == 2) == (guess == 2) else None


def simulate(
    inst: SDPInstance,
    verifier: VerifierOracle,
    max_rewinds: int,
    rng: Random,
) -> Transcript | None:
    """Produce an accepting transcript against `verifier` without a witness.

    Attempt (_attempt) until a guess covers the challenge, rewinding on a
    bad one.  A guess in {0,1} covers both membership challenges, so each
    attempt succeeds with probability 5/9 against an honest verifier, and
    all attempts failing (probability at most (4/9)^max_rewinds) yields
    None.
    """
    require_positive(max_rewinds, "attempt")
    for _ in range(max_rewinds):
        hit = _attempt(inst, verifier, rng)
        if hit is not None:
            return transcript_for(inst, *hit)
    return None


def simulator_attempt_success_rate(inst: SDPInstance, attempts: int, rng: Random) -> float:
    """Empirical per-attempt success probability against an honest verifier;
    a hit is counted, not made into a transcript."""
    require_positive(attempts, "attempt")
    verifier = honest_verifier(rng)
    return sum(_attempt(inst, verifier, rng) is not None for _ in range(attempts)) / attempts


def simulator_abort_rate(inst: SDPInstance, max_rewinds: int, runs: int, rng: Random) -> float:
    """Fraction of `runs` simulations of up to max_rewinds attempts each
    that no attempt wins, so that simulate returns None."""
    require_positive(runs, "run")
    require_positive(max_rewinds, "attempt")
    verifier = honest_verifier(rng)
    return sum(simulate(inst, verifier, max_rewinds, rng) is None for _ in range(runs)) / runs


# --- reports ---

def report_dict(experiment: str, samples: int, statistic: float, p_value, passed: bool, **details) -> dict:
    """The JSON report of one `sdzkp analyze` experiment."""
    report = {
        "experiment": experiment,
        "samples": samples,
        "statistic": statistic,
        "p_value": p_value,
        "pass": passed,
    }
    if details:
        report["details"] = details
    return report


# --- distribution comparison ---

class DistributionReport(NamedTuple):
    """Real-versus-simulated transcript statistics.

    The headline statistic is the chi-square comparison of the unmasked
    challenge-0 permutation over H.  Challenge marginals are reported for
    information: a rewinding simulator's surviving attempts are biased
    toward the challenges its guess covers, so against an honest verifier
    the simulated marginal is (2/5, 2/5, 1/5), not uniform; this is a
    property of the rewinding strategy, visible here by design.
    """

    group_order: int
    samples_real: int
    samples_simulated: int
    statistic: float
    p_value: float
    passed: bool
    challenge_counts_real: dict[int, int]
    challenge_counts_simulated: dict[int, int]
    acceptance_rate_real: float
    acceptance_rate_simulated: float
    distance_weights_real: dict[int, int]
    distance_weights_simulated: dict[int, int]

    def as_dict(self) -> dict:
        fields = self._asdict()
        return report_dict(
            "distribution", fields.pop("samples_real"), fields.pop("statistic"),
            fields.pop("p_value"), fields.pop("passed"), **fields,
        )


def transcript_distribution_test(
    inst: SDPInstance,
    wit: Witness,
    samples: int,
    rng: Random,
    alpha: float = ALPHA,
) -> DistributionReport:
    """Compare real and simulated transcripts on a small group.

    Draws `samples` transcripts per side (real: honest prover and verifier;
    simulated: rewinding simulator with enough attempts that aborts are
    negligible), then chi-square-tests whether the unmasked challenge-0
    permutation is identically distributed over H on both sides
    (`chi2_contingency`; its tail is A&S 26.4.4/26.4.5 in closed form).
    """
    order = inst.group.order()
    if order > DISTRIBUTION_MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the test bound {DISTRIBUTION_MAX_ORDER}")
    if samples < 10 * order:
        raise ValueError("too few samples for a meaningful comparison")

    ops = inst.group.ops
    index = {ops.encode(p.images): i for i, p in enumerate(inst.group.elements(DISTRIBUTION_MAX_ORDER))}

    def tally(transcripts):
        """Challenge counts and accepts; what accepted rounds show (read_round):
        challenge-0 counts per element and challenge-2 weights."""
        counts, challenges, weights, ok = [0] * order, Counter(), Counter(), 0
        for t in transcripts:
            challenges[t.challenge] += 1
            shown = read_round(inst, t.commitment, t.challenge, t.response)
            if shown is not None:
                ok += 1
                if t.challenge == 0:
                    counts[index[shown]] += 1
                elif t.challenge == 2:
                    weights[shown] += 1
        return counts, challenges, weights, ok

    real_counts, real_ch, real_weights, real_ok = tally(
        transcript_for(inst, state, verifier_challenge(rng)) for state in honest_rounds(inst, wit, samples, rng)
    )
    verifier = honest_verifier(rng)
    simulated = filter(None, (simulate(inst, verifier, 64, rng) for _ in count()))
    sim_counts, sim_ch, sim_weights, sim_ok = tally(islice(simulated, samples))

    # Drop cells empty on both sides (possible only for tiny samples).
    table = [
        [real_counts[i] for i in range(order) if real_counts[i] + sim_counts[i] > 0],
        [sim_counts[i] for i in range(order) if real_counts[i] + sim_counts[i] > 0],
    ]
    stat, p_value = chi2_contingency(table)

    return DistributionReport(
        group_order=order,
        samples_real=samples,
        samples_simulated=samples,
        statistic=stat,
        p_value=p_value,
        passed=p_value > alpha,
        challenge_counts_real=dict(sorted(real_ch.items())),
        challenge_counts_simulated=dict(sorted(sim_ch.items())),
        acceptance_rate_real=real_ok / samples,
        acceptance_rate_simulated=sim_ok / samples,
        distance_weights_real=dict(sorted(real_weights.items())),
        distance_weights_simulated=dict(sorted(sim_weights.items())),
    )


def binomial_two_sided_pvalue(hits: int, trials: int, p: float) -> float:
    """Normal-approximation two-sided p-value for an observed hit count;
    at p = 0 or 1 it is 1 for the certain count and 0 for any other."""
    sd = math.sqrt(p * (1 - p) / trials)
    if sd == 0:
        return float(hits == p * trials)
    z = (hits / trials - p) / sd
    return math.erfc(abs(z) / math.sqrt(2))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail Q(df/2, x/2) of chi-square at integer df >= 1: the finite sums of
    Abramowitz & Stegun 26.4.4 (even df) and 26.4.5 (odd df).  Each term is positive
    and taken in logs, so nothing cancels and a large x cannot overflow."""
    h, odd = x / 2, df % 2
    if h <= 0:
        return 1.0
    exps = (a * math.log(h) - h - math.lgamma(a + 1) for a in (j + odd / 2 for j in range(df // 2)))
    return math.fsum(map(math.exp, exps)) + (math.erfc(math.sqrt(h)) if odd else 0.0)


def chi2_contingency(table: list[list[int]]) -> tuple[float, float]:
    """(statistic, p-value) of Pearson's chi-square test of independence on a table
    of counts, expected count e = row sum * column sum / total.  At df = 1 Yates'
    correction shrinks each |o - e| by min(0.5, |o - e|); at df = 0 the answer is
    (0, 1).  Raises ValueError if an expected count is zero."""
    rows, cols = [sum(r) for r in table], [sum(c) for c in zip(*table)]
    if min(rows + cols, default=0) <= 0:
        raise ValueError("the contingency table has an empty row or column")
    total, df = sum(rows), (len(rows) - 1) * (len(cols) - 1)
    if df == 0:
        return 0.0, 1.0
    yates = 0.5 if df == 1 else 0.0
    observed = (o for row in table for o in row)
    expected = (r * c / total for r in rows for c in cols)
    stat = math.fsum(max(abs(o - e) - yates, 0.0) ** 2 / e for o, e in zip(observed, expected))
    return stat, chi2_sf(stat, df)
