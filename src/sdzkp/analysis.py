"""Security-analysis harness: extraction, cheating provers, simulation.

Everything here treats the protocol as an object of study.  The tools are:

* rewinding: a protocol.ProverState is a frozen coin tape that answers any
  challenge, so a single committed state can be probed on all of {0, 1, 2}
  (honest_rewindable_prover is protocol.prover_commit under that name);
* Transcript, one round's wire bytes and its challenge, used only here;
* a witness extractor that turns three accepting transcripts (one per
  challenge) under one commitment into an element of H within the bound;
* cheating provers that pass exactly two chosen challenges per state,
  realizing the 2/3 single-round soundness error;
* a rewinding simulator that produces accepting transcripts without the
  witness, and a distribution test comparing them to real ones.

The package exports the five rates `sdzkp analyze` reports, completeness
(the one in-process honest session) among them, and nothing else here.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count, islice
from random import Random
from typing import Callable, NamedTuple

from .crypto import apply_mask, fresh_seed
from .group import BSGS, word_width
from .instance import SDPInstance, Witness
from .perm import Permutation, _sample, random_support_perm
from .protocol import (
    CHALLENGES,
    COMMITMENT_BYTES,
    OPENS,
    ProverState,
    _shown,
    commit_round,
    commitment_digests,
    decode_response,
    honest_rounds,
    masked_round,
    prover_commit,
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
    for which verify_round accepts its commitment and respond(ch).  Each
    slot's opening is checked once (slot_opens) rather than under both
    challenges that open it, then each challenge's predicate (_shown); a
    part with no wire form (not bytes) fails just the challenges that open
    its slot, and a commitment of another length fails them all."""
    values, com = prover.values, prover.commitment
    if len(com) != COMMITMENT_BYTES:
        return set()
    opens = [slot_opens(inst, *each) for each in zip(commitment_digests(com), range(3), values, prover.openings)]
    return {
        ch for ch, (a, b) in OPENS.items()  # each challenge opens two slots
        if opens[a] and opens[b] and _shown(inst, ch, values[a], values[b]) is not None
    }


def transcript_for(inst: SDPInstance, prover: ProverState, challenge: int) -> Transcript:
    return Transcript(prover.commitment, challenge, prover.respond(challenge))


def completeness_rate(inst: SDPInstance, wit: Witness, rounds: int, rng: Random) -> float:
    """Fraction of `rounds` honest rounds, each challenged uniformly from rng
    after it is drawn, that verify."""
    states = honest_rounds(inst, wit, rounds, rng)
    accepted = 0
    for state in states:
        ch = verifier_challenge(rng)
        accepted += verify_round(inst, state.commitment, ch, state.respond(ch))
    return accepted / rounds


# --- extraction ---

def extract_witness(inst: SDPInstance, t0: Transcript, t1: Transcript, t2: Transcript) -> Permutation:
    """Witness from three accepting transcripts sharing one commitment.

    The transcripts must carry challenges {0, 1, 2} in any order, and each
    must verify: read_round shows u∘h at challenge 0 and u at 1, in the
    group's raw form, and h = u^-1 ∘ (u∘h).  Inconsistencies that the
    commitment scheme is supposed to rule out (diverging seeds or masked
    tuples under equal digests) are reported loudly rather than silently
    tolerated.
    """
    transcripts = (t0, t1, t2)
    by_ch = {t.challenge: t for t in transcripts}
    if set(by_ch) != set(CHALLENGES):
        raise ExtractionError(f"need one transcript per challenge, got {sorted(t.challenge for t in transcripts)}")
    com = transcripts[0].commitment
    if any(t.commitment != com for t in transcripts):
        raise ExtractionError("transcripts do not share a commitment")
    shown, values = {}, {}
    for ch, t in sorted(by_ch.items()):
        shown[ch] = read_round(inst, com, ch, t.response)
        if shown[ch] is None:
            raise ExtractionError(f"transcript for challenge {ch} does not verify")
        values[ch] = decode_response(t.response, inst.degree).values

    # Every value is opened under two challenges; both openings must agree.
    opened = {}
    for ch in CHALLENGES:
        for slot, value in zip(OPENS[ch], values[ch]):
            if opened.setdefault(slot, value) != value:
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
    if targets not in (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})):
        raise ValueError(f"targets must be two distinct challenges, got {sorted(targets)}")
    n, k = inst.degree, inst.max_distance
    group: BSGS = inst.group
    ops = group.ops

    for _ in range(_RESAMPLE_BOUND):
        seed = fresh_seed(rng)
        if 2 not in targets:
            fake = group.sample_uniform(rng)
            if ops.differing_words(ops.words(fake), ops.words(inst.target_tables[0])) <= k:
                continue
            prover = masked_round(inst, group.sample_uniform(rng), fake, seed, rng)
        else:  # the noise goes on Z2 when 0 is covered, on Z1 when 1 is
            member = group.sample_uniform(rng)
            if 1 in targets:
                member = ops.then(inst.target_tables[0], member)
            # the noisy words are arbitrary, not the words of any permutation
            words = ops.words(member)
            noisy = (int.from_bytes(words, "little") ^ _noise(n, k, rng)).to_bytes(len(words), "little")
            pair = apply_mask(seed, words, noisy)
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


def amplified_cheating_accepts(inst: SDPInstance, targets, rounds: int, trials: int, rng: Random) -> int:
    """How many of `trials` sequential sessions of `rounds` rounds a cheater wins.

    Each round uses a fresh cheating state; a session is won only if every
    round verifies, so the expected win rate is (2/3)^rounds."""
    return sum(
        all(_cheating_round_accepted(inst, targets, rng) for _ in range(rounds)) for _ in range(trials)
    )


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
    return masked_round(inst, ops.ident, ops.then(inst.target_tables[0], tau), fresh_seed(rng), rng)


def simulate(
    inst: SDPInstance,
    verifier: VerifierOracle,
    max_rewinds: int,
    rng: Random,
) -> Transcript | None:
    """Produce an accepting transcript against `verifier` without a witness.

    Guess which kind of challenge is coming, prepare a state that survives
    it, and query the verifier; on a bad guess, rewind and retry.  A guess
    in {0,1} covers both membership challenges, so each attempt succeeds
    with probability 5/9 against an honest verifier, and all attempts
    failing (probability at most (4/9)^max_rewinds) yields None.
    """
    require_positive(max_rewinds, "attempt")
    for _ in range(max_rewinds):
        guess = uniform_challenge(rng)  # not verifier_challenge: the guess is the simulator's own coin
        prover = _simulated_state(inst, guess, rng)
        ch = verifier(prover.commitment)
        if ch not in CHALLENGES:
            raise ValueError(f"verifier oracle returned invalid challenge {ch!r}")
        if (guess < 2 and ch < 2) or (guess == 2 and ch == 2):
            return transcript_for(inst, prover, ch)
    return None


def simulator_attempt_success_rate(inst: SDPInstance, attempts: int, rng: Random) -> float:
    """Empirical per-attempt success probability against an honest verifier."""
    require_positive(attempts, "attempt")
    verifier = honest_verifier(rng)
    hits = sum(1 for _ in range(attempts) if simulate(inst, verifier, 1, rng) is not None)
    return hits / attempts


def simulator_abort_rate(inst: SDPInstance, max_rewinds: int, runs: int, rng: Random) -> float:
    require_positive(runs, "run")
    verifier = honest_verifier(rng)
    aborts = sum(1 for _ in range(runs) if simulate(inst, verifier, max_rewinds, rng) is None)
    return aborts / runs


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
