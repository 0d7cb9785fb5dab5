"""Extraction, cheating strategies, simulation, and distribution checks."""

import hashlib
import random

import pytest

import sdzkp.analysis as analysis
import sdzkp.protocol
from sdzkp.analysis import (
    ExtractionError,
    accepted_challenges,
    binomial_two_sided_pvalue,
    chi2_contingency,
    chi2_sf,
    cheating_acceptance_rate,
    extract_witness,
    honest_rewindable_prover,
    honest_verifier,
    make_cheating_prover,
    simulate,
    simulator_abort_rate,
    simulator_attempt_success_rate,
    Transcript,
    transcript_distribution_test,
    transcript_for,
)
from sdzkp.crypto import COMMIT_TAGS, COMMITMENT_BYTES, DIGEST_BYTES, mask_values
from sdzkp.group import word_width
from sdzkp.instance import SDPInstance, Witness, instance_digest, plant_instance, validate_witness
from sdzkp.perm import Permutation, compose, random_support_perm
from sdzkp.protocol import (
    CHALLENGES,
    OPENS,
    SEED,
    SLOTS,
    NIZKProof,
    _shown,
    _write_response,
    commit_round,
    derive_challenges,
    encode_proof,
    fs_verify_bytes,
    max_response_bytes,
    prover_respond,
    prover_round,
    slot_opens,
    slot_size,
    verify_round,
)
from reference import (
    amplified_cheating_accepts, commit_slot, digests_of, masked_value, reference_read_response, s4_wr_s4, words_of,
)

TARGET_SETS = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(70)
    return plant_instance(16, 4, 6, rng)


@pytest.fixture(scope="module")
def small_abelian():
    rng = random.Random(71)
    return plant_instance(16, 5, 4, rng, preset="abelian2")


def test_honest_prover_survives_all_challenges(planted):
    inst, wit = planted
    rng = random.Random(72)
    for _ in range(20):
        prover = honest_rewindable_prover(inst, wit, rng)
        assert accepted_challenges(inst, prover) == {0, 1, 2}


def test_extractor_recovers_planted_witness(planted):
    inst, wit = planted
    rng = random.Random(73)
    for _ in range(50):
        prover = honest_rewindable_prover(inst, wit, rng)
        ts = [transcript_for(inst, prover, ch) for ch in (0, 1, 2)]
        extracted = extract_witness(inst, ts[0], ts[1], ts[2])
        assert extracted == wit.element


def test_extractor_accepts_any_transcript_order(planted):
    inst, wit = planted
    rng = random.Random(74)
    prover = honest_rewindable_prover(inst, wit, rng)
    t0, t1, t2 = (transcript_for(inst, prover, ch) for ch in (0, 1, 2))
    assert extract_witness(inst, t2, t0, t1) == wit.element


def test_extractor_yields_valid_witness_even_unplanted(planted):
    # whatever comes out must satisfy the statement
    inst, wit = planted
    rng = random.Random(75)
    prover = honest_rewindable_prover(inst, wit, rng)
    t0, t1, t2 = (transcript_for(inst, prover, ch) for ch in (0, 1, 2))
    h = extract_witness(inst, t0, t1, t2)
    assert validate_witness(inst, h)


def test_extractor_requires_all_three_challenges(planted):
    inst, wit = planted
    rng = random.Random(76)
    prover = honest_rewindable_prover(inst, wit, rng)
    t0 = transcript_for(inst, prover, 0)
    t1 = transcript_for(inst, prover, 1)
    with pytest.raises(ExtractionError):
        extract_witness(inst, t0, t1, t1)


def test_extractor_requires_shared_commitment(planted):
    inst, wit = planted
    rng = random.Random(77)
    a = honest_rewindable_prover(inst, wit, rng)
    b = honest_rewindable_prover(inst, wit, rng)
    with pytest.raises(ExtractionError):
        extract_witness(
            inst,
            transcript_for(inst, a, 0),
            transcript_for(inst, b, 1),
            transcript_for(inst, a, 2),
        )


def test_extractor_requires_verifying_transcripts(planted):
    inst, wit = planted
    rng = random.Random(78)
    prover = honest_rewindable_prover(inst, wit, rng)
    t0, t1, t2 = (transcript_for(inst, prover, ch) for ch in (0, 1, 2))
    broken = Transcript(t0.commitment, 0, _write_response(0, (*prover.values[:SEED], bytes(32)), prover.openings))
    with pytest.raises(ExtractionError):
        extract_witness(inst, broken, t1, t2)


def test_extractor_reports_binding_violations(planted, monkeypatch):
    # Diverging openings behind equal digests cannot be produced without a
    # hash collision, so force verification green and check the audit trips.
    inst, wit = planted
    rng = random.Random(79)
    a = honest_rewindable_prover(inst, wit, rng)
    b = honest_rewindable_prover(inst, wit, rng)
    monkeypatch.setattr(analysis, "read_round", lambda *args: True)

    t0, t1, t2 = (transcript_for(inst, a, ch) for ch in (0, 1, 2))
    alien_seed = Transcript(a.commitment, 1, prover_respond(b, 1))
    with pytest.raises(ExtractionError, match="seed"):
        extract_witness(inst, t0, alien_seed, t2)

    alien_witness = Transcript(a.commitment, 2, prover_respond(b, 2))
    with pytest.raises(ExtractionError, match="masked witness"):
        extract_witness(inst, t0, t1, alien_witness)

    mixed = _write_response(2, (a.values[0], b.values[1], a.values[SEED]), a.openings)
    with pytest.raises(ExtractionError, match="masked target"):
        extract_witness(inst, t0, t1, Transcript(a.commitment, 2, mixed))


def test_cheating_prover_profiles_exact(planted):
    inst, _ = planted
    rng = random.Random(80)
    for targets in TARGET_SETS:
        for _ in range(30):
            prover = make_cheating_prover(inst, targets, rng)
            assert accepted_challenges(inst, prover) == targets


def verified_challenges(inst, prover):
    """accepted_challenges' one reference: the challenges at which one whole
    verify_round (whether read_round shows anything) accepts the round's
    wire bytes."""
    return {ch for ch in CHALLENGES if verify_round(inst, prover.commitment, ch, prover_respond(prover, ch))}


def corrupted(prover):
    """The state with one slot's value, opening or digest broken, with that
    slot and whether the broken state still has a wire form (no part that
    is not bytes): a flipped first or last byte, a cut, or (for a value or
    an opening) not bytes at all."""
    fields = (("values", prover.values), ("openings", prover.openings), ("commitment", digests_of(prover.commitment)))
    for field, parts in fields:
        for slot, part in enumerate(parts):
            for bad in (bytes([part[0] ^ 1]) + part[1:], part[:-1] + bytes([part[-1] ^ 0x80]), part[:-4], None):
                broken = parts[:slot] + (bad,) + parts[slot + 1:]
                if field == "commitment":
                    if bad is None:
                        continue
                    broken = b"".join(broken)
                yield slot, prover._replace(**{field: broken}), bad is not None


@pytest.mark.parametrize("fixture", ["planted", "small_abelian"])
def test_accepted_challenges_equals_one_verify_round_per_challenge(fixture, request):
    inst, wit = request.getfixturevalue(fixture)
    rng = random.Random(86)
    for _ in range(3):
        states = [honest_rewindable_prover(inst, wit, rng)]
        states += [make_cheating_prover(inst, targets, rng) for targets in TARGET_SETS]
        states += [analysis._simulated_state(inst, guess, rng) for guess in CHALLENGES]
        for prover in states:
            expected = verified_challenges(inst, prover)
            assert len(expected) >= 2
            assert accepted_challenges(inst, prover) == expected
            for slot, broken, on_the_wire in corrupted(prover):
                accepted = accepted_challenges(inst, broken)
                if len(broken.commitment) == COMMITMENT_BYTES:
                    # a broken part fails exactly the challenges that open its slot
                    assert accepted == {ch for ch in expected if slot not in OPENS[ch]}
                else:  # a cut commitment is no round's: it fails every challenge
                    assert accepted == set()
                if on_the_wire:
                    assert accepted == verified_challenges(inst, broken)


def opens_then_holds(inst, commitment, challenge, response):
    """verify_round's two steps on a round's decoded response: slot_opens
    for each slot the challenge opens, then whether _shown shows anything
    on the opened values."""
    (_, values, openings), _ = reference_read_response(response, 0, inst.degree)
    opened = zip(OPENS[challenge], values, openings)
    return all(
        slot_opens(inst, commitment, slot, value, opening) for slot, value, opening in opened
    ) and _shown(inst, challenge, *values) is not None


@pytest.mark.parametrize("fixture", ["planted", "small_abelian"])
def test_slot_opens_then_holds_is_verify_round(fixture, request):
    """For every challenge to honest, cheating and simulated states, the two
    steps give verify_round's verdict.  slot_opens also refuses, on its own,
    values it is not meant to take, and verify_round refuses them on the
    wire: each malformed value below is committed or masked so that only a
    form check can refuse it."""
    inst, wit = request.getfixturevalue(fixture)
    n, rng = inst.degree, random.Random(87)
    states = [honest_rewindable_prover(inst, wit, rng) for _ in range(3)]
    states += [make_cheating_prover(inst, targets, rng) for targets in TARGET_SETS]
    states += [analysis._simulated_state(inst, guess, rng) for guess in CHALLENGES]
    verdicts = []
    for state in states:
        for ch in CHALLENGES:
            verdict = verify_round(inst, state.commitment, ch, prover_respond(state, ch))
            assert opens_then_holds(inst, state.commitment, ch, prover_respond(state, ch)) is verdict
            verdicts.append(verdict)
    assert verdicts.count(True) >= 3 * 3 + 3 * 2 + 3 * 1 and False in verdicts

    honest = states[0]
    com, values, openings = honest.commitment, honest.values, honest.openings
    assert all(slot_opens(inst, com, slot, values[slot], openings[slot]) for slot in range(3))
    assert all(_shown(inst, ch, *(values[slot] for slot in OPENS[ch])) is not None for ch in CHALLENGES)

    def foreign(value):  # the same bytes as a str, None, or a bytearray
        return [value.decode("latin-1"), None, bytearray(value)]

    for slot in range(3):
        value, opening = values[slot], openings[slot]
        # a commitment that is no bytes, or a byte short or long
        for bad in [*foreign(com), com[:-1], com + b"\x00"]:
            assert slot_opens(inst, bad, slot, value, opening) is False
        for bad in foreign(value):
            assert slot_opens(inst, com, slot, bad, opening) is False
        for bad in foreign(opening):
            assert slot_opens(inst, com, slot, value, bad) is False

    def verifies(state, ch):
        return verify_round(inst, state.commitment, ch, prover_respond(state, ch))

    # a 31-byte seed, committed, with Z1 masked under it: only its length is wrong
    short_seed = values[SEED][:31]
    (words,) = mask_values(values[SEED], values[0])
    z1 = masked_value(words_of(words, n), short_seed, n)
    commitment, opening = commit_slot(short_seed, COMMIT_TAGS[SEED], rng)
    assert slot_opens(inst, commitment, SEED, short_seed, opening) is False
    assert verifies(commit_round(z1, values[1], short_seed, rng), 0) is False

    # masked values, committed, a byte short or long
    for resize in (lambda z: z[:-1], lambda z: z + b"\x00"):
        for slot in (0, 1):
            bad = resize(values[slot])
            commitment, opening = commit_slot(bad, COMMIT_TAGS[slot], rng)
            assert slot_opens(inst, commitment, slot, bad, opening) is False
        z1, z2 = (resize(values[slot]) for slot in (0, 1))
        state = commit_round(z1, z2, values[SEED], rng)
        assert not any(verifies(state, ch) for ch in CHALLENGES)
        assert verifies(commit_round(z1, values[1], values[SEED], rng), 2) is False


def planted_on_s4_wr_s4():
    """A planted instance on S_4 wr S_4 (reference.s4_wr_s4), a non-giant
    chain that is not abelian, its witness at distance exactly 6."""
    group, rng = s4_wr_s4(), random.Random(89)
    h = Permutation._trusted(group.ops.decode(group.sample_uniform(rng)))
    inst = SDPInstance(compose(random_support_perm(16, 6, rng), h), group, 6)
    return inst, Witness(h)


# (make the instance, its group's giant kind): the analysis workload's
# abelian2 family, a certified S_16, a certified A_16, a non-giant chain,
# and A_260, whose elements are image tuples.
DIFFERENTIAL_FAMILIES = {
    "abelian2-16": (lambda: plant_instance(16, 5, 4, random.Random(71), preset="abelian2"), "no"),
    "S16": (lambda: plant_instance(16, 4, 6, random.Random(70)), "S_n"),
    "A16": (lambda: plant_instance(16, 4, 6, random.Random(16)), "A_n"),
    "S4wrS4": (planted_on_s4_wr_s4, "no"),
    "A260": (lambda: plant_instance(260, 3, 65, random.Random(260)), "A_n"),
}


def one_byte_flipped(state, rng):
    """The state with one byte flipped, at a random position, in each slot's
    value, opening and digest in turn."""
    for slot in SLOTS:
        for field in ("values", "openings", "commitment"):
            parts = list(getattr(state, field))
            if field == "commitment":
                at = DIGEST_BYTES * slot + rng.randrange(DIGEST_BYTES)
                parts[at] ^= 1 << rng.randrange(8)
                yield state._replace(commitment=bytes(parts))
            else:
                part = bytearray(parts[slot])
                part[rng.randrange(len(part))] ^= 1 << rng.randrange(8)
                parts[slot] = bytes(part)
                yield state._replace(**{field: tuple(parts)})


@pytest.mark.parametrize("make, giant", DIFFERENTIAL_FAMILIES.values(), ids=DIFFERENTIAL_FAMILIES)
def test_accepted_challenges_equals_the_round_readers_verdicts(make, giant):
    """accepted_challenges judges a state in one pass; read_round, once per
    challenge on the state's wire bytes, must show something at exactly the
    challenges it accepts: on honest states, each cheating strategy's, the
    simulator's under each guess, and each of those with one byte of a
    value, an opening or a digest flipped."""
    inst, wit = make()
    assert inst.group.giant == giant
    rng = random.Random(91)
    states = [honest_rewindable_prover(inst, wit, rng) for _ in range(2)]
    states += [make_cheating_prover(inst, targets, rng) for targets in TARGET_SETS]
    states += [analysis._simulated_state(inst, guess, rng) for guess in CHALLENGES]
    judged = [accepted_challenges(inst, state) for state in states]
    assert judged[:5] == [{0, 1, 2}] * 2 + TARGET_SETS
    assert judged[5] >= {0, 1} and judged[6] >= {0, 1} and 2 in judged[7]  # what each guess covers
    narrowed = 0
    for state, accepted in zip(states, judged):
        assert accepted == verified_challenges(inst, state)
        for broken in one_byte_flipped(state, rng):
            assert accepted_challenges(inst, broken) == verified_challenges(inst, broken)
            narrowed += accepted_challenges(inst, broken) < accepted
    assert narrowed == 9 * len(states)


def _misshapen_values(z, n):
    """Stand-ins for the masked value z at degree n: a byte short or long, a
    word short, and n words of the other width."""
    w = word_width(n)
    return [z[:-1], z + b"\x00", z[:-w], z[:n] if w == 4 else z * 4]


@pytest.mark.parametrize("n, gens, k", [(5, 2, 2), (256, 3, 64), (257, 3, 64)])
def test_wire_forms_hold_at_the_byte_table_boundary(n, gens, k):
    """Degree 256 is the last with byte-table elements and one-byte words,
    257 the first with image tuples and u32 words, and at degree 5 a masked
    value is under 32 bytes, so the kind 0 and 1 responses are the longest.
    Every committed value has its slot's length, the longest response is
    max_response_bytes long, and each reader refuses a committed masked
    value of another length."""
    inst, wit = plant_instance(n, gens, k, random.Random(n), preset="general")
    rng = random.Random(88)
    h = inst.group.ops.encode(wit.element.images)
    states = [prover_round(inst, h, rng) for _ in range(3)]
    states += [make_cheating_prover(inst, targets, rng) for targets in TARGET_SETS]
    states += [analysis._simulated_state(inst, guess, rng) for guess in CHALLENGES]
    for state in states:
        for slot, value in enumerate(state.values):
            assert type(value) is bytes and len(value) == slot_size(slot, n)
    lengths = [len(prover_respond(state, ch)) for state in states for ch in CHALLENGES]
    assert max(lengths) == max_response_bytes(n)

    z1, z2, seed = states[0].values
    assert len(mask_values(seed, z1)[0]) == word_width(n) * n
    for bad1, bad2 in zip(_misshapen_values(z1, n), _misshapen_values(z2, n)):
        for slot, bad in ((0, bad1), (1, bad2)):
            commitment, opening = commit_slot(bad, COMMIT_TAGS[slot], rng)
            assert slot_opens(inst, commitment, slot, bad, opening) is False

    # a proof whose every round commits both masked values in the form under
    # test, so each challenge opens one; the canonical pair verifies
    def proof(pair):
        rounds = [commit_round(*pair, seed, rng) for _ in range(4)]
        commitments = tuple(state.commitment for state in rounds)
        challenges = derive_challenges(instance_digest(inst), b"", commitments)
        return encode_proof(NIZKProof(commitments, tuple(prover_respond(s, ch) for s, ch in zip(rounds, challenges))))

    assert fs_verify_bytes(inst, proof((z1, z2)), b"", 4)
    for pair in zip(_misshapen_values(z1, n), _misshapen_values(z2, n)):
        assert fs_verify_bytes(inst, proof(pair), b"", 4) is False


def test_cheating_prover_rejects_bad_targets(planted):
    inst, _ = planted
    rng = random.Random(81)
    for bad in [frozenset(), frozenset({0}), frozenset({0, 1, 2}), frozenset({0, 3})]:
        with pytest.raises(ValueError):
            make_cheating_prover(inst, bad, rng)


def test_cheating_prover_gives_up_when_no_element_is_far():
    # k = n puts every element of H within the bound of the target, so no
    # fake for {0, 1} is found and the resamples run out
    inst, _ = plant_instance(8, 2, 8, random.Random(85))
    with pytest.raises(ValueError, match="could not build a cheating state"):
        make_cheating_prover(inst, {0, 1}, random.Random(86))


def test_cheating_transcripts_defeat_extraction(planted):
    inst, _ = planted
    rng = random.Random(82)
    prover = make_cheating_prover(inst, {0, 1}, rng)
    ts = [transcript_for(inst, prover, ch) for ch in (0, 1, 2)]
    with pytest.raises(ExtractionError):
        extract_witness(inst, ts[0], ts[1], ts[2])


def test_cheating_rate_near_two_thirds(planted):
    inst, _ = planted
    rng = random.Random(83)
    for targets in TARGET_SETS:
        rate = cheating_acceptance_rate(inst, targets, 1500, rng)
        assert abs(rate - 2 / 3) < 0.05


def test_amplification_crushes_cheaters(planted):
    inst, _ = planted
    rng = random.Random(84)
    # 12 rounds: win probability (2/3)^12 ~ 0.0077; 200 trials see a few
    wins = amplified_cheating_accepts(inst, {0, 2}, 12, 200, rng)
    assert wins < 20
    # one-round sessions should be won about 2/3 of the time
    wins1 = amplified_cheating_accepts(inst, {0, 2}, 1, 600, rng)
    assert abs(wins1 / 600 - 2 / 3) < 0.08


def test_simulator_transcripts_verify(planted):
    inst, _ = planted
    rng = random.Random(85)
    verifier = honest_verifier(rng)
    produced = 0
    while produced < 100:
        t = simulate(inst, verifier, 64, rng)
        if t is None:
            continue
        produced += 1
        assert verify_round(inst, t.commitment, t.challenge, t.response)


def test_simulator_per_attempt_rate(planted):
    inst, _ = planted
    rng = random.Random(86)
    rate = simulator_attempt_success_rate(inst, 4000, rng)
    assert abs(rate - 5 / 9) < 0.04


def test_simulator_abort_rate_shrinks(planted):
    inst, _ = planted
    rng = random.Random(87)
    r1 = simulator_abort_rate(inst, 1, 2000, rng)
    r4 = simulator_abort_rate(inst, 4, 2000, rng)
    assert abs(r1 - 4 / 9) < 0.05
    assert r4 < (4 / 9) ** 4 + 0.05


def test_simulator_against_fixed_challenge_verifier(planted):
    # a verifier that always asks the distance challenge is satisfiable,
    # only the expected number of rewinds grows
    inst, _ = planted
    rng = random.Random(88)
    produced = 0
    for _ in range(50):
        t = simulate(inst, lambda _m: 2, 64, rng)
        if t is None:
            continue
        produced += 1
        assert t.challenge == 2
        assert verify_round(inst, t.commitment, t.challenge, t.response)
    assert produced == 50  # abort chance (2/3)^64 is negligible


def test_simulate_validates_inputs(planted):
    inst, _ = planted
    rng = random.Random(89)
    with pytest.raises(ValueError):
        simulate(inst, honest_verifier(rng), 0, rng)
    with pytest.raises(ValueError):
        simulate(inst, lambda _m: 9, 8, rng)


def test_distribution_report_on_small_group(small_abelian):
    inst, wit = small_abelian
    rng = random.Random(91)
    order = inst.group.order()
    assert order <= 120
    report = transcript_distribution_test(inst, wit, max(2000, 10 * order), rng)
    assert report.passed
    assert report.p_value > 0.001
    assert report.acceptance_rate_real == 1.0
    assert report.acceptance_rate_simulated == 1.0
    assert report.samples_simulated == report.samples_real
    # rewinding bias: simulated marginal leans away from challenge 2
    sim_counts = report.challenge_counts_simulated
    assert sim_counts[2] < sim_counts[0] and sim_counts[2] < sim_counts[1]
    d = report.as_dict()
    assert set(d) == {"experiment", "samples", "statistic", "p_value", "pass", "details"}


def test_the_distribution_tally_counts_broken_transcripts_as_rejected(small_abelian, monkeypatch):
    """One in five simulated transcripts has a byte inside its first opened
    value flipped.  The test still reports: the broken transcripts count in
    the challenge counts and as rejected, and the members and weights come
    from the accepted transcripts only."""
    inst, wit = small_abelian
    n, simulate, tallied = inst.degree, analysis.simulate, []

    def one_in_five_broken(*args):
        t = simulate(*args)
        if t is not None:
            broken = len(tallied) % 5 == 4
            if broken:
                response = bytearray(t.response)
                response[1 + len(tallied) % slot_size(OPENS[t.challenge][0], n)] ^= 0x40
                t = t._replace(response=bytes(response))
            tallied.append((t, broken))
        return t

    tables, chi2 = [], analysis.chi2_contingency
    monkeypatch.setattr(analysis, "simulate", one_in_five_broken)
    monkeypatch.setattr(analysis, "chi2_contingency", lambda table: tables.append(table) or chi2(table))
    samples = 10 * inst.group.order()
    report = transcript_distribution_test(inst, wit, samples, random.Random(96))

    assert len(tallied) == samples
    for t, broken in tallied:
        assert verify_round(inst, t.commitment, t.challenge, t.response) is not broken
    accepted = [t.challenge for t, broken in tallied if not broken]
    assert report.acceptance_rate_real == 1.0
    assert report.acceptance_rate_simulated == len(accepted) / samples == 1 - (samples // 5) / samples
    assert report.challenge_counts_simulated == {ch: [t.challenge for t, _ in tallied].count(ch) for ch in CHALLENGES}
    (table,) = tables
    assert sum(table[0]) == report.challenge_counts_real[0]
    assert sum(table[1]) == accepted.count(0)
    assert sum(report.distance_weights_simulated.values()) == accepted.count(2)
    assert set(report.distance_weights_simulated) <= set(range(inst.max_distance + 1))


def test_distribution_test_checks_the_witness_once(small_abelian, monkeypatch):
    inst, wit = small_abelian
    checks = []
    check = sdzkp.protocol.validate_witness
    monkeypatch.setattr(sdzkp.protocol, "validate_witness", lambda inst, h: checks.append(h) or check(inst, h))
    samples = 10 * inst.group.order()
    assert transcript_distribution_test(inst, wit, samples, random.Random(93)).acceptance_rate_real == 1.0
    assert checks == [wit.element]
    _, foreign = plant_instance(16, 5, 4, random.Random(94), preset="abelian2")
    assert not validate_witness(inst, foreign.element)
    rng = random.Random(95)
    coins = rng.getstate()
    with pytest.raises(ValueError, match="witness"):
        transcript_distribution_test(inst, foreign, samples, rng)
    assert rng.getstate() == coins  # refused before the first commitment drew a coin
    assert len(checks) == 2


def test_distribution_test_input_validation(planted, small_abelian):
    big_inst, big_wit = planted
    inst, wit = small_abelian
    rng = random.Random(92)
    if big_inst.group.order() > 120:
        with pytest.raises(ValueError):
            transcript_distribution_test(big_inst, big_wit, 2000, rng)
    with pytest.raises(ValueError):
        transcript_distribution_test(inst, wit, 5, rng)


# (hits, trials, p, 2 * scipy.stats.norm.sf(|z|)), computed with scipy 1.17.1
# when the p-value still came from scipy: a grid of |z| from 0 to 10 in
# steps of 0.5, both tails, and the rates the CLI tests against.
SCIPY_BINOMIAL_PVALUES = (
    (5000, 10000, 0.5, 1.0),
    (5025, 10000, 0.5, 0.6170750774519813),
    (5050, 10000, 0.5, 0.3173105078629137),
    (5075, 10000, 0.5, 0.13361440253771864),
    (5100, 10000, 0.5, 0.0455002638963582),
    (5125, 10000, 0.5, 0.012419330651552577),
    (5150, 10000, 0.5, 0.0026997960632601627),
    (5175, 10000, 0.5, 0.0004652581580710632),
    (5200, 10000, 0.5, 6.334248366623876e-05),
    (5225, 10000, 0.5, 6.795346249460348e-06),
    (5250, 10000, 0.5, 5.733031437583741e-07),
    (5275, 10000, 0.5, 3.797912493177669e-08),
    (5300, 10000, 0.5, 1.9731752900753246e-09),
    (5325, 10000, 0.5, 8.032001167718529e-11),
    (5350, 10000, 0.5, 2.559625087771559e-12),
    (5375, 10000, 0.5, 6.381783345821954e-14),
    (5400, 10000, 0.5, 1.2441921148542763e-15),
    (5425, 10000, 0.5, 1.8959069644407175e-17),
    (5450, 10000, 0.5, 2.257176811907535e-19),
    (5475, 10000, 0.5, 2.0989030150725664e-21),
    (5500, 10000, 0.5, 1.523970604831963e-23),
    (4500, 10000, 0.5, 1.5239706048321166e-23),
    (4975, 10000, 0.5, 0.6170750774519734),
    (666, 1000, 0.6666666666666666, 0.964329408270324),
    (700, 1000, 0.6666666666666666, 0.025347318677468277),
    (600, 1000, 0.6666666666666666, 7.7442164310441e-06),
    (500, 1000, 0.6666666666666666, 5.089468973814369e-29),
    (200, 300, 0.6666666666666666, 1.0),
    (180, 300, 0.6666666666666666, 0.014305878435429657),
    (1111, 2000, 0.5555555555555556, 0.9960105938185161),
    (1200, 2000, 0.5555555555555556, 6.334248366624096e-05),
    (2, 300, 0.007707346629258937, 0.8367026065132961),
    (1, 1000, 0.001, 1.0),
)


@pytest.mark.parametrize("hits, trials, p, expected", SCIPY_BINOMIAL_PVALUES)
def test_binomial_pvalue_matches_scipy(hits, trials, p, expected):
    assert binomial_two_sided_pvalue(hits, trials, p) == pytest.approx(expected, rel=1e-12, abs=0)


def test_binomial_pvalue():
    assert binomial_two_sided_pvalue(666, 1000, 2 / 3) > 0.5
    assert binomial_two_sided_pvalue(500, 1000, 2 / 3) < 1e-6


def test_binomial_pvalue_at_a_certain_rate():
    # (4/9)^rewinds underflows to 0.0 for a thousand rewinds
    assert binomial_two_sided_pvalue(0, 300, (4 / 9) ** 1000) == 1.0
    assert binomial_two_sided_pvalue(1, 300, 0.0) == 0.0
    assert binomial_two_sided_pvalue(300, 300, 1.0) == 1.0


# (df, x, chi2.sf(x, df)), computed with scipy 1.17.1 when the distribution
# test still called scipy: for each df, x = 1e-6 and x near chi2.isf(p, df) for
# p = 0.999, 0.5, 1e-3, 1e-10, 1e-50, 1e-150 and 1e-300.
SCIPY_CHI2_SF = (
    (1, 1e-06, 0.9992021155721779),
    (1, 1.571e-06, 0.9989999354327569),
    (1, 0.4549, 0.5000171607517765),
    (1, 10.83, 0.0009986863791802592),
    (1, 41.82, 1.0007451242596191e-10),
    (1, 224.4, 9.923697307995505e-51),
    (1, 683.8, 9.966882464170919e-151),
    (1, 1374.0, 9.382576632975123e-301),
    (2, 1e-06, 0.999999500000125),
    (2, 0.002001, 0.99900000033325),
    (2, 1.386, 0.5000735956957677),
    (2, 13.82, 0.0009977577964843118),
    (2, 46.05, 1.000851292084052e-10),
    (2, 230.3, 9.794683541393966e-51),
    (2, 690.8, 9.878385051771714e-151),
    (2, 1382.0, 7.98937865328314e-301),
    (3, 1e-06, 0.9999999997340385),
    (3, 0.0243, 0.9989998516811252),
    (3, 2.366, 0.4999950903659851),
    (3, 16.27, 0.0009982232399054186),
    (3, 49.54, 1.0010575930190157e-10),
    (3, 235.3, 9.881873957937042e-51),
    (3, 696.9, 9.868131297704666e-151),
    (3, 1388.0, 1.1832510772456708e-300),
    (4, 1e-06, 0.999999999999875),
    (4, 0.0908, 0.9990000875426415),
    (4, 3.357, 0.4999520607477308),
    (4, 18.47, 0.0009985695222055114),
    (4, 52.67, 9.990193434456516e-11),
    (4, 239.8, 1.0245140548289537e-50),
    (4, 702.5, 1.0021073171639773e-150),
    (4, 1395.0, 8.390064178926673e-301),
    (7, 1e-06, 1.0),
    (7, 0.5985, 0.9989999658629091),
    (7, 6.346, 0.4999786661506235),
    (7, 24.32, 0.0010007658891631787),
    (7, 60.9, 9.977908031800638e-11),
    (7, 252.1, 9.89900621876517e-51),
    (7, 717.8, 1.0013713127776817e-150),
    (7, 1412.0, 9.773941430918972e-301),
    (15, 1e-06, 1.0),
    (15, 3.483, 0.998999456163171),
    (15, 14.34, 0.49991470512173164),
    (15, 37.7, 0.0009990843015883135),
    (15, 79.15, 9.986509492987943e-11),
    (15, 279.5, 1.0012170395075238e-50),
    (15, 752.8, 1.0202144252993982e-150),
    (15, 1452.0, 1.0716716568152714e-300),
    (31, 1e-06, 1.0),
    (31, 12.2, 0.9989969404955968),
    (31, 30.34, 0.4997918096735474),
    (31, 61.1, 0.0009995343175044418),
    (31, 109.7, 1.0043560019198889e-10),
    (31, 325.0, 9.999847432501986e-51),
    (31, 812.0, 9.79457742008629e-151),
    (31, 1521.0, 9.516971205747008e-301),
    (63, 1e-06, 1.0),
    (63, 33.91, 0.9989980647893993),
    (63, 62.33, 0.5001645822260244),
    (63, 103.4, 0.0010092270914614885),
    (63, 162.5, 9.889153325837071e-11),
    (63, 401.2, 1.0120586979189981e-50),
    (63, 911.6, 1.0083428047173987e-150),
    (63, 1638.0, 1.0395597839005473e-300),
    (119, 1e-06, 1.0),
    (119, 76.95, 0.9990013685692435),
    (119, 118.3, 0.5008822311457249),
    (119, 172.4, 0.0010030282242829123),
    (119, 244.8, 9.961482380556603e-11),
    (119, 515.3, 1.0111851555481519e-50),
    (119, 1060.0, 9.751376404964156e-151),
    (119, 1813.0, 1.2340369824257986e-300),
)


# (table, statistic, p-value) of scipy.stats.chi2_contingency, computed with
# scipy 1.17.1: a 2x2 table (Yates' correction), a single column (df = 0), the
# tables that `analyze distribution --samples 2000|320 --seed 5` built, and a
# random 2x120 table of counts from 10 to 39.
SCIPY_CONTINGENCY = (
    pytest.param([[12, 5], [3, 9]], 4.171457749766574, 0.04111041419430694, id='yates-df1'),
    pytest.param([[7], [11]], 0.0, 1.0, id='df0'),
    pytest.param(
        [
            [22, 18, 24, 24, 17, 17, 13, 21, 26, 24, 23, 26, 20, 26, 25, 18, 18, 15, 23, 19, 23,
             22, 18, 24, 21, 26, 17, 19, 13, 21, 24, 15],
            [31, 28, 28, 28, 16, 21, 18, 26, 39, 23, 22, 18, 34, 30, 22, 22, 16, 27, 26, 23, 22,
             16, 26, 23, 19, 30, 22, 29, 25, 18, 24, 25],
        ],
        21.847897652188287, 0.887732367325576, id='cli-samples2000-seed5',
    ),
    pytest.param(
        [
            [4, 2, 2, 1, 2, 2, 1, 7, 4, 3, 3, 3, 6, 3, 3, 2, 4, 4, 3, 3, 3, 5, 2, 0, 0, 4, 4, 3,
             0, 5, 6, 3],
            [5, 5, 2, 4, 8, 5, 7, 3, 3, 1, 6, 1, 4, 3, 2, 6, 4, 4, 6, 3, 4, 5, 7, 6, 3, 6, 2, 1,
             1, 4, 6, 6],
        ],
        32.17734136519502, 0.4081906726490693, id='cli-samples320-seed5',
    ),
    pytest.param(
        [
            [24, 29, 21, 18, 14, 15, 37, 31, 10, 20, 26, 24, 38, 29, 12, 20, 27, 39, 29, 32, 11,
             33, 22, 15, 32, 24, 33, 23, 15, 15, 17, 11, 13, 14, 26, 37, 39, 28, 12, 34, 32, 22,
             35, 33, 38, 13, 39, 19, 16, 31, 17, 33, 35, 23, 38, 12, 34, 18, 39, 16, 22, 18, 20,
             35, 11, 16, 32, 38, 10, 38, 23, 11, 38, 22, 37, 25, 14, 10, 17, 23, 33, 39, 37, 13,
             29, 10, 13, 34, 28, 16, 38, 37, 16, 20, 10, 38, 12, 14, 27, 39, 10, 26, 12, 28, 25,
             27, 39, 16, 23, 12, 22, 16, 30, 34, 12, 32, 28, 14, 15, 29],
            [33, 11, 11, 18, 27, 31, 29, 37, 14, 33, 18, 33, 28, 11, 13, 37, 32, 22, 38, 17, 15,
             29, 26, 11, 33, 21, 37, 31, 26, 28, 28, 34, 32, 12, 37, 21, 13, 37, 38, 28, 21, 24,
             16, 22, 16, 28, 33, 10, 22, 35, 29, 20, 10, 23, 13, 16, 17, 24, 18, 20, 36, 12, 19,
             30, 19, 13, 26, 35, 11, 10, 22, 34, 27, 35, 23, 25, 21, 32, 34, 17, 28, 33, 12, 23,
             30, 17, 13, 34, 22, 26, 21, 37, 27, 21, 14, 31, 19, 15, 32, 36, 38, 18, 10, 11, 35,
             15, 18, 15, 13, 29, 14, 10, 11, 11, 24, 16, 35, 22, 19, 29],
        ],
        381.51537806511965, 2.9184506505780636e-29, id='random-2x120',
    ),
)


@pytest.mark.parametrize("df, x, expected", SCIPY_CHI2_SF)
def test_chi2_sf_matches_scipy(df, x, expected):
    assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=0)


def test_chi2_sf_at_zero():
    assert chi2_sf(0.0, 1) == chi2_sf(0.0, 4) == 1.0


@pytest.mark.parametrize("table, statistic, p_value", SCIPY_CONTINGENCY)
def test_chi2_contingency_matches_scipy(table, statistic, p_value):
    stat, p = chi2_contingency(table)
    assert stat == pytest.approx(statistic, rel=1e-10, abs=0)
    assert p == pytest.approx(p_value, rel=1e-10, abs=0)


@pytest.mark.parametrize("table", [[[0, 0, 0], [4, 5, 6]], [[3, 0, 2], [1, 0, 7]], [[], []]])
def test_chi2_contingency_rejects_a_zero_expected_count(table):
    with pytest.raises(ValueError):
        chi2_contingency(table)


def _state_digest(state):
    """SHA-256 over a state's commitment and its three encoded responses."""
    h = hashlib.sha256(state.commitment)
    for ch in CHALLENGES:
        h.update(prover_respond(state, ch))
    return h.hexdigest()


# Pinned so that any change to how the cheating provers and the simulator
# draw their coins or build their masked values shows up.  Each state has
# its own seeded rng: 80 + the two targets for a cheater, 90 + the guess for
# the simulator.
@pytest.mark.parametrize("preset, n, gens, k, instance_seed, digests", [
    ("abelian2", 16, 5, 4, 71, (
        "be321860792890c8cc1fe9b8bd85af2ef0374066c50d52a4744e9b5c11a4fb87",
        "c4f57db96bbb7726c7f0ae0ed2efaafddcfe938a7f7ead69d4722d52741a9d06",
        "eeeba23423ba42f59fd2c4f2032fd493f646bd16980433b705ff6f6a5961ea4c",
        "e71377b573483f3450c6d63463fb6f69d7deac0d4981e6e0bbc4eb63fbabdfd0",
        "690f27691c05f49a105b62ee36ab49d2262718f3f981bd00b895586bbcb64503",
        "7859d8fab15292efaac8a8756871632cffb00a430fe860258cc6054966eb4911",
    )),
    ("general", 16, 4, 6, 70, (  # a certified S_16
        "5cf57ecdd1eea24601ec0d3812364c737feb580b235c543788d595f2862d1d0c",
        "0477aeed76ae2becced7ef33990dd8e723540c139cb74fb7c4e3ad6b647f9976",
        "6dbd94aa6e75eb07411a4f765d89d75c1bafa9cc0dc07e43285b4f032ad59c6f",
        "1441296aafcf57e45c83c467655a6400e3d87844797e7370383c8c3a71feaaa5",
        "0da6c08d65c57acfcf070f7ce15a0668620c197e93fddbe205f1c20b9a66ecba",
        "08ce903800e67d909f26586372088ab451a606ed71f0ae6da103cdb9a1b9d62a",
    )),
])
def test_analysis_prover_states_are_pinned(preset, n, gens, k, instance_seed, digests):
    inst, _ = plant_instance(n, gens, k, random.Random(instance_seed), preset=preset)
    assert (inst.group.giant == "S_n") == (preset == "general")
    states = [make_cheating_prover(inst, targets, random.Random(80 + sum(targets))) for targets in TARGET_SETS]
    states += [analysis._simulated_state(inst, guess, random.Random(90 + guess)) for guess in CHALLENGES]
    assert tuple(_state_digest(state) for state in states) == digests
