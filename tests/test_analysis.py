"""Extraction, cheating strategies, simulation, and distribution checks."""

import dataclasses
import hashlib
import random

import pytest

import sdzkp.analysis as analysis
from sdzkp.analysis import (
    ExtractionError,
    accepted_challenges,
    amplified_cheating_accepts,
    binomial_two_sided_pvalue,
    cheating_acceptance_rate,
    extract_witness,
    honest_rewindable_prover,
    honest_verifier,
    make_cheating_prover,
    simulate,
    simulator_abort_rate,
    simulator_attempt_success_rate,
    transcript_distribution_test,
    transcript_for,
)
from sdzkp.instance import plant_instance, validate_witness
from sdzkp.protocol import CHALLENGES, Transcript, encode_response, verify_round

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
    broken = Transcript(t0.commitment, 0, dataclasses.replace(t0.response, seed=bytes(32)))
    with pytest.raises(ExtractionError):
        extract_witness(inst, broken, t1, t2)


def test_extractor_reports_binding_violations(planted, monkeypatch):
    # Diverging openings behind equal digests cannot be produced without a
    # hash collision, so force verification green and check the audit trips.
    inst, wit = planted
    rng = random.Random(79)
    a = honest_rewindable_prover(inst, wit, rng)
    b = honest_rewindable_prover(inst, wit, rng)
    monkeypatch.setattr(analysis, "verify_round", lambda *args: True)

    t0, t1, t2 = (transcript_for(inst, a, ch) for ch in (0, 1, 2))
    alien_seed = Transcript(a.commitment, 1, b.respond(1))
    with pytest.raises(ExtractionError, match="seed"):
        extract_witness(inst, t0, alien_seed, t2)

    alien_witness = Transcript(a.commitment, 2, b.respond(2))
    with pytest.raises(ExtractionError, match="masked witness"):
        extract_witness(inst, t0, t1, alien_witness)

    mixed = dataclasses.replace(a.respond(2), masked_target=b.respond(2).masked_target)
    with pytest.raises(ExtractionError, match="masked target"):
        extract_witness(inst, t0, t1, Transcript(a.commitment, 2, mixed))


def test_cheating_prover_profiles_exact(planted):
    inst, _ = planted
    rng = random.Random(80)
    for targets in TARGET_SETS:
        for _ in range(30):
            prover = make_cheating_prover(inst, targets, rng)
            assert accepted_challenges(inst, prover) == targets


def test_cheating_prover_rejects_bad_targets(planted):
    inst, _ = planted
    rng = random.Random(81)
    for bad in [frozenset(), frozenset({0}), frozenset({0, 1, 2}), frozenset({0, 3})]:
        with pytest.raises(ValueError):
            make_cheating_prover(inst, bad, rng)


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


def _state_digest(state):
    """SHA-256 over a state's commitment and its three encoded responses."""
    h = hashlib.sha256(state.commitment.encode())
    for ch in CHALLENGES:
        h.update(encode_response(state.respond(ch)))
    return h.hexdigest()


# Pinned so that any change to how the cheating provers and the simulator
# draw their coins or build their masked tuples shows up.  Each state has
# its own seeded rng: 80 + the two targets for a cheater, 90 + the guess for
# the simulator.
@pytest.mark.parametrize("preset, n, gens, k, instance_seed, digests", [
    ("abelian2", 16, 5, 4, 71, (
        "70d8ac26c033ab0ad3a5d1384b4b36aeb18cfedfd1b3277ee4605c081e3ff392",
        "39dc96755a72420f8a4c5ca1d2395cfc133376abb83d3283df54cdc804e25d46",
        "4714b23239fed788df8b17b7123704257743a36b91e7c8a2624dc8a1787e3acb",
        "29d23a062a99d47698e32eb86109be1072e39da7b7c4383fab03a2a2b03672ed",
        "bdd7b4a369e1fc106b727611f9e5f2ffffaa45387537e4557e679dfe41089681",
        "e7aa9b0a5af76916d3e6bb42cdec6663b6cc468e9d09477c55c20c1d7a71f2e3",
    )),
    ("general", 16, 4, 6, 70, (  # a certified S_16
        "6c442f72117d5f561282b0bb390b73cb7d7cd7e190190d71f0a9d2bab3ae009e",
        "933d83959b4c30e6ce6bafd78e960d4d71c741723f6e99b0284dce39b08c1125",
        "8a6980133fb09c8f7548aae86304ef8b929a94ef5558dca232814e2d4ad4ced5",
        "5ca700a1a8516f1d00ee31b313a9844ecf9f82dec51a3e05f532e58cbcefdc1c",
        "6f039dbe7a3ae0193ce071a8559d48fe6bea3563a48bcfae895a8a4d6d83a680",
        "627758ee1f4bbe0d3757d88be6d435e337b849cba65e8b6683a51356c9745a12",
    )),
])
def test_analysis_prover_states_are_pinned(preset, n, gens, k, instance_seed, digests):
    inst, _ = plant_instance(n, gens, k, random.Random(instance_seed), preset=preset)
    assert (inst.group.giant == "S_n") == (preset == "general")
    states = [make_cheating_prover(inst, targets, random.Random(80 + sum(targets))) for targets in TARGET_SETS]
    states += [analysis._simulated_state(inst, guess, random.Random(90 + guess)) for guess in CHALLENGES]
    assert tuple(_state_digest(state) for state in states) == digests
