"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical criteria use fixed seeds, so results are reproducible;
tolerances are sized so that an honest implementation passes with large
margin and a broken one cannot.
"""

import random
import socket
import struct
import subprocess
import sys
import threading
import time

from sdzkp import net
from sdzkp.analysis import (
    accepted_challenges,
    amplified_cheating_accepts,
    cheating_acceptance_rate,
    extract_witness,
    honest_rewindable_prover,
    honest_verifier,
    make_cheating_prover,
    simulate,
    transcript_distribution_test,
    transcript_for,
)
from sdzkp.instance import brute_force_distance, plant_instance, save_instance, save_witness
from sdzkp.perm import Permutation, compose, hamming, random_perm
from sdzkp.net import MSG_COMMIT, MSG_RESPONSE
from sdzkp.protocol import (
    decode_response,
    encode_proof,
    fs_prove,
    fs_verify_bytes,
    prover_commit,
    prover_respond,
    verifier_challenge,
    verify_round,
)

TARGET_SETS = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))


def report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[{verdict}] {name}: {detail} ({elapsed:.1f}s)", flush=True)
    assert ok, f"{name}: {detail}"


def test_c01_completeness():
    """Honest sessions accept every round across degrees and presets."""
    t0 = time.perf_counter()
    rng = random.Random(1001)
    cases = []
    for n in (8, 16, 32, 64):
        cases.append((n, "general", 3, 2))
        cases.append((n, "general", 3, n // 4))
        cases.append((n, "general", 3, n // 2))
        cases.append((n, "abelian2", min(5, n // 2), n // 4))
        cases.append((n, "abelian2", min(5, n // 2), n // 2))
    assert len(cases) >= 20
    rounds_per_case = 10_000 // len(cases)
    total = 0
    accepted = 0
    for n, preset, gens, k in cases:
        inst, wit = plant_instance(n, gens, k, rng, preset=preset)
        for _ in range(rounds_per_case):
            state = prover_commit(inst, wit, rng)
            com = state.commitment
            ch = verifier_challenge(rng)
            total += 1
            if verify_round(inst, com, ch, prover_respond(state, ch)):
                accepted += 1
    elapsed = time.perf_counter() - t0
    ok = accepted == total and elapsed < 60
    report(
        "C1 completeness",
        ok,
        f"{accepted}/{total} rounds accepted over {len(cases)} instances, budget 60s",
        elapsed,
    )


def test_c02_single_round_soundness():
    """Each two-challenge strategy survives 2/3 +- 0.01 of uniform challenges."""
    t0 = time.perf_counter()
    rng = random.Random(1002)
    inst, _ = plant_instance(16, 4, 6, rng)
    details = []
    ok = True
    for targets in TARGET_SETS:
        for _ in range(200):
            prover = make_cheating_prover(inst, targets, rng)
            if accepted_challenges(inst, prover) != targets:
                ok = False
        rate = cheating_acceptance_rate(inst, targets, 30_000, rng)
        details.append(f"{sorted(targets)}={rate:.4f}")
        if abs(rate - 2 / 3) > 0.01:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(
        "C2 single-round soundness",
        ok,
        "rates " + " ".join(details) + " (target 0.6667 +- 0.01), exact 2-of-3 profiles, budget 120s",
        elapsed,
    )


def test_c03_amplification():
    """A cheating prover never survives 40 sequential rounds in 10^4 tries."""
    t0 = time.perf_counter()
    rng = random.Random(1003)
    inst, _ = plant_instance(16, 4, 6, rng)
    wins = 0
    for targets in TARGET_SETS:
        wins += amplified_cheating_accepts(inst, targets, 40, 10_000 // 3, rng)
    wins += amplified_cheating_accepts(inst, TARGET_SETS[0], 40, 10_000 - 3 * (10_000 // 3), rng)
    elapsed = time.perf_counter() - t0
    ok = wins == 0 and elapsed < 600
    report(
        "C3 amplification",
        ok,
        f"{wins} accepted sessions out of 10000 at 40 rounds (expected 0), budget 600s",
        elapsed,
    )


def test_c04_extraction():
    """Three accepting answers under one commitment yield the planted witness."""
    t0 = time.perf_counter()
    rng = random.Random(1004)
    hits = 0
    trials = 1000
    for i in range(trials):
        n = (8, 16)[i % 2]
        preset = ("general", "abelian2")[(i // 2) % 2]
        inst, wit = plant_instance(n, 3, n // 4, rng, preset=preset)
        prover = honest_rewindable_prover(inst, wit, rng)
        t_0, t_1, t_2 = (transcript_for(inst, prover, ch) for ch in (0, 1, 2))
        if extract_witness(inst, t_0, t_1, t_2) == wit.element:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits == trials and elapsed < 60
    report(
        "C4 extraction",
        ok,
        f"{hits}/{trials} extractions returned the planted witness, budget 60s",
        elapsed,
    )


def test_c05_simulator():
    """Per-attempt success 5/9 +- 0.02; abort rate within 3 sigma of (4/9)^M."""
    t0 = time.perf_counter()
    rng = random.Random(1005)
    inst, _ = plant_instance(16, 4, 6, rng)
    verifier = honest_verifier(rng)

    attempts = 30_000
    successes = 0
    for _ in range(attempts):
        t = simulate(inst, verifier, 1, rng)
        if t is not None:
            successes += 1
            if not verify_round(inst, t.commitment, t.challenge, t.response):
                report("C5 simulator", False, "a produced transcript failed verification", 0.0)
    rate = successes / attempts
    ok = abs(rate - 5 / 9) <= 0.02

    abort_details = []
    for m in (2, 4, 8):
        runs = 10_000
        aborts = 0
        for _ in range(runs):
            t = simulate(inst, verifier, m, rng)
            if t is None:
                aborts += 1
            elif not verify_round(inst, t.commitment, t.challenge, t.response):
                ok = False
        bound = (4 / 9) ** m
        sigma = (bound * (1 - bound) / runs) ** 0.5
        abort_details.append(f"M={m}:{aborts / runs:.4f}<={bound + 3 * sigma:.4f}")
        if aborts / runs > bound + 3 * sigma:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(
        "C5 simulator",
        ok,
        f"attempt rate {rate:.4f} (target 0.5556 +- 0.02), aborts {' '.join(abort_details)}, budget 120s",
        elapsed,
    )


def test_c06_distribution():
    """Unmasked membership openings are identically distributed over H."""
    t0 = time.perf_counter()
    rng = random.Random(1006)
    inst, wit = plant_instance(16, 6, 4, rng, preset="abelian2")
    order = inst.group.order()
    assert order <= 120
    rep = transcript_distribution_test(inst, wit, 100_000, rng)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.p_value > 0.001
        and rep.passed
        and rep.acceptance_rate_real == 1.0
        and rep.acceptance_rate_simulated == 1.0
        and elapsed < 120
    )
    report(
        "C6 distribution",
        ok,
        f"|H|={order}, chi2 p={rep.p_value:.4f} over {rep.samples_real} samples/side "
        f"(threshold 0.001), budget 120s",
        elapsed,
    )


def test_c07_metric_invariance():
    """Left-composition never changes the distance: 10^4 random triples."""
    t0 = time.perf_counter()
    rng = random.Random(1007)
    bad = 0
    for _ in range(10_000):
        n = rng.choice((4, 8, 16, 33, 64))
        u, h, g = (random_perm(n, rng) for _ in range(3))
        if hamming(compose(u, h), compose(u, g)) != hamming(h, g):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        "C7 metric invariance",
        bad == 0,
        f"{bad} violations of left-invariance in 10000 triples",
        elapsed,
    )


def test_c08_brute_force_consistency():
    """Exhaustive search agrees with the bound and membership on small groups."""
    t0 = time.perf_counter()
    rng = random.Random(1008)
    probes_done = 0
    ok = True
    group_specs = [
        (20, 8, 6, "abelian2"),
        (7, 2, 3, "general"),
        (16, 4, 4, "abelian2"),
        (6, 1, 2, "general"),
    ]
    for n, gens, k, preset in group_specs:
        inst, wit = plant_instance(n, gens, k, rng, preset=preset)
        assert inst.group.order() <= 10_000
        elems = inst.group.elements(10_000)
        universe = set(p.images for p in elems)
        dist, elem = brute_force_distance(inst, limit=10_000)
        oracle = min(hamming(p, inst.target) for p in elems)
        if dist != oracle or dist > k or hamming(elem, inst.target) != dist:
            ok = False
        for i in range(250):
            probe = Permutation(inst.group.ops.decode(inst.group.sample_uniform(rng))) if i % 2 else random_perm(n, rng)
            if inst.group.contains(probe) != (probe.images in universe):
                ok = False
            probes_done += 1
    elapsed = time.perf_counter() - t0
    report(
        "C8 brute force consistency",
        ok and probes_done >= 1000,
        f"min distance <= bound on {len(group_specs)} groups, {probes_done} membership probes vs enumeration",
        elapsed,
    )


def _replay_verifier(inst, stream: bytes, seed: int) -> bool:
    """Feed a recorded prover byte stream to a fresh verifier session."""
    a, b = socket.socketpair()
    a.settimeout(5)

    def feeder():
        try:
            a.sendall(stream)
            # drain the verifier's challenge frames until it hangs up
            while a.recv(4096):
                pass
        except OSError:
            pass
        finally:
            a.close()

    th = threading.Thread(target=feeder)
    th.start()
    try:
        with b:
            return net.verifier_session(b, inst, 1, random.Random(seed), time.monotonic() + 0.25)
    finally:
        th.join(10)


def _frame(msg_type: int, body: bytes) -> bytes:
    payload = bytes([msg_type]) + body
    return struct.pack("<I", len(payload)) + payload


def test_c09_mutation_robustness():
    """Single-byte corruption of anything the verifier checks is rejected.

    One caveat is inherent to the protocol: each round opens only two of the
    three commitments, so a mutation confined to the digest the challenge
    never opens is invisible to the verifier.  Those positions are excluded
    from the reject count and asserted separately to at least never crash.
    """
    t0 = time.perf_counter()
    rng = random.Random(1009)
    inst, wit = plant_instance(16, 4, 6, rng)
    seed = 424242
    expected_ch = random.Random(seed).randrange(3)
    state = prover_commit(inst, wit, rng)
    com = state.commitment
    rsp = prover_respond(state, expected_ch)
    stream = _frame(MSG_COMMIT, com) + _frame(MSG_RESPONSE, rsp)
    assert _replay_verifier(inst, stream, seed)  # sanity: unmutated stream accepts

    # digest slots inside the commit frame: c1 at 5..37, c2 at 37..69, c3 at 69..101
    unopened = {0: range(37, 69), 1: range(5, 37), 2: range(69, 101)}[expected_ch]
    checked_positions = [i for i in range(len(stream)) if i not in unopened]

    crashes = 0
    accepts = 0
    mutations = 0

    # 400 mutations of the raw wire stream over verifier-checked bytes
    for _ in range(400):
        data = bytearray(stream)
        pos = checked_positions[rng.randrange(len(checked_positions))]
        data[pos] ^= 1 + rng.randrange(255)
        mutations += 1
        try:
            if _replay_verifier(inst, bytes(data), seed):
                accepts += 1
        except Exception:
            crashes += 1

    # the unopened digest is dead weight for this challenge: mutations there
    # must pass through cleanly (no crash); the protocol cannot see them
    for pos in unopened:
        data = bytearray(stream)
        data[pos] ^= 1 + rng.randrange(255)
        try:
            assert _replay_verifier(inst, bytes(data), seed)
        except AssertionError:
            raise
        except Exception:
            crashes += 1

    # 300 mutations of a serialized response (decode + verify surface)
    for _ in range(300):
        data = bytearray(rsp)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 + rng.randrange(255)
        mutations += 1
        try:
            decode_response(bytes(data), inst.degree)
        except ValueError:
            continue  # clean parse rejection
        except Exception:
            crashes += 1
            continue
        try:
            if verify_round(inst, com, expected_ch, bytes(data)):
                accepts += 1
        except Exception:
            crashes += 1

    # 300 mutations of a full non-interactive proof
    proof_bytes = encode_proof(fs_prove(inst, wit, 8, b"fuzz", rng))
    assert fs_verify_bytes(inst, proof_bytes, b"fuzz", 8)
    for _ in range(300):
        data = bytearray(proof_bytes)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 + rng.randrange(255)
        mutations += 1
        try:
            if fs_verify_bytes(inst, bytes(data), b"fuzz", 8):
                accepts += 1
        except Exception:
            crashes += 1

    elapsed = time.perf_counter() - t0
    ok = crashes == 0 and accepts == 0 and mutations == 1000
    report(
        "C9 mutation robustness",
        ok,
        f"{mutations} single-byte mutations: {accepts} accepted, {crashes} crashes (both must be 0)",
        elapsed,
    )


def test_c10_tcp_end_to_end(tmp_path):
    """Separate prover and verifier processes complete 219 rounds at n=64."""
    t0 = time.perf_counter()
    rng = random.Random(1010)
    inst, wit = plant_instance(64, 3, 16, rng)
    ipath, wpath = tmp_path / "instance.sdz", tmp_path / "witness.sdw"
    save_instance(inst, ipath)
    save_witness(wit, wpath)

    verifier = subprocess.Popen(
        [
            sys.executable, "-m", "sdzkp.cli", "verify",
            "--listen", "127.0.0.1:0", "--instance", str(ipath),
            "--rounds", "219", "--timeout-ms", "25000",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = ""
        while "listening on" not in line:
            line = verifier.stderr.readline()
            if not line:
                raise AssertionError("verifier exited before binding")
        port = int(line.strip().rsplit(":", 1)[1])

        prover = subprocess.run(
            [
                sys.executable, "-m", "sdzkp.cli", "prove",
                "--connect", f"127.0.0.1:{port}", "--instance", str(ipath),
                "--witness", str(wpath), "--rounds", "219", "--timeout-ms", "25000",
            ],
            capture_output=True, text=True, timeout=30,
        )
        out, _ = verifier.communicate(timeout=30)
    finally:
        if verifier.poll() is None:
            verifier.kill()
            verifier.wait()

    elapsed = time.perf_counter() - t0
    ok = (
        prover.returncode == 0
        and verifier.returncode == 0
        and "ACCEPT" in out
        and elapsed < 30
    )
    report(
        "C10 interactive TCP",
        ok,
        f"n=64 t=219 verdict={'ACCEPT' if 'ACCEPT' in out else 'REJECT'} "
        f"prover_rc={prover.returncode} verifier_rc={verifier.returncode}, budget 30s",
        elapsed,
    )
