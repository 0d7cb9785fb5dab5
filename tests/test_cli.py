"""End-to-end command-line behavior, including a loopback proof session."""

import json
import math
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sdzkp.cli
import sdzkp.instance
import sdzkp.net
import sdzkp.protocol
from sdzkp.analysis import make_cheating_prover
from sdzkp.cli import EXIT_ACCEPT, EXIT_REJECT, EXIT_USAGE, main, make_rng, parse_addr
from sdzkp.instance import instance_digest, load_instance, load_witness, validate_witness
from sdzkp.protocol import NIZKProof, derive_challenges, encode_proof, fs_verify_bytes, prover_respond


def keygen(tmp_path, *extra):
    args = ["keygen", "--out-dir", str(tmp_path), "--seed", "7"]
    args += list(extra)
    assert main(args) == EXIT_ACCEPT
    return tmp_path / "instance.sdz", tmp_path / "witness.sdw"


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_parse_addr():
    assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_addr("[::1]:70") == ("::1", 70)
    assert parse_addr("::1:70") == ("::1", 70)
    with pytest.raises(ValueError):
        parse_addr("no-port")
    with pytest.raises(ValueError):
        parse_addr(":123")
    with pytest.raises(ValueError):
        parse_addr("[]:123")
    with pytest.raises(ValueError):
        parse_addr("host:notaport")
    with pytest.raises(ValueError):
        parse_addr("127.0.0.1:70000")
    with pytest.raises(ValueError):
        parse_addr("127.0.0.1:-1")


@pytest.mark.parametrize("command", [["verify", "--listen"], ["prove", "--connect"]])
def test_out_of_range_port_is_a_usage_error(tmp_path, capsys, command):
    inst_path, wit_path = keygen(tmp_path)
    args = [*command, "127.0.0.1:70000", "--instance", str(inst_path), "--timeout-ms", "1000"]
    if command[0] == "prove":
        args += ["--witness", str(wit_path)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: port must be in 0..65535" in err and "Traceback" not in err


@pytest.mark.parametrize("timeout", ["0", "-5", "100000000000000"])
@pytest.mark.parametrize("command", [["verify", "--listen"], ["prove", "--connect"]])
def test_out_of_range_timeout_is_a_usage_error(tmp_path, capsys, command, timeout):
    # 0 made the listener non-blocking, so `verify` printed its listening line
    # and then REJECT; 10^14 ms overflowed time_t inside the socket calls.
    inst_path, wit_path = keygen(tmp_path)
    args = [*command, f"127.0.0.1:{free_port()}", "--instance", str(inst_path), f"--timeout-ms={timeout}"]
    if command[0] == "prove":
        args += ["--witness", str(wit_path)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--timeout-ms: must be in 1..2147483647 ms" in err
    assert "listening on" not in err and "Traceback" not in err


def test_make_rng(capsys):
    assert isinstance(make_rng(None), random.SystemRandom)
    seeded = make_rng(42)
    assert "WARNING" in capsys.readouterr().err
    assert seeded.random() == random.Random(42).random()


def test_keygen_writes_loadable_pair(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path, "--n", "16", "--gens", "3", "--k", "5")
    out = capsys.readouterr().out
    assert "instance.sdz" in out and "witness.sdw" in out
    assert "log2|H|=44.3" in out and "base=15" in out and "giant=S_n" in out
    inst = load_instance(inst_path)
    wit = load_witness(wit_path)
    assert inst.degree == 16 and inst.max_distance == 5
    assert validate_witness(inst, wit.element)


@pytest.mark.parametrize("preset, gens, seed, giant", [
    ("general", "3", "7", "S_n"),
    ("general", "2", "9", "A_n"),
    ("abelian2", "3", "7", "no"),
])
def test_keygen_warns_when_the_group_is_giant(tmp_path, capsys, preset, gens, seed, giant):
    args = ["keygen", "--out-dir", str(tmp_path), "--n", "16", "--gens", gens, "--k", "4",
            "--preset", preset, "--seed", seed]
    assert main(args) == EXIT_ACCEPT
    captured = capsys.readouterr()
    assert f"giant={giant}" in captured.out
    warned = "trivially solvable" in captured.err
    assert warned == (giant != "no")
    if giant != "no":
        assert f"H is {giant}" in captured.err


def test_keygen_rejects_impossible_distance(tmp_path, capsys):
    code = main(["keygen", "--out-dir", str(tmp_path), "--k", "1", "--seed", "1"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_keygen_refuses_more_generators_than_an_instance_file_reads(tmp_path, capsys):
    out_dir = tmp_path / "keys"
    code = main(["keygen", "--out-dir", str(out_dir), "--n", "8", "--gens", "65537", "--seed", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == "error: unreasonable generator count 65537"
    assert not out_dir.exists()


@pytest.mark.parametrize("args, message", [
    (["--n", "0", "--k", "0"], "degree must be at least 1"),
    (["--preset", "abelian2", "--n", "1", "--k", "0"], "abelian2 preset needs degree at least 2"),
], ids=["general", "abelian2"])
def test_keygen_refuses_a_degree_its_preset_cannot_draw(tmp_path, capsys, args, message):
    out_dir = tmp_path / "keys"
    assert main(["keygen", "--out-dir", str(out_dir), *args]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("umask", [0o000, 0o022])
def test_keygen_writes_the_witness_for_its_owner_only(tmp_path, umask):
    # the witness is the prover's secret key, so the umask cannot widen it;
    # the public instance keeps the mode the umask gives a new file
    old = os.umask(umask)
    try:
        inst_path, wit_path = keygen(tmp_path)
    finally:
        os.umask(old)
    assert wit_path.stat().st_mode & 0o777 == 0o600
    assert inst_path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("kept", [("instance.sdz", "witness.sdw"), ("instance.sdz",), ("witness.sdw",)])
def test_keygen_replaces_no_key_file(tmp_path, capsys, kept):
    keygen(tmp_path)
    for name in {"instance.sdz", "witness.sdw"} - set(kept):
        (tmp_path / name).unlink()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["keygen", "--out-dir", str(tmp_path), "--seed", "8"]) == EXIT_USAGE
    assert f"error: {tmp_path / kept[0]} already exists" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604, 0o644])
@pytest.mark.parametrize("command", ["fs-prove", "prove"])
def test_a_witness_others_can_read_is_warned_of(tmp_path, capsys, command, mode):
    inst_path, wit_path = keygen(tmp_path)
    wit_path.chmod(mode)
    capsys.readouterr()
    args = [command, "--instance", str(inst_path), "--witness", str(wit_path), "--rounds", "8", "--seed", "9"]
    if command == "fs-prove":
        assert main([*args, "--proof", str(tmp_path / "p.sdp")]) == EXIT_ACCEPT
    else:  # warned before it dials a port where nothing listens
        assert main([*args, "--connect", f"127.0.0.1:{free_port()}", "--timeout-ms", "2000"]) == EXIT_USAGE
    warning = f"WARNING: the witness {wit_path} is readable by group or others (mode {mode:o})"
    assert (warning in capsys.readouterr().err) is bool(mode & 0o044)


def test_unknown_input_files_are_usage_errors(tmp_path):
    missing = str(tmp_path / "nope.sdz")
    assert main(["fs-verify", "--instance", missing, "--proof", missing]) == EXIT_USAGE


def test_fs_prove_and_verify(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path)
    proof = tmp_path / "p.sdp"
    code = main([
        "fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
        "--proof", str(proof), "--rounds", "24", "--context", "unit", "--seed", "9",
    ])
    assert code == EXIT_ACCEPT
    assert proof.exists()
    capsys.readouterr()

    verify = ["fs-verify", "--instance", str(inst_path), "--proof", str(proof), "--rounds", "24"]
    code = main([*verify, "--context", "unit"])
    assert code == EXIT_ACCEPT
    assert "ACCEPT" in capsys.readouterr().out

    code = main([*verify, "--context", "other"])
    assert code == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_fs_verify_rejects_corrupt_and_truncated(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path)
    proof = tmp_path / "p.sdp"
    main([
        "fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
        "--proof", str(proof), "--rounds", "8", "--seed", "9",
    ])
    data = proof.read_bytes()

    verify = ["fs-verify", "--instance", str(inst_path), "--rounds", "8", "--proof"]
    truncated = tmp_path / "t.sdp"
    truncated.write_bytes(data[: len(data) // 2])
    assert main([*verify, str(truncated)]) == EXIT_REJECT

    flipped = bytearray(data)
    flipped[len(flipped) // 3] ^= 0x20
    corrupt = tmp_path / "c.sdp"
    corrupt.write_bytes(bytes(flipped))
    assert main([*verify, str(corrupt)]) == EXIT_REJECT

    missing = tmp_path / "missing.sdp"
    assert main([*verify, str(missing)]) == EXIT_USAGE
    capsys.readouterr()


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_fs_verify_refuses_a_file_longer_than_any_proof(tmp_path):
    # A 1 TiB sparse file uses no disk blocks; read whole, it raised an
    # uncaught MemoryError.  The process runs with 4 GiB of address space, so
    # a read of the whole file fails at once instead of filling memory.  At
    # 10^8 rounds (past protocol._MAX_ROUNDS, so no proof holds them) the
    # longest proof would be far past 4 GiB, and a read that asked for that
    # many bytes would fail the same way on the huge file, a short file or a
    # pipe; no byte is read.
    inst_path, wit_path = keygen(tmp_path)
    proof, huge = tmp_path / "p.sdp", tmp_path / "huge.sdp"
    assert main(["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
                 "--proof", str(proof), "--seed", "9"]) == EXIT_ACCEPT
    with open(huge, "wb") as f:
        f.truncate(1 << 40)
    piped = proof.read_bytes()
    for path, rounds, stdin, verdict, code in (
        (huge, 219, None, "REJECT", EXIT_REJECT),
        (huge, 10**8, None, "REJECT", EXIT_REJECT),
        (proof, 219, None, "ACCEPT", EXIT_ACCEPT),
        (proof, 10**8, None, "REJECT", EXIT_REJECT),
        ("/dev/stdin", 219, piped, "ACCEPT", EXIT_ACCEPT),
        ("/dev/stdin", 10**8, piped, "REJECT", EXIT_REJECT),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "sdzkp.cli", "fs-verify", "--instance", str(inst_path), "--proof", str(path),
             "--rounds", str(rounds)],
            input=stdin, capture_output=True, env=_src_env(), timeout=60, preexec_fn=_limit_address_space,
        )
        assert (result.stdout, result.returncode) == (f"{verdict}\n".encode(), code), result.stderr
        assert b"Traceback" not in result.stderr


def test_fs_prove_refuses_more_rounds_than_a_proof_holds(tmp_path, capsys, monkeypatch):
    # the proof walk reads at most protocol._MAX_ROUNDS rounds, so fs-prove
    # must not write a longer proof that every fs-verify rejects
    inst_path, wit_path = keygen(tmp_path)
    monkeypatch.setattr(sdzkp.protocol, "_MAX_ROUNDS", 3)
    proof = tmp_path / "p.sdp"
    args = ["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
            "--proof", str(proof), "--seed", "9"]
    assert main([*args, "--rounds", "4"]) == EXIT_USAGE
    assert not proof.exists()
    err = capsys.readouterr().err
    assert "error: unreasonable round count 4" in err and "Traceback" not in err
    assert main([*args, "--rounds", "3"]) == EXIT_ACCEPT
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof), "--rounds", "3"]) == EXIT_ACCEPT
    capsys.readouterr()


def test_fs_verify_rejects_wrong_instance(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path / "a")
    other_path, _ = keygen(tmp_path / "b", "--seed", "8")
    proof = tmp_path / "p.sdp"
    main([
        "fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
        "--proof", str(proof), "--rounds", "8", "--seed", "9",
    ])
    assert main(["fs-verify", "--instance", str(other_path), "--proof", str(proof), "--rounds", "8"]) == EXIT_REJECT
    capsys.readouterr()


@pytest.mark.parametrize("extra, giant", [
    (["--seed", "2"], "S_n"),  # a certified S_16
    (["--seed", "4", "--preset", "abelian2", "--n", "64", "--gens", "16", "--k", "16"], "no"),  # loads by its chain
], ids=["S16", "abelian2-n64"])
def test_unseeded_fs_prove_and_verify(tmp_path, capsys, extra, giant):
    # without --seed the prover draws from random.SystemRandom, as users run it
    inst_path, wit_path = keygen(tmp_path, *extra)
    captured = capsys.readouterr()
    assert f"giant={giant}" in captured.out
    assert ("trivially solvable" in captured.err) == (giant != "no")
    proof = tmp_path / "p.sdp"
    assert main(["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
                 "--proof", str(proof)]) == EXIT_ACCEPT
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof)]) == EXIT_ACCEPT
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "ACCEPT" and captured.err == ""


def test_fs_verify_rejects_random_bytes_and_the_previous_magic(tmp_path, capsys):
    # SDP3 is the magic of the format before this one (SHA3-256 commitments)
    inst_path, wit_path = keygen(tmp_path)
    proof, noise, old = tmp_path / "p.sdp", tmp_path / "noise.sdp", tmp_path / "old.sdp"
    assert main(["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
                 "--proof", str(proof), "--seed", "9"]) == EXIT_ACCEPT
    noise.write_bytes(random.Random(4096).randbytes(4096))
    old.write_bytes(b"SDP3" + proof.read_bytes()[4:])
    capsys.readouterr()
    for path in (noise, old):
        assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(path)]) == EXIT_REJECT
    assert capsys.readouterr().out.split() == ["REJECT", "REJECT"]


def test_loopback_interactive_session(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path)
    port = free_port()
    result = {}

    def verifier():
        result["code"] = main([
            "verify", "--listen", f"127.0.0.1:{port}", "--instance", str(inst_path),
            "--rounds", "40", "--timeout-ms", "10000", "--seed", "11",
        ])

    th = threading.Thread(target=verifier)
    th.start()
    time.sleep(0.3)
    code = None
    for _ in range(5):
        code = main([
            "prove", "--connect", f"127.0.0.1:{port}", "--instance", str(inst_path),
            "--witness", str(wit_path), "--rounds", "40", "--timeout-ms", "10000", "--seed", "12",
        ])
        if code == EXIT_ACCEPT:
            break
        time.sleep(0.2)
    th.join(15)
    assert code == EXIT_ACCEPT
    assert result["code"] == EXIT_ACCEPT
    assert "ACCEPT" in capsys.readouterr().out


def test_loopback_rejects_wrong_witness(tmp_path, capsys):
    inst_path, _ = keygen(tmp_path / "a")
    other_inst, other_wit = keygen(tmp_path / "b", "--n", "20", "--seed", "8")
    port = free_port()
    result = {}

    def verifier():
        result["code"] = main([
            "verify", "--listen", f"127.0.0.1:{port}", "--instance", str(inst_path),
            "--rounds", "40", "--timeout-ms", "10000", "--seed", "13",
        ])

    th = threading.Thread(target=verifier)
    th.start()
    time.sleep(0.3)
    # prover runs on an instance of a different degree: every response opens
    # tuples of the wrong length, so the first round already fails
    main([
        "prove", "--connect", f"127.0.0.1:{port}", "--instance", str(other_inst),
        "--witness", str(other_wit), "--rounds", "40", "--timeout-ms", "10000", "--seed", "14",
    ])
    th.join(15)
    assert result["code"] == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_prove_refuses_a_failing_witness_before_dialling(tmp_path, capsys):
    inst_path, _ = keygen(tmp_path / "a", "--seed", "1")
    _, foreign_wit = keygen(tmp_path / "b", "--seed", "2")
    assert not validate_witness(load_instance(inst_path), load_witness(foreign_wit).element)
    capsys.readouterr()
    # nothing listens on the port: dialling first would fail with "connection refused"
    code = main([
        "prove", "--connect", f"127.0.0.1:{free_port()}", "--instance", str(inst_path),
        "--witness", str(foreign_wit), "--rounds", "8", "--timeout-ms", "2000",
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == "error: witness does not satisfy the statement"


def test_verify_refuses_zero_rounds(tmp_path, capsys):
    # A peer that connects and sends nothing must never be accepted.
    inst_path, _ = keygen(tmp_path)
    port = free_port()
    result = {}

    def verifier():
        result["code"] = main([
            "verify", "--listen", f"127.0.0.1:{port}", "--instance", str(inst_path),
            "--rounds", "0", "--timeout-ms", "3000", "--seed", "15",
        ])

    th = threading.Thread(target=verifier)
    th.start()
    deadline = time.monotonic() + 3
    while th.is_alive() and time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1):
                th.join(5)
        except OSError:
            time.sleep(0.05)
    th.join(10)
    captured = capsys.readouterr()
    assert result["code"] == EXIT_USAGE
    assert "ACCEPT" not in captured.out
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert "listening on" not in captured.err  # refused before binding


@pytest.mark.parametrize("bad", ["missing", "corrupt"])
def test_verify_listens_then_fails_on_a_bad_instance(tmp_path, capsys, monkeypatch, bad):
    # verify binds and announces its port before it loads the instance; a
    # prover that dialled in the meantime must fail cleanly, not hang or crash.
    inst_path, wit_path = keygen(tmp_path)
    bad_path = tmp_path / "bad.sdz"
    if bad == "corrupt":
        bad_path.write_bytes(inst_path.read_bytes()[:40])
    capsys.readouterr()
    loading, dialled = threading.Event(), threading.Event()
    result = {}
    real_load, real_session = sdzkp.instance.load_instance, sdzkp.net.prover_session

    def load_once_the_prover_dialled(path):
        if Path(path) == bad_path:
            loading.set()
            dialled.wait(10)
        return real_load(path)

    def session_after_the_dial(*args, **kwargs):
        result["dialled"] = True  # dialled itself is also set below, so that no failure hangs the verifier
        dialled.set()
        return real_session(*args, **kwargs)

    monkeypatch.setattr(sdzkp.instance, "load_instance", load_once_the_prover_dialled)
    # connect_and_prove runs the session's rounds through prover_session once it has dialled
    monkeypatch.setattr(sdzkp.net, "prover_session", session_after_the_dial)
    port = free_port()

    def verifier():
        result["code"] = main([
            "verify", "--listen", f"127.0.0.1:{port}", "--instance", str(bad_path),
            "--rounds", "8", "--timeout-ms", "5000", "--seed", "16",
        ])

    th = threading.Thread(target=verifier)
    th.start()
    try:
        assert loading.wait(10), "verify never reached the instance load"
        prover_code = main([
            "prove", "--connect", f"127.0.0.1:{port}", "--instance", str(inst_path),
            "--witness", str(wit_path), "--rounds", "8", "--timeout-ms", "5000", "--seed", "17",
        ])
    finally:
        dialled.set()
        th.join(10)
    assert not th.is_alive()
    captured = capsys.readouterr()
    assert result.get("dialled") and result["code"] == EXIT_USAGE
    assert prover_code != EXIT_ACCEPT
    assert "ACCEPT" not in captured.out and "proof session completed" not in captured.out
    assert "Traceback" not in captured.err
    listening = captured.err.index(f"listening on 127.0.0.1:{port}")
    assert captured.err.index("error:", listening) > listening


def test_cli_offers_every_preset():
    assert sdzkp.cli.PRESETS == sdzkp.instance.PRESETS


def test_cli_rounds_are_the_protocol_rounds_and_reach_128_bits():
    # One round has soundness error 2/3, so t rounds give t * log2(3/2) bits.
    assert sdzkp.cli.ROUNDS == sdzkp.protocol.ROUNDS == 219
    assert 218 * math.log2(3 / 2) < 128 <= 219 * math.log2(3 / 2)
    required = {
        "prove": ["--connect", "h:1", "--instance", "i", "--witness", "w"],
        "verify": ["--listen", "h:1", "--instance", "i"],
        "fs-prove": ["--instance", "i", "--witness", "w", "--proof", "p"],
        "fs-verify": ["--instance", "i", "--proof", "p"],
    }
    parser = sdzkp.cli.build_parser()
    for command, args in required.items():
        assert parser.parse_args([command, *args]).rounds == 219


def test_fs_verify_warns_below_the_default_round_count(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path)
    for rounds in (218, 219):
        proof = tmp_path / f"p{rounds}.sdp"
        assert main(["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
                     "--proof", str(proof), "--rounds", str(rounds), "--seed", "3"]) == EXIT_ACCEPT
        capsys.readouterr()
        assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof),
                     "--rounds", str(rounds)]) == EXIT_ACCEPT
        captured = capsys.readouterr()
        assert captured.out == "ACCEPT\n"
        warning = "WARNING: 218 rounds give 127.5 bits of soundness, below the 128 bits of the default 219\n"
        assert captured.err == (warning if rounds == 218 else "")


def test_fs_verify_refuses_a_one_round_forgery_at_the_default_count(tmp_path, capsys):
    # A witness-less state that passes challenges 0 and 1, redrawn until the
    # challenge derived from its commitment is one of them: a valid
    # one-round proof, so a verifier that took the prover's count would
    # accept it, made without a witness with probability 2/3.
    inst_path, _ = keygen(tmp_path)
    inst = load_instance(inst_path)
    rng = random.Random(99)
    while True:
        state = make_cheating_prover(inst, {0, 1}, rng)
        (challenge,) = derive_challenges(instance_digest(inst), b"", (state.commitment,))
        if challenge in (0, 1):
            break
    data = encode_proof(NIZKProof((state.commitment,), (prover_respond(state, challenge),)))
    assert fs_verify_bytes(inst, data, b"", 1)
    assert fs_verify_bytes(inst, data, b"") is False
    forged = tmp_path / "forged.sdp"
    forged.write_bytes(data)
    capsys.readouterr()
    verify = ["fs-verify", "--instance", str(inst_path), "--proof", str(forged)]
    assert main(verify) == EXIT_REJECT
    assert main([*verify, "--rounds", "1"]) == EXIT_ACCEPT
    assert main([*verify, "--rounds", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out.split() == ["REJECT", "ACCEPT"]
    assert captured.err.splitlines()[-1] == "error: need at least one round"


# Runs one CLI command in a fresh interpreter, then prints the sdzkp modules it
# loaded, and logging and dataclasses if it loaded them, as the last line of
# stdout.
_LOADED_MODULES = (
    "import json, sys\n"
    "from sdzkp.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('sdzkp', 'logging', 'dataclasses'))))\n"
    "sys.exit(code)\n"
)


def _src_env(**extra):
    src = str(Path(sdzkp.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("SDZKP_LOG", None)
    return {**env, **extra}


def _cli_process(*args, **env):
    return subprocess.Popen(
        [sys.executable, "-c", _LOADED_MODULES, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(**env),
    )


def _loaded_modules(proc, timeout=60):
    """(stdout, stderr, loaded modules) of a finished _cli_process."""
    out, err = proc.communicate(timeout=timeout)
    assert proc.returncode == EXIT_ACCEPT, err
    return out, err, json.loads(out.splitlines()[-1])


def test_importing_the_cli_loads_no_layer():
    script = "import json, sys, sdzkp.cli; print(json.dumps(sorted(m for m in sys.modules if 'sdzkp' in m)))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["sdzkp", "sdzkp.cli"]


@pytest.mark.parametrize("command", ["keygen", "fs-prove", "fs-verify"])
def test_offline_commands_load_neither_net_nor_analysis(tmp_path, capsys, command):
    inst_path, wit_path = keygen(tmp_path)
    proof = tmp_path / "p.sdp"
    assert main(["fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
                 "--proof", str(proof), "--rounds", "8", "--seed", "9"]) == EXIT_ACCEPT
    capsys.readouterr()
    args = {
        "keygen": ["--out-dir", tmp_path / "again", "--seed", "7"],
        "fs-prove": ["--instance", inst_path, "--witness", wit_path, "--proof", tmp_path / "q.sdp",
                     "--rounds", "8", "--seed", "9"],
        "fs-verify": ["--instance", inst_path, "--proof", proof, "--rounds", "8"],
    }[command]
    _, _, loaded = _loaded_modules(_cli_process(command, *args))
    assert "sdzkp.instance" in loaded
    assert "sdzkp.net" not in loaded and "sdzkp.analysis" not in loaded
    assert "logging" not in loaded and "dataclasses" not in loaded


def test_analyze_loads_no_dataclasses():
    _, _, loaded = _loaded_modules(_cli_process("analyze", "distribution", "--samples", 320, "--seed", 5))
    assert "sdzkp.analysis" in loaded and "dataclasses" not in loaded


def _loopback_session(tmp_path, host="127.0.0.1", **verifier_env):
    """A real `sdzkp verify` and `sdzkp prove` process over loopback at host
    (an IPv6 literal in brackets); returns each one's (stdout, stderr, loaded
    modules), the prover's first.  The verifier's stderr goes to a file,
    polled for its port, so no line is lost to a pipe reader's read-ahead.
    The prover dials the address the verifier announces."""
    inst_path, wit_path = keygen(tmp_path)
    common = ["--instance", inst_path, "--rounds", "8", "--timeout-ms", "20000"]
    err_path = tmp_path / "verifier.err"
    with open(err_path, "w") as err_file:
        verifier = subprocess.Popen(
            [sys.executable, "-c", _LOADED_MODULES, "verify", "--listen", f"{host}:0", *map(str, common)],
            stdout=subprocess.PIPE, stderr=err_file, text=True, env=_src_env(**verifier_env),
        )
    try:
        deadline = time.monotonic() + 60
        while "\n" not in err_path.read_text():
            assert verifier.poll() is None and time.monotonic() < deadline, err_path.read_text()
            time.sleep(0.01)
        line = err_path.read_text().splitlines()[0]
        assert line.startswith(f"listening on {host}:"), line
        prover = _cli_process("prove", "--connect", line.removeprefix("listening on "), "--witness", wit_path, *common)
        prover_run = _loaded_modules(prover)
        out, _, loaded = _loaded_modules(verifier)
    finally:
        verifier.kill()
        verifier.communicate()
    verifier_run = out, err_path.read_text(), loaded
    assert "proof session completed" in prover_run[0] and verifier_run[0].splitlines()[0] == "ACCEPT"
    assert "WARNING: 8 rounds give 4.7 bits of soundness, below the 128 bits of the default 219" in \
        verifier_run[1].splitlines()
    return prover_run, verifier_run


def test_loopback_session_leaves_analysis_unloaded(tmp_path):
    for _, _, loaded in _loopback_session(tmp_path):
        assert "sdzkp.net" in loaded and "sdzkp.analysis" not in loaded
        assert "logging" not in loaded and "dataclasses" not in loaded


def _can_bind_ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6) as s:
            s.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _can_bind_ipv6_loopback(), reason="the IPv6 loopback ::1 cannot be bound")
def test_ipv6_loopback_session(tmp_path):
    # the IPv6 literal goes in brackets on both ends, and the verifier
    # announces its bound address in the same form
    _, (_, verifier_err, _) = _loopback_session(tmp_path, host="[::1]")
    assert re.fullmatch(r"listening on \[::1\]:[1-9][0-9]*", verifier_err.splitlines()[0])


def test_verify_warns_after_listening_below_the_default_round_count(tmp_path):
    inst_path, wit_path = keygen(tmp_path)
    common = ["--instance", inst_path, "--rounds", "8", "--timeout-ms", "20000"]
    verifier = _cli_process("verify", "--listen", "127.0.0.1:0", *common)
    try:
        listening, warning = verifier.stderr.readline(), verifier.stderr.readline()
        assert listening.startswith("listening on 127.0.0.1:"), listening
        assert warning == "WARNING: 8 rounds give 4.7 bits of soundness, below the 128 bits of the default 219\n"
        port = int(listening.rsplit(":", 1)[1])
        prover = _cli_process("prove", "--connect", f"127.0.0.1:{port}", "--witness", wit_path, *common)
        assert "proof session completed" in _loaded_modules(prover)[0]
        assert _loaded_modules(verifier)[0].splitlines()[0] == "ACCEPT"
    finally:
        verifier.kill()
        verifier.communicate()


def test_sdzkp_log_loads_logging_and_logs_the_session(tmp_path):
    prover_run, (_, verifier_err, verifier_loaded) = _loopback_session(tmp_path, SDZKP_LOG="info")
    assert "logging" in verifier_loaded and "logging" not in prover_run[2]
    assert "sdzkp.net INFO session with" in verifier_err


@pytest.mark.parametrize("args", [
    ["completeness", "--rounds", "0"],
    ["soundness", "--rounds", "0"],
    ["simulator", "--attempts", "0"],
    ["simulator", "--attempts", "10", "--runs", "0"],
])
def test_analyze_refuses_zero_counts(args, capsys):
    assert main(["analyze", *args, "--seed", "25"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: need at least one")


def test_analyze_completeness_checks_the_witness_once(capsys, monkeypatch):
    checks = []
    check = sdzkp.protocol.validate_witness
    monkeypatch.setattr(sdzkp.protocol, "validate_witness", lambda inst, h: checks.append(h) or check(inst, h))
    assert main(["analyze", "completeness", "--rounds", "300", "--seed", "21"]) == EXIT_ACCEPT
    assert json.loads(capsys.readouterr().out)["statistic"] == 1.0
    assert len(checks) == 1


def test_analyze_completeness(capsys):
    code = main(["analyze", "completeness", "--rounds", "300", "--seed", "21"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_ACCEPT
    assert report["experiment"] == "completeness"
    assert report["statistic"] == 1.0
    assert report["pass"] is True


def test_analyze_soundness(capsys):
    code = main(["analyze", "soundness", "--strategy", "02", "--rounds", "2000", "--seed", "22"])
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "soundness"
    assert 0.6 < report["statistic"] < 0.74
    assert (code == EXIT_ACCEPT) == report["pass"]


def test_analyze_soundness_passes_an_honest_small_run(capsys):
    # rate 0.653 over 300 rounds lies 0.5 sd below 2/3, well within chance;
    # an absolute tolerance of 0.01 would call it a failure
    code = main(["analyze", "soundness", "--rounds", "300", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert report["p_value"] > 0.5
    assert report["pass"] is True
    assert code == EXIT_ACCEPT


def test_analyze_simulator(capsys):
    code = main([
        "analyze", "simulator", "--attempts", "2000", "--runs", "1000",
        "--max-rewinds", "4", "--seed", "23",
    ])
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "simulator"
    assert 0.5 < report["statistic"] < 0.62
    assert report["details"]["abort_rate"] <= 0.1
    assert (code == EXIT_ACCEPT) == report["pass"]


@pytest.mark.parametrize("preset", ["abelian2", "general"])
def test_analyze_every_strategy_and_the_simulator(capsys, preset):
    # each cheating strategy's rate must lie within chance of 2/3, and the
    # simulator's of 5/9, or the command exits 1
    for argv in (*(["soundness", "--strategy", s] for s in ("01", "02", "12")), ["simulator"]):
        assert main(["analyze", *argv, "--preset", preset, "--seed", "5"]) == EXIT_ACCEPT
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_analyze_distribution(capsys):
    code = main([
        "analyze", "distribution", "--samples", "2000", "--seed", "24",
    ])
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "distribution"
    assert set(report) == {"experiment", "samples", "statistic", "p_value", "pass", "details"}
    assert (code == EXIT_ACCEPT) == report["pass"]


def test_analyze_distribution_needs_no_scipy():
    # A None entry in sys.modules makes every import of scipy raise ImportError.
    script = (
        "import sys; sys.modules['scipy'] = None; from sdzkp.cli import main; "
        "sys.exit(main(['analyze', 'distribution', '--samples', '320', '--seed', '5']))"
    )
    src = str(Path(sdzkp.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == EXIT_ACCEPT, result.stderr
    assert json.loads(result.stdout)["pass"] is True


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["not-a-command"])


# Seed 1's two generators both fix point 13 and generate A_15 there, so H is
# not giant on 16 points; seeds 2 and 9 give S_16 and A_16.
@pytest.mark.parametrize("argv, giant", [
    (["completeness", "--rounds", "10", "--seed", "1"], "no"),
    (["completeness", "--rounds", "10", "--seed", "2"], "S_n"),
    (["completeness", "--rounds", "10", "--seed", "9"], "A_n"),
    (["soundness", "--rounds", "30", "--seed", "9"], "A_n"),
    (["simulator", "--attempts", "30", "--runs", "30", "--seed", "9"], "A_n"),
    (["distribution", "--samples", "1200", "--seed", "1"], "no"),  # abelian2
])
def test_analyze_reports_whether_the_group_is_giant(capsys, argv, giant):
    main(["analyze", *argv])
    assert json.loads(capsys.readouterr().out)["details"]["giant"] == giant
