"""End-to-end command-line behavior, including a loopback proof session."""

import json
import os
import random
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
from sdzkp.cli import EXIT_ACCEPT, EXIT_REJECT, EXIT_USAGE, main, make_rng, parse_addr
from sdzkp.instance import load_instance, load_witness, validate_witness


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
    assert parse_addr("[::1]:70") == ("[::1]", 70)
    with pytest.raises(ValueError):
        parse_addr("no-port")
    with pytest.raises(ValueError):
        parse_addr(":123")
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

    code = main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof), "--context", "unit"])
    assert code == EXIT_ACCEPT
    assert "ACCEPT" in capsys.readouterr().out

    code = main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof), "--context", "other"])
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

    truncated = tmp_path / "t.sdp"
    truncated.write_bytes(data[: len(data) // 2])
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(truncated)]) == EXIT_REJECT

    flipped = bytearray(data)
    flipped[len(flipped) // 3] ^= 0x20
    corrupt = tmp_path / "c.sdp"
    corrupt.write_bytes(bytes(flipped))
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(corrupt)]) == EXIT_REJECT

    missing = tmp_path / "missing.sdp"
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(missing)]) == EXIT_USAGE
    capsys.readouterr()


def test_fs_prove_refuses_more_rounds_than_a_proof_holds(tmp_path, capsys, monkeypatch):
    # decode_proof reads at most protocol._MAX_ROUNDS rounds, so fs-prove
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
    assert main(["fs-verify", "--instance", str(inst_path), "--proof", str(proof)]) == EXIT_ACCEPT
    capsys.readouterr()


def test_fs_verify_rejects_wrong_instance(tmp_path, capsys):
    inst_path, wit_path = keygen(tmp_path / "a")
    other_path, _ = keygen(tmp_path / "b", "--seed", "8")
    proof = tmp_path / "p.sdp"
    main([
        "fs-prove", "--instance", str(inst_path), "--witness", str(wit_path),
        "--proof", str(proof), "--rounds", "8", "--seed", "9",
    ])
    assert main(["fs-verify", "--instance", str(other_path), "--proof", str(proof)]) == EXIT_REJECT
    capsys.readouterr()


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
    real_load, real_session = sdzkp.instance.load_instance, sdzkp.net.prover_session

    def load_once_the_prover_dialled(path):
        if Path(path) == bad_path:
            loading.set()
            dialled.wait(10)
        return real_load(path)

    def session_after_the_dial(*args, **kwargs):
        dialled.set()
        return real_session(*args, **kwargs)

    monkeypatch.setattr(sdzkp.instance, "load_instance", load_once_the_prover_dialled)
    monkeypatch.setattr(sdzkp.net, "prover_session", session_after_the_dial)
    port = free_port()
    result = {}

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
    assert dialled.is_set() and result["code"] == EXIT_USAGE
    assert prover_code != EXIT_ACCEPT
    assert "ACCEPT" not in captured.out and "proof session completed" not in captured.out
    assert "Traceback" not in captured.err
    listening = captured.err.index(f"listening on 127.0.0.1:{port}")
    assert captured.err.index("error:", listening) > listening


def test_cli_offers_every_preset():
    assert sdzkp.cli.PRESETS == sdzkp.instance.PRESETS


# Runs one CLI command in a fresh interpreter, then prints the sdzkp modules it
# loaded as the last line of stdout.
_LOADED_MODULES = (
    "import json, sys\n"
    "from sdzkp.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sdzkp')))\n"
    "sys.exit(code)\n"
)


def _src_env():
    src = str(Path(sdzkp.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_process(*args):
    return subprocess.Popen(
        [sys.executable, "-c", _LOADED_MODULES, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
    )


def _loaded_modules(proc, timeout=60):
    out, err = proc.communicate(timeout=timeout)
    assert proc.returncode == EXIT_ACCEPT, err
    return out, json.loads(out.splitlines()[-1])


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
        "fs-verify": ["--instance", inst_path, "--proof", proof],
    }[command]
    _, loaded = _loaded_modules(_cli_process(command, *args))
    assert "sdzkp.instance" in loaded
    assert "sdzkp.net" not in loaded and "sdzkp.analysis" not in loaded


def test_loopback_session_leaves_analysis_unloaded(tmp_path):
    inst_path, wit_path = keygen(tmp_path)
    common = ["--instance", inst_path, "--rounds", "8", "--timeout-ms", "20000"]
    verifier = _cli_process("verify", "--listen", "127.0.0.1:0", *common)
    try:
        line = verifier.stderr.readline()
        assert line.startswith("listening on 127.0.0.1:"), line
        port = int(line.rsplit(":", 1)[1])
        prover = _cli_process("prove", "--connect", f"127.0.0.1:{port}", "--witness", wit_path, *common)
        prover_out, prover_loaded = _loaded_modules(prover)
        verdict, verifier_loaded = _loaded_modules(verifier)
    finally:
        verifier.kill()
        verifier.communicate()
    assert "proof session completed" in prover_out and verdict.splitlines()[0] == "ACCEPT"
    for loaded in (prover_loaded, verifier_loaded):
        assert "sdzkp.net" in loaded and "sdzkp.analysis" not in loaded


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
