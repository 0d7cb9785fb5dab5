"""Tests of the benchmark itself, at the tiny --smoke sizes.

    python3 -m pytest -q sdzbench
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "sdzbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.per_layer_metrics())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, stdout = _bench(workload, 1, trace)
    result = _result(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert f"{m['name']} = " in stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_second_seed_passes_the_gate(workload):
    code, stdout = _bench(workload, 2, 0)
    result = _result(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracing_does_not_change_proofs():
    size = workloads.SIZES["nizk-n128-giant"]["smoke"]
    plain = workloads.nizk(5, size, ops=4, setups=1)
    tracer = spans.Tracer()
    traced = workloads.nizk(5, size, ops=4, setups=1, tracer=tracer)
    assert plain.failed == traced.failed == 0
    assert plain.proof_digests == traced.proof_digests and len(plain.proof_digests) == 4
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"perm.Permutation", "group.build_bsgs", "protocol.verify_round", "crypto.commit"} <= names


def test_wrappers_cover_every_name_and_come_off():
    import sdzkp
    from sdzkp import analysis, net, protocol

    original = protocol.verify_round
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = protocol.verify_round
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert net.verify_round is wrapped and analysis.verify_round is wrapped and sdzkp.verify_round is wrapped
    finally:
        tracer.uninstall()
    assert protocol.verify_round is original and net.verify_round is original


def test_wrong_output_fails_the_gate(monkeypatch, capsys):
    from sdzkp import protocol

    monkeypatch.setattr(protocol, "fs_verify_bytes", lambda *args: True)
    code = run.main(["--workload", "nizk-n128-giant", "--seed", "1", "--seconds", "0.2", "--trace", "0", "--smoke"])
    result = _result(capsys.readouterr().out)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_tcp_leaves_no_process_or_listener():
    out = workloads.tcp(3, workloads.SIZES["tcp-n64-cli"]["smoke"], ops=2, setups=1)
    assert out.failed == 0 and len(out.ports) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for port in out.ports:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
    assert not list(workloads.OUT_DIR.glob("tcp-*"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sdzbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = _bench("nizk-n128-giant", 1, 0, cwd=tmp_path)
    assert code != 0 and '"correct"' not in stdout
