"""The benchmark's three workloads and the facts recorded with each result.

Every workload is a closed loop driven from one process: the next operation
starts only when the previous one has finished.  Operation i draws its coins
from Random("<seed>:<what>:<i>"), so a traced and an untraced run with the
same seed do the same work.  The instances are fixed per workload (set-up s
plants from Random("instance:<s>")): chain-building time and memory vary by
up to twofold between random instances of one family, so set-up time and
memory compare like with like only on the same instances.

A run either measures for a number of seconds (at least one operation) or
does a fixed number of operations; traced runs use the fixed form so that
the counts they report repeat exactly for a seed.

Times of CPU-bound work are scaled to a reference machine speed.  On a
shared virtual machine (measured on a 2-vCPU Intel Xeon VM) the speed of
pure-Python code drifts by up to twofold within minutes; so a fixed
calibration kernel, shaped like the program's inner loops, is timed before
and after every timed step, and the step's time is multiplied by CAL_REF_MS
over the kernel's mean time.  The raw times are reported beside the scaled
ones.  Times spent waiting on the wire are not scaled.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import re
import resource
import select
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import spans

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
OUT_DIR = ROOT / ".bench_out"

CONTEXT = b"sdzbench"
TAMPER_EVERY = 3
# Statistical gates: a rate more than Z_BOUND standard deviations from its
# exact value fails, as does a distribution test with p below DIST_ALPHA.
# Both keep a false alarm below about 1e-6 per check, so thousands of runs
# stay clear of one.
Z_BOUND = 5.0
DIST_ALPHA = 1e-6
SESSION_DEADLINE_S = 90.0
# The calibration kernel's time on the reference machine (an unloaded
# Intel Xeon core with Python 3.11).
CAL_REF_MS = 6.0
CLI_TIMEOUT_MS = 30000

SIZES = {
    "nizk-n128-giant": {
        "full": dict(n=128, gens=3, k=32, rounds=219),
        "smoke": dict(n=16, gens=3, k=4, rounds=219),
    },
    "tcp-n64-cli": {
        "full": dict(n=64, gens=3, k=16, rounds=219),
        "smoke": dict(n=12, gens=2, k=4, rounds=4),
    },
    "analysis-n16-abelian": {
        "full": dict(n=16, gens=5, k=4, cheat=600, sim=3000, extract=300, dist=400),
        "smoke": dict(n=16, gens=5, k=4, cheat=60, sim=300, extract=20, dist=320),
    },
}

# Operations a traced run does (and its untraced reference before it).
TRACED_OPS = {"nizk-n128-giant": 6, "tcp-n64-cli": 1, "analysis-n16-abelian": 1}


class SetupError(RuntimeError):
    """Set-up failed, so there is nothing to measure."""


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # The end-to-end samples, scaled to the reference speed where CPU-bound,
    # and their raw counterparts under the same names in `raw`.
    setup_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    raw: dict[str, list[float]] = field(default_factory=dict)
    cal_ms: list[float] = field(default_factory=list)
    # Workload-specific samples and totals, reported by name.
    samples: dict[str, list[float]] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    proof_digests: list[str] = field(default_factory=list)
    ports: list[int] = field(default_factory=list)
    # (process label, spans) for each traced process.
    span_lists: list[tuple[str, list]] = field(default_factory=list)
    process_start_ms: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, raw: float, scale: float) -> None:
        """Record an end-to-end time, scaled, and keep the raw value."""
        getattr(self, name).append(raw * scale)
        self.raw.setdefault(name, []).append(raw)

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0) + value


def _clock() -> float:
    return time.perf_counter()


def _rss_mb() -> float:
    """This process's resident memory now (its peak where /proc is absent)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


_CAL_PERM = list(range(128))
Random("calibration").shuffle(_CAL_PERM)
_CAL_TABLE = bytes(_CAL_PERM) + bytes(range(128, 256))


class _CalBox:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _cal_mix(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFFFFFF


def _calibration_ms() -> float:
    """Time of a fixed kernel shaped like the program's inner loops: tuple
    building, table translation, small objects and calls, seeded random
    draws, SHA3 and SHAKE."""
    t0 = _clock()
    rng = Random(5)
    acc, seen = bytes(range(256)), {}
    for i in range(100):
        acc = acc.translate(_CAL_TABLE)
        t = tuple((x + i) & 0xFFFFFFFF for x in _CAL_PERM)
        seen[t[:3]] = sum(1 for a, b in zip(t, _CAL_PERM) if a != b)
        hashlib.sha3_256(acc).digest()
        boxes = [_CalBox(rng.randrange(256), _cal_mix(i, j)) for j in range(40)]
        seen[i] = min(boxes, key=lambda box: box.key).value
        hashlib.shake_256(rng.randbytes(32)).digest(64)
    return (_clock() - t0) * 1e3


class _Speed:
    """Machine speed around each timed step, from the calibration kernel."""

    def __init__(self, out: "Outcome"):
        self.out = out
        _calibration_ms()  # warm-up: the interpreter specializes the loop first
        self.last = _calibration_ms()
        out.cal_ms.append(self.last)

    def scale(self) -> float:
        """Scale factor for the step that just ended: CAL_REF_MS over the
        mean kernel time before and after it."""
        now = _calibration_ms()
        self.out.cal_ms.append(now)
        factor = 2 * CAL_REF_MS / (self.last + now)
        self.last = now
        return factor


def _cli_seed(what: str, i: int) -> int:
    digest = hashlib.sha256(f"{what}:{i}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


class _Loop:
    """Closed-loop driver: run for `seconds` (at least once) or `ops` times."""

    def __init__(self, seconds: float | None, ops: int | None):
        self.seconds, self.ops = seconds, ops
        self.done = 0
        self.start = _clock()

    def more(self) -> bool:
        if self.ops is not None:
            return self.done < self.ops
        return self.done == 0 or _clock() - self.start < self.seconds


def instance_facts(inst) -> dict:
    """Statement facts, with `giant` computed from |H| against n! and n!/2."""
    order = inst.group.order()
    full = math.factorial(inst.degree)
    giant = "S_n" if order == full else "A_n" if 2 * order == full else "no"
    return {
        "n": inst.degree,
        "k": inst.max_distance,
        "generators": len(inst.generators),
        "log2_order": round(math.log2(order), 3) if order > 1 else 0.0,
        "base_length": len(inst.group.base),
        "giant": giant,
        "trivially_solvable": giant != "no",
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts(workload: str, seed: int) -> dict:
    sources = sorted((ROOT / "src" / "sdzkp").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    system = os.uname()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "os": f"{system.sysname} {system.release} {system.machine}",
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "network": "loopback 127.0.0.1 only" if workload == "tcp-n64-cli" else "none (in-process)",
    }


# --- nizk-n128-giant -------------------------------------------------------

def nizk(seed: int, size: dict, *, seconds=None, ops=None, setups=3, tracer=None) -> Outcome:
    """Keygen plus verifier load, then a stream of 219-round FS proofs."""
    from sdzkp import instance as sdi
    from sdzkp import protocol

    out = Outcome()
    speed = _Speed(out)
    if tracer is not None:
        tracer.install()
    try:
        # Instance 0 is set up last and kept, so each set-up's memory is
        # measured with the earlier ones freed and every run proves on it.
        for s in reversed(range(setups)):
            rng = Random(f"instance:{s}")
            if tracer is not None:
                tracer.new_session(f"setup-{s}", "keygen")
            inst = wit = verifier_inst = None
            t0 = _clock()
            inst, wit = sdi.plant_instance(size["n"], size["gens"], size["k"], rng, preset="general")
            verifier_inst = sdi.instance_from_bytes(sdi.instance_to_bytes(inst))
            out.timed("setup_s", _clock() - t0, speed.scale())
            out.rss_mb.append(_rss_mb())
            out.check(sdi.validate_witness(verifier_inst, wit.element), f"setup {s}: planted witness invalid")
        out.facts = instance_facts(inst)

        loop = _Loop(seconds, ops)
        while loop.more():
            i = loop.done
            rng = Random(f"{seed}:proof:{i}")
            if tracer is not None:
                tracer.new_session(f"proof-{i}", "prover")
            c0, t0 = time.process_time(), _clock()
            data = protocol.encode_proof(protocol.fs_prove(inst, wit, size["rounds"], CONTEXT, rng))
            t1 = _clock()
            if tracer is not None:
                tracer.new_session(f"proof-{i}", "verifier")
            ok = protocol.fs_verify_bytes(verifier_inst, data, CONTEXT)
            t2, c2 = _clock(), time.process_time()
            scale = speed.scale()
            out.check(ok, f"proof {i}: honest proof rejected")
            out.timed("op_ms", (t2 - t0) * 1e3, scale)
            out.sample("op_cpu_ms", (c2 - c0) * 1e3 * scale)
            out.sample("fs_prove_ms", (t1 - t0) * 1e3 * scale)
            out.sample("fs_verify_ms", (t2 - t1) * 1e3 * scale)
            out.sample("proof_bytes", len(data))
            out.proof_digests.append(hashlib.sha256(data).hexdigest())
            if i % TAMPER_EVERY == TAMPER_EVERY - 1:
                bad = bytearray(data)
                bad[rng.randrange(len(bad))] ^= rng.randrange(1, 256)
                if tracer is not None:
                    tracer.new_session(f"tamper-{i}", "verifier")
                t3 = _clock()
                rejected = not protocol.fs_verify_bytes(verifier_inst, bytes(bad), CONTEXT)
                out.sample("fs_tamper_verify_ms", (_clock() - t3) * 1e3 * scale)
                out.check(rejected, f"proof {i}: tampered proof accepted")
            loop.done += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out.span_lists.append(("nizk", tracer.spans))
    return out


# --- tcp-n64-cli -----------------------------------------------------------

class _Child:
    """One launcher process; reaped with wait4 so its CPU and memory are known."""

    def __init__(self, cli_args, label: str, role: str, session: str, trace_dir: Path | None, stderr=None):
        self.label = label
        self.spans_path = trace_dir / f"{label}.jsonl" if trace_dir is not None else None
        cmd = [sys.executable, str(LAUNCHER)]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path), "--role", role, "--session", session]
        cmd += ["--", *map(str, cli_args)]
        self.launched_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=stderr if stderr is not None else subprocess.DEVNULL,
        )
        self.exit_code = None
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.exited_at = None

    def reap(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.exited_at = _clock()
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024

    def stdout_text(self) -> str:
        return self.proc.stdout.read().decode(errors="replace")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()

    def close(self) -> None:
        for pipe in (self.proc.stdout, self.proc.stderr):
            if pipe is not None:
                pipe.close()

    def collect(self, out: Outcome) -> None:
        if self.spans_path is None or not self.spans_path.is_file():
            return
        header, recs = spans.load(self.spans_path)
        out.span_lists.append((self.label, recs))
        out.process_start_ms.append((header["main_start_ns"] - self.launched_ns) / 1e6)


def _await_listening(child: _Child, deadline: float) -> int | None:
    """Port from the verifier's "listening on host:port" line, or None."""
    fd = child.proc.stderr.fileno()
    buf = b""
    while True:
        match = re.search(rb"listening on [\d.]+:(\d+)\n", buf)
        if match:
            return int(match.group(1))
        left = deadline - _clock()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 4096)
        if not chunk:
            return None
        buf += chunk


def _keygen(out: Outcome, speed: _Speed, size: dict, s: int, work: Path, trace_dir) -> Path:
    out_dir = work / f"key-{s}"
    args = ["keygen", "--n", size["n"], "--gens", size["gens"], "--k", size["k"],
            "--preset", "general", "--seed", _cli_seed("instance", s), "--out-dir", out_dir]
    child = _Child(args, f"keygen-{s}", "keygen", f"setup-{s}", trace_dir)
    t0 = _clock()
    try:
        child.reap()
    finally:
        child.kill()
        child.close()
    out.timed("setup_s", _clock() - t0, speed.scale())
    if child.exit_code != 0:
        raise SetupError(f"sdzkp keygen exited with {child.exit_code}")
    child.collect(out)
    return out_dir


def _session(out: Outcome, speed: _Speed, size: dict, seed: int, i: int, key_dir: Path, trace_dir) -> None:
    inst_path, wit_path = key_dir / "instance.sdz", key_dir / "witness.sdw"
    common = ["--rounds", size["rounds"], "--timeout-ms", CLI_TIMEOUT_MS]
    t0 = _clock()
    deadline = t0 + SESSION_DEADLINE_S
    verifier = _Child(
        ["verify", "--listen", "127.0.0.1:0", "--instance", inst_path, *common,
         "--seed", _cli_seed(f"{seed}:verifier", i)],
        f"verifier-{i}", "verifier", f"session-{i}", trace_dir, stderr=subprocess.PIPE,
    )
    children = [verifier]
    watchdog = threading.Timer(SESSION_DEADLINE_S, lambda: [c.kill() for c in children])
    watchdog.start()
    try:
        port = _await_listening(verifier, deadline)
        t_ready = _clock()
        if port is None:
            verifier.kill()
            verifier.reap()
            out.check(False, f"session {i}: verifier never listened")
            return
        out.ports.append(port)
        prover = _Child(
            ["prove", "--connect", f"127.0.0.1:{port}", "--instance", inst_path,
             "--witness", wit_path, *common, "--seed", _cli_seed(f"{seed}:prover", i)],
            f"prover-{i}", "prover", f"session-{i}", trace_dir,
        )
        children.append(prover)
        t_prover = _clock()
        verifier.reap()
        prover.reap()
        t_end = _clock()
        verdict = verifier.stdout_text().strip()
    finally:
        watchdog.cancel()
        for child in children:
            child.kill()
            child.close()
    timed_out = t_end >= deadline
    ok = not timed_out and verifier.exit_code == 0 and verdict == "ACCEPT" and prover.exit_code == 0
    out.check(ok, f"session {i}: verifier {verifier.exit_code} {verdict!r}, prover {prover.exit_code}"
                  + (" (timed out)" if timed_out else ""))
    # The session's wall time is mostly waiting on the wire, so it is not scaled.
    out.timed("op_ms", (t_end - t0) * 1e3, 1.0)
    scale = speed.scale()
    out.sample("op_cpu_ms", (verifier.cpu_s + prover.cpu_s) * 1e3 * scale)
    out.rss_mb.append(verifier.rss_mb + prover.rss_mb)
    out.sample("verifier_ready_s", (t_ready - t0) * scale)
    out.sample("session_s", verifier.exited_at - t_prover)
    out.sample("verifier_cpu_s", verifier.cpu_s * scale)
    for child in children:
        child.collect(out)


def tcp(seed: int, size: dict, *, seconds=None, ops=None, setups=3, tracer=None) -> Outcome:
    """`sdzkp keygen`, then back-to-back `sdzkp verify` / `sdzkp prove` pairs."""
    from sdzkp import instance as sdi

    out = Outcome()
    speed = _Speed(out)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tcp-") as tmp:
        work = Path(tmp)
        trace_dir = work if tracer is not None else None
        key_dirs = [_keygen(out, speed, size, s, work, trace_dir) for s in range(setups)]
        # Facts and the witness check load the instance here, outside any timing.
        inst = sdi.load_instance(key_dirs[0] / "instance.sdz")
        wit = sdi.load_witness(key_dirs[0] / "witness.sdw")
        out.check(sdi.validate_witness(inst, wit.element), "keygen: witness invalid")
        out.facts = instance_facts(inst)
        loop = _Loop(seconds, ops)
        while loop.more():
            _session(out, speed, size, seed, loop.done, key_dirs[0], trace_dir)
            loop.done += 1
    return out


# --- analysis-n16-abelian --------------------------------------------------

STRATEGIES = ((0, 1), (0, 2), (1, 2))


def _binomial_ok(hits: float, trials: float, p: float) -> bool:
    return abs(hits - trials * p) <= Z_BOUND * math.sqrt(trials * p * (1 - p))


def analysis(seed: int, size: dict, *, seconds=None, ops=None, setups=3, tracer=None, imports=None) -> Outcome:
    """Cheating provers, the rewinding simulator, extraction and the
    distribution test on the abelian2 family that C06 uses.

    `imports` is (raw, scaled) seconds of an earlier pass's imports, for a
    pass in a process that has imported everything already."""
    out = Outcome()
    speed = _Speed(out)
    t0 = _clock()
    for module in ("sdzkp.analysis", "sdzkp.instance", "scipy.stats"):
        importlib.import_module(module)
    if imports is None:
        raw = _clock() - t0
        imports = (raw, raw * speed.scale())
    import_s, import_scaled_s = imports
    out.totals.update(import_s=import_s, import_scaled_s=import_scaled_s)
    from sdzkp import analysis as sda
    from sdzkp import instance as sdi

    if tracer is not None:
        tracer.install()
    try:
        planted = []
        for s in range(setups):
            if tracer is not None:
                tracer.new_session(f"setup-{s}", "keygen")
            t1 = _clock()
            planted.append(sdi.plant_instance(size["n"], size["gens"], size["k"],
                                              Random(f"instance:{s}"), preset="abelian2"))
            plant_s = _clock() - t1
            raw = import_s + plant_s
            out.timed("setup_s", raw, (import_scaled_s + plant_s * speed.scale()) / raw)
            out.rss_mb.append(_rss_mb())
        inst, wit = planted[0]
        out.facts = instance_facts(inst)

        loop = _Loop(seconds, ops)
        while loop.more():
            i = loop.done
            rng = Random(f"{seed}:batch:{i}")
            if tracer is not None:
                tracer.new_session(f"batch-{i}", "analysis")
            part_s = {}
            c0, t_start = time.process_time(), _clock()
            for targets in STRATEGIES:
                t1 = _clock()
                rate = sda.cheating_acceptance_rate(inst, set(targets), size["cheat"], rng)
                part_s["soundness_s"] = part_s.get("soundness_s", 0.0) + _clock() - t1
                out.add(f"cheat_hits_{targets[0]}{targets[1]}", round(rate * size["cheat"]))
                out.add(f"cheat_rounds_{targets[0]}{targets[1]}", size["cheat"])
            t1 = _clock()
            rate = sda.simulator_attempt_success_rate(inst, size["sim"], rng)
            part_s["simulator_s"] = _clock() - t1
            out.add("simulator_hits", round(rate * size["sim"]))
            out.add("simulator_attempts", size["sim"])
            t1 = _clock()
            for e in range(size["extract"]):
                prover = sda.honest_rewindable_prover(inst, wit, rng)
                transcripts = [sda.transcript_for(inst, prover, ch) for ch in (0, 1, 2)]
                try:
                    ok = sdi.validate_witness(inst, sda.extract_witness(inst, *transcripts))
                except sda.ExtractionError:
                    ok = False
                out.check(ok, f"batch {i}: extraction {e} failed")
            part_s["extraction_s"] = _clock() - t1
            out.add("extractions", size["extract"])
            t1 = _clock()
            report = sda.transcript_distribution_test(inst, wit, size["dist"], rng, alpha=DIST_ALPHA)
            part_s["distribution_s"] = _clock() - t1
            out.add("distribution_samples", report.samples_real + report.samples_simulated)
            out.check(report.passed, f"batch {i}: distribution test p={report.p_value:.3g}")
            t_end, c_end = _clock(), time.process_time()
            scale = speed.scale()
            out.timed("op_ms", (t_end - t_start) * 1e3, scale)
            out.sample("op_cpu_ms", (c_end - c0) * 1e3 * scale)
            for name, secs in part_s.items():
                out.add(name, secs * scale)
            loop.done += 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    for a, b in STRATEGIES:
        hits, trials = out.totals[f"cheat_hits_{a}{b}"], out.totals[f"cheat_rounds_{a}{b}"]
        out.check(_binomial_ok(hits, trials, 2 / 3),
                  f"strategy {{{a},{b}}}: {hits:.0f}/{trials:.0f} accepted, outside 2/3 ± {Z_BOUND} sd")
    hits, trials = out.totals["simulator_hits"], out.totals["simulator_attempts"]
    out.check(_binomial_ok(hits, trials, 5 / 9),
              f"simulator: {hits:.0f}/{trials:.0f} succeeded, outside 5/9 ± {Z_BOUND} sd")
    if tracer is not None:
        out.span_lists.append(("analysis", tracer.spans))
    return out


WORKLOADS = {"nizk-n128-giant": nizk, "tcp-n64-cli": tcp, "analysis-n16-abelian": analysis}
