"""sdzkp benchmark: one workload, one seed, one JSON result.

    python3 sdzbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see README.md in this directory for why each was chosen):
  nizk-n128-giant       219-round Fiat-Shamir proofs at n = 128, in process
  tcp-n64-cli           sdzkp verify / sdzkp prove sessions over loopback TCP
  analysis-n16-abelian  the analysis harness on the abelian2 family, n = 16

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 does a fixed amount of work twice, untraced and then traced, and
reports the per-layer metrics of the traced pass with the tracing overhead.
Every output is checked; the report lines come first and the last line of
standard output is the JSON result.  The exit code is 0 only when every
check passed, 1 when one failed, and 2 when the program could not be run.
--smoke shrinks every size so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit, better) of the end-to-end metrics, reported by every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms", "ms", "lower"),
    ("rss_mb", "MB", "lower"),
)

DERIVED = (
    ("analysis.cheating_states_per_prover", "ratio", "lower"),
    ("analysis.simulator_success_ratio", "ratio", "higher"),
    ("net.round_ms_p50", "ms", "lower"),
    ("net.round_ms_p90", "ms", "lower"),
    ("net.recv_wait_ms_per_round", "ms", "lower"),
    ("net.recv_wait_share", "ratio", "lower"),
    ("net.bytes_per_round", "B", "lower"),
    ("cli.process_start_ms", "ms", "lower"),
    ("group.build_bsgs.share_of_setup", "ratio", "lower"),
    ("trace_overhead.setup_s", "ratio", "lower"),
    ("trace_overhead.op_ms", "ratio", "lower"),
)

FIELDS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))


def per_layer_metrics() -> tuple:
    """(name, unit, better) of every per-layer metric."""
    layer = tuple((f"{span}.{f}", unit, "lower") for span in spans.SPAN_NAMES for f, unit in FIELDS)
    return layer + DERIVED


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float | None:
    """90th percentile, only when at least ten samples lie beyond it."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else None


def end_to_end(out) -> dict:
    return {name: _median(getattr(out, name)) for name, _, _ in END_TO_END}


def _net_metrics(out, session_s: float) -> dict:
    """Verifier-side wire metrics from the traced verifier processes."""
    rounds_ms, recv_ns, wire_bytes, rounds = [], 0, 0, 0
    for label, recs in out.span_lists:
        if not label.startswith("verifier-"):
            continue
        frames = [r for r in recs if r[spans.NAME] in ("net.recv_frame", "net.send_frame") and r[spans.PARENT] < 0]
        recvs = [r for r in frames if r[spans.NAME] == "net.recv_frame"]
        commits = [r[spans.END] for r in recvs[0::2]]
        verdicts = [r[spans.END] for r in recs if r[spans.NAME] == "protocol.verify_round" and r[spans.PARENT] < 0]
        if not commits or not verdicts:
            continue
        marks = commits + [verdicts[-1]]
        rounds_ms += [(b - a) / 1e6 for a, b in zip(marks, marks[1:])]
        recv_ns += sum(r[spans.END] - r[spans.START] for r in recvs)
        wire_bytes += sum(r[spans.INFO] or 0 for r in frames)
        rounds += len(commits)
    if not rounds:
        return {name: 0.0 for name in ("net.round_ms_p50", "net.round_ms_p90", "net.recv_wait_ms_per_round",
                                       "net.recv_wait_share", "net.bytes_per_round")}
    return {
        "net.round_ms_p50": statistics.median(rounds_ms),
        "net.round_ms_p90": statistics.quantiles(rounds_ms, n=10)[-1],
        "net.recv_wait_ms_per_round": recv_ns / 1e6 / rounds,
        "net.recv_wait_share": recv_ns / 1e9 / session_s if session_s else 0.0,
        "net.bytes_per_round": wire_bytes / rounds,
    }


def per_layer(traced, reference) -> dict:
    metrics = {}
    totals = spans.layer_totals(recs for _, recs in traced.span_lists)
    for span in spans.SPAN_NAMES:
        for f, _ in FIELDS:
            metrics[f"{span}.{f}"] = totals[span][f]

    provers = totals["analysis.make_cheating_prover"]["calls"]
    states = totals["analysis.accepted_challenges"]["calls"]
    attempts = sum(spans.nested_count(recs, "protocol.verifier_challenge", "analysis.simulate")
                   for _, recs in traced.span_lists)
    produced = sum(r[spans.INFO] for _, recs in traced.span_lists for r in recs if r[spans.NAME] == "analysis.simulate")
    metrics["analysis.cheating_states_per_prover"] = states / provers if provers else 0.0
    metrics["analysis.simulator_success_ratio"] = produced / attempts if attempts else 0.0
    metrics.update(_net_metrics(traced, _median(traced.samples.get("session_s", []))))
    metrics["cli.process_start_ms"] = _median(traced.process_start_ms)
    build_ns = sum(r[spans.END] - r[spans.START] for _, recs in traced.span_lists for r in recs
                   if r[spans.NAME] == "group.build_bsgs" and str(r[spans.SESSION]).startswith("setup-"))
    metrics["group.build_bsgs.share_of_setup"] = build_ns / 1e9 / sum(traced.raw["setup_s"])
    for name, value in end_to_end(traced).items():
        if name != "rss_mb":
            base = end_to_end(reference)[name]
            metrics[f"trace_overhead.{name}"] = value / base if base else 0.0
    return metrics


def _workload_report(out) -> list[tuple[str, float | None, str, int]]:
    """The workload-specific metrics as (name, value, unit, samples)."""
    rows = []
    for name, unit in (("op_cpu_ms", "ms"), ("fs_prove_ms", "ms"), ("fs_verify_ms", "ms"), ("fs_tamper_verify_ms", "ms"),
                       ("proof_bytes", "B"), ("session_s", "s"), ("verifier_ready_s", "s"),
                       ("verifier_cpu_s", "s")):
        values = out.samples.get(name)
        if values:
            rows.append((name, statistics.median(values), unit, len(values)))
            if unit != "B":
                rows.append((f"{name}_p90", _p90(values), unit, len(values)))
    t = out.totals
    for name, count, secs in (("soundness_rounds_per_s", ("cheat_rounds_01", "cheat_rounds_02", "cheat_rounds_12"),
                               "soundness_s"),
                              ("simulator_attempts_per_s", ("simulator_attempts",), "simulator_s"),
                              ("extractions_per_s", ("extractions",), "extraction_s"),
                              ("distribution_samples_per_s", ("distribution_samples",), "distribution_s")):
        if secs in t:
            total = sum(t[c] for c in count)
            rows.append((name, total / t[secs], "1/s", int(total)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "sdzkp" / "__init__.py").is_file():
        print(f"error: no sdzkp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdzkp

    if not Path(sdzkp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sdzkp from {sdzkp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    run = wl.WORKLOADS[args.workload]
    size = wl.SIZES[args.workload]["smoke" if args.smoke else "full"]

    try:
        if args.trace:
            ops = wl.TRACED_OPS[args.workload]
            reference = run(args.seed, size, ops=ops, setups=1)
            t = reference.totals
            extra = {"imports": (t["import_s"], t["import_scaled_s"])} if "import_s" in t else {}
            main_out = run(args.seed, size, ops=ops, setups=1, tracer=spans.Tracer(), **extra)
            passes = (reference, main_out)
            metrics = per_layer(main_out, reference)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            main_out = run(args.seed, size, seconds=args.seconds)
            passes = (main_out,)
            metrics = end_to_end(main_out)
            units = {name: unit for name, unit, _ in END_TO_END}
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace and main_out.proof_digests:
        # Tracing must not change behaviour: the same seed gives the same proofs.
        same = main_out.proof_digests == reference.proof_digests
        attempted += 1
        failed += not same
        if not same:
            failures.append("traced proofs differ from untraced proofs")

    report = {
        "machine": wl.machine_facts(args.workload, args.seed),
        "instance": main_out.facts,
        "mode": {"trace": args.trace, "seconds": args.seconds, "smoke": args.smoke,
                 "operations": len(main_out.op_ms), "setups": len(main_out.setup_s)},
        "error_rate": failed / attempted,
        "failures": failures,
        "workload_metrics": {name: {"value": v, "unit": u, "samples": n}
                             for name, v, u, n in _workload_report(main_out)},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw_medians": {name: _median(values) for name, values in main_out.raw.items()},
        "speed": {"cal_ref_ms": wl.CAL_REF_MS, "cal_ms_median": _median(main_out.cal_ms),
                  "cal_samples": len(main_out.cal_ms)},
        "verifier_ports": main_out.ports,
        "proof_sha256": main_out.proof_digests,
    }
    wl.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (wl.OUT_DIR / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(wl.OUT_DIR / f"spans-{stem}.jsonl", "w") as f:
            for label, recs in main_out.span_lists:
                for rec in recs:
                    f.write(json.dumps([label, *rec]) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for group in ("machine", "instance", "mode", "speed", "raw_medians"):
        print(f"{group}: " + "  ".join(f"{k}={v}" for k, v in report[group].items()))
    print(f"error_rate = {report['error_rate']:.6g} ratio  ({failed} of {attempted} checks failed)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    for name, v, unit, n in _workload_report(main_out):
        shown = "dropped: fewer than 10 samples beyond p90" if v is None else f"{v:.6g} {unit}"
        print(f"{name} = {shown}  (samples={n})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
