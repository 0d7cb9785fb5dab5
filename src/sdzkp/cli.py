"""Command-line interface: key generation, proof sessions, analysis.

Exit codes: 0 accept / success, 1 reject, 2 usage or input errors.
Set SDZKP_LOG=debug|info|warning|error to control logging; logging is
loaded only when it is set.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from pathlib import Path

# Each handler imports the layers it runs, so a command loads no layer it
# does not use, and `verify` can bind and announce its port before any.

# instance.PRESETS and protocol.ROUNDS, spelled out so that building the
# parser loads no layer.
PRESETS = ("general", "abelian2")
ROUNDS = 219

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def make_rng(seed: int | None) -> random.Random:
    """OS-entropy rng by default; a seeded one only for reproducible testing."""
    if seed is None:
        return random.SystemRandom()
    print(
        "WARNING: --seed makes every secret in this run predictable; "
        "use only for testing, never in production",
        file=sys.stderr,
    )
    return random.Random(seed)


def _warn_if_few_rounds(rounds: int) -> None:
    """Warn on stderr when a verifier's round count is below ROUNDS, that is
    when its soundness error (2/3)^rounds is above 2^-128."""
    if rounds < ROUNDS:
        print(f"WARNING: {rounds} rounds give {rounds * math.log2(3 / 2):.1f} bits of soundness, "
              f"below the 128 bits of the default {ROUNDS}", file=sys.stderr)


def parse_addr(text: str) -> tuple[str, int]:
    """(host, port) from host:port, an IPv6 literal written [addr]:port."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port must be in 0..65535, got {number}")
    return host, number


def timeout_ms(text: str) -> int:
    ms = int(text)
    if not 1 <= ms <= 2**31 - 1:
        raise argparse.ArgumentTypeError(f"must be in 1..{2**31 - 1} ms, got {ms}")
    return ms


def _add_instance_params(p: argparse.ArgumentParser, n=16, gens=2, k=4, preset="general"):
    p.add_argument("--n", type=int, default=n, help="degree (number of points)")
    p.add_argument("--gens", type=int, default=gens, help="number of generators")
    p.add_argument("--k", type=int, default=k, help="distance bound")
    p.add_argument("--preset", choices=PRESETS, default=preset, help="generator family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdzkp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="plant an instance and its witness")
    _add_instance_params(p)
    p.add_argument("--out-dir", default=".", help="directory for instance.sdz and witness.sdw")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("prove", help="run the prover against a listening verifier")
    p.add_argument("--connect", required=True, help="verifier address host:port ([addr]:port for IPv6)")
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--rounds", type=int, default=ROUNDS)
    p.add_argument("--timeout-ms", type=timeout_ms, default=30000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="listen for one prover session and decide")
    p.add_argument("--listen", required=True, help="bind address host:port ([addr]:port for IPv6; port 0 picks one)")
    p.add_argument("--instance", required=True)
    p.add_argument("--rounds", type=int, default=ROUNDS)
    p.add_argument("--timeout-ms", type=timeout_ms, default=30000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("fs-prove", help="write a non-interactive proof file")
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--proof", required=True, help="output path")
    p.add_argument("--rounds", type=int, default=ROUNDS)
    p.add_argument("--context", default="", help="domain-separation string bound into the proof")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("fs-verify", help="check a non-interactive proof file")
    p.add_argument("--instance", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--rounds", type=int, default=ROUNDS, help="the exact round count a proof must hold")
    p.add_argument("--context", default="")

    p = sub.add_parser("analyze", help="statistical experiments; prints a JSON report")
    asub = p.add_subparsers(dest="experiment", required=True)

    a = asub.add_parser("completeness", help="honest acceptance rate")
    _add_instance_params(a)
    a.add_argument("--rounds", type=int, default=1000)
    a.add_argument("--seed", type=int, default=None)

    a = asub.add_parser("soundness", help="cheating-prover acceptance rate")
    _add_instance_params(a)
    a.add_argument("--strategy", choices=("01", "02", "12"), default="01")
    a.add_argument("--rounds", type=int, default=3000)
    a.add_argument("--seed", type=int, default=None)

    a = asub.add_parser("simulator", help="rewinding simulator statistics")
    _add_instance_params(a)
    a.add_argument("--attempts", type=int, default=3000)
    a.add_argument("--max-rewinds", type=int, default=4)
    a.add_argument("--runs", type=int, default=3000)
    a.add_argument("--seed", type=int, default=None)

    a = asub.add_parser("distribution", help="real vs simulated transcript comparison")
    _add_instance_params(a, n=16, gens=5, k=4, preset="abelian2")
    a.add_argument("--samples", type=int, default=20000)
    a.add_argument("--seed", type=int, default=None)

    return parser


_TRIVIAL_WITNESS = {
    "S_n": "the target itself is a distance-0 witness",
    "A_n": "the target, or the target times one transposition, is a witness at distance at most 2",
}


def cmd_keygen(args) -> int:
    from .instance import plant_instance, save_instance, save_witness

    out = Path(args.out_dir)
    inst_path, wit_path = out / "instance.sdz", out / "witness.sdw"
    for path in (inst_path, wit_path):
        if os.path.lexists(path):
            raise FileExistsError(f"{path} already exists; keygen replaces no key pair, so remove the old one first")
    rng = make_rng(args.seed)
    inst, wit = plant_instance(args.n, args.gens, args.k, rng, preset=args.preset)
    out.mkdir(parents=True, exist_ok=True)
    save_witness(wit, wit_path)
    save_instance(inst, inst_path)
    giant = inst.group.giant
    print(f"instance: {inst_path}  (n={inst.degree} k={inst.max_distance} "
          f"gens={len(inst.generators)} log2|H|={math.log2(inst.group.order()):.1f}  "
          f"base={len(inst.group.base)}  giant={giant})")
    print(f"witness:  {wit_path}")
    if giant != "no":
        print(f"WARNING: H is {giant}, so the statement is trivially solvable: "
              + _TRIVIAL_WITNESS[giant], file=sys.stderr)
    return EXIT_ACCEPT


def _load_witness(path):
    """instance.load_witness, after a stderr warning if the file is readable
    by group or others: anyone who reads the witness can prove."""
    from .instance import load_witness

    mode = os.stat(path).st_mode & 0o777
    if mode & 0o044:
        print(f"WARNING: the witness {path} is readable by group or others (mode {mode:o}); "
              "it is the prover's secret key, so chmod 600 it", file=sys.stderr)
    return load_witness(path)


def cmd_prove(args) -> int:
    from . import net
    from .instance import load_instance

    inst = load_instance(args.instance)
    wit = _load_witness(args.witness)
    host, port = parse_addr(args.connect)
    net.connect_and_prove(
        host, port, inst, wit, args.rounds, make_rng(args.seed),
        timeout_s=args.timeout_ms / 1000,
    )
    print("proof session completed")
    return EXIT_ACCEPT


def cmd_verify(args) -> int:
    import socket

    host, port = parse_addr(args.listen)
    if args.rounds < 1:
        raise ValueError("need at least one round")
    # Bind and announce first: the kernel queues the prover's connection and
    # first frame while this process loads its layers and the instance.
    ipv6 = ":" in host
    with socket.create_server((host, port), family=socket.AF_INET6 if ipv6 else socket.AF_INET,
                              backlog=1) as listener:
        bound = listener.getsockname()
        address = f"[{bound[0]}]" if ipv6 else bound[0]
        print(f"listening on {address}:{bound[1]}", file=sys.stderr, flush=True)
        _warn_if_few_rounds(args.rounds)
        from . import net
        from .instance import load_instance

        inst = load_instance(args.instance)
        ok = net.accept_and_verify(
            listener, inst, args.rounds, make_rng(args.seed),
            timeout_s=args.timeout_ms / 1000,
        )
    print("ACCEPT" if ok else "REJECT")
    return EXIT_ACCEPT if ok else EXIT_REJECT


def cmd_fs_prove(args) -> int:
    from .instance import load_instance
    from .protocol import encode_proof, fs_prove

    inst = load_instance(args.instance)
    wit = _load_witness(args.witness)
    proof = fs_prove(inst, wit, args.rounds, args.context.encode(), make_rng(args.seed))
    Path(args.proof).write_bytes(encode_proof(proof))
    print(f"proof: {args.proof}  ({proof.rounds} rounds)")
    return EXIT_ACCEPT


def cmd_fs_verify(args) -> int:
    from .instance import load_instance
    from .protocol import fs_verify_bytes, max_proof_bytes, require_positive

    require_positive(args.rounds)
    _warn_if_few_rounds(args.rounds)
    inst = load_instance(args.instance)
    try:
        limit = max_proof_bytes(inst.degree, args.rounds)
    except ValueError:  # no proof holds that many rounds, so none is read
        limit = -1
    try:
        # Read at most one byte past the longest proof of this degree and
        # round count, which refuses a longer file, in reads of at most 64 KiB
        # from any kind of file: a read allocates all it asks for first.
        with open(args.proof, "rb") as f:
            data = bytearray()
            while len(data) <= limit and (chunk := f.read(min(1 << 16, limit + 1 - len(data)))):
                data += chunk
    except OSError as exc:
        print(f"error: cannot read proof: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok = len(data) <= limit and fs_verify_bytes(inst, data, args.context.encode(), args.rounds)
    print("ACCEPT" if ok else "REJECT")
    return EXIT_ACCEPT if ok else EXIT_REJECT


def _report(report: dict, inst) -> int:
    import json

    # A giant H makes the statement trivially solvable; say so in every report.
    report.setdefault("details", {})["giant"] = inst.group.giant
    print(json.dumps(report, indent=2))
    return EXIT_ACCEPT if report["pass"] else EXIT_REJECT


def cmd_analyze(args) -> int:
    from . import analysis
    from .instance import plant_instance

    rng = make_rng(args.seed)
    inst, wit = plant_instance(args.n, args.gens, args.k, rng, preset=args.preset)

    if args.experiment == "completeness":
        rate = analysis.completeness_rate(inst, wit, args.rounds, rng)
        return _report(analysis.report_dict("completeness", args.rounds, rate, None, rate == 1.0), inst)

    if args.experiment == "soundness":
        targets = {int(c) for c in args.strategy}
        rate = analysis.cheating_acceptance_rate(inst, targets, args.rounds, rng)
        p = analysis.binomial_two_sided_pvalue(round(rate * args.rounds), args.rounds, 2 / 3)
        return _report(analysis.report_dict(
            "soundness", args.rounds, rate, p, p > analysis.ALPHA, strategy=sorted(targets),
        ), inst)

    if args.experiment == "simulator":
        rate = analysis.simulator_attempt_success_rate(inst, args.attempts, rng)
        abort = analysis.simulator_abort_rate(inst, args.max_rewinds, args.runs, rng)
        bound = (4 / 9) ** args.max_rewinds
        p = analysis.binomial_two_sided_pvalue(round(rate * args.attempts), args.attempts, 5 / 9)
        p_abort = analysis.binomial_two_sided_pvalue(round(abort * args.runs), args.runs, bound)
        return _report(analysis.report_dict(
            "simulator", args.attempts, rate, p, min(p, p_abort) > analysis.ALPHA,
            abort_rate=abort, abort_bound=bound, max_rewinds=args.max_rewinds,
        ), inst)

    return _report(analysis.transcript_distribution_test(inst, wit, args.samples, rng).as_dict(), inst)


_HANDLERS = {
    "keygen": cmd_keygen,
    "prove": cmd_prove,
    "verify": cmd_verify,
    "fs-prove": cmd_fs_prove,
    "fs-verify": cmd_fs_verify,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    level = os.environ.get("SDZKP_LOG")
    if level:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING),
                            format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
