"""Start one sdzkp CLI process for the benchmark.

    python3 sdzbench/launch.py [--spans FILE --role ROLE --session ID] -- <sdzkp arguments>

Imports the package from the checkout's src/, installs the benchmark's
timing wrappers when --spans is given, then calls sdzkp.cli.main with the
remaining arguments and exits with its code.  The span file is written when
main returns; its header carries the monotonic time main started, so the
parent can take the process start cost as that minus its own launch time
(CLOCK_MONOTONIC is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", help="write this process's spans here")
    parser.add_argument("--role", default="", help="prover, verifier or keygen")
    parser.add_argument("--session", default="", help="session id the spans carry")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import sdzkp.cli

    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        tracer.new_session(args.session, args.role)
        tracer.install()
    main_start_ns = time.perf_counter_ns()
    code = sdzkp.cli.main(cli_args)
    if tracer is not None:
        tracer.dump(args.spans, {"main_start_ns": main_start_ns})
    return code


if __name__ == "__main__":
    sys.exit(main())
