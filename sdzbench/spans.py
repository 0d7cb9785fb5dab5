"""In-memory span recorder for the sdzkp benchmark's traced runs.

A Tracer wraps the public functions of the sdzkp layers from outside: each
call becomes a span (name, parent span, session id, round id, start, end).
Nothing under src/ is changed; a wrapper replaces the function at every name
it is looked up by (a module attribute imported by name elsewhere, the
package namespace, or a class attribute for methods), and uninstall()
restores the originals.  Spans stay in memory until dump() writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  Methods are wrapped on their class;
# Permutation construction is timed through its __post_init__ validation.
TRACED = (
    ("sdzkp.perm", "Permutation.__post_init__", "perm.Permutation"),
    ("sdzkp.perm", "compose", "perm.compose"),
    ("sdzkp.perm", "inverse", "perm.inverse"),
    ("sdzkp.perm", "hamming", "perm.hamming"),
    ("sdzkp.group", "build_bsgs", "group.build_bsgs"),
    ("sdzkp.group", "BSGS.contains", "group.contains"),
    ("sdzkp.group", "BSGS.sample_uniform", "group.sample_uniform"),
    ("sdzkp.crypto", "expand_mask", "crypto.expand_mask"),
    ("sdzkp.crypto", "commit", "crypto.commit"),
    ("sdzkp.crypto", "verify_commitment", "crypto.verify_commitment"),
    ("sdzkp.crypto", "tuple_add", "crypto.tuple_add"),
    ("sdzkp.crypto", "tuple_sub", "crypto.tuple_sub"),
    ("sdzkp.instance", "plant_instance", "instance.plant_instance"),
    ("sdzkp.instance", "instance_from_bytes", "instance.instance_from_bytes"),
    ("sdzkp.instance", "validate_witness", "instance.validate_witness"),
    ("sdzkp.protocol", "prover_commit", "protocol.prover_commit"),
    ("sdzkp.protocol", "prover_respond", "protocol.prover_respond"),
    ("sdzkp.protocol", "verifier_challenge", "protocol.verifier_challenge"),
    ("sdzkp.protocol", "verify_round", "protocol.verify_round"),
    ("sdzkp.protocol", "derive_challenges", "protocol.derive_challenges"),
    ("sdzkp.protocol", "encode_proof", "protocol.encode_proof"),
    ("sdzkp.protocol", "decode_proof", "protocol.decode_proof"),
    ("sdzkp.protocol", "encode_response", "protocol.encode_response"),
    ("sdzkp.protocol", "decode_response", "protocol.decode_response"),
    ("sdzkp.analysis", "make_cheating_prover", "analysis.make_cheating_prover"),
    ("sdzkp.analysis", "accepted_challenges", "analysis.accepted_challenges"),
    ("sdzkp.analysis", "simulate", "analysis.simulate"),
    ("sdzkp.analysis", "extract_witness", "analysis.extract_witness"),
    ("sdzkp.net", "send_frame", "net.send_frame"),
    ("sdzkp.net", "recv_frame", "net.recv_frame"),
    # The CLI calls instance.load_instance under its own imported name.
    ("sdzkp.instance", "load_instance", "cli.load_instance"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)

# A span of one of these names carries its own round id: its ordinal among
# same-named spans of the session, divided by how many such calls one round
# makes on that side.  Every other span inherits its parent's round id.
_CALLS_PER_ROUND = {
    "protocol.prover_commit": {},
    "protocol.prover_respond": {},
    "protocol.verify_round": {},
    "net.send_frame": {"prover": 2},
    "net.recv_frame": {"verifier": 2},
}

# Extra per-span value taken from the call: wire bytes for frames, and
# whether a simulator call produced a transcript.
_INFO = {
    "net.send_frame": lambda args, result: 5 + len(args[2]),
    "net.recv_frame": lambda args, result: 5 + len(result[1]),
    "analysis.simulate": lambda args, result: int(result is not None),
}

# Span record layout: [name, parent, session, round, start_ns, end_ns, info]
NAME, PARENT, SESSION, ROUND, START, END, INFO = range(7)


def _resolve(module, path):
    owner = module
    *prefix, attr = path.split(".")
    for part in prefix:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans for one process; install() starts recording."""

    def __init__(self, role: str = ""):
        self.role = role
        self.spans: list[list] = []
        self.session = 0
        self._stack: list[int] = []
        self._ordinals: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def new_session(self, session: int, role: str | None = None) -> None:
        """Start a new session id; round ids restart from 0."""
        self.session = session
        if role is not None:
            self.role = role
        self._ordinals = Counter()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        per_round = _CALLS_PER_ROUND.get(name)
        info_of = _INFO.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if per_round is not None:
                ordinal = self._ordinals[name]
                self._ordinals[name] = ordinal + 1
                rnd = ordinal // per_round.get(self.role, 1)
            else:
                rnd = spans[parent][ROUND] if parent >= 0 else -1
            rec = [name, parent, self.session, rnd, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    rec[INFO] = info_of(args, result)
                return result
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every name it is reachable by."""
        import sdzkp.analysis
        import sdzkp.cli
        import sdzkp.net  # noqa: F401  (all layers must be loaded first)

        modules = [m for key, m in sys.modules.items() if key == "sdzkp" or key.startswith("sdzkp.")]
        for module_name, path, span_name in TRACED:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = vars(owner)[attr]
            wrapper = self._wrap(span_name, original)
            if isinstance(owner, type):
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path, header: dict | None = None) -> None:
        """Write the header line, then one JSON list per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"role": self.role, **(header or {})}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def load(path) -> tuple[dict, list[list]]:
    with open(path) as f:
        header = json.loads(f.readline())
        return header, [json.loads(line) for line in f]


def layer_totals(span_lists) -> dict[str, dict[str, float]]:
    """calls, total_ms and self_ms per span name, over several processes.

    Self time is a span's duration minus the time its direct children cover;
    spans of one process nest strictly, so that is the sum of their
    durations.
    """
    out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
    for spans in span_lists:
        child_ns = defaultdict(int)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            agg = out[rec[NAME]]
            agg["calls"] += 1
            agg["total_ms"] += dur / 1e6
            agg["self_ms"] += (dur - child_ns[i]) / 1e6
    return out


def nested_count(spans, name: str, ancestor: str) -> int:
    """How many `name` spans have an `ancestor` span somewhere above them."""
    count = 0
    for rec in spans:
        if rec[NAME] != name:
            continue
        parent = rec[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor:
                count += 1
                break
            parent = spans[parent][PARENT]
    return count
