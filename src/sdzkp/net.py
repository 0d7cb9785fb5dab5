"""Length-prefixed TCP transport for interactive proof sessions.

Frame layout: u32 LE payload length, then a 1-byte message type, then the
message body.  The length covers the type byte plus body and is capped at
16 MiB; each end caps each frame it reads at the largest valid message of
its type (the verifier's caps depend on the instance's degree).  One
connection carries all rounds of one session; the verifier treats any
framing violation, timeout, or failed check as a rejection of the whole
session, never as a crash.

Both ends set TCP_NODELAY: each side writes a small frame and then waits
for the peer's reply, which under Nagle's algorithm and delayed ACKs costs
about 40 ms per round.
"""

from __future__ import annotations

import logging
import socket
import struct
import time
from random import Random

from .crypto import fresh_seed
from .instance import SDPInstance, Witness
from .protocol import (
    CHALLENGES,
    COMMITMENT_BYTES,
    MSG_CHALLENGE,
    MSG_COMMIT,
    MSG_RESPONSE,
    CommitmentMsg,
    decode_response,
    encode_response,
    masked_round,
    max_response_bytes,
    prover_respond,
    require_positive,
    require_witness,
    verifier_challenge,
    verify_round,
)

log = logging.getLogger("sdzkp.net")

FRAME_MAX = 16 * 1024 * 1024


class SessionError(OSError):
    """A peer broke the wire protocol."""


def send_frame(sock: socket.socket, msg_type: int, body: bytes) -> None:
    payload = bytes([msg_type]) + body
    if len(payload) > FRAME_MAX:
        raise SessionError(f"frame too large: {len(payload)} bytes")
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int, deadline: float | None = None) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise socket.timeout("session deadline passed")
            sock.settimeout(left)
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise SessionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_length: int = FRAME_MAX, deadline: float | None = None
) -> tuple[int, bytes]:
    """Read one frame.  A length over max_length is refused before its body
    is read; deadline is a time.monotonic() instant bounding the whole read."""
    header = _recv_exact(sock, 4, deadline)
    (length,) = struct.unpack("<I", header)
    if length == 0 or length > max_length:
        raise SessionError(f"invalid frame length {length}")
    payload = _recv_exact(sock, length, deadline)
    return payload[0], payload[1:]


def recv_expected(
    sock: socket.socket, expected_type: int, max_length: int = FRAME_MAX, deadline: float | None = None
) -> bytes:
    msg_type, body = recv_frame(sock, max_length, deadline)
    if msg_type != expected_type:
        raise SessionError(f"expected message type {expected_type}, got {msg_type}")
    return body


def prover_session(
    sock: socket.socket, inst: SDPInstance, wit: Witness, rounds: int, rng: Random, deadline: float | None = None
) -> None:
    """Drive the prover side of one session; raises SessionError on violations
    and socket.timeout once the deadline (a time.monotonic() instant) passes.
    A witness that fails the statement, or rounds < 1, raises ValueError
    before the first frame is sent."""
    require_positive(rounds)
    require_witness(inst, wit)
    group, h = inst.group, wit.element.images
    for i in range(rounds):
        state = masked_round(inst, group.sample_uniform(rng).images, h, fresh_seed(rng), rng)
        send_frame(sock, MSG_COMMIT, state.commitment.encode())
        body = recv_expected(sock, MSG_CHALLENGE, 2, deadline)
        if len(body) != 1 or body[0] not in CHALLENGES:
            raise SessionError(f"invalid challenge in round {i}")
        send_frame(sock, MSG_RESPONSE, encode_response(prover_respond(state, body[0])))
    log.info("prover finished %d rounds", rounds)


def verifier_session(
    sock: socket.socket, inst: SDPInstance, rounds: int, rng: Random, deadline: float | None = None
) -> bool:
    """Drive the verifier side of one session.

    Returns the decision; every malformed message, unexpected type, oversized
    frame, timeout, passed deadline (a time.monotonic() instant) or failed
    round check rejects.  Never raises on peer-controlled input; rounds < 1
    raises ValueError before anything is read.
    """
    require_positive(rounds)
    commit_max = 1 + COMMITMENT_BYTES
    response_max = 1 + max_response_bytes(inst.degree)
    try:
        for i in range(rounds):
            commitment = CommitmentMsg.decode(recv_expected(sock, MSG_COMMIT, commit_max, deadline))
            challenge = verifier_challenge(rng)
            send_frame(sock, MSG_CHALLENGE, bytes([challenge]))
            response = decode_response(recv_expected(sock, MSG_RESPONSE, response_max, deadline))
            if not verify_round(inst, commitment, challenge, response):
                log.info("round %d failed verification", i)
                return False
        return True
    except (SessionError, ValueError, OSError) as exc:
        log.info("session aborted: %s", exc)
        return False


def create_listener(host: str, port: int) -> socket.socket:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(1)
    return listener


def accept_and_verify(
    listener: socket.socket,
    inst: SDPInstance,
    rounds: int,
    rng: Random,
    timeout_s: float | None = None,
) -> bool:
    """Accept one connection and run a verifier session over it.

    timeout_s bounds the wait for a connection, and then the whole session.
    rounds < 1 raises ValueError before a connection is accepted.
    """
    require_positive(rounds)
    if timeout_s is not None:
        listener.settimeout(timeout_s)
    try:
        conn, peer = listener.accept()
    except (OSError, socket.timeout) as exc:
        log.info("no session: %s", exc)
        return False
    with conn:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            log.info("session aborted: %s", exc)
            return False
        log.info("session with %s", peer)
        return verifier_session(conn, inst, rounds, rng, deadline)


def connect_and_prove(
    host: str,
    port: int,
    inst: SDPInstance,
    wit: Witness,
    rounds: int,
    rng: Random,
    timeout_s: float | None = None,
) -> None:
    """Connect and run a prover session; timeout_s bounds the connect, and
    then the whole session.  A witness that fails the statement, or rounds
    < 1, raises ValueError before connecting, so it costs the verifier no
    session."""
    require_witness(inst, wit)
    require_positive(rounds)
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        prover_session(sock, inst, wit, rounds, rng, deadline)
