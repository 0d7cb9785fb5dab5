"""Length-prefixed TCP transport for interactive proof sessions.

A session's two entry points are connect_and_prove and accept_and_verify.
Frame layout: u32 LE payload length, then a 1-byte message type
(MSG_COMMIT, MSG_CHALLENGE or MSG_RESPONSE, which only this module reads
or writes), then the message body.  The length covers the type byte plus
body; _frame, the one writer of a frame, refuses a payload over 16 MiB.
One connection carries all rounds of one session; the verifier treats any
framing violation, timeout, or failed check as a rejection of the whole
session, never as a crash.

The two ends overlap a session's rounds without moving a byte: each sends
the same frames in the same order, and draws its coins in the same order,
as a lock-step session would.  The prover draws and commits round i+1
before it waits for challenge i; the verifier checks round i only after it
has sent challenge i+1, so each side computes while the other's frame is
in flight.  The verifier checks the last round before it returns, so it
still checks every round before it accepts.  It checks each round with
protocol.verify_round on the frame bodies as they came, and decodes no
message; only a commitment frame of the wrong length is refused at once,
before its challenge is sent.

Every frame is read one way: through the session's buffer, capped at the
largest valid message of its type (the verifier's caps depend on the
instance's degree), and under the session deadline, a time.monotonic()
instant that bounds the whole session however slowly a peer sends.  A recv
takes what has arrived, up to 64 KiB, so a frame that came with the
previous one (the prover writes response i and commitment i+1 in one
sendall) costs no system call.  Both ends set TCP_NODELAY, since every
frame is small: under Nagle's algorithm and delayed ACKs a frame written
while the previous one is unacknowledged waits about 40 ms.
"""

from __future__ import annotations

import socket
import struct
import sys
import time
from itertools import chain
from random import Random
from typing import Iterator

from .crypto import COMMITMENT_BYTES
from .instance import SDPInstance, Witness
from .protocol import (
    CHALLENGES,
    ProverState,
    honest_rounds,
    max_response_bytes,
    prover_respond,
    require_positive,
    verifier_challenge,
    verify_round,
)

# The frame types, one per message of a round.
MSG_COMMIT = 0x01
MSG_CHALLENGE = 0x02
MSG_RESPONSE = 0x03

FRAME_MAX = 16 * 1024 * 1024

_RECV_CHUNK = 1 << 16


def _log(msg: str, *args) -> None:
    """Log at INFO on "sdzkp.net" if the logging module is loaded.  If nothing
    loaded it, no handler is configured and the record would be dropped, so
    a session does not import logging just to drop its records."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("sdzkp.net").info(msg, *args)


class SessionError(OSError):
    """A peer broke the wire protocol."""


def _frame(msg_type: int, body: bytes) -> bytes:
    """One frame's bytes; a payload over FRAME_MAX raises SessionError."""
    payload = bytes([msg_type]) + body
    if len(payload) > FRAME_MAX:
        raise SessionError(f"frame too large: {len(payload)} bytes")
    return struct.pack("<I", len(payload)) + payload


def send_frame(sock: socket.socket, msg_type: int, body: bytes) -> None:
    sock.sendall(_frame(msg_type, body))


def _recv_exact(sock: socket.socket, count: int, deadline: float, buffer: bytearray) -> bytes:
    """count bytes from sock, read through buffer (the session's bytes read
    but not yet consumed): each recv takes up to 64 KiB under what is left
    of the deadline, and what it reads past count stays in the buffer."""
    while len(buffer) < count:
        left = deadline - time.monotonic()
        if left <= 0:
            raise socket.timeout("session deadline passed")
        sock.settimeout(left)
        chunk = sock.recv(max(count - len(buffer), _RECV_CHUNK))
        if not chunk:
            raise SessionError("connection closed mid-frame")
        buffer += chunk
    data = bytes(buffer[:count])
    del buffer[:count]
    return data


def recv_frame(sock: socket.socket, max_length: int, deadline: float, buffer: bytearray) -> tuple[int, bytes]:
    """Read one frame through the session's buffer.  A length over
    max_length (the largest valid message of the expected type) is refused
    before its body is awaited; deadline is a time.monotonic() instant
    bounding the whole read."""
    header = _recv_exact(sock, 4, deadline, buffer)
    (length,) = struct.unpack("<I", header)
    if length == 0 or length > max_length:
        raise SessionError(f"invalid frame length {length}")
    payload = _recv_exact(sock, length, deadline, buffer)
    return payload[0], payload[1:]


def recv_expected(
    sock: socket.socket, expected_type: int, max_length: int, deadline: float, buffer: bytearray
) -> bytes:
    msg_type, body = recv_frame(sock, max_length, deadline, buffer)
    if msg_type != expected_type:
        raise SessionError(f"expected message type {expected_type}, got {msg_type}")
    return body


def prover_session(sock: socket.socket, states: Iterator[ProverState], deadline: float) -> None:
    """Drive the prover side of one session, one round per state of states
    (protocol.honest_rounds, which checks the witness and the round count
    before any frame exists, and draws each state only when it is taken).
    Raises SessionError on violations and socket.timeout once the deadline
    (a time.monotonic() instant) passes.  Round i+1 is drawn and committed
    before challenge i is awaited, and written with response i in one
    sendall."""
    buffer = bytearray()
    state = next(states)
    send_frame(sock, MSG_COMMIT, state.commitment)
    for i, following in enumerate(chain(states, (None,))):  # round i+1, drawn while challenge i is in flight
        body = recv_expected(sock, MSG_CHALLENGE, 2, deadline, buffer)
        if len(body) != 1 or body[0] not in CHALLENGES:
            raise SessionError(f"invalid challenge in round {i}")
        frames = _frame(MSG_RESPONSE, prover_respond(state, body[0]))
        if following is not None:
            frames += _frame(MSG_COMMIT, following.commitment)
        sock.sendall(frames)
        state = following
    _log("prover finished %d rounds", i + 1)


def verifier_session(sock: socket.socket, inst: SDPInstance, rounds: int, rng: Random, deadline: float) -> bool:
    """Drive the verifier side of one session.

    Returns the decision; every malformed message, unexpected type, oversized
    frame, timeout, passed deadline (a time.monotonic() instant) or failed
    round check rejects.  Round i is checked once challenge i+1 is sent, and
    the last round before the decision.  Never raises on peer-controlled
    input; rounds < 1 raises ValueError before anything is read.
    """
    require_positive(rounds)
    commit_max = 1 + COMMITMENT_BYTES
    response_max = 1 + max_response_bytes(inst.degree)
    buffer = bytearray()
    try:
        unchecked = None  # the previous round: commitment, challenge, response
        for i in range(rounds):
            commitment = recv_expected(sock, MSG_COMMIT, commit_max, deadline, buffer)
            if len(commitment) != COMMITMENT_BYTES:
                raise SessionError(f"commitment message must be {COMMITMENT_BYTES} bytes, got {len(commitment)}")
            challenge = verifier_challenge(rng)
            send_frame(sock, MSG_CHALLENGE, bytes([challenge]))
            if unchecked is not None and not _round_verifies(inst, i - 1, unchecked):
                return False
            unchecked = (commitment, challenge, recv_expected(sock, MSG_RESPONSE, response_max, deadline, buffer))
        return _round_verifies(inst, rounds - 1, unchecked)
    except (ValueError, OSError) as exc:
        _log("session aborted: %s", exc)
        return False


def _round_verifies(inst: SDPInstance, index: int, round_: tuple) -> bool:
    if verify_round(inst, *round_):
        return True
    _log("round %d failed verification", index)
    return False


def accept_and_verify(listener: socket.socket, inst: SDPInstance, rounds: int, rng: Random, timeout_s: float) -> bool:
    """Accept one connection and run a verifier session over it.

    timeout_s bounds the wait for a connection, and then the whole session.
    rounds < 1 raises ValueError before a connection is accepted.
    """
    require_positive(rounds)
    listener.settimeout(timeout_s)
    try:
        conn, peer = listener.accept()
    except OSError as exc:
        _log("no session: %s", exc)
        return False
    with conn:
        deadline = time.monotonic() + timeout_s
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            _log("session aborted: %s", exc)
            return False
        _log("session with %s", peer)
        return verifier_session(conn, inst, rounds, rng, deadline)


def connect_and_prove(
    host: str,
    port: int,
    inst: SDPInstance,
    wit: Witness,
    rounds: int,
    rng: Random,
    timeout_s: float,
) -> None:
    """Connect and run a prover session; timeout_s bounds the connect, and
    then the whole session.  A witness that fails the statement, or rounds
    < 1, raises ValueError before connecting, so it costs the verifier no
    session."""
    states = honest_rounds(inst, wit, rounds, rng)
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        deadline = time.monotonic() + timeout_s
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        prover_session(sock, states, deadline)
