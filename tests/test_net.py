"""Framed transport and the interactive session drivers."""

import hashlib
import inspect
import itertools
import logging
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdzkp.protocol
from sdzkp import net
from sdzkp.crypto import COMMITMENT_BYTES
from sdzkp.group import word_width
from sdzkp.instance import plant_instance, validate_witness
from sdzkp.net import MSG_CHALLENGE, MSG_COMMIT, MSG_RESPONSE
from sdzkp.protocol import (
    honest_rounds,
    max_response_bytes,
    prover_commit,
    prover_respond,
)
from reference import frame, peer_session


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(100)
    return plant_instance(16, 4, 6, rng)


def pair():
    a, b = socket.socketpair()
    a.settimeout(10)
    b.settimeout(10)
    return a, b


def soon(seconds=10):
    """A session deadline: a time.monotonic() instant `seconds` from now."""
    return time.monotonic() + seconds


COMMIT_FRAME_MAX = 1 + COMMITMENT_BYTES  # the verifier's cap on a commitment frame


def test_every_read_is_buffered_capped_and_deadline_bound():
    # One read path: no read, session driver or entry point has a mode
    # without the session buffer, a per-type cap or the session deadline.
    required = {
        net._recv_exact: ("deadline", "buffer"),
        net.recv_frame: ("max_length", "deadline", "buffer"),
        net.recv_expected: ("max_length", "deadline", "buffer"),
        net.prover_session: ("deadline",),
        net.verifier_session: ("deadline",),
        net.accept_and_verify: ("timeout_s",),
        net.connect_and_prove: ("timeout_s",),
    }
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (fn.__name__, name)


def test_frame_round_trip():
    a, b = pair()
    with a, b:
        net.send_frame(a, MSG_COMMIT, b"hello")
        msg_type, body = net.recv_frame(b, 6, soon(), bytearray())
        assert msg_type == MSG_COMMIT and body == b"hello"


def test_frame_rejects_zero_length():
    a, b = pair()
    with a, b:
        a.sendall(struct.pack("<I", 0))
        with pytest.raises(net.SessionError):
            net.recv_frame(b, COMMIT_FRAME_MAX, soon(), bytearray())


def test_frame_rejects_oversize_length():
    a, b = pair()
    with a, b:
        a.sendall(struct.pack("<I", net.FRAME_MAX + 1))
        with pytest.raises(net.SessionError):
            net.recv_frame(b, net.FRAME_MAX, soon(), bytearray())


def test_send_frame_rejects_oversize_body():
    a, b = pair()
    with a, b:
        with pytest.raises(net.SessionError):
            net.send_frame(a, MSG_COMMIT, bytes(net.FRAME_MAX))


def test_two_frames_in_one_write_come_back_in_order():
    first, second = frame(MSG_RESPONSE, b"response"), frame(MSG_COMMIT, b"commitment")
    buffer = bytearray()
    a, b = pair()
    with a, b:
        a.sendall(first + second)
        assert net.recv_frame(b, COMMIT_FRAME_MAX, soon(), buffer) == (MSG_RESPONSE, b"response")
        # the second frame came with the first, so reading it needs no recv
        assert buffer == second
        b.setblocking(False)
        assert net.recv_frame(b, COMMIT_FRAME_MAX, soon(), buffer) == (MSG_COMMIT, b"commitment")
        assert not buffer


def test_every_proper_prefix_of_a_frame_is_a_closed_connection(planted):
    # A peer that closes at any byte of a frame of any type costs recv_frame
    # a SessionError and nothing else; the whole frame reads back.
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(112))
    frames = [(MSG_COMMIT, state.commitment), (MSG_CHALLENGE, b"\x01")]
    frames += [(MSG_RESPONSE, prover_respond(state, ch)) for ch in range(3)]
    cap = 1 + max_response_bytes(inst.degree)
    for msg_type, body in frames:
        data = frame(msg_type, body)
        for cut in range(len(data) + 1):
            a, b = pair()
            with a, b:
                a.sendall(data[:cut])
                a.shutdown(socket.SHUT_WR)
                buffer = bytearray()
                if cut < len(data):
                    with pytest.raises(net.SessionError, match="connection closed mid-frame"):
                        net.recv_frame(b, cap, soon(), buffer)
                else:
                    assert net.recv_frame(b, cap, soon(), buffer) == (msg_type, body) and not buffer


def test_a_passed_deadline_reads_nothing(planted):
    # recv_frame refuses a deadline already passed before its first recv, so
    # the frame waiting on the socket stays there whole; verifier_session,
    # given that deadline, rejects.
    inst, wit = planted
    state = prover_commit(inst, wit, random.Random(113))
    data = frame(MSG_COMMIT, state.commitment)
    a, b = pair()
    with a, b:
        a.sendall(data)
        buffer = bytearray()
        with pytest.raises(socket.timeout, match="session deadline passed"):
            net.recv_frame(b, COMMIT_FRAME_MAX, time.monotonic() - 1, buffer)
        assert not buffer
        assert net.recv_frame(b, COMMIT_FRAME_MAX, soon(), buffer) == (MSG_COMMIT, state.commitment)
        a.sendall(data)
        assert net.verifier_session(b, inst, 1, random.Random(0), time.monotonic() - 1) is False
        assert b.recv(len(data) + 1) == data


def test_recv_expected_type_mismatch():
    a, b = pair()
    with a, b:
        net.send_frame(a, MSG_RESPONSE, b"x")
        with pytest.raises(net.SessionError):
            net.recv_expected(b, MSG_COMMIT, COMMIT_FRAME_MAX, soon(), bytearray())


# The drivers as peer_session sides: over a socket pair with a deadline
# `seconds` away, or over loopback TCP with timeout_s.

def verifier_side(inst, rounds, seed=102, seconds=10):
    return lambda sock: net.verifier_session(sock, inst, rounds, random.Random(seed), soon(seconds))


def prover_side(inst, wit, rounds, seed=101, seconds=10):
    return lambda sock: net.prover_session(sock, honest_rounds(inst, wit, rounds, random.Random(seed)), soon(seconds))


def tcp_verifier(inst, rounds, timeout_s):
    return lambda listener: net.accept_and_verify(listener, inst, rounds, random.Random(107), timeout_s=timeout_s)


def tcp_prover(inst, wit, rounds, timeout_s, seed=108):
    return lambda address: net.connect_and_prove(*address, inst, wit, rounds, random.Random(seed), timeout_s=timeout_s)


class _Recorder:
    """A session side run on a socket that hashes every byte it sends and
    keeps each write."""

    _sock = None

    def __init__(self, side):
        self._side = side
        self.sent = hashlib.sha256()
        self.writes = []

    def __call__(self, sock):
        self._sock = sock
        return self._side(self)

    def sendall(self, data):
        self.sent.update(data)
        self.writes.append(data)
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_session_bytes_are_pinned():
    # Each side's bytes depend on the frame layout, the order of its frames
    # and the order in which it draws its coins; overlapping the rounds
    # must change none of them.
    inst, wit = plant_instance(64, 3, 16, random.Random(120))
    prover, verifier = _Recorder(prover_side(inst, wit, 219, seed=121)), _Recorder(verifier_side(inst, 219, seed=122))
    ok, error, _ = peer_session(verifier, prover)
    assert ok and error is None
    assert prover.sent.hexdigest() == "404fc79721372725826a3cbe347ce62f133f8b3f27c45130c9e844bf98efd5be"
    assert verifier.sent.hexdigest() == "7b95078da55fcfe6ee7d6358ccf6a3ee42c2100a80ce1aaca80c442b2f3fbce1"


class _Sink:
    """A socket that keeps the bytes it is sent."""

    def __init__(self):
        self.data = bytearray()

    def sendall(self, data):
        self.data += data


def test_the_prover_writes_each_round_in_one_sendall(planted):
    # The first commitment goes out alone, then response i and commitment
    # i+1 in one write: the bytes send_frame writes one frame at a time.
    inst, wit = planted
    rounds = 12
    prover = _Recorder(prover_side(inst, wit, rounds, seed=123))
    verifier = _Recorder(verifier_side(inst, rounds, seed=124))
    ok, error, _ = peer_session(verifier, prover)
    assert ok and error is None
    assert len(prover.writes) == 1 + rounds
    challenges = [frame[-1] for frame in verifier.writes]
    states = list(honest_rounds(inst, wit, rounds, random.Random(123)))
    sink = _Sink()
    net.send_frame(sink, MSG_COMMIT, states[0].commitment)
    for state, following, challenge in zip(states, states[1:] + [None], challenges, strict=True):
        net.send_frame(sink, MSG_RESPONSE, prover_respond(state, challenge))
        if following is not None:
            net.send_frame(sink, MSG_COMMIT, following.commitment)
    assert b"".join(prover.writes) == sink.data


@pytest.mark.parametrize("rounds, bad_round", [(1, 0), (219, 109), (219, 218)], ids=["only", "middle", "last"])
def test_verifier_rejects_one_flipped_response_byte(planted, monkeypatch, caplog, rounds, bad_round):
    # The verifier checks round i after it sends challenge i+1, and the last
    # round before it decides; a session that skipped that check would
    # accept the last case.
    inst, wit = planted
    sent = []
    honest_respond = net.prover_respond

    def flip_one_byte(state, challenge):
        data = honest_respond(state, challenge)
        if len(sent) == bad_round:
            data = data[:-1] + bytes([data[-1] ^ 1])
        sent.append(data)
        return data

    monkeypatch.setattr(net, "prover_respond", flip_one_byte)
    with caplog.at_level(logging.INFO, logger="sdzkp.net"):
        ok, _, _ = peer_session(verifier_side(inst, rounds), prover_side(inst, wit, rounds))
    assert ok is False
    assert len(sent) > bad_round
    assert f"round {bad_round} failed verification" in caplog.text


def test_prover_session_checks_the_witness_once(planted, monkeypatch):
    inst, wit = planted
    calls = []
    check = sdzkp.protocol.validate_witness
    monkeypatch.setattr(sdzkp.protocol, "validate_witness", lambda i, h: calls.append(h) or check(i, h))
    ok, error, _ = peer_session(verifier_side(inst, 219), prover_side(inst, wit, 219))
    assert ok and error is None
    assert calls == [wit.element]

    _, foreign = plant_instance(16, 4, 6, random.Random(112))
    a, b = pair()
    with b:
        with a, pytest.raises(ValueError, match="witness"):
            net.prover_session(a, honest_rounds(inst, foreign, 219, random.Random(101)), soon())
        assert b.recv(1) == b""  # the prover hung up without sending a frame
    assert len(calls) == 2


def test_impostor_sends_garbage_commit(planted):
    inst, wit = planted
    received = bytearray()

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, b"way too short")
        while chunk := sock.recv(4096):  # everything the verifier sends before it hangs up
            received.extend(chunk)

    ok, error, _ = peer_session(verifier_side(inst, 4), impostor)
    assert not ok
    assert error is None and received == b""  # refused before a challenge was sent


def test_impostor_sends_wrong_type(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_RESPONSE, bytes(96))

    ok, _, _ = peer_session(verifier_side(inst, 4), impostor)
    assert not ok


def test_impostor_disconnects_mid_session(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, bytes(96))
        net.recv_expected(sock, MSG_CHALLENGE, 2, soon(), bytearray())
        # hang up instead of responding

    ok, _, _ = peer_session(verifier_side(inst, 4), impostor)
    assert not ok


def test_impostor_sends_malformed_response(planted, caplog):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, bytes(96))
        net.recv_expected(sock, MSG_CHALLENGE, 2, soon(), bytearray())
        net.send_frame(sock, MSG_RESPONSE, b"\x07garbage")

    ok, _, _ = peer_session(verifier_side(inst, 4), impostor)
    assert not ok
    # the round check refuses it, so the log names the round
    with caplog.at_level(logging.INFO, logger="sdzkp.net"):
        ok, _, _ = peer_session(verifier_side(inst, 1), impostor)
    assert not ok
    assert "round 0 failed verification" in caplog.text


def test_commit_without_witness_fails_rounds(planted):
    # a syntactically valid commitment with no valid openings behind it
    inst, wit = planted

    def impostor(sock):
        for _ in range(2):
            net.send_frame(sock, MSG_COMMIT, bytes(96))
            net.recv_expected(sock, MSG_CHALLENGE, 2, soon(), bytearray())
            net.send_frame(sock, MSG_RESPONSE, b"\x00" + b"\x00" * 200)

    ok, _, _ = peer_session(verifier_side(inst, 2), impostor)
    assert not ok


def test_connect_and_prove_checks_the_witness_once(planted, monkeypatch):
    # checked before the dial; the session it then runs does not check again
    inst, wit = planted
    calls = []
    check = sdzkp.protocol.validate_witness
    monkeypatch.setattr(sdzkp.protocol, "validate_witness", lambda i, h: calls.append(h) or check(i, h))
    ok, error, _ = peer_session(tcp_verifier(inst, 16, 10), tcp_prover(inst, wit, 16, 10), over="tcp")
    assert ok and error is None
    assert calls == [wit.element]


def test_accept_timeout_rejects(planted):
    inst, _ = planted
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    with listener:
        assert not net.accept_and_verify(listener, inst, 4, random.Random(105), timeout_s=0.2)


def test_prover_session_rejects_invalid_challenge(planted):
    inst, wit = planted

    def verifier(sock):
        net.recv_expected(sock, MSG_COMMIT, COMMIT_FRAME_MAX, soon(), bytearray())
        net.send_frame(sock, MSG_CHALLENGE, bytes([9]))

    _, error, _ = peer_session(verifier, prover_side(inst, wit, 1, seed=106))
    assert isinstance(error, net.SessionError)


def test_prover_refuses_an_oversized_challenge_before_its_body(planted):
    inst, wit = planted

    def verifier(sock):
        net.recv_expected(sock, MSG_COMMIT, COMMIT_FRAME_MAX, soon(), bytearray())
        # announce 1 MiB, send nothing behind it, and hold the line open
        # until the prover hangs up
        sock.sendall(struct.pack("<I", 1 << 20))
        assert sock.recv(1) == b""

    _, error, seconds = peer_session(verifier, prover_side(inst, wit, 1, seed=112, seconds=3))
    assert seconds < 1.0
    assert type(error) is net.SessionError


def test_zero_round_sessions_refused_before_any_io(planted):
    # A zero-round verifier would accept a peer that sent nothing.
    inst, wit = planted
    a, b = pair()
    with a, b:
        with pytest.raises(ValueError):
            net.verifier_session(b, inst, 0, random.Random(109), soon())
        with pytest.raises(ValueError):
            net.prover_session(a, honest_rounds(inst, wit, 0, random.Random(110)), soon())
        for sock in (a, b):
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recv(1)
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    with listener, socket.create_connection(listener.getsockname(), timeout=5):
        with pytest.raises(ValueError):
            net.accept_and_verify(listener, inst, 0, random.Random(111), timeout_s=5)
        # the waiting connection was never accepted by the refused session
        listener.settimeout(5)
        conn, _ = listener.accept()
        conn.close()


def test_full_tcp_session_is_not_stalled_by_nagle(planted):
    # Without TCP_NODELAY every round waits out a delayed ACK (about 40 ms),
    # so 219 rounds took close to 10 s.
    inst, wit = planted
    ok, error, seconds = peer_session(tcp_verifier(inst, 219, 30), tcp_prover(inst, wit, 219, 30), over="tcp")
    assert ok and error is None
    assert seconds < 2.0


def test_session_deadline_bounds_a_trickling_peer(planted):
    inst, _ = planted

    def trickler(address):
        # A well-formed commit frame, one byte per 50 ms: each recv returns
        # well inside the timeout, but the session as a whole must not.
        with socket.create_connection(address, timeout=5) as sock:
            for b in frame(MSG_COMMIT, bytes(96)):
                time.sleep(0.05)
                sock.sendall(bytes([b]))

    timeout_s = 0.5
    ok, _, seconds = peer_session(tcp_verifier(inst, 4, timeout_s), trickler, over="tcp")
    assert not ok
    assert seconds < timeout_s + 1.0


def test_prover_deadline_bounds_a_trickling_verifier(planted):
    inst, wit = planted
    stop = threading.Event()

    def trickler(listener):
        # Well-formed challenge frames, one byte per 300 ms, until the prover
        # gives up: each recv returns well inside the prover's timeout, but
        # the session as a whole must not.
        conn, _ = listener.accept()
        with conn:
            for b in itertools.cycle(frame(MSG_CHALLENGE, b"\x00")):
                if stop.wait(0.3):
                    return
                conn.sendall(bytes([b]))

    timeout_s = 0.5

    def prover(address):
        with pytest.raises(socket.timeout):
            tcp_prover(inst, wit, 4, timeout_s, seed=109)(address)
        stop.set()

    _, _, seconds = peer_session(trickler, prover, over="tcp", thread="verifier")
    assert seconds < timeout_s + 1.0


@pytest.fixture(scope="module")
def foreign_frames(planted):
    """Well-formed bodies a peer can replay: a real commitment, and real
    responses of every kind to another commitment, so none of them opens it."""
    inst, wit = planted
    rng = random.Random(110)
    commitment = prover_commit(inst, wit, rng).commitment
    other = prover_commit(inst, wit, rng)
    return [(MSG_COMMIT, commitment)] + [(MSG_RESPONSE, prover_respond(other, ch)) for ch in range(3)]


def _frames(foreign):
    """A peer's byte stream: frames with honest, wrong or oversized lengths
    (None is honest), any type byte and garbage or replayed bodies, cut into
    chunks with stalls."""
    body = st.one_of(st.binary(max_size=300), st.sampled_from(foreign))
    length = st.one_of(st.none(), st.integers(0, 300), st.integers(0, 2**32 - 1))
    msg_type = st.one_of(st.sampled_from((MSG_COMMIT, MSG_CHALLENGE, MSG_RESPONSE)), st.integers(0, 255))

    @st.composite
    def any_frame(draw):
        b = draw(body)
        typ, b = b if isinstance(b, tuple) else (draw(msg_type), b)
        return frame(typ, b, draw(length))

    @st.composite
    def stream(draw):
        data = b"".join(draw(st.lists(any_frame(), min_size=1, max_size=6)))
        cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=4)))
        stalls = draw(st.lists(st.floats(0, 0.05), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        bounds = [0, *cuts, len(data)]
        return [(data[a:b], stall) for a, b, stall in zip(bounds, bounds[1:], stalls)]

    return stream()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verifier_rejects_an_adversarial_peer_without_raising(planted, foreign_frames, data):
    inst, _ = planted
    chunks = data.draw(_frames(foreign_frames))

    def peer(sock):
        for chunk, stall in chunks:
            time.sleep(stall)
            sock.sendall(chunk)

    timeout_s = 0.5
    ok, _, seconds = peer_session(verifier_side(inst, 2, seed=111, seconds=timeout_s), peer)
    assert ok is False
    assert seconds < timeout_s + 1.0


@pytest.mark.parametrize("stage", ["commit", "response"])
def test_oversized_frame_rejected_before_its_body(planted, stage):
    inst, _ = planted
    assert inst.degree == 16

    def impostor(sock):
        if stage == "response":
            net.send_frame(sock, MSG_COMMIT, bytes(96))
            net.recv_expected(sock, MSG_CHALLENGE, 2, soon(), bytearray())
        # announce 1 MiB, send nothing behind it, and hold the line open
        # until the verifier hangs up
        sock.sendall(struct.pack("<I", 1 << 20))
        sock.recv(1)

    ok, _, seconds = peer_session(verifier_side(inst, 4), impostor)
    assert not ok
    assert seconds < 2.0


@pytest.mark.parametrize("n", [4, 7, 16, 64])
def test_response_cap_is_the_longest_valid_response(n):
    rng = random.Random(109)
    inst, wit = plant_instance(n, 2, 2, rng)
    state = prover_commit(inst, wit, rng)
    sizes = [len(prover_respond(state, ch)) for ch in (0, 1, 2)]
    assert max(sizes) == max_response_bytes(n)
    # a frame's type byte, then the kind byte, the values and two openings:
    # two masked values of w·n bytes once they outgrow the 32-byte seed
    masked = word_width(n) * n
    assert max_response_bytes(n) + 1 == (2 * masked + 66 if masked > 32 else masked + 98)


def test_small_degree_tcp_session_accepts():
    # while a masked value is under the seed's 32 bytes the longest
    # response is kind 0 or 1, not kind 2
    inst, wit = plant_instance(4, 2, 2, random.Random(110))
    ok, error, _ = peer_session(tcp_verifier(inst, 40, 10), tcp_prover(inst, wit, 40, 10), over="tcp")
    assert ok and error is None


@pytest.mark.parametrize("foreign_witness, rounds, error", [
    pytest.param(True, 4, "witness", id="foreign-witness"),
    pytest.param(False, 0, "at least one round", id="zero-rounds"),
])
def test_prover_refuses_what_it_cannot_finish_before_connecting(planted, foreign_witness, rounds, error):
    # a session the prover cannot finish would still use up the verifier's one session
    inst, wit = planted
    if foreign_witness:
        _, wit = plant_instance(16, 4, 6, random.Random(112))
        assert not validate_witness(inst, wit.element)
    with socket.create_server(("127.0.0.1", 0), backlog=1) as listener:
        port = listener.getsockname()[1]
        with pytest.raises(ValueError, match=error):
            net.connect_and_prove("127.0.0.1", port, inst, wit, rounds, random.Random(113), timeout_s=5)
        listener.settimeout(0.5)
        with pytest.raises(socket.timeout):
            listener.accept()
