"""Framed transport and the interactive session drivers."""

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
from sdzkp.instance import plant_instance, validate_witness
from sdzkp.protocol import (
    MSG_CHALLENGE,
    MSG_COMMIT,
    MSG_RESPONSE,
    encode_response,
    max_response_bytes,
    prover_commit,
    prover_respond,
)


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(100)
    return plant_instance(16, 4, 6, rng)


def pair():
    a, b = socket.socketpair()
    a.settimeout(10)
    b.settimeout(10)
    return a, b


def test_frame_round_trip():
    a, b = pair()
    with a, b:
        net.send_frame(a, MSG_COMMIT, b"hello")
        msg_type, body = net.recv_frame(b)
        assert msg_type == MSG_COMMIT and body == b"hello"


def test_frame_rejects_zero_length():
    a, b = pair()
    with a, b:
        a.sendall(struct.pack("<I", 0))
        with pytest.raises(net.SessionError):
            net.recv_frame(b)


def test_frame_rejects_oversize_length():
    a, b = pair()
    with a, b:
        a.sendall(struct.pack("<I", net.FRAME_MAX + 1))
        with pytest.raises(net.SessionError):
            net.recv_frame(b)


def test_send_frame_rejects_oversize_body():
    a, b = pair()
    with a, b:
        with pytest.raises(net.SessionError):
            net.send_frame(a, MSG_COMMIT, bytes(net.FRAME_MAX))


def test_recv_frame_detects_eof():
    a, b = pair()
    with b:
        a.sendall(struct.pack("<I", 10) + b"\x01")
        a.close()
        with pytest.raises(net.SessionError):
            net.recv_frame(b)


def test_recv_expected_type_mismatch():
    a, b = pair()
    with a, b:
        net.send_frame(a, MSG_RESPONSE, b"x")
        with pytest.raises(net.SessionError):
            net.recv_expected(b, MSG_COMMIT)


def run_session(inst, wit, rounds, prover_fn=None):
    """Verifier in this thread, prover (or an impostor) in another."""
    a, b = pair()
    errors = []

    def prover_side():
        try:
            with a:
                if prover_fn is None:
                    net.prover_session(a, inst, wit, rounds, random.Random(101))
                else:
                    prover_fn(a)
        except (net.SessionError, OSError) as exc:
            errors.append(exc)

    th = threading.Thread(target=prover_side)
    th.start()
    try:
        with b:
            ok = net.verifier_session(b, inst, rounds, random.Random(102))
    finally:
        th.join(10)
    return ok, errors


def test_honest_session_accepts(planted):
    inst, wit = planted
    ok, errors = run_session(inst, wit, 32)
    assert ok
    assert not errors


def test_prover_session_checks_the_witness_once(planted, monkeypatch):
    inst, wit = planted
    calls = []
    check = sdzkp.protocol.validate_witness
    monkeypatch.setattr(sdzkp.protocol, "validate_witness", lambda i, h: calls.append(h) or check(i, h))
    ok, errors = run_session(inst, wit, 219)
    assert ok and not errors
    assert calls == [wit.element]

    _, foreign = plant_instance(16, 4, 6, random.Random(112))
    a, b = pair()
    with b:
        with a, pytest.raises(ValueError, match="witness"):
            net.prover_session(a, inst, foreign, 219, random.Random(101))
        assert b.recv(1) == b""  # the prover hung up without sending a frame
    assert len(calls) == 2


def test_impostor_sends_garbage_commit(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, b"way too short")

    ok, _ = run_session(inst, wit, 4, impostor)
    assert not ok


def test_impostor_sends_wrong_type(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_RESPONSE, bytes(96))

    ok, _ = run_session(inst, wit, 4, impostor)
    assert not ok


def test_impostor_disconnects_mid_session(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, bytes(96))
        net.recv_expected(sock, MSG_CHALLENGE)
        # hang up instead of responding

    ok, _ = run_session(inst, wit, 4, impostor)
    assert not ok


def test_impostor_sends_malformed_response(planted):
    inst, wit = planted

    def impostor(sock):
        net.send_frame(sock, MSG_COMMIT, bytes(96))
        net.recv_expected(sock, MSG_CHALLENGE)
        net.send_frame(sock, MSG_RESPONSE, b"\x07garbage")

    ok, _ = run_session(inst, wit, 4, impostor)
    assert not ok


def test_commit_without_witness_fails_rounds(planted):
    # a syntactically valid commitment with no valid openings behind it
    inst, wit = planted

    def impostor(sock):
        for _ in range(2):
            net.send_frame(sock, MSG_COMMIT, bytes(96))
            net.recv_expected(sock, MSG_CHALLENGE)
            net.send_frame(sock, MSG_RESPONSE, b"\x00" + b"\x00" * 200)

    ok, _ = run_session(inst, wit, 2, impostor)
    assert not ok


def test_tcp_listener_accept_and_prove(planted):
    inst, wit = planted
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    host, port = listener.getsockname()
    result = {}

    def verifier_side():
        with listener:
            result["ok"] = net.accept_and_verify(listener, inst, 16, random.Random(103), timeout_s=10)

    th = threading.Thread(target=verifier_side)
    th.start()
    net.connect_and_prove(host, port, inst, wit, 16, random.Random(104), timeout_s=10)
    th.join(10)
    assert result["ok"]


def test_accept_timeout_rejects(planted):
    inst, _ = planted
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    with listener:
        assert not net.accept_and_verify(listener, inst, 4, random.Random(105), timeout_s=0.2)


def test_prover_session_rejects_invalid_challenge(planted):
    inst, wit = planted
    a, b = pair()
    errors = []

    def prover_side():
        try:
            with a:
                net.prover_session(a, inst, wit, 1, random.Random(106))
        except net.SessionError as exc:
            errors.append(exc)

    th = threading.Thread(target=prover_side)
    th.start()
    with b:
        net.recv_expected(b, MSG_COMMIT)
        net.send_frame(b, MSG_CHALLENGE, bytes([9]))
    th.join(10)
    assert errors


def test_prover_refuses_an_oversized_challenge_before_its_body(planted):
    inst, wit = planted
    a, b = pair()
    a.settimeout(3)
    errors = []

    def prover_side():
        try:
            with a:
                net.prover_session(a, inst, wit, 1, random.Random(112))
        except OSError as exc:
            errors.append(exc)

    th = threading.Thread(target=prover_side)
    th.start()
    with b:
        net.recv_expected(b, MSG_COMMIT)
        t0 = time.monotonic()
        # announce 1 MiB, send nothing behind it, and hold the line open
        b.sendall(struct.pack("<I", 1 << 20))
        th.join(10)
    assert time.monotonic() - t0 < 1.0
    assert len(errors) == 1 and type(errors[0]) is net.SessionError


def test_zero_round_sessions_refused_before_any_io(planted):
    # A zero-round verifier would accept a peer that sent nothing.
    inst, wit = planted
    a, b = pair()
    with a, b:
        with pytest.raises(ValueError):
            net.verifier_session(b, inst, 0, random.Random(109))
        with pytest.raises(ValueError):
            net.prover_session(a, inst, wit, 0, random.Random(110))
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


def tcp_session(inst, wit, rounds, timeout_s, prover_fn=None):
    """Verifier over real loopback TCP in a thread; returns (ok, seconds)."""
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    host, port = listener.getsockname()
    result = {}

    def verifier_side():
        with listener:
            t0 = time.monotonic()
            result["ok"] = net.accept_and_verify(listener, inst, rounds, random.Random(107), timeout_s=timeout_s)
            result["seconds"] = time.monotonic() - t0

    th = threading.Thread(target=verifier_side)
    th.start()
    try:
        if prover_fn is None:
            net.connect_and_prove(host, port, inst, wit, rounds, random.Random(108), timeout_s=timeout_s)
        else:
            prover_fn(host, port)
    finally:
        th.join(timeout_s + 10)
    assert not th.is_alive()
    return result["ok"], result["seconds"]


def test_full_tcp_session_is_not_stalled_by_nagle(planted):
    # Without TCP_NODELAY every round waits out a delayed ACK (about 40 ms),
    # so 219 rounds took close to 10 s.
    inst, wit = planted
    ok, seconds = tcp_session(inst, wit, 219, timeout_s=30)
    assert ok
    assert seconds < 2.0


def test_session_deadline_bounds_a_trickling_peer(planted):
    inst, _ = planted
    stop = threading.Event()

    def trickler(host, port):
        # A well-formed commit frame, one byte per 50 ms: each recv returns
        # well inside the timeout, but the session as a whole must not.
        frame = struct.pack("<I", 97) + bytes([MSG_COMMIT]) + bytes(96)
        with socket.create_connection((host, port), timeout=5) as sock:
            for b in frame:
                if stop.wait(0.05):
                    return
                try:
                    sock.sendall(bytes([b]))
                except OSError:
                    return

    timeout_s = 0.5
    try:
        ok, seconds = tcp_session(inst, None, 4, timeout_s, prover_fn=trickler)
    finally:
        stop.set()
    assert not ok
    assert seconds < timeout_s + 1.0


def test_prover_deadline_bounds_a_trickling_verifier(planted):
    inst, wit = planted
    listener = socket.create_server(("127.0.0.1", 0), backlog=1)
    listener.settimeout(5)
    host, port = listener.getsockname()
    stop = threading.Event()

    def trickler():
        # Well-formed challenge frames, one byte per 300 ms: each recv returns
        # well inside the prover's timeout, but the session as a whole must not.
        frame = struct.pack("<I", 2) + bytes([MSG_CHALLENGE, 0])
        with listener:
            conn, _ = listener.accept()
        with conn:
            while True:
                for b in frame:
                    if stop.wait(0.3):
                        return
                    try:
                        conn.sendall(bytes([b]))
                    except OSError:
                        return

    th = threading.Thread(target=trickler)
    th.start()
    timeout_s = 0.5
    t0 = time.monotonic()
    try:
        with pytest.raises(socket.timeout):
            net.connect_and_prove(host, port, inst, wit, 4, random.Random(109), timeout_s=timeout_s)
        seconds = time.monotonic() - t0
    finally:
        stop.set()
        th.join(5)
    assert not th.is_alive()
    assert seconds < timeout_s + 1.0


@pytest.fixture(scope="module")
def foreign_frames(planted):
    """Well-formed bodies a peer can replay: a real commitment, and real
    responses of every kind to another commitment, so none of them opens it."""
    inst, wit = planted
    rng = random.Random(110)
    commitment = prover_commit(inst, wit, rng).commitment.encode()
    other = prover_commit(inst, wit, rng)
    return [(MSG_COMMIT, commitment)] + [(MSG_RESPONSE, encode_response(other.respond(ch))) for ch in range(3)]


def _frames(foreign):
    """A peer's byte stream: frames with honest, wrong or oversized lengths
    (None is honest), any type byte and garbage or replayed bodies, cut into
    chunks with stalls."""
    body = st.one_of(st.binary(max_size=300), st.sampled_from(foreign))
    length = st.one_of(st.none(), st.integers(0, 300), st.integers(0, 2**32 - 1))
    msg_type = st.one_of(st.sampled_from((MSG_COMMIT, MSG_CHALLENGE, MSG_RESPONSE)), st.integers(0, 255))

    @st.composite
    def frame(draw):
        b = draw(body)
        typ, b = b if isinstance(b, tuple) else (draw(msg_type), b)
        n = draw(length)
        return struct.pack("<I", 1 + len(b) if n is None else n) + bytes([typ]) + b

    @st.composite
    def stream(draw):
        data = b"".join(draw(st.lists(frame(), min_size=1, max_size=6)))
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
    a, b = pair()

    def peer():
        with a:
            for chunk, stall in chunks:
                time.sleep(stall)
                try:
                    a.sendall(chunk)
                except OSError:
                    return

    th = threading.Thread(target=peer)
    th.start()
    timeout_s = 0.5
    t0 = time.monotonic()
    try:
        with b:
            ok = net.verifier_session(b, inst, 2, random.Random(111), time.monotonic() + timeout_s)
    finally:
        th.join(5)
    assert not th.is_alive()
    assert ok is False
    assert time.monotonic() - t0 < timeout_s + 1.0


@pytest.mark.parametrize("stage", ["commit", "response"])
def test_oversized_frame_rejected_before_its_body(planted, stage):
    inst, _ = planted
    assert inst.degree == 16

    def impostor(sock):
        if stage == "response":
            net.send_frame(sock, MSG_COMMIT, bytes(96))
            net.recv_expected(sock, MSG_CHALLENGE)
        # announce 1 MiB, send nothing behind it, and hold the line open
        # until the verifier hangs up
        sock.sendall(struct.pack("<I", 1 << 20))
        sock.recv(1)

    t0 = time.monotonic()
    ok, _ = run_session(inst, None, 4, impostor)
    assert not ok
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize("n", [4, 7, 16, 64])
def test_response_cap_is_the_longest_valid_response(n):
    rng = random.Random(109)
    inst, wit = plant_instance(n, 2, 2, rng)
    state = prover_commit(inst, wit, rng)
    sizes = [len(encode_response(prover_respond(state, ch))) for ch in (0, 1, 2)]
    assert max(sizes) == max_response_bytes(n)
    if n >= 7:
        assert max_response_bytes(n) + 1 == 8 * n + 74


def test_small_degree_tcp_session_accepts():
    # below degree 7 the longest response is kind 0 or 1, not kind 2
    inst, wit = plant_instance(4, 2, 2, random.Random(110))
    ok, _ = tcp_session(inst, wit, 40, timeout_s=10)
    assert ok


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
