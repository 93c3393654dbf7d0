"""The wire codec: frames, handshakes, and the snapshot a PREPARE carries."""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.kernel.store import SnapshotStore
from repro.remote.wire import (
    WIRE_VERSION,
    Connection,
    Message,
    WireClosed,
    WireError,
    client_handshake,
)


def _pipe() -> tuple[Connection, Connection]:
    """Two connected in-process Connections (loopback socketpair)."""
    a, b = socket.socketpair()
    return Connection(a), Connection(b)


class TestFrames:
    def test_round_trip_fields_and_blob(self):
        left, right = _pipe()
        left.send("SUBMIT", {"index": 3, "name": "j3", "user": None},
                  blob=b"\x00binary\xff")
        msg = right.recv()
        assert msg.type == "SUBMIT"
        assert msg.fields == {"index": 3, "name": "j3", "user": None}
        assert msg.blob == b"\x00binary\xff"

    def test_empty_blob_and_fields(self):
        left, right = _pipe()
        left.send("GOODBYE")
        msg = right.recv()
        assert msg.type == "GOODBYE" and msg.fields == {} and msg.blob == b""

    def test_many_frames_in_order(self):
        left, right = _pipe()
        for i in range(10):
            left.send("PING", {"i": i})
        assert [right.recv().fields["i"] for _ in range(10)] == list(range(10))

    def test_eof_between_frames_is_wire_closed(self):
        left, right = _pipe()
        left.close()
        with pytest.raises(WireClosed, match="closed"):
            right.recv()

    def test_eof_mid_frame_is_an_error_not_a_short_read(self):
        a, b = socket.socketpair()
        right = Connection(b)
        # A length prefix promising more bytes than ever arrive.
        a.sendall(b"\x00\x00\x00\xff\x00\x00\x00\x00")
        a.close()
        with pytest.raises(WireClosed, match="mid-frame"):
            right.recv()

    def test_corrupt_length_prefix_fails_fast(self):
        a, b = socket.socketpair()
        right = Connection(b)
        a.sendall(b"\xff\xff\xff\xff\xff\xff\xff\xff")
        with pytest.raises(WireError, match="too large"):
            right.recv()

    def test_oversize_frames_are_refused_on_every_send_path(self, monkeypatch):
        """One codec: every end sends through Connection, which refuses
        a frame above the cap before writing a byte."""
        from repro.remote import wire

        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        left, right = _pipe()
        with pytest.raises(WireError, match="too large"):
            left.send("RESULT", blob=b"x" * 100)
        left.send("GOODBYE")  # the next frame is the first on the wire
        assert right.recv().type == "GOODBYE"

    def test_expect_rejects_wrong_type(self):
        left, right = _pipe()
        left.send("HELLO", {"version": WIRE_VERSION})
        with pytest.raises(WireError, match="expected READY"):
            right.recv().expect("READY")

    def test_expect_surfaces_peer_error(self):
        left, right = _pipe()
        left.send("ERROR", {"error": "agent exploded"})
        with pytest.raises(WireError, match="agent exploded"):
            right.recv().expect("READY")


class TestHandshake:
    def _serve(self, reply_version):
        a, b = socket.socketpair()
        server = Connection(b)

        def srv():
            hello = server.recv()
            assert hello.fields["version"] == WIRE_VERSION
            server.send("HELLO", {"version": reply_version, "pid": 1234})

        thread = threading.Thread(target=srv)
        thread.start()
        return Connection(a), thread

    def test_matching_versions_succeed(self):
        client, thread = self._serve(WIRE_VERSION)
        hello = client_handshake(client)
        thread.join()
        assert hello.fields["pid"] == 1234

    def test_version_mismatch_is_typed(self):
        from repro.remote.wire import WireVersionError

        client, thread = self._serve(WIRE_VERSION + 1)
        with pytest.raises(WireVersionError, match="wire version"):
            client_handshake(client)
        thread.join()


def _snapshot_frame(body: bytes) -> bytes:
    """A frame with a snapshot header (the pull never decodes bodies)."""
    from repro.kernel.serialize import SNAPSHOT_VERSION, _MAGIC

    return _MAGIC + bytes([SNAPSHOT_VERSION]) + body


class TestBlobPull:
    """PREPARE's NEED round, driven against a real server's reader loop
    over a socketpair (the gateway's PREPARE restores nothing, so any
    bytes do for a snapshot)."""

    @staticmethod
    def _prepare(server, snapshot: str, answer) -> "tuple[Message, list]":
        """One connection: HELLO, then PREPARE ``snapshot``, answering a
        NEED with the same PREPARE carrying ``answer(digest)``; returns
        the final reply and the digests NEEDed."""
        a, b = socket.socketpair()
        thread = threading.Thread(target=server._serve_connection,
                                  args=(Connection(b),), daemon=True)
        thread.start()
        client = Connection(a)
        client_handshake(client)
        needed = []
        prepare = {"snapshot": snapshot, "scripts": [], "default_user": "alice"}
        reply = client.request("PREPARE", dict(prepare, channel=1))
        if reply.type == "NEED":
            needed.append(reply.fields["snapshot"])
            reply = client.request("PREPARE", dict(prepare, channel=2),
                                   answer(needed[-1]))
        client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return reply, needed

    @pytest.fixture
    def gateway(self, tmp_path):
        from repro.serve import Gateway

        gateway = Gateway(store=tmp_path / "dst")
        yield gateway
        gateway.close()

    def test_needs_a_missing_blob_once(self, tmp_path, gateway):
        src = SnapshotStore(tmp_path / "src")
        snapshot = src.put(_snapshot_frame(b"machine"))
        reply, needed = self._prepare(gateway, snapshot, src.load)
        assert needed == [snapshot]
        assert reply.expect("READY").fields == {"source": "wire", "build_ops": {},
                                                "channel": 2}
        assert gateway.store.get(snapshot) == src.get(snapshot)
        # The blob is local now: a second PREPARE NEEDs nothing.
        again, needed = self._prepare(gateway, snapshot, src.load)
        assert needed == [] and again.expect("READY").fields["source"] == "memory"

    def test_concurrent_pulls_of_one_blob_all_succeed(self, tmp_path, gateway):
        """Two clients PREPARE one missing snapshot at once, so both are
        NEEDed and both resent PREPAREs land together with the bytes:
        both get READY.  Two threads writing one blob race on the
        store's temp file, so the server imports one blob at a time."""
        src = SnapshotStore(tmp_path / "src")
        for _ in range(30):
            snapshot = src.put(_snapshot_frame(os.urandom(256 * 1024)))
            both_needed = threading.Barrier(2)

            def answer(digest):
                both_needed.wait(timeout=10)
                return src.load(digest)

            replies: list = []
            clients = [threading.Thread(target=lambda: replies.append(
                           self._prepare(gateway, snapshot, answer)[0].type))
                       for _ in range(2)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=10)
            assert not any(client.is_alive() for client in clients)
            assert replies == ["READY", "READY"]

    def test_a_blob_other_than_the_one_needed_is_refused(self, tmp_path, gateway):
        src = SnapshotStore(tmp_path / "src")
        wanted = src.put(_snapshot_frame(b"wanted"))
        other = src.put(_snapshot_frame(b"other"))
        reply, needed = self._prepare(gateway, wanted,
                                      lambda _digest: src.load(other))
        assert needed == [wanted]
        with pytest.raises(WireError, match="the PREPARE names"):
            reply.expect("READY")
        assert gateway.store.get(wanted) is None

