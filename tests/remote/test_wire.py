"""The wire codec: frames, handshakes, and blob export/import framing."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.kernel.serialize import SnapshotError
from repro.kernel.store import BLOB_EXPORT_MAGIC, SnapshotStore
from repro.remote.wire import (
    WIRE_VERSION,
    BlobPull,
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
        """One codec: the sync Connection and the gateway's asyncio
        session both refuse a frame above the cap before writing a byte."""
        import asyncio

        from repro.remote import wire
        from repro.serve.gateway import Gateway

        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        left, _right = _pipe()
        with pytest.raises(WireError, match="too large"):
            left.send("BLOB", blob=b"x" * 100)

        class Writer:
            written = b""

            def write(self, data):
                self.written += data

            async def drain(self):
                pass

        writer = Writer()
        with pytest.raises(WireError, match="too large"):
            asyncio.run(Gateway._Session(writer).send("BLOB", blob=b"x" * 100))
        assert writer.written == b""

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


def _snapshot_frame(body: bytes, base: "str | None" = None) -> bytes:
    """A frame that parses as a full snapshot, or as a delta against
    ``base`` (the walk reads headers only; bodies never decode)."""
    from repro.kernel.serialize import SNAPSHOT_VERSION, _KIND_DELTA, _KIND_FULL, _MAGIC

    if base is None:
        return _MAGIC + bytes([SNAPSHOT_VERSION]) + _KIND_FULL + body
    return _MAGIC + bytes([SNAPSHOT_VERSION]) + _KIND_DELTA + base.encode() + body


class TestBlobPull:
    """PREPARE's NEED/BLOB walk, driven by hand — no sockets."""

    def test_needs_each_missing_link_of_the_delta_chain(self, tmp_path):
        src = SnapshotStore(tmp_path / "src")
        dst = SnapshotStore(tmp_path / "dst")
        base = src.put(_snapshot_frame(b"base"))
        delta = src.put(_snapshot_frame(b"delta", base=base))
        pull, needed = BlobPull(dst, delta), []
        while (digest := pull.next_need()) is not None:
            needed.append(digest)
            pull.accept(Message("BLOB", {}, src.export_blob(digest)))
        assert needed == [delta, base] and pull.pulled
        again = BlobPull(dst, delta)  # the whole chain is local now
        assert again.next_need() is None and not again.pulled

    def test_a_blob_other_than_the_one_needed_is_refused(self, tmp_path):
        src = SnapshotStore(tmp_path / "src")
        wanted = src.put(_snapshot_frame(b"wanted"))
        other = src.put(_snapshot_frame(b"other"))
        pull = BlobPull(SnapshotStore(tmp_path / "dst"), wanted)
        assert pull.next_need() == wanted
        with pytest.raises(WireError, match="NEED named"):
            pull.accept(Message("BLOB", {}, src.export_blob(other)))


class TestBlobExport:
    """The store's wire framing: digest travels with the bytes."""

    def test_export_import_round_trip(self, tmp_path):
        src = SnapshotStore(tmp_path / "src")
        dst = SnapshotStore(tmp_path / "dst")
        digest = src.put(b"machine image bytes")
        frame = src.export_blob(digest)
        assert frame.startswith(BLOB_EXPORT_MAGIC)
        assert dst.import_blob(frame) == digest
        assert dst.get(digest) == b"machine image bytes"

    def test_import_rejects_tampered_payload(self, tmp_path):
        src = SnapshotStore(tmp_path / "src")
        digest = src.put(b"genuine")
        frame = bytearray(src.export_blob(digest))
        frame[-1] ^= 0xFF
        with pytest.raises(SnapshotError, match="corrupt"):
            SnapshotStore(tmp_path / "dst").import_blob(bytes(frame))

    def test_import_rejects_garbage(self, tmp_path):
        with pytest.raises(SnapshotError, match="magic"):
            SnapshotStore(tmp_path / "dst").import_blob(b"not a frame")

    def test_export_missing_blob_is_an_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="not in the store"):
            SnapshotStore(tmp_path / "s").export_blob("0" * 64)
