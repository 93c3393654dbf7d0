"""The agent wire protocol: length-prefixed JSON headers + binary blobs.

One **frame** is::

    !II          header length, blob length (big-endian, 4 bytes each)
    header       UTF-8 JSON object; ``"type"`` names the message
    blob         raw bytes (snapshot bytes, pickled results)

Everything structural (message type, job metadata and script source,
digests, op counts) rides in the JSON header, so a frame is inspectable
with nothing but a socket dump; everything *opaque* (snapshot bytes,
pickled ``RunResult``\\ s) rides in the blob, so JSON never sees bytes
it cannot represent.  Only RESULT and a PREPARE sent again after NEED
(its snapshot bytes, checked against the digest it names) carry a
blob; SUBMIT is header-only.  Frames are capped at
:data:`MAX_FRAME_BYTES` — a corrupt length prefix must fail fast, not
allocate gigabytes.  :class:`Connection` is the one codec: every end,
serving or calling, frames through it.

Every exchange is one request and one reply.  Every request carries a
**channel id** (``"channel": N``) and the peer echoes it on the reply,
so N jobs can be in flight on one connection at once and replies may
arrive in any order::

    coordinator                               agent
    -----------                               -----
    HELLO {version}                     ->
                                        <-    HELLO {version, pid, store}
    PREPARE {snapshot, scripts, ch}     ->
                                        <-    READY {source, build_ops, ch}
                                              … or NEED {snapshot, ch}, then:
    PREPARE {snapshot, scripts, ch'}    ->
      + snapshot bytes
                                        <-    READY {source: "wire", ch'}
    SUBMIT {index, name, source, ch}    ->    (N of these may interleave)
    SUBMIT {index, name, source, ch'}   ->
                                        <-    RESULT {status, ch'} + blob
                                        <-    RESULT {status, ch} + blob
    GOODBYE                             ->    (agent closes)
    (agent may also send GOODBYE first: a clean, drained shutdown)

The version is checked once, in HELLO: both ends speak exactly
:data:`WIRE_VERSION`, and a peer that advertises or answers any other
version raises :class:`WireVersionError` (the agent also refuses with
an ERROR frame so mismatched coordinators get a readable diagnostic
instead of a codec explosion).

A request that fails at the peer is answered ERROR on its channel and
raises :class:`PeerError`: that job fails, and the connection and the
host stay up, neither struck nor retired.  Only an ERROR without a
channel, such as the HELLO refusal, ends the conversation.

A PREPARE whose snapshot the peer's store misses is answered NEED, and
the caller sends the same PREPARE again with the snapshot bytes; the
serving half of the protocol, that check included, is
:mod:`repro.remote.server`, which agents and the gateway both run.  On
the client side, :class:`ChannelMux` wraps a handshaken connection: a
background reader routes each reply to the waiter that owns its
channel, so any number of threads can :meth:`~ChannelMux.request`
concurrently.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import queue
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError

#: Bumped whenever frames, the message vocabulary or the blobs they
#: carry change incompatibly.  Version 2 added channel-tagged frames
#: (concurrent jobs on one connection); version 3 made a job one SHILL
#: script — no pickled callable in SUBMIT, no fixtures blob in PREPARE,
#: and a template key over three ingredients instead of four; version 4
#: ships blobs in snapshot format v3 (one frame kind); version 5 sends
#: the snapshot bytes on a second PREPARE instead of a BLOB frame.
#: Every peer lives in this tree, so both ends speak exactly this
#: version and refuse any other at HELLO with a readable
#: :class:`WireVersionError`.
WIRE_VERSION = 5

#: Hard cap on one frame (header + blob).  Snapshot blobs are hundreds
#: of KiB; 256 MiB is comfortably above any real machine image while
#: still failing fast on a corrupt length prefix.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEAD = struct.Struct("!II")


def encode_frame(type_: str, fields: "dict[str, Any] | None" = None,
                 blob: bytes = b"") -> bytes:
    """One frame's bytes: the ``type`` folded into the JSON header,
    refused when it would exceed :data:`MAX_FRAME_BYTES`."""
    header = dict(fields or {})
    header["type"] = type_
    payload = json.dumps(header, separators=(",", ":"),
                         sort_keys=True).encode()
    if len(payload) + len(blob) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {len(payload) + len(blob)} bytes")
    return _HEAD.pack(len(payload), len(blob)) + payload + blob


def template_key(prepare: "dict[str, Any]") -> str:
    """The protocol-level identity of the template a PREPARE's fields
    describe.

    Every end computes it from the same PREPARE ingredients — snapshot
    digest, script registry, default user — so a SUBMIT can name exactly
    which template it runs against (the snapshot digest already tells a
    machine with the SHILL module from one without).  An agent may hold
    many templates at once (one coordinator sweeping many worlds, or
    many coordinators); without this key in SUBMIT, a reused connection
    would silently run jobs against whichever template was prepared
    *last*.
    """
    basis = json.dumps(
        [prepare["snapshot"], [list(pair) for pair in prepare.get("scripts", [])],
         prepare["default_user"]],
        sort_keys=True)
    return hashlib.sha256(basis.encode()).hexdigest()


class WireError(ReproError):
    """The conversation broke: bad frame, unexpected message, dead peer."""


class WireClosed(WireError):
    """The peer closed the connection (cleanly or mid-frame)."""


class WireVersionError(WireError):
    """The two ends speak different :data:`WIRE_VERSION`\\ s."""


class PeerError(WireError):
    """The peer answered one request with an ERROR on its channel: that
    request failed, and the connection and the peer stay healthy."""


@dataclass(frozen=True)
class Message:
    """One decoded frame.

    ``type`` is the message name (``"HELLO"``, ``"SUBMIT"``, …),
    ``fields`` the rest of the JSON header, ``blob`` the binary payload
    (empty for most messages).
    """

    type: str
    fields: dict[str, Any] = field(default_factory=dict)
    blob: bytes = b""

    def echo(self, fields: "dict[str, Any] | None" = None) -> "dict[str, Any]":
        """Reply fields for this message: ``fields`` plus its channel id,
        so a multiplexing peer routes the reply to the right waiter."""
        fields = dict(fields or {})
        if "channel" in self.fields:
            fields["channel"] = self.fields["channel"]
        return fields

    def expect(self, *types: str) -> "Message":
        """Assert this message is one of ``types`` (protocol checking on
        both ends); an agent-side ERROR frame re-raises as the error it
        reports: a :class:`PeerError` when it names a channel, since
        only that request failed."""
        if self.type == "ERROR" and "ERROR" not in types:
            error = PeerError if "channel" in self.fields else WireError
            raise error(f"peer reported: {self.fields.get('error', 'unknown')}")
        if self.type not in types:
            raise WireError(
                f"expected {' or '.join(types)}, got {self.type!r}")
        return self


class Connection:
    """A framed connection over one TCP socket.

    Thin by design: :meth:`send` writes one frame, :meth:`recv` reads
    one, :meth:`request` does a round trip (handshakes and one-shot
    exchanges; concurrent jobs go through a :class:`ChannelMux`).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        # Sends are serialised: with channels, worker threads reply on a
        # shared connection, and two interleaved sendall()s would tear
        # frames.  recv stays single-reader by construction (one reader
        # loop per connection on both ends).
        self._send_lock = threading.Lock()
        # TCP_NODELAY: frames are small request/reply pairs; Nagle would
        # add 40ms floors to every job round trip.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    # -- frames ------------------------------------------------------------

    def send(self, type_: str, fields: "dict[str, Any] | None" = None,
             blob: bytes = b"") -> None:
        frame = encode_frame(type_, fields, blob)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as err:
            raise WireClosed(f"send failed: {err}") from err

    def recv(self) -> Message:
        head = self._read_exact(_HEAD.size, eof_ok=True)
        if head is None:
            raise WireClosed("connection closed")
        header_len, blob_len = _HEAD.unpack(head)
        if header_len + blob_len > MAX_FRAME_BYTES:
            raise WireError(f"frame too large: {header_len + blob_len} bytes "
                            "(corrupt length prefix?)")
        payload = self._read_exact(header_len)
        blob = self._read_exact(blob_len) if blob_len else b""
        try:
            header = json.loads(payload.decode())
            type_ = header.pop("type")
        except (ValueError, KeyError) as err:
            raise WireError(f"bad frame header: {err}") from err
        return Message(type_, header, blob)

    def request(self, type_: str, fields: "dict[str, Any] | None" = None,
                blob: bytes = b"") -> Message:
        """One round trip, for a caller that owns the connection."""
        self.send(type_, fields, blob)
        return self.recv()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- plumbing ----------------------------------------------------------

    def _read_exact(self, n: int, eof_ok: bool = False) -> "bytes | None":
        """``n`` bytes or bust: a short read mid-frame is always an
        error; EOF *between* frames is a clean close when ``eof_ok``."""
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as err:
                raise WireClosed(f"recv failed: {err}") from err
            if not chunk:
                if eof_ok and remaining == n:
                    return None
                raise WireClosed(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


def check_version(peer_version: Any) -> None:
    """Refuse a peer that does not speak exactly :data:`WIRE_VERSION`
    (both ends of HELLO call this on what the other side sent)."""
    if peer_version != WIRE_VERSION:
        raise WireVersionError(
            f"no common wire version: peer speaks wire version "
            f"{peer_version!r}, we speak {WIRE_VERSION}; restart the older side")


def client_handshake(conn: Connection) -> Message:
    """The coordinator side of HELLO: advertise our version; a peer
    replying with any other is refused."""
    reply = conn.request("HELLO", {"version": WIRE_VERSION}).expect("HELLO")
    check_version(reply.fields.get("version"))
    return reply


def connect(host: str, port: int, timeout: "float | None" = 10.0,
            ) -> tuple[Connection, Message]:
    """Open a handshaken connection to an agent; returns the connection
    and the agent's HELLO (pid, store root — useful for diagnostics)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as err:
        raise WireClosed(f"cannot reach agent at {host}:{port}: {err}") from err
    # The handshake timeout guards connect; after it, block normally —
    # jobs legitimately take longer than any handshake should.
    conn = Connection(sock)
    try:
        hello = client_handshake(conn)
    except WireError:
        conn.close()
        raise
    sock.settimeout(None)
    return conn, hello


# ---------------------------------------------------------------------------
# the client side: channels multiplexed on one connection
# ---------------------------------------------------------------------------

class ChannelMux:
    """Concurrent exchanges multiplexed on one connection.

    A background reader routes every incoming frame to the waiter that
    owns its ``channel``; any number of threads may :meth:`request`
    concurrently.

    An unsolicited, channel-less GOODBYE from the peer is a **clean
    retirement** (a drained SIGTERM shutdown): ``on_goodbye`` fires once
    and subsequent failures report the retirement instead of a crash.
    """

    def __init__(self, conn: Connection,
                 on_goodbye: "Callable[[], None] | None" = None) -> None:
        self._conn = conn
        self._on_goodbye = on_goodbye
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._waiters: "dict[int, queue.SimpleQueue]" = {}
        self._dead: "WireError | None" = None
        self.retired = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True,
                                        name="wire-mux-reader")
        self._reader.start()

    # -- exchanges ---------------------------------------------------------

    def request(self, type_: str, fields: "dict[str, Any] | None" = None,
                blob: bytes = b"") -> Message:
        """One channel-tagged round trip, safe to call from any thread."""
        channel = next(self._ids)
        waiter: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._dead is not None:
                raise self._dead
            self._waiters[channel] = waiter
        try:
            self._conn.send(type_, dict(fields or {}, channel=channel), blob)
            got = waiter.get()
        except WireError as err:
            if self.retired:
                raise WireClosed("peer retired (clean GOODBYE)") from err
            raise
        finally:
            with self._lock:
                self._waiters.pop(channel, None)
        if isinstance(got, BaseException):
            raise got
        return got

    def goodbye(self) -> None:
        """Tell the peer we are leaving cleanly (no reply expected)."""
        self._conn.send("GOODBYE")

    def close(self) -> None:
        self._conn.close()

    # -- plumbing ----------------------------------------------------------

    def _read_loop(self) -> None:
        failure: WireError
        try:
            while True:
                msg = self._conn.recv()
                if msg.type == "GOODBYE" and "channel" not in msg.fields:
                    self.retired = True
                    if self._on_goodbye is not None:
                        self._on_goodbye()
                    continue  # the peer closes next; recv turns that into WireClosed
                with self._lock:
                    waiter = self._waiters.get(msg.fields.get("channel"))
                if waiter is not None:
                    waiter.put(msg)
                # Unclaimed frames (a reply outliving its abandoned
                # waiter) are dropped: the waiter is gone, nobody cares.
        except WireError as err:
            failure = err if not self.retired else WireClosed(
                "peer retired (clean GOODBYE)")
        except Exception as err:  # pragma: no cover - defensive
            failure = WireError(f"mux reader died: {err}")
        with self._lock:
            self._dead = failure
            waiters, self._waiters = list(self._waiters.values()), {}
        for waiter in waiters:
            waiter.put(failure)


def open_link(host: str, port: int, timeout: "float | None" = 10.0,
              on_goodbye: "Callable[[], None] | None" = None,
              ) -> "tuple[ChannelMux, Message]":
    """Connect, handshake, and wrap the connection in a
    :class:`ChannelMux`; returns it with the peer's HELLO."""
    conn, hello = connect(host, port, timeout=timeout)
    return ChannelMux(conn, on_goodbye=on_goodbye), hello
