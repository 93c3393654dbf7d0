"""The agent wire protocol: length-prefixed JSON headers + binary blobs.

One **frame** is::

    !II          header length, blob length (big-endian, 4 bytes each)
    header       UTF-8 JSON object; ``"type"`` names the message
    blob         raw bytes (snapshot blobs, pickled fixtures/results)

Everything structural (message type, job metadata, digests, op counts)
rides in the JSON header, so a frame is inspectable with nothing but a
socket dump; everything *opaque* (snapshot bytes, pickled
``RunResult``\\ s and fixture records) rides in the blob, so JSON never
sees bytes it cannot represent.  Frames are capped at
:data:`MAX_FRAME_BYTES` — a corrupt length prefix must fail fast, not
allocate gigabytes.  :func:`encode_frame`, :func:`frame_sizes` and
:func:`decode_frame` are the one codec: the sync :class:`Connection`
and the asyncio gateway both frame through them.

Every request carries a **channel id** (``"channel": N``) and the peer
echoes it on every frame of the reply, so N jobs can be in flight on
one connection at once and replies may arrive in any order::

    coordinator                               agent
    -----------                               -----
    HELLO {version, min_version}        ->
                                        <-    HELLO {version, pid, store}
    PREPARE {snapshot, scripts, ch}     ->
                                        <-    READY {source, build_ops, ch}
                                              … or NEED {snapshot, ch}, then:
    BLOB {snapshot, ch} + blob bytes    ->
                                        <-    READY {source: "wire", ch}
    SUBMIT {index, name, user, ch} [+fn]->    (N of these may interleave)
    SUBMIT {index, name, user, ch'}     ->
                                        <-    RESULT {status, ch'} + blob
                                        <-    RESULT {status, ch} + blob
    GOODBYE                             ->    (agent closes)
    (agent may also send GOODBYE first: a clean, drained shutdown)

Version negotiation happens once, in HELLO: the client sends the
highest version it speaks (:data:`WIRE_VERSION`) and the lowest it will
accept (:data:`MIN_WIRE_VERSION`); the server replies with the
*effective* version — ``min(yours, theirs)`` — and both sides speak
that.  A peer that answers with a version above ours, or that cannot
meet either side's floor, raises :class:`WireVersionError` (the agent
also refuses with an ERROR frame so mismatched coordinators get a
readable diagnostic instead of a codec explosion).

A PREPARE's NEED/BLOB exchange walks a snapshot's delta chain;
:class:`BlobPull` is that walk and its digest check, with the I/O left
to whoever drives it (the sync agent, the asyncio gateway).  On the
client side, :class:`ChannelMux` wraps a handshaken connection: a
background reader routes each reply to the waiter that owns its
channel, so any number of threads can :meth:`~ChannelMux.request`
concurrently; multi-frame conversations (:meth:`~ChannelMux.converse`)
briefly gate new sends while in-flight replies continue to drain.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import queue
import socket
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError
from repro.kernel.serialize import delta_base_digest, is_delta

if TYPE_CHECKING:
    from repro.kernel.store import SnapshotStore

#: Bumped whenever frames or the message vocabulary change incompatibly.
#: Version 2 added channel-tagged frames (concurrent jobs on one
#: connection); both ends negotiate down to the highest version both
#: speak, and refuse to talk below :data:`MIN_WIRE_VERSION`.
WIRE_VERSION = 2

#: The oldest version this end still speaks.  Every peer lives in this
#: tree, so the floor is the current version: a v1 (channel-less) peer
#: is refused with a readable :class:`WireVersionError`.
MIN_WIRE_VERSION = 2

#: Hard cap on one frame (header + blob).  Snapshot blobs are hundreds
#: of KiB; 256 MiB is comfortably above any real machine image while
#: still failing fast on a corrupt length prefix.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEAD = struct.Struct("!II")

#: Size of the fixed frame prefix (header length, blob length).
HEAD_BYTES = _HEAD.size


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


def frame_sizes(head: bytes) -> tuple[int, int]:
    """The (header, blob) lengths a :data:`HEAD_BYTES` prefix announces;
    a total above :data:`MAX_FRAME_BYTES` fails before anything is read."""
    header_len, blob_len = _HEAD.unpack(head)
    if header_len + blob_len > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {header_len + blob_len} bytes "
                        "(corrupt length prefix?)")
    return header_len, blob_len


def decode_frame(payload: bytes, blob: bytes) -> "Message":
    """The :class:`Message` a frame's header and blob bytes carry."""
    try:
        header = json.loads(payload.decode())
        type_ = header.pop("type")
    except (ValueError, KeyError) as err:
        raise WireError(f"bad frame header: {err}") from err
    return Message(type_, header, blob)


def template_key(prepare: "dict[str, Any]") -> str:
    """The protocol-level identity of the template a PREPARE's fields
    describe.

    Every end computes it from the same PREPARE ingredients — snapshot
    digest, script registry, default user, install flag — so a SUBMIT
    can name exactly which template it runs against.  An agent may hold
    many templates at once (one coordinator sweeping many worlds, or
    many coordinators); without this key in SUBMIT, a reused connection
    would silently run jobs against whichever template was prepared
    *last*.
    """
    basis = json.dumps(
        [prepare["snapshot"], [list(pair) for pair in prepare.get("scripts", [])],
         prepare["default_user"], bool(prepare.get("install_shill", True))],
        sort_keys=True)
    return hashlib.sha256(basis.encode()).hexdigest()


class WireError(ReproError):
    """The conversation broke: bad frame, unexpected message, dead peer."""


class WireClosed(WireError):
    """The peer closed the connection (cleanly or mid-frame)."""


class WireVersionError(WireError):
    """The two ends speak different :data:`WIRE_VERSION`\\ s."""


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
        reports."""
        if self.type == "ERROR" and "ERROR" not in types:
            raise WireError(f"peer reported: {self.fields.get('error', 'unknown')}")
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
        head = self._read_exact(HEAD_BYTES, eof_ok=True)
        if head is None:
            raise WireClosed("connection closed")
        header_len, blob_len = frame_sizes(head)
        payload = self._read_exact(header_len)
        blob = self._read_exact(blob_len) if blob_len else b""
        return decode_frame(payload, blob)

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


def negotiate_version(peer_version: Any, peer_min: Any = None) -> int:
    """The server side of version negotiation: the effective version for
    a peer advertising ``peer_version`` (and optionally the floor it
    will accept).  Raises :class:`WireVersionError` when no version
    satisfies both ends — a peer that advertises no floor requires
    exactly its own version or below."""
    try:
        advertised = int(peer_version)
    except (TypeError, ValueError):
        raise WireVersionError(f"peer advertised no usable wire version "
                               f"({peer_version!r})") from None
    floor = advertised if peer_min is None else int(peer_min)
    effective = min(WIRE_VERSION, advertised)
    if effective < max(MIN_WIRE_VERSION, floor):
        raise WireVersionError(
            f"no common wire version: peer speaks {advertised} "
            f"(floor {floor}), we speak {WIRE_VERSION} "
            f"(floor {MIN_WIRE_VERSION}); restart the older side")
    return effective


def client_handshake(conn: Connection) -> Message:
    """The coordinator side of HELLO: advertise the version range we
    speak; the peer replies with the effective (negotiated) version.

    A peer replying outside our range — a v1 peer echoing ``1``, or one
    *above* our version that ignored negotiation — is refused.
    """
    reply = conn.request("HELLO", {"version": WIRE_VERSION,
                                   "min_version": MIN_WIRE_VERSION}).expect("HELLO")
    peer = reply.fields.get("version")
    if not isinstance(peer, int) or peer > WIRE_VERSION or peer < MIN_WIRE_VERSION:
        raise WireVersionError(
            f"agent speaks wire version {peer}, we speak "
            f"{MIN_WIRE_VERSION}..{WIRE_VERSION} (restart the older side)")
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
# PREPARE's blob pull, without the I/O
# ---------------------------------------------------------------------------

class BlobPull:
    """The NEED/BLOB walk of one PREPARE: which blobs of ``snapshot``'s
    delta chain the ``store`` misses, and the check that each BLOB
    carries the digest asked for.  It does no wire I/O; the caller
    drives it::

        pull = BlobPull(store, snapshot)
        while (digest := pull.next_need()) is not None:
            ...send NEED {snapshot: digest}, read the reply...
            pull.accept(reply)

    ``pulled`` says whether any blob crossed the wire (a READY's
    ``source`` is then ``"wire"``).
    """

    def __init__(self, store: "SnapshotStore", snapshot: str) -> None:
        self.store = store
        self.pulled = False
        self._digest = snapshot
        self._payload = store.get(snapshot)

    def next_need(self) -> "str | None":
        """The next digest to NEED, or ``None`` once the store holds the
        whole chain (a delta restores against its bases, so every link
        must be local before restore)."""
        while self._payload is not None:
            if not is_delta(self._payload):
                return None
            self._digest = delta_base_digest(self._payload)
            self._payload = self.store.get(self._digest)
        return self._digest

    def accept(self, reply: Message) -> None:
        """Store the BLOB answering the last NEED.  The export frame's
        digest is verified before the bytes are trusted, and it must be
        exactly the blob the NEED named."""
        imported = self.store.import_blob(reply.expect("BLOB").blob)
        if imported != self._digest:
            raise WireError(f"BLOB carried {imported[:12]}…, "
                            f"NEED named {self._digest[:12]}…")
        self.pulled = True
        self._payload = self.store.load(imported)


# ---------------------------------------------------------------------------
# the client side: channels multiplexed on one connection
# ---------------------------------------------------------------------------

class _Conversation:
    """One multi-frame exchange (PREPARE … NEED/BLOB … READY) on one
    channel; the owning :class:`ChannelMux` holds its send gate for the
    conversation's duration."""

    def __init__(self, mux: "ChannelMux", channel: int,
                 waiter: "queue.SimpleQueue") -> None:
        self._mux = mux
        self._channel = channel
        self._waiter = waiter

    def request(self, type_: str, fields: "dict[str, Any] | None" = None,
                blob: bytes = b"") -> Message:
        self._mux._send_on(self._channel, type_, fields, blob)
        return self._mux._take(self._waiter)


class ChannelMux:
    """Concurrent exchanges multiplexed on one connection.

    A background reader routes every incoming frame to the waiter that
    owns its ``channel``; any number of threads may :meth:`request`
    concurrently.  :meth:`converse` runs a multi-frame exchange
    (PREPARE's NEED/BLOB loop): it holds the *send* gate — no new
    requests start while a conversation is mid-flight, so the peer can
    service the exchange inline — but replies to already-sent requests
    keep draining through the reader throughout.

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
        self._send_gate = threading.RLock()
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
        channel, waiter = self._open_channel()
        try:
            with self._send_gate:
                self._send_on(channel, type_, fields, blob)
            return self._take(waiter)
        finally:
            self._close_channel(channel)

    @contextmanager
    def converse(self):
        """A multi-frame exchange on one channel, exclusive on the send
        side for its duration (in-flight replies still drain)."""
        channel, waiter = self._open_channel()
        try:
            with self._send_gate:
                yield _Conversation(self, channel, waiter)
        finally:
            self._close_channel(channel)

    def goodbye(self) -> None:
        """Tell the peer we are leaving cleanly (no reply expected)."""
        with self._send_gate:
            self._conn.send("GOODBYE")

    def close(self) -> None:
        self._conn.close()

    # -- plumbing ----------------------------------------------------------

    def _open_channel(self) -> "tuple[int, queue.SimpleQueue]":
        channel = next(self._ids)
        waiter: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._dead is not None:
                raise self._dead
            self._waiters[channel] = waiter
        return channel, waiter

    def _close_channel(self, channel: int) -> None:
        with self._lock:
            self._waiters.pop(channel, None)

    def _send_on(self, channel: int, type_: str,
                 fields: "dict[str, Any] | None", blob: bytes) -> None:
        tagged = dict(fields or {})
        tagged["channel"] = channel
        try:
            self._conn.send(type_, tagged, blob)
        except WireError as err:
            if self.retired:
                raise WireClosed("peer retired (clean GOODBYE)") from err
            raise

    def _take(self, waiter: "queue.SimpleQueue") -> Message:
        got = waiter.get()
        if isinstance(got, BaseException):
            raise got
        return got

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
