"""The serving half of the wire protocol, shared by agents and the gateway.

:class:`WireServer` is what every end that *answers* the protocol
(:mod:`repro.remote.wire`) does, whatever it serves: one listener, one
reader thread per connection, the HELLO version check, PREPARE run
inline on the reader with its NEED reply and snapshot check, SUBMITs on
job threads with an in-flight count, and a drain-then-GOODBYE
:meth:`~WireServer.retire`.
Its two subclasses supply only what differs:

* :class:`repro.remote.agent.AgentServer` restores each PREPAREd
  template and runs every SUBMIT on a job thread through
  :func:`repro.api.executors.base.run_job`;
* :class:`repro.serve.gateway.Gateway` keeps each PREPARE for relaying,
  answers cache hits and admission refusals on the reader thread,
  relays admitted SUBMITs to its agent fleet on job threads, and takes
  an agent's first-frame ANNOUNCE.

One concurrency model serves both: blocking sockets and threads.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import sys
import threading
import traceback as _traceback
from pathlib import Path
from typing import Callable

from repro.kernel.store import SnapshotStore
from repro.remote.wire import (
    WIRE_VERSION,
    Connection,
    Message,
    WireClosed,
    WireError,
    WireVersionError,
    check_version,
)


class WireServer:
    """One listening end of the wire protocol.

    ``store`` roots the server's snapshot store; ``host``/``port`` bind
    the listener (port 0 picks an ephemeral port, reported by
    :attr:`address`).  Subclasses implement :meth:`_handle_prepare` and
    :meth:`_handle_submit`, and may take a first-frame ANNOUNCE in
    :meth:`_handle_announce`.
    """

    #: Names the server in its readiness line and its job threads.
    role = "server"

    def __init__(self, store: "SnapshotStore | Path | str | None" = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.store = store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        # Retirement bookkeeping: live connections get a GOODBYE on
        # clean shutdown, and in-flight work is drained first.
        self._connections: "set[Connection]" = set()
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        # One blob import at a time: two threads writing one blob race
        # on the store's per-process temp file.
        self._import_lock = threading.Lock()

    # -- serving -----------------------------------------------------------

    def announce(self, out=None) -> None:
        """Print the machine-readable readiness line callers wait for."""
        print(f"{self.role.upper()} LISTENING host={self.address[0]} "
              f"port={self.address[1]} store={self.store.root}",
              file=out or sys.stdout, flush=True)

    def serve_forever(self) -> None:
        """Accept peers until :meth:`shutdown`; one reader thread per
        connection."""
        while not self._shutdown.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener shut down
            thread = threading.Thread(target=self._serve_connection,
                                      args=(Connection(sock),), daemon=True)
            thread.start()

    def shutdown(self) -> None:
        """Stop accepting and return :meth:`serve_forever`.  Closing a
        listening socket does not wake a thread blocked in ``accept()``;
        shutting it down does."""
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()

    def retire(self, timeout: float = 30.0) -> None:
        """Clean shutdown (SIGTERM/SIGINT): drain in-flight work, then
        send GOODBYE on every live connection so pools mark this end
        *retired* — drained, no health strike, no re-shard panic —
        rather than dead.  A crash skips all of this, which is exactly
        how the two become distinguishable."""
        with self._inflight_cv:
            self._inflight_cv.wait_for(lambda: self._inflight == 0,
                                       timeout=timeout)
        with self._conn_lock:
            conns = list(self._connections)
        for conn in conns:
            try:
                conn.send("GOODBYE", {"reason": "retiring", "pid": os.getpid()})
            except WireError:
                pass
        self.shutdown()

    def retire_on_signals(self) -> None:
        """Make SIGTERM and SIGINT :meth:`retire` this server and exit 0
        (the ``repro agent`` and ``repro serve`` entrypoints; call from
        the main thread, the one that runs :meth:`serve_forever`)."""
        def _retire(signum, frame):
            self.retire()
            os._exit(0)

        signal.signal(signal.SIGTERM, _retire)
        signal.signal(signal.SIGINT, _retire)

    # -- one peer ----------------------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        with self._conn_lock:
            self._connections.add(conn)
        try:
            first = conn.recv()
            if first.type == "ANNOUNCE":
                self._handle_announce(conn, first)
                return
            hello = first.expect("HELLO")
            try:
                check_version(hello.fields.get("version"))
            except WireVersionError as err:
                conn.send("ERROR", {"error": str(err)})
                return
            conn.send("HELLO", {"version": WIRE_VERSION, "pid": os.getpid(),
                                "store": str(self.store.root)})
            while True:
                msg = conn.recv()
                if msg.type == "GOODBYE":
                    return
                if msg.type == "PREPARE":
                    # Inline in the reader: a SUBMIT read after it on
                    # this connection finds its template in place.
                    self._enter()
                    try:
                        self._handle_prepare(conn, msg)
                    except WireClosed:
                        raise
                    except Exception as err:
                        # This request failed, not the connection: its
                        # job fails, and no caller strikes this end.
                        conn.send("ERROR", msg.echo(
                            {"error": f"{type(err).__name__}: {err}"}))
                    finally:
                        self._leave()
                elif msg.type == "SUBMIT":
                    self._handle_submit(conn, msg)
                else:
                    conn.send("ERROR", msg.echo(
                        {"error": f"unexpected {msg.type!r}"}))
                    return
        except WireClosed:
            return  # the peer went away; nothing to clean up
        except Exception:
            try:
                conn.send("ERROR", {"error": _traceback.format_exc(limit=20)})
            except WireError:
                pass
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()

    def _handle_announce(self, conn: Connection, msg: Message) -> None:
        """A first-frame ANNOUNCE: an agent asking to join a fleet.
        Only a gateway keeps one."""
        raise WireError("unexpected 'ANNOUNCE': this end keeps no fleet")

    def _handle_prepare(self, conn: Connection, msg: Message) -> None:
        """Materialise the template one PREPARE names and reply READY,
        or NEED when :meth:`_pull` finds no snapshot to build it from."""
        raise NotImplementedError

    def _handle_submit(self, conn: Connection, msg: Message) -> None:
        """Answer one SUBMIT.  Runs on the connection's reader thread:
        a reply that takes real work goes through :meth:`_start_job`."""
        raise NotImplementedError

    # -- helpers for subclasses --------------------------------------------

    def _pull(self, conn: Connection, msg: Message) -> "str | None":
        """Where a PREPARE's snapshot comes from: ``"wire"`` when its
        bytes rode this PREPARE, stored only if they hash to the digest
        it names; ``"store"`` when the store already holds it; ``None``
        after answering NEED, for the caller to send the PREPARE again
        with the bytes."""
        snapshot = msg.fields["snapshot"]
        if msg.blob:
            carried = hashlib.sha256(msg.blob).hexdigest()
            if carried != snapshot:
                raise WireError(f"snapshot bytes hash to {carried[:12]}…, "
                                f"the PREPARE names {snapshot[:12]}…")
            with self._import_lock:
                self.store.put(msg.blob)
            return "wire"
        # A get, not a has: a store hit refreshes the blob's LRU
        # position and counts in the store's stats.
        if self.store.get(snapshot) is not None:
            return "store"
        conn.send("NEED", msg.echo({"snapshot": snapshot}))
        return None

    def _start_job(self, work: "Callable[[Connection, Message], None]",
                   conn: Connection, msg: Message) -> None:
        """Run ``work(conn, msg)`` on a job thread of its own, counted in
        flight from *before* the thread starts so a concurrent
        :meth:`retire` cannot observe a gap."""
        self._enter()

        def run() -> None:
            try:
                work(conn, msg)
            except WireError:
                pass  # the reader owns connection teardown
            finally:
                self._leave()

        threading.Thread(target=run, daemon=True,
                         name=f"{self.role}-job").start()

    def _enter(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _leave(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()
