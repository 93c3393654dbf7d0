"""The agent: one worker host of a sharded batch cluster.

An agent is a plain process — ``python -m repro agent --store DIR
--port P`` — that owns a :class:`repro.kernel.store.SnapshotStore` and
serves the wire protocol (:mod:`repro.remote.wire`) on a local socket.
A "cluster" is just N of these; there is no membership service, no
shared state, and nothing to deploy beyond the Python tree itself.

Per PREPARE, the agent obtains the named snapshot the cheapest way it
can — an already-restored in-memory template, its own store (the warm
path the benchmarks op-gate: **zero** world-build kernel ops, no bytes
over the wire), or a one-time BLOB transfer from the coordinator on a
miss — and per SUBMIT it forks that template and runs the job through
:func:`repro.api.executors.base.run_job`, the *same* single execution
path every local executor uses.  That sharing is the whole determinism
argument: an agent cannot diverge from ``SequentialExecutor`` without
``run_job`` itself diverging.

On startup the agent prints one machine-readable line::

    AGENT LISTENING host=127.0.0.1 port=43215 store=/path/to/store

so callers that spawn agents with ``--port 0`` (tests, the CI smoke
step, :func:`spawn_local_agent`) can discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.kernel.store import SnapshotStore
from repro.remote.wire import (
    WIRE_VERSION,
    BlobPull,
    Connection,
    Message,
    WireClosed,
    WireError,
    WireVersionError,
    negotiate_version,
    template_key,
)

if TYPE_CHECKING:
    from repro.api.executors.base import JobTemplate

#: Exit status of a chaos-killed agent (see ``--chaos-exit-on``) —
#: distinct from error exits so tests can assert the death was the
#: scripted one.
CHAOS_EXIT_STATUS = 70


class AgentServer:
    """The serving half of one agent process.

    ``store`` roots the agent's own snapshot store; ``host``/``port``
    bind the listener (port 0 picks an ephemeral port, reported by
    :attr:`address`).  ``chaos_exit_on`` is the fault-injection hook the
    host-death tests use: when a submitted script contains the marker
    string, the agent hard-exits *after* reading the SUBMIT frame and
    *before* replying — exactly the window where a coordinator has
    committed a job to a host it can no longer trust.
    """

    def __init__(self, store: "SnapshotStore | Path | str | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 chaos_exit_on: "str | None" = None) -> None:
        self.store = store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        self.chaos_exit_on = chaos_exit_on
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        # Restored kernels are shared across connections and job threads
        # (forks are what isolate jobs), so one restore serves every
        # coordinator that names the same snapshot.
        self._kernels: dict[str, object] = {}
        self._templates: dict[str, "JobTemplate"] = {}
        self._state_lock = threading.Lock()
        self._shutdown = threading.Event()
        # Retirement bookkeeping: live connections get a GOODBYE on
        # clean shutdown, and in-flight jobs are drained first.
        self._connections: "set[Connection]" = set()
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.retiring = False

    # -- serving -----------------------------------------------------------

    def announce(self, out=None) -> None:
        print(f"AGENT LISTENING host={self.address[0]} port={self.address[1]} "
              f"store={self.store.root}", file=out or sys.stdout, flush=True)

    def serve_forever(self) -> None:
        """Accept coordinators until :meth:`shutdown`; one reader thread
        per connection.  SUBMITs fan out to job threads (replies carry
        the request's channel id), so one agent runs N jobs concurrently
        on one connection."""
        while not self._shutdown.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            thread = threading.Thread(target=self._serve_connection,
                                      args=(Connection(sock),), daemon=True)
            thread.start()

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def retire(self, timeout: float = 30.0) -> None:
        """Clean shutdown (SIGTERM/SIGINT): stop taking new work, drain
        in-flight jobs, and send GOODBYE on every live connection so
        pools mark this host *retired* — drained, no health strike, no
        re-shard panic — rather than dead.  A crash skips all of this,
        which is exactly how the two become distinguishable."""
        self.retiring = True
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

    def announce_to_gateway(self, gateway: str, *, retries: int = 50,
                            delay: float = 0.2) -> None:
        """Register with a gateway (``--announce HOST:PORT``): one
        ANNOUNCE → WELCOME exchange on a short-lived connection; the
        gateway dials back on the advertised address.  Retries cover an
        agent and gateway racing to start (and an agent restarting
        before its gateway notices the old incarnation died)."""
        ghost, _, gport = gateway.rpartition(":")
        last: "Exception | None" = None
        for _ in range(retries):
            try:
                sock = socket.create_connection((ghost, int(gport)), timeout=5.0)
                conn = Connection(sock)
                try:
                    conn.request("ANNOUNCE", {
                        "host": self.address[0], "port": self.address[1],
                        "store": str(self.store.root), "pid": os.getpid(),
                        "version": WIRE_VERSION,
                    }).expect("WELCOME")
                finally:
                    conn.close()
                return
            except (WireError, OSError) as err:
                last = err
                time.sleep(delay)
        raise RuntimeError(f"cannot announce to gateway {gateway}: {last}")

    # -- one coordinator ---------------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        with self._conn_lock:
            self._connections.add(conn)
        try:
            hello = conn.recv().expect("HELLO")
            try:
                effective = negotiate_version(hello.fields.get("version"),
                                              hello.fields.get("min_version"))
            except WireVersionError as err:
                conn.send("ERROR", {"error": str(err)})
                return
            conn.send("HELLO", {"version": effective, "pid": os.getpid(),
                                "store": str(self.store.root)})
            while True:
                msg = conn.recv()
                if msg.type == "GOODBYE":
                    return
                if msg.type == "PREPARE":
                    # Inline in the reader: the peer holds its send gate
                    # for the whole NEED/BLOB exchange, so the next
                    # frames on the socket are the exchange's own.
                    with self._track_inflight():
                        self._handle_prepare(conn, msg)
                elif msg.type == "SUBMIT":
                    self._spawn_submit(conn, msg)
                else:
                    conn.send("ERROR", msg.echo(
                        {"error": f"unexpected {msg.type!r}"}))
                    return
        except WireClosed:
            return  # coordinator went away; nothing to clean up
        except Exception:
            try:
                conn.send("ERROR", {"error": _traceback.format_exc(limit=20)})
            except WireError:
                pass
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()

    @contextmanager
    def _track_inflight(self):
        with self._inflight_cv:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _spawn_submit(self, conn: Connection, msg: Message) -> None:
        """Run one SUBMIT on its own thread (forks are what isolate
        jobs, so concurrent jobs on one template are safe).
        The in-flight count is taken *before* the thread starts so a
        concurrent :meth:`retire` cannot observe a gap."""
        with self._inflight_cv:
            self._inflight += 1

        def run() -> None:
            try:
                self._handle_submit(conn, msg)
            except WireError:
                pass  # the reader owns connection teardown
            finally:
                with self._inflight_cv:
                    self._inflight -= 1
                    self._inflight_cv.notify_all()

        threading.Thread(target=run, daemon=True, name="agent-job").start()

    # -- PREPARE -----------------------------------------------------------

    def _handle_prepare(self, conn: Connection, msg: Message) -> "JobTemplate":
        """Materialise the named template; replies READY (or NEED → BLOB
        → READY when the snapshot must cross the wire)."""
        from repro.api.executors.base import JobTemplate
        from repro.kernel.kernel import KernelStats

        fields = msg.fields
        snapshot = fields["snapshot"]
        key = template_key(fields)
        with self._state_lock:
            cached = self._templates.get(key)
        if cached is not None:
            conn.send("READY", msg.echo({"source": "memory", "build_ops": {}}))
            return cached

        pull = BlobPull(self.store, snapshot)
        while (digest := pull.next_need()) is not None:
            conn.send("NEED", msg.echo({"snapshot": digest}))
            pull.accept(conn.recv())
        source = "wire" if pull.pulled else "store"

        with self._state_lock:
            kernel = self._kernels.get(snapshot)
            if kernel is None:
                kernel = self.store.restore(snapshot)
                self._kernels[snapshot] = kernel
            fixtures = pickle.loads(msg.blob) if msg.blob else {}
            template = JobTemplate(
                kernel=kernel,
                scripts=tuple((n, s) for n, s in fields.get("scripts", [])),
                default_user=fields["default_user"],
                fixtures=fixtures,
                install_shill=fields.get("install_shill", True),
                digest=None,
                token=("agent", key),
            )
            self._templates[key] = template
        # The restored machine carries the op counters recorded when the
        # snapshot was taken; any surplus over the coordinator-reported
        # template counters is kernel work *this agent* performed to
        # boot — the number the warm-store benchmark gates at zero.
        build_ops = KernelStats.delta(fields.get("stats", {}),
                                      kernel.stats.snapshot())
        conn.send("READY", msg.echo({"source": source, "build_ops": build_ops}))
        return template

    # -- SUBMIT ------------------------------------------------------------

    def _handle_submit(self, conn: Connection, msg: Message) -> None:
        from repro.api.executors.base import BatchExecutionError, ExecutorJob, run_job

        fields = msg.fields
        source = fields.get("source")
        if self.chaos_exit_on and source and self.chaos_exit_on in source:
            # Fault injection: die in the SUBMIT→RESULT window, taking
            # the whole process (and every connection on it) with us —
            # what a kernel panic or OOM kill looks like from the
            # coordinator's side.
            os._exit(CHAOS_EXIT_STATUS)
        # SUBMIT names its template: an agent holds many (several
        # worlds, several coordinators) and "whatever this connection
        # prepared last" would silently run jobs against the wrong
        # machine when an executor is reused across worlds.
        template = self._templates.get(fields.get("template", ""))
        if template is None:
            conn.send("ERROR", msg.echo(
                {"error": "SUBMIT names an unprepared template"}))
            return
        index, name, user = fields["index"], fields["name"], fields.get("user")
        try:
            # Unpickling the mapped fn is part of the job: a callable
            # the agent cannot import is a deterministic failure worth a
            # RESULT with attribution, not a dead connection.
            job = ExecutorJob(
                index=index, name=name, source=source, user=user,
                fn=pickle.loads(msg.blob) if fields.get("has_fn") else None,
            )
            result = run_job(template, job)
            conn.send("RESULT", msg.echo({"index": index, "status": "ok"}),
                      pickle.dumps(result))
        except BatchExecutionError as err:
            conn.send("RESULT", msg.echo({
                "index": index, "status": "error", "name": err.job_name,
                "user": err.user, "traceback": err.traceback_text,
            }))
        except Exception:
            conn.send("RESULT", msg.echo({
                "index": index, "status": "error", "name": name,
                "user": user, "traceback": _traceback.format_exc(),
            }))


def serve(argv: "list[str] | None" = None) -> int:
    """The ``python -m repro agent`` entrypoint."""
    parser = argparse.ArgumentParser(
        prog="repro agent",
        description="serve one worker host of a sharded batch cluster")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="snapshot store root (default: $REPRO_STORE, "
                             "else the user cache dir)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, reported on stdout)")
    parser.add_argument("--chaos-exit-on", default=None, metavar="MARKER",
                        help="fault-injection hook: hard-exit when a submitted "
                             "script contains MARKER (host-death tests)")
    parser.add_argument("--announce", default=None, metavar="HOST:PORT",
                        help="announce this agent to a `repro serve` gateway "
                             "(the gateway dials back; restart + re-announce "
                             "is how an agent rejoins a fleet)")
    args = parser.parse_args(argv)
    server = AgentServer(store=args.store, host=args.host, port=args.port,
                         chaos_exit_on=args.chaos_exit_on)

    def _retire(signum, frame):  # clean shutdown: drain, GOODBYE, exit 0
        server.retire()
        os._exit(0)

    signal.signal(signal.SIGTERM, _retire)
    signal.signal(signal.SIGINT, _retire)
    # Gateway registration happens *before* the readiness line: callers
    # waiting on "AGENT LISTENING" (spawn_local_agent, CI) may dispatch
    # through the gateway the moment they see it, so printing it first
    # would advertise a fleet member the gateway has never heard of.
    if args.announce:
        server.announce_to_gateway(args.announce)
    server.announce()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - SIGINT is handled above
        pass
    finally:
        server.shutdown()
    return 0


def spawn_local_agent(store: "Path | str", *, host: str = "127.0.0.1",
                      port: int = 0,
                      chaos_exit_on: "str | None" = None,
                      announce: "str | None" = None, timeout: float = 30.0,
                      ) -> "tuple[subprocess.Popen, str]":
    """Spawn one agent subprocess; returns ``(process, "host:port")``.

    The convenience wrapper tests, benchmarks and the CI smoke step
    share: it runs ``python -m repro agent --port 0`` with ``src`` on
    ``PYTHONPATH``, waits for the ``AGENT LISTENING`` line, and hands
    back the discovered address.  The caller owns the process
    (``proc.kill()`` when done — or mid-batch, if that is the test).
    Passing an explicit ``port`` re-binds a known address — how a
    "restarted" agent reclaims its old identity in rejoin tests.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "agent",
           "--store", str(store), "--host", host, "--port", str(port)]
    if chaos_exit_on:
        cmd += ["--chaos-exit-on", chaos_exit_on]
    if announce:
        cmd += ["--announce", announce]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    # The announce line is the readiness barrier; a crash-on-boot agent
    # hits EOF instead and is reported with its exit status.
    line = proc.stdout.readline()
    if "AGENT LISTENING" not in line:
        proc.kill()
        raise RuntimeError(f"agent failed to start (exit {proc.poll()}): {line!r}")
    parts = dict(item.split("=", 1) for item in line.split()[2:])
    # Drain stdout in the background so a chatty agent never blocks on a
    # full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, f"{parts['host']}:{parts['port']}"


if __name__ == "__main__":  # pragma: no cover - exercised via `-m repro agent`
    raise SystemExit(serve())
