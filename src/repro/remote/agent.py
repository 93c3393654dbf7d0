"""The agent: one worker host of a sharded batch cluster.

An agent is a plain process — ``python -m repro agent --store DIR
--port P`` — that owns a :class:`repro.kernel.store.SnapshotStore` and
serves the wire protocol (:mod:`repro.remote.wire`) on a local socket,
on the same threaded :class:`~repro.remote.server.WireServer` the
gateway runs.  A "cluster" is just N of these; there is no membership
service, no shared state, and nothing to deploy beyond the Python tree
itself.

Per PREPARE, the agent obtains the named snapshot the cheapest way it
can — an already-restored in-memory template, its own store (the warm
path the benchmarks op-gate: **zero** world-build kernel ops, no bytes
over the wire), or, on a miss, a NEED that the coordinator answers once
by sending the PREPARE again with the snapshot bytes — and per SUBMIT
it forks that template and runs the job through
:func:`repro.api.executors.base.run_job`, the *same* single execution
path every local executor uses.  That sharing is the whole determinism
argument: an agent cannot diverge from ``SequentialExecutor`` without
``run_job`` itself diverging.  A job is the script in the SUBMIT
header: an agent unpickles nothing a peer sends in SUBMIT or PREPARE.
The only peer bytes it reads are snapshot bytes, which a PREPARE
carries through the digest check of
:meth:`~repro.remote.server.WireServer._pull`.

On startup the agent prints one machine-readable line::

    AGENT LISTENING host=127.0.0.1 port=43215 store=/path/to/store

so callers that spawn agents with ``--port 0`` (tests, the CI smoke
step, :func:`spawn_local_agent`) can discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import traceback as _traceback
from pathlib import Path
from typing import TYPE_CHECKING

from repro.remote.server import WireServer
from repro.remote.wire import (
    WIRE_VERSION,
    Connection,
    Message,
    WireError,
    template_key,
)

if TYPE_CHECKING:
    from repro.api.executors.base import JobTemplate
    from repro.kernel.store import SnapshotStore

#: Exit status of a chaos-killed agent (see ``--chaos-exit-on``) —
#: distinct from error exits so tests can assert the death was the
#: scripted one.
CHAOS_EXIT_STATUS = 70


class AgentServer(WireServer):
    """The serving half of one agent process.

    ``store`` roots the agent's own snapshot store; ``host``/``port``
    bind the listener (port 0 picks an ephemeral port, reported by
    :attr:`address`).  ``chaos_exit_on`` is the fault-injection hook the
    host-death tests use: when a submitted script contains the marker
    string, the agent hard-exits *after* reading the SUBMIT frame and
    *before* replying — exactly the window where a coordinator has
    committed a job to a host it can no longer trust.
    """

    role = "agent"

    def __init__(self, store: "SnapshotStore | Path | str | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 chaos_exit_on: "str | None" = None) -> None:
        super().__init__(store, host, port)
        self.chaos_exit_on = chaos_exit_on
        # Restored kernels are shared across connections and job threads
        # (forks are what isolate jobs), so one restore serves every
        # coordinator that names the same snapshot.
        self._kernels: dict[str, object] = {}
        self._templates: dict[str, "JobTemplate"] = {}
        self._state_lock = threading.Lock()

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

    # -- PREPARE -----------------------------------------------------------

    def _handle_prepare(self, conn: Connection, msg: Message) -> None:
        """Materialise the named template and reply READY, or NEED when
        the snapshot must cross the wire (the PREPARE then comes again,
        carrying it)."""
        from repro.api.executors.base import JobTemplate
        from repro.kernel.kernel import KernelStats

        fields = msg.fields
        snapshot = fields["snapshot"]
        key = template_key(fields)
        with self._state_lock:
            cached = self._templates.get(key)
        if cached is not None:
            conn.send("READY", msg.echo({"source": "memory", "build_ops": {}}))
            return

        source = self._pull(conn, msg)
        if source is None:
            return
        with self._state_lock:
            kernel = self._kernels.get(snapshot)
            if kernel is None:
                kernel = self.store.restore(snapshot)
                self._kernels[snapshot] = kernel
            self._templates[key] = JobTemplate(
                kernel=kernel,
                scripts=tuple((n, s) for n, s in fields.get("scripts", [])),
                default_user=fields["default_user"],
                digest=None,
                token=("agent", key),
            )
        # The restored machine carries the op counters recorded when the
        # snapshot was taken; any surplus over the coordinator-reported
        # template counters is kernel work *this agent* performed to
        # boot — the number the warm-store benchmark gates at zero.
        build_ops = KernelStats.delta(fields.get("stats", {}),
                                      kernel.stats.snapshot())
        conn.send("READY", msg.echo({"source": source, "build_ops": build_ops}))

    # -- SUBMIT ------------------------------------------------------------

    def _handle_submit(self, conn: Connection, msg: Message) -> None:
        """Every SUBMIT runs on its own job thread (forks are what
        isolate jobs, so concurrent jobs on one template are safe)."""
        self._start_job(self._run_submit, conn, msg)

    def _run_submit(self, conn: Connection, msg: Message) -> None:
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
            # The job is its script, read from the header: nothing a
            # peer sends is unpickled here.
            job = ExecutorJob(index=index, name=name, source=source, user=user)
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
    server.retire_on_signals()  # clean shutdown: drain, GOODBYE, exit 0
    # Gateway registration happens *before* the readiness line: callers
    # waiting on "AGENT LISTENING" (spawn_local_agent, CI) may dispatch
    # through the gateway the moment they see it, so printing it first
    # would advertise a fleet member the gateway has never heard of.
    if args.announce:
        server.announce_to_gateway(args.announce)
    server.announce()
    server.serve_forever()
    return 0


def spawn_local_agent(store: "Path | str", *, host: str = "127.0.0.1",
                      port: int = 0,
                      chaos_exit_on: "str | None" = None,
                      announce: "str | None" = None,
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
    args = ["--store", str(store), "--host", host, "--port", str(port)]
    if chaos_exit_on:
        args += ["--chaos-exit-on", chaos_exit_on]
    if announce:
        args += ["--announce", announce]
    return _spawn("agent", "agent", args)


def _spawn(command: str, role: str, args: "list[str]",
           ) -> "tuple[subprocess.Popen, str]":
    """Run ``python -m repro <command> <args>`` with this ``src`` on
    ``PYTHONPATH`` and wait for its ``<ROLE> LISTENING`` readiness line;
    returns ``(process, "host:port")`` from the line's ``key=value``
    pairs.  A child that prints anything else first, or exits (EOF), is
    killed and reported with its exit status.  The rest of its stdout is
    read to EOF on a daemon thread named ``drain-<pid>``, so a chatty
    child never blocks on a full pipe, and the pipe is closed at EOF."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, "-m", "repro", command, *args],
                            env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if f"{role.upper()} LISTENING" not in line:
        proc.kill()
        proc.stdout.close()
        raise RuntimeError(f"{role} failed to start (exit {proc.wait()}): {line!r}")
    parts = dict(item.split("=", 1) for item in line.split()[2:])

    def drain() -> None:
        with proc.stdout:
            proc.stdout.read()

    threading.Thread(target=drain, name=f"drain-{proc.pid}", daemon=True).start()
    return proc, f"{parts['host']}:{parts['port']}"


if __name__ == "__main__":  # pragma: no cover - exercised via `-m repro agent`
    raise SystemExit(serve())
