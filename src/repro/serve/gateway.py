"""The gateway: one long-lived front door over a dynamic agent fleet.

``python -m repro serve`` starts an asyncio server that speaks the
agent wire protocol (:mod:`repro.remote.wire`) on both faces:

* **southbound**, it is a coordinator: it owns a
  :class:`~repro.remote.hostpool.HostPool` of agents and relays each
  SUBMIT through the pool's failover loop
  (:meth:`~repro.remote.hostpool.HostPool.dispatch`, the same one
  :class:`~repro.api.executors.remote.RemoteExecutor` runs), which
  scores agents with a :class:`~repro.api.scheduling.SchedulingPolicy`
  and PREPAREs each from the gateway's snapshot store over ordinary
  sync links (a thread pool keeps the event loop unblocked);
* **northbound**, it *is* an agent, as far as any client can tell: it
  answers HELLO with version negotiation, services PREPARE (pulling
  missed blobs — delta chains included — into its own store exactly
  like an agent would), and replies RESULT frames channel-tagged, so
  :class:`~repro.api.executors.serve.ServeExecutor` is just a
  :class:`~repro.api.executors.remote.RemoteExecutor` pointed at one
  very large host.

What the gateway adds over a static fleet:

* **dynamic membership** — agents dial in with one ``ANNOUNCE`` frame
  (``python -m repro agent --announce HOST:PORT``) and the gateway
  dials back; a known address re-announcing is a *rejoin* (restarted
  agents kept their stores, so the re-PREPARE is warm), and before
  declaring "no live agents" the gateway re-dials its dead ones;
* **admission control** — every SUBMIT passes the
  :class:`~repro.serve.admission.AdmissionController` (per-user token
  buckets + a global pending bound); refusals are typed ``BUSY
  {retry_after}`` frames, never silent drops;
* **a request log** — one JSON line per admission/dispatch/health
  event (``--request-log``), which is also how tests assert that a
  mid-batch agent restart really was survived.

Failure taxonomy, preserved end to end: an agent *crash* strikes the
host and the job retries on the survivors; a clean agent GOODBYE
retires the host without a strike; a *deterministic* job failure comes
back as ``RESULT {status: "error"}`` with the agent's attribution and
is never retried; fleet exhaustion, or any other failure to relay (a
policy that raises), is reported the same way — the gateway never
answers a SUBMIT with a connection-killing ERROR frame, nor with
silence.

On startup the gateway prints one machine-readable line::

    GATEWAY LISTENING host=127.0.0.1 port=44501 store=/path/to/store

so callers that spawn it with ``--port 0`` (tests, CI,
:func:`repro.serve.client.spawn_local_gateway`) can discover the port.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import os
import signal
import sys
import threading
import time
import traceback as _traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.kernel.store import SnapshotStore
from repro.remote.hostpool import HostPool, HostsExhausted, HostSpec, WireTemplate
from repro.remote.wire import (
    HEAD_BYTES,
    BlobPull,
    Message,
    WireClosed,
    WireError,
    WireVersionError,
    decode_frame,
    encode_frame,
    frame_sizes,
    negotiate_version,
    template_key,
)

#: Threads that run agent dispatch on sync links; the pool's per-host
#: slots, not this width, enforce the per-agent concurrency cap.
DISPATCH_WORKERS = 16


class Gateway:
    """The serving half of one ``repro serve`` process.

    ``store`` roots the gateway's own snapshot store (templates land
    here once per client and fan out to agents from it); ``hosts``
    seeds the fleet with static agent addresses (usually empty — agents
    announce themselves); ``policy`` is a
    :class:`~repro.api.scheduling.SchedulingPolicy` object;
    ``concurrency`` caps jobs in flight *per agent*; ``rate`` /
    ``burst`` / ``max_pending`` configure admission control
    (:class:`~repro.serve.admission.AdmissionController`);
    ``request_log`` appends one JSON line per gateway event to a file;
    ``result_cache`` bounds the per-user result cache (entries; 0
    disables it).
    """

    def __init__(self, store: "SnapshotStore | Path | str | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 hosts: "tuple | list" = (),
                 policy: Any = None,
                 concurrency: int = 4,
                 rate: "float | None" = None,
                 burst: "float | None" = None,
                 max_pending: int = 256,
                 request_log: "Path | str | None" = None,
                 result_cache: int = 1024) -> None:
        from repro.api.caching import BoundedCache
        from repro.serve.admission import AdmissionController

        self.store = store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        self._bind = (host, port)
        self.address: "tuple[str, int] | None" = None
        self.pool = HostPool(hosts, policy=policy, allow_empty=True,
                             concurrency=concurrency)
        self.admission = AdmissionController(rate=rate, burst=burst,
                                             max_pending=max_pending)
        #: wire template key -> the PREPARE fields and fixtures blob
        #: exactly as a client shipped them — relayed verbatim to agents
        #: that miss, so both hops compute the same template identity.
        self._templates: "dict[str, WireTemplate]" = {}
        self._templates_lock = threading.Lock()
        self._dispatch = ThreadPoolExecutor(max_workers=DISPATCH_WORKERS,
                                            thread_name_prefix="gateway-dispatch")
        # The per-user result cache: (requester, template, user, source)
        # -> the RESULT frame verbatim.  Jobs on one template are
        # deterministic, so a repeat SUBMIT answers from here without
        # admission control, dispatch, or a single agent kernel op.
        self._result_cache = (BoundedCache(result_cache, lru=True)
                              if result_cache > 0 else None)
        # The request log: a bounded in-memory tail (diagnostics, tests)
        # plus an optional append-only JSONL file.
        self.events: "collections.deque[dict]" = collections.deque(maxlen=10_000)
        self._log_path = Path(request_log) if request_log else None
        self._log_lock = threading.Lock()
        self._tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ---------------------------------------------------------

    def announce(self, out=None) -> None:
        assert self.address is not None, "announce() before start()"
        print(f"GATEWAY LISTENING host={self.address[0]} "
              f"port={self.address[1]} store={self.store.root}",
              file=out or sys.stdout, flush=True)

    async def start(self) -> "asyncio.base_events.Server":
        server = await asyncio.start_server(self._handle_conn, *self._bind)
        self.address = server.sockets[0].getsockname()[:2]
        self._log("listening", host=self.address[0], port=self.address[1],
                  store=str(self.store.root))
        return server

    async def run(self) -> None:
        """Start, announce, and serve until SIGTERM/SIGINT."""
        server = await self.start()
        self.announce()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        try:
            await stop.wait()
        finally:
            self._log("stopping", pid=os.getpid())
            server.close()
            await server.wait_closed()
            self.close()

    def close(self) -> None:
        self._dispatch.shutdown(wait=False)
        self.pool.close_all()

    # -- frames over asyncio streams ---------------------------------------

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> "Message | None":
        """One frame, or ``None`` when the peer went away (cleanly or
        not — a gone client needs cleanup either way)."""
        try:
            header_len, blob_len = frame_sizes(
                await reader.readexactly(HEAD_BYTES))
            payload = await reader.readexactly(header_len)
            blob = await reader.readexactly(blob_len) if blob_len else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return decode_frame(payload, blob)

    class _Session:
        """One client connection's write side: a framed, drain-serialised
        sender shared by the session loop and its SUBMIT tasks."""

        def __init__(self, writer: asyncio.StreamWriter) -> None:
            self.writer = writer
            self.lock = asyncio.Lock()

        async def send(self, type_: str, fields: "dict | None" = None,
                       blob: bytes = b"") -> None:
            frame = encode_frame(type_, fields, blob)
            async with self.lock:
                self.writer.write(frame)
                await self.writer.drain()

    # -- connections -------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        session = self._Session(writer)
        try:
            first = await self._read_frame(reader)
            if first is None:
                return
            if first.type == "ANNOUNCE":
                await self._handle_announce(session, first)
            elif first.type == "HELLO":
                await self._client_loop(session, reader, first)
            else:
                await session.send("ERROR", {
                    "error": f"expected HELLO or ANNOUNCE, got {first.type!r}"})
        except (WireError, OSError):
            pass  # a half-broken peer gets dropped, not a traceback
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover
                pass

    async def _handle_announce(self, session: "Gateway._Session",
                               msg: Message) -> None:
        """An agent dialed in to join the fleet; the gateway dials back
        on the advertised address when jobs need it."""
        spec = HostSpec(str(msg.fields["host"]), int(msg.fields["port"]))
        rejoin = any(h.spec == spec for h in self.pool.hosts)
        self.pool.add_host(spec)
        self._log("rejoin" if rejoin else "announce", host=str(spec),
                  pid=msg.fields.get("pid"), store=msg.fields.get("store"))
        await session.send("WELCOME", {"pid": os.getpid(),
                                       "fleet": len(self.pool)})

    # -- one client --------------------------------------------------------

    async def _client_loop(self, session: "Gateway._Session",
                           reader: asyncio.StreamReader,
                           hello: Message) -> None:
        try:
            effective = negotiate_version(hello.fields.get("version"),
                                          hello.fields.get("min_version"))
        except WireVersionError as err:
            await session.send("ERROR", {"error": str(err)})
            return
        await session.send("HELLO", {"version": effective, "pid": os.getpid(),
                                     "store": str(self.store.root)})
        while True:
            msg = await self._read_frame(reader)
            if msg is None or msg.type == "GOODBYE":
                return
            if msg.type == "PREPARE":
                # Inline: the client holds its send gate for the whole
                # NEED/BLOB exchange, so the next frames on this socket
                # are the exchange's own (RESULT writes still interleave
                # safely — the session lock serialises the write side).
                await self._handle_prepare(session, reader, msg)
            elif msg.type == "SUBMIT":
                task = asyncio.ensure_future(
                    self._handle_submit(session, msg))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            else:
                await session.send("ERROR", msg.echo(
                    {"error": f"unexpected {msg.type!r}"}))
                return

    async def _handle_prepare(self, session: "Gateway._Session",
                              reader: asyncio.StreamReader,
                              msg: Message) -> None:
        """Take custody of one template: pull every blob our store
        misses (the delta chain included, exactly like an agent), keep
        the PREPARE ingredients for relaying, reply READY."""
        fields = msg.fields
        snapshot = fields["snapshot"]
        wire_key = template_key(fields)
        with self._templates_lock:
            known = wire_key in self._templates
        pull = BlobPull(self.store, snapshot)
        while (digest := pull.next_need()) is not None:
            await session.send("NEED", msg.echo({"snapshot": digest}))
            reply = await self._read_frame(reader)
            if reply is None:
                raise WireClosed("client vanished mid-PREPARE")
            pull.accept(reply)
        source = "wire" if pull.pulled else "memory" if known else "store"
        relay = {k: v for k, v in fields.items() if k != "channel"}
        with self._templates_lock:
            self._templates[wire_key] = WireTemplate(wire_key, relay, msg.blob,
                                                     self.store)
        self._log("template", key=wire_key[:16], snapshot=snapshot[:16],
                  source=source)
        # build_ops is empty by construction: the gateway relays, it
        # never boots a kernel — agents report their own boot work.
        await session.send("READY", msg.echo(
            {"source": source, "build_ops": {}}))

    # -- SUBMIT: admission, then relay -------------------------------------

    async def _handle_submit(self, session: "Gateway._Session",
                             msg: Message) -> None:
        fields = msg.fields
        user = fields.get("requester") or fields.get("user") or "anonymous"
        cached = self._cache_lookup(fields)
        if cached is not None:
            # A cache hit is exempt from admission control: it consumes
            # no agent slot and no dispatch worker, so throttling it
            # would only turn free answers into BUSY frames.
            reply_fields, blob = cached
            reply_fields = dict(reply_fields)
            reply_fields["index"] = fields.get("index")
            self._log("cache_hit", user=user, name=fields.get("name"),
                      verdict="hit",
                      template=str(fields.get("template", ""))[:16])
            await self._safe_send(session, "RESULT",
                                  msg.echo(reply_fields), blob)
            return
        wait = self.admission.admit(user)
        if wait is not None:
            self._log("busy", user=user, name=fields.get("name"),
                      retry_after=round(wait, 4),
                      pending=self.admission.pending)
            await self._safe_send(session, "BUSY", msg.echo(
                {"retry_after": round(wait, 4)}))
            return
        try:
            loop = asyncio.get_running_loop()
            reply_fields, blob = await loop.run_in_executor(
                self._dispatch, self._dispatch_job, dict(fields), msg.blob)
        finally:
            self.admission.release()
        self._cache_store(fields, reply_fields, blob)
        await self._safe_send(session, "RESULT", msg.echo(reply_fields),
                              blob)

    def _cache_key(self, fields: dict) -> "tuple | None":
        """Per-user cache key, or None for uncacheable SUBMITs: callable
        jobs (their pickled fn is opaque) and sourceless frames."""
        if (self._result_cache is None or fields.get("has_fn")
                or fields.get("source") is None):
            return None
        return (fields.get("requester") or fields.get("user") or "anonymous",
                fields.get("template", ""), fields.get("user"),
                fields.get("source"))

    def _cache_lookup(self, fields: dict) -> "tuple[dict, bytes] | None":
        key = self._cache_key(fields)
        return self._result_cache.get(key) if key is not None else None

    def _cache_store(self, fields: dict, reply_fields: dict,
                     blob: bytes) -> None:
        """Keep a successful RESULT for replay; errors (crashed fleets,
        unknown templates) must re-dispatch, never replay."""
        key = self._cache_key(fields)
        if key is None or reply_fields.get("status") == "error":
            return
        self._result_cache.put(key, (dict(reply_fields), blob))

    async def _safe_send(self, session: "Gateway._Session", type_: str,
                         fields: dict, blob: bytes = b"") -> None:
        """A reply to a client that may already be gone — which is its
        problem, not the fleet's; the job result is simply dropped."""
        try:
            await session.send(type_, fields, blob)
        except (OSError, ConnectionError, RuntimeError):
            self._log("client_gone", name=fields.get("name"))

    def _dispatch_job(self, fields: dict, blob: bytes
                      ) -> "tuple[dict, bytes]":
        """Relay one SUBMIT to an agent through the pool's failover loop
        (sync; runs on the dispatch pool).  Every way the relay can
        fail — an unknown template, an exhausted fleet, an exception
        anywhere in dispatch, a raising policy included — comes back as
        an error RESULT: a client is never left waiting on a reply that
        will not come, and its connection is never killed."""
        from repro.api.executors.base import ExecutorJob

        try:
            with self._templates_lock:
                template = self._templates.get(fields.get("template", ""))
            if template is None:
                return self._error(fields, "gateway: SUBMIT names a template "
                                           "no client has PREPAREd here "
                                           "(gateway restarted? re-open the "
                                           "executor)")
            relay = {k: v for k, v in fields.items()
                     if k not in ("channel", "requester")}
            # Policies score the same job type on every path; the gateway
            # never unpickles a client's callable, so ``fn`` stays None.
            job = ExecutorJob(index=fields.get("index"), name=fields.get("name"),
                              source=fields.get("source"),
                              user=fields.get("user"))
            reply = self.pool.dispatch(template, relay, blob, job=job,
                                       log=self._log)
        except HostsExhausted as err:
            self._log("exhausted", name=fields.get("name"), tried=err.tried)
            return self._error(fields, f"gateway: no live agents left "
                                       f"({err.detail})")
        except Exception:
            return self._error(fields, _traceback.format_exc())
        return {k: v for k, v in reply.fields.items() if k != "channel"}, reply.blob

    @staticmethod
    def _error(fields: dict, traceback_text: str) -> "tuple[dict, bytes]":
        """The error-RESULT envelope for a SUBMIT the gateway could not
        get run."""
        return {"index": fields.get("index"), "status": "error",
                "name": fields.get("name"), "user": fields.get("user"),
                "traceback": traceback_text}, b""

    # -- the request log ---------------------------------------------------

    def _log(self, event: str, **fields: Any) -> None:
        record = {"ts": round(time.time(), 3), "event": event, **fields}
        with self._log_lock:
            self.events.append(record)
            if self._log_path is not None:
                with self._log_path.open("a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")

    def __repr__(self) -> str:
        where = (f"{self.address[0]}:{self.address[1]}" if self.address
                 else "unbound")
        return (f"<Gateway {where} fleet={len(self.pool)} "
                f"{self.admission!r}>")


def serve_main(argv: "list[str] | None" = None) -> int:
    """The ``python -m repro serve`` entrypoint."""
    from repro.api.scheduling import POLICY_NAMES

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve a long-lived batch gateway over a dynamic "
                    "agent fleet (agents join with "
                    "`python -m repro agent --announce HOST:PORT`)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="gateway snapshot store root (default: "
                             "$REPRO_STORE, else the user cache dir)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, reported on stdout)")
    parser.add_argument("--hosts", default=None, metavar="HOST:PORT[,...]",
                        help="seed the fleet with static agent addresses "
                             "(agents may also announce themselves)")
    parser.add_argument("--policy", choices=list(POLICY_NAMES),
                        default=None,
                        help="scheduling policy for the fleet "
                             "(default: round-robin)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="jobs in flight per agent (default: 4)")
    parser.add_argument("--rate", type=float, default=None,
                        help="per-user admission rate, requests/second "
                             "(default: unlimited)")
    parser.add_argument("--burst", type=float, default=None,
                        help="per-user burst allowance (default: max(1, rate))")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="global bound on admitted-but-unfinished jobs "
                             "(default: 256)")
    parser.add_argument("--request-log", default=None, metavar="FILE",
                        help="append one JSON line per gateway event "
                             "(admissions, dispatches, agent health)")
    parser.add_argument("--result-cache", type=int, default=1024,
                        metavar="N",
                        help="per-user result cache entries; repeat "
                             "SUBMITs answer without dispatch "
                             "(default: 1024, 0 disables)")
    args = parser.parse_args(argv)
    policy = POLICY_NAMES[args.policy]() if args.policy else None
    gateway = Gateway(
        store=args.store, host=args.host, port=args.port,
        hosts=[spec for spec in (args.hosts or "").split(",") if spec],
        policy=policy, concurrency=args.concurrency, rate=args.rate,
        burst=args.burst, max_pending=args.max_pending,
        request_log=args.request_log, result_cache=args.result_cache)
    try:
        asyncio.run(gateway.run())
    except KeyboardInterrupt:  # pragma: no cover - handled via signal
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `-m repro serve`
    raise SystemExit(serve_main())
