"""The gateway: one long-lived front door over a dynamic agent fleet.

``python -m repro serve`` starts a server that speaks the agent wire
protocol (:mod:`repro.remote.wire`) on both faces, on the same threaded
:class:`~repro.remote.server.WireServer` an agent runs:

* **southbound**, it is a coordinator: it owns a
  :class:`~repro.remote.hostpool.HostPool` of agents and relays each
  SUBMIT through the pool's failover loop
  (:meth:`~repro.remote.hostpool.HostPool.dispatch`, the same one
  :class:`~repro.api.executors.remote.RemoteExecutor` runs), which
  scores agents with a :class:`~repro.api.scheduling.SchedulingPolicy`
  and PREPAREs each from the gateway's snapshot store; each admitted
  SUBMIT is relayed on a job thread of its own;
* **northbound**, it *is* an agent, as far as any client can tell: it
  answers HELLO, services PREPARE (a missed snapshot is NEEDed and lands
  in its own store exactly like an agent's would), and
  replies RESULT frames channel-tagged, so
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
retires the host without a strike; a request that fails at its peer (a
PREPARE whose snapshot bytes miss their digest) is answered ERROR on its
channel, so its job fails and neither end is struck nor retired; a
*deterministic* job failure comes back as ``RESULT {status: "error"}``
with the agent's attribution and is never retried; fleet exhaustion,
or any other failure to relay (a policy that raises), is reported the
same way — the gateway never answers a SUBMIT with a
connection-killing ERROR frame, nor with silence.  A SIGTERM'd gateway
retires like an agent: it drains its in-flight relays, says GOODBYE to
its clients and its agents, and exits 0.

On startup the gateway prints one machine-readable line::

    GATEWAY LISTENING host=127.0.0.1 port=44501 store=/path/to/store

so callers that spawn it with ``--port 0`` (tests, CI,
:func:`repro.serve.client.spawn_local_gateway`) can discover the port.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
import traceback as _traceback
from pathlib import Path
from typing import Any

from repro.kernel.store import SnapshotStore
from repro.remote.hostpool import HostPool, HostsExhausted, HostSpec, WireTemplate
from repro.remote.server import WireServer
from repro.remote.wire import Connection, Message, WireError, template_key


class Gateway(WireServer):
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

    role = "gateway"

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

        super().__init__(store, host, port)
        self.pool = HostPool(hosts, policy=policy, concurrency=concurrency)
        self.admission = AdmissionController(rate=rate, burst=burst,
                                             max_pending=max_pending)
        #: wire template key -> the PREPARE fields exactly as a client
        #: shipped them — relayed verbatim to agents that miss, so both
        #: hops compute the same template identity.
        self._templates: "dict[str, WireTemplate]" = {}
        # The per-user result cache: (requester, template, user, source)
        # -> the RESULT frame verbatim.  Jobs on one template are
        # deterministic, so a repeat SUBMIT answers from here without
        # admission control, dispatch, or a single agent kernel op.
        self._result_cache = (BoundedCache(result_cache)
                              if result_cache > 0 else None)
        self._log_path = Path(request_log) if request_log else None
        self._log_lock = threading.Lock()
        self._log("listening", host=self.address[0], port=self.address[1],
                  store=str(self.store.root))

    # -- lifecycle ---------------------------------------------------------

    def retire(self, timeout: float = 30.0) -> None:
        """Drain in-flight relays, GOODBYE every client, stop serving,
        and hang up on the fleet (GOODBYE to live agents)."""
        self._log("stopping", pid=os.getpid())
        super().retire(timeout)
        self.pool.close_all()

    def close(self) -> None:
        """Stop serving and hang up on the fleet, without draining."""
        self.shutdown()
        self.pool.close_all()

    # -- membership --------------------------------------------------------

    def _handle_announce(self, conn: Connection, msg: Message) -> None:
        """An agent dialed in to join the fleet; the gateway dials back
        on the advertised address when jobs need it."""
        spec = HostSpec(str(msg.fields["host"]), int(msg.fields["port"]))
        rejoin = any(h.spec == spec for h in self.pool.hosts)
        self.pool.add_host(spec)
        self._log("rejoin" if rejoin else "announce", host=str(spec),
                  pid=msg.fields.get("pid"), store=msg.fields.get("store"))
        conn.send("WELCOME", {"pid": os.getpid(), "fleet": len(self.pool)})

    # -- PREPARE -----------------------------------------------------------

    def _handle_prepare(self, conn: Connection, msg: Message) -> None:
        """Take custody of one template: NEED its snapshot if our store
        misses it (exactly like an agent), keep the PREPARE ingredients
        for relaying, reply READY."""
        fields = msg.fields
        wire_key = template_key(fields)
        source = self._pull(conn, msg)
        if source is None:
            return
        if source == "store" and wire_key in self._templates:
            source = "memory"
        relay = {k: v for k, v in fields.items() if k != "channel"}
        self._templates[wire_key] = WireTemplate(wire_key, relay, self.store)
        self._log("template", key=wire_key[:16], snapshot=fields["snapshot"][:16],
                  source=source)
        # build_ops is empty by construction: the gateway relays, it
        # never boots a kernel — agents report their own boot work.
        conn.send("READY", msg.echo({"source": source, "build_ops": {}}))

    # -- SUBMIT: admission, then relay -------------------------------------

    def _handle_submit(self, conn: Connection, msg: Message) -> None:
        """Cache hits and BUSY refusals are answered right here on the
        reader thread; only an admitted SUBMIT gets a job thread, so
        admission's pending bound also bounds the gateway's job
        threads."""
        fields = msg.fields
        user = fields.get("requester") or fields.get("user") or "anonymous"
        cached = self._cache_lookup(fields)
        if cached is not None:
            # A cache hit is exempt from admission control: it consumes
            # no agent slot and no job thread, so throttling it would
            # only turn free answers into BUSY frames.
            reply_fields, blob = cached
            reply_fields = dict(reply_fields)
            reply_fields["index"] = fields.get("index")
            self._log("cache_hit", user=user, name=fields.get("name"),
                      verdict="hit",
                      template=str(fields.get("template", ""))[:16])
            self._reply(conn, "RESULT", msg.echo(reply_fields), blob)
            return
        wait = self.admission.admit(user)
        if wait is not None:
            self._log("busy", user=user, name=fields.get("name"),
                      retry_after=round(wait, 4),
                      pending=self.admission.pending)
            self._reply(conn, "BUSY", msg.echo({"retry_after": round(wait, 4)}))
            return
        self._start_job(self._relay, conn, msg)

    def _relay(self, conn: Connection, msg: Message) -> None:
        """One admitted SUBMIT, on its job thread: relay it, release its
        admission slot, keep a cacheable result, reply."""
        try:
            reply_fields, blob = self._dispatch_job(msg.fields)
        finally:
            self.admission.release()
        self._cache_store(msg.fields, reply_fields, blob)
        self._reply(conn, "RESULT", msg.echo(reply_fields), blob)

    def _cache_key(self, fields: dict) -> "tuple | None":
        """Per-user cache key, or None when the cache is off or the
        SUBMIT carries no script."""
        if self._result_cache is None or fields.get("source") is None:
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

    def _reply(self, conn: Connection, type_: str, fields: dict,
               blob: bytes = b"") -> None:
        """A reply to a client that may already be gone — which is its
        problem, not the fleet's; the job result is simply dropped."""
        try:
            conn.send(type_, fields, blob)
        except WireError:
            self._log("client_gone", name=fields.get("name"))

    def _dispatch_job(self, fields: dict) -> "tuple[dict, bytes]":
        """Relay one SUBMIT to an agent through the pool's failover loop
        (on the SUBMIT's job thread).  Every way the relay can
        fail — an unknown template, an exhausted fleet, an exception
        anywhere in dispatch, a raising policy included — comes back as
        an error RESULT: a client is never left waiting on a reply that
        will not come, and its connection is never killed."""
        from repro.api.executors.base import ExecutorJob

        try:
            template = self._templates.get(fields.get("template", ""))
            if template is None:
                return self._error(fields, "gateway: SUBMIT names a template "
                                           "no client has PREPAREd here "
                                           "(gateway restarted? re-open the "
                                           "executor)")
            relay = {k: v for k, v in fields.items()
                     if k not in ("channel", "requester")}
            # Policies score the same job type on every path.
            job = ExecutorJob(index=fields.get("index"), name=fields.get("name"),
                              source=fields.get("source"),
                              user=fields.get("user"))
            reply = self.pool.dispatch(template, relay, job=job, log=self._log)
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
        if self._log_path is None:
            return
        record = {"ts": round(time.time(), 3), "event": event, **fields}
        with self._log_lock, self._log_path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def __repr__(self) -> str:
        return (f"<Gateway {self.address[0]}:{self.address[1]} fleet={len(self.pool)} "
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
    gateway.retire_on_signals()  # clean shutdown: drain, GOODBYE, exit 0
    gateway.announce()
    gateway.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `-m repro serve`
    raise SystemExit(serve_main())
