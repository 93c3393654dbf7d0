"""The remote executor: jobs sharded across agent hosts.

The multi-host member of the executor family.  Where
:class:`~repro.api.executors.process.ProcessExecutor` fans out to local
worker processes, :class:`RemoteExecutor` fans out to N **agent
processes** (``python -m repro agent``) over the wire protocol in
:mod:`repro.remote.wire` — each agent a host with its own
:class:`~repro.kernel.store.SnapshotStore`, restoring the bound
template from disk when it already has the blob and pulling it over the
wire exactly once when it does not.  The snapshot store is the wire
format; ``prepare → bind → submit`` is the boot sequence; the agents
run :func:`repro.api.executors.base.run_job`, the same single execution
path as every local executor — which is why remote fingerprints are
byte-identical to sequential ones (gated across all four case-study
worlds in ``benchmarks/test_batch_backends.py``).

Scheduling and failover are the :class:`repro.remote.hostpool.HostPool`'s
one loop (:meth:`~repro.remote.hostpool.HostPool.dispatch`, shared with
the :mod:`repro.serve` gateway), scored by a
:class:`repro.api.scheduling.SchedulingPolicy` object.  Host death is
survived, not hidden: a wire failure marks the host dead (a health
strike), the in-flight job retries on the survivors with the dead host
excluded, and before declaring "no live hosts" the pool re-dials the
dead ones — a restarted agent rejoins right there.  An agent that says
a clean GOODBYE (SIGTERM drain) is *retired* instead: no strike, no
panic, jobs simply route elsewhere.  On top of that loop the executor
adds only BUSY back-off and the typed error wrapping.  Agent-*reported*
failures (an engine bug inside a job) are never retried: they are
deterministic, and re-running them elsewhere would produce the same
error with worse attribution.
"""

from __future__ import annotations

import pickle
import threading
import time
import traceback as _traceback
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable

from repro.api.executors.base import (
    BatchExecutionError,
    BootInfo,
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    portable_fixtures,
)
from repro.api.executors.store import StoreBootMixin
from repro.api.scheduling import SchedulingPolicy
from repro.kernel.store import SnapshotStore
from repro.remote.hostpool import (
    HostPool,
    HostsExhausted,
    HostSpec,
    HostState,
    WireTemplate,
)
from repro.remote.wire import Message, template_key


class RemoteExecutor(StoreBootMixin, Executor):
    """Jobs run on a pool of agent hosts, sharded per policy.

    ``hosts`` is any iterable of ``"host:port"`` strings, ``(host,
    port)`` tuples, or :class:`~repro.remote.hostpool.HostSpec`\\ s —
    one per agent.  ``store`` roots the *coordinator's* local snapshot
    store (the template is snapshotted into it once; agents that miss
    fetch the blob over the wire and keep it in their own stores).
    ``policy`` is a :class:`~repro.api.scheduling.SchedulingPolicy`
    object (default :class:`~repro.api.scheduling.RoundRobin`).
    ``concurrency`` caps how many jobs run *per agent* at once (agents
    multiplex channel-tagged jobs on one connection; the pool holds the
    cap).  ``workers`` caps coordinator-side dispatch threads and
    defaults to ``hosts × concurrency``.

    Example (a two-host "cluster" on one machine)::

        import tempfile
        from repro.api import Batch, RemoteExecutor, World
        from repro.remote.agent import spawn_local_agent

        tmp = tempfile.mkdtemp()
        agents = [spawn_local_agent(f"{tmp}/agent{i}") for i in range(2)]
        try:
            world = World().for_user("alice").with_jpeg_samples()
            with RemoteExecutor([addr for _proc, addr in agents],
                                store=f"{tmp}/coordinator") as ex:
                results = Batch(world, cache=False).add(
                    '#lang shill/ambient\\ndocs = open_dir("~/Documents");\\n'
                ).run(executor=ex)
            assert results[0].ok
        finally:
            for proc, _addr in agents:
                proc.kill()
    """

    name = "remote"

    #: How many BUSY (admission-control backpressure) responses one job
    #: tolerates, sleeping the server-suggested ``retry_after`` between
    #: attempts, before failing typed.
    busy_retries = 60

    def __init__(self, hosts: "Iterable[HostSpec | str | tuple[str, int]]",
                 store: "SnapshotStore | Path | str | None" = None,
                 policy: "SchedulingPolicy | None" = None,
                 workers: "int | None" = None,
                 concurrency: int = 1) -> None:
        self.concurrency = max(1, int(concurrency))
        self.hosts = HostPool(hosts, policy=policy,
                              concurrency=self.concurrency)
        super().__init__(workers or len(self.hosts) * self.concurrency)
        self._init_store(store)
        #: "host:port" -> BootInfo of that host's last PREPARE, so tests
        #: and benchmarks can gate "a warm agent store boots with zero
        #: world-build kernel ops" per host.
        self.host_boots: dict[str, BootInfo] = {}
        #: template token -> how the template is named and PREPAREd on
        #: the wire; built once per bound template, not per job.
        self._wire: dict[tuple, WireTemplate] = {}
        self._wire_lock = threading.Lock()
        self._dispatch: "ThreadPoolExecutor | None" = None
        self._dispatch_lock = threading.Lock()

    # -- protocol ----------------------------------------------------------

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        # Owners may submit from several threads (the base class's
        # _pending_lock exists for exactly that); the lazy pool must not
        # be created twice, or the loser's threads leak past close().
        with self._dispatch_lock:
            if self._dispatch is None:
                self._dispatch = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="remote-dispatch")
            dispatch = self._dispatch
        future: Future = dispatch.submit(self._run_remote, template, job)
        return JobHandle(job, future)

    def close(self) -> None:
        with self._dispatch_lock:
            dispatch, self._dispatch = self._dispatch, None
        if dispatch is not None:
            dispatch.shutdown(wait=True)
        self.hosts.close_all()

    # -- one job, end to end -----------------------------------------------

    def _run_remote(self, template: JobTemplate, job: ExecutorJob) -> Any:
        """Run ``job`` through the pool's failover loop, waiting out
        BUSY replies on a bounded budget of their own."""
        wire = self._wire_template(template)
        fields, blob = self._encode(job, wire.key)
        busy = 0
        while True:
            try:
                reply = self.hosts.dispatch(wire, fields, blob, job=job,
                                            on_ready=self._record_boot)
            except HostsExhausted as err:
                raise BatchExecutionError(
                    job.name, job.user or template.default_user,
                    "".join(_traceback.format_stack(limit=8)),
                    message=str(err)) from None
            if reply.type != "BUSY":
                return self._decode(reply)
            # Admission backpressure, not failure: the host stays in
            # rotation; this job waits the server-suggested interval.
            busy += 1
            if busy >= self.busy_retries:
                raise BatchExecutionError(
                    job.name, job.user or template.default_user, "",
                    message=f"server busy: {self.busy_retries} "
                            f"admission retries exhausted")
            time.sleep(float(reply.fields.get("retry_after", 0.05)))

    @staticmethod
    def _encode(job: ExecutorJob, wire_key: str) -> tuple[dict, bytes]:
        fields = {"index": job.index, "name": job.name, "user": job.user,
                  "source": job.source, "has_fn": job.fn is not None,
                  # SUBMIT names its template: agents hold many at once,
                  # and a reused executor must never run against
                  # whichever template this connection prepared last.
                  "template": wire_key}
        return fields, pickle.dumps(job.fn) if job.fn is not None else b""

    @staticmethod
    def _decode(reply: Message) -> Any:
        if reply.fields.get("status") == "error":
            # A deterministic failure *inside* the job on a healthy
            # host: re-raise with the agent's attribution, never retry.
            raise BatchExecutionError(
                reply.fields.get("name") or "<unknown>",
                reply.fields.get("user"),
                reply.fields.get("traceback") or "")
        return pickle.loads(reply.blob)

    # -- host preparation --------------------------------------------------

    def _wire_template(self, template: JobTemplate) -> WireTemplate:
        """How ``template`` is named and PREPAREd on the wire — built
        once per bound template; the first call snapshots the template
        into the coordinator's store.  A miss takes the lock: the first
        jobs of a fresh executor arrive on several dispatch threads at
        once, and each snapshotting and linking the world would race on
        the store's files."""
        wire = self._wire.get(template.token)
        if wire is not None:
            return wire
        with self._wire_lock:
            wire = self._wire.get(template.token)
            if wire is None:
                fields = {
                    "snapshot": self._snapshot_into_store(template),
                    "scripts": [[name, source]
                                for name, source in template.scripts],
                    "default_user": template.default_user,
                    "install_shill": template.install_shill,
                    "stats": dict(template.kernel.stats.snapshot()),
                }
                wire = WireTemplate(
                    template_key(fields), fields,
                    pickle.dumps(portable_fixtures(template.fixtures)),
                    self.store)
                self._wire[template.token] = wire
        return wire

    def _record_boot(self, host: HostState, wire: WireTemplate,
                     ready: Message) -> None:
        self.host_boots[str(host.spec)] = BootInfo(
            source=ready.fields.get("source", "unknown"),
            snapshot=wire.fields["snapshot"],
            build_ops=dict(ready.fields.get("build_ops", {})))

    def __repr__(self) -> str:
        return (f"<RemoteExecutor {self.hosts!r} store={self.store.root} "
                f"workers={self.workers}>")
