"""The serve executor: jobs through a long-lived ``repro serve`` gateway.

Where :class:`~repro.api.executors.remote.RemoteExecutor` manages its
own fleet — it dials every agent, prepares each one, shards jobs across
them — :class:`ServeExecutor` talks to exactly one address: a
:mod:`repro.serve` gateway that looks, on the wire, like a single very
large v2 agent.  The gateway owns the fleet (agents announce
themselves, rejoin after restarts, get scored by the gateway's
scheduling policy) and the admission story (per-user rate limits,
bounded queues, BUSY/RETRY-AFTER backpressure); the client just
multiplexes channel-tagged SUBMITs, honours BUSY by waiting, and
re-dials if the gateway itself restarts.

Because the gateway relays PREPARE/NEED/BLOB and SUBMIT/RESULT frames
to agents that run :func:`repro.api.executors.base.run_job` — the same
single execution path as every other executor — serve-executor
fingerprints are byte-identical to sequential ones, and the existing
cross-executor equivalence gate extends to the gateway unchanged
(``benchmarks/test_batch_backends.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.api.executors.remote import RemoteExecutor
from repro.kernel.store import SnapshotStore
from repro.remote.hostpool import HostSpec


class ServeExecutor(RemoteExecutor):
    """Jobs run through one ``repro serve`` gateway.

    ``gateway`` is the gateway's ``"host:port"`` address (or a
    :class:`~repro.remote.hostpool.HostSpec`).  ``concurrency`` is how
    many jobs this client keeps in flight at the gateway at once
    (channel-multiplexed on one connection; the gateway's admission
    control is the real arbiter — a BUSY response makes the client wait
    the suggested interval).  ``store`` roots the client's local
    snapshot store; the template ships to the gateway once and from
    there to agents that miss.  ``user`` attributes requests for the
    gateway's per-user rate limits.

    Example (gateway + one agent, all on this machine)::

        import tempfile
        from repro.api import Batch, ServeExecutor, World
        from repro.serve import spawn_local_gateway
        from repro.remote.agent import spawn_local_agent

        tmp = tempfile.mkdtemp()
        gateway_proc, gateway = spawn_local_gateway(f"{tmp}/gw")
        agent_proc, _addr = spawn_local_agent(f"{tmp}/a1", announce=gateway)
        try:
            world = World().for_user("alice").with_jpeg_samples()
            with ServeExecutor(gateway, store=f"{tmp}/client") as ex:
                results = Batch(world, cache=False).add(
                    '#lang shill/ambient\\ndocs = open_dir("~/Documents");\\n'
                ).run(executor=ex)
            assert results[0].ok
        finally:
            agent_proc.kill()
            gateway_proc.kill()
    """

    name = "serve"

    def __init__(self, gateway: "HostSpec | str | tuple[str, int]",
                 store: "SnapshotStore | Path | str | None" = None,
                 workers: "int | None" = None,
                 concurrency: int = 4,
                 user: "str | None" = None) -> None:
        self.gateway = HostSpec.parse(gateway)
        self.user = user
        super().__init__([self.gateway], store=store, workers=workers,
                         concurrency=concurrency)

    def _encode(self, job, wire_key):  # type: ignore[override]
        fields, blob = super()._encode(job, wire_key)
        if self.user is not None:
            # Attribution for the gateway's per-user rate limits; the
            # job's *execution* user is fields["user"], untouched.
            fields["requester"] = self.user
        return fields, blob

    def __repr__(self) -> str:
        return (f"<ServeExecutor gateway={self.gateway} "
                f"store={self.store.root} concurrency={self.concurrency}>")
