"""repro.remote — sharding worlds across agent hosts.

The multi-host counterpart of :mod:`repro.api.executors`: a "cluster"
is just N **agents** (``python -m repro agent --store DIR --port P``),
each a separate process owning its own persistent
:class:`repro.kernel.store.SnapshotStore`, and a
:class:`repro.api.executors.remote.RemoteExecutor` on the coordinator
that shards (script, user) jobs across them over a small, versioned,
length-prefixed wire protocol (:mod:`repro.remote.wire`).

Four modules:

* :mod:`repro.remote.wire` — the frame codec and message vocabulary
  (HELLO / PREPARE / NEED / READY / SUBMIT / RESULT / GOODBYE), one
  request and one reply per exchange; snapshots travel by digest, and
  their bytes ride a second PREPARE only after a NEED;
* :mod:`repro.remote.server` — the serving half of the protocol, one
  threaded server that agents and the :mod:`repro.serve` gateway both
  run;
* :mod:`repro.remote.agent` — the worker-host process: restores
  templates from its store (or over the wire), forks per job, and runs
  exactly the same :func:`repro.api.executors.base.run_job` path every
  other executor uses — which is why remote fingerprints are
  byte-identical to sequential ones;
* :mod:`repro.remote.hostpool` — the coordinator's host registry:
  scheduling policies, per-host health and concurrency slots, and the
  one failover loop (``HostPool.dispatch``) the executor and the
  gateway both run when a host dies mid-batch.
"""

from repro.remote.hostpool import HostPool, HostSpec
from repro.remote.wire import (
    WIRE_VERSION,
    Connection,
    Message,
    PeerError,
    WireClosed,
    WireError,
    WireVersionError,
)

__all__ = [
    "WIRE_VERSION",
    "Connection",
    "Message",
    "WireError",
    "WireClosed",
    "WireVersionError",
    "PeerError",
    "HostPool",
    "HostSpec",
]
