"""repro.remote — sharding worlds across agent hosts.

The multi-host counterpart of :mod:`repro.api.executors`: a "cluster"
is just N **agents** (``python -m repro agent --store DIR --port P``),
each a separate process owning its own persistent
:class:`repro.kernel.store.SnapshotStore`, and a
:class:`repro.api.executors.remote.RemoteExecutor` on the coordinator
that shards (script, user) jobs across them over a small, versioned,
length-prefixed wire protocol (:mod:`repro.remote.wire`).

Three modules:

* :mod:`repro.remote.wire` — the frame codec and message vocabulary
  (HELLO / PREPARE / NEED / BLOB / READY / SUBMIT / RESULT / GOODBYE);
  snapshot blobs travel by digest and are only shipped on a miss;
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
    "HostPool",
    "HostSpec",
]
