"""repro.api.executors — pluggable execution strategies.

The :class:`Executor` protocol (``prepare``/``bind``/``submit``/
``as_completed``/``close``) plus the six shipped strategies.  A job is
one ambient SHILL script for one user, on every strategy:

* :class:`SequentialExecutor` — the caller's thread; the reference;
* :class:`ThreadExecutor` — a thread pool (concurrency, not cores);
* :class:`StoreExecutor` — a process pool whose workers (and
  coordinator) boot from a persistent, content-addressed
  :class:`~repro.kernel.store.SnapshotStore` on disk;
* :class:`ProcessExecutor` — the same pool over a store in a temporary
  directory the executor owns and removes;
* :class:`RemoteExecutor` — jobs sharded across agent *hosts*
  (``python -m repro agent``) over the :mod:`repro.remote.wire`
  protocol, with the snapshot store as the wire format;
* :class:`ServeExecutor` — jobs through a long-lived ``repro serve``
  gateway that owns the agent fleet and the admission story.

Executors are values: ``Batch.run(executor=...)`` takes an instance,
and the CLI's ``repro batch --executor NAME`` is the one place a name
becomes one.
Your own strategy is a subclass passed the same way.  See
``docs/executors.md`` for how to author one.
"""

from repro.api.executors.base import (
    DEFAULT_WORKERS,
    BatchExecutionError,
    BootInfo,
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    execute_job,
    run_job,
)
from repro.api.executors.local import SequentialExecutor, ThreadExecutor
from repro.api.executors.remote import RemoteExecutor
from repro.api.executors.serve import ServeExecutor
from repro.api.executors.store import ProcessExecutor, StoreBootMixin, StoreExecutor
from repro.kernel.store import SnapshotStore

__all__ = [
    "Executor",
    "ExecutorJob",
    "JobHandle",
    "JobTemplate",
    "BootInfo",
    "BatchExecutionError",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "StoreExecutor",
    "StoreBootMixin",
    "RemoteExecutor",
    "ServeExecutor",
    "SnapshotStore",
    "DEFAULT_WORKERS",
    "execute_job",
    "run_job",
]
