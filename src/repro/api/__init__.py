"""repro.api — the single supported public surface.

Everything above the kernel goes through five nouns:

* :class:`World` — fluent builder for the deterministic world image
  (users, workload fixtures, ad-hoc files), booted once through a
  boot-image cache; cheap to :meth:`~World.fork` and to fan out as a
  :meth:`~World.pool`;
* :class:`Session` — one SHILL invocation: runs ambient scripts, loads
  capability-safe exports, and snapshots results;
* :class:`Batch` — many (script, user) jobs over per-job world forks,
  dispatched to the :class:`Executor` instance passed as ``executor=``
  (:mod:`repro.api.executors`: sequential, thread, process, a
  snapshot-store-backed worker fleet, remote agents, or a serving
  gateway) with byte-identical results however they run, consumed
  eagerly (``run``) or as futures (``stream`` / ``as_completed``), plus
  a result cache keyed on (world digest, script, user);
* :class:`Sandbox` — the ``shill-run`` debugging tool: one command under
  a policy file;
* :class:`RunResult` — the frozen answer object (stdout, stderr, exit
  status, per-phase profile breakdown, deterministic op counts, denials,
  sandbox count).

:class:`ScriptRegistry` feeds named ``.cap`` / ``.ambient`` sources —
from strings, files, or directories — into sessions.

A typical flow::

    from repro.api import ScriptRegistry, World

    world = World().for_user("alice").with_jpeg_samples().boot()
    session = world.session(scripts=ScriptRegistry().add("find_jpg.cap", SRC))
    result = session.run_ambient(AMBIENT_SRC, "main.ambient")
    print(result.stdout, result.sandbox_count)

The engine underneath (:class:`repro.lang.runner.ShillRuntime`,
:func:`repro.world.build_world`) is internal: it stays importable from
those modules for tests of the language ↔ sandbox seam, not from this
one.
"""

from __future__ import annotations

from repro.api.batch import (
    Batch,
    BatchExecutionError,
    BatchJob,
    clear_result_cache,
    result_cache_size,
)
from repro.api.caching import BoundedCache
from repro.api.executors import (
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    ProcessExecutor,
    RemoteExecutor,
    SequentialExecutor,
    ServeExecutor,
    SnapshotStore,
    StoreExecutor,
    ThreadExecutor,
)
from repro.api.registry import SCRIPT_SUFFIXES, ScriptRegistry
from repro.api.scheduling import (
    LeastLoaded,
    RoundRobin,
    SchedulingPolicy,
    StoreWarmth,
    resolve_policy,
)
from repro.api.results import OPS_KEYS, PROFILE_KEYS, RunResult, freeze_ops, freeze_profile
from repro.api.sandboxes import Sandbox
from repro.api.sessions import Session
from repro.policy import (
    CapabilityEngine,
    Decision,
    FakePolicyEngine,
    PolicyEngine,
    PolicyRequest,
    RuleEngine,
)
from repro.api.worlds import (
    FIXTURE_CHOICES,
    World,
    WorldPool,
    as_kernel,
    boot_cache_size,
    clear_boot_cache,
)

__all__ = [
    "World",
    "WorldPool",
    "Session",
    "Sandbox",
    "Batch",
    "BatchExecutionError",
    "BatchJob",
    "Executor",
    "ExecutorJob",
    "JobHandle",
    "JobTemplate",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "StoreExecutor",
    "RemoteExecutor",
    "ServeExecutor",
    "SnapshotStore",
    "BoundedCache",
    "SchedulingPolicy",
    "RoundRobin",
    "LeastLoaded",
    "StoreWarmth",
    "resolve_policy",
    "RunResult",
    "PolicyEngine",
    "PolicyRequest",
    "Decision",
    "RuleEngine",
    "FakePolicyEngine",
    "CapabilityEngine",
    "ScriptRegistry",
    "FIXTURE_CHOICES",
    "PROFILE_KEYS",
    "OPS_KEYS",
    "SCRIPT_SUFFIXES",
    "as_kernel",
    "freeze_profile",
    "freeze_ops",
    "clear_boot_cache",
    "boot_cache_size",
    "clear_result_cache",
    "result_cache_size",
    "LintRejection",
]


def __getattr__(name: str):
    # Loaded on demand so the analysis package (parser, contract
    # elaborator) stays off the import path of API users who never lint.
    if name == "LintRejection":
        from repro.analysis.gate import LintRejection

        return LintRejection
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
