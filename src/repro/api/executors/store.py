"""The process-pool executors: worker fleets that boot from a snapshot store.

Every worker process boots one way.  The coordinator puts the bound
template's snapshot in a content-addressed
:class:`repro.kernel.store.SnapshotStore`, and the pool initializer of
each worker restores it from ``(store root, blob digest, scripts,
default user)`` — initargs carry a path and a digest, never a machine,
and a fleet of N workers reads one shared file.  Every job then forks
the worker's machine: restore-once, fork-per-job.  A worker returns the
job's :class:`~repro.api.RunResult` or raises
:class:`~repro.api.executors.base.BatchExecutionError`, which pickles
with its traceback text, so an engine failure crosses the process
boundary typed and attributed.

The two executors differ only in whose store it is:

* :class:`StoreExecutor` boots from a **persistent** store (a directory
  the caller names, or the user's default root).  The world digest is
  **linked** to its snapshot, so a later run — in a *different
  process*, on a different day, from a restored CI cache — resolves the
  link and restores the template straight from disk:
  :meth:`StoreBootMixin.prepare` then performs **zero template-build
  kernel ops** (gated by ``benchmarks/test_snapshot_store.py``);
* :class:`ProcessExecutor` is a store executor over a temporary
  directory it creates, which lives as long as the executor and is
  removed when the executor is garbage-collected or at interpreter
  exit.  It never touches the user's store.

A restored template is seeded into the in-process boot cache, so
everything downstream (forks per job, result-cache keys, pristine
checks) behaves exactly as if the world had been built.  The pool is
cached per template *token* and script registry: rebinding the same
machine state reuses warm workers, so an executor held across many
batches pays the snapshot + spawn cost once; one constructed per run
pays it per run.

The coordinator-side store boot lives in :class:`StoreBootMixin`
because the :class:`~repro.api.executors.remote.RemoteExecutor` shares
it (store → the wire → agent hosts, each with a store of its own).  The
store is the wire format on disk, and ``prepare → bind → submit`` is the
boot protocol a remote host follows.
"""

from __future__ import annotations

import shutil
import tempfile
import traceback as _traceback
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.executors.base import (
    BatchExecutionError,
    BootInfo,
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    run_job,
)
from repro.api.results import RunResult
from repro.kernel.store import SnapshotStore

if TYPE_CHECKING:
    from repro.api.worlds import World


def portable_fixtures(fixtures: dict) -> dict:
    """``fixtures`` if the record pickles, ``{}`` otherwise.

    Fixture values are normally plain data, but a keyed ``with_setup``
    step can record anything; a value that cannot land in a
    snapshot-store link must not crash a run whose jobs never read it —
    it is simply absent from worlds booted off the link (documented on
    :meth:`repro.api.World.with_setup`).
    """
    import pickle

    try:
        pickle.dumps(fixtures)
    except Exception:
        return {}
    return fixtures


class StoreBootMixin:
    """Store-backed ``prepare()`` + snapshot bookkeeping, shared by the
    executors whose boot path goes through a :class:`SnapshotStore`
    (local worker fleets and remote agents).

    Mixed in *before* the concrete :class:`~repro.api.executors.base.
    Executor` base so :meth:`prepare` overrides the plain build path;
    ``super().prepare(world)`` reaches the base strategy when the store
    cannot help.  Concrete classes call :meth:`_init_store` from their
    constructor.
    """

    store: SnapshotStore
    boot_info: BootInfo

    def _init_store(self, store: "SnapshotStore | Path | str | None") -> None:
        self.store = store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        self.boot_info = BootInfo(source="unprepared")
        #: template token -> blob digest, so one executor never snapshots
        #: the same machine state twice.
        self._snapshots: dict[tuple, str] = {}

    # -- coordinator-side boot ---------------------------------------------

    def prepare(self, world: "World") -> BootInfo:
        """Boot ``world``, from the store when its digest is linked.

        On a hit the linked blob is restored, adopted as the world's
        template (and seeded into the in-process boot cache), and the
        reported ``build_ops`` delta — current kernel op counters minus
        the counters recorded when the link was written — is zero unless
        the restore path executed kernel work it should not have.  On a
        miss the world boots normally and the blob + link are written so
        the *next* process hits.
        """
        if world.booted:
            self.boot_info = BootInfo(source="booted")
            return self.boot_info
        from repro.api.worlds import boot_cache_contains

        digest = world.digest
        if digest is not None and boot_cache_contains(digest):
            # A warm in-process template beats a disk restore — but the
            # store must still end up linked, or a fully cache-served
            # run would leave nothing for the next process to boot from.
            info = super().prepare(world)
            if self._resolve_current(digest) is None:
                info.snapshot = self._snapshot_into_store(
                    JobTemplate.for_world(world))
            self.boot_info = info
            return info
        resolved = self._resolve_current(digest) if digest is not None else None
        if resolved is not None:
            from repro.kernel.serialize import SnapshotError

            snapshot_digest, meta = resolved
            try:
                info = self._boot_from_store(world, snapshot_digest, meta)
            except SnapshotError:
                # A stale blob (codec version bump, torn write survived a
                # crash) is a cache miss, never an error: rebuild and
                # re-link over the bad entry.
                resolved = None
        if resolved is None:
            info = super().prepare(world)  # the plain build path
            if digest is not None:
                # Write blob + link now, not at first submit: even a
                # fully cache-served batch leaves the store warm for the
                # next process.
                info.snapshot = self._snapshot_into_store(
                    JobTemplate.for_world(world))
        self.boot_info = info
        return info

    def _resolve_current(self, digest: str) -> "tuple[str, dict] | None":
        """The store's link for ``digest``, if written by the *current*
        world-build code: the config digest cannot see code changes, so
        the version stamp must — stale links are misses, rebuilt and
        re-linked over."""
        from repro.world import WORLD_IMAGE_VERSION

        resolved = self.store.resolve_world(digest)
        if resolved is not None and \
                resolved[1].get("world_version") != WORLD_IMAGE_VERSION:
            return None
        return resolved

    def _boot_from_store(self, world: "World", snapshot_digest: str,
                         meta: dict) -> BootInfo:
        from repro.kernel.kernel import KernelStats

        kernel = self.store.restore(snapshot_digest)
        world.adopt_template(kernel, meta.get("fixtures", {}))
        assert world.kernel is not None
        # The codec preserves op counters, so the restored machine must
        # show exactly the counters recorded at link time: any surplus
        # is kernel work the "boot from disk" path performed (and the
        # store-hit benchmark gate fails on it).
        build_ops = KernelStats.delta(meta.get("stats", {}),
                                      world.kernel.stats.snapshot())
        # Downstream consumers (workers, agents) can boot from the very
        # blob we restored — no re-pickle.
        self._snapshots[JobTemplate.token_for(world)] = snapshot_digest
        return BootInfo(source="store", snapshot=snapshot_digest,
                        build_ops=build_ops)

    def _snapshot_into_store(self, template: JobTemplate) -> str:
        """Ensure the template's snapshot is a store blob; link its world
        digest so future processes boot from disk."""
        from repro.kernel.serialize import snapshot_kernel

        snapshot_digest = self._snapshots.get(template.token)
        if snapshot_digest is None or not self.store.has(snapshot_digest):
            # A blob the store's LRU cap evicted since is put back, or a
            # rebind to an older template would boot workers off nothing.
            snapshot_digest = self.store.put(snapshot_kernel(template.kernel))
            self._snapshots[template.token] = snapshot_digest
        if template.digest is not None:
            # template.digest is only set while the world is pristine
            # (JobTemplate.for_world): a mutated machine must never be
            # linked as "what this configuration boots to".
            from repro.world import WORLD_IMAGE_VERSION

            self.store.link_world(template.digest, snapshot_digest, meta={
                "fixtures": portable_fixtures(template.fixtures),
                "stats": dict(template.kernel.stats.snapshot()),
                "world_version": WORLD_IMAGE_VERSION,
            })
        return snapshot_digest


# ---------------------------------------------------------------------------
# worker plumbing (module-level: worker processes must import it by name)
# ---------------------------------------------------------------------------

#: Per-worker-process state: the restored template, installed once by the
#: pool initializer.
_WORKER_STATE: dict = {}


def _worker_init(store_root: str, snapshot_digest: str, scripts: tuple,
                 default_user: str) -> None:
    """Pool initializer: restore the template from its store blob, once
    per worker.  A failed restore is kept, not raised: an initializer
    that raises breaks the whole pool, and its cause would reach only a
    log line instead of the jobs' errors."""
    try:
        kernel = SnapshotStore(store_root).restore(snapshot_digest)
    except Exception:
        _WORKER_STATE["boot_error"] = _traceback.format_exc()
        return
    _WORKER_STATE["template"] = JobTemplate(
        kernel=kernel, scripts=scripts, default_user=default_user,
        digest=None, token=("worker",))


def _worker_run(job: ExecutorJob) -> RunResult:
    """Run one job in a worker.  Anything but a result leaves as a
    :class:`BatchExecutionError` naming the job, so the coordinator's
    handle re-raises it typed, original traceback text included (the
    worker's failed restore, if that is why it has no template)."""
    if "boot_error" in _WORKER_STATE:
        raise BatchExecutionError(job.name, job.user,
                                  _WORKER_STATE["boot_error"])
    try:
        return run_job(_WORKER_STATE["template"], job)
    except BatchExecutionError:
        raise
    except Exception as err:
        raise BatchExecutionError(job.name, job.user,
                                  _traceback.format_exc()) from err


class StoreExecutor(StoreBootMixin, Executor):
    """Jobs run in a :class:`~concurrent.futures.ProcessPoolExecutor`
    whose workers boot from a persistent store.

    ``store`` is a :class:`SnapshotStore`, a directory path, or ``None``
    (the default store root: ``$REPRO_STORE`` or the user cache dir).
    ``boot_info`` records how the last :meth:`~StoreBootMixin.prepare`
    obtained its template — ``"store"`` boots report an all-zero
    ``build_ops`` delta.

    Example::

        from repro.api import Batch, StoreExecutor, World

        world = World().for_user("alice").with_jpeg_samples()
        with StoreExecutor(store="/tmp/snapstore", workers=2) as ex:
            results = Batch(world).add(
                '#lang shill/ambient\\ndocs = open_dir("~/Documents");\\n'
            ).run(executor=ex)
        assert results[0].ok
    """

    name = "store"

    def __init__(self, store: "SnapshotStore | Path | str | None" = None,
                 workers: "int | None" = None) -> None:
        super().__init__(workers)
        self._init_store(store)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_token: tuple | None = None  # (template token, scripts)

    def _ensure_pool(self, template: JobTemplate) -> ProcessPoolExecutor:
        # The pool identity is everything its initializer baked into the
        # workers: the machine state (token) *and* the script registry —
        # a rebind with different scripts must rebuild the workers, or
        # jobs would resolve `require` against a stale registry.
        pool_key = (template.token, template.scripts)
        if self._pool is not None and self._pool_token == pool_key:
            return self._pool
        self.close()
        snapshot_digest = self._snapshot_into_store(template)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_init,
            initargs=(str(self.store.root), snapshot_digest,
                      template.scripts, template.default_user))
        self._pool_token = pool_key
        return self._pool

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        pool = self._ensure_pool(template)
        return JobHandle(job, pool.submit(_worker_run, job))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_token = None

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} workers={self.workers} "
                f"store={self.store.root}>")


class ProcessExecutor(StoreExecutor):
    """A :class:`StoreExecutor` over a temporary directory it owns.

    The directory is made under :func:`tempfile.gettempdir` and removed
    when the executor is garbage-collected, or at interpreter exit, after
    its pool is shut; :meth:`close` only shuts the pool, so a closed
    executor can still run batches.

    Example::

        from repro.api import Batch, ProcessExecutor, World

        world = World().for_user("alice").with_jpeg_samples()
        with ProcessExecutor(workers=2) as ex:
            batch = Batch(world, cache=False)
            batch.add('#lang shill/ambient\\nappend(stdout, "a\\\\n");\\n')
            batch.add('#lang shill/ambient\\nappend(stdout, "b\\\\n");\\n')
            results = batch.run(executor=ex)
        assert [r.stdout for r in results] == ["a\\n", "b\\n"]
    """

    name = "process"

    def __init__(self, workers: "int | None" = None) -> None:
        root = tempfile.mkdtemp(prefix="repro-process-")
        super().__init__(store=root, workers=workers)
        # The finalizer holds the attribute dict, not the executor, so
        # it sees the pool current at collection time.
        weakref.finalize(self, _discard_owned_store, vars(self), root)


def _discard_owned_store(state: dict, root: str) -> None:
    """Remove a collected :class:`ProcessExecutor`'s directory.  Its pool
    is shut first: a pool nobody closed may have workers still starting,
    and they read their machine from the directory."""
    if state["_pool"] is not None:
        state["_pool"].shutdown(wait=True)
    shutil.rmtree(root, ignore_errors=True)
