"""The store executor: worker fleets that boot from disk.

A :class:`ProcessExecutor` re-pickles the booted template for every
fresh pool and ships the whole payload through ``initargs``.  The
:class:`StoreExecutor` puts the snapshot in a persistent, content-
addressed :class:`repro.kernel.store.SnapshotStore` instead:

* workers receive ``(store_root, snapshot_digest)`` and read the blob
  from disk in their initializer — no machine bytes cross the process-
  spawn channel, and a fleet of N workers reads one shared file;
* the world digest is **linked** to its snapshot, so a later run — in a
  *different process*, on a different day, from a restored CI cache —
  resolves the link and restores the template straight from disk:
  :meth:`StoreBootMixin.prepare` then performs **zero template-build
  kernel ops** (gated by ``benchmarks/test_snapshot_store.py``);
* the restored template is seeded into the in-process boot cache, so
  everything downstream (forks per job, result-cache keys, pristine
  checks) behaves exactly as if the world had been built.

The store-boot behaviour lives in :class:`StoreBootMixin` because two
executors share it: this one (store → local worker processes) and the
:class:`~repro.api.executors.remote.RemoteExecutor` (store → the wire →
agent hosts, each with a store of its own).  The store is the wire
format on disk, and ``prepare → bind → submit`` is the boot protocol a
remote host follows.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.executors.base import (
    BootInfo,
    JobTemplate,
    portable_fixtures,
)
from repro.api.executors.process import ProcessExecutor, _store_worker_init
from repro.kernel.store import SnapshotStore

if TYPE_CHECKING:
    from repro.api.worlds import World


class StoreBootMixin:
    """Store-backed ``prepare()`` + snapshot bookkeeping, shared by the
    executors whose boot path goes through a persistent
    :class:`SnapshotStore` (local worker fleets and remote agents).

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
        #: Digest of the last *pristine* full blob this executor stored
        #: or booted from — the base that mutated-template snapshots are
        #: delta-encoded against.
        self._delta_base: "str | None" = None

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
        self._delta_base = snapshot_digest
        return BootInfo(source="store", snapshot=snapshot_digest,
                        build_ops=build_ops)

    def _encode_snapshot(self, template: JobTemplate) -> bytes:
        """The template as blob bytes: a delta against the last pristine
        full blob when the template has mutated away from one, a full
        frame otherwise (and as the fallback whenever delta encoding
        cannot apply)."""
        from repro.kernel.serialize import (
            SnapshotError,
            snapshot_kernel,
            snapshot_kernel_delta,
        )

        base_digest = self._delta_base
        if (template.digest is None and base_digest is not None
                and self.store.has(base_digest)):
            try:
                base = self.store.restore(base_digest)
                return snapshot_kernel_delta(template.kernel, base, base_digest)
            except SnapshotError:
                pass  # evicted/stale base: fall back to a full frame
        return snapshot_kernel(template.kernel)

    def _snapshot_into_store(self, template: JobTemplate) -> str:
        """Ensure the template's snapshot is a store blob; link its world
        digest so future processes boot from disk.  Pristine templates
        store full frames (they are link targets and delta bases);
        mutated ones store ~KB deltas against the pristine blob."""
        snapshot_digest = self._snapshots.get(template.token)
        if snapshot_digest is None:
            snapshot_digest = self.store.put(self._encode_snapshot(template))
            self._snapshots[template.token] = snapshot_digest
        if template.digest is not None:
            self._delta_base = snapshot_digest
            # template.digest is only set while the world is pristine
            # (JobTemplate.for_world): a mutated machine must never be
            # linked as "what this configuration boots to".
            from repro.world import WORLD_IMAGE_VERSION

            self.store.link_world(template.digest, snapshot_digest, meta={
                "fixtures": portable_fixtures(template.fixtures),
                "default_user": template.default_user,
                "install_shill": template.install_shill,
                "stats": dict(template.kernel.stats.snapshot()),
                "world_version": WORLD_IMAGE_VERSION,
            })
        return snapshot_digest


class StoreExecutor(StoreBootMixin, ProcessExecutor):
    """A process executor whose workers boot from a persistent store.

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

    # -- worker-side boot --------------------------------------------------

    def _worker_boot(self, template: JobTemplate) -> tuple:
        snapshot_digest = self._snapshot_into_store(template)
        return (_store_worker_init,
                (str(self.store.root), snapshot_digest, template.scripts,
                 template.default_user, portable_fixtures(template.fixtures),
                 template.install_shill))

    def __repr__(self) -> str:
        return f"<StoreExecutor workers={self.workers} store={self.store.root}>"
