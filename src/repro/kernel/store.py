"""Persistent, content-addressed snapshot store: booted machines on disk.

The snapshot codec (:mod:`repro.kernel.serialize`) turns a booted
machine into deterministic bytes; this module gives those bytes a home
that outlives the process.  A :class:`SnapshotStore` is a directory of
**blobs keyed by snapshot digest** (the SHA-256 of the snapshot bytes,
exactly :func:`repro.kernel.serialize.snapshot_digest`), plus an index
mapping **world digests** (the `repro.api.World` configuration hash) to
the snapshot they boot to.  Every process-pool worker — the
``ProcessExecutor``'s and the ``StoreExecutor``'s in
:mod:`repro.api.executors.store` — boots by reading a blob from disk
(its pool initializer receives a store root and a digest, never a
machine), and a coordinator whose world digest is already linked skips
the template build entirely: zero kernel ops, straight from disk.

Layout (everything under ``root``)::

    blobs/<snapshot-digest>.snap     the snapshot bytes, content-addressed
    worlds/<world-digest>.link       pickled {snapshot, fixtures, stats, ...}

Guarantees:

* **atomic writes** — blobs and links are written to a temp file
  named per process (``.<name>.<pid>.tmp``) and ``os.replace``\\ d into
  place, so a concurrent reader never sees a torn file and racing
  writer *processes* of the same digest agree byte-for-byte (content
  addressing makes that race benign).  The name is not unique per
  *thread*: two threads of one process writing the same blob or link
  share one temp file and can race on ``os.replace``;
* **LRU cap** — at most ``max_blobs`` blobs are retained; ``put`` and
  ``get`` refresh a blob's mtime and eviction drops the stalest first
  (an evicted snapshot is just rebuilt and re-put on the next miss);
* **hit/miss stats** — every lookup is counted, so cache efficacy is
  observable (the ``repro store ls`` CLI and the store benchmarks read
  these).

The store holds only deterministic machine state; it is a cache, never a
source of truth — deleting the directory merely makes the next boot pay
the build again.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.kernel.serialize import SNAPSHOT_PROTOCOL, SnapshotError

#: Default blob cap: a blob is a whole machine image (~100s of KiB), and
#: a long-lived fleet sweeping many configurations must not fill the disk.
DEFAULT_MAX_BLOBS = 64

_BLOB_SUFFIX = ".snap"
_LINK_SUFFIX = ".link"


def default_store_root() -> Path:
    """Where stores live when the caller names none: ``$REPRO_STORE`` if
    set (the CI workflow points this at a cached workspace directory),
    else an XDG-style per-user cache path."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    cache_home = Path(os.environ.get("XDG_CACHE_HOME", "~/.cache")).expanduser()
    return cache_home / "repro" / "snapshots"


@dataclass(frozen=True)
class StoreEntry:
    """One blob as ``ls`` reports it."""

    digest: str
    size: int
    mtime: float
    worlds: tuple[str, ...]


class SnapshotStore:
    """On-disk, content-addressed snapshot blobs with a world index.

    ``root`` may be a path-like or ``None`` (then
    :func:`default_store_root` decides).  The directory tree is created
    eagerly so a freshly constructed store is immediately usable by
    worker processes that only ever read from it.
    """

    def __init__(self, root: "Path | str | None" = None, *,
                 max_blobs: int = DEFAULT_MAX_BLOBS) -> None:
        if max_blobs < 1:
            raise ValueError("max_blobs must be positive")
        self.root = Path(root) if root is not None else default_store_root()
        self.max_blobs = max_blobs
        self._blobs = self.root / "blobs"
        self._worlds = self.root / "worlds"
        self._blobs.mkdir(parents=True, exist_ok=True)
        self._worlds.mkdir(parents=True, exist_ok=True)
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "evictions": 0}

    # -- blobs -------------------------------------------------------------

    def blob_path(self, digest: str) -> Path:
        return self._blobs / f"{digest}{_BLOB_SUFFIX}"

    def has(self, digest: str) -> bool:
        return self.blob_path(digest).exists()

    def put(self, payload: bytes) -> str:
        """Store snapshot bytes; returns their digest.

        Content-addressed, so a re-put of identical bytes is a cheap
        touch (the digest *is* the identity) and concurrent writers of
        the same snapshot cannot disagree.
        """
        digest = hashlib.sha256(payload).hexdigest()
        path = self.blob_path(digest)
        if path.exists():
            self._touch(path)
            return digest
        self._atomic_write(path, payload)
        self.stats["writes"] += 1
        self._evict()
        return digest

    def get(self, digest: str) -> bytes | None:
        """The snapshot bytes for ``digest``, or ``None`` (a miss)."""
        path = self.blob_path(digest)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._touch(path)
        return payload

    def load(self, digest: str) -> bytes:
        """Like :meth:`get` but a miss is an error — for callers that
        were promised the blob exists (worker boot, answering a NEED)."""
        payload = self.get(digest)
        if payload is None:
            raise SnapshotError(
                f"snapshot {digest[:12]}… is not in the store at {self.root} "
                "(evicted between scheduling and worker boot?)")
        return payload

    def restore(self, digest: str):
        """Restore the machine stored under ``digest`` — the one call
        worker processes and agents boot through.  A missing or stale
        blob is a :class:`~repro.kernel.serialize.SnapshotError`."""
        from repro.kernel.serialize import restore_kernel

        return restore_kernel(self.load(digest))

    # -- the world index ---------------------------------------------------

    def link_world(self, world_digest: str, snapshot_digest: str,
                   meta: "dict[str, Any] | None" = None) -> None:
        """Record that the world configuration hashing to ``world_digest``
        boots to the stored snapshot ``snapshot_digest``.  ``meta`` is
        plain data carried alongside (fixture values, build-time op
        totals) — whatever a store boot needs to fully reconstitute a
        :class:`repro.api.World` without running its build steps."""
        record = {"snapshot": snapshot_digest, "meta": dict(meta or {})}
        self._atomic_write(self._worlds / f"{world_digest}{_LINK_SUFFIX}",
                           pickle.dumps(record, protocol=SNAPSHOT_PROTOCOL))

    def resolve_world(self, world_digest: str) -> "tuple[str, dict] | None":
        """(snapshot digest, meta) for a linked world, or ``None`` when
        the world was never linked — or its blob has since been evicted
        (a dangling link counts as a miss and is left for ``gc``)."""
        path = self._worlds / f"{world_digest}{_LINK_SUFFIX}"
        try:
            record = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        except Exception:
            # A torn/corrupt link is a cache miss, never an error: the
            # caller rebuilds and re-links over it.
            self.stats["misses"] += 1
            return None
        snapshot = record["snapshot"]
        if not self.has(snapshot):
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return snapshot, record["meta"]

    def world_links(self) -> dict[str, str]:
        """world digest -> snapshot digest, for every readable link."""
        links: dict[str, str] = {}
        for path in sorted(self._worlds.glob(f"*{_LINK_SUFFIX}")):
            try:
                links[path.name[: -len(_LINK_SUFFIX)]] = \
                    pickle.loads(path.read_bytes())["snapshot"]
            except Exception:
                continue
        return links

    # -- inspection / maintenance ------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every blob, stalest first (the eviction order)."""
        links = self.world_links()
        by_blob: dict[str, list[str]] = {}
        for world, snapshot in links.items():
            by_blob.setdefault(snapshot, []).append(world)
        out = []
        for path, stat in self._blobs_stalest_first():
            digest = path.name[: -len(_BLOB_SUFFIX)]
            out.append(StoreEntry(digest, stat.st_size, stat.st_mtime,
                                  tuple(sorted(by_blob.get(digest, ())))))
        return out

    def gc(self, keep: "int | None" = None) -> list[str]:
        """Evict stalest blobs beyond ``keep`` (default: ``max_blobs``)
        and drop world links whose blob is gone.  Returns the evicted
        blob digests, stalest first."""
        limit = self.max_blobs if keep is None else max(keep, 0)
        evicted = self._evict(limit)
        for path in self._worlds.glob(f"*{_LINK_SUFFIX}"):
            try:
                snapshot = pickle.loads(path.read_bytes())["snapshot"]
            except Exception:
                snapshot = None
            if snapshot is None or not self.has(snapshot):
                path.unlink(missing_ok=True)
        return evicted

    def __len__(self) -> int:
        return sum(1 for _ in self._blobs.glob(f"*{_BLOB_SUFFIX}"))

    def __repr__(self) -> str:
        return f"<SnapshotStore {self.root} blobs={len(self)}>"

    # -- plumbing ----------------------------------------------------------

    def _blobs_stalest_first(self) -> "list[tuple[Path, os.stat_result]]":
        """(path, stat) per blob, stalest first.  Each path is stat'ed
        once; a blob another process unlinked after the glob is skipped
        (N processes share one store with no locking)."""
        blobs = []
        for path in self._blobs.glob(f"*{_BLOB_SUFFIX}"):
            try:
                blobs.append((path, path.stat()))
            except FileNotFoundError:
                continue
        # mtime first, digest as the deterministic tie-break (filesystem
        # timestamps are coarse enough for same-second writes to tie).
        blobs.sort(key=lambda blob: (blob[1].st_mtime, blob[0].name))
        return blobs

    def _evict(self, limit: "int | None" = None) -> list[str]:
        """Drop the stalest blobs over ``limit`` (default:
        ``max_blobs``); returns their digests, stalest first."""
        limit = self.max_blobs if limit is None else limit
        blobs = self._blobs_stalest_first()
        evicted: list[str] = []
        for path, _stat in blobs[: max(len(blobs) - limit, 0)]:
            path.unlink(missing_ok=True)
            evicted.append(path.name[: -len(_BLOB_SUFFIX)])
            self.stats["evictions"] += 1
        return evicted

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass
