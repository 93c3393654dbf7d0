"""The persistent snapshot store: blobs, the world index, LRU, stats."""

from __future__ import annotations

import hashlib
import os
import pickle

import pytest

from repro.kernel.store import SnapshotStore, default_store_root


@pytest.fixture()
def store(tmp_path) -> SnapshotStore:
    return SnapshotStore(tmp_path / "store", max_blobs=4)


def _age(store: SnapshotStore, digest: str, seconds: float) -> None:
    """Backdate a blob's mtime (filesystem timestamps are too coarse for
    LRU tests to rely on write order alone)."""
    path = store.blob_path(digest)
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


class TestBlobs:
    def test_put_is_content_addressed(self, store):
        payload = b"snapshot-bytes"
        digest = store.put(payload)
        assert digest == hashlib.sha256(payload).hexdigest()
        assert store.get(digest) == payload
        assert store.has(digest)

    def test_put_is_idempotent(self, store):
        digest = store.put(b"x")
        assert store.put(b"x") == digest
        assert len(store) == 1
        assert store.stats["writes"] == 1

    def test_get_miss_returns_none_and_counts(self, store):
        assert store.get("0" * 64) is None
        assert store.stats == {"hits": 0, "misses": 1, "writes": 0, "evictions": 0}
        digest = store.put(b"x")
        store.get(digest)
        assert store.stats["hits"] == 1

    def test_load_raises_on_missing_blob(self, store):
        from repro.kernel.serialize import SnapshotError

        with pytest.raises(SnapshotError, match="not in the store"):
            store.load("f" * 64)

    def test_no_temp_files_left_behind(self, store):
        store.put(b"a")
        store.put(b"b")
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_reopening_sees_existing_blobs(self, store):
        digest = store.put(b"persisted")
        reopened = SnapshotStore(store.root, max_blobs=4)
        assert reopened.get(digest) == b"persisted"


class TestEviction:
    def test_cap_evicts_stalest_first(self, store):
        digests = [store.put(bytes([i])) for i in range(4)]
        for offset, digest in enumerate(digests):
            _age(store, digest, 100 - offset * 10)  # digests[0] is stalest
        store.put(b"one-too-many")
        assert len(store) == 4
        assert not store.has(digests[0])
        assert all(store.has(d) for d in digests[1:])
        assert store.stats["evictions"] == 1

    def test_get_refreshes_lru_position(self, store):
        digests = [store.put(bytes([i])) for i in range(4)]
        for offset, digest in enumerate(digests):
            _age(store, digest, 100 - offset * 10)
        store.get(digests[0])  # refresh the stalest
        store.put(b"one-too-many")
        assert store.has(digests[0])
        assert not store.has(digests[1])

    def test_gc_keep(self, store):
        for i in range(4):
            digest = store.put(bytes([i]))
            _age(store, digest, 100 - i * 10)
        evicted = store.gc(keep=1)
        assert len(evicted) == 3
        assert len(store) == 1

    def test_max_blobs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, max_blobs=0)

    def test_a_blob_removed_by_another_process_is_skipped(self, store,
                                                          monkeypatch):
        """N processes share a store with no locking: a blob another
        process unlinks between the glob and the stat (a racing
        evictor, ``repro store gc``) must not fail ``put`` or
        ``entries``."""
        from pathlib import Path

        gone = store.blob_path(store.put(b"removed elsewhere"))
        gone.unlink()
        digests = [store.put(bytes([i])) for i in range(4)]
        for offset, digest in enumerate(digests):
            _age(store, digest, 100 - offset * 10)  # digests[0] is stalest
        glob = Path.glob
        monkeypatch.setattr(
            Path, "glob", lambda self, pattern: [*glob(self, pattern), gone])
        store.put(b"one-too-many")
        assert not store.has(digests[0])
        assert all(store.has(d) for d in digests[1:])
        assert [e.digest for e in store.entries()][:3] == digests[1:]


class TestWorldIndex:
    def test_link_and_resolve(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot, meta={"fixtures": {"jpeg": 2}})
        resolved = store.resolve_world("w" * 64)
        assert resolved is not None
        digest, meta = resolved
        assert digest == snapshot
        assert meta == {"fixtures": {"jpeg": 2}}

    def test_unlinked_world_is_a_miss(self, store):
        assert store.resolve_world("nope") is None
        assert store.stats["misses"] == 1

    def test_dangling_link_is_a_miss_and_gc_prunes_it(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot)
        store.blob_path(snapshot).unlink()
        assert store.resolve_world("w" * 64) is None
        store.gc()
        assert store.world_links() == {}

    def test_corrupt_link_is_a_miss(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot)
        (store.root / "worlds" / ("w" * 64 + ".link")).write_bytes(b"garbage")
        assert store.resolve_world("w" * 64) is None

    def test_relink_overwrites(self, store):
        first = store.put(b"one")
        second = store.put(b"two")
        store.link_world("w", first)
        store.link_world("w", second)
        resolved = store.resolve_world("w")
        assert resolved is not None and resolved[0] == second

    def test_link_meta_round_trips_plain_data(self, store):
        snapshot = store.put(b"machine")
        meta = {"stats": {"vnode_ops": 123}, "default_user": "alice",
                "fixtures": {"blob": b"\x00\x01"}}
        store.link_world("w", snapshot, meta=meta)
        _digest, loaded = store.resolve_world("w")
        assert loaded == meta
        assert pickle.dumps(loaded)  # stays plain data


class TestInspection:
    def test_entries_report_size_and_worlds(self, store):
        snapshot = store.put(b"machine-bytes")
        store.link_world("wd1", snapshot)
        store.link_world("wd2", snapshot)
        [entry] = store.entries()
        assert entry.digest == snapshot
        assert entry.size == len(b"machine-bytes")
        assert entry.worlds == ("wd1", "wd2")

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert default_store_root() == tmp_path / "envstore"
        store = SnapshotStore()
        assert store.root == tmp_path / "envstore"
