"""The Executor protocol: pluggable strategies behind one Batch façade.

Pins the redesign's contracts: every executor produces byte-identical
fingerprint lists; ``stream``/``as_completed`` surface results as
futures land (submission order vs completion order); engine failures
propagate as :class:`BatchExecutionError` with job attribution through
every consumption shape; the result cache is injectable; and the store
executor boots a second process's world straight from disk.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import (
    Batch,
    BatchExecutionError,
    BoundedCache,
    ProcessExecutor,
    ScriptRegistry,
    SequentialExecutor,
    SnapshotStore,
    StoreExecutor,
    ThreadExecutor,
    World,
    clear_boot_cache,
    clear_result_cache,
    result_cache_size,
)
from repro.api.executors import ExecutorJob, JobTemplate

WALK_AMBIENT = """\
#lang shill/ambient
docs = open_dir("~/Documents");
entries = contents(docs);
"""

HELLO_AMBIENT = '#lang shill/ambient\nappend(stdout, "hello\\n");\n'

FIND_JPG_CAP = """\
#lang shill/cap
provide find_jpg :
  {cur : dir(+contents, +lookup, +path) \\/ file(+path),
   out : file(+append)} -> void;
find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "jpg") then
    append(out, path(cur) + "\\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then find_jpg(child, out);
    }
}
"""

FIND_JPG_AMBIENT = """\
#lang shill/ambient
require "find_jpg.cap";
docs = open_dir("~/Documents");
find_jpg(docs, stdout);
"""


def _jpeg_world() -> World:
    return World().for_user("alice").with_jpeg_samples()


@pytest.fixture(autouse=True)
def _fresh_result_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def _executors(tmp_path):
    return {
        "sequential": SequentialExecutor(),
        "thread": ThreadExecutor(workers=2),
        "process": ProcessExecutor(workers=2),
        "store": StoreExecutor(store=SnapshotStore(tmp_path / "store"), workers=2),
    }


class TestProtocol:
    def test_submit_requires_bind(self):
        with pytest.raises(RuntimeError, match="not bound"):
            SequentialExecutor().submit(
                ExecutorJob(index=0, name="j", source=HELLO_AMBIENT))

    def test_executor_submit_as_completed_directly(self):
        """The raw protocol, no Batch: bind, submit, drain handles."""
        world = _jpeg_world().boot()
        with ThreadExecutor(workers=2) as executor:
            executor.bind(JobTemplate.for_world(world))
            handles = [executor.submit(ExecutorJob(index=i, name=f"j{i}",
                                                   source=HELLO_AMBIENT))
                       for i in range(3)]
            seen = {h.index: h.result() for h in executor.as_completed()}
        assert sorted(seen) == [0, 1, 2]
        assert all(seen[i].stdout == "hello\n" for i in seen)
        assert all(h.done() for h in handles)

    def test_executor_map_in_submission_order(self):
        world = _jpeg_world().boot()
        with SequentialExecutor() as executor:
            executor.bind(JobTemplate.for_world(world))
            jobs = [ExecutorJob(index=i, name=f"j{i}", source=HELLO_AMBIENT)
                    for i in range(3)]
            results = executor.map(jobs)
        assert [r.stdout for r in results] == ["hello\n"] * 3


class TestEquivalence:
    def test_all_executors_fingerprint_identically(self, tmp_path):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)

        def run(executor):
            clear_result_cache()
            batch = Batch(_jpeg_world(), scripts=registry, cache=False)
            for i in range(4):
                batch.add(FIND_JPG_AMBIENT, name=f"find{i}")
                batch.add(WALK_AMBIENT, name=f"walk{i}")
            with executor:
                return batch.run(executor=executor)

        executors = _executors(tmp_path)
        baseline = run(executors.pop("sequential"))
        assert "dog.jpg" in baseline[0].stdout
        for name, executor in executors.items():
            assert [r.fingerprint() for r in run(executor)] == \
                [r.fingerprint() for r in baseline], name


LOCAL_EXECUTORS = (SequentialExecutor, ThreadExecutor, ProcessExecutor)
LOCAL_IDS = [make.name for make in LOCAL_EXECUTORS]


class TestStreaming:
    def _batch(self, n=4):
        batch = Batch(_jpeg_world(), cache=False)
        for i in range(n):
            batch.add(HELLO_AMBIENT if i % 2 else WALK_AMBIENT, name=f"j{i}")
        return batch

    @pytest.mark.parametrize("make", LOCAL_EXECUTORS, ids=LOCAL_IDS)
    def test_stream_matches_run_in_submission_order(self, make):
        with make(workers=2) as executor:
            expected = [r.fingerprint() for r in self._batch().run(executor=executor)]
            streamed = list(self._batch().stream(executor=executor))
        assert [r.fingerprint() for r in streamed] == expected

    def test_stream_is_an_iterator_not_a_list(self):
        stream = self._batch().stream()
        assert iter(stream) is stream
        first = next(stream)
        assert first is not None
        rest = list(stream)
        assert len(rest) == 3

    @pytest.mark.parametrize("make", LOCAL_EXECUTORS, ids=LOCAL_IDS)
    def test_as_completed_yields_every_job_with_attribution(self, make):
        batch = self._batch()
        with make(workers=2) as executor:
            pairs = list(batch.as_completed(executor=executor))
        assert {job.name for job, _result in pairs} == {f"j{i}" for i in range(4)}
        by_name = {job.name: result for job, result in pairs}
        expected = self._batch().run()
        for i in range(4):
            assert by_name[f"j{i}"].fingerprint() == expected[i].fingerprint()

    def test_as_completed_serves_cache_hits_first(self):
        Batch(_jpeg_world()).add(WALK_AMBIENT).run()
        batch = Batch(_jpeg_world()).add(HELLO_AMBIENT, name="fresh") \
                                    .add(WALK_AMBIENT, name="cached")
        pairs = list(batch.as_completed())
        assert [job.name for job, _ in pairs] == ["cached", "fresh"]
        assert batch.stats["cache_hits"] == 1


class TestFailureSurfacing:
    """Satellite: BatchExecutionError attribution through the streaming
    shapes, on both in-process and process executors."""

    @pytest.fixture()
    def _exploding_session(self, monkeypatch):
        from repro.api import sessions

        real = sessions.Session.run_ambient

        def maybe_explode(self, source, name="<ambient>"):
            if "BOOM" in source:
                raise RuntimeError("engine bug")
            return real(self, source, name)

        monkeypatch.setattr(sessions.Session, "run_ambient", maybe_explode)

    def _batch(self):
        return (Batch(_jpeg_world(), cache=False)
                .add(WALK_AMBIENT, name="good")
                .add("# BOOM\n" + WALK_AMBIENT, name="boom")
                .add(WALK_AMBIENT, name="good2"))

    def test_stream_propagates_engine_error_with_job_id(self, _exploding_session):
        received = []
        with pytest.raises(BatchExecutionError) as excinfo:
            for result in self._batch().stream():
                received.append(result)
        assert excinfo.value.job_name == "boom"
        assert excinfo.value.user == "alice"
        assert "RuntimeError: engine bug" in excinfo.value.traceback_text
        # Results before the failing job streamed out before the raise.
        assert len(received) == 1 and received[0].ok

    def test_as_completed_drains_siblings_then_raises(self, _exploding_session):
        received = []
        with pytest.raises(BatchExecutionError) as excinfo:
            for job, result in self._batch().as_completed():
                received.append((job.name, result.ok))
        assert excinfo.value.job_name == "boom"
        assert ("good", True) in received and ("good2", True) in received

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="relies on fork-start workers inheriting the patch")
    def test_stream_propagates_worker_engine_error(self, _exploding_session):
        with pytest.raises(BatchExecutionError) as excinfo, \
                ProcessExecutor(workers=2) as executor:
            list(self._batch().stream(executor=executor))
        assert excinfo.value.job_name == "boom"
        assert "RuntimeError: engine bug" in excinfo.value.traceback_text


class TestInjectableResultCache:
    """Satellite: Batch(result_cache=...) isolates shared state."""

    def test_private_cache_leaves_module_cache_untouched(self):
        private = BoundedCache(128)
        batch = Batch(_jpeg_world(), result_cache=private)
        for i in range(3):
            batch.add(WALK_AMBIENT, name=f"j{i}")
        batch.run()
        assert batch.stats == {"jobs": 3, "cache_hits": 2, "forks": 1}
        assert len(private) == 1
        assert result_cache_size() == 0

    def test_private_cache_is_shared_across_batches_by_handle(self):
        private = BoundedCache(128)
        Batch(_jpeg_world(), result_cache=private).add(WALK_AMBIENT).run()
        second = Batch(_jpeg_world(), result_cache=private).add(WALK_AMBIENT)
        second.run()
        assert second.stats["cache_hits"] == 1

    def test_module_cache_does_not_serve_private_batches(self):
        Batch(_jpeg_world()).add(WALK_AMBIENT).run()
        assert result_cache_size() == 1
        private = Batch(_jpeg_world(), result_cache=BoundedCache(8)).add(WALK_AMBIENT)
        private.run()
        assert private.stats["cache_hits"] == 0


class TestStoreExecutor:
    def test_cold_boot_builds_and_links(self, tmp_path):
        clear_boot_cache()
        store = SnapshotStore(tmp_path / "store")
        executor = StoreExecutor(store=store, workers=2)
        with executor:
            [result] = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                        .run(executor=executor)
        assert result.ok
        assert executor.boot_info.source in ("build", "booted")
        assert len(store) == 1
        assert len(store.world_links()) == 1

    def test_second_boot_comes_from_disk_with_zero_build_ops(self, tmp_path):
        """The acceptance criterion, in-process: same world digest, fresh
        boot caches (as a new process would have) — the template restores
        from the store and performs no template-build kernel ops."""
        clear_boot_cache()
        store = SnapshotStore(tmp_path / "store")
        first = StoreExecutor(store=store, workers=2)
        with first:
            cold = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                    .run(executor=first)
        assert first.boot_info.source == "build"
        assert first.boot_info.build_ops_total > 0

        clear_boot_cache()   # forget the in-process template...
        clear_result_cache()
        second = StoreExecutor(store=store, workers=2)
        with second:
            warm = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                    .run(executor=second)
        assert second.boot_info.source == "store"
        assert second.boot_info.build_ops == \
            {key: 0 for key in second.boot_info.build_ops}
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]

    def test_store_worlds_reuse_in_process_boot_cache_afterwards(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with StoreExecutor(store=store) as executor:
            Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT).run(executor=executor)
        clear_boot_cache()
        with StoreExecutor(store=store) as executor:
            executor.prepare(_jpeg_world())
            assert executor.boot_info.source == "store"
        # ...and the adopted template now serves plain boots too.
        world = _jpeg_world().boot()
        assert world.pristine

    def test_mutated_world_is_never_linked_under_its_digest(self, tmp_path):
        """Regression: a post-boot mutation makes the machine something
        the config digest does not describe — the store must address it
        by content only, or every future boot of that configuration in
        a fresh process would silently receive the mutated image."""
        store = SnapshotStore(tmp_path / "store")
        world = _jpeg_world().boot()
        world.write_file("/tmp/dirty", b"x")
        assert not world.pristine
        with StoreExecutor(store=store, workers=2) as executor:
            [result] = Batch(world, cache=False).add(WALK_AMBIENT) \
                                                .run(executor=executor)
        assert result.ok
        assert store.world_links() == {}
        assert len(store) == 1  # the blob exists, content-addressed only

    def test_stale_world_version_links_are_misses(self, tmp_path):
        """Regression: a persistent store outliving a world-build code
        change must not serve images built by the old code — the link's
        version stamp turns them into misses."""
        from repro.world import WORLD_IMAGE_VERSION

        clear_boot_cache()
        store = SnapshotStore(tmp_path / "store")
        with StoreExecutor(store=store) as executor:
            executor.prepare(_jpeg_world())
        digest = _jpeg_world().digest
        snapshot, meta = store.resolve_world(digest)
        meta["world_version"] = WORLD_IMAGE_VERSION - 1
        store.link_world(digest, snapshot, meta)
        clear_boot_cache()
        with StoreExecutor(store=store) as executor:
            executor.prepare(_jpeg_world())
            assert executor.boot_info.source == "build"  # stale link ignored
        _snap, relinked = store.resolve_world(digest)
        assert relinked["world_version"] == WORLD_IMAGE_VERSION

    def test_prepare_reports_cached_for_warm_boot_cache(self):
        """A warm in-process boot cache forked the template — prepare
        must not claim the full build cost happened in this call."""
        clear_boot_cache()
        info = SequentialExecutor().prepare(_jpeg_world())
        assert info.source == "build" and info.build_ops_total > 0
        info2 = SequentialExecutor().prepare(_jpeg_world())
        assert info2.source == "cached" and info2.build_ops == {}

    def test_unpicklable_keyed_fixture_does_not_crash_store_runs(self, tmp_path):
        """Regression: a keyed setup fixture that cannot pickle (a
        lambda) must not abort a script batch — script jobs never read
        fixtures, so the value is simply absent from workers and links."""
        store = SnapshotStore(tmp_path / "store")
        world = _jpeg_world().with_setup(lambda kernel: (lambda: 42), key="cb")
        assert world.digest is not None
        with StoreExecutor(store=store, workers=2) as executor:
            [result] = Batch(world, cache=False).add(WALK_AMBIENT) \
                                                .run(executor=executor)
        assert result.ok
        # The link exists, just without the exotic fixture record.
        [(_wd, _snap)] = store.world_links().items()
        _digest, meta = store.resolve_world(world.digest)
        assert meta["fixtures"] == {}

    def test_undigestible_world_still_runs_via_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        world = _jpeg_world().with_setup(lambda kernel: None)
        assert world.digest is None
        with StoreExecutor(store=store, workers=2) as executor:
            [result] = Batch(world, cache=False).add(WALK_AMBIENT) \
                                                .run(executor=executor)
        assert result.ok
        assert store.world_links() == {}  # nothing to key a link on

    def test_adopt_template_requires_digest_and_unbooted(self, tmp_path):
        from repro.kernel.kernel import Kernel

        with pytest.raises(ValueError, match="digestible"):
            _jpeg_world().with_setup(lambda k: None).adopt_template(Kernel())
        booted = _jpeg_world().boot()
        with pytest.raises(RuntimeError, match="already booted"):
            booted.adopt_template(Kernel())


class TestExecutorReuse:
    def test_one_process_executor_serves_many_batches(self):
        with ProcessExecutor(workers=2) as executor:
            first = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                     .run(executor=executor)
            second = Batch(_jpeg_world(), cache=False).add(HELLO_AMBIENT) \
                                                      .run(executor=executor)
        assert first[0].ok and second[0].stdout == "hello\n"

    def test_rebinding_with_different_scripts_rebuilds_workers(self):
        """Regression: the worker pool bakes in the script registry at
        init, so a same-world batch with *different* scripts must not
        reuse stale workers (its `require` would miss)."""
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        with ProcessExecutor(workers=2) as executor:
            [bare] = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                      .run(executor=executor)
            [scripted] = (Batch(_jpeg_world(), scripts=registry, cache=False)
                          .add(FIND_JPG_AMBIENT).run(executor=executor))
        assert bare.ok
        assert scripted.ok, scripted.stderr
        assert "dog.jpg" in scripted.stdout

    def test_pool_map_accepts_executor_instances(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        world = _jpeg_world()
        with StoreExecutor(store=store, workers=2) as executor:
            results = world.pool(workers=2).map(_count_docs, executor=executor)
        assert results == [2, 2]

    def test_pool_map_process_failures_are_typed(self):
        pool = _jpeg_world().pool(workers=1)
        with pytest.raises(BatchExecutionError, match="map0"), \
                ProcessExecutor(workers=1) as executor:
            pool.map(_boom, executor=executor)

    def test_shared_executor_batches_do_not_swallow_each_other(self):
        """Regression: Batch drains exactly its own handles, so a
        caller's direct submission (or a sibling batch's) survives the
        batch run on a shared executor."""
        world = _jpeg_world().boot()
        with ThreadExecutor(workers=2) as executor:
            executor.bind(JobTemplate.for_world(world))
            mine = executor.submit(ExecutorJob(index=0, name="mine",
                                               source=HELLO_AMBIENT))
            results = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT) \
                                                       .add(WALK_AMBIENT) \
                                                       .run(executor=executor)
            drained = list(executor.as_completed())
        assert len(results) == 2
        assert [h.job.name for h in drained] == ["mine"]
        assert mine.result().stdout == "hello\n"

    def test_two_batches_interleaved_on_one_executor(self):
        """Two as_completed streams over one executor each see exactly
        their own jobs."""
        with ThreadExecutor(workers=2) as executor:
            a = Batch(_jpeg_world(), cache=False)
            b = Batch(_jpeg_world(), cache=False)
            for i in range(3):
                a.add(HELLO_AMBIENT, name=f"a{i}")
                b.add(WALK_AMBIENT, name=f"b{i}")
            stream_a = a.as_completed(executor=executor)
            stream_b = b.as_completed(executor=executor)
            got_a = [job.name for job, _r in stream_a]
            got_b = [job.name for job, _r in stream_b]
        assert sorted(got_a) == ["a0", "a1", "a2"]
        assert sorted(got_b) == ["b0", "b1", "b2"]

    def test_job_raised_timeout_error_is_a_typed_failure(self):
        """Regression: with no wait-timeout, a TimeoutError out of the
        job itself is a job failure, not a protocol timeout."""
        world = _jpeg_world().boot()
        with ThreadExecutor(workers=1) as executor:
            executor.bind(JobTemplate.for_world(world))
            handle = executor.submit(ExecutorJob(index=0, name="timeouty",
                                                 fn=_raise_timeout))
            with pytest.raises(BatchExecutionError, match="timeouty"):
                handle.result()

    def test_concurrent_first_submits_build_one_thread_pool(self, monkeypatch):
        """Regression: owners may share an executor across threads, so
        first submits that race must build one pool — close() shuts down
        only the pool it holds, and any other would keep running."""
        import threading
        import time

        from repro.api.executors import local

        built = []

        class SlowPool(local.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.05)   # widen the check-then-create window
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(local, "ThreadPoolExecutor", SlowPool)
        executor = ThreadExecutor(workers=2)
        executor.bind(JobTemplate.for_world(_jpeg_world().boot()))
        barrier = threading.Barrier(4, timeout=10)
        handles = []

        def first_submit(index):
            barrier.wait()
            handles.append(executor.submit(ExecutorJob(
                index=index, name=f"j{index}", source=HELLO_AMBIENT)))

        threads = [threading.Thread(target=first_submit, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert [h.result(timeout=10).stdout for h in handles] == ["hello\n"] * 4
        executor.close()
        assert len(built) == 1
        assert all(pool._shutdown for pool in built)


def _count_docs(world: World) -> int:
    return len(world.syscalls().contents("/home/alice/Documents"))


def _boom(world: World) -> None:
    raise RuntimeError("mapped function failed")


def _raise_timeout(world: World) -> None:
    raise TimeoutError("simulated network timeout inside the job")
