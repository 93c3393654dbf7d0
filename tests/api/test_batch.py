"""The Batch runner: per-job forks, determinism, and the result cache."""

from __future__ import annotations

import pytest

from repro.api import (
    Batch,
    ProcessExecutor,
    ScriptRegistry,
    SequentialExecutor,
    ThreadExecutor,
    World,
    clear_result_cache,
    result_cache_size,
)

WALK_AMBIENT = """\
#lang shill/ambient
docs = open_dir("~/Documents");
entries = contents(docs);
"""

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

WRITE_AMBIENT = """\
#lang shill/ambient
out = open_file("~/Documents/notes.txt");
append(out, "batched\\n");
"""


def _jpeg_world() -> World:
    return World().for_user("alice").with_jpeg_samples()


@pytest.fixture(autouse=True)
def _fresh_result_cache():
    clear_result_cache()
    yield
    clear_result_cache()


class TestBatchBasics:
    def test_results_in_submission_order(self):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        batch = (
            Batch(_jpeg_world(), scripts=registry, cache=False)
            .add(FIND_JPG_AMBIENT, name="find")
            .add(WALK_AMBIENT, name="walk")
        )
        results = batch.run()
        assert len(results) == 2
        assert "dog.jpg" in results[0].stdout
        assert results[1].stdout == ""
        assert all(r.ok for r in results)

    def test_jobs_run_against_isolated_forks(self):
        world = _jpeg_world()
        batch = Batch(world, cache=False)
        for i in range(3):
            batch.add(WRITE_AMBIENT, name=f"w{i}")
        results = batch.run()
        # Each job appended to its own fork: the base world's file is
        # untouched and every job saw the same starting state.
        assert world.read_file("/home/alice/Documents/notes.txt") == b"not a jpeg"
        assert len({r.fingerprint() for r in results}) == 1

    def test_per_user_jobs(self):
        whoami = '#lang shill/ambient\nh = open_dir("~");\nappend(stdout, path(h));\n'
        world = World().with_users("carol").with_jpeg_samples(owner="alice")
        batch = Batch(world, cache=False)
        batch.add(whoami, user="alice")
        batch.add(whoami, user="carol")
        alice_run, carol_run = batch.run()
        assert alice_run.stdout == "/home/alice"
        assert carol_run.stdout == "/home/carol"

    def test_batch_requires_a_world(self):
        from repro.kernel.kernel import Kernel

        with pytest.raises(TypeError):
            Batch(Kernel())

    def test_ops_are_captured_per_run(self):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        [result] = Batch(_jpeg_world(), scripts=registry).add(FIND_JPG_AMBIENT).run()
        assert result.ops["vnode_ops"] > 0

    def test_failing_job_does_not_abort_siblings(self):
        """A script error becomes a failed RunResult; other jobs keep
        their results (they run on isolated forks anyway)."""
        bad = '#lang shill/ambient\nx = open_file("/does/not/exist");\n'
        batch = (
            Batch(_jpeg_world(), cache=False)
            .add(WALK_AMBIENT, name="good")
            .add(bad, name="bad")
            .add(WALK_AMBIENT, name="good2")
        )
        good, failed, good2 = batch.run()
        assert good.ok and good2.ok
        assert failed.status == 1 and "SysError" in failed.stderr
        # ...and failures are deterministic like any other result
        with ThreadExecutor(workers=3) as executor:
            parallel = (
                Batch(_jpeg_world(), cache=False)
                .add(WALK_AMBIENT, name="good").add(bad, name="bad")
                .add(WALK_AMBIENT, name="good2")
                .run(executor=executor)
            )
        assert [r.fingerprint() for r in parallel] == \
            [r.fingerprint() for r in (good, failed, good2)]

    def test_malformed_number_literal_is_a_failed_result(self):
        """A literal float()/int() refuses is a syntax error of its job,
        not an engine failure that aborts the batch."""
        bad = "#lang shill/ambient\nx = 1.2.3;\n"
        failed, good = (Batch(_jpeg_world(), cache=False)
                        .add(bad, name="bad").add(WALK_AMBIENT, name="good")
                        .run())
        assert failed.status == 1
        assert "<batch>:2:5: malformed number literal '1.2.3'" in failed.stderr
        assert good.ok

    def test_unknown_user_job_is_isolated_too(self):
        """An unknown job user fails that job alone (there is no session
        to snapshot, so only the error is reported)."""
        batch = (
            Batch(_jpeg_world(), cache=False)
            .add(WALK_AMBIENT, user="alice")
            .add(WALK_AMBIENT, user="nosuchuser")
        )
        good, failed = batch.run()
        assert good.ok
        assert failed.status == 1 and "no such user" in failed.stderr


class TestDeterminism:
    def _results(self, threaded: bool):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        batch = Batch(_jpeg_world(), scripts=registry, cache=False)
        for i in range(8):
            batch.add(FIND_JPG_AMBIENT, user="alice", name=f"find{i}")
            batch.add(WALK_AMBIENT, user="alice", name=f"walk{i}")
        with ThreadExecutor(workers=4) if threaded else SequentialExecutor() as executor:
            return batch.run(executor=executor)

    def test_parallel_matches_sequential_byte_for_byte(self):
        clear_result_cache()
        sequential = self._results(threaded=False)
        clear_result_cache()
        parallel = self._results(threaded=True)
        assert [r.fingerprint() for r in parallel] == \
            [r.fingerprint() for r in sequential]

    def test_repeat_runs_are_identical(self):
        clear_result_cache()
        first = self._results(threaded=False)
        clear_result_cache()
        second = self._results(threaded=False)
        assert [r.fingerprint() for r in first] == \
            [r.fingerprint() for r in second]


class TestResultCache:
    def test_identical_jobs_hit_the_cache(self):
        batch = Batch(_jpeg_world())
        for i in range(5):
            batch.add(WALK_AMBIENT, name=f"j{i}")
        batch.run()
        stats = batch.stats
        assert stats == {"jobs": 5, "cache_hits": 4, "forks": 1}
        assert result_cache_size() == 1

    def test_cache_shared_across_batches_with_equal_worlds(self):
        Batch(_jpeg_world()).add(WALK_AMBIENT).run()
        second = Batch(_jpeg_world()).add(WALK_AMBIENT).run()
        batch = Batch(_jpeg_world()).add(WALK_AMBIENT)
        assert batch.run() == second
        assert batch.stats["cache_hits"] == 1

    def test_mutated_world_results_never_enter_the_cache(self):
        world = _jpeg_world().boot()
        world.write_file("/tmp/dirty", b"x")
        batch = Batch(world).add(WALK_AMBIENT).add(WALK_AMBIENT)
        batch.run()
        # Identical queued jobs still dedup within the batch (they fork
        # the same drifted kernel), but nothing lands in the shared
        # cache: the results no longer describe the template digest.
        assert batch.stats["cache_hits"] == 1
        assert result_cache_size() == 0

    def test_cache_distinguishes_users_scripts_and_worlds(self):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        Batch(_jpeg_world(), scripts=registry).add(FIND_JPG_AMBIENT).run()
        assert result_cache_size() == 1
        # Different registered scripts -> different key (even same source).
        other = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP + "\n# v2\n")
        Batch(_jpeg_world(), scripts=other).add(FIND_JPG_AMBIENT).run()
        assert result_cache_size() == 2
        # Different world config -> different key.
        Batch(World().for_user("tester").with_jpeg_samples(),
              scripts=registry).add(FIND_JPG_AMBIENT).run()
        assert result_cache_size() == 3

    def test_cache_disabled(self):
        batch = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT).add(WALK_AMBIENT)
        batch.run()
        assert batch.stats == {"jobs": 2, "cache_hits": 0, "forks": 2}
        assert result_cache_size() == 0


class TestDependencyAwareCache:
    """The dependency-aware verdict probe: cached results survive world
    mutations that provably cannot intersect their static footprint."""

    def test_disjoint_patch_serves_from_cache_with_zero_kernel_ops(self):
        world = _jpeg_world()
        [first] = Batch(world).add(WALK_AMBIENT, name="walk").run()
        world.patch_file("/tmp/unrelated.txt", b"disjoint mutation")
        assert not world.pristine
        batch = Batch(world).add(WALK_AMBIENT, name="walk")
        before = world.kernel.stats.snapshot()
        [second] = batch.run()
        after = world.kernel.stats.snapshot()
        assert batch.verdicts == {0: "hit"}
        assert batch.stats["cache_hits"] == 1
        assert second.fingerprint() == first.fingerprint()
        # The whole answer came from the cache: no fork, and not one
        # kernel op moved on the live world.
        assert batch.stats["forks"] == 0
        nonzero = {k: v
                   for k, v in world.kernel.stats.delta(before, after).items()
                   if v}
        assert nonzero == {}

    def test_intersecting_patch_invalidates_with_blame(self):
        world = _jpeg_world()
        Batch(world).add(WALK_AMBIENT, name="walk").run()
        world.patch_file("/home/alice/Documents/extra.jpg", b"jpegdata")
        batch = Batch(world).add(WALK_AMBIENT, name="walk")
        batch.run()
        assert batch.verdicts[0] == \
            "invalidated-by:/home/alice/Documents/extra.jpg"
        assert batch.stats["cache_hits"] == 0
        assert batch.cache_report["invalidated"] == 1

    def test_invalidated_result_reflects_the_mutation(self):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        world = _jpeg_world()
        [first] = (Batch(world, scripts=registry)
                   .add(FIND_JPG_AMBIENT, name="find").run())
        world.patch_file("/home/alice/Documents/extra.jpg", b"jpegdata")
        [second] = (Batch(world, scripts=registry)
                    .add(FIND_JPG_AMBIENT, name="find").run())
        assert "extra.jpg" not in first.stdout
        assert "extra.jpg" in second.stdout

    def test_process_spawning_mutation_invalidates_as_drift(self):
        world = _jpeg_world()
        Batch(world).add(WALK_AMBIENT, name="walk").run()
        world.write_file("/tmp/unrelated.txt", b"x")  # spawns a process
        batch = Batch(world).add(WALK_AMBIENT, name="walk")
        batch.run()
        assert batch.verdicts[0].startswith("invalidated-by:")
        assert batch.stats["cache_hits"] == 0

    def test_unresolved_require_is_uncacheable(self):
        world = _jpeg_world()
        source = 'require "nowhere.cap";\n'
        ambient = "#lang shill/ambient\n" + source
        Batch(world).add(ambient, name="mystery").run()
        world.patch_file("/tmp/unrelated.txt", b"x")
        batch = Batch(world).add(ambient, name="mystery")
        batch.run()
        assert batch.verdicts[0].startswith("uncacheable:")
        assert batch.cache_report["uncacheable"] == 1

    def test_soundness_escape_invalidates_and_audits(self):
        from repro.api import batch as batch_mod

        world = _jpeg_world()
        [_] = Batch(world).add(WALK_AMBIENT, name="walk").run()
        # Forge an under-declared contract: tamper with the recorded
        # touched set so one touch falls outside the static footprint.
        [(key, (stored, _touched))] = list(batch_mod._RESULT_CACHE._data.items())
        batch_mod._RESULT_CACHE._data[key] = (stored, (("read", "/etc/passwd"),))
        world.patch_file("/tmp/unrelated.txt", b"disjoint mutation")
        batch = Batch(world).add(WALK_AMBIENT, name="walk")
        batch.run()
        assert batch.verdicts[0] == "invalidated-by:escape:read:/etc/passwd"
        assert batch.stats["cache_hits"] == 0
        [event] = batch.audit_events
        assert "escaped the static footprint" in event and "walk" in event

    def test_verdicts_identical_across_executors(self):
        fingerprints = {}
        verdicts = {}
        for executor in (SequentialExecutor(), ThreadExecutor(), ProcessExecutor()):
            name = executor.name
            clear_result_cache()
            world = _jpeg_world()
            with executor:
                Batch(world).add(WALK_AMBIENT, name="walk").run(executor=executor)
                world.patch_file("/tmp/unrelated.txt", b"disjoint mutation")
                batch = Batch(world).add(WALK_AMBIENT, name="walk")
                [result] = batch.run(executor=executor)
            verdicts[name] = batch.verdicts[0]
            fingerprints[name] = result.fingerprint()
        assert set(verdicts.values()) == {"hit"}
        assert len(set(fingerprints.values())) == 1
