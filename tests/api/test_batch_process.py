"""The process executor: GIL-free batches with byte-identical results.

``Batch(...).run(executor=ProcessExecutor())`` snapshots the booted
template once into a store of its own, fans the (script, user) jobs out
to worker processes that restore-and-fork locally, and merges frozen
results home in submission order.  These tests pin the contract: fingerprints identical to the
sequential executor for every case-study world, result caching and op
counters working across the process boundary, and typed errors that
name the failing job.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import (
    Batch,
    BatchExecutionError,
    ProcessExecutor,
    RunResult,
    ScriptRegistry,
    SequentialExecutor,
    ThreadExecutor,
    World,
    clear_result_cache,
)
from repro.casestudies.probes import case_study_batches

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

#: One probe batch per case-study world (each module's ``probe_batch``
#: queues straight-line jobs touching that world's fixture), so the jobs
#: observe fixture state across the process boundary.  The table is
#: shared with the benchmark equivalence gate — same worlds, one place.
CASE_STUDY_BATCHES = case_study_batches()


@pytest.fixture(autouse=True)
def _fresh_result_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def _jpeg_world() -> World:
    return World().for_user("alice").with_jpeg_samples()


def _run_on(executor, batch: Batch) -> list[RunResult]:
    """``batch`` on an executor this call owns and closes."""
    with executor:
        return batch.run(executor=executor)


class TestProcessBackendDeterminism:
    @pytest.mark.parametrize("name", sorted(CASE_STUDY_BATCHES))
    def test_process_matches_sequential_for_case_study_worlds(self, name):
        """The acceptance criterion: byte-identical fingerprint lists for
        all four case-study worlds."""
        build = CASE_STUDY_BATCHES[name]

        def run(executor):
            clear_result_cache()
            return _run_on(executor, build())

        sequential = run(SequentialExecutor())
        process = run(ProcessExecutor(workers=2))
        assert all(r.ok for r in sequential), sequential[0].stderr
        assert [r.fingerprint() for r in process] == \
            [r.fingerprint() for r in sequential]

    def test_all_three_backends_agree_with_scripts(self):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)

        def run(executor):
            clear_result_cache()
            batch = Batch(_jpeg_world(), scripts=registry, cache=False)
            for i in range(4):
                batch.add(FIND_JPG_AMBIENT, name=f"find{i}")
                batch.add(WALK_AMBIENT, name=f"walk{i}")
            return _run_on(executor, batch)

        sequential = run(SequentialExecutor())
        for executor in (ThreadExecutor(workers=2), ProcessExecutor(workers=2)):
            assert [r.fingerprint() for r in run(executor)] == \
                [r.fingerprint() for r in sequential], executor.name
        assert "dog.jpg" in sequential[0].stdout

    def test_failed_jobs_are_deterministic_across_the_boundary(self):
        bad = '#lang shill/ambient\nx = open_file("/does/not/exist");\n'

        def run(executor):
            clear_result_cache()
            return _run_on(executor, Batch(_jpeg_world(), cache=False)
                           .add(WALK_AMBIENT, name="good")
                           .add(bad, name="bad"))

        good_s, bad_s = run(SequentialExecutor())
        good_p, bad_p = run(ProcessExecutor())
        assert bad_s.status == 1 and "SysError" in bad_s.stderr
        assert bad_p.fingerprint() == bad_s.fingerprint()
        assert good_p.fingerprint() == good_s.fingerprint()
        # The failure's host traceback came home from the worker.
        assert "Traceback" in bad_p.traceback
        assert "SysError" in bad_p.traceback

    def test_unknown_user_fails_that_job_alone(self):
        results = _run_on(ProcessExecutor(), Batch(_jpeg_world(), cache=False)
                          .add(WALK_AMBIENT, user="alice")
                          .add(WALK_AMBIENT, user="nosuchuser"))
        assert results[0].ok
        assert results[1].status == 1 and "no such user" in results[1].stderr


class TestProcessBackendCache:
    def test_cache_works_across_the_process_boundary(self):
        """Duplicate jobs dispatch once; worker results land in the
        coordinator's cache; a second batch is served without any pool."""
        batch = Batch(_jpeg_world())
        for i in range(5):
            batch.add(WALK_AMBIENT, name=f"j{i}")
        _run_on(ProcessExecutor(workers=2), batch)
        assert batch.stats == {"jobs": 5, "cache_hits": 4, "forks": 1}

        second = Batch(_jpeg_world()).add(WALK_AMBIENT)
        _run_on(ProcessExecutor(), second)
        assert second.stats == {"jobs": 1, "cache_hits": 1, "forks": 0}

    def test_sequential_results_serve_process_runs_and_vice_versa(self):
        first = Batch(_jpeg_world()).add(WALK_AMBIENT)
        [r1] = first.run(executor=SequentialExecutor())
        second = Batch(_jpeg_world()).add(WALK_AMBIENT)
        [r2] = _run_on(ProcessExecutor(), second)
        assert second.stats["cache_hits"] == 1
        assert r2.fingerprint() == r1.fingerprint()


class TestBatchErrors:
    def test_engine_error_raises_typed_batch_error(self, monkeypatch):
        """A non-ReproError out of the engine is not a script result: it
        re-raises as BatchExecutionError naming the (script, user) job."""
        from repro.api import sessions

        def explode(self, source, name="<ambient>"):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(sessions.Session, "run_ambient", explode)
        batch = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT, name="boom")
        with pytest.raises(BatchExecutionError) as excinfo:
            batch.run(executor=SequentialExecutor())
        err = excinfo.value
        assert err.job_name == "boom"
        assert err.user == "alice"
        assert "RuntimeError: engine bug" in err.traceback_text
        assert "boom" in str(err)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="relies on fork-start workers inheriting the patch")
    def test_engine_error_crosses_the_process_boundary(self, monkeypatch):
        from repro.api import sessions

        def explode(self, source, name="<ambient>"):
            raise RuntimeError("engine bug in worker")

        monkeypatch.setattr(sessions.Session, "run_ambient", explode)
        batch = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT, name="boom")
        with pytest.raises(BatchExecutionError) as excinfo:
            _run_on(ProcessExecutor(), batch)
        assert excinfo.value.job_name == "boom"
        assert "RuntimeError: engine bug in worker" in excinfo.value.traceback_text


class TestBatchErrorPickling:
    def test_batch_execution_error_round_trips(self):
        """Users wrap Batch.run in their own multiprocessing layers, so
        the typed error must survive pickling with all its attributes."""
        import pickle

        err = BatchExecutionError("job3", "alice", "Traceback: boom\n")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.job_name == "job3"
        assert clone.user == "alice"
        assert clone.traceback_text == "Traceback: boom\n"
        assert str(clone) == str(err)


class TestRunResultPickling:
    def test_results_round_trip_through_pickle(self):
        import pickle

        [result] = Batch(_jpeg_world(), cache=False).add(WALK_AMBIENT).run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.fingerprint() == result.fingerprint()
        assert dict(clone.profile) == dict(result.profile)
        assert dict(clone.ops) == dict(result.ops)

    def test_traceback_is_not_part_of_the_fingerprint(self):
        a = RunResult(status=1, stderr="x\n", traceback="Traceback A")
        b = RunResult(status=1, stderr="x\n", traceback="Traceback B")
        assert a.fingerprint() == b.fingerprint()

