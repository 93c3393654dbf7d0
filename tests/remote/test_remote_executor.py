"""RemoteExecutor end-to-end against real agent subprocesses.

The acceptance contracts: byte-identical fingerprints vs sequential,
warm-agent-store boots with zero build ops and no wire transfer,
host death mid-batch re-shards to survivors (same bytes), and a fully
dead pool fails typed, naming the job and the hosts tried.
"""

from __future__ import annotations

import operator
import threading
import time

import pytest

from repro.api import (
    Batch,
    BatchExecutionError,
    RemoteExecutor,
    ScriptRegistry,
    SequentialExecutor,
    World,
    clear_result_cache,
)

WALK_AMBIENT = """\
#lang shill/ambient
docs = open_dir("~/Documents");
entries = contents(docs);
append(stdout, path(docs) + "\\n");
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

#: Must match tests/remote/conftest.py (not imported: conftest modules
#: are pytest's, and the `conftest` name is ambiguous across test dirs).
CHAOS_MARKER = "CHAOS-DIE-HERE"

#: A normal job whose source carries the chaos marker (as a comment):
#: agents started with ``chaos_exit_on=CHAOS_MARKER`` die on receiving
#: it; everyone else just runs the script.
CHAOS_AMBIENT = f"#lang shill/ambient\n# {CHAOS_MARKER}\n" + WALK_AMBIENT


def _jpeg_world() -> World:
    return World().for_user("alice").with_jpeg_samples()


def _batch(n=6, scripts=None):
    batch = Batch(_jpeg_world(), scripts=scripts, cache=False)
    for i in range(n):
        batch.add(FIND_JPG_AMBIENT if scripts and i % 2 else WALK_AMBIENT,
                  name=f"j{i}")
    return batch


class TestEndToEnd:
    def test_fingerprints_match_sequential(self, agent_factory, tmp_path):
        registry = ScriptRegistry().add("find_jpg.cap", FIND_JPG_CAP)
        hosts = [agent_factory(f"a{i}")[1] for i in range(2)]
        with RemoteExecutor(hosts, store=tmp_path / "coord") as executor:
            remote = _batch(scripts=registry).run(executor=executor)
        clear_result_cache()
        sequential = _batch(scripts=registry).run(executor=SequentialExecutor())
        assert [r.fingerprint() for r in remote] == \
            [r.fingerprint() for r in sequential]
        assert "dog.jpg" in remote[1].stdout

    def test_jobs_are_actually_sharded_across_hosts(self, agent_factory, tmp_path):
        hosts = [agent_factory(f"a{i}")[1] for i in range(2)]
        with RemoteExecutor(hosts, store=tmp_path / "coord") as executor:
            _batch(6).run(executor=executor)
            done = {str(h.spec): h.jobs_done for h in executor.hosts}
        assert sum(done.values()) == 6
        assert all(count > 0 for count in done.values()), done

    def test_executor_reuse_across_different_worlds(self, agent_factory,
                                                    tmp_path):
        """Regression: SUBMIT names its template.  Rebinding one
        executor across *different* worlds (w1, w2, then w1 again) must
        run each batch against its own machine — before the fix, the
        third batch's PREPARE was skipped (signature already prepared)
        and the agent ran it against whichever template this connection
        prepared last (w2's), returning silently wrong results."""
        _proc, addr = agent_factory("a0")
        read = ('#lang shill/ambient\n'
                'f = open_file("/tmp/data.txt");\n'
                'append(stdout, read(f));\n')
        w1 = World().for_user("alice").with_file("/tmp/data.txt", "WORLD-ONE\n")
        w2 = World().for_user("alice").with_file("/tmp/data.txt", "WORLD-TWO\n")
        with RemoteExecutor([addr], store=tmp_path / "coord") as executor:
            def run(world):
                return Batch(world, cache=False).add(read, name="read") \
                                                .run(executor=executor)
            assert run(w1)[0].stdout == "WORLD-ONE\n"
            assert run(w2)[0].stdout == "WORLD-TWO\n"
            assert run(w1)[0].stdout == "WORLD-ONE\n"

    def test_executor_reuse_across_batches_prepares_once(self, agent_factory, tmp_path):
        _proc, addr = agent_factory("a0")
        with RemoteExecutor([addr], store=tmp_path / "coord") as executor:
            first = _batch(2).run(executor=executor)
            boot_after_first = executor.host_boots[addr].source
            second = _batch(2).run(executor=executor)
        assert [r.fingerprint() for r in first] == [r.fingerprint() for r in second]
        # The second batch reused the prepared template (the host_boots
        # record still describes the one real PREPARE).
        assert boot_after_first == executor.host_boots[addr].source

    def test_fn_jobs_cross_the_wire(self, agent_factory, tmp_path):
        """Mapped callables ride the SUBMIT blob — they must be picklable
        *and importable on the agent* (operator.attrgetter is both; a
        test-local function would not be)."""
        _proc, addr = agent_factory("a0")
        world = _jpeg_world()
        with RemoteExecutor([addr], store=tmp_path / "coord") as executor:
            results = world.pool(workers=2).map(
                operator.attrgetter("default_user"), executor=executor)
        assert results == ["alice", "alice"]


class TestWireIdentity:
    def test_first_jobs_of_a_fresh_executor_snapshot_the_template_once(
            self, agent_factory, tmp_path):
        """A fresh executor's first jobs reach the wire identity
        together, one per dispatch thread.  Only one of them may
        snapshot and link the template: concurrent writers of one link
        race on the store's temp file, and the losers' jobs fail."""
        _proc, addr = agent_factory("a0")
        executor = RemoteExecutor([addr], store=tmp_path / "coord",
                                  concurrency=4)
        dispatch_snapshots = []
        snapshot = executor._snapshot_into_store

        def slow_snapshot(template):
            if threading.current_thread().name.startswith("remote-dispatch"):
                dispatch_snapshots.append(template.token)
            time.sleep(0.05)  # widen the window every thread must cross
            return snapshot(template)

        executor._snapshot_into_store = slow_snapshot
        with executor:
            results = _batch(4).run(executor=executor)
        assert all(r.ok for r in results)
        assert len(dispatch_snapshots) == 1


class TestAgentStore:
    def test_warm_agent_store_boots_with_zero_build_ops(self, agent_factory,
                                                        tmp_path):
        """The acceptance criterion: an agent restarted over its own
        store restores the template from disk — no blob transfer, no
        world-build kernel ops."""
        proc, addr = agent_factory("warm")
        with RemoteExecutor([addr], store=tmp_path / "coord") as executor:
            _batch(2).run(executor=executor)
            assert executor.host_boots[addr].source == "wire"  # cold: shipped
        proc.kill()
        proc.wait(timeout=10)

        # Same store dir, new agent process ("the next day").
        _proc2, addr2 = agent_factory("warm")
        clear_result_cache()
        with RemoteExecutor([addr2], store=tmp_path / "coord") as executor:
            warm = _batch(2).run(executor=executor)
            info = executor.host_boots[addr2]
        assert info.source == "store"
        assert info.build_ops == {key: 0 for key in info.build_ops}
        clear_result_cache()
        sequential = _batch(2).run(executor=SequentialExecutor())
        assert [r.fingerprint() for r in warm] == \
            [r.fingerprint() for r in sequential]

    def test_same_prepare_twice_on_one_agent_serves_from_memory(
            self, agent_factory, tmp_path):
        """A second executor against a *live* agent finds the template
        already restored in agent memory."""
        _proc, addr = agent_factory("a0")
        with RemoteExecutor([addr], store=tmp_path / "c1") as executor:
            _batch(1).run(executor=executor)
        clear_result_cache()
        with RemoteExecutor([addr], store=tmp_path / "c1") as executor:
            _batch(1).run(executor=executor)
            assert executor.host_boots[addr].source == "memory"
            assert executor.host_boots[addr].build_ops in ({}, {
                key: 0 for key in executor.host_boots[addr].build_ops})


class TestHostDeath:
    def test_death_between_submit_and_result_reshards(self, agent_factory,
                                                      tmp_path):
        """Kill one agent in the SUBMIT→RESULT window (chaos hook) and
        the in-flight job must land on the surviving host — with results
        byte-identical to a run that never saw a death."""
        from repro.remote.agent import CHAOS_EXIT_STATUS

        chaos_proc, chaos_addr = agent_factory("chaos",
                                               chaos_exit_on=CHAOS_MARKER)
        _good_proc, good_addr = agent_factory("good")
        batch = Batch(_jpeg_world(), cache=False)
        for i in range(4):
            batch.add(CHAOS_AMBIENT, name=f"c{i}")
        with RemoteExecutor([chaos_addr, good_addr],
                            store=tmp_path / "coord") as executor:
            results = batch.run(executor=executor)
            dead = [h for h in executor.hosts if not h.alive]
        assert chaos_proc.wait(timeout=10) == CHAOS_EXIT_STATUS
        assert [str(h.spec) for h in dead] == [chaos_addr]
        assert all(r.ok for r in results)

        clear_result_cache()
        quiet = Batch(_jpeg_world(), cache=False)
        for i in range(4):
            quiet.add(CHAOS_AMBIENT, name=f"c{i}")
        baseline = quiet.run(executor=SequentialExecutor())
        assert [r.fingerprint() for r in results] == \
            [r.fingerprint() for r in baseline]

    def test_no_surviving_hosts_raises_typed_error_naming_host_and_job(
            self, agent_factory, tmp_path):
        _p1, addr1 = agent_factory("c1", chaos_exit_on=CHAOS_MARKER)
        _p2, addr2 = agent_factory("c2", chaos_exit_on=CHAOS_MARKER)
        batch = Batch(_jpeg_world(), cache=False).add(CHAOS_AMBIENT,
                                                      name="doomed")
        with RemoteExecutor([addr1, addr2], store=tmp_path / "coord") as ex:
            with pytest.raises(BatchExecutionError) as excinfo:
                batch.run(executor=ex)
        assert excinfo.value.job_name == "doomed"
        message = str(excinfo.value)
        assert addr1 in message and addr2 in message
        assert "no live hosts" in message

    def test_host_dead_before_batch_is_survived(self, agent_factory, tmp_path):
        """A host that died after registration (before any SUBMIT) is
        discovered at first use and excluded — the batch still runs."""
        proc, dead_addr = agent_factory("dies-early")
        _good, good_addr = agent_factory("lives")
        proc.kill()
        proc.wait(timeout=10)
        with RemoteExecutor([dead_addr, good_addr],
                            store=tmp_path / "coord") as executor:
            results = _batch(3).run(executor=executor)
        assert all(r.ok for r in results)

    def test_script_failures_are_results_not_retries(self, agent_factory,
                                                     tmp_path):
        """A deterministic script error must come back as a failed
        RunResult from the first host — not poison the host, not retry."""
        _proc, addr = agent_factory("a0")
        bad = "#lang shill/ambient\nopen_dir(\"/does/not/exist\");\n"
        with RemoteExecutor([addr], store=tmp_path / "coord") as executor:
            [result] = Batch(_jpeg_world(), cache=False) \
                .add(bad, name="bad").run(executor=executor)
            assert all(h.alive for h in executor.hosts)
        assert result.status == 1
        assert result.stderr


class TestCli:
    def test_batch_executor_remote_requires_hosts(self, capsys):
        from repro.__main__ import main

        status = main(["batch", "/dev/null", "--executor", "remote"])
        assert status == 2
        assert "--hosts" in capsys.readouterr().err

    def test_hosts_without_remote_rejected(self, capsys):
        from repro.__main__ import main

        status = main(["batch", "/dev/null", "--hosts", "h:1"])
        assert status == 2
        assert "--executor remote" in capsys.readouterr().err

    def test_policy_without_remote_rejected(self, capsys):
        from repro.__main__ import main

        status = main(["batch", "/dev/null", "--policy", "least-loaded"])
        assert status == 2
        assert "--executor remote" in capsys.readouterr().err

    def test_cli_least_loaded_policy(self, agent_factory, tmp_path, capsys):
        from repro.__main__ import main

        _proc, addr = agent_factory("policy")
        script = tmp_path / "walk.ambient"
        script.write_text(WALK_AMBIENT)
        status = main(["batch", str(script), "--executor", "remote",
                       "--hosts", addr, "--policy", "least-loaded",
                       "--store", str(tmp_path / "coord")])
        assert status == 0
        assert "/home/alice/Documents" in capsys.readouterr().out

    def test_cli_remote_end_to_end(self, agent_factory, tmp_path, capsys):
        from repro.__main__ import main

        _proc, addr = agent_factory("cli")
        script = tmp_path / "walk.ambient"
        script.write_text(WALK_AMBIENT)
        status = main(["batch", str(script), str(script), "--executor",
                       "remote", "--hosts", addr,
                       "--store", str(tmp_path / "coord")])
        assert status == 0
        out = capsys.readouterr().out
        assert "/home/alice/Documents" in out
