"""Gateway integration: real gateway + agent subprocesses, loopback TCP.

The acceptance contracts: a served batch is fingerprint-byte-identical
to sequential; jobs shard across announced agents; an agent killed
mid-batch is survived and its restarted incarnation *rejoins* (visible
in the request log); admission backpressure (BUSY/RETRY-AFTER) slows
clients down without failing them; the CLI reaches all of it.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import Batch, ScriptRegistry, SequentialExecutor, ServeExecutor, World, clear_result_cache
from repro.remote.agent import spawn_local_agent
from repro.serve import Gateway, spawn_local_gateway

#: Must match tests/remote/conftest.py's marker (not imported; conftest
#: modules are pytest's own).
CHAOS_MARKER = "CHAOS-DIE-HERE"

WALK_AMBIENT = """\
#lang shill/ambient
docs = open_dir("~/Documents");
entries = contents(docs);
append(stdout, path(docs) + "\\n");
"""

CHAOS_AMBIENT = f"#lang shill/ambient\n# {CHAOS_MARKER}\n" + WALK_AMBIENT


def _jpeg_world() -> World:
    return World().for_user("alice").with_jpeg_samples()


def _batch(n: int, source: str = WALK_AMBIENT) -> Batch:
    batch = Batch(_jpeg_world(), cache=False)
    for i in range(n):
        batch.add(source, name=f"j{i}")
    return batch


def _events(log_path) -> list[dict]:
    return [json.loads(line) for line in log_path.read_text().splitlines()]


@pytest.fixture
def fleet(tmp_path):
    """Spawn a gateway plus announced agents; everything is killed at
    test end.  Yields ``start(agents=2, **gateway_kwargs) ->
    (gateway_addr, agent_list, request_log_path)`` where ``agent_list``
    holds ``(proc, addr)`` pairs."""
    procs = []

    def start(agents: int = 2, **gw_kwargs):
        log = tmp_path / "requests.jsonl"
        gw_proc, gw = spawn_local_gateway(tmp_path / "gw", request_log=log,
                                          **gw_kwargs)
        procs.append(gw_proc)
        spawned = []
        for i in range(agents):
            proc, addr = spawn_local_agent(tmp_path / f"agent{i}",
                                           announce=gw)
            procs.append(proc)
            spawned.append((proc, addr))
        return gw, spawned, log

    yield start
    for proc in procs:
        proc.kill()
    for proc in procs:
        proc.wait(timeout=10)


@pytest.fixture
def local_gateway(tmp_path):
    """An in-process :class:`Gateway` serving from its own event-loop
    thread, for tests that hand it Python objects (policies); yields
    ``start(**gateway_kwargs) -> "host:port"``."""
    running = []

    def start(**kwargs) -> str:
        gateway = Gateway(store=tmp_path / "gw", **kwargs)
        loop = asyncio.new_event_loop()
        server = loop.run_until_complete(gateway.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        running.append((gateway, loop, server, thread))
        return f"{gateway.address[0]}:{gateway.address[1]}"

    yield start
    for gateway, loop, server, thread in running:
        loop.call_soon_threadsafe(server.close)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()
        gateway.close()


def _run_bounded(batch: Batch, gateway: str, store, seconds: float = 60):
    """Run ``batch`` through a ServeExecutor on a daemon thread and
    return ``{"results": [...]}`` or ``{"error": exc}`` — a client the
    gateway leaves hanging fails the test, not the whole suite."""
    outcome: dict = {}

    def run():
        try:
            with ServeExecutor(gateway, store=store) as executor:
                outcome["results"] = batch.run(executor=executor)
        except Exception as err:
            outcome["error"] = err

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the gateway left its client hanging"
    return outcome


class TestEndToEnd:
    def test_40_jobs_2_agents_match_sequential_byte_for_byte(self, fleet,
                                                             tmp_path):
        """The headline acceptance: 2 agents x concurrency 4, a 40-job
        batch, fingerprints byte-identical to SequentialExecutor."""
        gw, _agents, log = fleet(agents=2)
        with ServeExecutor(gw, store=tmp_path / "client",
                           concurrency=4) as executor:
            served = _batch(40).run(executor=executor)
        clear_result_cache()
        sequential = _batch(40).run(executor=SequentialExecutor())
        assert [r.fingerprint() for r in served] == \
            [r.fingerprint() for r in sequential]
        # Both agents actually worked the batch (the gateway sharded).
        hosts = {e["host"] for e in _events(log) if e["event"] == "dispatch"}
        assert len(hosts) == 2, hosts

    def test_agents_join_by_announce_not_configuration(self, fleet, tmp_path):
        """The gateway starts with an empty fleet; agents dial in."""
        gw, _agents, log = fleet(agents=2)
        announced = [e for e in _events(log) if e["event"] == "announce"]
        assert len(announced) == 2
        with ServeExecutor(gw, store=tmp_path / "client") as executor:
            results = _batch(3).run(executor=executor)
        assert all(r.ok for r in results)

    def test_empty_fleet_fails_typed_not_hanging(self, fleet, tmp_path):
        from repro.api import BatchExecutionError

        gw, _agents, _log = fleet(agents=0)
        with ServeExecutor(gw, store=tmp_path / "client") as executor:
            with pytest.raises(BatchExecutionError, match="no live agents"):
                _batch(1).run(executor=executor)

    def test_capability_scripts_ride_through_the_gateway(self, fleet,
                                                         tmp_path):
        find_jpg = """\
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
        ambient = ('#lang shill/ambient\nrequire "find_jpg.cap";\n'
                   'docs = open_dir("~/Documents");\nfind_jpg(docs, stdout);\n')
        gw, _agents, _log = fleet(agents=1)
        registry = ScriptRegistry().add("find_jpg.cap", find_jpg)
        batch = Batch(_jpeg_world(), scripts=registry, cache=False)
        batch.add(ambient, name="find")
        with ServeExecutor(gw, store=tmp_path / "client") as executor:
            [result] = batch.run(executor=executor)
        assert "dog.jpg" in result.stdout


class TestGatewayPolicies:
    """Policies plug into the gateway exactly as into RemoteExecutor:
    they score an ExecutorJob, and a broken one fails jobs typed."""

    def test_policies_score_an_executor_job(self, local_gateway, tmp_path):
        class ByName:
            def __init__(self):
                self.names = []

            def score(self, host, job, telemetry):
                self.names.append(job.name)
                return 0.0

        policy = ByName()
        gw = local_gateway(policy=policy)
        proc, _addr = spawn_local_agent(tmp_path / "agent", announce=gw)
        try:
            outcome = _run_bounded(_batch(2), gw, tmp_path / "client")
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert "error" not in outcome, outcome
        assert all(r.ok for r in outcome["results"])
        assert sorted(set(policy.names)) == ["j0", "j1"]

    def test_a_raising_policy_fails_the_job_not_the_client(self, local_gateway,
                                                           tmp_path):
        from repro.api import BatchExecutionError

        class Broken:
            def score(self, host, job, telemetry):
                raise RuntimeError("policy exploded")

        # One seeded (unreachable) agent: the policy is consulted, and
        # raises, before anything is dialled.
        gw = local_gateway(policy=Broken(), hosts=["127.0.0.1:1"])
        outcome = _run_bounded(_batch(1), gw, tmp_path / "client")
        assert isinstance(outcome.get("error"), BatchExecutionError)
        assert "policy exploded" in str(outcome["error"])


class TestAgentChurn:
    def test_kill_agent_mid_batch_then_rejoin(self, fleet, tmp_path):
        """The fleet-churn acceptance: one agent dies mid-batch (chaos
        hook: in the SUBMIT->RESULT window) and the batch completes on
        the survivor; a replacement agent on the *same address* rejoins
        (request log says so) and the next batch uses it — with every
        fingerprint byte-identical to sequential."""
        from repro.remote.agent import CHAOS_EXIT_STATUS

        gw, _agents, log = fleet(agents=1)
        chaos_proc, chaos_addr = spawn_local_agent(
            tmp_path / "chaos", chaos_exit_on=CHAOS_MARKER, announce=gw)
        try:
            with ServeExecutor(gw, store=tmp_path / "client",
                               concurrency=4) as executor:
                # Batch 1: every job carries the chaos marker; the chaos
                # agent dies on its first SUBMIT, the gateway strikes it
                # and re-shards in flight.
                first = _batch(6, CHAOS_AMBIENT).run(executor=executor)
                assert chaos_proc.wait(timeout=15) == CHAOS_EXIT_STATUS
                assert all(r.ok for r in first)
                assert any(e["event"] == "dead" and e["host"] == chaos_addr
                           for e in _events(log))

                # The restarted incarnation: same port, same store.
                host, port = chaos_addr.rsplit(":", 1)
                chaos_proc2, addr2 = spawn_local_agent(
                    tmp_path / "chaos", port=int(port), announce=gw)
                try:
                    assert addr2 == chaos_addr
                    assert any(e["event"] == "rejoin"
                               and e["host"] == chaos_addr
                               for e in _events(log))

                    # Batch 2 runs on the healed fleet.
                    clear_result_cache()
                    second = _batch(6).run(executor=executor)
                finally:
                    chaos_proc2.kill()
                    chaos_proc2.wait(timeout=10)
        finally:
            if chaos_proc.poll() is None:
                chaos_proc.kill()
                chaos_proc.wait(timeout=10)

        clear_result_cache()
        assert [r.fingerprint() for r in first] == \
            [r.fingerprint() for r in
             _batch(6, CHAOS_AMBIENT).run(executor=SequentialExecutor())]
        clear_result_cache()
        assert [r.fingerprint() for r in second] == \
            [r.fingerprint() for r in
             _batch(6).run(executor=SequentialExecutor())]

    def test_sigtermed_agent_retires_cleanly(self, fleet, tmp_path):
        """A SIGTERM'd agent drains and GOODBYEs; the gateway retires it
        (no strike) and later batches just use the survivor."""
        gw, agents, log = fleet(agents=2)
        with ServeExecutor(gw, store=tmp_path / "client") as executor:
            warm = _batch(4).run(executor=executor)
            assert all(r.ok for r in warm)
            victim_proc, victim_addr = agents[0]
            victim_proc.terminate()
            assert victim_proc.wait(timeout=15) == 0
            clear_result_cache()
            after = _batch(4).run(executor=executor)
        assert all(r.ok for r in after)
        events = _events(log)
        # The victim must never have been *struck* (no crash record) —
        # its exit was either noticed as a retirement or not at all.
        assert not any(e["event"] == "dead" and e["host"] == victim_addr
                       for e in events)


class TestAdmission:
    def test_rate_limited_batch_backs_off_and_completes(self, fleet,
                                                        tmp_path):
        """A tight per-user rate limit turns into BUSY frames, the
        client honours every retry_after hint, and the batch still
        completes correctly — backpressure, not failure.  The rate is
        1/s so the refusal window is a full second wide: the client's
        four dispatch threads submit together at batch start, and even
        a heavily loaded machine cannot spread them a second apart."""
        gw, _agents, log = fleet(agents=1, rate=1.0, burst=1)
        with ServeExecutor(gw, store=tmp_path / "client", concurrency=4,
                           user="alice") as executor:
            served = _batch(5).run(executor=executor)
        clear_result_cache()
        sequential = _batch(5).run(executor=SequentialExecutor())
        assert [r.fingerprint() for r in served] == \
            [r.fingerprint() for r in sequential]
        busy = [e for e in _events(log) if e["event"] == "busy"]
        assert busy, "a 4-wide client against a 1/s burst-1 limit " \
                     "must hit admission at least once"
        assert all(e["user"] == "alice" for e in busy)
        assert all(e["retry_after"] > 0 for e in busy)


class TestGatewayCache:
    def test_repeat_submit_served_from_gateway_cache(self, fleet, tmp_path):
        """A repeat job answers from the gateway's per-user result
        cache: the request log shows the hit, no second dispatch
        reaches an agent, and the replayed result is byte-identical."""
        gw, _agents, log = fleet(agents=1)
        with ServeExecutor(gw, store=tmp_path / "client",
                           user="alice") as executor:
            clear_result_cache()  # client-side: every SUBMIT must go out
            [first] = _batch(1).run(executor=executor)
            clear_result_cache()
            [second] = _batch(1).run(executor=executor)
        assert second.fingerprint() == first.fingerprint()
        hits = [e for e in _events(log) if e["event"] == "cache_hit"]
        assert len(hits) == 1
        assert hits[0]["user"] == "alice" and hits[0]["verdict"] == "hit"
        dispatches = [e for e in _events(log) if e["event"] == "dispatch"]
        assert len(dispatches) == 1
        assert dispatches[0]["verdict"] == "miss"

    def test_cache_hits_are_admission_exempt(self, fleet, tmp_path):
        """Replays are free: after the first (admitted) run, a tight
        rate limit never turns repeat jobs into BUSY frames."""
        gw, _agents, log = fleet(agents=1, rate=1.0, burst=1)
        with ServeExecutor(gw, store=tmp_path / "client",
                           user="alice") as executor:
            clear_result_cache()
            _batch(1).run(executor=executor)
            for _ in range(5):
                clear_result_cache()
                [result] = _batch(1).run(executor=executor)
                assert result.ok
        events = _events(log)
        assert len([e for e in events if e["event"] == "cache_hit"]) == 5
        # One admitted dispatch; the replays never touched admission.
        assert [e for e in events if e["event"] == "busy"] == []

    def test_result_cache_zero_disables_replay(self, fleet, tmp_path):
        gw, _agents, log = fleet(agents=1, result_cache=0)
        with ServeExecutor(gw, store=tmp_path / "client",
                           user="alice") as executor:
            clear_result_cache()
            _batch(1).run(executor=executor)
            clear_result_cache()
            _batch(1).run(executor=executor)
        events = _events(log)
        assert [e for e in events if e["event"] == "cache_hit"] == []
        assert len([e for e in events if e["event"] == "dispatch"]) == 2

    def test_cached_replies_carry_each_submits_own_index(self, fleet,
                                                         tmp_path):
        """Identical jobs at different batch indices: replayed RESULT
        frames must echo the *current* SUBMIT's index, or the client
        would misfile the reply."""
        gw, _agents, _log = fleet(agents=1)
        with ServeExecutor(gw, store=tmp_path / "client",
                           user="alice") as executor:
            clear_result_cache()
            _batch(1).run(executor=executor)  # warm the gateway cache
            clear_result_cache()
            results = _batch(4).run(executor=executor)
        assert len(results) == 4
        assert len({r.fingerprint() for r in results}) == 1
        assert all(r.ok for r in results)


class TestPolicyIsolation:
    """Two gateway users, one fleet, different declarative policies."""

    FREEZE_DOCS = [{"name": "freeze-docs", "effect": "deny",
                    "operations": ["contents"],
                    "paths": ["/home/alice/Documents"]}]

    def _policied_batch(self, rules) -> Batch:
        world = _jpeg_world()
        if rules is not None:
            world = world.with_policy_rules(rules)
        batch = Batch(world, cache=False)
        batch.add(WALK_AMBIENT, name="walk")
        return batch

    def test_different_policies_yield_different_denials(self, fleet, tmp_path):
        """The same script under each tenant's own policy world: the
        frozen tenant's job fails on the policy denial, the open
        tenant's succeeds — through one shared gateway and fleet."""
        gw, _agents, _log = fleet(agents=1)
        with ServeExecutor(gw, store=tmp_path / "a",
                           user="alice") as executor:
            clear_result_cache()
            [frozen] = self._policied_batch(self.FREEZE_DOCS).run(executor=executor)
        with ServeExecutor(gw, store=tmp_path / "b", user="bob") as executor:
            clear_result_cache()
            [open_] = self._policied_batch(None).run(executor=executor)
        assert not frozen.ok and open_.ok
        assert "policy-engine:rules" in frozen.stderr
        assert "/home/alice/Documents" in open_.stdout
        assert frozen.fingerprint() != open_.fingerprint()

    def test_result_cache_never_crosses_the_policy_boundary(self, fleet,
                                                            tmp_path):
        """One tenant's cached result must not answer the other tenant's
        submit of the same script: the policy rides in the world digest,
        so each policy world dispatches once and replays only itself."""
        gw, _agents, log = fleet(agents=1)
        with ServeExecutor(gw, store=tmp_path / "a",
                           user="alice") as executor:
            clear_result_cache()
            self._policied_batch(self.FREEZE_DOCS).run(executor=executor)
            clear_result_cache()
            [replayed] = self._policied_batch(self.FREEZE_DOCS).run(executor=executor)
        with ServeExecutor(gw, store=tmp_path / "b", user="bob") as executor:
            clear_result_cache()
            [fresh] = self._policied_batch(None).run(executor=executor)
        assert not replayed.ok and fresh.ok
        events = _events(log)
        hits = [e for e in events if e["event"] == "cache_hit"]
        dispatches = [e for e in events if e["event"] == "dispatch"]
        # Alice's repeat replayed from her cache entry; Bob's first
        # submit of the "same" script was a miss, never Alice's bytes.
        assert [e["user"] for e in hits] == ["alice"]
        assert len(dispatches) == 2


class TestCli:
    def test_batch_executor_serve_requires_gateway(self, capsys):
        from repro.__main__ import main

        status = main(["batch", "/dev/null", "--executor", "serve"])
        assert status == 2
        assert "--gateway" in capsys.readouterr().err

    def test_gateway_without_serve_rejected(self, capsys):
        from repro.__main__ import main

        status = main(["batch", "/dev/null", "--gateway", "h:1"])
        assert status == 2
        assert "--executor serve" in capsys.readouterr().err

    def test_cli_serve_end_to_end(self, fleet, tmp_path, capsys):
        from repro.__main__ import main

        gw, _agents, _log = fleet(agents=1)
        script = tmp_path / "walk.ambient"
        script.write_text(WALK_AMBIENT)
        status = main(["batch", str(script), "--executor", "serve",
                       "--gateway", gw, "--store", str(tmp_path / "client")])
        assert status == 0
        assert "/home/alice/Documents" in capsys.readouterr().out
