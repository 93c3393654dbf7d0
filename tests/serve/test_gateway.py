"""Gateway integration: real gateway + agent subprocesses, loopback TCP.

The acceptance contracts: a served batch is fingerprint-byte-identical
to sequential; jobs shard across announced agents; an agent killed
mid-batch is survived and its restarted incarnation *rejoins* (visible
in the request log); admission backpressure (BUSY/RETRY-AFTER) slows
clients down without failing them; the CLI reaches all of it.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.api import Batch, ScriptRegistry, SequentialExecutor, ServeExecutor, World, clear_result_cache
from repro.kernel.store import SnapshotStore
from repro.remote.agent import spawn_local_agent
from repro.remote.server import WireServer
from repro.remote.wire import Connection, connect, template_key
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

#: A job that keeps an agent busy for a second or two: a million trips
#: round an interpreted loop.
SPIN_CAP = """\
#lang shill/cap
provide spin : {n : is_num} -> void;
spin = fun(n) {
  for i in range(n) {
    for j in range(1000) {
      s = to_string(j);
    }
  }
}
"""

SPIN_AMBIENT = ('#lang shill/ambient\nrequire "spin.cap";\nspin(1000);\n'
                'append(stdout, "spun\\n");\n')


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
    """An in-process :class:`Gateway` serving on its own thread, for
    tests that hand it Python objects (policies); yields
    ``start(**gateway_kwargs) -> "host:port"``."""
    running = []

    def start(**kwargs) -> str:
        gateway = Gateway(store=tmp_path / "gw", **kwargs)
        thread = threading.Thread(target=gateway.serve_forever, daemon=True)
        thread.start()
        running.append((gateway, thread))
        return f"{gateway.address[0]}:{gateway.address[1]}"

    yield start
    for gateway, thread in running:
        gateway.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


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

    def test_a_prepare_the_gateway_refuses_fails_the_job_not_the_gateway(
            self, fleet, tmp_path):
        """The client's snapshot bytes miss the digest its PREPARE
        names: the gateway refuses that request on its channel, so the
        job fails with the reason, the gateway stays up with no strike,
        and the mended blob's next batch runs on the same link."""
        from repro.api import BatchExecutionError

        gw, _agents, _log = fleet(agents=1)
        world = _jpeg_world()
        with ServeExecutor(gw, store=tmp_path / "client") as executor:
            blob = executor.store.blob_path(executor.prepare(world).snapshot)
            good = blob.read_bytes()
            blob.write_bytes(good + b"x")
            with pytest.raises(BatchExecutionError, match="the PREPARE names"):
                Batch(world, cache=False).add(WALK_AMBIENT).run(executor=executor)
            [gateway] = executor.hosts
            link = gateway.link
            assert gateway.alive and gateway.strikes == 0 and link is not None
            blob.write_bytes(good)
            [result] = Batch(world, cache=False).add(WALK_AMBIENT) \
                                                .run(executor=executor)
            assert result.ok
            assert gateway.link is link and gateway.strikes == 0


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


class TestGatewayLifecycle:
    def test_a_spawned_gateways_drain_closes_its_pipe(self, tmp_path):
        gw_proc, _gw = spawn_local_gateway(tmp_path / "gw")
        try:
            [drain] = [t for t in threading.enumerate()
                       if t.name == f"drain-{gw_proc.pid}"]
        finally:
            gw_proc.kill()
            gw_proc.wait(timeout=10)
        drain.join(timeout=10)
        assert not drain.is_alive()
        assert gw_proc.stdout.closed

    def test_sigtermed_gateway_drains_its_inflight_job(self, tmp_path):
        """A SIGTERM'd gateway retires like an agent: the job it is
        relaying finishes and reaches the client, the gateway exits 0,
        and its own healthy agent is never struck dead."""
        log = tmp_path / "requests.jsonl"
        gw_proc, gw = spawn_local_gateway(tmp_path / "gw", request_log=log)
        agent_proc, _addr = spawn_local_agent(tmp_path / "agent", announce=gw)
        try:
            batch = Batch(_jpeg_world(), cache=False,
                          scripts=ScriptRegistry().add("spin.cap", SPIN_CAP))
            batch.add(SPIN_AMBIENT, name="spin")
            outcome: dict = {}

            def run():
                try:
                    with ServeExecutor(gw, store=tmp_path / "client") as executor:
                        outcome["results"] = batch.run(executor=executor)
                except Exception as err:
                    outcome["error"] = err

            client = threading.Thread(target=run, daemon=True)
            client.start()
            deadline = time.monotonic() + 60
            while '"event": "dispatch"' not in log.read_text():
                assert time.monotonic() < deadline, "the job never left the gateway"
                time.sleep(0.02)
            gw_proc.terminate()
            client.join(timeout=60)
            assert not client.is_alive(), "the gateway left its client hanging"
            assert gw_proc.wait(timeout=30) == 0
        finally:
            for proc in (gw_proc, agent_proc):
                proc.kill()
                proc.wait(timeout=10)
        assert "error" not in outcome, outcome
        [result] = outcome["results"]
        assert result.ok and result.stdout == "spun\n"
        events = [e["event"] for e in _events(log)]
        assert "dead" not in events
        # The job was still in flight when the gateway was told to stop.
        assert events.index("stopping") < events.index("result")


class _HoldingAgent(WireServer):
    """A stand-in agent: any PREPARE is READY, and every SUBMIT is held
    on a job thread until ``release`` is set, then answered with an
    empty ok RESULT.  ``held`` lists the indices it has taken."""

    role = "holding"

    def __init__(self, store, release: threading.Event) -> None:
        super().__init__(store)
        self.release = release
        self.held: list = []

    def _handle_prepare(self, conn, msg):
        conn.send("READY", msg.echo({"source": "memory", "build_ops": {}}))

    def _handle_submit(self, conn, msg):
        self._start_job(self._hold, conn, msg)

    def _hold(self, conn, msg):
        self.held.append(msg.fields["index"])
        self.release.wait(timeout=60)
        conn.send("RESULT", msg.echo({"index": msg.fields["index"], "status": "ok"}))


def _raw_client(gateway: str, store_root) -> "tuple[Connection, str]":
    """A handshaken wire connection to ``gateway`` with one template
    PREPAREd from a store of its own; returns it and the template key."""
    host, port = gateway.rsplit(":", 1)
    conn, _hello = connect(host, int(port))
    store = SnapshotStore(store_root)
    snapshot = store.put(b"any bytes: a stand-in agent restores nothing")
    prepare = {"snapshot": snapshot, "scripts": [], "default_user": "alice"}
    reply = conn.request("PREPARE", dict(prepare, channel=0))
    if reply.type == "NEED":
        reply = conn.request("PREPARE", dict(prepare, channel=0),
                             store.load(snapshot))
    reply.expect("READY")
    return conn, template_key(prepare)


def _submit(conn: Connection, key: str, index: int) -> None:
    conn.send("SUBMIT", {"index": index, "name": f"j{index}", "user": None,
                         "source": f"#lang shill/ambient\n# {index}\n",
                         "template": key, "channel": index + 1})


class TestAdmission:
    def test_a_submit_flood_gets_busy_not_threads(self, local_gateway, tmp_path):
        """SUBMITs past ``max_pending``, to a gateway whose agent holds
        every job, are refused with BUSY in arrival order; the gateway
        never runs more than ``max_pending`` job threads, and the held
        jobs still complete once the agent lets go."""
        def gateway_jobs() -> int:
            return sum(t.name == "gateway-job" for t in threading.enumerate())

        agent = _HoldingAgent(tmp_path / "agent", threading.Event())
        threading.Thread(target=agent.serve_forever, daemon=True).start()
        max_pending, flood = 3, 15
        gw = local_gateway(hosts=["%s:%d" % agent.address], max_pending=max_pending)
        peak, sampling = [0], threading.Event()

        def sample():
            while not sampling.is_set():
                peak[0] = max(peak[0], gateway_jobs())
                time.sleep(0.001)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        conn, key = _raw_client(gw, tmp_path / "client")
        try:
            for i in range(flood):
                _submit(conn, key, i)
            refused = [conn.recv() for _ in range(flood - max_pending)]
            assert [m.type for m in refused] == ["BUSY"] * (flood - max_pending)
            assert [m.fields["channel"] for m in refused] == \
                list(range(max_pending + 1, flood + 1))
            assert all(m.fields["retry_after"] > 0 for m in refused)
            deadline = time.monotonic() + 30
            while len(agent.held) < max_pending:
                assert time.monotonic() < deadline, "admitted jobs never reached the agent"
                time.sleep(0.01)
            assert sorted(agent.held) == list(range(max_pending))
            assert gateway_jobs() == max_pending
            agent.release.set()
            results = [conn.recv() for _ in range(max_pending)]
            assert sorted((m.type, m.fields["index"]) for m in results) == \
                [("RESULT", i) for i in range(max_pending)]
        finally:
            sampling.set()
            agent.release.set()
            conn.close()
            agent.shutdown()
        sampler.join(timeout=5)
        assert not sampler.is_alive()
        assert peak[0] <= max_pending

    def test_concurrent_clients_leave_no_count_behind(self, tmp_path):
        """More client threads than cores, a tiny switch interval, and a
        pending bound they overrun: every SUBMIT gets exactly one reply,
        and the admission and in-flight counts shared by the gateway's
        reader and job threads both return to zero."""
        agent = _HoldingAgent(tmp_path / "agent", threading.Event())
        agent.release.set()
        threading.Thread(target=agent.serve_forever, daemon=True).start()
        gateway = Gateway(store=tmp_path / "gw", hosts=["%s:%d" % agent.address],
                          max_pending=4, result_cache=0)
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        address = "%s:%d" % gateway.address
        clients, submits, replies = 6, 40, {}

        def client(c: int) -> None:
            conn, key = _raw_client(address, tmp_path / f"client{c}")
            try:
                for i in range(submits):
                    _submit(conn, key, i)
                replies[c] = [conn.recv() for _ in range(submits)]
            finally:
                conn.close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,), daemon=True)
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            deadline = time.monotonic() + 30
            while gateway._inflight:
                assert time.monotonic() < deadline, "a job thread never left"
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(switch)
            gateway.close()
            agent.shutdown()
        assert gateway.admission.pending == 0
        for c in range(clients):
            assert sorted(m.fields["channel"] for m in replies[c]) == \
                list(range(1, submits + 1))
            assert {m.type for m in replies[c]} <= {"RESULT", "BUSY"}

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
