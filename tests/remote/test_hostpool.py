"""HostPool: parsing, scheduling policies, health, exclusion, and the
failover loop."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.scheduling import LeastLoaded, StoreWarmth
from repro.remote.hostpool import HostPool, HostsExhausted, HostSpec, WireTemplate
from repro.remote.wire import Message, PeerError, WireClosed


class TestHostSpec:
    def test_parse_string(self):
        assert HostSpec.parse("10.0.0.7:7001") == HostSpec("10.0.0.7", 7001)

    def test_parse_tuple_and_identity(self):
        spec = HostSpec.parse(("localhost", 9))
        assert spec == HostSpec("localhost", 9)
        assert HostSpec.parse(spec) is spec

    @pytest.mark.parametrize("bad", ["nocolon", "host:", "host:abc", ":70"])
    def test_parse_rejects_malformed(self, bad):
        if bad == ":70":
            # an empty host parses (it means "all interfaces" to bind);
            # the executor will simply fail to connect — not a parse error
            assert HostSpec.parse(bad).port == 70
            return
        with pytest.raises(ValueError, match="host spec"):
            HostSpec.parse(bad)


def _pool(n=3, policy=None):
    return HostPool([f"127.0.0.1:{7000 + i}" for i in range(n)], policy=policy)


class TestPolicies:
    def test_round_robin_rotates(self):
        pool = _pool(3)  # RoundRobin is the default policy
        picks = [pool.pick().spec.port for _ in range(6)]
        assert picks == [7000, 7001, 7002, 7000, 7001, 7002]

    def test_least_loaded_prefers_idle_host(self):
        pool = _pool(2, policy=LeastLoaded())
        first = pool.pick()
        with pool.lease(first):
            assert pool.pick() is not first
        # lease released: registration order breaks the tie again
        assert pool.pick() is first

    def test_store_warmth_prefers_prepared_host(self):
        pool = _pool(2, policy=StoreWarmth())
        pool.hosts[1].prepared.add("key-1")
        # warmth only counts for the template the job actually needs
        assert pool.pick(wire_key="key-1").spec.port == 7001
        assert pool.pick(wire_key="other").spec.port == 7000

    def test_custom_policy_object_is_consulted(self):
        class Pinned:
            def score(self, host, job, telemetry):
                return 1.0 if host.spec.port == 7002 else 0.0

        pool = _pool(3, policy=Pinned())
        assert {pool.pick().spec.port for _ in range(4)} == {7002}

    @pytest.mark.parametrize("policy", ["least-loaded", "random", object()])
    def test_policy_without_score_rejected(self, policy):
        """Pools take policy objects only; a name string is a TypeError
        like any other object without ``score``."""
        with pytest.raises(TypeError, match="SchedulingPolicy"):
            _pool(policy=policy)

    def test_empty_and_duplicate_pools_rejected(self):
        """A pool may start empty (a gateway's agents announce later),
        so an executor with no hosts is refused by the executor."""
        from repro.api import RemoteExecutor

        with pytest.raises(ValueError, match="at least one host"):
            RemoteExecutor([])
        with pytest.raises(ValueError, match="duplicate"):
            HostPool(["h:1", "h:1"])

    def test_allow_empty_pools_admit_hosts_later(self):
        pool = HostPool([])
        with pytest.raises(LookupError):
            pool.pick()
        pool.add_host("127.0.0.1:7009")
        assert pool.pick().spec.port == 7009


class TestHealth:
    def test_dead_hosts_leave_rotation(self):
        pool = _pool(3)
        victim = pool.hosts[1]
        pool.mark_dead(victim, RuntimeError("socket reset"))
        assert victim.last_error == "socket reset"
        picks = {pool.pick().spec.port for _ in range(6)}
        assert picks == {7000, 7002}
        assert len(pool.live()) == 2

    def test_exclusion_is_per_call(self):
        pool = _pool(2)
        only = pool.pick(excluded=[HostSpec("127.0.0.1", 7000)])
        assert only.spec.port == 7001
        # a later call without the exclusion sees both again
        assert {pool.pick().spec.port for _ in range(4)} == {7000, 7001}

    def test_all_dead_or_excluded_raises_lookup_error(self):
        pool = _pool(2)
        pool.mark_dead(pool.hosts[0], "gone")
        with pytest.raises(LookupError, match="no live hosts"):
            pool.pick(excluded=[pool.hosts[1].spec])

    def test_lease_counts_inflight_and_done(self):
        pool = _pool(1)
        host = pool.pick()
        with pool.lease(host):
            assert host.inflight == 1
        assert host.inflight == 0
        assert host.jobs_done == 1

    def test_dead_strikes_but_retired_does_not(self):
        pool = _pool(2)
        crashed, polite = pool.hosts
        pool.mark_dead(crashed, "socket reset")
        pool.mark_retired(polite)
        assert crashed.strikes == 1 and not crashed.retired
        assert polite.strikes == 0 and polite.retired
        assert pool.live() == []

    def test_revive_rejoins_and_forgets_prepared_templates(self):
        pool = _pool(2)
        victim = pool.hosts[0]
        victim.prepared.add("tmpl")
        pool.mark_dead(victim, "crash")
        pool.revive(victim.spec)
        assert victim.alive and not victim.retired
        assert victim.prepared == set()       # restarted agents re-PREPARE
        assert victim.strikes == 1            # history survives the revival
        assert victim in [pool.pick() for _ in range(2)]

    def test_add_host_admits_new_and_revives_known(self):
        pool = _pool(1)
        joined = pool.add_host("127.0.0.1:7050")
        assert len(pool) == 2 and joined.alive
        pool.mark_dead(joined, "gone")
        assert pool.add_host("127.0.0.1:7050") is joined
        assert joined.alive


class _FakeLink:
    """Stands in for a host's ChannelMux: a SUBMIT runs ``fail`` (which
    may raise) and otherwise answers RESULT after a short wait, counting
    how many SUBMITs are in flight at once."""

    def __init__(self, fail=None):
        self.fail = fail
        self.inflight = self.peak = 0
        self._lock = threading.Lock()

    def request(self, type_, fields=None, blob=b""):
        if self.fail is not None:
            self.fail()
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        time.sleep(0.02)
        with self._lock:
            self.inflight -= 1
        return Message("RESULT", {"status": "ok"})

    def close(self):
        pass


#: Already PREPAREd on every fake host (see _fake_pool), so the loop
#: goes straight to SUBMIT.
TEMPLATE = WireTemplate("key", {}, store=None)


def _fake_pool(*links, concurrency=1):
    # Ports 1.. refuse connections at once, so re-dials fail fast.
    pool = HostPool([f"127.0.0.1:{i + 1}" for i in range(len(links))],
                    concurrency=concurrency)
    for host, link in zip(pool.hosts, links):
        host.link = link
        host.prepared.add(TEMPLATE.key)
    return pool


class TestDispatch:
    def test_concurrency_caps_submits_in_flight_per_host(self):
        link = _FakeLink()
        pool = _fake_pool(link, concurrency=2)
        replies = []
        threads = [threading.Thread(target=lambda: replies.append(
            pool.dispatch(TEMPLATE, {"name": "j"}).type)) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert replies == ["RESULT"] * 6
        assert link.peak == 2

    def test_crash_strikes_the_host_and_retries_elsewhere(self):
        def crash():
            raise WireClosed("connection reset")

        pool = _fake_pool(_FakeLink(fail=crash), _FakeLink())
        events = []
        reply = pool.dispatch(TEMPLATE, {"name": "j"},
                              log=lambda event, **f: events.append(event))
        crashed, survivor = pool.hosts
        assert reply.type == "RESULT"
        assert not crashed.alive and crashed.strikes == 1
        assert survivor.jobs_done == 1
        assert events == ["dispatch", "dead", "dispatch", "result"]

    def test_an_error_on_the_channel_fails_the_job_not_the_host(self):
        """A channel-tagged ERROR is the host answering that one request
        failed: the job fails with the host's message, and the host is
        neither struck nor excluded, nor the job retried elsewhere."""
        class Refusing(_FakeLink):
            def request(self, type_, fields=None, blob=b""):
                return Message("ERROR", {"channel": 1, "error":
                                         "SUBMIT names an unprepared template"})

        pool = _fake_pool(Refusing(), _FakeLink())
        events = []
        with pytest.raises(PeerError, match="unprepared template"):
            pool.dispatch(TEMPLATE, {"name": "j"},
                          log=lambda event, **f: events.append(event))
        refusing, other = pool.hosts
        assert refusing.alive and refusing.strikes == 0
        assert refusing.inflight == 0 and other.jobs_done == 0
        assert "dead" not in events

    def test_goodbye_retires_without_a_strike(self):
        pool = _fake_pool(_FakeLink(), _FakeLink())
        polite = pool.hosts[0]

        def goodbye():
            pool.mark_retired(polite)
            raise WireClosed("peer retired (clean GOODBYE)")

        polite.link.fail = goodbye
        assert pool.dispatch(TEMPLATE, {"name": "j"}).type == "RESULT"
        assert polite.retired and polite.strikes == 0

    def test_exhaustion_is_typed_and_lists_the_hosts_tried(self):
        def crash():
            raise WireClosed("connection reset")

        pool = _fake_pool(_FakeLink(fail=crash), _FakeLink(fail=crash))
        with pytest.raises(HostsExhausted) as excinfo:
            pool.dispatch(TEMPLATE, {"name": "j"})
        assert [t.split()[0] for t in excinfo.value.tried] == \
            ["127.0.0.1:1", "127.0.0.1:2"]
        assert "no live hosts left (hosts tried: 127.0.0.1:1" in str(excinfo.value)
