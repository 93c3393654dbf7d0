"""The SchedulingPolicy protocol: built-ins, customs, and resolution."""

from __future__ import annotations

import warnings

import pytest

from repro.api import (
    LeastLoaded,
    RoundRobin,
    SchedulingPolicy,
    StoreWarmth,
    resolve_policy,
)
from repro.remote.hostpool import HostPool


def _pool(n=3, policy=None) -> HostPool:
    return HostPool([f"10.0.0.{i}:7000" for i in range(n)], policy=policy)


class TestProtocol:
    def test_builtins_satisfy_the_protocol(self):
        for policy in (RoundRobin(), LeastLoaded(), StoreWarmth()):
            assert isinstance(policy, SchedulingPolicy)

    def test_any_object_with_score_satisfies_it(self):
        class Whatever:
            def score(self, host, job, telemetry):
                return 0.0

        assert isinstance(Whatever(), SchedulingPolicy)

    def test_score_less_objects_do_not(self):
        class Nope:
            pass

        assert not isinstance(Nope(), SchedulingPolicy)


class TestBuiltins:
    def test_round_robin_cycles_the_ring(self):
        pool = _pool(3, policy=RoundRobin())
        order = [str(pool.pick().spec) for _ in range(6)]
        assert order[:3] == order[3:]          # a full cycle repeats
        assert len(set(order[:3])) == 3        # and visits everyone

    def test_least_loaded_prefers_idle_hosts(self):
        pool = _pool(2, policy=LeastLoaded())
        busy, idle = pool.hosts
        busy.inflight = 5
        assert pool.pick() is idle

    def test_store_warmth_prefers_prepared_hosts(self):
        pool = _pool(3, policy=StoreWarmth())
        warm = pool.hosts[2]
        warm.prepared.add("key-1")
        assert pool.pick(wire_key="key-1") is warm
        # For a template nobody holds, load breaks the tie instead.
        warm.inflight = 1
        assert pool.pick(wire_key="key-2") is not warm

    def test_reprs_name_the_policy(self):
        assert "RoundRobin" in repr(RoundRobin())
        assert "LeastLoaded" in repr(LeastLoaded())
        assert "StoreWarmth" in repr(StoreWarmth())


class TestResolvePolicy:
    def test_none_defaults_to_round_robin(self):
        assert isinstance(resolve_policy(None), RoundRobin)

    def test_objects_pass_through_untouched(self):
        policy = LeastLoaded()
        assert resolve_policy(policy) is policy

    @pytest.mark.parametrize("policy", ["round-robin", "flip-a-coin",
                                        object()])
    def test_score_less_objects_and_strings_rejected(self, policy):
        with pytest.raises(TypeError, match="score"):
            resolve_policy(policy)

    def test_cli_names_map_to_the_builtins(self):
        from repro.api.scheduling import POLICY_NAMES

        assert POLICY_NAMES == {"round-robin": RoundRobin,
                                "least-loaded": LeastLoaded,
                                "store-warmth": StoreWarmth}


class TestCustomPolicies:
    def test_custom_policy_drives_the_pool(self):
        """The API promise: any score() callable shapes scheduling."""
        class Pinned:
            def __init__(self, favourite: str):
                self.favourite = favourite

            def score(self, host, job, telemetry):
                return 1.0 if str(host.spec) == self.favourite else 0.0

        pool = _pool(3, policy=Pinned("10.0.0.1:7000"))
        for _ in range(4):
            assert str(pool.pick().spec) == "10.0.0.1:7000"

    def test_telemetry_carries_the_documented_keys(self):
        seen = {}

        class Recorder:
            def score(self, host, job, telemetry):
                seen.update(telemetry)
                return 0.0

        pool = _pool(2, policy=Recorder())
        pool.pick(job={"name": "j0"}, wire_key="k")
        assert set(seen) >= {"ring_position", "ring_size", "rotation",
                             "inflight", "jobs_done", "warm", "strikes",
                             "retired"}

    def test_policy_objects_reach_executors(self, tmp_path):
        """RemoteExecutor accepts a policy object, no strings involved."""
        from repro.api import RemoteExecutor

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            executor = RemoteExecutor(["127.0.0.1:1"], policy=LeastLoaded(),
                                      store=tmp_path / "s")
        assert isinstance(executor.hosts.policy, LeastLoaded)
        executor.close()
