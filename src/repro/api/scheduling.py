"""Scheduling policies as data: score hosts, send the job to the max.

A :class:`SchedulingPolicy` is one pure function — ``score(host, job,
telemetry) → float`` — evaluated per candidate host at dispatch time;
the pool picks the highest score (registration order breaks ties).
Policies never mutate anything: all the state they may consult arrives
in the ``telemetry`` mapping, so a policy is trivially unit-testable
with plain dicts and no live hosts (the weighers-as-data style the
datacenter schedulers in PAPERS.md argue for).

Telemetry keys every pool guarantees:

===============  ======================================================
``ring_position``  the host's index in registration order
``ring_size``      how many hosts are registered (dead ones included)
``rotation``       ring position just after the previously picked host
``inflight``       jobs currently leased to this host
``jobs_done``      jobs this host completed
``warm``           whether the host already restored this job's template
``strikes``        times this host has been marked dead (crashes only)
``retired``        whether the host said a clean GOODBYE (not a crash)
===============  ======================================================

The built-ins cover the common shapes — :class:`RoundRobin` (fairness),
:class:`LeastLoaded` (variable job cost), :class:`StoreWarmth` (boot
cost dominates) — and a custom policy is just an object with ``score``;
see ``docs/serving.md`` for a worked example.  The CLIs name the
built-ins through :data:`POLICY_NAMES`; the API takes objects only.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable


@runtime_checkable
class SchedulingPolicy(Protocol):
    """What a pool needs from a scheduling policy: one ``score`` method.

    Any object with a compatible ``score`` qualifies (the class is a
    :class:`typing.Protocol`; inheriting from it is optional).

    Example::

        from repro.api import SchedulingPolicy

        class FewestStrikes:
            "Prefer hosts that have crashed the least."
            def score(self, host, job, telemetry):
                return -telemetry["strikes"]

        assert isinstance(FewestStrikes(), SchedulingPolicy)
    """

    def score(self, host: Any, job: Any,
              telemetry: "Mapping[str, Any]") -> float:
        """Weigh ``host`` for ``job``; the highest score wins.

        ``host`` is the pool's per-host state object, ``job`` the
        :class:`~repro.api.executors.base.ExecutorJob` being placed —
        the same type whether a ``RemoteExecutor`` or the gateway
        dispatches it (the gateway never unpickles a client's callable,
        so there ``job.fn`` is ``None``) — or ``None`` when the caller
        has no job context, and ``telemetry`` the live counters table in
        the module docstring.
        """
        ...  # pragma: no cover - protocol signature


class RoundRobin:
    """Rotate through live hosts in registration order.

    Fair and predictable when jobs are uniform: the host just after the
    previously picked one scores highest, so the pick walks the ring.

    Example::

        from repro.api import RoundRobin

        policy = RoundRobin()
        telem = {"ring_position": 1, "ring_size": 4, "rotation": 1}
        assert policy.score(None, None, telem) == 0.0   # next in the ring
    """

    def score(self, host: Any, job: Any,
              telemetry: "Mapping[str, Any]") -> float:
        ahead = (telemetry["ring_position"] - telemetry["rotation"]
                 ) % telemetry["ring_size"]
        return -float(ahead)

    def __repr__(self) -> str:
        return "RoundRobin()"


class LeastLoaded:
    """Prefer the host with the fewest in-flight jobs.

    Better than :class:`RoundRobin` when job costs vary: a host stuck
    on a heavy job stops receiving new ones until it drains.

    Example::

        from repro.api import LeastLoaded

        policy = LeastLoaded()
        assert policy.score(None, None, {"inflight": 0}) > \\
               policy.score(None, None, {"inflight": 3})
    """

    def score(self, host: Any, job: Any,
              telemetry: "Mapping[str, Any]") -> float:
        return -float(telemetry["inflight"])

    def __repr__(self) -> str:
        return "LeastLoaded()"


class StoreWarmth:
    """Prefer hosts that already hold this job's template, then load.

    A warm host boots the template with zero build work (the op-gated
    store-hit path), so when boot cost dominates, steering a job to a
    warm host beats spreading the load evenly.  Among equally-warm
    hosts, the least loaded wins.

    Example::

        from repro.api import StoreWarmth

        policy = StoreWarmth()
        warm = {"warm": True, "inflight": 2}
        cold = {"warm": False, "inflight": 0}
        assert policy.score(None, None, warm) > policy.score(None, None, cold)
    """

    #: Score bonus for a warm host — larger than any realistic in-flight
    #: gap, so warmth dominates and load only breaks warmth ties.
    warm_bonus = 1000.0

    def score(self, host: Any, job: Any,
              telemetry: "Mapping[str, Any]") -> float:
        bonus = self.warm_bonus if telemetry.get("warm") else 0.0
        return bonus - float(telemetry["inflight"])

    def __repr__(self) -> str:
        return "StoreWarmth()"


#: The built-ins by the names the ``--policy`` flags of ``repro batch``
#: and ``repro serve`` take.
POLICY_NAMES: "dict[str, type]" = {
    "round-robin": RoundRobin,
    "least-loaded": LeastLoaded,
    "store-warmth": StoreWarmth,
}


def resolve_policy(policy: "SchedulingPolicy | None") -> SchedulingPolicy:
    """Normalise a policy argument to a policy *object*.

    ``None`` means the default (:class:`RoundRobin`); policy objects
    pass through; anything without a callable ``score`` — a name
    string included — is a :class:`TypeError`.
    """
    if policy is None:
        return RoundRobin()
    if not callable(getattr(policy, "score", None)):
        raise TypeError(f"{policy!r} is not a SchedulingPolicy "
                        f"(needs a callable .score(host, job, telemetry))")
    return policy
