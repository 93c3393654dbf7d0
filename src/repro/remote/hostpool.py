"""The coordinator's host registry and its one failover loop.

A :class:`HostPool` holds one :class:`HostState` per agent address and
answers one question — *which live host should this job go to?* — by
scoring every candidate with a :class:`repro.api.scheduling
.SchedulingPolicy` object (``score(host, job, telemetry) → weight``;
highest wins, registration order breaks ties).  The built-ins are
``RoundRobin``, ``LeastLoaded`` and ``StoreWarmth``.

:meth:`HostPool.dispatch` is the failover loop every coordinator runs —
:class:`~repro.api.executors.remote.RemoteExecutor` for its own fleet,
the :mod:`repro.serve` gateway for the announced one.  Health is
observational, not probed: a host is healthy until a wire operation
against it fails, at which point the loop calls :meth:`mark_dead` (a
health *strike*) and the pool stops offering it.  The job retries on
the survivors with the dead host *excluded* (the per-job ``excluded``
set passed to :meth:`pick`), so a flapping host cannot trap a job in a
retry loop against itself; when every host is dead or excluded, the
loop raises :class:`HostsExhausted` listing the hosts it tried.

Dead is no longer forever.  Three ways back into rotation:

* an agent that says a clean **GOODBYE** (SIGTERM drain) is marked
  *retired* — out of rotation, but with no strike and no panic;
* :meth:`HostPool.try_revive` re-dials dead hosts and resurrects any
  whose agent answers the handshake again (restarted agents keep their
  snapshot stores, so resurrection is warm) — the loop's last resort
  before giving up;
* a gateway admits hosts dynamically: :meth:`HostPool.add_host` admits
  a brand-new address mid-flight, and re-announcing a known address
  revives it (see :mod:`repro.serve`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.remote.wire import ChannelMux, Message, PeerError, WireError, open_link

if TYPE_CHECKING:
    from repro.api.scheduling import SchedulingPolicy
    from repro.kernel.store import SnapshotStore


def _quiet(*_args: Any, **_fields: Any) -> None:
    """The default event hook: coordinators without a log say nothing."""


@dataclass(frozen=True)
class HostSpec:
    """One agent address.

    Constructed directly, or parsed from the ``"host:port"`` spelling
    the CLI's ``--hosts`` flag uses::

        >>> HostSpec.parse("127.0.0.1:7001")
        HostSpec(host='127.0.0.1', port=7001)
    """

    host: str
    port: int

    @classmethod
    def parse(cls, spec: "HostSpec | str | tuple[str, int]") -> "HostSpec":
        if isinstance(spec, HostSpec):
            return spec
        if isinstance(spec, tuple):
            return cls(spec[0], int(spec[1]))
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"host spec {spec!r} is not 'host:port'")
        return cls(host, int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class WireTemplate:
    """What a host needs to run jobs against one template: the wire
    ``key`` SUBMITs name, the PREPARE ``fields``, and the ``store`` whose
    snapshot bytes answer the host's NEEDs.
    """

    key: str
    fields: dict
    store: "SnapshotStore"


class HostsExhausted(LookupError):
    """No host is left for a job: every one is dead, retired, or was
    tried and excluded.  ``tried`` lists each host the job tried, with
    why it left; ``detail`` says that (or describes the pool when the
    job tried none)."""

    def __init__(self, tried: "list[str]", pool: str) -> None:
        self.tried = tried
        self.detail = (f"hosts tried: {', '.join(tried)}" if tried
                       else pool or "no hosts registered")
        super().__init__(f"no live hosts left ({self.detail})")


class HostState:
    """Per-host book-keeping of one :class:`HostPool`.

    ``link`` is the host's wire conversation — a
    :class:`~repro.remote.wire.ChannelMux` (N concurrent jobs on one
    connection); ``slots`` caps how many of them are in flight at once;
    ``prepared`` records which template keys this host has already
    restored (so rebinding the same template costs nothing);
    ``inflight`` feeds load-aware policies; ``strikes`` counts crashes
    (clean retirements don't strike).
    """

    def __init__(self, spec: HostSpec, concurrency: int) -> None:
        self.spec = spec
        self.lock = threading.Lock()
        self.slots = threading.Semaphore(concurrency)
        self.link: "ChannelMux | None" = None
        self.alive = True
        self.retired = False
        self.strikes = 0
        self.inflight = 0
        self.jobs_done = 0
        self.prepared: set = set()
        self.last_error: "str | None" = None

    def open_link(self, on_goodbye=None) -> ChannelMux:
        """The host's (lazily opened, handshaken) link.  A connect
        failure propagates as :class:`~repro.remote.wire.WireError` for
        the failover loop."""
        with self.lock:
            if self.link is None:
                self.link, _hello = open_link(self.spec.host, self.spec.port,
                                              on_goodbye=on_goodbye)
            return self.link

    def __repr__(self) -> str:
        if self.alive:
            state = "alive"
        elif self.retired:
            state = "retired"
        else:
            state = f"dead ({self.last_error})"
        return f"<Host {self.spec} {state} inflight={self.inflight} done={self.jobs_done}>"


class HostPool:
    """The registry + scheduling policy over a set of agent hosts.

    ``policy`` is a :class:`~repro.api.scheduling.SchedulingPolicy`
    object (default :class:`~repro.api.scheduling.RoundRobin`).  A pool
    may start with zero hosts: a gateway's agents announce themselves
    in later.  ``concurrency`` caps the jobs :meth:`dispatch` keeps in
    flight on any one host.
    """

    def __init__(self, hosts: "Iterable[HostSpec | str | tuple[str, int]]" = (),
                 policy: "SchedulingPolicy | None" = None,
                 concurrency: int = 1) -> None:
        from repro.api.scheduling import resolve_policy
        self.policy = resolve_policy(policy)
        self.concurrency = max(1, int(concurrency))
        self._hosts = [HostState(HostSpec.parse(spec), self.concurrency)
                       for spec in hosts]
        seen: set[str] = set()
        for host in self._hosts:
            if str(host.spec) in seen:
                raise ValueError(f"duplicate host {host.spec}")
            seen.add(str(host.spec))
        self._lock = threading.Lock()
        self._rotation = 0

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self) -> Iterator[HostState]:
        return iter(self._hosts)

    @property
    def hosts(self) -> list[HostState]:
        return list(self._hosts)

    def live(self) -> list[HostState]:
        return [h for h in self._hosts if h.alive]

    # -- sharding ----------------------------------------------------------

    def pick(self, excluded: "Iterable[HostSpec]" = (), job: Any = None,
             wire_key: "str | None" = None) -> HostState:
        """The next host for one job: the policy's highest-scoring live
        host not in ``excluded`` (registration order breaks ties);
        raises :class:`HostsExhausted` when none qualify.  ``wire_key``
        names the job's template so warmth-aware policies can see which
        hosts already hold it."""
        shunned = self._parse_excluded(excluded)
        with self._lock:
            candidates = [(i, h) for i, h in enumerate(self._hosts)
                          if h.alive and h.spec not in shunned]
            if not candidates:
                raise HostsExhausted([], self.describe())
            ring = len(self._hosts)

            def telemetry(position: int, host: HostState) -> dict:
                return {
                    "ring_position": position,
                    "ring_size": ring,
                    "rotation": self._rotation,
                    "inflight": host.inflight,
                    "jobs_done": host.jobs_done,
                    "warm": wire_key is not None and wire_key in host.prepared,
                    "strikes": host.strikes,
                    "retired": host.retired,
                }

            position, best = max(
                candidates,
                key=lambda pair: self.policy.score(pair[1], job,
                                                   telemetry(*pair)))
            # The rotation trails the last pick so ring-walking policies
            # (RoundRobin) resume just past it, dead hosts skipped.
            self._rotation = (position + 1) % ring
            return best

    @staticmethod
    def _parse_excluded(excluded: "Iterable[HostSpec]") -> set:
        return {HostSpec.parse(e) if not isinstance(e, HostSpec) else e
                for e in excluded}

    @contextmanager
    def lease(self, host: HostState) -> Iterator[HostState]:
        """Scope one job's occupancy of ``host`` (feeds load-aware
        policies).  ``jobs_done`` counts only leases that completed — a
        host that died mid-job must not be credited with the work it
        ate."""
        with self._lock:
            host.inflight += 1
        try:
            yield host
        except BaseException:
            with self._lock:
                host.inflight -= 1
            raise
        with self._lock:
            host.inflight -= 1
            host.jobs_done += 1

    # -- links -------------------------------------------------------------

    def link_for(self, host: HostState) -> ChannelMux:
        """Open (or reuse) the host's link; a clean GOODBYE from the
        peer marks the host retired rather than dead."""
        return host.open_link(
            on_goodbye=lambda: self.mark_retired(host))

    # -- the failover loop -------------------------------------------------

    def dispatch(self, template: WireTemplate, fields: dict,
                 *, job: Any = None, log: "Callable[..., None]" = _quiet,
                 on_ready: "Callable[..., None]" = _quiet) -> Message:
        """Run one SUBMIT (``fields``) on some live host.

        Pick a host for ``job`` (re-dialling dead hosts once before
        giving up), take one of its concurrency slots, open its link,
        PREPARE it for ``template`` once, lease it and send the SUBMIT.
        A crash strikes the host and a clean GOODBYE retires it; either
        way the host is excluded for this job and the loop tries the
        next, so every turn shrinks the candidate set.  Returns the
        reply — RESULT, or BUSY for the caller to back off on — and
        raises :class:`HostsExhausted` once no host is left.  A host
        that answers ERROR on the request's channel raises
        :class:`~repro.remote.wire.PeerError`: the job failed there, and
        the host is neither struck nor excluded.

        ``log(event, **fields)`` narrates the decisions (``dispatch``,
        ``result``, ``prepared``, ``dead``, ``retired``, ``revived``);
        ``on_ready(host, template, ready)`` sees each READY.
        """
        name, user = fields.get("name"), fields.get("user")
        tried: list[str] = []
        excluded: set[HostSpec] = set()
        while True:
            host = self._pick_or_revive(job, template.key, excluded, tried, log)
            with host.slots:
                try:
                    link = self.link_for(host)
                    self._prepare(host, link, template, log, on_ready)
                    with self.lease(host):
                        log("dispatch", name=name, user=user, verdict="miss",
                            host=str(host.spec))
                        reply = link.request("SUBMIT", fields).expect(
                            "RESULT", "BUSY")
                except PeerError:
                    raise  # the host answered: this job failed, the host did not
                except (WireError, OSError) as err:
                    excluded.add(host.spec)
                    if host.retired:
                        # A clean GOODBYE raced this job: no strike (the
                        # pool already marked the retirement).
                        log("retired", host=str(host.spec), name=name)
                        tried.append(f"{host.spec} (retired)")
                    else:
                        self.mark_dead(host, err)
                        log("dead", host=str(host.spec), name=name,
                            error=str(err))
                        tried.append(f"{host.spec} ({type(err).__name__}: {err})")
                    continue
            if reply.type == "RESULT":
                log("result", name=name, host=str(host.spec),
                    status=reply.fields.get("status", "ok"))
            return reply

    def _pick_or_revive(self, job: Any, key: str, excluded: "set[HostSpec]",
                        tried: "list[str]", log: "Callable[..., None]",
                        ) -> HostState:
        """Policy pick; before giving up on an empty ring, re-dial the
        dead hosts — a restarted agent rejoins right here."""
        try:
            return self.pick(excluded=excluded, job=job, wire_key=key)
        except HostsExhausted:
            revived = self.try_revive(excluded=excluded)
        if revived:
            log("revived", hosts=[str(h.spec) for h in revived])
            try:
                return self.pick(excluded=excluded, job=job, wire_key=key)
            except HostsExhausted:
                pass  # the revived hosts died again in between
        raise HostsExhausted(tried, self.describe())

    @staticmethod
    def _prepare(host: HostState, link: ChannelMux, template: WireTemplate,
                 log: "Callable[..., None]", on_ready: "Callable[..., None]",
                 ) -> None:
        """PREPARE ``host`` for ``template`` once: ship the snapshot
        digest, and when the host's store misses it (a NEED reply), the
        same PREPARE again with the snapshot bytes.  ``host.lock``
        serialises concurrent preparers."""
        if template.key in host.prepared:
            return
        with host.lock:
            if template.key in host.prepared:
                return
            reply = link.request("PREPARE", template.fields)
            if reply.type == "NEED":
                reply = link.request(
                    "PREPARE", template.fields,
                    template.store.load(template.fields["snapshot"]))
            reply.expect("READY")
            host.prepared.add(template.key)
            log("prepared", host=str(host.spec), key=template.key[:16],
                source=reply.fields.get("source"))
            on_ready(host, template, reply)

    # -- health ------------------------------------------------------------

    def mark_dead(self, host: HostState, error: "BaseException | str") -> None:
        """Take ``host`` out of rotation with a health strike and drop
        its link.  Not forever: :meth:`try_revive` (or a gateway
        re-announce) brings a recovered agent back."""
        with self._lock:
            host.alive = False
            host.retired = False
            host.strikes += 1
            host.last_error = str(error)
            link, host.link = host.link, None
        if link is not None:
            link.close()

    def mark_retired(self, host: HostState) -> None:
        """Take ``host`` out of rotation *cleanly* — it said GOODBYE
        (drained SIGTERM), so no strike and no panic; its jobs were
        drained, not eaten."""
        with self._lock:
            host.alive = False
            host.retired = True
            host.last_error = "retired (clean GOODBYE)"
            link, host.link = host.link, None
        if link is not None:
            link.close()

    def revive(self, spec: "HostSpec | str | tuple[str, int]") -> HostState:
        """Put a known host back into rotation (an agent restarted and
        re-announced itself).  The restarted process lost its in-memory
        templates — ``prepared`` resets so the next job re-PREPAREs —
        but kept its snapshot store, so the re-PREPARE is warm."""
        spec = HostSpec.parse(spec)
        for host in self._hosts:
            if host.spec == spec:
                with self._lock:
                    host.alive = True
                    host.retired = False
                    host.last_error = None
                    host.prepared.clear()
                    link, host.link = host.link, None
                if link is not None:
                    link.close()
                return host
        raise LookupError(f"no such host {spec}")

    def add_host(self, spec: "HostSpec | str | tuple[str, int]") -> HostState:
        """Admit ``spec`` into the pool: a brand-new address joins the
        ring; a known one is revived (rejoin after restart)."""
        spec = HostSpec.parse(spec)
        if any(h.spec == spec for h in self._hosts):
            return self.revive(spec)
        host = HostState(spec, self.concurrency)
        with self._lock:
            self._hosts.append(host)
        return host

    def try_revive(self, excluded: "Iterable[HostSpec]" = ()
                   ) -> list[HostState]:
        """Re-dial every dead host (skipping ``excluded``) and resurrect
        the ones whose agent answers the handshake again.  Called by
        :meth:`dispatch` as a last resort before declaring "no live
        hosts"."""
        shunned = self._parse_excluded(excluded)
        revived: list[HostState] = []
        for host in self._hosts:
            if host.alive or host.spec in shunned:
                continue
            try:
                link, _hello = open_link(
                    host.spec.host, host.spec.port, timeout=2.0,
                    on_goodbye=lambda h=host: self.mark_retired(h))
            except (WireError, OSError):
                continue
            with self._lock:
                host.alive = True
                host.retired = False
                host.last_error = None
                host.prepared.clear()
                host.link = link
            revived.append(host)
        return revived

    def describe(self) -> str:
        """One line per host, for error messages and ``repr``."""
        return "; ".join(repr(h) for h in self._hosts)

    def close_all(self, farewell: bool = True) -> None:
        """Close every link (sending GOODBYE to live peers when
        ``farewell`` — best-effort; a dead peer is already gone)."""
        for host in self._hosts:
            with self._lock:
                link, host.link = host.link, None
            if link is None:
                continue
            if farewell and host.alive:
                try:
                    link.goodbye()
                except Exception:
                    pass
            link.close()

    def __repr__(self) -> str:
        live = len(self.live())
        return (f"<HostPool {live}/{len(self._hosts)} live "
                f"policy={self.policy!r}>")
