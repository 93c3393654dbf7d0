"""A configurable fake engine for tests.

:class:`FakePolicyEngine` answers from an explicit override table
instead of real policy logic, so a test can pin exactly the decisions
it needs and then assert on what the system *asked* — every request
(including deferred ones) lands in ``engine.requests``.

The override key is ``(domain, operation, target, priv)`` with ``None``
as a wildcard in any position; the most specific matching override
(most non-wildcard fields) wins, ties broken by insertion order
(later wins — a test that refines an override gets the refinement).
"""

from __future__ import annotations

from typing import Optional

from repro.policy.engine import Decision, PolicyEngine, PolicyRequest

_KEY_FIELDS = ("domain", "operation", "target", "priv")


class FakePolicyEngine(PolicyEngine):
    """Test double: decisions come from an explicit override table.

    Example::

        from repro.policy import Decision, FakePolicyEngine, PolicyRequest

        engine = FakePolicyEngine()
        engine.set(domain="vnode", priv="+write", decision=Decision.DENY)
        req = PolicyRequest(domain="vnode", operation="write",
                            target="/tmp/x", priv="+write")
        assert engine.pre_check(req) is Decision.DENY
        assert engine.requests[-1] is req

    ``deny_by_default()`` / ``allow_by_default()`` flip what unmatched
    requests get (a fresh fake defers them, i.e. pure capability
    semantics).
    """

    name = "fake"

    def __init__(self) -> None:
        super().__init__()
        self._overrides: list[tuple[tuple, Decision]] = []
        self._default = Decision.DEFER
        #: every request this engine was asked about, in order.
        self.requests: list[PolicyRequest] = []
        #: outcomes observed via post_check: (request, allowed) pairs.
        self.observed: list[tuple[PolicyRequest, bool]] = []

    # -- configuration -----------------------------------------------------

    def set(self, *, domain: Optional[str] = None, operation: Optional[str] = None,
            target: Optional[str] = None, priv: Optional[str] = None,
            decision: Decision = Decision.DENY) -> "FakePolicyEngine":
        """Pin ``decision`` for requests matching the given fields
        (``None`` = wildcard).  Returns self for chaining."""
        if not isinstance(decision, Decision):
            decision = Decision(decision)
        self._overrides.append(((domain, operation, target, priv), decision))
        self.mutations += 1
        return self

    def deny_by_default(self) -> "FakePolicyEngine":
        """Unmatched requests are denied (allow-list mode)."""
        self._default = Decision.DENY
        self.mutations += 1
        return self

    def allow_by_default(self) -> "FakePolicyEngine":
        """Unmatched requests are allowed (deny-list mode)."""
        self._default = Decision.ALLOW
        self.mutations += 1
        return self

    def reset(self) -> "FakePolicyEngine":
        """Drop all overrides, defaults, and recorded traffic."""
        self._overrides.clear()
        self._default = Decision.DEFER
        self.requests.clear()
        self.observed.clear()
        self.records.clear()
        self.mutations += 1
        return self

    # -- decisions ---------------------------------------------------------

    def _lookup(self, request: PolicyRequest) -> Optional[Decision]:
        best: Optional[tuple[int, int, Decision]] = None
        for order, (key, decision) in enumerate(self._overrides):
            score = 0
            for field, want in zip(_KEY_FIELDS, key):
                if want is None:
                    continue
                if getattr(request, field) != want:
                    break
                score += 1
            else:
                if best is None or (score, order) >= best[:2]:
                    best = (score, order, decision)
        return best[2] if best else None

    def pre_check(self, request: PolicyRequest) -> Decision:
        self.requests.append(request)
        decision = self._lookup(request)
        if decision is None:
            decision = self._default
        if decision is not Decision.DEFER:
            self.record(request, decision, rule="override")
        return decision

    def post_check(self, request: PolicyRequest, allowed: bool) -> None:
        self.observed.append((request, allowed))

    # -- introspection -----------------------------------------------------

    def asked(self, *, domain: Optional[str] = None,
              operation: Optional[str] = None) -> list[PolicyRequest]:
        """The requests seen, optionally filtered by domain/operation."""
        return [
            r for r in self.requests
            if (domain is None or r.domain == domain)
            and (operation is None or r.operation == operation)
        ]

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["requests"] = []
        state["observed"] = []
        return state
