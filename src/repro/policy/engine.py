"""The pluggable policy-engine protocol.

SHILL's value is the policy layer, but until this module the MAC and
capability decisions were hard-wired: :class:`repro.sandbox.policy.
ShillPolicy` consulted privilege maps directly, and the language layer
(:mod:`repro.capability.caps`) consulted privilege sets directly.  A
:class:`PolicyEngine` slots *in front of* those decisions: every check
site first asks the engine, which may

* **ALLOW** — override a would-be denial (the operation proceeds, and
  the override is audited),
* **DENY** — revoke an operation the capability semantics would have
  allowed (the denial is audited like any other), or
* **DEFER** — fall through to the unmodified SHILL capability
  semantics.

The default (no engine, or :class:`CapabilityEngine`) defers everything,
so a kernel without an engine behaves **byte-identically** to the
hard-wired code: same audit lines, same op counts, same fingerprints.

Decision sites and their request *domains*:

============  ==============================================  ==========
domain        decision site                                   denial
============  ==============================================  ==========
``vnode``     :class:`ShillPolicy` vnode hooks                audited
``pipe``      :class:`ShillPolicy` pipe read/write/stat hooks audited
``socket``    :class:`ShillPolicy` socket hooks               audited
``proc``      :class:`ShillPolicy` signal/wait/debug hooks    audited
``system``    :class:`ShillPolicy` sysctl/kenv/kld/IPC hooks  audited
              (Figure 7)
``language``  capability-value privilege checks               contract
              (:mod:`repro.capability.caps`)                  violation
``mac``       :meth:`repro.kernel.mac.MacFramework.check`     raw errno
              (raw framework hooks, *no* session context)
============  ==============================================  ==========

The five sandbox domains reach one decision function,
``ShillPolicy._decide`` (:mod:`repro.sandbox.policy`); the file and
socket capabilities of the language share one method; the framework
has its one site.

Engines are consulted through two hooks (the pre/post shape of the
snippet-idiom Policy ABC): :meth:`PolicyEngine.pre_check` decides,
:meth:`PolicyEngine.post_check` observes the final outcome.  An engine
is consulted if and only if one is installed; each domain has one
decision path, and on it a DEFER reaches ``post_check`` exactly once
with the final outcome (after any debug-mode auto-grant), while ALLOW
and DENY never do.  Every non-DEFER decision is retained as a
:class:`DecisionRecord` on the engine (``engine.records``) for
inspection — the approval/audit trail.

Engine placement: a kernel-wide engine lives at
``kernel.policy_engine`` (declaratively: :meth:`repro.api.World.
with_policy_rules`); a per-sandbox-session engine at
``session.engine`` overrides it (:class:`repro.api.Sandbox` and
:class:`repro.api.Session` accept ``engine=``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

#: The request domains engines can be consulted in.
DOMAINS = ("vnode", "pipe", "socket", "proc", "system", "language", "mac")


class Decision(enum.Enum):
    """An engine's answer for one :class:`PolicyRequest`."""

    ALLOW = "allow"
    DENY = "deny"
    DEFER = "defer"


@dataclass(frozen=True)
class PolicyRequest:
    """One access-control question, as the engine sees it.

    ``target`` is the stable audit description of the object (a path for
    vnodes — the same string audit lines use).  ``held`` is the set of
    privilege names the subject's session currently holds on the target
    (empty outside the SHILL privilege domains).  ``sid`` is 0 for
    requests with no sandbox session (framework-level ``mac`` requests).
    """

    domain: str
    operation: str
    target: str
    priv: str = ""
    sid: int = 0
    user: str = ""
    held: frozenset = frozenset()

    def describe(self) -> str:
        who = f"session {self.sid}" if self.sid else (self.user or "?")
        return f"[{self.domain}] {who}: {self.operation} {self.priv} on {self.target}"


@dataclass(frozen=True)
class DecisionRecord:
    """One non-DEFER engine decision, retained for inspection."""

    request: PolicyRequest
    decision: Decision
    engine: str
    rule: str = ""

    def format(self) -> str:
        via = f" via {self.rule}" if self.rule else ""
        return f"{self.decision.value:5s} {self.request.describe()} ({self.engine}{via})"


class PolicyEngine:
    """Base engine: defers everything (pure SHILL capability semantics).

    Subclasses override :meth:`pre_check` (and optionally
    :meth:`post_check`).  The class is deliberately *not* abstract — the
    base is the identity engine, exactly like
    :class:`repro.kernel.mac.MacPolicy`'s every-hook-allows base.

    ``mutations`` is bumped whenever the engine's *future decisions* may
    differ (rule edits, default flips).  The syscall layer folds it into
    the resolved-path dcache stamp so cached walks are re-judged after
    an engine change.
    """

    name = "policy-engine"

    def __init__(self) -> None:
        self.records: list[DecisionRecord] = []
        self.mutations = 0

    # -- the decision hooks ------------------------------------------------

    def pre_check(self, request: PolicyRequest) -> Decision:
        """Decide ``request``; DEFER falls through to capability
        semantics."""
        return Decision.DEFER

    def post_check(self, request: PolicyRequest, allowed: bool) -> None:
        """Observe the final outcome of a request this engine deferred,
        once, after capability semantics (and any debug auto-grant)
        ran.  Never called for an ALLOW or a DENY."""

    # -- plumbing ----------------------------------------------------------

    def record(self, request: PolicyRequest, decision: Decision,
               rule: str = "") -> None:
        """Retain a non-DEFER decision on the engine's approval trail."""
        self.records.append(DecisionRecord(request, decision, self.name, rule))

    def fork_for(self, kernel: Any) -> "PolicyEngine":
        """The engine instance for a forked kernel.  Sharing ``self`` is
        right for engines whose decisions are pure functions of the
        request (rules); stateful engines override."""
        return self

    def digest(self) -> Optional[str]:
        """A stable content hash, or None when the engine's decisions
        cannot be named by data (arbitrary code).  Digestible engines
        keep the worlds that install them boot-cacheable."""
        return None

    def __getstate__(self) -> dict:
        # The decision trail is runtime observability, like the dcache:
        # it never crosses a snapshot (equal machines must produce equal
        # snapshot bytes regardless of what either one was asked).
        state = dict(self.__dict__)
        state["records"] = []
        return state

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CapabilityEngine(PolicyEngine):
    """The explicit spelling of the default: defer every request to the
    SHILL capability semantics.  Installing it changes no outcome, audit
    line or op count (an installed engine is asked, so it costs the
    requests) — it exists so "no engine" has a value and a name.

    Example::

        from repro.policy import CapabilityEngine, Decision, PolicyRequest

        engine = CapabilityEngine()
        req = PolicyRequest(domain="vnode", operation="read", target="/etc/passwd")
        assert engine.pre_check(req) is Decision.DEFER
    """

    name = "capability"

    def digest(self) -> str:
        return "capability"


def engine_for(session: Any, kernel: Any) -> Optional[PolicyEngine]:
    """The engine governing ``session``'s checks: the session's own, or
    the kernel-wide one.  Returns None when neither is set (the common
    fast path — byte-identical legacy behavior)."""
    engine = getattr(session, "engine", None)
    if engine is not None:
        return engine
    return kernel.policy_engine
