"""Declarative, data-driven policy rules.

A :class:`RuleEngine` is a policy as *data*: an ordered list of plain
dicts (loadable from JSON) matched first-hit-wins against each
:class:`~repro.policy.engine.PolicyRequest`.  Because the rules are
data, policies change with zero code changes — edit a JSON file, hand
it to :meth:`repro.api.World.with_policy_rules`, done — and because the
rule list has a stable :meth:`~RuleEngine.digest`, a world that
installs one stays boot-cacheable and its batch results stay
result-cacheable.

Rule schema (all fields optional except ``effect``; an absent field
matches everything)::

    {
      "name":       "block-secrets",          # for audit attribution
      "effect":     "allow" | "deny",         # required
      "domains":    ["vnode", "language"],    # see DOMAINS
      "operations": ["read", "open*"],        # fnmatch globs
      "privs":      ["+read", "+write"],      # SHILL privilege names
      "paths":      ["/etc/secrets"],         # prefix match on target
      "users":      ["alice"],                # subject user names
    }

and the engine-level ``default`` ("defer" | "allow" | "deny") answers
requests no rule matches.  ``default: "defer"`` (the default) keeps
unmatched requests on pure SHILL capability semantics — the engine is
then a pointwise *patch* over the capability policy rather than a
replacement for it.

Scope guard: unless a rule names domains explicitly, rules apply to the
session-scoped domains (vnode/pipe/socket/system/language) and **not**
to raw ``mac`` framework hooks — a framework-level denial bypasses the
session audit log, which would silently break the "every denial is
audited" invariant the fuzzer checks.  Name ``"mac"`` in ``domains``
to opt in deliberately.
"""

from __future__ import annotations

import hashlib
import json
from fnmatch import fnmatchcase
from typing import Any, Iterable, Optional

from repro.policy.engine import DOMAINS, Decision, PolicyEngine, PolicyRequest

#: Domains a rule applies to when it does not name any: everything with
#: session context (and therefore an audit trail for denials).
DEFAULT_DOMAINS = frozenset(d for d in DOMAINS if d != "mac")

_EFFECTS = {"allow": Decision.ALLOW, "deny": Decision.DENY}
_DEFAULTS = {"defer": Decision.DEFER, "allow": Decision.ALLOW, "deny": Decision.DENY}
_RULE_FIELDS = {"name", "effect", "domains", "operations", "privs", "paths", "users"}


class RuleError(ValueError):
    """A malformed rule or rule file."""


def _as_tuple(rule: dict, key: str) -> Optional[tuple[str, ...]]:
    value = rule.get(key)
    if value is None:
        return None
    if isinstance(value, str):
        raise RuleError(f"rule field {key!r} must be a list, got the string {value!r}")
    out = tuple(value)
    if not all(isinstance(v, str) for v in out):
        raise RuleError(f"rule field {key!r} must be a list of strings")
    return out


class Rule:
    """One compiled rule.  Matching is pure; instances are immutable."""

    __slots__ = ("name", "effect", "domains", "operations", "privs", "paths", "users")

    def __init__(self, spec: dict, index: int) -> None:
        if not isinstance(spec, dict):
            raise RuleError(f"rule #{index} is not an object: {spec!r}")
        unknown = set(spec) - _RULE_FIELDS
        if unknown:
            raise RuleError(f"rule #{index} has unknown fields: {sorted(unknown)}")
        try:
            self.effect = _EFFECTS[spec["effect"]]
        except KeyError:
            raise RuleError(
                f"rule #{index} needs \"effect\": \"allow\" or \"deny\" "
                f"(got {spec.get('effect')!r})"
            ) from None
        self.name = str(spec.get("name", f"rule-{index}"))
        domains = _as_tuple(spec, "domains")
        if domains is not None:
            bad = set(domains) - set(DOMAINS)
            if bad:
                raise RuleError(f"rule {self.name!r}: unknown domains {sorted(bad)}")
            self.domains: frozenset = frozenset(domains)
        else:
            self.domains = DEFAULT_DOMAINS
        self.operations = _as_tuple(spec, "operations")
        self.privs = _as_tuple(spec, "privs")
        self.paths = _as_tuple(spec, "paths")
        self.users = _as_tuple(spec, "users")

    def matches(self, request: PolicyRequest) -> bool:
        if request.domain not in self.domains:
            return False
        if self.operations is not None and not any(
            fnmatchcase(request.operation, pat) for pat in self.operations
        ):
            return False
        if self.privs is not None and request.priv not in self.privs:
            return False
        if self.users is not None and request.user not in self.users:
            return False
        if self.paths is not None:
            target = request.target
            if not any(
                target == p or (target.startswith(p.rstrip("/") + "/") if p != "/" else target.startswith("/"))
                for p in self.paths
            ):
                return False
        return True

    def spec(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "effect": self.effect.value}
        if self.domains != DEFAULT_DOMAINS:
            out["domains"] = sorted(self.domains)
        for key in ("operations", "privs", "paths", "users"):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value)
        return out


class RuleEngine(PolicyEngine):
    """A policy engine driven entirely by declarative rules.

    First matching rule wins; the engine ``default`` answers requests no
    rule matches.  Instances are immutable (``mutations`` stays 0) and
    picklable, and two engines built from equal rule data have equal
    :meth:`digest` — which is what lets a world carrying one keep its
    boot cache and result cache.

    Example::

        from repro.policy import Decision, PolicyRequest, RuleEngine

        engine = RuleEngine([
            {"name": "no-secrets", "effect": "deny", "paths": ["/etc/secrets"]},
        ])
        denied = PolicyRequest(domain="vnode", operation="read",
                               target="/etc/secrets/key", priv="+read")
        other = PolicyRequest(domain="vnode", operation="read",
                              target="/etc/motd", priv="+read")
        assert engine.pre_check(denied) is Decision.DENY
        assert engine.pre_check(other) is Decision.DEFER
    """

    name = "rules"

    def __init__(self, rules: Iterable[dict] = (), default: str = "defer",
                 name: Optional[str] = None) -> None:
        super().__init__()
        if default not in _DEFAULTS:
            raise RuleError(f"default must be one of {sorted(_DEFAULTS)}, got {default!r}")
        self.rules = tuple(Rule(spec, i) for i, spec in enumerate(rules))
        self.default = default
        if name is not None:
            self.name = str(name)

    # -- decisions ---------------------------------------------------------

    def match(self, request: PolicyRequest) -> Optional[Rule]:
        for rule in self.rules:
            if rule.matches(request):
                return rule
        return None

    def pre_check(self, request: PolicyRequest) -> Decision:
        rule = self.match(request)
        if rule is not None:
            self.record(request, rule.effect, rule=rule.name)
            return rule.effect
        # The engine default is scoped like default-domain rules: raw
        # ``mac`` framework requests always defer unless a rule names
        # them, so a default of "deny" can never produce a framework-
        # level denial that bypasses the session audit trail (and a
        # default of "allow" can never switch off the capability policy
        # wholesale — it answers per-privilege checks, which log).
        if request.domain not in DEFAULT_DOMAINS:
            return Decision.DEFER
        decision = _DEFAULTS[self.default]
        if decision is not Decision.DEFER:
            self.record(request, decision, rule=f"default-{self.default}")
        return decision

    # -- data round-trips --------------------------------------------------

    def to_spec(self) -> dict:
        """The engine as plain data (inverse of :meth:`from_spec`)."""
        return {
            "name": self.name,
            "default": self.default,
            "rules": [rule.spec() for rule in self.rules],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "RuleEngine":
        """Build from ``{"rules": [...], "default": ..., "name": ...}``
        (or a bare rule list)."""
        if isinstance(spec, list):
            spec = {"rules": spec}
        if not isinstance(spec, dict):
            raise RuleError(f"policy spec must be an object or list, got {type(spec).__name__}")
        unknown = set(spec) - {"name", "default", "rules"}
        if unknown:
            raise RuleError(f"policy spec has unknown fields: {sorted(unknown)}")
        return cls(
            spec.get("rules", ()),
            default=spec.get("default", "defer"),
            name=spec.get("name"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RuleEngine":
        """Build from JSON text (a policy file's contents)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RuleError(f"policy file is not valid JSON: {exc}") from exc
        return cls.from_spec(data)

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), indent=2, sort_keys=True)

    def digest(self) -> str:
        canonical = json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def __repr__(self) -> str:
        return (
            f"<RuleEngine {self.name!r} rules={len(self.rules)} "
            f"default={self.default!r}>"
        )
