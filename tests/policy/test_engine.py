"""The PolicyEngine protocol: decisions, records, and resolution."""

from __future__ import annotations

import pickle

from repro.policy import (
    CapabilityEngine,
    Decision,
    DecisionRecord,
    PolicyEngine,
    PolicyRequest,
    engine_for,
)


def _req(**kw) -> PolicyRequest:
    base = dict(domain="vnode", operation="read", target="/home/alice/x",
                priv="+read", sid=3, user="alice")
    base.update(kw)
    return PolicyRequest(**base)


class TestProtocol:
    def test_base_engine_defers_everything(self):
        engine = PolicyEngine()
        assert engine.pre_check(_req()) is Decision.DEFER
        assert engine.pre_check(_req(domain="mac", sid=0)) is Decision.DEFER
        assert engine.records == []

    def test_capability_engine_is_digestible(self):
        """The explicit no-op spelling must not cost a world its boot
        cache."""
        assert CapabilityEngine().digest() == "capability"
        assert PolicyEngine().digest() is None

    def test_record_retains_decision_trail(self):
        engine = PolicyEngine()
        req = _req()
        engine.record(req, Decision.DENY, rule="block")
        [rec] = engine.records
        assert rec == DecisionRecord(req, Decision.DENY, engine.name, "block")
        assert "deny" in rec.format() and "block" in rec.format()

    def test_request_describe_names_session_or_user(self):
        assert "session 3" in _req().describe()
        assert "alice" in _req(sid=0).describe()

    def test_records_are_dropped_on_pickle(self):
        """The decision trail is runtime observability: equal machines
        must produce equal snapshot bytes regardless of what either one
        was asked."""
        engine = PolicyEngine()
        engine.record(_req(), Decision.ALLOW)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.records == []


class TestEngineFor:
    class _Session:
        engine = None

    def test_no_engine_anywhere_is_none(self, kernel):
        assert engine_for(self._Session(), kernel) is None

    def test_kernel_wide_engine_applies(self, kernel):
        engine = CapabilityEngine()
        kernel.policy_engine = engine
        assert engine_for(self._Session(), kernel) is engine

    def test_session_engine_overrides_kernel_wide(self, kernel):
        kernel.policy_engine = CapabilityEngine()
        session = self._Session()
        session.engine = PolicyEngine()
        assert engine_for(session, kernel) is session.engine
