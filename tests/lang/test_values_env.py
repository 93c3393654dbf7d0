"""Values, environments, errors, and audit-log unit tests."""

from __future__ import annotations

import pytest

from repro.errors import (
    CapabilitySafetyError,
    ContractViolation,
    ShillRuntimeError,
    ShillSyntaxError,
    SysError,
)
from repro.kernel import errno_
from repro.lang.env import Env
from repro.lang.values import VOID, SysErrorVal, Void, shill_repr, truthy
from repro.sandbox.audit import AuditLog
from repro.sandbox.privileges import Priv, PrivSet


class TestVoid:
    def test_singleton(self):
        assert Void() is VOID

    def test_falsy(self):
        assert not VOID

    def test_repr(self):
        assert repr(VOID) == "void"


class TestSysErrorVal:
    def test_equality_by_name(self):
        assert SysErrorVal("ENOENT") == SysErrorVal("ENOENT", "different msg")
        assert SysErrorVal("ENOENT") != SysErrorVal("EACCES")

    def test_hashable(self):
        assert len({SysErrorVal("ENOENT"), SysErrorVal("ENOENT")}) == 1


class TestTruthy:
    def test_bools_pass(self):
        assert truthy(True) is True and truthy(False) is False

    @pytest.mark.parametrize("value", [0, 1, "", "x", [], VOID])
    def test_non_bools_rejected(self, value):
        with pytest.raises(ShillRuntimeError):
            truthy(value)


class TestShillRepr:
    def test_forms(self):
        assert shill_repr(True) == "true"
        assert shill_repr(False) == "false"
        assert shill_repr("s") == "s"
        assert shill_repr([1, "a", True]) == "[1, a, true]"
        assert shill_repr(VOID) == "void"


class TestEnv:
    def test_define_lookup(self):
        env = Env()
        env.define("x", 1)
        assert env.lookup("x") == 1

    def test_shadowing_in_child(self):
        env = Env()
        env.define("x", 1)
        child = Env(env)
        child.define("x", 2)
        assert child.lookup("x") == 2
        assert env.lookup("x") == 1

    def test_no_redefinition(self):
        env = Env()
        env.define("x", 1)
        with pytest.raises(ShillRuntimeError):
            env.define("x", 2)

    def test_unbound(self):
        with pytest.raises(ShillRuntimeError):
            Env().lookup("ghost")

    def test_bound_and_names(self):
        env = Env()
        env.define("a", 1)
        child = Env(env)
        child.define("b", 2)
        assert child.bound("a") and child.bound("b") and not child.bound("c")
        assert child.names() == ["a", "b"]


class TestErrors:
    def test_syserror_carries_errno_and_name(self):
        err = SysError(errno_.EACCES, "nope")
        assert err.errno == errno_.EACCES and err.name == "EACCES"
        assert "EACCES" in str(err)

    def test_contract_violation_fields(self):
        err = ContractViolation("who", "ctc", "why")
        assert err.blame == "who" and "why" in str(err)

    def test_syntax_error_location(self):
        err = ShillSyntaxError("bad", 3, 7, "f.cap")
        assert "f.cap:3:7" in str(err)

    def test_hierarchy(self):
        from repro.errors import ReproError

        for cls in (SysError, ContractViolation, ShillSyntaxError,
                    ShillRuntimeError, CapabilitySafetyError):
            assert issubclass(cls, ReproError)


class TestAuditLog:
    def test_grant_deny_autogrant(self):
        log = AuditLog()
        log.grant(1, "/x", PrivSet.of(Priv.READ))
        log.deny(1, "open", "/y", Priv.READ)
        log.auto_grant(1, "open", "/y", Priv.READ)
        assert len(log.entries) == 3
        assert len(log.denials()) == 1
        assert len(log.auto_grants()) == 1
        formatted = log.format()
        assert "+read" in formatted and "/y" in formatted

    def test_string_priv_accepted(self):
        log = AuditLog()
        log.deny(2, "pipe-create", "<pipe>", "pipe-factory")
        assert "pipe-factory" in log.denials()[0].detail
