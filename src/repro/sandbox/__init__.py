"""SHILL's capability-based sandbox: the MAC policy module and sessions."""

from repro.sandbox.audit import AuditEntry, AuditLog
from repro.sandbox.policy import ShillPolicy
from repro.sandbox.privileges import (
    ALL_PRIVS,
    ALL_SOCK_PRIVS,
    DERIVING_PRIVS,
    ConnType,
    Priv,
    PrivSet,
    SocketPerms,
    SockPriv,
    priv_from_name,
    sock_priv_from_name,
)
from repro.sandbox.privmap import PrivMap, ensure_privmap, privmap_of
from repro.sandbox.session import Session, SessionManager
from repro.sandbox.shilld import RunResult, parse_policy, parse_privspec, run_with_policy

__all__ = [
    "AuditEntry",
    "AuditLog",
    "ShillPolicy",
    "Priv",
    "PrivSet",
    "SockPriv",
    "SocketPerms",
    "ConnType",
    "ALL_PRIVS",
    "ALL_SOCK_PRIVS",
    "DERIVING_PRIVS",
    "priv_from_name",
    "sock_priv_from_name",
    "PrivMap",
    "privmap_of",
    "ensure_privmap",
    "Session",
    "SessionManager",
    "RunResult",
    "parse_policy",
    "parse_privspec",
    "run_with_policy",
]
