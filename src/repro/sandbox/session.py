"""Hierarchical sandbox sessions and their lifecycle.

Section 3.2.1: "Each process executing in a SHILL sandbox is associated
with a session.  Processes in the same session share the same set of
capabilities and can communicate via signals. ... sessions are
hierarchical: a sandboxed process inside session S1 can spawn a process
inside a new session S2, which has fewer capabilities than S1."

Lifecycle: ``shill_init`` creates the session and associates it with the
calling process; capability grants are allowed **only until**
``shill_enter``; after entering, "the session allows only operations
permitted by capabilities it was granted explicitly."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import SandboxError
from repro.sandbox.audit import AuditLog
from repro.sandbox.privileges import PrivSet, SocketPerms
from repro.sandbox.privmap import POLICY_SLOT, ensure_privmap, privmap_of

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.proc import Process


class Session:
    """One sandbox session."""

    #: Optional per-session policy engine (see :mod:`repro.policy`):
    #: overrides the kernel-wide ``Kernel.policy_engine`` for checks
    #: attributed to this session.  Class default so sessions restored
    #: from older pickles behave like engine-less ones.
    engine = None

    def __init__(
        self,
        sid: int,
        parent: Optional["Session"],
        manager: "SessionManager",
        debug: bool = False,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.manager = manager
        self.children: list[Session] = []
        self.entered = False
        self.dead = False
        self.procs: set[int] = set()
        self.pipe_factory = False
        self.socket_perms: SocketPerms | None = None
        self.debug = debug
        self.log = AuditLog()
        # Objects this session holds grants on, for end-of-life cleanup:
        # each once, in the order its first grant reached it.
        self.granted_objects: list[object] = []

    def attach(self, proc: "Process") -> None:
        """Add a process to this session (fork inherits the session)."""
        self.manager.attach(self, proc)

    def detach(self, proc: "Process") -> None:
        """Remove an exiting process; may trigger session teardown."""
        self.manager.detach(self, proc)

    def is_descendant_of(self, other: "Session") -> bool:
        node: Session | None = self
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False

    def __repr__(self) -> str:
        state = "entered" if self.entered else "setup"
        return f"<Session {self.sid} {state} procs={sorted(self.procs)}>"


@dataclass(frozen=True)
class AuditRecord:
    """A session's id plus its audit log — all that outlives teardown."""

    sid: int
    log: AuditLog


class SessionManager:
    """Creates, tracks, and tears down sessions for the SHILL policy."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._sessions: dict[int, Session] = {}
        # §3.2.2 wants audit logs viewable after the fact, so each
        # session's log is retained past teardown — but only the log
        # (entries of plain strings), never the Session object graph,
        # which would pin grants and parent/child cycles forever.
        self._audit: dict[int, AuditRecord] = {}
        #: highest sid handed out so far — both the sid allocator and the
        #: watermark for "which sessions were created since" queries.
        self.last_sid = 0

    # ------------------------------------------------------------------
    # lifecycle syscalls
    # ------------------------------------------------------------------

    def shill_init(self, proc: "Process", debug: bool = False,
                   engine=None) -> Session:
        """Create a new session and associate the calling process with it.

        If the process is already sandboxed, the new session becomes a
        *child* of its current session — the paper's mechanism for
        SHILL-aware executables to "further attenuate their privileges".

        ``engine`` binds a per-session policy engine (see
        :mod:`repro.policy`); child sessions inherit the parent's engine
        unless given their own, so one engine governs a whole sandbox
        tree.
        """
        parent = proc.session
        self.last_sid += 1
        session = Session(self.last_sid, parent, self, debug=debug)
        if engine is not None:
            session.engine = engine
        elif parent is not None and parent.engine is not None:
            session.engine = parent.engine
        self._sessions[session.sid] = session
        self._audit[session.sid] = AuditRecord(session.sid, session.log)
        if parent is not None:
            parent.children.append(session)
            parent.procs.discard(proc.pid)
        proc.session = session
        session.procs.add(proc.pid)
        self.kernel.stats.sandboxes_created += 1
        return session

    def shill_enter(self, proc: "Process") -> None:
        session = proc.session
        if session is None:
            raise SandboxError("shill_enter: process has no session")
        if session.entered:
            raise SandboxError("shill_enter: session already entered")
        session.entered = True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def audit_records(self) -> list[AuditRecord]:
        """One record per session ever created (including dead ones), in
        creation order — the audit surface "privileged users" view."""
        return list(self._audit.values())

    def restore(self, records: list[AuditRecord], last_sid: int) -> None:
        """Seed a forked kernel's manager with the template's history.

        Audit logs are snapshot-copied (§3.2.2 wants them viewable after
        the fact, and a fork should see everything its template saw);
        live sessions are per-run state and never carried across.  The
        sid watermark is preserved so sids allocated in any fork remain
        unambiguous relative to the template's records.
        """
        self._audit = {r.sid: AuditRecord(r.sid, r.log.clone()) for r in records}
        self.last_sid = last_sid

    def __getstate__(self) -> dict:
        """Snapshot state (:mod:`repro.kernel.serialize`): the audit
        history and sid watermark cross the snapshot, exactly as they
        cross :meth:`repro.sandbox.policy.ShillPolicy.fork_for`; live
        sessions are per-run state (their Session graphs pin grants and
        parent/child cycles) and are dropped."""
        return {
            "kernel": self.kernel,
            "audit": list(self._audit.values()),
            "last_sid": self.last_sid,
        }

    def __setstate__(self, state: dict) -> None:
        self.kernel = state["kernel"]
        self._sessions = {}
        self._audit = {r.sid: r for r in state["audit"]}
        self.last_sid = state["last_sid"]

    def audit_records_since(self, sid: int) -> list[AuditRecord]:
        """Records for sessions created after ``sid``, in creation order.
        _audit is insertion-ordered by sid, so scan from the tail."""
        newer: list[AuditRecord] = []
        for record in reversed(self._audit.values()):
            if record.sid <= sid:
                break
            newer.append(record)
        newer.reverse()
        return newer

    # ------------------------------------------------------------------
    # grants (setup phase only)
    # ------------------------------------------------------------------

    def grant(self, session: Session, obj: object, privs: PrivSet) -> None:
        """Grant ``privs`` on kernel object ``obj`` to ``session``.

        Only legal before ``shill_enter``.  When the granting context is a
        *parent session* (nested sandboxes), the grant must not exceed the
        parent's own privileges on the object — "which has fewer
        capabilities than S1".  Top-level grants (from the SHILL runtime,
        which holds the user's ambient authority) are unrestricted.
        """
        if session.entered:
            raise SandboxError("cannot grant capabilities after shill_enter")
        if session.dead:
            raise SandboxError("cannot grant to a dead session")
        parent = session.parent
        if parent is not None:
            pm = privmap_of(obj)
            parent_privs = pm.privs_for(parent.sid) if pm is not None else PrivSet.empty()
            if not privs.subset_of(parent_privs):
                raise SandboxError(
                    f"grant exceeds parent session's privileges: {privs!r} not within {parent_privs!r}"
                )
        self.merge_privs(session, obj, privs)
        session.log.grant(session.sid, _describe(self.kernel, obj), privs)

    def merge_privs(self, session: Session, obj: object, privs: PrivSet) -> None:
        """Merge ``privs`` into ``session``'s entry in ``obj``'s privilege
        map and bump the label epoch.  Grants, propagation, pipe creation
        and debug auto-grants all land here; the merge that creates the
        entry records ``obj`` for teardown to revoke."""
        pm = ensure_privmap(obj)
        first = session.sid not in pm
        pm.merge(session.sid, privs)
        self.kernel.label_mutation(session.sid)
        if first:
            session.granted_objects.append(obj)

    def grant_pipe_factory(self, session: Session) -> None:
        if session.entered:
            raise SandboxError("cannot grant capabilities after shill_enter")
        if session.parent is not None and not session.parent.pipe_factory:
            raise SandboxError("parent session holds no pipe factory")
        session.pipe_factory = True

    def grant_socket_factory(self, session: Session, perms: SocketPerms) -> None:
        if session.entered:
            raise SandboxError("cannot grant capabilities after shill_enter")
        parent = session.parent
        if parent is not None:
            if parent.socket_perms is None or not perms.subset_of(parent.socket_perms):
                raise SandboxError("socket factory grant exceeds parent session's")
        session.socket_perms = perms

    # ------------------------------------------------------------------
    # membership and teardown
    # ------------------------------------------------------------------

    def get(self, sid: int) -> Session | None:
        return self._sessions.get(sid)

    def attach(self, session: Session, proc: "Process") -> None:
        session.procs.add(proc.pid)

    def detach(self, session: Session, proc: "Process") -> None:
        session.procs.discard(proc.pid)
        self._maybe_cleanup(session)

    def _maybe_cleanup(self, session: Session) -> None:
        """Tear a session down once it has no processes and no live
        children (the kernel's asynchronous session cleanup, run eagerly
        here for determinism)."""
        if session.procs or session.dead:
            return
        if any(not child.dead for child in session.children):
            return
        session.dead = True
        if session.granted_objects:
            # Attribute the teardown's label-epoch bump to the dying
            # session: revocation is *its* effect, and audit consumers
            # (mac.last_label_sid, the revoke entries below) must name
            # it rather than losing the originating sid.
            self.kernel.label_mutation(session.sid)
        for obj in session.granted_objects:
            pm = privmap_of(obj)
            if pm is not None:
                dropped = pm.privs_for(session.sid)
                pm.drop_session(session.sid)
                if len(dropped):
                    session.log.revoke(session.sid, _describe(self.kernel, obj),
                                       f"dropped {dropped!r}")
                if not pm.sessions():
                    # An empty privilege map is behaviourally identical
                    # to an absent one; dropping the slot restores the
                    # unlabelled state (and keeps post-run snapshot
                    # deltas proportional to *surviving* grants).
                    obj.label.clear(POLICY_SLOT)
        self._sessions.pop(session.sid, None)
        if session.parent is not None:
            self._maybe_cleanup(session.parent)

    def live_sessions(self) -> list[Session]:
        return [s for s in self._sessions.values() if not s.dead]


def _describe(kernel: "Kernel", obj: object) -> str:
    """Best-effort human-readable name for an object, for audit logs."""
    from repro.sandbox.audit import describe_object

    return describe_object(kernel, obj)
