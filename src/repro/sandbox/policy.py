"""The SHILL capability-based MAC policy module.

This is the reproduction of the paper's FreeBSD kernel module: "The SHILL
sandbox is implemented as a policy module for the TrustedBSD MAC
Framework" (section 3.2).  Every hook follows the same scheme, written
once in :meth:`ShillPolicy._decide`:

* find the subject's nearest **entered** session — processes outside any
  entered session are not sandboxed and every check passes;
* ask the installed **policy engine**, if any (:mod:`repro.policy`);
* consult the object's **privilege map** for that session;
* allow iff the session holds the privilege the operation maps to, else
  return ``EACCES`` ("the system call aborts with an error but the
  process is otherwise allowed to continue");
* in **debug mode**, auto-grant the missing privilege and log it.

Design points taken directly from the paper:

* ``vnode_post_lookup``/``vnode_post_create`` propagate privileges to
  derived objects, honouring ``with {...}`` modifiers;
* ``..`` lookups are *permitted* (so existing programs keep working) but
  never propagate privileges; neither does ``.`` ("this can lead to
  privilege amplification");
* writing requires **both** ``+write`` and ``+append`` because the MAC
  framework "exposes a single entry point for operations that write";
* a session "must possess a socket factory capability to be allowed to
  create and use sockets"; non-IP/Unix socket families are denied
  outright (Figure 7);
* sysctl is read-only; kenv, kld, and IPC are denied;
* "processes in a session can only interact with processes in the same
  session or a descendent session."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kernel import errno_
from repro.kernel.mac import MacPolicy
from repro.kernel.sockets import AddressFamily
from repro.kernel.vfs import VType, Vnode
from repro.policy.engine import Decision, PolicyRequest, engine_for
from repro.sandbox.privileges import Priv, PrivSet, SocketPerms, SockPriv
from repro.sandbox.privmap import privmap_of
from repro.sandbox.session import Session, SessionManager

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.pipes import Pipe
    from repro.kernel.proc import Process
    from repro.kernel.sockets import Socket

_CREATE_PRIV_FOR_VTYPE = {
    VType.VREG: Priv.CREATE_FILE,
    VType.VDIR: Priv.CREATE_DIR,
    VType.VLNK: Priv.CREATE_SYMLINK,
    VType.VFIFO: Priv.CREATE_PIPE,
}

_UNLINK_PRIV_FOR_VTYPE = {
    VType.VDIR: Priv.UNLINK_DIR,
}

_ALLOWED_SOCKET_DOMAINS = {int(AddressFamily.AF_UNIX), int(AddressFamily.AF_INET)}

_EMPTY = PrivSet.empty()
_LOOKUP = Priv.LOOKUP.bit
#: What a session holds on a pipe it minted itself: all it needs.
_PIPE_PRIVS = PrivSet.of(Priv.READ, Priv.WRITE, Priv.APPEND, Priv.STAT, Priv.PATH)


class ShillPolicy(MacPolicy):
    """The SHILL MAC policy: capability-based sandboxing."""

    name = "shill"

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.sessions = SessionManager(kernel)

    def fork_for(self, kernel: "Kernel") -> "ShillPolicy":
        """A fresh policy for a forked kernel: its own session manager,
        seeded with this one's audit history and sid watermark (live
        sessions are per-run state and never cross a fork)."""
        new = ShillPolicy(kernel)
        new.sessions.restore(self.sessions.audit_records(), self.sessions.last_sid)
        return new

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _effective_session(proc: "Process") -> Session | None:
        """The nearest *entered* session confining this process.

        A process between ``shill_init`` and ``shill_enter`` is still
        being configured by its (trusted or already-confined) parent
        context, so enforcement applies from the closest entered
        ancestor, if any.
        """
        session = proc.session
        while session is not None and not session.entered:
            session = session.parent
        return session

    def _describe(self, obj: Any) -> str:
        from repro.sandbox.audit import describe_object

        return describe_object(self.kernel, obj)

    def _decide(self, proc: "Process", session: Session, domain: str,
                operation: str, target: str, priv: "Priv | SockPriv | None",
                ok: bool, *, obj: Any = None, held: PrivSet = _EMPTY,
                reason: str = "") -> int:
        """The one decision every engine-consulting hook reaches.

        ``ok`` is the capability test's verdict.  The policy engine, if
        one is installed (the session's, else the kernel's), is asked
        first: ALLOW proceeds (audited as ``engine-allow`` when ``ok``
        is false), DENY is an audited denial naming the engine.  Then
        the capability test decides; a session in debug mode is
        auto-granted a missing ``priv`` (on ``obj``, or the socket
        factory when there is none; a hook with no ``priv`` is never
        auto-granted); the rest is an audited denial, detailed by
        ``reason`` or else by ``priv``.  A deferring engine observes
        the final outcome through ``post_check``, once.
        """
        engine = engine_for(session, self.kernel)
        request = None
        if engine is not None:
            name = f"+{priv.value}" if priv is not None else ""
            request = PolicyRequest(
                domain=domain, operation=operation, target=target, priv=name,
                sid=session.sid, user=proc.cred.username,
                held=frozenset(f"+{p.value}" for p in held))
            decision = engine.pre_check(request)
            if decision is Decision.ALLOW:
                if not ok:
                    session.log.engine_allow(session.sid, operation, target,
                                             f"{name} allowed by {engine.name}".lstrip())
                return 0
            if decision is Decision.DENY:
                session.log.deny(session.sid, operation, target,
                                 f"{name} (denied by {engine.name})".lstrip())
                return errno_.EACCES
        if not ok and session.debug and priv is not None:
            if obj is None:
                session.socket_perms = SocketPerms.full()
            else:
                self.sessions.merge_privs(session, obj, PrivSet.of(priv))
            session.log.auto_grant(session.sid, operation, target, priv)
            ok = True
        if request is not None:
            engine.post_check(request, ok)
        if ok:
            return 0
        session.log.deny(session.sid, operation, target, reason or priv)
        return errno_.EACCES

    def _require(self, proc: "Process", obj: Any, priv: Priv, operation: str) -> int:
        """Does the subject's session hold ``priv`` on ``obj``?  The hot
        path — held, and no engine installed — returns before any
        request is built."""
        session = self._effective_session(proc)
        if session is None:
            return 0
        pm = privmap_of(obj)
        privs = pm.privs_for(session.sid) if pm is not None else _EMPTY
        held = privs.mask & priv.bit
        if held and session.engine is None and self.kernel.mac.engine is None:
            return 0
        return self._decide(proc, session, "vnode" if isinstance(obj, Vnode) else "pipe",
                            operation, self._describe(obj), priv, held != 0,
                            obj=obj, held=privs)

    def _require_all(self, proc: "Process", obj: Any, privs: tuple[Priv, ...], operation: str) -> int:
        for priv in privs:
            error = self._require(proc, obj, priv, operation)
            if error:
                return error
        return 0

    def _deny_sandboxed(self, proc: "Process", operation: str, target: str) -> int:
        session = self._effective_session(proc)
        if session is None:
            return 0
        # These operations are not capability-gated: they are denied in
        # every sandbox (Figure 7), so debug mode does not auto-grant.
        # Only an explicit engine ALLOW can override the blanket denial.
        return self._decide(proc, session, "system", operation, target, None, False,
                            reason="(denied in sandboxes)")

    # ------------------------------------------------------------------
    # vnode checks
    # ------------------------------------------------------------------

    def vnode_check_lookup(self, proc: "Process", dvp: Vnode, name: str) -> int:
        # "the sandbox allows any lookup operation on a directory if the
        # session has the +lookup privilege" — including "." and "..".
        return self._require(proc, dvp, Priv.LOOKUP, f"lookup {name!r}")

    def vnode_post_lookup(self, proc: "Process", dvp: Vnode, vp: Vnode, name: str) -> None:
        session = self._effective_session(proc)
        if session is None:
            return
        # No propagation through ".." (fine-grained confinement) nor "."
        # (privilege amplification), section 3.2.2.
        if name in (".", ".."):
            return
        pm = privmap_of(dvp)
        if pm is None:
            return
        privs = pm.privs_for(session.sid)
        if not privs.mask & _LOOKUP:
            return
        derived = privs.derived_set(Priv.LOOKUP)
        if not derived.mask:
            return
        self.sessions.merge_privs(session, vp, derived)

    def vnode_check_open(self, proc: "Process", vp: Vnode, accmode: int) -> int:
        from repro.kernel.cred import R_OK, W_OK, X_OK

        needed: list[Priv] = []
        if accmode & R_OK:
            needed.append(Priv.READ)
        if accmode & W_OK:
            # Single MAC write entry point: require both (section 3.2.3).
            needed.extend((Priv.WRITE, Priv.APPEND))
        if accmode & X_OK:
            needed.append(Priv.EXEC)
        return self._require_all(proc, vp, tuple(needed), "open")

    def vnode_check_read(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.READ, "read")

    def vnode_check_write(self, proc: "Process", vp: Vnode) -> int:
        return self._require_all(proc, vp, (Priv.WRITE, Priv.APPEND), "write")

    def vnode_check_create(self, proc: "Process", dvp: Vnode, name: str, vtype: VType) -> int:
        priv = _CREATE_PRIV_FOR_VTYPE.get(vtype)
        if priv is None:
            return errno_.EACCES
        return self._require(proc, dvp, priv, f"create {name!r}")

    def vnode_post_create(self, proc: "Process", dvp: Vnode, vp: Vnode, name: str, vtype: VType) -> None:
        session = self._effective_session(proc)
        if session is None:
            return
        priv = _CREATE_PRIV_FOR_VTYPE.get(vtype)
        if priv is None:
            return
        pm = privmap_of(dvp)
        if pm is None:
            return
        privs = pm.privs_for(session.sid)
        if not privs.mask & priv.bit:
            return
        derived = privs.derived_set(priv)
        if not derived.mask:
            return
        self.sessions.merge_privs(session, vp, derived)

    def vnode_check_unlink(self, proc: "Process", dvp: Vnode, vp: Vnode, name: str) -> int:
        # Deletion requires the unlink privilege on the *target*: this is
        # how "delete only files that were created with the capability"
        # (section 5) falls out — created files get privileges via the
        # create modifier; pre-existing files don't.
        priv = _UNLINK_PRIV_FOR_VTYPE.get(vp.vtype, Priv.UNLINK_FILE)
        return self._require(proc, vp, priv, f"unlink {name!r}")

    def vnode_check_rename_from(self, proc: "Process", dvp: Vnode, vp: Vnode) -> int:
        return self._require(proc, vp, Priv.RENAME, "rename-from")

    def vnode_check_rename_to(self, proc: "Process", dvp: Vnode, vp: Vnode) -> int:
        priv = _CREATE_PRIV_FOR_VTYPE.get(vp.vtype, Priv.CREATE_FILE)
        return self._require(proc, dvp, priv, "rename-to")

    def vnode_check_link(self, proc: "Process", dvp: Vnode, vp: Vnode) -> int:
        error = self._require(proc, vp, Priv.LINK, "link")
        if error:
            return error
        return self._require(proc, dvp, Priv.CREATE_FILE, "link-target")

    def vnode_check_stat(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.STAT, "stat")

    def vnode_check_readdir(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.CONTENTS, "readdir")

    def vnode_check_readlink(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.READ_SYMLINK, "readlink")

    def vnode_check_exec(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.EXEC, "exec")

    def vnode_check_setmode(self, proc: "Process", vp: Vnode, mode: int) -> int:
        return self._require(proc, vp, Priv.CHMOD, "chmod")

    def vnode_check_setowner(self, proc: "Process", vp: Vnode, uid: int, gid: int) -> int:
        return self._require(proc, vp, Priv.CHOWN, "chown")

    def vnode_check_setutimes(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.UTIMES, "utimes")

    def vnode_check_setflags(self, proc: "Process", vp: Vnode, flags: int) -> int:
        return self._require(proc, vp, Priv.CHFLAGS, "chflags")

    def vnode_check_truncate(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.TRUNCATE, "truncate")

    def vnode_check_chdir(self, proc: "Process", vp: Vnode) -> int:
        return self._require(proc, vp, Priv.CHDIR, "chdir")

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------

    def pipe_check_create(self, proc: "Process") -> int:
        session = self._effective_session(proc)
        if session is None:
            return 0
        if session.pipe_factory:
            return 0
        if session.debug:
            session.pipe_factory = True
            session.log.auto_grant(session.sid, "pipe-create", "<pipe>", "pipe-factory")
            return 0
        session.log.deny(session.sid, "pipe-create", "<pipe>", "pipe-factory")
        return errno_.EACCES

    def pipe_post_create(self, proc: "Process", pipe: "Pipe") -> None:
        session = self._effective_session(proc)
        if session is None:
            return
        self.sessions.merge_privs(session, pipe, _PIPE_PRIVS)

    def pipe_check_read(self, proc: "Process", pipe: "Pipe") -> int:
        return self._require(proc, pipe, Priv.READ, "pipe-read")

    def pipe_check_write(self, proc: "Process", pipe: "Pipe") -> int:
        return self._require_all(proc, pipe, (Priv.WRITE, Priv.APPEND), "pipe-write")

    def pipe_check_stat(self, proc: "Process", pipe: "Pipe") -> int:
        return self._require(proc, pipe, Priv.STAT, "pipe-stat")

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    def _require_sock(self, proc: "Process", priv: SockPriv, operation: str) -> int:
        session = self._effective_session(proc)
        if session is None:
            return 0
        perms = session.socket_perms
        return self._decide(proc, session, "socket", operation, "<socket>", priv,
                            perms is not None and perms.has(priv))

    def socket_check_create(self, proc: "Process", domain: int, stype: int) -> int:
        session = self._effective_session(proc)
        if session is None:
            return 0
        # Figure 7: socket families other than IP and Unix are denied
        # in sandboxes unconditionally.
        if domain not in _ALLOWED_SOCKET_DOMAINS:
            session.log.deny(session.sid, "socket-create", f"<af {domain}>", "(family denied)")
            return errno_.EACCES
        error = self._require_sock(proc, SockPriv.CREATE, "socket-create")
        if error:
            return error
        # perms is None only when an engine ALLOW overrode a session with
        # no socket factory — the override carries no conn-type refinement.
        perms = session.socket_perms
        if perms is not None and not perms.allows_conn(domain, stype):
            session.log.deny(session.sid, "socket-create", f"<af {domain}>", "(conn type)")
            return errno_.EACCES
        return 0

    def socket_check_bind(self, proc: "Process", sock: "Socket", addr: tuple) -> int:
        return self._require_sock(proc, SockPriv.BIND, "socket-bind")

    def socket_check_listen(self, proc: "Process", sock: "Socket") -> int:
        return self._require_sock(proc, SockPriv.LISTEN, "socket-listen")

    def socket_check_accept(self, proc: "Process", sock: "Socket") -> int:
        return self._require_sock(proc, SockPriv.ACCEPT, "socket-accept")

    def socket_check_connect(self, proc: "Process", sock: "Socket", addr: tuple) -> int:
        return self._require_sock(proc, SockPriv.CONNECT, "socket-connect")

    def socket_check_send(self, proc: "Process", sock: "Socket") -> int:
        return self._require_sock(proc, SockPriv.SEND, "socket-send")

    def socket_check_receive(self, proc: "Process", sock: "Socket") -> int:
        return self._require_sock(proc, SockPriv.RECEIVE, "socket-receive")

    # ------------------------------------------------------------------
    # processes: interact only with own session or descendants
    # ------------------------------------------------------------------

    def _check_proc_interaction(self, proc: "Process", target: "Process", operation: str) -> int:
        session = self._effective_session(proc)
        if session is None:
            return 0
        target_session = target.session
        ok = target_session is not None and target_session.is_descendant_of(session)
        return self._decide(proc, session, "proc", operation, f"<pid {target.pid}>", None, ok,
                            reason="(outside session)")

    def proc_check_signal(self, proc: "Process", target: "Process", signum: int) -> int:
        return self._check_proc_interaction(proc, target, "signal")

    def proc_check_wait(self, proc: "Process", target: "Process") -> int:
        return self._check_proc_interaction(proc, target, "wait")

    def proc_check_debug(self, proc: "Process", target: "Process") -> int:
        return self._check_proc_interaction(proc, target, "debug")

    # ------------------------------------------------------------------
    # system-wide resources (Figure 7)
    # ------------------------------------------------------------------

    def system_check_sysctl(self, proc: "Process", name: str, write: bool) -> int:
        if not write:
            return 0  # read-only in sandboxes
        return self._deny_sandboxed(proc, "sysctl-write", name)

    def kenv_check(self, proc: "Process", op: str, name: str) -> int:
        return self._deny_sandboxed(proc, f"kenv-{op}", name)

    def kld_check_load(self, proc: "Process", name: str) -> int:
        return self._deny_sandboxed(proc, "kldload", name)

    def kld_check_unload(self, proc: "Process", name: str) -> int:
        # "no sandboxed executable has a capability to unload kernel
        # modules, including the module that enforces the MAC policy."
        return self._deny_sandboxed(proc, "kldunload", name)

    def ipc_check(self, proc: "Process", kind: str, op: str, name: str) -> int:
        return self._deny_sandboxed(proc, f"{kind}-{op}", name)
