"""The MAC framework: pluggable mandatory access control.

A faithful miniature of the TrustedBSD MAC Framework (Watson & Vance)
that the paper builds on: the kernel "mediat[es] access to sensitive
kernel objects and invok[es] access control checks specified by
third-party policy modules", and offers label storage on kernel objects.

Policies subclass :class:`MacPolicy` and override the hooks they care
about.  Every ``check_*`` hook returns ``0`` to allow or an errno to deny;
the framework denies if *any* registered policy denies (restrictive
composition, as in TrustedBSD).  ``post_*`` hooks are notifications fired
after an operation succeeds — the paper *adds two of these*
(``mac_vnode_post_lookup`` and ``mac_vnode_post_create``) so the SHILL
policy can propagate privileges to derived objects (section 3.2.2).

The framework deliberately reproduces the granularity limits the paper
works around (section 3.2.3):

* there is a **single write entry point** for filesystem objects
  (``vnode_check_write``) — no separate append hook, which is why the
  SHILL policy conservatively demands both ``+write`` and ``+append``;
* there are **no hooks around character-device read/write** — the syscall
  layer simply does not call the vnode read/write hooks for ``VCHR``
  vnodes, reproducing the documented stdin/stdout bypass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import SysError
from repro.kernel import errno_
from repro.policy.engine import Decision, PolicyEngine, PolicyRequest

if TYPE_CHECKING:
    from repro.kernel.proc import Process
    from repro.kernel.vfs import Vnode


class MacPolicy:
    """Base policy: every hook allows.  Override to restrict.

    Subjects are :class:`~repro.kernel.proc.Process` objects (which carry
    both the credential and, for SHILL, the session).  Objects are kernel
    objects with ``.label`` attributes.
    """

    name = "abstract"

    def fork_for(self, kernel: Any) -> "MacPolicy":
        """The policy instance to register on a forked kernel.

        The default shares ``self``, which is right for stateless
        policies (every base hook just allows).  Policies holding
        per-kernel state — like SHILL's session manager — override this
        to build an isolated copy bound to the fork.
        """
        return self

    # -- vnode checks -------------------------------------------------------

    def vnode_check_lookup(self, proc: "Process", dvp: "Vnode", name: str) -> int:
        return 0

    def vnode_check_open(self, proc: "Process", vp: "Vnode", accmode: int) -> int:
        return 0

    def vnode_check_read(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_write(self, proc: "Process", vp: "Vnode") -> int:
        # NB: single entry point for write AND append, per TrustedBSD.
        return 0

    def vnode_check_create(self, proc: "Process", dvp: "Vnode", name: str, vtype: Any) -> int:
        return 0

    def vnode_check_unlink(self, proc: "Process", dvp: "Vnode", vp: "Vnode", name: str) -> int:
        return 0

    def vnode_check_rename_from(self, proc: "Process", dvp: "Vnode", vp: "Vnode") -> int:
        return 0

    def vnode_check_rename_to(self, proc: "Process", dvp: "Vnode", vp: "Vnode") -> int:
        return 0

    def vnode_check_link(self, proc: "Process", dvp: "Vnode", vp: "Vnode") -> int:
        return 0

    def vnode_check_stat(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_readdir(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_readlink(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_exec(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_setmode(self, proc: "Process", vp: "Vnode", mode: int) -> int:
        return 0

    def vnode_check_setowner(self, proc: "Process", vp: "Vnode", uid: int, gid: int) -> int:
        return 0

    def vnode_check_setutimes(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_setflags(self, proc: "Process", vp: "Vnode", flags: int) -> int:
        return 0

    def vnode_check_truncate(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    def vnode_check_chdir(self, proc: "Process", vp: "Vnode") -> int:
        return 0

    # -- vnode post hooks (added by SHILL's kernel module) -------------------

    def vnode_post_lookup(self, proc: "Process", dvp: "Vnode", vp: "Vnode", name: str) -> None:
        return None

    def vnode_post_create(self, proc: "Process", dvp: "Vnode", vp: "Vnode", name: str, vtype: Any) -> None:
        return None

    # -- pipes ---------------------------------------------------------------

    def pipe_check_create(self, proc: "Process") -> int:
        return 0

    def pipe_post_create(self, proc: "Process", pipe: Any) -> None:
        return None

    def pipe_check_read(self, proc: "Process", pipe: Any) -> int:
        return 0

    def pipe_check_write(self, proc: "Process", pipe: Any) -> int:
        return 0

    def pipe_check_stat(self, proc: "Process", pipe: Any) -> int:
        return 0

    # -- sockets --------------------------------------------------------------

    def socket_check_create(self, proc: "Process", domain: int, stype: int) -> int:
        return 0

    def socket_check_bind(self, proc: "Process", sock: Any, addr: tuple) -> int:
        return 0

    def socket_check_listen(self, proc: "Process", sock: Any) -> int:
        return 0

    def socket_check_accept(self, proc: "Process", sock: Any) -> int:
        return 0

    def socket_check_connect(self, proc: "Process", sock: Any, addr: tuple) -> int:
        return 0

    def socket_check_send(self, proc: "Process", sock: Any) -> int:
        return 0

    def socket_check_receive(self, proc: "Process", sock: Any) -> int:
        return 0

    # -- processes -------------------------------------------------------------

    def proc_check_signal(self, proc: "Process", target: "Process", signum: int) -> int:
        return 0

    def proc_check_wait(self, proc: "Process", target: "Process") -> int:
        return 0

    def proc_check_debug(self, proc: "Process", target: "Process") -> int:
        return 0

    # -- system-wide resources ---------------------------------------------------

    def system_check_sysctl(self, proc: "Process", name: str, write: bool) -> int:
        return 0

    def kenv_check(self, proc: "Process", op: str, name: str) -> int:
        return 0

    def kld_check_load(self, proc: "Process", name: str) -> int:
        return 0

    def kld_check_unload(self, proc: "Process", name: str) -> int:
        return 0

    def ipc_check(self, proc: "Process", kind: str, op: str, name: str) -> int:
        return 0


class MacFramework:
    """Registry of policies plus the check/post dispatch machinery."""

    # Class-level defaults (not set in __init__) so snapshot blobs
    # pickled before these fields existed still restore cleanly.
    #
    #: kernel-wide policy engine (see :mod:`repro.policy`).  ``None`` —
    #: the default — means pure capability semantics, byte-identical to
    #: the pre-engine framework.  Set via ``Kernel.policy_engine``.
    engine: PolicyEngine | None = None
    #: sid of the session whose action caused the most recent label
    #: mutation (None when the mutation had no session context) — audit
    #: attribution for label-epoch bumps.
    last_label_sid: int | None = None

    def __init__(self) -> None:
        self._policies: list[MacPolicy] = []
        # Optional stats sink (set by the Kernel) with integer attributes
        # ``mac_checks`` and ``mac_denials``.
        self.stats: Any = None
        #: policy-set mutation counter (part of the kernel state epoch).
        self.mutations = 0
        #: label mutation counter.  Policies must call
        #: :meth:`bump_label_epoch` whenever they mutate a MAC label (or
        #: the privilege map stored in one), so caches keyed on resolution
        #: state — the syscall-layer dcache — can tell that a previously
        #: cached walk might now be judged differently.
        self.label_epoch = 0

    def bump_label_epoch(self) -> None:
        """Record that some kernel object's MAC label changed."""
        self.label_epoch += 1

    @property
    def policies(self) -> tuple[MacPolicy, ...]:
        return tuple(self._policies)

    def register(self, policy: MacPolicy) -> None:
        """Load a policy module (``kldload`` of e.g. the SHILL module)."""
        if any(p.name == policy.name for p in self._policies):
            raise ValueError(f"policy {policy.name!r} already registered")
        self._policies.append(policy)
        self.mutations += 1

    def unregister(self, name: str) -> None:
        self._policies = [p for p in self._policies if p.name != name]
        self.mutations += 1

    def find(self, name: str) -> MacPolicy | None:
        for policy in self._policies:
            if policy.name == name:
                return policy
        return None

    # -- dispatch ---------------------------------------------------------------

    def check(self, hook: str, *args: Any) -> None:
        """Run ``check_``-style hook ``hook`` on every policy.

        Raises :class:`SysError` with the first non-zero errno returned.
        Restrictive composition: all policies must allow.

        An installed kernel-wide engine is consulted first with a
        ``mac``-domain request: ALLOW skips policy dispatch entirely,
        DENY raises before any policy runs, DEFER dispatches normally
        (and the outcome is reported to ``post_check``).  Framework-level
        requests carry no session context — sid is 0 and denials here
        produce no session audit record, which is why data-driven rules
        only reach this domain when they name it explicitly.
        """
        if self.stats is not None:
            self.stats.mac_checks += 1
            self.stats.mac_hooks[hook] += 1
        engine = self.engine
        if engine is not None:
            proc = args[0] if args else None
            user = getattr(getattr(proc, "cred", None), "username", "") or ""
            request = PolicyRequest(domain="mac", operation=hook, target="", user=user)
            decision = engine.pre_check(request)
            if decision is Decision.ALLOW:
                return
            if decision is Decision.DENY:
                if self.stats is not None:
                    self.stats.mac_denials += 1
                raise SysError(errno_.EACCES, f"mac:engine:{engine.name}:{hook}")
            try:
                self._dispatch(hook, args)
            except SysError:
                engine.post_check(request, False)
                raise
            engine.post_check(request, True)
            return
        self._dispatch(hook, args)

    def _dispatch(self, hook: str, args: tuple) -> None:
        for policy in self._policies:
            error = getattr(policy, hook)(*args)
            if error:
                if self.stats is not None:
                    self.stats.mac_denials += 1
                raise SysError(error, f"mac:{policy.name}:{hook}")

    def post(self, hook: str, *args: Any) -> None:
        """Fire a ``post_``-style notification hook on every policy."""
        if self.stats is not None:
            self.stats.mac_hooks[hook] += 1
        for policy in self._policies:
            getattr(policy, hook)(*args)
