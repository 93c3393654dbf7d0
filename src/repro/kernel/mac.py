"""The MAC framework: pluggable mandatory access control.

A faithful miniature of the TrustedBSD MAC Framework (Watson & Vance)
that the paper builds on: the kernel "mediat[es] access to sensitive
kernel objects and invok[es] access control checks specified by
third-party policy modules", and offers label storage on kernel objects.

Policies subclass :class:`MacPolicy` and define only the hooks they
enforce; :data:`HOOKS` lists every hook the kernel calls.  As TrustedBSD
skips the ``mac_policy_ops`` entries a policy leaves NULL, the framework
skips a hook a policy does not define, so a hook no policy defines
passes.  While a policy is registered, a name outside :data:`HOOKS`
raises :class:`AttributeError`, so a misspelt call site cannot pass.

Every ``check`` hook returns ``0`` to allow or an errno to deny; the
framework denies if *any* registered policy denies (restrictive
composition, as in TrustedBSD).  ``post`` hooks are notifications fired
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

from typing import Any, Callable

from repro.errors import SysError
from repro.kernel import errno_
from repro.policy.engine import Decision, PolicyEngine, PolicyRequest


#: Every hook the kernel calls: the syscall layer, ``Kernel.exec_file`` and
#: the sysctl, kenv/kld and IPC subsystems.  A check hook gets the subject
#: process and its call site's arguments and returns 0 or an errno; a post
#: hook is a notification.  :class:`repro.sandbox.policy.ShillPolicy`
#: defines every one, and its signatures are the reference.
HOOKS = frozenset({
    "vnode_check_lookup", "vnode_check_open", "vnode_check_read", "vnode_check_write",
    "vnode_check_create", "vnode_check_unlink", "vnode_check_rename_from", "vnode_check_rename_to",
    "vnode_check_link", "vnode_check_stat", "vnode_check_readdir", "vnode_check_readlink",
    "vnode_check_exec", "vnode_check_setmode", "vnode_check_setowner", "vnode_check_setutimes",
    "vnode_check_truncate", "vnode_check_chdir",
    "vnode_post_lookup", "vnode_post_create",  # the two hooks SHILL's kernel module adds
    "pipe_check_create", "pipe_post_create", "pipe_check_read", "pipe_check_write", "pipe_check_stat",
    "socket_check_create", "socket_check_bind", "socket_check_listen", "socket_check_accept",
    "socket_check_connect", "socket_check_send", "socket_check_receive",
    "proc_check_signal", "proc_check_wait", "proc_check_debug",
    "system_check_sysctl", "kenv_check", "kld_check_load", "kld_check_unload", "ipc_check",
})


class MacPolicy:
    """Base policy: defines no hook, so it allows everything.  A
    subclass defines the hooks it enforces.

    Subjects are :class:`~repro.kernel.proc.Process` objects (which carry
    both the credential and, for SHILL, the session).  Objects are kernel
    objects with ``.label`` attributes.
    """

    name = "abstract"

    def fork_for(self, kernel: Any) -> "MacPolicy":
        """The policy instance to register on a forked kernel.

        The default shares ``self``, which is right for stateless
        policies.  Policies holding per-kernel state — like SHILL's
        session manager — override this to build an isolated copy bound
        to the fork.
        """
        return self


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
        """Run the check hook ``hook`` on every policy that defines it.

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
            error = (getattr(policy, hook, None) or _undefined(hook))(*args)
            if error:
                if self.stats is not None:
                    self.stats.mac_denials += 1
                raise SysError(error, f"mac:{policy.name}:{hook}")

    def post(self, hook: str, *args: Any) -> None:
        """Fire the notification hook ``hook`` on every policy that
        defines it."""
        if self.stats is not None:
            self.stats.mac_hooks[hook] += 1
        for policy in self._policies:
            (getattr(policy, hook, None) or _undefined(hook))(*args)


def _undefined(hook: str) -> Callable[..., int]:
    """What a policy that leaves ``hook`` undefined runs: it allows,
    unless no kernel call site names ``hook``."""
    if hook not in HOOKS:
        raise AttributeError(f"{hook!r} is not a MAC hook")
    return _allow


def _allow(*args: Any) -> int:
    return 0
