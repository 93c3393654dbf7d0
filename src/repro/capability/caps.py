"""Language-level capabilities.

"Capabilities in the SHILL language are object-like values that
encapsulate low-level capabilities such as file descriptors or sockets"
(section 3.1.1).  Every capability pairs a kernel object (vnode or pipe
end) with:

* a **privilege set** — the operations this value permits; contract
  application attenuates it (a proxy is just an attenuated copy sharing
  the kernel object);
* a **blame label** — who to accuse if an operation outside the
  privilege set is attempted (the consumer side of the contract that
  attenuated it);
* the **last known path**, the fallback when the ``path`` system call
  cannot produce one (section 3.1.3).

Operations go through the runtime's (unsandboxed) syscall interface but
are gated *first* by the language-level privilege check — this is
capability safety "at the language level".  The file-descriptor wrappers
honour the paper's restriction that "arguments that specify sub-paths
contain only a single component": ``lookup(cur, "a/b")`` and
``lookup(cur, "..")`` are rejected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.errors import CapabilitySafetyError, ContractViolation, SysError
from repro.kernel import errno_
from repro.kernel.fdesc import OpenFile
from repro.kernel.pipes import PipeEnd, make_pipe
from repro.kernel.syscalls import O_RDONLY
from repro.kernel.vfs import Vnode, VType
from repro.policy.engine import Decision, PolicyRequest
from repro.sandbox.privileges import Priv, PrivSet, SocketPerms

if TYPE_CHECKING:
    from repro.kernel.syscalls import SyscallInterface

SYSTEM_BLAME = "the system"


class Capability:
    """Base class for all SHILL capability values.

    Capabilities are deliberately **not serializable**: scripts cannot
    store or share them "through memory, the filesystem, or the network"
    (section 2.1).
    """

    def __reduce__(self):
        raise CapabilitySafetyError("capabilities are not serializable")

    def __deepcopy__(self, memo):
        raise CapabilitySafetyError("capabilities cannot be copied")

    def _decide(self, ok: bool, priv, op: str, target: str,
                held: frozenset = frozenset()) -> None:
        """The ``language`` domain's one decision path, which file and
        socket capabilities share.  ``ok`` is the capability test's
        verdict.  The kernel-wide policy engine, if one is installed, is
        asked first: ALLOW proceeds, DENY raises a violation blamed on
        the engine, and a DEFER observes ``ok`` through ``post_check``
        before ``ok`` decides."""
        sys = self._sys
        engine = sys.kernel.policy_engine
        if engine is not None:
            request = PolicyRequest(domain="language", operation=op, target=target,
                                    priv=f"+{priv.value}", user=sys.proc.cred.username,
                                    held=held)
            decision = engine.pre_check(request)
            if decision is Decision.ALLOW:
                return
            if decision is Decision.DENY:
                raise self._violation(priv, op, engine.name)
            engine.post_check(request, ok)
        if not ok:
            raise self._violation(priv, op, None)


class FsCap(Capability):
    """A capability for a filesystem object (file, directory, device) or
    pipe end.  Following Unix convention, "file capabilities include
    capabilities for files, pipes, and devices" (section 2.2).
    """

    def __init__(
        self,
        sys: "SyscallInterface",
        obj: Union[Vnode, PipeEnd],
        privs: PrivSet,
        last_known_path: str = "",
        blame: str = SYSTEM_BLAME,
    ) -> None:
        self._sys = sys
        self.obj = obj
        self.privs = privs
        self.last_known_path = last_known_path
        self.blame = blame

    # -- classification ---------------------------------------------------------

    @property
    def is_dir_cap(self) -> bool:
        return isinstance(self.obj, Vnode) and self.obj.is_dir

    @property
    def is_file_cap(self) -> bool:
        """Files, pipes, and devices — everything that is not a directory."""
        return not self.is_dir_cap

    @property
    def kernel_object(self):
        """The object granted to sandboxes: the vnode, or the *pipe* for a
        pipe end (privileges are per-pipe)."""
        if isinstance(self.obj, PipeEnd):
            return self.obj.pipe
        return self.obj

    # -- privilege machinery -------------------------------------------------------

    def _need(self, priv: Priv, op: str) -> None:
        ok = self.privs.has(priv)
        if ok and self._sys.kernel.mac.engine is None:
            return  # the hot path: held, and no engine to ask
        self._decide(ok, priv, op, self.try_path(),
                     frozenset(f"+{p.value}" for p in self.privs))

    def _violation(self, priv: Priv, op: str, engine: Optional[str]) -> ContractViolation:
        denied = engine is not None
        verdict = "denied by policy engine" if denied else f"requires +{priv.value}"
        return ContractViolation(blame=f"policy-engine:{engine}" if denied else self.blame,
                                 contract=repr(self.privs),
                                 detail=f"operation {op!r} {verdict} on {self.describe()}")

    def attenuated(self, allowed: PrivSet, blame: str) -> "FsCap":
        """A proxy for this capability restricted to ``allowed`` — how
        contracts wrap capabilities."""
        return FsCap(
            self._sys,
            self.obj,
            self.privs.restricted_to(allowed),
            self.last_known_path,
            blame=blame,
        )

    def describe(self) -> str:
        path = self.try_path()
        kind = "dir" if self.is_dir_cap else "file"
        return f"<{kind}-cap {path or '?'}>"

    # -- operations (each guarded by one privilege) ---------------------------------

    def try_path(self) -> str:
        """Path without a privilege check, for error messages only."""
        if isinstance(self.obj, PipeEnd):
            return "<pipe>"
        try:
            return self._sys.kernel.vfs.path_of(self.obj)
        except SysError:
            return self.last_known_path

    def path(self) -> str:
        """+path: the ``path`` syscall, falling back to the last known
        path when the name cache fails (section 3.1.3)."""
        self._need(Priv.PATH, "path")
        if isinstance(self.obj, PipeEnd):
            raise SysError(errno_.EINVAL, "pipes have no path")
        try:
            return self._sys.kernel.vfs.path_of(self.obj)
        except SysError:
            if self.last_known_path:
                return self.last_known_path
            raise

    def stat(self):
        self._need(Priv.STAT, "stat")
        if isinstance(self.obj, PipeEnd):
            raise SysError(errno_.EINVAL, "stat on pipe capability")
        return self._fstat(self.obj)

    def _fstat(self, vp: Vnode):
        fd = self._open_fd(vp)
        try:
            return self._sys.fstat(fd)
        finally:
            self._sys.close(fd)

    def read(self) -> bytes:
        self._need(Priv.READ, "read")
        if isinstance(self.obj, PipeEnd):
            return self.obj.pipe.read(1 << 20)
        if self.obj.is_chardev:
            assert self.obj.device is not None
            return self.obj.device.read(1 << 20)
        fd = self._open_fd(self.obj)
        try:
            chunks = []
            while True:
                chunk = self._sys.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        finally:
            self._sys.close(fd)

    def write(self, data: bytes) -> int:
        self._need(Priv.WRITE, "write")
        return self._write_raw(data, append=False)

    def append(self, data: bytes) -> int:
        self._need(Priv.APPEND, "append")
        return self._write_raw(data, append=True)

    def _write_raw(self, data: bytes, *, append: bool) -> int:
        from repro.kernel.syscalls import O_APPEND, O_WRONLY

        if isinstance(self.obj, PipeEnd):
            return self.obj.pipe.write(data)
        if self.obj.is_chardev:
            assert self.obj.device is not None
            return self.obj.device.write(data)
        if not append:
            # write replaces the contents (open-with-O_TRUNC semantics).
            self._sys.kernel.vfs.truncate_file(self.obj, 0)
        fd = self._sys._alloc_fd(OpenFile(self.obj, O_WRONLY | (O_APPEND if append else 0)))
        try:
            return self._sys.write(fd, data)
        finally:
            self._sys.close(fd)

    def contents(self) -> list[str]:
        self._need(Priv.CONTENTS, "contents")
        vp = self._require_dir("contents")
        return self._sys.kernel.vfs.contents(vp)

    def lookup(self, name: str) -> "FsCap":
        """+lookup: derive a capability for a single-component child.

        Privileges of the result follow the modifier ("the derived
        capability has the same privileges as its parent" without one).
        ``..``, ``.``, and multi-component names are rejected — "a script
        cannot use ... lookup(cur, '..') to obtain the parent directory."
        """
        self._need(Priv.LOOKUP, "lookup")
        vp = self._require_dir("lookup")
        _check_single_component(name)
        child = self._sys.kernel.vfs.lookup(vp, name)
        derived = self.privs.derived_set(Priv.LOOKUP)
        child_path = _join(self.try_path(), name)
        return FsCap(self._sys, child, derived, child_path, blame=self.blame)

    def create_file(self, name: str, mode: int = 0o644) -> "FsCap":
        self._need(Priv.CREATE_FILE, "create-file")
        vp = self._require_dir("create-file")
        _check_single_component(name)
        cred = self._sys.proc.cred
        child = self._sys.kernel.vfs.create(vp, name, VType.VREG, mode, cred.uid, cred.gid)
        derived = self.privs.derived_set(Priv.CREATE_FILE)
        return FsCap(self._sys, child, derived, _join(self.try_path(), name), blame=self.blame)

    def create_dir(self, name: str, mode: int = 0o755) -> "FsCap":
        self._need(Priv.CREATE_DIR, "create-dir")
        vp = self._require_dir("create-dir")
        _check_single_component(name)
        cred = self._sys.proc.cred
        child = self._sys.kernel.vfs.create(vp, name, VType.VDIR, mode, cred.uid, cred.gid)
        derived = self.privs.derived_set(Priv.CREATE_DIR)
        return FsCap(self._sys, child, derived, _join(self.try_path(), name), blame=self.blame)

    def unlink(self, name: str) -> None:
        """Remove child ``name``.  Requires +lookup on this directory and
        +unlink-file / +unlink-dir on the (derived) child — the mechanism
        behind "delete only files that were created with the capability".
        """
        child = self.lookup(name)
        assert isinstance(child.obj, Vnode)
        priv = Priv.UNLINK_DIR if child.obj.is_dir else Priv.UNLINK_FILE
        child._need(priv, "unlink")
        vp = self._require_dir("unlink")
        self._sys.kernel.vfs.unlink(vp, name, expect=child.obj)

    def read_symlink(self, name: str) -> str:
        self._need(Priv.READ_SYMLINK, "read-symlink")
        vp = self._require_dir("read-symlink")
        _check_single_component(name)
        child = self._sys.kernel.vfs.lookup(vp, name)
        if not child.is_symlink:
            raise SysError(errno_.EINVAL, f"{name!r} is not a symlink")
        assert child.linktarget is not None
        return child.linktarget

    def chmod(self, mode: int) -> None:
        self._need(Priv.CHMOD, "chmod")
        if not isinstance(self.obj, Vnode):
            raise SysError(errno_.EINVAL, "chmod on pipe")
        self._sys.kernel.vfs.set_meta(self.obj, mode=mode & 0o7777)

    # -- helpers -------------------------------------------------------------------

    def _require_dir(self, op: str) -> Vnode:
        if not self.is_dir_cap:
            raise SysError(errno_.ENOTDIR, f"{op} on non-directory capability")
        assert isinstance(self.obj, Vnode)
        return self.obj

    def _open_fd(self, vp: Vnode) -> int:
        return self._sys._alloc_fd(OpenFile(vp, O_RDONLY))

    def __repr__(self) -> str:
        return self.describe()


class PipeFactoryCap(Capability):
    """The right to create pipes: "The pipe factory capability has a
    create operation that returns a pair of pipe ends" (section 3.1.1).
    """

    def __init__(self, sys: "SyscallInterface") -> None:
        self._sys = sys

    def create(self) -> tuple[FsCap, FsCap]:
        rend, wend = make_pipe()
        pipe_privs = PrivSet.of(Priv.READ, Priv.WRITE, Priv.APPEND, Priv.STAT, Priv.PATH)
        read_cap = FsCap(self._sys, rend, pipe_privs.removing(Priv.WRITE, Priv.APPEND))
        write_cap = FsCap(self._sys, wend, pipe_privs.removing(Priv.READ))
        return read_cap, write_cap

    def __repr__(self) -> str:
        return "<pipe-factory>"


class SocketCap(Capability):
    """EXTENSION: a language-level socket capability.

    The paper's prototype "cannot create or manipulate sockets directly
    (which can be addressed by adding built-in functions for socket
    operations to the language)" — these are those built-ins' backing
    objects.  Each operation is gated by the socket permissions the
    factory carried when it minted this capability.
    """

    def __init__(self, sys: "SyscallInterface", fd: int, perms: SocketPerms) -> None:
        self._sys = sys
        self._fd = fd
        self.perms = perms

    def _need(self, priv) -> None:
        self._decide(self.perms.has(priv), priv, f"socket-{priv.value}", "<socket>")

    def _violation(self, priv, op: str, engine: Optional[str]) -> ContractViolation:
        denied = engine is not None
        verdict = f"+{priv.value} denied by policy engine" if denied else f"requires +{priv.value}"
        return ContractViolation(blame=f"policy-engine:{engine}" if denied else SYSTEM_BLAME,
                                 contract=repr(self.perms),
                                 detail=f"socket operation {verdict}")

    def connect(self, host: str, port: int) -> None:
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.CONNECT)
        self._sys.connect(self._fd, (host, int(port)))

    def bind(self, host: str, port: int) -> None:
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.BIND)
        self._sys.bind(self._fd, (host, int(port)))

    def listen(self) -> None:
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.LISTEN)
        self._sys.listen(self._fd)

    def accept(self) -> "SocketCap":
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.ACCEPT)
        conn_fd = self._sys.accept(self._fd)
        return SocketCap(self._sys, conn_fd, self.perms)

    def send(self, data: bytes) -> int:
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.SEND)
        return self._sys.send(self._fd, data)

    def recv(self, size: int = 1 << 20) -> bytes:
        from repro.sandbox.privileges import SockPriv

        self._need(SockPriv.RECEIVE)
        return self._sys.recv(self._fd, size)

    def close(self) -> None:
        self._sys.close(self._fd)

    def __repr__(self) -> str:
        return f"<socket-cap fd={self._fd} {self.perms!r}>"


class SocketFactoryCap(Capability):
    """The right to create and use sockets, with its connection-type
    refinement.  Granted to sandboxes; with the socket-builtin extension
    it also mints language-level :class:`SocketCap` values."""

    def __init__(self, perms: Optional[SocketPerms] = None) -> None:
        self.perms = perms or SocketPerms.full()

    def create(self, sys: "SyscallInterface", domain, stype) -> SocketCap:
        from repro.sandbox.privileges import SockPriv

        if not self.perms.has(SockPriv.CREATE):
            raise ContractViolation(
                blame=SYSTEM_BLAME, contract=repr(self.perms),
                detail="socket creation requires +create",
            )
        if not self.perms.allows_conn(int(domain), int(stype)):
            raise ContractViolation(
                blame=SYSTEM_BLAME, contract=repr(self.perms),
                detail=f"connection type ({int(domain)}, {int(stype)}) not permitted",
            )
        fd = sys.socket(domain, stype)
        return SocketCap(sys, fd, self.perms)

    def attenuated(self, perms: SocketPerms) -> "SocketFactoryCap":
        if not perms.subset_of(self.perms):
            raise ContractViolation(
                blame=SYSTEM_BLAME,
                contract=repr(perms),
                detail="socket factory contract demands more than the capability holds",
            )
        return SocketFactoryCap(perms)

    def __repr__(self) -> str:
        return f"<socket-factory {self.perms!r}>"


def _check_single_component(name: str) -> None:
    """The runtime's *at wrappers require single-component names
    (section 3.1.3): not empty, no '/', not '.' or '..'."""
    if not name or "/" in name or name in (".", ".."):
        raise CapabilitySafetyError(
            f"capability operations take single path components, got {name!r}"
        )


def _join(base: str, name: str) -> str:
    if not base:
        return name
    return base.rstrip("/") + "/" + name
