"""The SHILL runtime: ties the language to the simulated kernel.

A :class:`ShillRuntime` is what the paper calls "the SHILL runtime": it
holds the (unsandboxed) interpreter process, mints capabilities for
ambient scripts, builds sandboxes for ``exec``, and keeps the profiling
accumulators behind Figure 10's breakdown (startup / sandbox setup /
sandboxed execution / remaining).

Ambient capability minting follows section 2.5: "The capability has all
privileges that the invoking user is allowed for this file" — privileges
are derived from the DAC bits the user's credential passes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ContractViolation, ShillRuntimeError, SysError
from repro.capability.caps import FsCap, PipeFactoryCap, SocketFactoryCap
from repro.kernel import errno_
from repro.kernel.cred import R_OK, W_OK, X_OK, dac_check
from repro.kernel.devices import TtyDevice, null_device
from repro.kernel.fdesc import OpenFile
from repro.kernel.proc import Process
from repro.kernel.syscalls import O_APPEND, O_RDONLY, O_WRONLY
from repro.kernel.vfs import Vnode, VType
from repro.lang.builtins import make_base_builtins
from repro.lang.env import Env
from repro.lang.interp import apply
from repro.lang.modules import ModuleLoader
from repro.lang.values import BuiltinFunction
from repro.sandbox.privileges import Priv, PrivSet
from repro.stdlib.wallet import Wallet

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

READ_PRIVS = (Priv.READ, Priv.CONTENTS, Priv.READ_SYMLINK)
WRITE_PRIVS = (
    Priv.WRITE,
    Priv.APPEND,
    Priv.TRUNCATE,
    Priv.CREATE_FILE,
    Priv.CREATE_DIR,
    Priv.CREATE_PIPE,
    Priv.CREATE_SYMLINK,
    Priv.UNLINK_FILE,
    Priv.UNLINK_DIR,
    Priv.RENAME,
    Priv.LINK,
    Priv.UTIMES,
)
EXEC_PRIVS = (Priv.EXEC, Priv.LOOKUP, Priv.CHDIR)


def ambient_privs(cred, vp: Vnode) -> PrivSet:
    """Privileges the invoking user's ambient (DAC) authority justifies."""
    privs: list[Priv] = [Priv.STAT, Priv.PATH]
    if dac_check(cred, mode=vp.mode, uid=vp.uid, gid=vp.gid, want=R_OK):
        privs.extend(READ_PRIVS)
    if dac_check(cred, mode=vp.mode, uid=vp.uid, gid=vp.gid, want=W_OK):
        privs.extend(WRITE_PRIVS)
    if dac_check(cred, mode=vp.mode, uid=vp.uid, gid=vp.gid, want=X_OK):
        privs.extend(EXEC_PRIVS)
    if cred.is_root or cred.uid == vp.uid:
        privs.extend((Priv.CHMOD, Priv.CHFLAGS, Priv.IOCTL))
    if cred.is_root:
        privs.append(Priv.CHOWN)
    return PrivSet.of(*privs)


class ShillRuntime:
    """One SHILL invocation: an interpreter process plus module loader."""

    def __init__(
        self,
        kernel: "Kernel",
        user: str = "root",
        cwd: str = "/",
        scripts: dict[str, str] | None = None,
        engine=None,
    ) -> None:
        t0 = time.perf_counter()
        self.kernel = kernel
        # Per-runtime policy engine (see repro.policy): bound to every
        # sandbox session this runtime's exec builtin creates.
        self.engine = engine
        self.proc = kernel.spawn_process(user, cwd)
        self.sys = kernel.syscalls(self.proc)
        self.scripts: dict[str, str] = dict(scripts or {})
        self.loader = ModuleLoader(self)
        self._base_builtins = make_base_builtins(self)
        self._dev_vid_count = 0
        self.tty = TtyDevice()
        self.tty_err = TtyDevice("stderr")
        self._tty_vnode = self._device_vnode("ttyv0", self.tty)
        self._tty_err_vnode = self._device_vnode("stderr", self.tty_err)
        self._null_vnode = self._device_vnode("null", null_device())
        self.profile: dict[str, float] = {
            "startup": 0.0,
            "sandbox_setup": 0.0,
            "sandbox_exec": 0.0,
            "sandbox_count": 0.0,
            "total": 0.0,
        }
        self.profile["startup"] = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # environments
    # ------------------------------------------------------------------

    def cap_env(self) -> Env:
        env = Env()
        for name, builtin in self._base_builtins.items():
            env.define(name, builtin)
        return env

    def ambient_env(self) -> Env:
        env = self.cap_env()
        env.define("open_file", BuiltinFunction("open_file", self.open_file))
        env.define("open_dir", BuiltinFunction("open_dir", self.open_dir))
        env.define("stdout", self.stdout_cap())
        env.define("stderr", self.stderr_cap())
        env.define("pipe_factory", PipeFactoryCap(self.sys))
        env.define("socket_factory", SocketFactoryCap())
        return env

    # ------------------------------------------------------------------
    # ambient capability minting
    # ------------------------------------------------------------------

    def _mint(self, path: str, want_dir: bool | None) -> FsCap:
        _, _, vp = self.sys._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if want_dir is True and not vp.is_dir:
            raise SysError(errno_.ENOTDIR, path)
        if want_dir is False and vp.is_dir:
            raise SysError(errno_.EISDIR, path)
        privs = ambient_privs(self.proc.cred, vp)
        return FsCap(self.sys, vp, privs, last_known_path=self.sys.kernel.vfs.path_of(vp))

    def open_file(self, path: str) -> FsCap:
        """Ambient builtin ``open_file`` (the paper's ``open-file``)."""
        return self._mint(self._expand(path), want_dir=False)

    def open_dir(self, path: str) -> FsCap:
        return self._mint(self._expand(path), want_dir=True)

    def _expand(self, path: str) -> str:
        if path == "~" or path.startswith("~/"):
            return self.proc.cred.home + path[1:]
        return path

    def stdout_cap(self) -> FsCap:
        return FsCap(
            self.sys,
            self._tty_vnode,
            PrivSet.of(Priv.WRITE, Priv.APPEND, Priv.STAT, Priv.PATH),
            last_known_path="/dev/ttyv0",
        )

    def stderr_cap(self) -> FsCap:
        """A distinct device capability for the ambient ``stderr`` — its
        capture buffer (:attr:`tty_err`) is separate from stdout's, so
        diagnostics never interleave with a run's observed output."""
        return FsCap(
            self.sys,
            self._tty_err_vnode,
            PrivSet.of(Priv.WRITE, Priv.APPEND, Priv.STAT, Priv.PATH),
            last_known_path="/dev/stderr",
        )

    def _device_vnode(self, name: str, device) -> Vnode:
        vp = Vnode(VType.VCHR, 0o666, 0, 0)
        # Deterministic vid, derived from the (deterministic) interpreter
        # pid: these vnodes can surface in audit output, and the global
        # fallback counter would make that output depend on how many
        # runtimes the process has ever built (or on thread scheduling
        # under the parallel batch runner).  The 2^33 offset keeps the
        # range disjoint from both tree vids and the global counter.
        self._dev_vid_count += 1
        vp.vid = (1 << 33) + self.proc.pid * 16 + self._dev_vid_count
        vp.device = device
        vp.nc_name = name
        return vp

    # ------------------------------------------------------------------
    # script entry points
    # ------------------------------------------------------------------

    def register_script(self, name: str, source: str) -> None:
        self.scripts[name] = source

    def run_ambient(self, source: str, name: str = "<ambient>") -> Env:
        """Run an ambient script; returns its final environment."""
        t0 = time.perf_counter()
        env = self.loader.run_ambient(source, name)
        self.profile["total"] += time.perf_counter() - t0
        return env

    def load_cap_exports(self, name: str, importer: str = "host") -> dict[str, Any]:
        """Load a capability-safe script and return its contract-wrapped
        exports (for driving scripts from Python tests/benchmarks)."""
        module = self.loader.load(name)
        env = Env()
        self.loader.import_exports(module, env, importer)
        return {export: env.lookup(export) for export in module.provides}

    def call(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        return apply(fn, list(args), kwargs)

    # ------------------------------------------------------------------
    # exec: capability-based sandboxes
    # ------------------------------------------------------------------

    def exec_builtin(
        self,
        execcap: Any,
        argv: Iterable[Any],
        stdin: Any = None,
        stdout: Any = None,
        stderr: Any = None,
        extras: Iterable[Any] | None = None,
        ulimits: dict[str, int] | None = None,
        timeout: Any = None,
        env: dict[str, str] | None = None,
        cwd: Any = None,
        debug: bool = False,
    ) -> int:
        """The ``exec`` builtin (section 2.3): run an executable in a
        capability-based sandbox limited to exactly the given capabilities.
        Returns the exit status.
        """
        if not isinstance(execcap, FsCap) or not execcap.is_file_cap:
            raise ShillRuntimeError("exec expects an executable file capability")
        if not execcap.privs.has(Priv.EXEC):
            raise ContractViolation(
                blame=execcap.blame,
                contract=repr(execcap.privs),
                detail="exec requires the +exec privilege",
            )
        if not isinstance(execcap.obj, Vnode):
            raise ShillRuntimeError("exec target must be a file")

        setup_started = time.perf_counter()
        policy = self.kernel.install_shill_module()
        child = self.kernel.procs.fork(self.proc)
        session = policy.sessions.shill_init(child, debug=debug, engine=self.engine)

        argv = list(argv)
        grant_list: list[Any] = [execcap]
        # Capabilities passed as *arguments* are granted to the sandbox
        # (Figure 4's jpeginfo receives `arg` as a path and must be able
        # to open it).
        grant_list.extend(a for a in argv if isinstance(a, FsCap))
        grant_list.extend(self._flatten(extras or []))
        for value in grant_list:
            self._grant_value(policy, session, value)

        self._wire_stdio(policy, session, child, stdin, stdout, stderr)
        if cwd is not None:
            if not isinstance(cwd, FsCap) or not cwd.is_dir_cap:
                raise ShillRuntimeError("exec cwd must be a directory capability")
            self._grant_value(policy, session, cwd)
            assert isinstance(cwd.obj, Vnode)
            child.cwd = cwd.obj
        if ulimits:
            child.ulimits = child.ulimits.merged_with(ulimits)
        # Executables designate resources by *path*, so the session needs
        # traversal privileges along each granted capability's ancestor
        # chain.  Grant bare lookup (empty derive modifier: resolution may
        # pass through, nothing propagates) on every ancestor directory —
        # the automated version of what native wallets package for
        # libraries.  Done last so explicit grants always win merges.
        seen_caps = [v for v in grant_list if isinstance(v, FsCap)]
        for fd_cap in (stdin, stdout, stderr, cwd):
            if isinstance(fd_cap, FsCap):
                seen_caps.append(fd_cap)
        self._grant_traversal_chains(policy, session, seen_caps)
        self.kernel.syscalls(child).shill_enter()
        self.profile["sandbox_setup"] += time.perf_counter() - setup_started
        self.profile["sandbox_count"] += 1

        argv_strings = [self._argv_string(a) for a in argv]
        exec_started = time.perf_counter()
        # Kept for post-mortem inspection (audit log / auto-grant review).
        self.last_session = session
        status = self.kernel.exec_file(child, execcap.obj, argv_strings, env)
        self.profile["sandbox_exec"] += time.perf_counter() - exec_started
        return status

    _TRAVERSE_ONLY = PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, ())

    def _grant_traversal_chains(self, policy, session, caps: list[FsCap]) -> None:
        granted: set[int] = set()
        for cap in caps:
            node = cap.obj if isinstance(cap.obj, Vnode) else None
            if node is None:
                continue
            parent = node.nc_parent
            while parent is not None and parent.vid not in granted:
                granted.add(parent.vid)
                policy.sessions.grant(session, parent, self._TRAVERSE_ONLY)
                parent = parent.nc_parent
            root = self.kernel.vfs.root
            if root.vid not in granted:
                granted.add(root.vid)
                policy.sessions.grant(session, root, self._TRAVERSE_ONLY)

    def _flatten(self, values: Iterable[Any]) -> list[Any]:
        out: list[Any] = []
        for value in values:
            if isinstance(value, Wallet):
                out.extend(self._flatten(value.all_values()))
            elif isinstance(value, (list, tuple)):
                out.extend(self._flatten(value))
            else:
                out.append(value)
        return out

    def _grant_value(self, policy, session, value: Any) -> None:
        if isinstance(value, FsCap):
            policy.sessions.grant(session, value.kernel_object, value.privs)
        elif isinstance(value, PipeFactoryCap):
            policy.sessions.grant_pipe_factory(session)
        elif isinstance(value, SocketFactoryCap):
            policy.sessions.grant_socket_factory(session, value.perms)
        elif value is None:
            pass
        else:
            raise ShillRuntimeError(f"cannot grant non-capability {value!r} to a sandbox")

    def _wire_stdio(self, policy, session, child: Process, stdin, stdout, stderr) -> None:
        for fd, cap, flags in (
            (0, stdin, O_RDONLY),
            (1, stdout, O_WRONLY | O_APPEND),
            (2, stderr, O_WRONLY | O_APPEND),
        ):
            if cap is None:
                # /dev/null stand-in; granted explicitly so the sandbox
                # keeps working when device interposition is enabled.
                policy.sessions.grant(
                    session, self._null_vnode,
                    PrivSet.of(Priv.READ, Priv.WRITE, Priv.APPEND),
                )
                child.fdtable.install(fd, OpenFile(self._null_vnode, flags))
                continue
            if not isinstance(cap, FsCap):
                raise ShillRuntimeError(f"std fd {fd} must be a file capability")
            self._grant_value(policy, session, cap)
            child.fdtable.install(fd, OpenFile(cap.obj, flags))

    def _argv_string(self, arg: Any) -> str:
        """Capability arguments are passed to executables as paths, via
        the ``path`` syscall with last-known-path fallback (section 3.1.3).
        """
        if isinstance(arg, FsCap):
            return arg.path()
        if isinstance(arg, str):
            return arg
        from repro.lang.values import shill_repr

        return shill_repr(arg)
