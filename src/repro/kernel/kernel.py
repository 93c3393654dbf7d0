"""The Kernel façade: wires VFS, MAC, processes, network, and programs.

A :class:`Kernel` is one booted machine.  Tests and benchmarks construct
fresh kernels; the world-image builder (:mod:`repro.world.image`)
populates the filesystem and registers users and simulated binaries.

Program execution follows the dynamic-linking story that makes the
paper's *wallets* necessary: an executable vnode names a registered
:class:`~repro.programs.base.Program` and lists ``NEEDED`` shared
libraries; at exec time the loader opens the runtime linker and every
needed library **through ordinary path resolution in the executing
process's context**.  Inside a sandbox those opens are subject to the
session's privileges — which is exactly why "executing cat in a sandbox
requires providing eight capabilities to libraries and configuration
files in addition to capabilities for the executable itself" (§2.4.1).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING

from repro.errors import SysError
from repro.kernel import errno_
from repro.kernel.cred import Credential, UserDB
from repro.kernel.ipc import IpcRegistry
from repro.kernel.kenv import KernelEnv, KldManager
from repro.kernel.mac import MacFramework
from repro.kernel.proc import Process, ProcessTable
from repro.kernel.sockets import Network
from repro.kernel.syscalls import O_RDONLY, SyscallInterface
from repro.kernel.sysctl import SysctlTree
from repro.kernel.vfs import VFS, Vnode

if TYPE_CHECKING:
    from repro.policy.engine import PolicyEngine
    from repro.programs.base import Program
    from repro.sandbox.policy import ShillPolicy

RTLD_PATH = "/libexec/ld-elf.so.1"
DEFAULT_LIB_PATH = "/lib:/usr/lib:/usr/local/lib"
DEFAULT_ENV = {
    "PATH": "/bin:/usr/bin:/usr/local/bin",
    "LD_LIBRARY_PATH": DEFAULT_LIB_PATH,
}


class KernelStats:
    """Cheap deterministic counters used by the benchmark harness.

    Wall-clock timings are noisy under load; these counters are exact and
    reproducible, so shape assertions ("installed ≈ baseline", "the SHILL
    Find creates a sandbox per file") gate on them instead.  The batch
    runner surfaces per-run deltas as ``RunResult.ops``.
    """

    def __init__(self) -> None:
        self.syscalls: Counter[str] = Counter()
        self.vnode_ops: Counter[str] = Counter()
        self.mac_checks = 0
        self.mac_denials = 0
        self.sandboxes_created = 0
        self.execs = 0
        self.dcache_hits = 0
        self.dcache_misses = 0
        # Per-hook-name MAC attribution (check_* and post_* alike), for
        # `repro bench profile`.  mac_checks/mac_denials stay the gated
        # aggregates; this counter only feeds traces.
        self.mac_hooks: Counter[str] = Counter()

    def count_syscall(self, name: str) -> None:
        self.syscalls[name] += 1

    def count_vnode_op(self, name: str) -> None:
        self.vnode_ops[name] += 1

    @property
    def total_syscalls(self) -> int:
        return sum(self.syscalls.values())

    @property
    def total_vnode_ops(self) -> int:
        return sum(self.vnode_ops.values())

    def snapshot(self) -> dict[str, int]:
        return {
            "total_syscalls": self.total_syscalls,
            "vnode_ops": self.total_vnode_ops,
            "mac_checks": self.mac_checks,
            "mac_denials": self.mac_denials,
            "sandboxes_created": self.sandboxes_created,
            "execs": self.execs,
            "dcache_hits": self.dcache_hits,
            "dcache_misses": self.dcache_misses,
        }

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        """Per-run op counts between two :meth:`snapshot` calls."""
        return {key: after[key] - before.get(key, 0) for key in after}

    def trace(self) -> dict[str, dict[str, int]]:
        """Per-operation-name counters — finer than :meth:`snapshot`'s
        aggregates, for assertions that two runs did *exactly* the same
        operations, not merely the same number of them."""
        return {
            "syscalls": dict(self.syscalls),
            "vnode_ops": dict(self.vnode_ops),
            "mac_hooks": dict(self.mac_hooks),
        }

    @staticmethod
    def trace_delta(before: dict[str, dict[str, int]],
                    after: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
        """Per-name deltas between two :meth:`trace` calls (zero rows
        dropped, so equal traces compare equal structurally)."""
        out: dict[str, dict[str, int]] = {}
        for group, names in after.items():
            base = before.get(group, {})
            out[group] = {name: count - base.get(name, 0)
                          for name, count in names.items()
                          if count - base.get(name, 0)}
        return out

    def clone(self) -> "KernelStats":
        new = KernelStats()
        new.syscalls = Counter(self.syscalls)
        new.vnode_ops = Counter(self.vnode_ops)
        new.mac_checks = self.mac_checks
        new.mac_denials = self.mac_denials
        new.sandboxes_created = self.sandboxes_created
        new.execs = self.execs
        new.dcache_hits = self.dcache_hits
        new.dcache_misses = self.dcache_misses
        new.mac_hooks = Counter(self.mac_hooks)
        return new


class Kernel:
    """One booted simulated machine."""

    # Backing store for the interpose_devices property.  Class defaults,
    # because the getter (and the setter's comparison) must work before
    # any setter call — __init__ never assigns these, and fork() writes
    # the instance attributes directly.
    _interpose_devices = False
    _epoch = 0

    def __init__(self) -> None:
        self.vfs = VFS()
        self.mac = MacFramework()
        self.procs = ProcessTable()
        self.network = Network()
        self.users = UserDB()
        self.sysctl = SysctlTree(self.mac)
        self.ipc = IpcRegistry(self.mac)
        self.kenv = KernelEnv(self.mac)
        self.kld = KldManager(self.mac)
        self.programs: dict[str, "Program"] = {}
        self.stats = KernelStats()
        self.mac.stats = self.stats
        self.vfs.stats = self.stats
        self.boot_time = time.monotonic()
        # Resolved-path dcache (runtime-only: never pickled, never forked).
        # Keyed/validated by SyscallInterface._resolve; stored here because
        # syscall interfaces are constructed per call.
        self._resolve_cache: dict = {}
        self._resolve_stamp: tuple | None = None
        # Touched-path recording (runtime-only, like the dcache): every
        # successful final-op MAC check appends ("read"/"write"/"execute",
        # path).  Sessions slice it into RunResult.touched; the dependency
        # analyzer (repro.analysis.deps) gates static footprints against it.
        self._touched: list = []

    @property
    def interpose_devices(self) -> bool:
        """Extension (off by default, reproducing the paper's §3.2.3
        limitation): when True, the MAC framework gains entry points
        around character-device read/write, closing the stdio bypass.
        Toggling it is a configuration change and advances the state
        epoch."""
        return self._interpose_devices

    @interpose_devices.setter
    def interpose_devices(self, value: bool) -> None:
        if value != self._interpose_devices:
            self._interpose_devices = value
            self._epoch += 1

    @property
    def state_epoch(self) -> int:
        """Monotonic counter over the machine's non-VFS configuration:
        users, sysctl, kenv, IPC objects, registered network
        services/hooks, the MAC policy set, and device interposition.
        Together with ``vfs.generation`` this answers "has this machine
        changed since?" — the world layer's pristine check (and thus the
        batch result cache's eligibility test) compares both.

        The pid and SHILL-sid watermarks are included: audit lines embed
        sids (and can embed pids), so watermark drift changes what an
        identical future run observes even though no object mutated."""
        shill = self.mac.find("shill")
        last_sid = shill.sessions.last_sid if shill is not None else 0
        return (self.users.mutations + self.sysctl.mutations
                + self.kenv.mutations + self.ipc.mutations
                + self.network.mutations + self.mac.mutations
                + self.procs.allocated + last_sid
                + self._epoch)

    # ------------------------------------------------------------------
    # forking
    # ------------------------------------------------------------------

    def fork(self) -> "Kernel":
        """An isolated copy of this machine in O(changed-state).

        The vnode tree is cloned with copy-on-write file buffers; users,
        sysctl/kenv/IPC state, registered network services, program
        registry, op-count stats, and every loaded MAC policy (via
        :meth:`~repro.kernel.mac.MacPolicy.fork_for`, so the SHILL
        module's audit history carries over too) are preserved.  Per-run
        state — live processes, open sockets, live sandbox sessions —
        is not: execution is synchronous, so forks are taken between
        runs, when none of it is load-bearing.  Allocation watermarks
        (pid counter, session sid) and all mutation counters carry over,
        so a fork is epoch-identical to the machine it was forked from.
        """
        new = Kernel.__new__(Kernel)
        new.vfs = self.vfs.fork()
        new.mac = MacFramework()
        new.procs = self.procs.clone_empty()
        new.network = self.network.fork()
        new.users = self.users.clone()
        new.sysctl = self.sysctl.fork(new.mac)
        new.ipc = self.ipc.fork(new.mac)
        new.kenv = self.kenv.fork(new.mac)
        new.kld = KldManager(new.mac)
        # Programs are stateless callables operating through the syscall
        # interface; the registry dict is copied, the instances shared.
        new.programs = dict(self.programs)
        new.stats = self.stats.clone()
        new.mac.stats = new.stats
        new.vfs.stats = new.stats
        new._interpose_devices = self._interpose_devices
        new._epoch = self._epoch
        new.boot_time = time.monotonic()
        new._resolve_cache = {}
        new._resolve_stamp = None
        new._touched = []
        # Every loaded policy crosses the fork, in registration order
        # (restrictive composition is order-sensitive for audit output).
        for policy in self.mac.policies:
            new.mac.register(policy.fork_for(new))
        new.mac.mutations = self.mac.mutations
        # Carry the label epoch too: a fork is epoch-identical to its
        # template, and the dependency analyzer diffs the two epochs to
        # detect label mutations since the fork.
        new.mac.label_epoch = self.mac.label_epoch
        if self.mac.engine is not None:
            new.mac.engine = self.mac.engine.fork_for(new)
        return new

    # ------------------------------------------------------------------
    # snapshots (see repro.kernel.serialize for the codec contract)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Everything a fork would carry, in a fixed field order so equal
        machines produce equal snapshots.  Per-run state is excluded by
        the subsystems' own hooks (ProcessTable keeps only the pid
        watermark, Network drops listeners/hooks, the SHILL session
        manager keeps audit history + sid watermark); ``boot_time`` is
        wall-clock and deliberately left out."""
        return {
            "vfs": self.vfs,
            "mac": self.mac,
            "procs": self.procs,
            "network": self.network,
            "users": self.users,
            "sysctl": self.sysctl,
            "ipc": self.ipc,
            "kenv": self.kenv,
            "kld": self.kld,
            "programs": self.programs,
            "stats": self.stats,
            "interpose_devices": self._interpose_devices,
            "epoch": self._epoch,
        }

    def __setstate__(self, state: dict) -> None:
        for field in ("vfs", "mac", "procs", "network", "users", "sysctl",
                      "ipc", "kenv", "kld", "programs", "stats"):
            setattr(self, field, state[field])
        self._interpose_devices = state["interpose_devices"]
        self._epoch = state["epoch"]
        # Re-wire the stats sinks: the pickle memo keeps them identical
        # to self.stats already, but the invariant is load-bearing (op
        # counters must keep working across the process boundary), so
        # restore re-asserts it rather than trusting graph structure.
        self.mac.stats = self.stats
        self.vfs.stats = self.stats
        self.boot_time = time.monotonic()
        self._resolve_cache = {}
        self._resolve_stamp = None
        self._touched = []

    # ------------------------------------------------------------------
    # policy management
    # ------------------------------------------------------------------

    def label_mutation(self, sid: int | None = None) -> None:
        """Record that a MAC label (or the privilege map stored in one)
        changed: bumps the label epoch so the resolved-path dcache drops
        cached walks, and forces lazy forks to materialize first — label
        objects on still-shared vnodes are shared with the template, so
        a mutation must not be observable across the fork boundary.

        ``sid`` attributes the mutation to the sandbox session whose
        action caused it (grants, auto-grants, propagation, teardown
        revocation), so audit consumers can tell *who* moved the label
        epoch; None means no session context (e.g. ambient chmod)."""
        self.mac.bump_label_epoch()
        self.mac.last_label_sid = sid
        self.vfs._unshare_forks()

    @property
    def policy_engine(self) -> "PolicyEngine | None":
        """The kernel-wide policy engine (see :mod:`repro.policy`), or
        None for pure SHILL capability semantics.  Lives on the MAC
        framework so it crosses forks and snapshots with the policy set."""
        return self.mac.engine

    @policy_engine.setter
    def policy_engine(self, engine: "PolicyEngine | None") -> None:
        if engine is self.mac.engine:
            return
        self.mac.engine = engine
        # An engine swap is a configuration change: future runs may be
        # judged differently, so the machine is no longer pristine.
        self._epoch += 1

    def install_shill_module(self) -> "ShillPolicy":
        """Load the SHILL kernel module (the MAC policy).  Idempotent."""
        from repro.sandbox.policy import ShillPolicy

        existing = self.mac.find("shill")
        if existing is not None:
            assert isinstance(existing, ShillPolicy)
            return existing
        policy = ShillPolicy(self)
        self.mac.register(policy)
        return policy

    def shill_policy(self) -> "ShillPolicy":
        policy = self.mac.find("shill")
        if policy is None:
            raise SysError(errno_.ENOSYS, "shill kernel module not loaded")
        from repro.sandbox.policy import ShillPolicy

        assert isinstance(policy, ShillPolicy)
        return policy

    @property
    def shill_installed(self) -> bool:
        return self.mac.find("shill") is not None

    # ------------------------------------------------------------------
    # processes and syscalls
    # ------------------------------------------------------------------

    def spawn_process(self, user: str | Credential = "root", cwd: str = "/") -> Process:
        cred = self.users.lookup(user) if isinstance(user, str) else user
        cwd_vp = self._resolve_boot_path(cwd)
        return self.procs.spawn(cred, cwd_vp)

    def syscalls(self, proc: Process) -> SyscallInterface:
        return SyscallInterface(self, proc)

    def _resolve_boot_path(self, path: str) -> Vnode:
        """Resolve a path with no subject (used only for kernel-side setup)."""
        node = self.vfs.root
        for comp in [p for p in path.split("/") if p]:
            node = self.vfs.lookup(node, comp)
        if not node.is_dir:
            raise SysError(errno_.ENOTDIR, path)
        return node

    # ------------------------------------------------------------------
    # program registry and exec
    # ------------------------------------------------------------------

    def register_program(self, program: "Program") -> None:
        if program.name in self.programs:
            raise ValueError(f"program {program.name!r} already registered")
        self.programs[program.name] = program

    def exec_file(
        self,
        proc: Process,
        vp: Vnode,
        argv: list[str],
        env: dict[str, str] | None = None,
    ) -> int:
        """Execute the program image ``vp`` in process ``proc`` and run it
        to completion; returns the exit status and reaps the process.

        Loader errors and uncaught syscall errors are reported on the
        process's stderr (fd 2) when present, mirroring how a shell user
        experiences them, and yield conventional statuses: 126 for "found
        but cannot execute / crashed", 127 for "missing program image".
        """
        sys = self.syscalls(proc)
        environ = dict(DEFAULT_ENV)
        if env:
            environ.update(env)
        self.stats.execs += 1
        try:
            self._exec_checks(sys, vp)
            self._hydrate_image(vp)
            vp, argv = self._maybe_shebang(sys, vp, list(argv))
            program = self.programs.get(vp.program or "")
            if program is None:
                raise SysError(errno_.ENOEXEC, "not a registered program image")
            self._load_dynamic(sys, vp, environ)
            proc.argv = list(argv)
            status = program.main(sys, list(argv), environ)
            proc.exit_status = int(status or 0)
        except SysError as err:
            self._report_exec_error(sys, argv, err)
            proc.exit_status = 127 if err.errno == errno_.ENOENT else 126
        finally:
            self.procs.reap(proc)
        return proc.exit_status

    def _exec_checks(self, sys: SyscallInterface, vp: Vnode) -> None:
        from repro.kernel.cred import X_OK, dac_check

        if not vp.is_reg:
            raise SysError(errno_.EACCES, "exec of non-file")
        if not dac_check(sys.proc.cred, mode=vp.mode, uid=vp.uid, gid=vp.gid, want=X_OK):
            raise SysError(errno_.EACCES, "dac: exec")
        sys._mac("vnode_check_exec", vp)

    def _hydrate_image(self, vp: Vnode) -> None:
        """Derive (program, needed) from a pseudo-ELF header in the file
        data when the vnode carries no metadata — this is how executables
        extracted from tarballs (e.g. emacs's configure) become runnable.
        """
        if vp.program or not vp.is_reg or not vp.data:
            return
        if not bytes(vp.data[:5]) == b"#!ELF":
            return
        from repro.programs.base import parse_elf

        program, needed = parse_elf(bytes(vp.data))
        vp.program = program
        vp.needed = needed

    def _maybe_shebang(
        self, sys: SyscallInterface, vp: Vnode, argv: list[str]
    ) -> tuple[Vnode, list[str]]:
        """Interpreter scripts: a ``#!/path`` first line re-invokes the
        interpreter with the script path prepended to argv.  The
        interpreter binary is resolved and checked *in the executing
        process's context*, so a sandbox needs it granted (wallets'
        PATH capabilities cover this)."""
        if vp.program or not vp.is_reg or not vp.data:
            return vp, argv
        data = bytes(vp.data[:64])
        if not data.startswith(b"#!") or data.startswith(b"#!ELF"):
            return vp, argv
        first_line = data.split(b"\n", 1)[0][2:].decode(errors="replace").strip()
        interp_path = first_line.split()[0] if first_line else ""
        if not interp_path:
            raise SysError(errno_.ENOEXEC, "empty shebang")
        try:
            script_path = self.vfs.path_of(vp)
        except SysError:
            script_path = argv[0] if argv else "?"
        _, _, ivp = sys._resolve(interp_path)
        if ivp is None:
            raise SysError(errno_.ENOENT, f"interpreter {interp_path!r}")
        self._exec_checks(sys, ivp)
        self._hydrate_image(ivp)
        return ivp, [interp_path, script_path] + argv[1:]

    def _load_dynamic(self, sys: SyscallInterface, vp: Vnode, env: dict[str, str]) -> None:
        """Simulate the runtime linker: open rtld and every NEEDED library
        via normal path resolution (MAC-mediated in the caller's session).
        """
        if not vp.needed:
            return  # static binary
        sys.close(sys.open(RTLD_PATH, O_RDONLY))
        libpath = env.get("LD_LIBRARY_PATH", DEFAULT_LIB_PATH).split(":")
        for lib in vp.needed:
            self._open_library(sys, lib, libpath)

    def _open_library(self, sys: SyscallInterface, lib: str, libpath: list[str]) -> None:
        last_error: SysError | None = None
        for directory in libpath:
            if not directory:
                continue
            candidate = directory.rstrip("/") + "/" + lib
            try:
                sys.close(sys.open(candidate, O_RDONLY))
                return
            except SysError as err:
                last_error = err
        detail = f"shared library {lib!r} not found in {':'.join(libpath)}"
        if last_error is not None and last_error.errno != errno_.ENOENT:
            raise SysError(last_error.errno, detail)
        raise SysError(errno_.ENOENT, detail)

    @staticmethod
    def _report_exec_error(sys: SyscallInterface, argv: list[str], err: SysError) -> None:
        name = argv[0] if argv else "?"
        try:
            if 2 in sys.proc.fdtable:
                sys.write(2, f"{name}: {err}\n".encode())
        except SysError:
            pass
