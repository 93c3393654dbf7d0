"""Sessions: one SHILL invocation against a booted world.

A :class:`Session` wraps the internal engine
(:class:`repro.lang.runner.ShillRuntime`) behind the public surface:
``run_ambient`` and friends return frozen :class:`repro.api.RunResult`
records instead of requiring callers to read ``runtime.tty.text`` or
``runtime.profile`` themselves.
"""

from __future__ import annotations

import contextlib
import pathlib
import time
from typing import TYPE_CHECKING, Any, Mapping

from repro.api.registry import ScriptRegistry
from repro.api.results import RunResult, freeze_ops, freeze_profile
from repro.lang.runner import ShillRuntime
from repro.sandbox.audit import AuditEntry

if TYPE_CHECKING:
    from repro.api.sandboxes import Sandbox
    from repro.api.worlds import World
    from repro.kernel.kernel import Kernel


class Session:
    """An interpreter process for one user, plus its script registry.

    ``world`` may be a :class:`repro.api.World` (booted on demand) or a
    raw :class:`~repro.kernel.kernel.Kernel`.  ``user`` defaults to the
    world's default user (``for_user``), or root for a bare kernel.

    Example::

        from repro.api import World

        world = World().for_user("alice").with_jpeg_samples()
        session = world.session()
        result = session.run_ambient(
            '#lang shill/ambient\\n'
            'docs = open_dir("~/Documents");\\n'
            'append(stdout, path(docs) + "\\\\n");\\n')
        assert result.ok and result.stdout.endswith("Documents\\n")
    """

    def __init__(
        self,
        world: "World | Kernel",
        user: str | None = None,
        cwd: str | None = None,
        scripts: "Mapping[str, str] | ScriptRegistry | None" = None,
        engine: Any = None,
    ) -> None:
        from repro.api.worlds import World

        if isinstance(world, World):
            kernel = world.boot().kernel
            user = user or world.default_user
        else:
            kernel = world
            user = user or "root"
        if isinstance(scripts, ScriptRegistry):
            scripts = scripts.as_dict()
        self.user = user
        self.cwd = cwd or kernel.users.lookup(user).home
        # engine binds a per-session repro.policy.PolicyEngine to every
        # sandbox this session's scripts create (overriding any
        # kernel-wide Kernel.policy_engine for those checks).
        self._runtime = ShillRuntime(kernel, user=user, cwd=self.cwd,
                                     scripts=dict(scripts or {}),
                                     engine=engine)
        # Ops driven through *this* session.  Several Sessions may share
        # one kernel, whose counters are global — so, like the audit
        # trail (_owned_sids), op counts are accumulated per entry point
        # rather than read as a kernel-lifetime delta.
        self._ops_acc: dict[str, int] = {}
        # Sandbox sessions created *by this Session* — several Sessions may
        # share one kernel, and each must only report its own audit trail.
        self._owned_sids: set[int] = set()

    # -- internals exposed deliberately ------------------------------------

    @property
    def kernel(self) -> "Kernel":
        return self._runtime.kernel

    @property
    def runtime(self) -> ShillRuntime:
        """The internal engine.  Tests of the language ↔ sandbox seam may
        reach through; application code should not need to."""
        return self._runtime

    # -- scripts -----------------------------------------------------------

    def register_script(self, name: str, source: str) -> "Session":
        self._runtime.register_script(name, source)
        return self

    def register_scripts(self, scripts: "Mapping[str, str] | ScriptRegistry") -> "Session":
        if isinstance(scripts, ScriptRegistry):
            scripts = scripts.as_dict()
        for name, source in scripts.items():
            self._runtime.register_script(name, source)
        return self

    # -- running -----------------------------------------------------------

    def run_ambient(self, source: str, name: str = "<ambient>") -> RunResult:
        """Run an ambient script; returns a frozen :class:`RunResult`."""
        marks = self._marks()
        with self._owning(), self._counting():
            self._runtime.run_ambient(source, name)
        # The interpreter Env is deliberately NOT surfaced as `value`:
        # it holds live engine internals, which a frozen result must not
        # leak.  Use load_cap()/call() for language-level values.
        return self._result_since(marks, value=None)

    def run_ambient_file(self, path: str | pathlib.Path) -> RunResult:
        """Run an ambient script from a host file."""
        path = pathlib.Path(path)
        return self.run_ambient(path.read_text(), path.name)

    def run_script(self, name: str) -> RunResult:
        """Run a registered ambient script by its registry name."""
        return self.run_ambient(self._runtime.scripts[name], name)

    def load_cap(self, name: str, importer: str = "host") -> dict[str, Any]:
        """Load a capability-safe script; returns its contract-wrapped
        exports, callable through :meth:`call`."""
        with self._owning(), self._timing(), self._counting():
            return self._runtime.load_cap_exports(name, importer=importer)

    def call(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        with self._owning(), self._timing(), self._counting():
            return self._runtime.call(fn, *args, **kwargs)

    def open_file(self, path: str):
        """Mint an ambient file capability (the paper's ``open-file``) —
        for handing arguments to :meth:`call`-driven exports."""
        return self._runtime.open_file(path)

    def open_dir(self, path: str):
        return self._runtime.open_dir(path)

    def shell(self, policy: str, *, debug: bool = False, cwd: str | None = None) -> "Sandbox":
        """A policy-file-configured sandbox (the ``shill-run`` tool) for
        this session's user."""
        from repro.api.sandboxes import Sandbox

        return Sandbox(self.kernel, policy, user=self.user, debug=debug,
                       cwd=cwd or self.cwd, engine=self._runtime.engine)

    # -- observation -------------------------------------------------------

    @property
    def stdout(self) -> str:
        """Everything written to the ambient stdout device so far."""
        return self._runtime.tty.text

    @property
    def stderr(self) -> str:
        return self._runtime.tty_err.text

    @property
    def sandbox_count(self) -> int:
        return int(self._runtime.profile["sandbox_count"])

    @property
    def profile(self) -> Mapping[str, float]:
        return freeze_profile(self._runtime.profile)

    @property
    def denials(self) -> tuple[AuditEntry, ...]:
        return self._denials_for(self._owned_sessions())

    @property
    def ops(self) -> Mapping[str, int]:
        """Deterministic kernel op counts of the work driven through
        this session (runs, cap loads, calls) — sibling sessions on the
        same kernel are not included."""
        return freeze_ops(self._ops_acc)

    def result(self, value: Any = None) -> RunResult:
        """A frozen snapshot of everything this session has done so far."""
        sessions = self._owned_sessions()
        return RunResult(
            stdout=self.stdout,
            stderr=self.stderr,
            status=0,
            profile=self.profile,
            ops=self.ops,
            sandbox_count=self.sandbox_count,
            denials=self._denials_for(sessions),
            auto_granted=self._auto_grants_for(sessions),
            value=value,
        )

    # -- snapshot plumbing -------------------------------------------------

    @contextlib.contextmanager
    def _owning(self):
        """Attribute sandbox sessions created inside the block to this
        Session (runs are synchronous, so the sid delta is exactly ours)."""
        before = self._watermark()
        try:
            yield
        finally:
            self._owned_sids.update(range(before + 1, self._watermark() + 1))

    @contextlib.contextmanager
    def _counting(self):
        """Accumulate the kernel-op delta of the block into this
        session's own tally (runs are synchronous, so the delta is
        exactly the block's work)."""
        from repro.kernel.kernel import KernelStats

        before = self._runtime.kernel.stats.snapshot()
        try:
            yield
        finally:
            after = self._runtime.kernel.stats.snapshot()
            for key, value in KernelStats.delta(before, after).items():
                self._ops_acc[key] = self._ops_acc.get(key, 0) + value

    @contextlib.contextmanager
    def _timing(self):
        """Count host-driven work (load_cap / call) toward the engine's
        ``total`` accumulator, as run_ambient does itself, so profile
        decompositions stay consistent for call-driven sessions."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._runtime.profile["total"] += time.perf_counter() - t0

    def _marks(self) -> tuple[int, int, dict[str, float], int, dict[str, int], int]:
        rt = self._runtime
        return (
            len(rt.tty.output),
            len(rt.tty_err.output),
            dict(rt.profile),
            self._watermark(),
            dict(self._ops_acc),
            len(rt.kernel._touched),
        )

    def _result_since(self, marks: tuple[int, int, dict[str, float], int, dict[str, int], int],
                      value: Any) -> RunResult:
        rt = self._runtime
        out0, err0, profile0, mark0, ops0, touched0 = marks
        sessions = self._sandbox_sessions_since(mark0)
        # Per-run breakdown: sandbox setup/exec and total are deltas over
        # this run; startup is the session's construction cost (a per-
        # session constant, reported as-is so single-run flows — the
        # Figure 10 benchmarks — see the full decomposition).
        profile = {
            "startup": rt.profile["startup"],
            "sandbox_setup": rt.profile["sandbox_setup"] - profile0["sandbox_setup"],
            "sandbox_exec": rt.profile["sandbox_exec"] - profile0["sandbox_exec"],
            "total": rt.profile["total"] - profile0["total"],
        }
        return RunResult(
            stdout=bytes(rt.tty.output[out0:]).decode(errors="replace"),
            stderr=bytes(rt.tty_err.output[err0:]).decode(errors="replace"),
            status=0,
            profile=freeze_profile(profile),
            # The run's delta of the per-session tally (_counting has
            # already folded the run in by the time results are built).
            ops=freeze_ops({key: self._ops_acc.get(key, 0) - ops0.get(key, 0)
                            for key in self._ops_acc}),
            sandbox_count=int(rt.profile["sandbox_count"] - profile0["sandbox_count"]),
            denials=self._denials_for(sessions),
            auto_granted=self._auto_grants_for(sessions),
            value=value,
            touched=tuple(sorted(set(rt.kernel._touched[touched0:]))),
        )

    def _watermark(self) -> int:
        kernel = self._runtime.kernel
        if not kernel.shill_installed:
            return 0
        return kernel.shill_policy().sessions.last_sid

    def _sandbox_sessions_since(self, mark: int) -> list:
        kernel = self._runtime.kernel
        if not kernel.shill_installed:
            return []
        return kernel.shill_policy().sessions.audit_records_since(mark)

    def _owned_sessions(self) -> list:
        kernel = self._runtime.kernel
        if not kernel.shill_installed:
            return []
        return [r for r in kernel.shill_policy().sessions.audit_records()
                if r.sid in self._owned_sids]

    @staticmethod
    def _denials_for(sessions: list) -> tuple[AuditEntry, ...]:
        return tuple(e for s in sessions for e in s.log.denials())

    @staticmethod
    def _auto_grants_for(sessions: list) -> tuple[str, ...]:
        return tuple(e.format() for s in sessions for e in s.log.auto_grants())

    def __repr__(self) -> str:
        return f"<Session user={self.user!r} cwd={self.cwd!r} sandboxes={self.sandbox_count}>"
