"""The cross-checked invariants, each runnable against one scenario.

Every check boots *fresh* worlds from the scenario spec (boots are
copy-on-write forks off the boot-image cache, so this is cheap) — the
sandboxed and ambient legs of the containment check in particular each
start from identical world state, never from each other's leftovers.
"""

from __future__ import annotations

import json
import tempfile
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError, SysError

if TYPE_CHECKING:
    from repro.api import Executor, RunResult
    from repro.fuzz.scenarios import Scenario

#: A second, fixed batch job so the threaded/store executors always have
#: parallel work to schedule alongside the generated script.
_PROBE = '#lang shill/ambient\nappend(stdout, "probe\\n");\n'


class InvariantViolation(AssertionError):
    """A generated scenario broke a system-level property."""

    def __init__(self, invariant: str, detail: str, scenario: "Scenario") -> None:
        self.invariant = invariant
        self.detail = detail
        self.scenario = scenario
        super().__init__(
            f"[{invariant}] {detail}\nscenario: "
            + json.dumps(scenario.describe(), indent=2, sort_keys=True)
        )


# ---------------------------------------------------------------------------
# running one command, sandboxed and ambient
# ---------------------------------------------------------------------------


def sandboxed_exec(scenario: "Scenario", argv: tuple[str, ...]) -> "Optional[RunResult]":
    """Run ``argv`` under an empty ``shill-run`` policy in a fresh world.
    ``None`` means the launcher itself failed (nothing to contain)."""
    from repro.api.sandboxes import Sandbox

    world = scenario.build_world().boot()
    sandbox = Sandbox(world.kernel, "", user=scenario.world.user,
                      cwd=scenario.world.home)
    try:
        return sandbox.exec(list(argv))
    except SysError:
        return None


def ambient_exec(scenario: "Scenario", argv: tuple[str, ...]) -> tuple[int, str]:
    """Run ``argv`` with full ambient authority in a fresh, identical
    world; returns (status, stdout)."""
    from repro.kernel.pipes import make_pipe
    from repro.sandbox.shilld import _wire_stdio

    world = scenario.build_world().boot()
    kernel = world.kernel
    launcher = kernel.spawn_process(scenario.world.user, scenario.world.home)
    sys_ = kernel.syscalls(launcher)
    try:
        _, _, vp = sys_._resolve(argv[0])
    except SysError:
        vp = None
    if vp is None:
        return 127, ""
    out_r, out_w = make_pipe()
    err_r, err_w = make_pipe()
    child = kernel.procs.fork(launcher)
    _wire_stdio(kernel, child, None, out_w, err_w)
    status = kernel.exec_file(child, vp, list(argv))
    return status, bytes(out_r.pipe.buffer).decode(errors="replace")


# ---------------------------------------------------------------------------
# invariant 1 + 2: containment and audited denials
# ---------------------------------------------------------------------------


def check_containment(scenario: "Scenario") -> None:
    """Sandboxed ⊆ ambient: a command that succeeds inside the sandbox
    must succeed ambient from identical world state — and when the
    sandbox denied nothing (so nothing was attenuated), the observable
    output must match byte for byte."""
    for argv in scenario.commands:
        result = sandboxed_exec(scenario, argv)
        if result is None:
            continue
        if result.status != 0:
            continue
        status, stdout = ambient_exec(scenario, argv)
        if status != 0:
            raise InvariantViolation(
                "containment",
                f"{argv!r} succeeded sandboxed but failed ambient (status {status})",
                scenario)
        if not result.denials and result.stdout != stdout:
            raise InvariantViolation(
                "containment",
                f"{argv!r} ran denial-free sandboxed but its output diverged "
                f"from ambient: {result.stdout!r} != {stdout!r}",
                scenario)


def check_denials_audited(scenario: "Scenario") -> None:
    """Every MAC denial during a sandboxed run leaves an audit record:
    the kernel's ``mac_denials`` op count and the session audit log's
    denial entries agree exactly."""
    for argv in scenario.commands:
        result = sandboxed_exec(scenario, argv)
        if result is None:
            continue
        counted = result.ops.get("mac_denials", 0)
        audited = len(result.denials)
        if counted != audited:
            raise InvariantViolation(
                "denials-audited",
                f"{argv!r}: kernel counted {counted} MAC denial(s) but the "
                f"audit log recorded {audited}",
                scenario)


# ---------------------------------------------------------------------------
# invariant 3: executor equivalence
# ---------------------------------------------------------------------------


def _batch_outcome(scenario: "Scenario", executor: "Executor"):
    """The batch's result fingerprints under one executor — or, for a
    crashed batch, the error's shape (which must also be identical)."""
    from repro.api import Batch

    world = scenario.build_world()
    batch = (Batch(world, cache=False)
             .add(scenario.ambient_script(), name="fuzz.ambient")
             .add(_PROBE, name="probe.ambient"))
    try:
        return tuple(result.fingerprint() for result in batch.run(executor=executor))
    except ReproError as err:
        return ("error", type(err).__name__, str(err).splitlines()[0] if str(err) else "")


def check_executor_equivalence(scenario: "Scenario") -> None:
    """One generated batch produces byte-identical result fingerprints on
    the sequential, thread, and snapshot-store executors."""
    from repro.api import SequentialExecutor, StoreExecutor, ThreadExecutor

    # The store executor gets a store of its own, removed afterwards: the
    # default store root is the user's cache, which fuzzing must not fill.
    with tempfile.TemporaryDirectory() as store, SequentialExecutor() as baseline, \
            ThreadExecutor() as thread, StoreExecutor(store=store) as on_disk:
        expected = _batch_outcome(scenario, baseline)
        for executor in (thread, on_disk):
            outcome = _batch_outcome(scenario, executor)
            if outcome != expected:
                raise InvariantViolation(
                    "executor-equivalence",
                    f"{executor.name!r} outcome diverged from "
                    f"{baseline.name!r}: {outcome!r} != {expected!r}",
                    scenario)


# ---------------------------------------------------------------------------
# invariant 4: footprint soundness
# ---------------------------------------------------------------------------


def check_footprint(scenario: "Scenario") -> None:
    """``static ⊇ touched``: every path the generated ambient script
    actually touches is accounted for by its statically inferred
    capability footprint."""
    from repro.analysis.deps import soundness_escapes
    from repro.analysis.infer import analyze_source
    from repro.api import Session

    source = scenario.ambient_script()
    analysis = analyze_source("fuzz.ambient", source)
    if analysis.error is not None or analysis.unresolved:
        return  # no static footprint to hold the run against
    world = scenario.build_world().boot()
    session = Session(world, user=scenario.world.user)
    try:
        result = session.run_ambient(source, "fuzz.ambient")
    except ReproError:
        return  # aborted runs leave no complete touched record
    home = scenario.world.home
    escapes = soundness_escapes(analysis.footprint, result.touched, home=home)
    if escapes:
        raise InvariantViolation(
            "footprint-soundness",
            f"touched paths escaped the static footprint: {', '.join(escapes)}",
            scenario)


# ---------------------------------------------------------------------------
# the whole property
# ---------------------------------------------------------------------------


def check_scenario(scenario: "Scenario") -> None:
    """Cross-check one generated triple against all four invariants."""
    check_containment(scenario)
    check_denials_audited(scenario)
    check_executor_equivalence(scenario)
    check_footprint(scenario)
