"""The Executor protocol: execution strategies as first-class objects.

An :class:`Executor` owns its resources (threads, worker processes, a
snapshot store), is bound to a :class:`JobTemplate` (one booted machine
plus the script registry jobs run against), and exposes these verbs::

    executor.prepare(world)                    # boot, the cheapest way
    executor.bind(template)
    handle = executor.submit(job)              # -> JobHandle (future-like)
    for handle in executor.as_completed(handles): ...
    executor.close()                           # release pools/processes

Executors are values: a caller says where jobs run by passing an
instance (``Batch(...).run(executor=ThreadExecutor(8))``), never by
naming one.  New strategies — yours included — plug in by implementing
this protocol, without touching ``Batch``.

A job is one ambient SHILL script for one user, producing a frozen
:class:`repro.api.RunResult`.  The single execution path is
:func:`execute_job`, identical on every executor, so the "parallel
equals sequential" fingerprint guarantee reduces to kernel forks (and
snapshots) being faithful.

Failures keep the Batch contract: script errors are results; everything
else — engine bugs, crashed workers, broken pools — raises
:class:`BatchExecutionError` naming the (script, user) job.
"""

from __future__ import annotations

import dataclasses
import itertools
import traceback as _traceback
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures import as_completed as _futures_as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.api.results import RunResult
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.api.worlds import World
    from repro.kernel.kernel import Kernel

#: Default worker count when a caller names none.
DEFAULT_WORKERS = 4

#: Process-unique identities for kernels of undigestible worlds (see
#: :meth:`JobTemplate.token_for`).
_ANON_IDS = itertools.count(1)


class BatchExecutionError(ReproError):
    """A batch job died of something that is *not* a script failure.

    Script-level failures (denials, contract violations, syntax errors —
    every :class:`ReproError`) are deterministic results and come back as
    failed :class:`RunResult`\\ s.  This error is for the rest: engine
    bugs, crashed workers, broken pools.  It names the failing job and
    preserves the original traceback text, which would otherwise be lost
    at a process boundary.
    """

    def __init__(self, job_name: str, user: str | None, traceback_text: str,
                 message: str | None = None) -> None:
        self.job_name = job_name
        self.user = user
        self.traceback_text = traceback_text
        self._message = message
        if message is None:
            lines = traceback_text.strip().splitlines()
            message = lines[-1] if lines else "unknown error"
        super().__init__(
            f"batch job {job_name!r} (user={user!r}) failed: {message}"
        )

    def __reduce__(self):
        """BaseException's default reduce replays only the formatted
        message, which does not match this constructor — spell out the
        real arguments so the error survives pickling (users wrap
        Batch.run in their own multiprocessing layers)."""
        return (BatchExecutionError,
                (self.job_name, self.user, self.traceback_text, self._message))


def execute_job(kernel: "Kernel", source: str, user: str | None,
                name: str, scripts: "dict[str, str] | Iterable[tuple[str, str]]",
                default_user: str) -> RunResult:
    """Run one script job against its own fork of ``kernel``.

    This is the single execution path every executor funnels through —
    worker processes import and call exactly this function — so the
    "parallel equals sequential" fingerprint guarantee reduces to kernel
    forks (and snapshots) being faithful.
    """
    from repro.api.sessions import Session

    fork = kernel.fork()
    effective_user = user or default_user
    try:
        session = Session(fork, user=effective_user, scripts=dict(scripts))
    except KeyError as err:
        # Unknown job user: the job fails alone, and with no session
        # there is nothing to snapshot beyond the error itself.  The
        # catch is deliberately this narrow — a KeyError out of the
        # interpreter would be an engine bug and must propagate (as a
        # BatchExecutionError, via the caller).
        return RunResult(status=1, stderr=f"KeyError: {err}\n",
                         traceback=_traceback.format_exc())
    try:
        # Jobs execute under a canonical script name: diagnostics
        # (e.g. syntax errors) embed the script name, and cached
        # results are shared across identically-keyed jobs whatever
        # they were called — callers attribute output via .jobs.
        result = session.run_ambient(source, "<batch>")
    except ReproError as err:
        # Jobs are isolated forks, so one failing script must not
        # abort its siblings: it becomes a failed RunResult carrying
        # everything the session observed up to the error — denials,
        # sandbox count, profile, op counts — since the audit trail
        # matters most exactly when a run fails.  The error text is
        # deterministic, so cache/fingerprint semantics hold for
        # failures too (the traceback is diagnostic-only and excluded
        # from fingerprints, like wall-clock timings).
        snapshot = session.result()
        result = dataclasses.replace(
            snapshot,
            status=1,
            stderr=snapshot.stderr + f"{type(err).__name__}: {err}\n",
            traceback=_traceback.format_exc(),
        )
    except Exception as err:
        raise BatchExecutionError(name, effective_user,
                                  _traceback.format_exc()) from err
    return result


@dataclass(frozen=True)
class ExecutorJob:
    """One unit of work an executor schedules: the ambient script
    ``source``, run as ``user`` (the template's default user when
    ``None``).  ``index`` is the submission position — executors echo it
    back so coordinators can merge completion-ordered results into
    submission order.
    """

    index: int
    name: str
    source: str
    user: str | None = None


@dataclass(frozen=True)
class JobTemplate:
    """Everything jobs execute against: one booted machine + context.

    ``token`` identifies the template's exact state — the world digest
    (or an instance key for undigestible worlds) plus the kernel's
    mutation counters — so executors that cache expensive per-template
    resources (a store blob, a warm worker pool) know when a
    rebind actually changed the machine underneath them.  ``fixtures``
    is the world's fixture record; only a snapshot-store link carries
    it (a store boot restores ``world.fixtures`` from the link), so
    workers and agents, which never link, leave it empty.
    """

    kernel: "Kernel"
    scripts: tuple[tuple[str, str], ...]
    default_user: str
    digest: str | None
    token: tuple
    fixtures: dict = field(default_factory=dict)

    @classmethod
    def for_world(cls, world: "World",
                  scripts: Iterable[tuple[str, str]] = ()) -> "JobTemplate":
        """The template of a booted :class:`repro.api.World`.

        ``digest`` is carried only while the world is **pristine**: a
        mutated machine is no longer what its config digest describes,
        and anything keyed on the digest (snapshot-store world links)
        must not claim it is — jobs still run fine, addressed by
        content rather than by configuration.
        """
        assert world.kernel is not None, "template worlds must be booted"
        return cls(
            kernel=world.kernel,
            scripts=tuple(scripts),
            default_user=world.default_user,
            digest=world.digest if world.pristine else None,
            token=cls.token_for(world),
            fixtures=world.fixtures,
        )

    @staticmethod
    def token_for(world: "World") -> tuple:
        kernel = world.kernel
        assert kernel is not None
        key = world.digest
        if key is None:
            # Undigestible worlds get a process-unique identity stamped
            # on the kernel object (never ``id()``: a recycled address
            # on a machine with coincidentally equal mutation counters
            # would let an executor reuse a warm pool for the wrong
            # machine).  Kernel.__getstate__ enumerates its fields
            # explicitly, so the stamp never enters snapshots or forks.
            key = getattr(kernel, "_executor_identity", None)
            if key is None:
                key = f"anon-{next(_ANON_IDS)}"
                kernel._executor_identity = key
        return (key, kernel.state_epoch, kernel.vfs.generation)


def run_job(template: JobTemplate, job: ExecutorJob) -> RunResult:
    """Execute one job against a fork of the template — shared by every
    executor, in-process and in workers."""
    return execute_job(template.kernel, job.source, job.user, job.name,
                       template.scripts, template.default_user)


class JobHandle:
    """A future-like handle for one submitted job.

    ``result()`` returns the job's :class:`RunResult`.  Engine and
    worker failures — whatever the executor — surface as
    :class:`BatchExecutionError` naming the job; script failures are
    *results*, never exceptions.
    """

    __slots__ = ("job", "_future")

    def __init__(self, job: ExecutorJob, future: Future) -> None:
        self.job = job
        self._future = future

    @property
    def index(self) -> int:
        return self.job.index

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: "float | None" = None) -> RunResult:
        try:
            return self._future.result(timeout)
        except BatchExecutionError:
            raise
        except (TimeoutError, _FuturesTimeout) as err:
            # With a caller-supplied timeout, the wait expiring is the
            # caller's protocol, not a job failure (3.10 spells it
            # futures.TimeoutError, 3.11+ the builtin).  With no timeout
            # the future cannot raise a wait-timeout, so this TimeoutError
            # came out of the *job* and is a failure like any other.
            if timeout is not None:
                raise
            raise self._job_failure(err) from err
        except Exception as err:
            raise self._job_failure(err) from err

    def _job_failure(self, err: BaseException) -> BatchExecutionError:
        """Anything non-Repro escaping a job — an engine bug in a
        thread, a worker killed hard (BrokenProcessPool) — has no job
        attribution of its own; the typed error names the job this
        handle carried and keeps the original traceback, upholding the
        documented contract."""
        return BatchExecutionError(
            self.job.name, self.job.user, _traceback.format_exc(),
            message=f"{type(err).__name__}: {err}",
        )


@dataclass
class BootInfo:
    """How an executor obtained its template (see ``Executor.prepare``).

    ``source`` is one of ``"build"`` (template freshly built this call),
    ``"cached"`` (forked from the warm in-process boot cache — no build
    work), ``"store"`` (restored from a persistent snapshot store),
    ``"booted"`` (the world arrived already booted), or
    ``"unprepared"`` (no prepare has run yet).  ``build_ops`` is the
    deterministic kernel-op delta the boot itself performed in this
    process: a fresh build reports the full world-build cost, a
    snapshot-store hit reports all zeros — the op-count gate behind "a
    second boot from the store does no template-build work" — and the
    cached/booted sources report nothing (no work happened here).
    """

    source: str = "build"
    snapshot: str | None = None               # blob digest, for store boots
    build_ops: dict = field(default_factory=dict)

    @property
    def build_ops_total(self) -> int:
        return sum(self.build_ops.values())


class Executor:
    """Base class / protocol for execution strategies.

    Subclasses implement :meth:`_submit` (and optionally
    :meth:`prepare` / :meth:`close`).  An executor is *bound* to a
    :class:`JobTemplate` before jobs are submitted; per-template
    resources (a worker pool, a wire template) are keyed by the
    template's token, so a rebind to another template never reuses them.
    Executors are context managers: ``with ProcessExecutor(8) as ex: ...``
    closes pools on exit.
    """

    name = "executor"

    def __init__(self, workers: "int | None" = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers or DEFAULT_WORKERS
        self._template: JobTemplate | None = None

    # -- template lifecycle ------------------------------------------------

    def prepare(self, world: "World") -> BootInfo:
        """Boot ``world`` however this executor can do it cheapest.

        The base strategy builds, or forks the in-process boot cache
        (reported as ``"cached"`` — forking a warm template does no
        build work, so claiming the full build cost would be wrong);
        the :class:`~repro.api.executors.store.StoreExecutor` overrides
        this to restore a linked snapshot from disk with zero
        template-build kernel ops.  Returns a :class:`BootInfo`
        describing what happened.
        """
        if world.booted:
            return BootInfo(source="booted")
        from repro.api.worlds import boot_cache_contains

        warm = world.digest is not None and boot_cache_contains(world.digest)
        world.boot()
        assert world.kernel is not None
        if warm:
            return BootInfo(source="cached")
        return BootInfo(source="build",
                        build_ops=dict(world.kernel.stats.snapshot()))

    def bind(self, template: JobTemplate) -> "Executor":
        """Fix the template subsequent :meth:`submit` calls run against."""
        self._template = template
        return self

    # -- the protocol verbs ------------------------------------------------

    def submit(self, job: ExecutorJob) -> JobHandle:
        """Schedule one job; returns a future-like :class:`JobHandle`.
        The executor keeps no reference to it: the caller owns it."""
        if self._template is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a "
                               "template; call bind() first (Batch does "
                               "this for you)")
        return self._submit(self._template, job)

    def as_completed(self, handles: Iterable[JobHandle],
                     timeout: "float | None" = None) -> Iterator[JobHandle]:
        """Yield ``handles`` as their jobs finish.

        Already-finished handles come first, in the order given (this is
        what makes the sequential executor fully deterministic); the
        rest follow in completion order.  Each handle is classified
        once, so one finishing mid-call is yielded exactly once.
        """
        done: list[JobHandle] = []
        waiting: dict[Future, JobHandle] = {}
        for handle in handles:
            if handle.done():
                done.append(handle)
            else:
                waiting[handle._future] = handle
        yield from done
        for future in _futures_as_completed(waiting, timeout=timeout):
            yield waiting[future]

    def close(self) -> None:
        """Release owned resources (pools, worker processes)."""

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- subclass surface --------------------------------------------------

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.workers}>"
