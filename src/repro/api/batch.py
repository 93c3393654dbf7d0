"""Batch: many (script, user) jobs over forked worlds.

The scaling counterpart of :class:`repro.api.Session`: instead of one
SHILL invocation against one booted world, a :class:`Batch` takes a base
:class:`repro.api.World` and a list of jobs, gives **every job its own
copy-on-write fork** of the base image, and returns one frozen
:class:`repro.api.RunResult` per job in submission order.

Per-job forks buy two properties at once:

* **amortised boot** — the base world is built (or fetched from the
  boot-image cache, or restored from a persistent snapshot store) once;
  each job pays only a fork, which is O(changed-state) rather than
  O(world);
* **order independence** — no job can observe another job's writes, so
  running the jobs in parallel (per-worker kernels) produces
  byte-identical results to the sequential run:
  ``[r.fingerprint() for r in ...]`` is invariant under scheduling.

*Where* jobs run is the :class:`repro.api.executors.Executor` instance
passed as ``executor=`` (see README "Executors"): ``SequentialExecutor``
(the default), ``ThreadExecutor``, ``ProcessExecutor``,
``StoreExecutor`` (worker processes booting from a persistent on-disk
:class:`~repro.kernel.store.SnapshotStore`), ``RemoteExecutor`` or
``ServeExecutor``.  ``Batch`` itself is a thin façade: it classifies
jobs against the result cache, hands the rest to the executor, and
merges completions back into submission order.  Three consumption
shapes::

    results = batch.run(executor=ProcessExecutor(8))   # list, in order
    for result in batch.stream(executor=ex):           # in order, as ready
        ...
    for job, result in batch.as_completed():           # completion order
        ...

Job failures are part of the contract: a script error (any
:class:`~repro.errors.ReproError`) becomes a failed :class:`RunResult`
carrying the error text *and* the full host traceback
(``result.traceback``); an unexpected error — an engine bug, a crashed
worker — raises :class:`BatchExecutionError` naming the (script, user)
job that failed, with the original traceback text preserved, through
``run``/``stream``/``as_completed`` alike.

Results are additionally served from a result cache keyed on (world
digest, script source, user, registered scripts) — the world is
deterministic, so an identical job against an identical image must
produce an identical result.  While the base world is
:attr:`~repro.api.World.pristine` a hit is unconditional.  A world
mutated *after* boot (``patch_file``, post-boot writes) no longer drops
the cache wholesale: the batch computes the **world delta** against the
boot template and asks the dependency analyzer
(:func:`repro.analysis.may_depend`) whether the job's statically
inferred footprint can intersect it.  A VALID verdict serves the cached
result with zero kernel ops; INVALID and UNKNOWN verdicts re-execute
(and record per-job blame, see :attr:`Batch.verdicts`).  Serving a
stale entry is additionally gated on soundness: the entry carries the
original run's recorded touched paths, and if any escaped the static
footprint the entry is invalidated conservatively and an audit event is
recorded (:attr:`Batch.audit_events`).  Mutated-world results are never
written back under the template digest.  By default every batch in the
process shares one module-level cache; pass
``Batch(result_cache=BoundedCache(...))`` to isolate a batch (tests, or
coordinators that must not share state).  Cached jobs are never
dispatched to executors, and executor results are merged back in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.api.caching import BoundedCache
from repro.api.executors.base import (
    BatchExecutionError,
    Executor,
    ExecutorJob,
    JobTemplate,
    execute_job,
)
from repro.api.executors.local import SequentialExecutor
from repro.api.registry import ScriptRegistry
from repro.api.results import RunResult

if TYPE_CHECKING:
    from repro.api.worlds import World

__all__ = [
    "Batch",
    "BatchExecutionError",
    "BatchJob",
    "clear_result_cache",
    "execute_job",
    "result_cache_size",
]

#: The default, module-level result cache: a bounded LRU shared by
#: every Batch that is not given its own cache.  Each entry is a
#: ``(result, touched)`` pair — the frozen :class:`RunResult` with its
#: ``touched`` field stripped, alongside the recorded touched paths the
#: dependency analyzer's soundness gate needs at probe time.  Stale
#: entries are evicted so a long-lived process sweeping many distinct
#: jobs cannot grow without limit (a re-run after eviction just
#: recomputes deterministically).
_RESULT_CACHE: BoundedCache = BoundedCache(4096)


def clear_result_cache() -> None:
    """Drop all results from the default (module-level) cache.  Batches
    constructed with their own ``result_cache`` are unaffected."""
    _RESULT_CACHE.clear()


def result_cache_size() -> int:
    """Entries in the default (module-level) cache."""
    return len(_RESULT_CACHE)


@dataclass(frozen=True)
class BatchJob:
    """One queued (script, user) pair."""

    source: str
    user: str | None
    name: str


class Batch:
    """A queue of ambient-script jobs over one base world.

    ``scripts`` (a mapping or :class:`ScriptRegistry`) is the shared
    capability-script registry every job's session starts with.
    ``result_cache`` overrides the module-level shared result cache with
    a private :class:`~repro.api.caching.BoundedCache`.

    ``lint`` enables pre-dispatch gating (see docs/linting.md): every
    queued script is statically analysed *before* any fork or wire
    round-trip.  ``"warn"`` attaches the inferred
    :class:`~repro.analysis.Footprint` to each ``result.footprint``;
    ``"strict"`` additionally raises
    :class:`~repro.analysis.LintRejection` for the first job (in
    submission order) carrying a lint error — the executor never sees
    the doomed job, so the diagnostics are byte-identical whether the
    batch targets a sequential, process, or remote executor.
    ``lint_rules`` substitutes a custom
    :class:`~repro.analysis.RuleSet` (a ``FakeRuleSet`` in tests).

    Example::

        from repro.api import Batch, World

        batch = Batch(World().for_user("alice").with_jpeg_samples())
        for i in range(3):
            batch.add('#lang shill/ambient\\n'
                      'docs = open_dir("~/Documents");\\n'
                      'append(stdout, path(docs) + "\\\\n");\\n',
                      name=f"job{i}")
        results = batch.run()     # or run(executor=ProcessExecutor(8))
        assert [r.status for r in results] == [0, 0, 0]
        assert batch.stats["cache_hits"] == 2   # identical jobs dispatch once
    """

    def __init__(
        self,
        world: "World",
        scripts: "Mapping[str, str] | ScriptRegistry | None" = None,
        cache: bool = True,
        result_cache: "BoundedCache | None" = None,
        lint: str = "off",
        lint_rules: Any = None,
    ) -> None:
        from repro.api.worlds import World

        if not isinstance(world, World):
            raise TypeError("Batch needs a repro.api.World (its fork/digest "
                            "machinery is what batching is built on)")
        if lint not in ("off", "warn", "strict"):
            raise ValueError(f"lint must be one of ('off', 'warn', 'strict'), "
                             f"got {lint!r}")
        if isinstance(scripts, ScriptRegistry):
            scripts = scripts.as_dict()
        self.world = world
        self._scripts = dict(scripts or {})
        self._scripts_sig = tuple(sorted(self._scripts.items()))
        self._cache_enabled = cache
        self._result_cache = result_cache if result_cache is not None else _RESULT_CACHE
        self._lint = lint
        self._lint_rules = lint_rules
        self._jobs: list[BatchJob] = []
        self._stats = {"jobs": 0, "cache_hits": 0, "forks": 0}
        self._stats_lock = threading.Lock()
        # Dependency-aware invalidation bookkeeping (last run): per-job
        # verdict strings, verdict tallies, and soundness audit events.
        self._verdicts: dict[int, str] = {}
        self._verdict_counts = {"hits": 0, "misses": 0,
                                "invalidated": 0, "uncacheable": 0}
        self._audit: list[str] = []
        self._footprints: dict[str, Any] = {}

    # -- queueing ----------------------------------------------------------

    def add(self, source: str, *, user: str | None = None,
            name: str | None = None) -> "Batch":
        """Queue one ambient script, optionally for a specific user."""
        self._jobs.append(BatchJob(source, user, name or f"job{len(self._jobs)}"))
        return self

    def __len__(self) -> int:
        return len(self._jobs)

    @property
    def jobs(self) -> tuple[BatchJob, ...]:
        return tuple(self._jobs)

    @property
    def stats(self) -> dict[str, int]:
        """Totals across every run so far: jobs executed, result cache
        hits, and world forks taken."""
        with self._stats_lock:
            return dict(self._stats)

    @property
    def verdicts(self) -> dict[int, str]:
        """Per-job cache verdicts of the **last** run, by submission
        index: ``"hit"``, ``"miss"``, ``"invalidated-by:<prefix>"``, or
        ``"uncacheable:<flag>"``.  Jobs that never had a cache key (the
        world is undigestible, or ``cache=False``) are absent."""
        with self._stats_lock:
            return dict(self._verdicts)

    @property
    def cache_report(self) -> dict[str, int]:
        """Verdict tallies across every run so far — the
        cache-effectiveness summary (``hits`` / ``misses`` /
        ``invalidated`` / ``uncacheable``)."""
        with self._stats_lock:
            return dict(self._verdict_counts)

    @property
    def audit_events(self) -> tuple[str, ...]:
        """Soundness-gate audit trail: one event per cached entry whose
        recorded touched paths escaped the job's static footprint (the
        entry was invalidated conservatively)."""
        with self._stats_lock:
            return tuple(self._audit)

    # -- running -----------------------------------------------------------

    def run(self, *, executor: "Executor | None" = None) -> list[RunResult]:
        """Execute every queued job; results in submission order.

        ``executor`` is the execution strategy (an
        :class:`repro.api.executors.Executor` instance — the batch binds
        it but does not close it, so one executor can serve many runs).
        ``None`` runs on a :class:`SequentialExecutor` this run owns.
        Whatever the strategy, results are byte-identical (compare
        :meth:`RunResult.fingerprint`).
        """
        return list(self._merge_in_order(self._drive(executor)))

    def stream(self, *, executor: "Executor | None" = None) -> Iterator[RunResult]:
        """Like :meth:`run`, but yield each result **in submission order
        as soon as it (and every earlier job) has finished** — an ordered
        merge over the executor's completion stream, so a consumer sees
        the exact ``run()`` list without waiting for the whole batch.
        """
        return self._merge_in_order(self._drive(executor))

    def as_completed(self, *, executor: "Executor | None" = None,
                     ) -> Iterator[tuple[BatchJob, RunResult]]:
        """Yield ``(job, result)`` pairs in **completion order** — cache
        hits first, then jobs as the executor finishes them.  Use this to
        react to results as they land when submission order does not
        matter; fingerprint guarantees are unchanged (the *set* of
        results equals the ``run()`` list)."""
        return ((job, result) for _index, job, result in self._drive(executor))

    # -- the driver --------------------------------------------------------

    @staticmethod
    def _merge_in_order(completions: "Iterator[tuple[int, BatchJob, RunResult]]",
                        ) -> Iterator[RunResult]:
        buffered: dict[int, RunResult] = {}
        next_index = 0
        for index, _job, result in completions:
            buffered[index] = result
            while next_index in buffered:
                yield buffered.pop(next_index)
                next_index += 1

    def _drive(self, executor: "Executor | None",
               ) -> Iterator[tuple[int, BatchJob, RunResult]]:
        """Classify, dispatch, merge: yields (index, job, result) with
        cache hits first and executor completions as they land; raises
        the submission-earliest :class:`BatchExecutionError` after
        draining, so sibling results still reach the cache."""
        owned = executor is None
        chosen = SequentialExecutor() if owned else executor
        try:
            # Gate before the executor touches anything: a strict-mode
            # rejection must look identical whether the batch would have
            # forked locally or shipped jobs over the wire.
            lint_reports = self._gate()
            chosen.prepare(self.world)
            self.world.boot()
            template = JobTemplate.for_world(self.world, self._scripts_sig)
            chosen.bind(template)

            pristine = self.world.pristine
            with self._stats_lock:
                self._verdicts = {}
            # The world delta against the boot template, computed lazily
            # once per run and shared by every probe.
            delta_cell: list = []

            # Identically-keyed queued jobs dispatch once: later
            # duplicates ride on the representative's result, matching
            # the cache-hit semantics of a fully sequential run.
            pending: list[tuple[int, BatchJob, tuple | None]] = []
            representative: dict[tuple, int] = {}
            duplicates: dict[int, list[int]] = {}
            for index, job in enumerate(self._jobs):
                key = self._cache_key(job)
                entry = self._result_cache.get(key) if key is not None else None
                if entry is not None and not pristine:
                    # The base world drifted from what the digest
                    # describes — the cached entry survives only if the
                    # dependency analyzer proves the job could not have
                    # observed the drift.
                    verdict = self._probe(job, entry, delta_cell)
                    if not verdict.valid:
                        self._note_verdict(index, verdict.blame[0]
                                           if verdict.blame else verdict.state)
                        entry = None
                if entry is not None:
                    self._bump("jobs", "cache_hits")
                    self._note_verdict(index, "hit")
                    yield index, job, self._annotate(entry[0], index, lint_reports)
                elif key is not None and key in representative:
                    self._bump("jobs", "cache_hits")
                    if index not in self._verdicts:
                        self._note_verdict(index, "hit")
                    duplicates.setdefault(representative[key], []).append(index)
                else:
                    if key is not None:
                        representative[key] = index
                        if index not in self._verdicts:
                            self._note_verdict(index, "miss")
                    # Results computed on a drifted world must never be
                    # stored under the template digest.
                    pending.append((index, job, key if pristine else None))

            by_handle = {}
            for index, job, key in pending:
                handle = chosen.submit(ExecutorJob(
                    index=index, name=job.name, source=job.source, user=job.user))
                by_handle[handle] = (index, job, key)
            failure: BatchExecutionError | None = None
            failure_index = len(self._jobs)
            # Drain exactly our own handles: a shared executor may be
            # carrying another batch's (or the caller's own) submissions.
            for handle in chosen.as_completed(list(by_handle)):
                index, job, key = by_handle[handle]
                try:
                    result = handle.result()
                except BatchExecutionError as err:
                    # Keep draining so sibling jobs finish cleanly; the
                    # first failure (submission order) wins.
                    if index < failure_index:
                        failure, failure_index = err, index
                    continue
                self._bump("jobs", "forks")
                result = self._finish(key, result)
                yield index, job, self._annotate(result, index, lint_reports)
                for dup_index in duplicates.get(index, ()):
                    yield (dup_index, self._jobs[dup_index],
                           self._annotate(result, dup_index, lint_reports))
            if failure is not None:
                raise failure
        finally:
            if owned:
                chosen.close()

    # -- shared plumbing ---------------------------------------------------

    def _gate(self) -> dict:
        """Run pre-dispatch lint over the queued jobs (mode permitting).
        Imported lazily: ``repro.analysis`` depends on this module's
        :class:`BatchExecutionError`."""
        if self._lint == "off":
            return {}
        from repro.analysis.gate import gate_jobs

        return gate_jobs(self._jobs, self._scripts, self._lint,
                         rules=self._lint_rules)

    @staticmethod
    def _annotate(result: RunResult, index: int, lint_reports: dict) -> RunResult:
        """Attach the job's inferred footprint.  The cache holds bare
        results — the annotation is advisory metadata, and caching it
        would leak one batch's lint mode into another's results."""
        report = lint_reports.get(index)
        if report is None:
            return result
        return replace(result, footprint=report.footprint)

    def _finish(self, key: tuple | None, result: RunResult) -> RunResult:
        if key is not None:
            # put has setdefault semantics: under parallel duplicate
            # jobs, the first result wins everywhere (they are
            # fingerprint-identical anyway).  Entries are (result,
            # touched) pairs: touched is stripped from the stored
            # result but kept alongside for the soundness gate.
            stored, _touched = self._result_cache.put(
                key, (replace(result, touched=()), result.touched))
            result = stored
        return result

    def _cache_key(self, job: BatchJob) -> tuple | None:
        """(world digest, scripts, source, user) — for digestible,
        cache-enabled worlds.  Whether an entry under this key may be
        *served* is decided at classification time: unconditionally
        while the world is pristine, by :func:`repro.analysis.may_depend`
        once it has drifted."""
        if not self._cache_enabled or self.world.digest is None:
            return None
        return (
            self.world.digest,
            self._scripts_sig,
            job.source,
            job.user or self.world.default_user,
        )

    def _probe(self, job: BatchJob, entry: tuple, delta_cell: list):
        """Decide whether a cached entry survives the base world's
        post-boot drift: static footprint × world delta, then the
        soundness gate (``static ⊇ recorded touched``) on the entry."""
        from repro.analysis.deps import (
            INVALID,
            Verdict,
            may_depend,
            soundness_escapes,
            world_delta_of,
        )

        if not delta_cell:
            delta_cell.append(world_delta_of(self.world))
        footprint = self._footprint_of(job)
        home = self._home_of(job.user)
        verdict = may_depend(footprint, delta_cell[0], home=home)
        if verdict.valid:
            escapes = soundness_escapes(footprint, entry[1], home=home)
            if escapes:
                with self._stats_lock:
                    self._audit.append(
                        f"soundness: recorded touches escaped the static "
                        f"footprint of {job.name!r}: " + ", ".join(escapes))
                return Verdict(INVALID, tuple(
                    f"invalidated-by:escape:{esc}" for esc in escapes))
        return verdict

    def _footprint_of(self, job: BatchJob):
        """The job's statically inferred footprint, memoized per source;
        ``None`` (→ UNKNOWN verdict) when inference errored or left
        names unresolved."""
        if job.source not in self._footprints:
            from repro.analysis.infer import analyze_source

            analysis = analyze_source(job.name, job.source,
                                      registry=self._scripts)
            self._footprints[job.source] = (
                None if analysis.error is not None or analysis.unresolved
                else analysis.footprint)
        return self._footprints[job.source]

    def _home_of(self, user: str | None) -> str | None:
        """The job user's home, for ``~``-prefix expansion in footprints."""
        assert self.world.kernel is not None
        try:
            return self.world.kernel.users.lookup(
                user or self.world.default_user).home
        except KeyError:
            return None

    def _note_verdict(self, index: int, verdict: str) -> None:
        bucket = ("hits" if verdict == "hit"
                  else "invalidated" if verdict.startswith("invalidated")
                  else "uncacheable" if verdict.startswith("uncacheable")
                  else "misses")
        with self._stats_lock:
            self._verdicts[index] = verdict
            self._verdict_counts[bucket] += 1

    def _bump(self, *keys: str) -> None:
        with self._stats_lock:
            for key in keys:
                self._stats[key] += 1

    def __repr__(self) -> str:
        return f"<Batch jobs={len(self._jobs)} world={self.world!r}>"
