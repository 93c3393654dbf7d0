"""In-process executors: the caller's thread, or a thread pool.

Both run :func:`repro.api.executors.base.run_job` against per-job forks
of the bound template kernel — exactly what the worker processes of the
process/store executors do, just without the serialization round-trip.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro.api.executors.base import (
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    run_job,
)


class SequentialExecutor(Executor):
    """Jobs run on the caller's thread, at :meth:`submit` time.

    The reference strategy: submission order *is* completion order, and
    every other executor's fingerprints are gated against it.  Eager
    execution keeps ``submit → as_completed`` fully deterministic —
    a handle is already resolved when it is returned.

    Example::

        from repro.api import Batch, SequentialExecutor, World

        world = World().for_user("alice").with_jpeg_samples()
        with SequentialExecutor() as ex:
            [result] = Batch(world, cache=False).add(
                '#lang shill/ambient\\nappend(stdout, "hi\\\\n");\\n'
            ).run(executor=ex)
        assert result.stdout == "hi\\n"
    """

    name = "sequential"

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(run_job(template, job))
        except BaseException as err:  # surfaced by JobHandle.result()
            future.set_exception(err)
        return JobHandle(job, future)


class ThreadExecutor(Executor):
    """Jobs run on a thread pool over forks of the shared template.

    Concurrency without process-spawn cost; the GIL serialises the
    interpreter work, so this buys overlap, not cores.  The pool is
    created lazily on first submit and survives rebinds (threads hold no
    per-template state — every job forks the currently bound kernel).

    Example (scheduling cannot change the bytes)::

        from repro.api import Batch, ThreadExecutor, World

        src = '#lang shill/ambient\\nappend(stdout, "hi\\\\n");\\n'
        world = World().for_user("alice").with_jpeg_samples()
        with ThreadExecutor(workers=2) as ex:
            batch = Batch(world, cache=False)
            for i in range(4):
                batch.add(src, name=f"job{i}")
            results = batch.run(executor=ex)
        assert len({r.fingerprint() for r in results}) == 1
    """

    name = "thread"

    def __init__(self, workers: "int | None" = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        # Owners may submit from several threads; the lazy pool must not
        # be created twice, or the loser's threads leak past close().
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
            pool = self._pool
        return JobHandle(job, pool.submit(run_job, template, job))

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
