"""The process executor: kernel snapshots fanned out to worker processes.

The only strategy that uses more than one core: the bound template is
serialized once (:mod:`repro.kernel.serialize`), each worker process
restores a private machine in its pool initializer, and every job forks
that machine locally — restore-once, fork-per-job.  A worker returns the
job's :class:`~repro.api.RunResult` or raises
:class:`~repro.api.executors.base.BatchExecutionError`, which pickles
with its traceback text, so an engine failure crosses the process
boundary typed and attributed.

The pool is cached per template *token*: rebinding the same machine
state reuses warm workers, so an executor held across many batches pays
the snapshot + spawn cost once; one constructed per run pays it per run.
"""

from __future__ import annotations

import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor

from repro.api.executors.base import (
    BatchExecutionError,
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    run_job,
)
from repro.api.results import RunResult

# ---------------------------------------------------------------------------
# worker plumbing (module-level: worker processes must import it by name)
# ---------------------------------------------------------------------------

#: Per-worker-process state: the restored template, installed once by the
#: pool initializer.
_WORKER_STATE: dict = {}


def _process_worker_init(payload: bytes, scripts: tuple,
                         default_user: str) -> None:
    """Pool initializer: unpickle the shipped template once per worker."""
    from repro.kernel.serialize import restore_kernel

    _WORKER_STATE["template"] = JobTemplate(
        kernel=restore_kernel(payload), scripts=scripts,
        default_user=default_user, digest=None, token=("worker",))


def _store_worker_init(store_root: str, snapshot_digest: str,
                       scripts: tuple, default_user: str) -> None:
    """Pool initializer for store-backed workers: boot from the on-disk
    blob instead of a pickled payload in ``initargs`` — initargs carry a
    path and a digest, not a machine."""
    from repro.kernel.store import SnapshotStore

    _WORKER_STATE["template"] = JobTemplate(
        kernel=SnapshotStore(store_root).restore(snapshot_digest),
        scripts=scripts, default_user=default_user, digest=None,
        token=("worker",))


def _process_worker_run(job: ExecutorJob) -> RunResult:
    """Run one job in a worker.  Anything but a result leaves as a
    :class:`BatchExecutionError` naming the job, so the coordinator's
    handle re-raises it typed, original traceback text included."""
    try:
        return run_job(_WORKER_STATE["template"], job)
    except BatchExecutionError:
        raise
    except Exception as err:
        raise BatchExecutionError(job.name, job.user,
                                  _traceback.format_exc()) from err


class ProcessExecutor(Executor):
    """Jobs run in a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Workers restore the template from a one-time pickle and fork per
    job.

    Example::

        from repro.api import Batch, ProcessExecutor, World

        world = World().for_user("alice").with_jpeg_samples()
        with ProcessExecutor(workers=2) as ex:
            batch = Batch(world, cache=False)
            batch.add('#lang shill/ambient\\nappend(stdout, "a\\\\n");\\n')
            batch.add('#lang shill/ambient\\nappend(stdout, "b\\\\n");\\n')
            results = batch.run(executor=ex)
        assert [r.stdout for r in results] == ["a\\n", "b\\n"]
    """

    name = "process"

    def __init__(self, workers: "int | None" = None) -> None:
        super().__init__(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_token: tuple | None = None  # (template token, scripts)

    # -- template resources ------------------------------------------------

    def _worker_boot(self, template: JobTemplate) -> tuple:
        """(initializer, initargs) that boot one worker process."""
        from repro.kernel.serialize import snapshot_kernel

        payload = snapshot_kernel(template.kernel)
        return (_process_worker_init,
                (payload, template.scripts, template.default_user))

    def _ensure_pool(self, template: JobTemplate) -> ProcessPoolExecutor:
        # The pool identity is everything its initializer baked into the
        # workers: the machine state (token) *and* the script registry —
        # a rebind with different scripts must rebuild the workers, or
        # jobs would resolve `require` against a stale registry.
        pool_key = (template.token, template.scripts)
        if self._pool is not None and self._pool_token == pool_key:
            return self._pool
        self.close()
        initializer, initargs = self._worker_boot(template)
        self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                         initializer=initializer,
                                         initargs=initargs)
        self._pool_token = pool_key
        return self._pool

    # -- protocol ----------------------------------------------------------

    def _submit(self, template: JobTemplate, job: ExecutorJob) -> JobHandle:
        pool = self._ensure_pool(template)
        return JobHandle(job, pool.submit(_process_worker_run, job))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_token = None
