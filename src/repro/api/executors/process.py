"""The process executor: kernel snapshots fanned out to worker processes.

The only strategy that uses more than one core: the bound template is
serialized once (:mod:`repro.kernel.serialize`), each worker process
restores a private machine in its pool initializer, and every job forks
that machine locally — restore-once, fork-per-job.  Results (and typed
failures) travel home as data, because exceptions do not carry
tracebacks across process boundaries faithfully.

The pool is cached per template *token*: rebinding the same machine
state reuses warm workers, so an executor held across many batches pays
the snapshot + spawn cost once; one constructed per run pays it per run.
"""

from __future__ import annotations

import pickle
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.api.executors.base import (
    BatchExecutionError,
    Executor,
    ExecutorJob,
    JobHandle,
    JobTemplate,
    portable_fixtures,
    run_job,
)
from repro.api.results import RunResult

# ---------------------------------------------------------------------------
# worker plumbing (module-level: worker processes must import it by name)
# ---------------------------------------------------------------------------

#: Per-worker-process state: the restored template, installed once by the
#: pool initializer.
_WORKER_STATE: dict = {}


def _install_worker_template(kernel, scripts_items: tuple,
                             default_user: str, fixtures: dict,
                             install_shill: bool) -> None:
    _WORKER_STATE["template"] = JobTemplate(
        kernel=kernel,
        scripts=tuple(scripts_items),
        default_user=default_user,
        fixtures=fixtures,
        install_shill=install_shill,
        digest=None,
        token=("worker",),
    )


def _process_worker_init(payload: bytes, scripts_items: tuple,
                         default_user: str, fixtures: dict,
                         install_shill: bool) -> None:
    """Pool initializer: unpickle the shipped template once per worker."""
    from repro.kernel.serialize import restore_kernel

    _install_worker_template(restore_kernel(payload), scripts_items,
                             default_user, fixtures, install_shill)


def _store_worker_init(store_root: str, snapshot_digest: str,
                       scripts_items: tuple, default_user: str,
                       fixtures: dict, install_shill: bool) -> None:
    """Pool initializer for store-backed workers: boot from the on-disk
    blob instead of a pickled payload in ``initargs`` — initargs carry a
    path and a digest, not a machine.  ``restore`` resolves delta blobs
    against their base chain in the same store."""
    from repro.kernel.store import SnapshotStore

    kernel = SnapshotStore(store_root).restore(snapshot_digest)
    _install_worker_template(kernel, scripts_items, default_user,
                             fixtures, install_shill)


def _process_worker_run(packed: tuple) -> tuple:
    """Run one job in a worker; never raises (failures travel home as
    ("error", ...) tuples and the coordinator re-raises the typed
    error)."""
    index, name, user, source, fn = packed
    job = ExecutorJob(index=index, name=name, source=source, user=user, fn=fn)
    try:
        result = run_job(_WORKER_STATE["template"], job)
        # The executor pickles our return value *after* this frame
        # exits, where a failure surfaces as an opaque pool error —
        # probe whatever can carry arbitrary objects now, so an
        # unpicklable value fails with the job named.  Script jobs
        # produce value=None, so the common path pays nothing.
        probe = result.value if isinstance(result, RunResult) else result
        if probe is not None:
            try:
                pickle.dumps(probe)
            except Exception:
                return ("error", index, name, user, _traceback.format_exc())
        return ("ok", index, result)
    except BatchExecutionError as err:
        return ("error", index, err.job_name, err.user, err.traceback_text)
    except Exception:
        return ("error", index, name, user, _traceback.format_exc())


def _decode_outcome(job: ExecutorJob, outcome: tuple) -> Any:
    """Translate a worker's outcome tuple; errors re-raise typed."""
    if outcome[0] == "error":
        _tag, _index, name, user, tb_text = outcome
        raise BatchExecutionError(name, user, tb_text)
    return outcome[2]


class ProcessExecutor(Executor):
    """Jobs run in a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Workers restore the template from a one-time pickle and fork per
    job.  Mapped callables (``fn`` jobs) and their return values must be
    picklable, i.e. module-level.

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
                (payload, template.scripts, template.default_user,
                 portable_fixtures(template.fixtures),
                 template.install_shill))

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
        packed = (job.index, job.name, job.user, job.source, job.fn)
        return JobHandle(job, pool.submit(_process_worker_run, packed),
                         decode=_decode_outcome)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_token = None
