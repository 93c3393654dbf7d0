"""Batch executors, measured: sequential vs thread vs process vs store
vs remote vs serve.

The thread executor serialises interpreter work on the GIL, so it buys
concurrency but not cores; the process and store executors boot their
workers from a kernel snapshot in a snapshot store, which the process
executor keeps in a temporary directory of its own and the store
executor keeps on disk across runs; the remote executor shards jobs
across *agent host* subprocesses over the wire protocol, each agent
booting from its own store; the serve executor reaches the same agents
through a long-lived *gateway* subprocess the agents announce
themselves to.  This file pins the claims the same way Figure 9 pins
its rows:

* **op-gated equivalence** — every executor executes the identical
  deterministic kernel work (summed per-job op counts equal) and
  returns byte-identical results (``RunResult.fingerprint()``), for the
  measured Find workload *and* for all four case-study worlds;
* **reported wall-clock** — per-executor means land in the printed table
  and in ``BENCH_fig9.json`` as the ``Batch-Find`` row (``remote`` and
  ``serve`` are the new columns next to sequential / thread /
  process-parallel / store); the serve cell's gateway runs with its
  result cache off, so the cell measures execution on agents, not
  cache replays of the ten identical jobs;
* **the process-over-thread speedup** — recorded as a row
  (best-of-rounds), never asserted: wall-clock on shared runners is
  reported, and the deterministic gate is the op counts;
* **the warm-agent criterion** — an agent restarted over its own store
  boots a linked world with **zero** world-build kernel ops and no blob
  transfer (the ``Remote-Boot`` row, op-gated like ``Store-Boot``).
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import RUNS, record_cell, record_row
from repro.api import (
    Batch,
    ProcessExecutor,
    RemoteExecutor,
    ScriptRegistry,
    SequentialExecutor,
    ServeExecutor,
    SnapshotStore,
    StoreExecutor,
    ThreadExecutor,
    clear_boot_cache,
    clear_result_cache,
)
from repro.bench.harness import Sample
from repro.casestudies.findgrep import usr_src_world
from repro.casestudies.probes import case_study_batches
from repro.remote.agent import spawn_local_agent
from repro.serve import spawn_local_gateway

WORKERS = 2
JOBS = 10
REPEATS = 3
AGENTS = 2

WALK_CAP = """\
#lang shill/cap
provide walk :
  {cur : dir(+contents, +lookup, +path) \\/ file(+path, +read),
   out : file(+append)} -> void;
walk = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "c") then
    append(out, path(cur) + "\\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then walk(child, out);
    }
}
"""

#: Each job walks the full /usr/src fixture six times — enough
#: interpreter + MAC work (~100ms) that parallelism, not pool overhead,
#: dominates the comparison.
WALK_AMBIENT = "#lang shill/ambient\n" + 'require "walk.cap";\n' + \
    'src = open_dir("/usr/src");\n' + "walk(src, stdout);\n" * 6

#: fig9-style cell names; "remote" and "serve" are the new columns.
BACKEND_CELLS = {
    "sequential": "sequential",
    "thread": "thread",
    "process": "process-parallel",
    "store": "store",
    "remote": "remote",
    "serve": "serve",
}


def _store_root(tmp_path_factory) -> str:
    """The persistent store the store-executor cells boot from:
    ``$REPRO_STORE`` when set (CI caches that directory), a session tmp
    dir otherwise."""
    return os.environ.get("REPRO_STORE") or str(
        tmp_path_factory.mktemp("snapshot-store"))


def _make_executor(backend: str, store_root: str, hosts=(), gateway=None):
    return {
        "sequential": lambda: SequentialExecutor(),
        "thread": lambda: ThreadExecutor(workers=WORKERS),
        "process": lambda: ProcessExecutor(workers=WORKERS),
        "store": lambda: StoreExecutor(store=SnapshotStore(store_root),
                                       workers=WORKERS),
        "remote": lambda: RemoteExecutor(list(hosts),
                                         store=SnapshotStore(store_root)),
        "serve": lambda: ServeExecutor(gateway,
                                       store=SnapshotStore(store_root),
                                       concurrency=WORKERS),
    }[backend]()


@pytest.fixture(scope="module")
def remote_hosts(tmp_path_factory):
    """Two real agent subprocesses — the smallest cluster — shared by
    every remote cell in this module (their stores warm up across
    batches exactly as a long-lived cluster's would)."""
    root = tmp_path_factory.mktemp("agents")
    agents = [spawn_local_agent(root / f"agent{i}") for i in range(AGENTS)]
    yield [addr for _proc, addr in agents]
    for proc, _addr in agents:
        proc.kill()
    for proc, _addr in agents:
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def serve_gateway(tmp_path_factory):
    """One real gateway subprocess fronting two announced agents — the
    smallest served fleet — shared by every serve cell in this module.
    Its result cache is off: every serve job runs on an agent, through
    the gateway's failover loop, instead of replaying an earlier job's
    RESULT (op counts and fingerprints are the same either way)."""
    root = tmp_path_factory.mktemp("serve")
    gw_proc, gw = spawn_local_gateway(root / "gateway", result_cache=0)
    agents = [spawn_local_agent(root / f"agent{i}", announce=gw)
              for i in range(AGENTS)]
    procs = [gw_proc] + [proc for proc, _addr in agents]
    yield gw
    for proc in procs:
        proc.kill()
    for proc in procs:
        proc.wait(timeout=10)


def _build_batch() -> Batch:
    batch = Batch(usr_src_world(True),
                  scripts=ScriptRegistry().add("walk.cap", WALK_CAP),
                  cache=False)
    for i in range(JOBS):
        batch.add(WALK_AMBIENT, name=f"walk{i}")
    return batch


def _sum_ops(results) -> dict[str, int]:
    totals: dict[str, int] = {}
    for result in results:
        for key, value in result.ops.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _measure_backend(backend: str, store_root: str, hosts=(), gateway=None,
                     repeats: int = REPEATS):
    """Time ``repeats`` batch runs; returns (Sample, fingerprint list)."""
    sample = Sample(BACKEND_CELLS[backend])
    fingerprints: list[bytes] = []
    for _ in range(repeats):
        clear_result_cache()
        batch = _build_batch()
        with _make_executor(backend, store_root, hosts, gateway) as executor:
            start = time.perf_counter()
            results = batch.run(executor=executor)
            sample.seconds.append(time.perf_counter() - start)
        sample.ops.append(_sum_ops(results))
        fingerprints = [r.fingerprint() for r in results]
    return sample, fingerprints


@pytest.fixture(scope="module")
def backend_samples(tmp_path_factory, remote_hosts, serve_gateway):
    """One measured (Sample, fingerprints) pair per executor, shared by
    the equivalence and speedup tests so the workload runs once."""
    store_root = _store_root(tmp_path_factory)
    measured = {b: _measure_backend(b, store_root, remote_hosts,
                                    serve_gateway)
                for b in BACKEND_CELLS}
    cells = {}
    for backend, (sample, _prints) in measured.items():
        cells[BACKEND_CELLS[backend]] = sample
        record_cell("Batch-Find", BACKEND_CELLS[backend], sample)
    base = cells["sequential"]
    row = [f"{'Batch-Find':12s}"]
    for name, sample in cells.items():
        row.append(f"{name}={sample.mean * 1000:8.2f}ms"
                   f" ({sample.ratio_to(base):4.2f}x)")
    record_row("  ".join(row) +
               f"  [{JOBS} jobs x {WORKERS} workers, {os.cpu_count()} cores]")
    return measured


def test_backends_are_op_identical(backend_samples):
    """The deterministic gate: every backend did exactly the same kernel
    work and produced byte-identical results — the wall-clock columns
    compare like with like."""
    base_sample, base_prints = backend_samples["sequential"]
    assert base_prints, "sequential run produced no results"
    for backend, (sample, prints) in backend_samples.items():
        assert prints == base_prints, f"{backend}: fingerprints diverged"
        assert sample.op_counts == base_sample.op_counts, (
            f"{backend}: op counts diverged"
        )
        assert sample.op_counts["sandboxes_created"] == 0
        assert sample.op_counts["vnode_ops"] > 0


def test_process_beats_thread_on_multicore(backend_samples):
    """The process-over-thread speedup, recorded as a row
    (best-of-rounds; a single GC pause inside one timed round can dwarf
    the pool overhead).  Wall-clock is reported, never asserted: on a
    shared 2-core runner it has measured below 1x."""
    thread_best = min(backend_samples["thread"][0].seconds)
    process_best = min(backend_samples["process"][0].seconds)
    ratio = thread_best / process_best
    cores = os.cpu_count() or 1
    record_row(
        f"Batch process-parallel speedup: thread {thread_best * 1000:8.2f}ms, "
        f"process {process_best * 1000:8.2f}ms ({ratio:.2f}x on {cores} cores)"
    )


def test_snapshot_cost_is_amortised(benchmark, backend_samples):
    """The one-time template pickle is the process backend's fixed cost;
    it must stay below one job's work (so fan-out wins immediately) —
    gated against the measured sequential per-job cost, not wall-clock
    alone, so a snapshot-cost blow-up fails loudly."""
    from repro.kernel.serialize import snapshot_kernel

    world = usr_src_world(True).boot()
    payloads: list[bytes] = []
    benchmark.pedantic(lambda: payloads.append(snapshot_kernel(world.kernel)),
                       rounds=max(RUNS, 2), iterations=1)
    snapshot_best = benchmark.stats.stats.min
    per_job = min(backend_samples["sequential"][0].seconds) / JOBS
    record_row(f"Kernel snapshot (usr_src world): {len(payloads[-1]) / 1024:.0f} KiB, "
               f"{snapshot_best * 1000:.2f}ms vs {per_job * 1000:.2f}ms/job")
    assert snapshot_best < per_job, (
        f"one-time snapshot ({snapshot_best * 1000:.2f}ms) should undercut a "
        f"single job ({per_job * 1000:.2f}ms) or fan-out never breaks even"
    )


#: The four case-study worlds, as their modules' probe batches — the
#: same table the unit suite uses (one source, no drift).
CASE_STUDY_BATCHES = case_study_batches()


@pytest.mark.parametrize("name", sorted(CASE_STUDY_BATCHES))
def test_every_executor_agrees_on_case_study_worlds(name, tmp_path_factory,
                                                    remote_hosts,
                                                    serve_gateway):
    """The acceptance criterion: all executors — sequential, thread,
    process, store, remote (2 local agent hosts), serve (a gateway over
    2 announced agents) — produce byte-identical fingerprint lists for
    each of the paper's four case-study worlds."""
    build = CASE_STUDY_BATCHES[name]
    store_root = _store_root(tmp_path_factory)

    def run(backend):
        clear_result_cache()
        with _make_executor(backend, store_root, remote_hosts,
                            serve_gateway) as executor:
            return build().run(executor=executor)

    baseline = run("sequential")
    assert all(r.ok for r in baseline), baseline[0].stderr
    for backend in ("thread", "process", "store", "remote", "serve"):
        assert [r.fingerprint() for r in run(backend)] == \
            [r.fingerprint() for r in baseline], f"{name}/{backend}"


# ---------------------------------------------------------------------------
# the Remote-Boot row: warm agent stores boot with zero build ops
# ---------------------------------------------------------------------------

#: The Store-Boot world at the same scaled-down size, so the
#: coordinator-build cell is comparable with Store-Boot/cold-build.
REMOTE_BOOT_KWARGS = dict(subsystems=2, files_per_dir=4)

REMOTE_BOOT_PROBE = ('#lang shill/ambient\n'
                     'src = open_dir("/usr/src/sys00/dir0");\n'
                     'append(stdout, path(src) + "\\n");\n')


def _remote_boot_round(agent_store, coord_store):
    """Spawn an agent over ``agent_store``, run one probe job, and
    return (seconds, coordinator BootInfo, agent BootInfo, results)."""
    clear_boot_cache()
    clear_result_cache()
    proc, addr = spawn_local_agent(agent_store)
    try:
        batch = Batch(usr_src_world(True, **REMOTE_BOOT_KWARGS), cache=False)
        batch.add(REMOTE_BOOT_PROBE, name="probe")
        with RemoteExecutor([addr], store=SnapshotStore(coord_store)) as executor:
            start = time.perf_counter()
            results = batch.run(executor=executor)
            seconds = time.perf_counter() - start
            return seconds, executor.boot_info, executor.host_boots[addr], results
    finally:
        proc.kill()
        proc.wait(timeout=10)


def test_warm_agent_store_boots_with_zero_build_ops(tmp_path_factory):
    """The acceptance criterion, op-gated: restart an agent over its own
    store and the next PREPARE restores the linked world from the
    agent's disk — ``source == "store"``, zero world-build kernel ops,
    no blob transfer — with fingerprints unchanged."""
    agent_store = tmp_path_factory.mktemp("remote-agent-store")
    # Fresh coordinator stores per round: the *agent's* warmth is under
    # test, so the coordinator must rebuild (round 1) and re-link
    # (round 2) rather than serve either side from a shared cache.
    cold_s, cold_coord, cold_agent, cold_results = _remote_boot_round(
        agent_store, tmp_path_factory.mktemp("coord-cold"))
    warm_s, _warm_coord, warm_agent, warm_results = _remote_boot_round(
        agent_store, tmp_path_factory.mktemp("coord-warm"))

    cold = Sample("coordinator-build")
    cold.seconds.append(cold_s)
    cold.ops.append(dict(cold_coord.build_ops))
    warm = Sample("agent-store-hit")
    warm.seconds.append(warm_s)
    warm.ops.append(dict(warm_agent.build_ops))
    record_cell("Remote-Boot", "coordinator-build", cold)
    record_cell("Remote-Boot", "agent-store-hit", warm)
    record_row(
        f"{'Remote-Boot':12s}coordinator-build={cold_s * 1000:8.2f}ms "
        f"({cold_coord.build_ops_total} build ops, agent via "
        f"{cold_agent.source})  "
        f"agent-store-hit={warm_s * 1000:8.2f}ms "
        f"({warm_agent.build_ops_total} agent build ops)"
    )

    # Cold round: the coordinator built the template and the agent
    # received the blob over the wire.
    assert cold_coord.source == "build" and cold_coord.build_ops_total > 0
    assert cold_agent.source == "wire"
    # Warm round: the restarted agent restored from its own store.
    assert warm_agent.source == "store"
    nonzero = {k: v for k, v in warm_agent.build_ops.items() if v}
    assert nonzero == {}, (
        f"warm agent boot performed kernel work it must not: {nonzero}")
    assert [r.fingerprint() for r in warm_results] == \
        [r.fingerprint() for r in cold_results]
