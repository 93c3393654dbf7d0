"""One benchmark run: set-up, the timed closed loop, and the traced run.

``run()`` returns the result object ``run.py`` prints.  A timed run
(``trace=False``) is ``Workload.setups`` segments: a set-up from a clean
state, then the workload's clients for an equal share of ``seconds``,
then teardown.  It reports the median set-up as ``setup_s``, the correct
requests per timed second of all segments as ``jobs_per_s`` and the mean
over blocks of 200 requests of each latency percentile.  A traced run
sets up once and splits ``seconds`` into two phases over the same
request streams:

1. the real path (the workload's own executor, untraced), which gives
   the client-side split — dispatch, serve overhead, result size, the
   Figure-10 profile, op counts — and the gateway's request log;
2. an in-process replay on the sequential executor that runs each chunk
   of requests without spans and then with spans on every layer's entry
   points, which gives the self times; ``trace.overhead_pct`` compares
   the two halves.

Layers that run in another process (store workers, gateway, agent) are
measured from the client side in phase 1; their in-job layers are
measured by the in-process replay.
"""

from __future__ import annotations

import itertools
import json
import math
import pickle
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.api import SequentialExecutor, clear_boot_cache

from shillbench.measure import (
    Record,
    Tally,
    closed_loop,
    dir_kb,
    peak_rss_mb,
    percentile,
    reap_strays,
)
from shillbench.metrics import END_TO_END, PER_LAYER, tagged
from shillbench.trace import ForkProbe, Patcher, SpanRecorder, install_layer_spans
from shillbench.workloads import WORKLOADS, Request, Rig, Workload

#: Share of a traced run's seconds given to the real path; the in-process
#: replay gets the rest.
PHASE1 = 0.4
#: Requests the replay runs without spans and then again with them.
CHUNK = 4
#: Completed requests per block; each block's p95 has ten samples beyond it.
BLOCK = 200
#: How far ``serve.cache_hit_ratio`` may sit from the generated repeat
#: share before the serve design check fails.
SERVE_HIT_TOLERANCE = 0.05
#: Latency reported for a failed request, which counts as infinitely slow
#: (JSON has no infinity).
FAILED_LATENCY_MS = 1e9


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    bench = WORKLOADS[workload]()
    reference = bench.world().boot()
    bench.expect(reference)
    del reference
    tally = Tally()
    if trace:
        metrics = _traced(bench, seed, seconds, tally, out)
        catalogue = PER_LAYER
    else:
        metrics = _timed(bench, seed, seconds, tally)
        catalogue = END_TO_END
    for line in tally.errors:
        print(f"perfbench: failed {line}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": tagged(metrics, catalogue),
    }


# -- set-up -------------------------------------------------------------------

def _set_up(bench: Workload, seed: int, tmp: Path, tally: Tally,
            ) -> tuple[Rig, list[Iterator[Request]]]:
    """Boot from a clean state, start the executors and warm them up.
    Returns the rig and the client streams, positioned after warm-up."""
    clear_boot_cache()
    world = bench.world()
    rig = bench.start(world, tmp)
    streams = [bench.stream(seed, client) for client in range(bench.clients)]
    send = _sender(bench, rig)
    try:
        # One request starts the executors' workers before the clients
        # start together.  A fresh StoreExecutor starts its pool without a
        # lock, and two first submits at once race on the snapshot store's
        # temp file (SnapshotStore._atomic_write, a known defect), which
        # loses a request in about half of all set-ups.  The benchmark must
        # run without failed requests, so set-up does not make those submits
        # together; test_perfbench.py pins the race, and this request goes
        # when the race is fixed.
        closed_loop(streams[:1], send, bench.check, tally, count=1)
        closed_loop(streams, send, bench.check, tally, count=bench.warmup)
    except BaseException:
        rig.close()
        raise
    return rig, streams


def _sender(bench: Workload, rig: Rig):
    return lambda client, request: bench.send(rig.world, rig.executors[client], request)


def _fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


# -- timed run ------------------------------------------------------------------

def _timed(bench: Workload, seed: int, seconds: float, tally: Tally,
           ) -> dict[str, float]:
    """``bench.setups`` segments, each a set-up from a clean state followed
    by an equal share of ``seconds`` of closed-loop traffic and a full
    teardown.  Spreading the set-ups over the run keeps one slow second
    of the machine from deciding ``setup_s``."""
    setups = bench.setups
    work = _fresh_dir(Path(tempfile.gettempdir()), "timed-")
    durations: list[float] = []
    rates: list[float] = []
    timed = 0.0
    records: list[Record] = []
    try:
        for segment in range(setups):
            rig = None
            try:
                started = time.perf_counter()
                rig, streams = _set_up(bench, seed,
                                       _fresh_dir(work, f"segment{segment}-"), tally)
                durations.append(time.perf_counter() - started)
                part, elapsed = closed_loop(
                    streams, _sender(bench, rig), bench.check, tally,
                    deadline=time.perf_counter() + seconds / setups)
                if segment == setups - 1:
                    rss = peak_rss_mb()
            finally:
                if rig is not None:
                    rig.close()
            rates.append(sum(r.error is None for r in part) / elapsed)
            timed += elapsed
            records.extend(part)
    finally:
        reap_strays()
        shutil.rmtree(work, ignore_errors=True)
    blocks = _latency_blocks(records)
    print(f"perfbench: {bench.name}: {len(records)} timed requests "
          f"({len(blocks)} blocks), {sum(r.error is not None for r in records)} "
          f"failed; set-ups {', '.join(f'{d:.3f}' for d in durations)} s; "
          f"jobs/s {', '.join(f'{r:.1f}' for r in rates)}", file=sys.stderr)
    return {
        "setup_s": statistics.median(durations),
        "jobs_per_s": sum(r.error is None for r in records) / timed,
        "latency_p50_ms": _finite(statistics.fmean(percentile(b, 50) for b in blocks)),
        "latency_p95_ms": _finite(statistics.fmean(percentile(b, 95) for b in blocks)),
        "peak_rss_mb": rss,
    }


def _latency_blocks(records: list[Record]) -> list[list[float]]:
    """Latencies in ms of each block of ``BLOCK`` consecutive completions
    (all of them as one block when there are fewer than two blocks); a
    failed request counts as infinitely slow.  The machine the benchmark
    was sized on flips between a fast and a slow speed every few seconds,
    so a median over blocks (or over the pooled run) jumps with whichever
    state held most of the run; the mean of the block percentiles weights
    each state by the time spent in it."""
    ms = [r.latency * 1000 if r.error is None else math.inf for r in records]
    if len(ms) < 2 * BLOCK:
        return [ms]
    return [ms[i:i + BLOCK] for i in range(0, len(ms) - BLOCK + 1, BLOCK)]


def _finite(ms: float) -> float:
    return ms if math.isfinite(ms) else FAILED_LATENCY_MS


# -- traced run -------------------------------------------------------------------

def _client_hooks(patcher: Patcher) -> threading.local:
    """Record each request's submit→result seconds at the executor, from
    two light wrappers on the client side (``Executor.submit`` and
    ``JobHandle.result``), as ``dispatch`` on the calling thread's local."""
    from repro.api.executors.base import Executor, JobHandle

    local = threading.local()

    def on_submit(fn):
        def submit(self, job):
            local.submitted = time.perf_counter()
            return fn(self, job)
        return submit

    def on_result(fn):
        def result(self, timeout=None):
            try:
                return fn(self, timeout)
            finally:
                local.dispatch = time.perf_counter() - local.submitted
        return result

    patcher.method(Executor, "submit", on_submit)
    patcher.method(JobHandle, "result", on_result)
    return local


def _traced(bench: Workload, seed: int, seconds: float, tally: Tally,
            out: Path) -> dict[str, float]:
    work = _fresh_dir(Path(tempfile.gettempdir()), "traced-")
    recorder = SpanRecorder()
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    rig = None
    try:
        with Patcher() as patcher:
            from repro.api.worlds import World

            patcher.method(World, "boot", lambda fn: recorder.wrap(fn, "world.boot"))
            rig, streams = _set_up(bench, seed, work, tally)
        _own, inclusive = recorder.totals()
        values["world.boot_ms"] = inclusive.get("world.boot", 0) / 1e6
        values["api.executors.prepare_ms"] = rig.prepare_s * 1000
        values["serve.join_s"] = rig.join_s
        values["kernel.store.snapshot_kb"] = dir_kb(*rig.stores)

        # Phase 1: the real path, with the client-side hooks only.
        dispatch: dict[int, float] = {}
        log_start = _log_lines(rig)
        with Patcher() as patcher:
            hooks = _client_hooks(patcher)

            def keep_dispatch(record: Record) -> None:
                dispatch[id(record)] = hooks.__dict__.pop("dispatch", math.nan)

            deadline = time.perf_counter() + seconds * PHASE1
            records, elapsed1 = closed_loop(
                streams, _sender(bench, rig), bench.check, tally,
                deadline=deadline, keep_results=True, on_done=keep_dispatch)
        _client_side(values, bench, records, dispatch)
        if rig.request_log is not None:
            _gateway_log(values, rig.request_log, log_start)

        # Phase 2: the same streams replayed in-process, with and without spans.
        forks = ForkProbe()
        first_span = len(recorder)
        untraced, traced, n3 = _replay(bench, rig, seed, seconds * (1 - PHASE1),
                                       tally, recorder, forks)
        own, inclusive = recorder.totals(first_span)
        _layer_split(values, own, inclusive, n3)
        values["kernel.dcache_hit_ratio"] = forks.ratio
        values["trace.overhead_pct"] = (1 - traced / untraced) * 100 if untraced else 0.0
        values["design.check_met"] = float(
            _design_check(bench, own, n3, values, records, elapsed1))
    finally:
        if rig is not None:
            rig.close()
        reap_strays()
        shutil.rmtree(work, ignore_errors=True)
    spans = out / f"spans-{bench.name}-seed{seed}.csv.gz"
    recorder.write(spans)
    print(f"perfbench: wrote {len(recorder)} spans to {spans}", file=sys.stderr)
    return values


def _replay(bench: Workload, rig: Rig, seed: int, seconds: float, tally: Tally,
            recorder: SpanRecorder, forks: ForkProbe) -> tuple[float, float, int]:
    """Replay the clients' streams from their start, interleaved, on the
    sequential executor in this process.  Each chunk of ``CHUNK`` requests
    runs twice, without spans and with them, so both modes see the same
    requests on the same machine speed; the mode that goes first
    alternates from chunk to chunk, so neither gains from the warm-up the
    other leaves behind.  Returns the correct requests per second without
    and with spans, and the traced count."""
    streams = [bench.stream(seed, client) for client in range(bench.clients)]
    merged = (next(streams[i % len(streams)]) for i in itertools.count())
    executor = SequentialExecutor()

    def send(_client: int, request: Request) -> Any:
        recorder.set_request(request.number)
        try:
            return bench.send(rig.world, executor, request)
        finally:
            forks.settle()

    totals = {False: [0, 0.0], True: [0, 0.0]}   # traced -> [correct, seconds]
    chunks = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunk = list(itertools.islice(merged, CHUNK))
        for traced in ((False, True) if chunks % 2 == 0 else (True, False)):
            with Patcher() as patcher:
                if traced:
                    install_layer_spans(patcher, recorder, forks)
                records, elapsed = closed_loop([iter(chunk)], send, bench.check,
                                               tally, count=CHUNK)
            totals[traced][0] += sum(r.error is None for r in records)
            totals[traced][1] += elapsed
        chunks += 1
    (plain, plain_s), (spanned, spanned_s) = totals[False], totals[True]
    return plain / plain_s, spanned / spanned_s, chunks * CHUNK


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _client_side(values: dict[str, float], bench: Workload, records: list[Record],
                 dispatch: dict[int, float]) -> None:
    """Per-request means of what the client sees of the other layers."""
    ok = [r for r in records if r.error is None]
    # A gateway cache hit carries the profile of the run that filled the
    # cache, so run-time splits use first sends only.
    fresh = [r for r in ok if not r.request.repeat]

    def run_ms(record: Record) -> float:
        profile = record.result.profile
        return (profile["startup"] + profile["total"]) * 1000

    values["api.executors.dispatch_ms"] = _mean(
        [dispatch[id(r)] * 1000 - run_ms(r) for r in fresh
         if not math.isnan(dispatch[id(r)])])
    values["lang.startup_ms"] = _mean([r.result.profile["startup"] * 1000 for r in fresh])
    values["sandbox.setup_ms"] = _mean(
        [r.result.profile["sandbox_setup"] * 1000 for r in fresh])
    values["sandbox.exec_ms"] = _mean(
        [r.result.profile["sandbox_exec"] * 1000 for r in fresh])
    for key in ("vnode_ops", "total_syscalls", "mac_checks", "execs",
                "sandboxes_created"):
        values[f"kernel.{key}"] = _mean([r.result.ops[key] for r in ok])
    if bench.name == "serve":
        values["serve.overhead_ms"] = _mean([r.latency * 1000 - run_ms(r) for r in fresh])
        values["remote.result_kb"] = _mean([len(pickle.dumps(r.result)) / 1024 for r in ok])


def _log_lines(rig: Rig) -> int:
    if rig.request_log is None or not rig.request_log.exists():
        return 0
    return len(rig.request_log.read_text().splitlines())


def _gateway_log(values: dict[str, float], log: Path, first: int) -> None:
    """Cache hits per SUBMIT and BUSY replies, from the gateway's request
    log lines written since line ``first``."""
    events = [json.loads(line)["event"] for line in log.read_text().splitlines()[first:]]
    hits, busy = events.count("cache_hit"), events.count("busy")
    submits = hits + busy + events.count("result") + events.count("exhausted")
    values["serve.cache_hit_ratio"] = hits / submits if submits else 0.0
    values["serve.busy_count"] = busy


#: Self-time labels (see trace.install_layer_spans) behind each metric.
SELF_METRICS = {
    "api.batch.self_ms": ("api.batch",),
    "lang.parse_ms": ("lang.parse",),
    "lang.self_ms": ("lang", "lang.apply"),
    "contracts.self_ms": ("contracts",),
    "capability.self_ms": ("capability",),
    "sandbox.mac_self_ms": ("sandbox.mac",),
    "kernel.syscalls.self_ms": ("kernel.syscalls",),
    "kernel.vfs.self_ms": ("kernel.vfs",),
    "programs.self_ms": ("programs",),
}


def _layer_split(values: dict[str, float], own: dict[str, int],
                 inclusive: dict[str, int], requests: int) -> None:
    per_request = 1e6 * max(requests, 1)
    for metric, labels in SELF_METRICS.items():
        values[metric] = sum(own.get(label, 0) for label in labels) / per_request
    values["kernel.fork_ms"] = inclusive.get("kernel.fork", 0) / per_request


def _design_check(bench: Workload, own: dict[str, int], requests: int,
                  values: dict[str, float], phase1: list[Record],
                  phase1_seconds: float) -> bool:
    """Print each label's share of traced request time, and whether the
    check the workload's design predicts (README.md) holds."""
    total = sum(own.values()) or 1
    share = {label: ns / total for label, ns in own.items()}
    print(f"perfbench: {bench.name} traced: {requests} replayed requests; "
          f"phase 1 {len(phase1)} requests in {phase1_seconds:.1f} s",
          file=sys.stderr)
    for label, part in sorted(share.items(), key=lambda kv: -kv[1]):
        print(f"perfbench:   {label:18s} {100 * part:5.1f}%  "
              f"{own[label] / 1e6 / max(requests, 1):8.3f} ms/request", file=sys.stderr)
    layer: dict[str, float] = {}
    for label, part in share.items():
        name = label.split(".")[0]
        layer[name] = layer.get(name, 0.0) + part
    lang = layer.get("lang", 0.0)
    if bench.name == "walk":
        largest = max((part for name, part in layer.items() if name != "lang"),
                      default=0.0)
        ok = lang > largest
        detail = f"lang {100 * lang:.1f}% > largest other layer {100 * largest:.1f}%"
    elif bench.name == "grade":
        system = sum(layer.get(name, 0.0) for name in ("sandbox", "kernel", "programs"))
        others = [part for name, part in layer.items()
                  if name not in ("sandbox", "kernel", "programs")]
        ok = lang < 0.1 and system > max(others, default=0.0)
        detail = (f"lang {100 * lang:.1f}% < 10%, sandbox+kernel+programs "
                  f"{100 * system:.1f}% > any other layer")
    else:
        repeats = sum(r.request.repeat for r in phase1) / max(len(phase1), 1)
        hits = values["serve.cache_hit_ratio"]
        ok = abs(hits - repeats) <= SERVE_HIT_TOLERANCE
        detail = (f"cache hit ratio {hits:.3f} within {SERVE_HIT_TOLERANCE} of "
                  f"the repeat share {repeats:.3f} of the same requests")
    print(f"perfbench: check {bench.name}: {detail}: {'met' if ok else 'NOT MET'}",
          file=sys.stderr)
    return ok
