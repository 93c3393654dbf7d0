"""The metric catalogue: every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names and units;
``perfbench/test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

#: Metrics a caller of SHILL sees, measured with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Metrics of single layers, measured by the traced run.  Per request
#: unless the name says otherwise (set-up metrics, ratios, counts per run).
PER_LAYER: dict[str, str] = {
    "api.batch.self_ms": "ms",
    "api.executors.dispatch_ms": "ms",
    "api.executors.prepare_ms": "ms",
    "world.boot_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.self_ms": "ms",
    "lang.startup_ms": "ms",
    "contracts.self_ms": "ms",
    "capability.self_ms": "ms",
    "sandbox.setup_ms": "ms",
    "sandbox.exec_ms": "ms",
    "sandbox.mac_self_ms": "ms",
    "kernel.fork_ms": "ms",
    "kernel.syscalls.self_ms": "ms",
    "kernel.vfs.self_ms": "ms",
    "kernel.dcache_hit_ratio": "ratio",
    "kernel.vnode_ops": "count",
    "kernel.total_syscalls": "count",
    "kernel.mac_checks": "count",
    "kernel.execs": "count",
    "kernel.sandboxes_created": "count",
    "kernel.store.snapshot_kb": "KB",
    "programs.self_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.busy_count": "count",
    "serve.join_s": "s",
    "remote.result_kb": "KB",
    "trace.overhead_pct": "%",
    "design.check_met": "count",
}


def tagged(values: dict[str, float], catalogue: dict[str, str]) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every catalogue entry;
    raises ``KeyError`` if a catalogued metric was not measured."""
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in catalogue.items()}
