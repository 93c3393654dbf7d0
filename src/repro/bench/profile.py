"""Per-cell kernel-op attribution: where a fig9 cell spends its ops.

``repro bench profile BENCH CONFIG`` runs one Figure 9 cell
(:data:`repro.bench.configs.WORKLOADS`) and reports exactly which
syscalls, vnode operations, and MAC hooks the timed region executed —
the numbers ``benchmarks/baseline_ops.json`` aggregates, broken out per
operation name so a perf regression (or win) is attributable to the
path that caused it.  Alongside the op attribution it measures the
**dispatch payload** the executors would ship for this cell's machine:
the snapshot before the run and the snapshot after it — the bytes a
store/remote worker boots from.

The profile is deterministic except for wall-clock; ``--json`` emits
the machine-readable form the CI smoke step checks.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.configs import FIG9_BENCHMARKS, WORKLOADS


def profile_cell(bench: str, config: str) -> dict[str, Any]:
    """Run one fig9 cell and attribute its kernel work.

    Returns a plain-data report: per-name ``syscalls`` / ``vnode_ops`` /
    ``mac_hooks`` deltas for the timed region, aggregate ``ops`` (the
    baseline_ops.json counters), ``dcache`` hit/miss counts, wall-clock
    ``seconds``, and ``payload`` sizes (``before`` and ``after`` the
    run) in bytes.
    """
    from repro.kernel.serialize import snapshot_kernel

    try:
        make = WORKLOADS[bench][config]
    except KeyError:
        known = ", ".join(
            f"{b}/{c}" for b in FIG9_BENCHMARKS for c in WORKLOADS.get(b, ()))
        raise KeyError(f"no fig9 cell {bench}/{config}; cells: {known}") from None
    task = make()
    kernel = getattr(task, "kernel", None)
    if kernel is None:
        raise RuntimeError(f"cell {bench}/{config} exposes no kernel to profile")

    pre_payload = snapshot_kernel(kernel)
    before_trace = kernel.stats.trace()
    before_ops = kernel.stats.snapshot()
    start = time.perf_counter()
    task()
    seconds = time.perf_counter() - start
    after_trace = kernel.stats.trace()
    after_ops = kernel.stats.snapshot()

    post_payload = snapshot_kernel(kernel)

    trace = type(kernel.stats).trace_delta(before_trace, after_trace)
    ops = type(kernel.stats).delta(before_ops, after_ops)
    return {
        "benchmark": bench,
        "config": config,
        "seconds": seconds,
        "ops": ops,
        "syscalls": dict(sorted(trace["syscalls"].items())),
        "vnode_ops": dict(sorted(trace["vnode_ops"].items())),
        "mac_hooks": dict(sorted(trace["mac_hooks"].items())),
        "dcache": {
            "hits": ops.get("dcache_hits", 0),
            "misses": ops.get("dcache_misses", 0),
        },
        "payload": {
            "before": len(pre_payload),
            "after": len(post_payload),
        },
    }


def render_profile(report: dict[str, Any]) -> str:
    """The human-readable table for one :func:`profile_cell` report."""
    lines = [
        f"== {report['benchmark']} / {report['config']} ==",
        f"wall-clock      {report['seconds'] * 1000:.2f} ms",
    ]
    for section in ("syscalls", "vnode_ops", "mac_hooks"):
        counts = report[section]
        total = sum(counts.values())
        lines.append(f"{section:15s} {total} total")
        width = max((len(name) for name in counts), default=0)
        for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:{width}s}  {count}")
    dcache = report["dcache"]
    lines.append(f"{'dcache':15s} hits={dcache['hits']} misses={dcache['misses']}")
    payload = report["payload"]
    lines.append(f"{'payload':15s} before={payload['before']} B  "
                 f"after={payload['after']} B")
    return "\n".join(lines)


def list_cells() -> list[str]:
    """Every profileable ``BENCH/CONFIG`` cell, in fig9 row order."""
    return [f"{bench}/{config}"
            for bench in FIG9_BENCHMARKS
            for config in WORKLOADS.get(bench, ())]
