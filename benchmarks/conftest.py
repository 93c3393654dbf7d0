"""Shared benchmark plumbing.

``REPRO_BENCH_RUNS`` (default 3) controls the per-configuration sample
count of the comparison harness; the paper used 50.

Besides the human-readable tables printed at session end, the Figure 9
cells are written to a JSON file (``REPRO_BENCH_JSON``, default
``BENCH_fig9.json`` in the working directory) — a machine-readable
trajectory of means, confidence intervals, and deterministic kernel op
counts that the CI benchmark job uploads as an artifact.
"""

from __future__ import annotations

import gc
import json
import os

import pytest

RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "3"))

_rows: list[str] = []
_cells: dict[str, dict[str, dict]] = {}


def record_row(row: str) -> None:
    _rows.append(row)


def record_cell(bench: str, config: str, sample) -> None:
    """Store one (benchmark, configuration) cell for the JSON artifact."""
    _cells.setdefault(bench, {})[config] = {
        "mean_s": sample.mean,
        "ci95_s": sample.ci95,
        "runs": len(sample.seconds),
        "ops": sample.op_counts,
    }


def _markdown_summary() -> str:
    """A small markdown table of the measured cells, for CI's
    ``$GITHUB_STEP_SUMMARY`` panel."""
    configs: list[str] = []
    for cells in _cells.values():
        for config in cells:
            if config not in configs:
                configs.append(config)
    lines = ["### Benchmark cells (mean ms, deterministic op counts in CI artifact)", ""]
    lines.append("| benchmark | " + " | ".join(configs) + " |")
    lines.append("|---" * (len(configs) + 1) + "|")
    for bench, cells in _cells.items():
        row = [bench]
        for config in configs:
            cell = cells.get(config)
            row.append("—" if cell is None else f"{cell['mean_s'] * 1000:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(f"_{RUNS} run(s) per cell; op-count gate: "
                 "`benchmarks/check_baseline_ops.py`_")
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def collected_heap():
    """Start every benchmark from a collected heap.  A full collection
    of this suite's heap takes tens of milliseconds, and a wall-clock
    figure must not pay for garbage an earlier test left behind: where
    such a collection lands otherwise depends on every allocation since
    the process started, so it could fall inside any timed window."""
    gc.collect()


@pytest.fixture(scope="session", autouse=True)
def print_tables_at_end():
    yield
    if _rows:
        print("\n" + "=" * 100)
        print("Reproduced evaluation tables (see EXPERIMENTS.md for the paper-vs-measured record)")
        print("=" * 100)
        for row in _rows:
            print(row)
    if _cells:
        from repro.bench import FIG9_BENCHMARKS

        path = os.environ.get("REPRO_BENCH_JSON", "BENCH_fig9.json")
        payload = {
            "runs_per_cell": RUNS,
            # Aborted / filtered runs write whatever completed; the
            # expected row list + flag make truncation detectable.
            "expected_benchmarks": list(FIG9_BENCHMARKS),
            "complete": set(_cells) >= set(FIG9_BENCHMARKS),
            "benchmarks": _cells,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nFigure 9 cells written to {path}")
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a") as fh:
                fh.write(_markdown_summary())
