"""Self-tests of the benchmark: seeded streams, the metric catalogue, and
short runs of every workload that emit every metric with its unit, meet
the traced run's design checks, exercise the layers each workload names,
and finish with zero failed requests; and a pin on the known defect that
set-up steers around.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import functools
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from shillbench.measure import Tally, closed_loop  # noqa: E402
from shillbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from shillbench.workloads import WORKLOADS  # noqa: E402


def _requests(name: str, seed: int, count: int = 60) -> list:
    bench = WORKLOADS[name]()
    return [list(itertools.islice(bench.stream(seed, client), count))
            for client in range(bench.clients)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_request_stream(name):
    assert _requests(name, 7) == _requests(name, 7)
    assert _requests(name, 7) != _requests(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_numbers_are_unique_except_repeats(name):
    numbers = [r.number for stream in _requests(name, 3) for r in stream
               if not r.repeat]
    assert len(numbers) == len(set(numbers))


def test_serve_repeats_resend_an_earlier_request_verbatim():
    [first, *_] = _requests("serve", 5, count=400)
    seen = {}
    repeats = 0
    for request in first:
        if request.repeat:
            repeats += 1
            assert seen[request.number].source == request.source
        else:
            seen[request.number] = request
    assert 0.15 < repeats / len(first) < 0.35


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@functools.lru_cache(maxsize=None)
def _short_run(name: str, trace: str) -> dict:
    """One short run of ``name``, shared by the tests below; a timed run
    still sets up the workload's own number of times."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "1.5", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_emits_every_metric(name, trace):
    result = _short_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == catalogue
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in values.values()), values
    else:
        assert values["design.check_met"] == 1
        assert {layer: values[layer] for layer in WORKLOADS[name].layers
                if values[layer] <= 0} == {}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_has_no_failed_requests(name, trace):
    result = _short_run(name, trace)
    assert result["failed"] == 0 and result["correct"] is True


#: Fresh executors to try; the race loses a request on about half of them.
RACE_ATTEMPTS = 40


@pytest.mark.xfail(strict=True, reason="known SnapshotStore._atomic_write "
                   "temp-file race on a fresh StoreExecutor")
def test_grade_clients_can_start_a_fresh_executor_together(tmp_path):
    """Grade's two clients make their first submits on a fresh executor
    together, which set-up avoids (``runner._set_up``) because the
    snapshot store's temp-file race loses one of them.  When the race is
    fixed this passes and the strict mark fails: then drop the lone
    first request in set-up, and this mark."""
    bench = WORKLOADS["grade"]()
    bench.expect(bench.world().boot())
    for attempt in range(RACE_ATTEMPTS):
        rig = bench.start(bench.world(), tmp_path / str(attempt))
        try:
            streams = [bench.stream(attempt, client) for client in range(bench.clients)]
            records, _ = closed_loop(
                streams, lambda client, request: bench.send(
                    rig.world, rig.executors[client], request),
                bench.check, Tally(), count=1)
        finally:
            rig.close()
        assert [r.error for r in records] == [None] * bench.clients


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, there is no
    program to measure: the run fails without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
