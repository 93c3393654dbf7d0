"""The world fork / boot-image-cache engine, measured.

The Figure 9 harness reconstructs workload state for every timed run so
configurations always see identical worlds.  Before the fork engine that
meant a full ``build_world`` (~200 vnodes plus fixtures) per run; now it
is a copy-on-write fork of a cached template.  These benchmarks pin the
acceptance criterion: world preparation through the cache is at least 2x
faster end-to-end than per-run boots, across the Figure 9 workloads.
"""

from __future__ import annotations

import time

import pytest

from conftest import record_row
from repro.api import World, clear_boot_cache
from repro.casestudies.apache import web_world
from repro.casestudies.findgrep import usr_src_world
from repro.casestudies.grading import grading_world
from repro.casestudies.package_mgmt import emacs_world
from repro.bench.configs import SCALE

REPEATS = 5


def _fig9_worlds() -> list[World]:
    """One unbooted world per Figure 9 workload family, at bench scale."""
    return [
        grading_world(True, students=SCALE.grading_students,
                      tests=SCALE.grading_tests,
                      malicious_reader=False, malicious_writer=False),
        usr_src_world(True, subsystems=SCALE.src_subsystems,
                      files_per_dir=SCALE.src_files_per_dir),
        web_world(True, file_kb=SCALE.apache_file_kb, small_files=2),
        emacs_world(True),
    ]


def _prep_rounds(cold: bool) -> list[float]:
    """Per-round seconds to boot every Figure 9 world, REPEATS rounds;
    ``cold`` clears the boot-image cache before every round (the old
    per-run-boot regime), warm leaves it populated (the fork regime)."""
    clear_boot_cache()
    if not cold:
        for world in _fig9_worlds():  # populate templates (untimed)
            world.boot()
    rounds = []
    for _ in range(REPEATS):
        if cold:
            clear_boot_cache()
        start = time.perf_counter()
        for world in _fig9_worlds():
            world.boot()
        rounds.append(time.perf_counter() - start)
    return rounds


def test_fork_prepares_worlds_2x_faster_than_boot() -> None:
    boot_rounds = _prep_rounds(cold=True)
    fork_rounds = _prep_rounds(cold=False)
    # Compare minima: a single GC pause landing inside one timed round
    # (routine when the whole benchmark suite runs in one process) can
    # dwarf a sub-millisecond fork; the best observed round is the
    # honest cost of each path.
    ratio = min(boot_rounds) / min(fork_rounds)
    record_row(
        f"World prep (4 worlds/round): per-run boot {min(boot_rounds) * 1000:8.2f}ms, "
        f"cached fork {min(fork_rounds) * 1000:8.2f}ms ({ratio:.1f}x)"
    )
    assert ratio >= 2.0, (
        f"forking cached boot images should be >=2x faster than per-run "
        f"boots, measured {ratio:.2f}x"
    )


def test_fork_isolation_survives_the_speedup() -> None:
    """The cheap path must still be a *correct* path: forks taken from
    one cached template never observe each other's writes."""
    a = usr_src_world(True, subsystems=1, files_per_dir=4).boot()
    b = usr_src_world(True, subsystems=1, files_per_dir=4).boot()
    a.write_file("/usr/src/sys00/dir0/file0.c", b"mutated in a")
    assert b.read_file("/usr/src/sys00/dir0/file0.c") != b"mutated in a"


@pytest.mark.parametrize("parallel", [False, True])
def test_batched_find_rows(benchmark, parallel: bool) -> None:
    """A batched mini-workload over per-job forks, timed sequentially and
    thread-parallel (per-worker kernels)."""
    from repro.api import Batch, SequentialExecutor, ThreadExecutor, clear_result_cache

    src = """#lang shill/ambient
srcdir = open_dir("/usr/src");
listing = contents(srcdir);
"""

    def run() -> None:
        clear_result_cache()
        world = usr_src_world(True, subsystems=SCALE.src_subsystems,
                              files_per_dir=SCALE.src_files_per_dir)
        batch = Batch(world, cache=False)
        for i in range(8):
            batch.add(src, name=f"walk{i}")
        with ThreadExecutor(workers=4) if parallel else SequentialExecutor() as executor:
            results = batch.run(executor=executor)
        assert len(results) == 8

    benchmark.pedantic(run, rounds=3, iterations=1)
