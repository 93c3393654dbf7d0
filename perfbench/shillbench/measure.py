"""Measurement plumbing: closed-loop clients, percentiles, memory, reaping."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Record:
    """One request as its client saw it."""

    request: Any            # the workload's Request
    latency: float          # seconds, submit to result at the client
    error: str | None       # None when the result passed its check
    result: Any = None      # the RunResult, when one came back


@dataclass
class Tally:
    """Attempted and failed requests across every phase of a run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, record: Record) -> None:
        with self.lock:
            self.attempted += 1
            if record.error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"request {record.request.number} "
                                       f"({record.request.kind}): {record.error}")


def closed_loop(streams: list[Iterator[Any]], send: Callable[[int, Any], Any],
                check: Callable[[Any, Any], str | None], tally: Tally, *,
                deadline: float | None = None, count: int | None = None,
                keep_results: bool = False,
                on_done: Callable[[Record], None] | None = None,
                ) -> tuple[list[Record], float]:
    """Run one client thread per stream; each sends its next request only
    when the last one has returned.  A client stops at ``deadline``
    (``perf_counter`` time) or after ``count`` requests.  Returns the
    records and the seconds from start until the last client finished.
    """
    records: list[Record] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        stream, done = streams[index], 0
        while (count is None or done < count) and \
                (deadline is None or time.perf_counter() < deadline):
            request = next(stream)
            started = time.perf_counter()
            result = error = None
            try:
                result = send(index, request)
            except Exception:  # a failed request is data, not a crash
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            latency = time.perf_counter() - started
            if error is None:
                try:
                    error = check(request, result)
                except Exception:  # a malformed result fails its request
                    error = "check raised " + traceback.format_exc(
                        limit=3).strip().splitlines()[-1]
            record = Record(request, latency, error,
                            result if keep_results else None)
            if on_done is not None:
                on_done(record)
            tally.add(record)
            with lock:
                records.append(record)
            done += 1

    started = time.perf_counter()
    if len(streams) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(i,), name=f"client{i}")
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records, time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


# -- processes ---------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    return children


def descendants() -> list[int]:
    """Every live process below this one."""
    children = _children_map()
    found, todo = [], [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant,
    summed (``VmHWM``).  Call it before the children exit."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024


def reap_strays() -> None:
    """Kill and reap any descendant still alive."""
    strays = descendants()
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in strays:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild, reaped by its own parent (or by init)
    if strays:
        print(f"perfbench: killed stray processes {strays}", file=sys.stderr)


def dir_kb(*roots: Path) -> float:
    """Bytes of every regular file under ``roots``, in KB."""
    total = 0
    for root in roots:
        for path in root.rglob("*"):
            if path.is_file():
                total += path.stat().st_size
    return total / 1024
