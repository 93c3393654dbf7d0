"""Spans for the traced run, recorded from the benchmark's own files.

The program carries no tracing of its own yet, so the traced run wraps
the public entry points of each layer (:func:`install_layer_spans`) for
the duration of one phase and restores them afterwards.  Each call of a
wrapped function is one span: label, start, end, parent span and the
request it served.  Spans are kept in memory in flat arrays and written
out when the run ends.

A layer's *self time* is its spans' durations minus the time their child
spans cover, so the self times of all labels add up to the time of the
outermost spans (``api.batch``).  The wrappers cost time of their own;
that cost lands in the parent span's self time and in
``trace.overhead_pct``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    """Flat, append-only span storage (about 40 bytes per span)."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.label = array("H")
        self.request = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.start)

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def set_request(self, number: int) -> None:
        """Attribute the calling thread's next spans to request ``number``."""
        self._local.request = number

    def wrap(self, fn: Callable, label: str) -> Callable:
        """``fn`` recording one ``label`` span per call."""
        lid = self._label_id(label)
        local, lock, now = self._local, self._lock, time.perf_counter_ns
        start, end, parent = self.start, self.end, self.parent
        labels, requests = self.label, self.request

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                index = len(start)
                start.append(now())
                end.append(0)
                parent.append(stack[-1] if stack else -1)
                labels.append(lid)
                requests.append(local.__dict__.get("request", -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()

        return traced

    def totals(self, first: int = 0) -> tuple[dict[str, int], dict[str, int]]:
        """Per label, (self ns, inclusive ns) over spans ``first:``.

        Inclusive time counts only spans with no ancestor of the same
        label, so recursion is not counted twice.
        """
        n = len(self.start)
        covered = [0] * (n - first)
        start, end, parent, label = self.start, self.end, self.parent, self.label
        for i in range(first, n):
            p = parent[i]
            if p >= first:
                covered[p - first] += end[i] - start[i]
        own: dict[str, int] = defaultdict(int)
        inclusive: dict[str, int] = defaultdict(int)
        for i in range(first, n):
            duration = end[i] - start[i]
            name = self.labels[label[i]]
            own[name] += duration - covered[i - first]
            p = parent[i]
            while p >= first and label[p] != label[i]:
                p = parent[p]
            if p < first:
                inclusive[name] += duration
        return dict(own), dict(inclusive)

    def write(self, path: Path) -> None:
        """All spans as gzip'd CSV: index,label,start_ns,end_ns,parent,request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,label,start_ns,end_ns,parent,request\n")
            names = self.labels
            for i in range(len(self.start)):
                out.write(f"{i},{names[self.label[i]]},{self.start[i]},"
                          f"{self.end[i]},{self.parent[i]},{self.request[i]}\n")


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def public_methods(self, cls: type, make: Callable[[Callable], Callable]) -> None:
        """Wrap every public plain function defined on ``cls`` itself."""
        for name, value in list(cls.__dict__.items()):
            if not name.startswith("_") and inspect.isfunction(value):
                self.method(cls, name, make)

    def function(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``fn`` in every ``repro`` module that holds a reference to it."""
        wrapped = make(fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", {})
            if (getattr(module, "__name__", "").startswith("repro")
                    and namespace.get(fn.__name__) is fn):
                setattr(module, fn.__name__, wrapped)
                self._undo.append((module, fn.__name__, fn))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.undo()


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class ForkProbe:
    """Dcache hits and misses of every kernel forked while it listens."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._forks: list[tuple[Any, int, int]] = []

    def note(self, child: Any) -> None:
        stats = child.stats
        self._forks.append((child, stats.dcache_hits, stats.dcache_misses))

    def settle(self) -> None:
        """Fold the forks of the request that just finished into the totals."""
        for child, hits, misses in self._forks:
            self.hits += child.stats.dcache_hits - hits
            self.misses += child.stats.dcache_misses - misses
        self._forks.clear()

    @property
    def ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def install_layer_spans(patcher: Patcher, recorder: SpanRecorder,
                        forks: ForkProbe) -> None:
    """Wrap the entry points of every in-process layer (see README.md)."""
    from repro.api.batch import Batch
    from repro.api.executors.base import Executor, JobHandle
    from repro.capability.caps import FsCap, PipeFactoryCap, SocketCap
    from repro.contracts.core import Contract
    from repro.contracts.functionctc import GuardedFunction
    from repro.kernel.kernel import Kernel
    from repro.kernel.mac import MacFramework
    from repro.kernel.syscalls import SyscallInterface
    from repro.kernel.vfs import VFS
    from repro.lang.parser import parse_source
    from repro.lang.runner import ShillRuntime
    from repro.programs.base import Program

    def span(label: str) -> Callable[[Callable], Callable]:
        return lambda fn: recorder.wrap(fn, label)

    patcher.method(Batch, "run", span("api.batch"))
    for name in ("prepare", "bind", "submit"):
        patcher.method(Executor, name, span("api.executors"))
    patcher.method(JobHandle, "result", span("api.executors"))
    patcher.method(ShillRuntime, "run_ambient", span("lang"))
    patcher.function(parse_source, span("lang.parse"))
    for cls in _subclasses(Contract):
        if "check" in cls.__dict__:
            patcher.method(cls, "check", span("contracts"))

    def guarded_invoke(invoke: Callable) -> Callable:
        # The contract projection is contract work; the body it applies
        # is interpreter work again.
        traced = recorder.wrap(invoke, "contracts")

        @functools.wraps(invoke)
        def call(self, apply_fn, args, kwargs):
            return traced(self, recorder.wrap(apply_fn, "lang.apply"), args, kwargs)

        return call

    for cls in _subclasses(GuardedFunction):
        if "invoke" in cls.__dict__:
            patcher.method(cls, "invoke", guarded_invoke)
    for cls in (FsCap, PipeFactoryCap, SocketCap):
        patcher.public_methods(cls, span("capability"))
    patcher.method(ShillRuntime, "exec_builtin", span("sandbox"))
    for name in ("check", "post"):
        patcher.method(MacFramework, name, span("sandbox.mac"))

    def fork_probe(fork: Callable) -> Callable:
        traced = recorder.wrap(fork, "kernel.fork")

        @functools.wraps(fork)
        def call(self):
            child = traced(self)
            forks.note(child)
            return child

        return call

    patcher.method(Kernel, "fork", fork_probe)
    patcher.method(Kernel, "exec_file", span("kernel.exec"))
    patcher.public_methods(SyscallInterface, span("kernel.syscalls"))
    patcher.public_methods(VFS, span("kernel.vfs"))
    for cls in _subclasses(Program):
        if "main" in cls.__dict__:
            patcher.method(cls, "main", span("programs"))
