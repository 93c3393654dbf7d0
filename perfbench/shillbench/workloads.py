"""The three workloads: seeded request streams, their worlds and executors,
and the checks every result must pass.

Every workload is a closed loop driving the public ``repro.api`` surface:
each request is a fresh :class:`repro.api.Batch` with a private, empty
result cache (as an independent client process would have), run on an
executor that lives for the whole run.  A client sends its next request
only when the last one has returned, because SHILL's callers (a user at
a shell, a batch job, a gateway client) wait for their results.  The
box the benchmark was sized on has two cores, so no workload uses more
than two client threads or two connections.

Which layers each workload exercises, and which it must leave alone, is
what makes a regression or a gain attributable:

``walk``
    Read-only pure-SHILL queries: a capability-safe directory walk in the
    style of the paper's Figure 5 over three seed-chosen ``/usr/src``
    subsystems, filtered on a seed-chosen extension.  One client on the
    in-process ``SequentialExecutor``.  The interpreter, contracts,
    capabilities and VFS lookups do almost all of the work; there are no
    sandboxes, no exec and no IPC.  Interpreter and capability-path
    changes should show here; sandbox, executor and serve changes should
    not.

``grade``
    The paper's Sandboxed Grading configuration: the grading shell script
    (``grade-sh`` under the simulated ``/bin/sh``) in one SHILL sandbox,
    writing per-student grade files.  Two clients share one
    ``StoreExecutor`` whose two workers boot from the run's own snapshot
    store, so every request also crosses the process-family executor.
    MAC checks and privilege propagation, syscalls, VFS writes and the
    simulated programs do the work; the interpreter is a few percent.
    The two request kinds are two graders (``tester`` and ``alice``), each
    with a course of the same size in their home, so the kinds cost the
    same and only the stream differs between seeds.  Set-up starts the
    workers with one request before the clients start together: two
    first submits on a fresh ``StoreExecutor`` race on the snapshot
    store's temp file (``SnapshotStore._atomic_write``, a known defect),
    and a self-test pins that race until it is fixed.

``serve``
    Many short requests through the gateway: a seeded mix of VCS
    ``status``, ``log``, ``commit`` and probe scripts from two clients
    (two requester identities, two connections) over ``ServeExecutor`` →
    ``repro serve`` gateway (default admission, default per-user result
    cache) → one announced agent.  A quarter of the requests re-send one
    of the same client's last eight requests verbatim, a window far
    inside the gateway's cache, so the hit share is a property of the
    traffic and not of run length.  Jobs are short and parse-bound, so
    admission, relay, wire framing, agent dispatch and the gateway cache
    are a large share of every request; it is also the only workload
    whose cache serves hits.  One agent, not two: a gateway, two agents
    and the client would oversubscribe two cores.

Every request's script ends by echoing its request number, and every
result is checked against an expectation computed outside the timed path
(see each workload's ``expect``).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.api import (
    Batch,
    BoundedCache,
    SequentialExecutor,
    ServeExecutor,
    SnapshotStore,
    StoreExecutor,
    World,
)
from repro.casestudies import grading, vcs


@dataclass(frozen=True)
class Request:
    """One request of a stream.  ``number`` is echoed by the script; a
    ``repeat`` re-sends an earlier request verbatim, number included."""

    number: int
    kind: str
    source: str
    user: str | None = None
    repeat: bool = False


def echo_line(number: int) -> str:
    return f"#req {number}\n"


def with_echo(source: str, number: int) -> str:
    return source + f'append(stdout, "{echo_line(number)[:-1]}\\n");\n'


@dataclass
class Rig:
    """What one set-up started: the booted world, one executor per
    client, the processes to kill, and the snapshot stores to size."""

    world: World
    executors: list[Any]
    processes: list[Any] = field(default_factory=list)
    stores: list[Path] = field(default_factory=list)
    request_log: Path | None = None
    prepare_s: float = 0.0
    join_s: float = 0.0

    def close(self) -> None:
        """Close the executors (their workers exit and are reaped), then
        kill and reap the gateway and agents."""
        try:
            for executor in {id(e): e for e in self.executors}.values():
                executor.close()
        finally:
            for proc in self.processes:
                proc.kill()
            for proc in self.processes:
                proc.wait(timeout=30)


#: Layers every workload runs through, in the traced run's terms.
IN_EVERY_WORKLOAD = (
    "api.batch.self_ms", "api.executors.dispatch_ms", "api.executors.prepare_ms",
    "world.boot_ms", "lang.parse_ms", "lang.self_ms", "lang.startup_ms",
    "contracts.self_ms", "capability.self_ms", "sandbox.mac_self_ms",
    "kernel.fork_ms", "kernel.vfs.self_ms", "kernel.dcache_hit_ratio",
    "kernel.vnode_ops", "kernel.mac_checks",
)


class Workload:
    """Base class: one seeded stream per client, expectations, checks."""

    name = ""
    clients = 1
    #: Requests each client sends during set-up, before timing starts, after
    #: the one request that starts the workers (``runner._set_up``).
    warmup = 2
    #: Set-ups per timed run, each followed by an equal share of the
    #: timed seconds; ``setup_s`` is their median.
    setups = 6
    #: Per-layer metrics the workload exercises: each reads above 0 in a
    #: traced run, and the self-tests check that it does, so a span hook
    #: that stops firing shows.  The other per-layer metrics read 0.
    layers: tuple[str, ...] = ()
    scripts: dict[str, str] = {}

    def world(self) -> World:
        raise NotImplementedError

    def stream(self, seed: int, client: int) -> Iterator[Request]:
        raise NotImplementedError

    def expect(self, world: World) -> None:
        """Compute every expectation from a booted reference world."""
        raise NotImplementedError

    def check(self, request: Request, result: Any) -> str | None:
        raise NotImplementedError

    def start(self, world: World, tmp: Path) -> Rig:
        """Boot ``world`` and start the executors (and processes)."""
        raise NotImplementedError

    def send(self, world: World, executor: Any, request: Request) -> Any:
        batch = Batch(world, scripts=self.scripts, result_cache=BoundedCache(4))
        batch.add(request.source, user=request.user, name=f"req{request.number}")
        [result] = batch.run(executor=executor)
        return result

    def _rng(self, seed: int, client: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{client}")

    def _number(self, client: int, i: int) -> int:
        return i * self.clients + client

    @staticmethod
    def _prepare(world: World, executor: Any) -> float:
        started = time.perf_counter()
        executor.prepare(world)
        return time.perf_counter() - started


# -- walk -------------------------------------------------------------------

WALK_CAP = """\
#lang shill/cap
provide walk :
  {cur : dir(+contents, +lookup, +path) \\/ file(+path, +read),
   ext : is_string,
   out : file(+append)} -> void;
walk = fun(cur, ext, out) {
  if is_file(cur) && has_ext(cur, ext) then
    append(out, path(cur) + "\\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then walk(child, ext, out);
    }
}
"""

#: The fixture's size: ``SUBSYSTEMS`` trees of 2 × 16 files, each with
#: eight ``.c`` and eight ``.h`` files, so every request walks and matches
#: the same number of files and the latency distribution has one mode.
SUBSYSTEMS = 12
EXTENSIONS = ("c", "h")
WALKED_PER_REQUEST = 3


class Walk(Workload):
    name = "walk"
    setups = 10
    layers = IN_EVERY_WORKLOAD
    scripts = {"walk.cap": WALK_CAP}

    def world(self) -> World:
        return World().with_usr_src(subsystems=SUBSYSTEMS)

    def stream(self, seed: int, client: int) -> Iterator[Request]:
        rng = self._rng(seed, client)
        for i in itertools.count():
            subsystems = rng.sample(range(SUBSYSTEMS), WALKED_PER_REQUEST)
            ext = rng.choice(EXTENSIONS)
            number = self._number(client, i)
            source = '#lang shill/ambient\nrequire "walk.cap";\n' + "".join(
                f'walk(open_dir("/usr/src/sys{s:02d}"), "{ext}", stdout);\n'
                for s in subsystems)
            yield Request(number, f"{ext}:" + ",".join(map(str, subsystems)),
                          with_echo(source, number))

    def expect(self, world: World) -> None:
        """The match list of every (subsystem, extension), walked through
        ``World``'s public read API in the script's traversal order."""
        calls = world.syscalls()

        def walk(path: str, ext: str, out: list[str]) -> None:
            if not calls.stat(path).is_dir:
                if path.endswith("." + ext):
                    out.append(path + "\n")
                return
            for name in calls.contents(path):
                walk(f"{path}/{name}", ext, out)

        self._matches: dict[tuple[int, str], str] = {}
        for s in range(SUBSYSTEMS):
            for ext in EXTENSIONS:
                found: list[str] = []
                walk(f"/usr/src/sys{s:02d}", ext, found)
                self._matches[(s, ext)] = "".join(found)

    def check(self, request: Request, result: Any) -> str | None:
        ext, subsystems = request.kind.split(":")
        expected = "".join(self._matches[(int(s), ext)]
                           for s in subsystems.split(",")) + echo_line(request.number)
        if result.status != 0:
            return f"status {result.status}: {result.stderr.strip()[-200:]}"
        if result.stdout != expected:
            return "wrong match list"
        return None

    def start(self, world: World, tmp: Path) -> Rig:
        executor = SequentialExecutor()
        rig = Rig(world, [executor])
        rig.prepare_s = self._prepare(world, executor)
        return rig


# -- grade ------------------------------------------------------------------

GRADERS = ("tester", "alice")
#: A course per grader: small enough that a run collects a few hundred
#: requests, with no malicious submissions so a correct run has no denials.
COURSE = {"students": 4, "tests": 2, "malicious_reader": False,
          "malicious_writer": False}
GRADE_WORKERS = 2


class Grade(Workload):
    name = "grade"
    clients = 2
    layers = IN_EVERY_WORKLOAD + (
        "sandbox.setup_ms", "sandbox.exec_ms", "kernel.syscalls.self_ms",
        "kernel.total_syscalls", "kernel.execs", "kernel.sandboxes_created",
        "kernel.store.snapshot_kb", "programs.self_ms")
    scripts = dict(grading.SCRIPTS)

    def world(self) -> World:
        world = World()
        for grader in GRADERS:
            world.with_grading_fixture(owner=grader, **COURSE)
        return world

    def stream(self, seed: int, client: int) -> Iterator[Request]:
        rng = self._rng(seed, client)
        for i in itertools.count():
            grader = rng.choice(GRADERS)
            number = self._number(client, i)
            yield Request(number, grader,
                          with_echo(grading.SHELLSCRIPT_AMBIENT_SCRIPT, number),
                          user=grader)

    def expect(self, world: World) -> None:
        """Stdout and op counts of one reference run per grader, on the
        sequential executor."""
        self._reference: dict[str, tuple[str, dict]] = {}
        with SequentialExecutor() as executor:
            for grader in GRADERS:
                result = self.send(world, executor, Request(
                    0, grader, with_echo(grading.SHELLSCRIPT_AMBIENT_SCRIPT, 0),
                    user=grader))
                if result.status != 0 or result.denials:
                    raise RuntimeError(f"grade reference run for {grader} failed: "
                                       f"status {result.status}, "
                                       f"{len(result.denials)} denials")
                stdout = result.stdout[:-len(echo_line(0))]
                self._reference[grader] = (stdout, dict(result.ops))

    def check(self, request: Request, result: Any) -> str | None:
        stdout, ops = self._reference[request.kind]
        if result.status != 0:
            return f"status {result.status}: {result.stderr.strip()[-200:]}"
        if result.denials or result.ops["mac_denials"]:
            return f"{len(result.denials)} denials"
        if result.stdout != stdout + echo_line(request.number):
            return "wrong stdout"
        if dict(result.ops) != ops:
            return f"op counts {dict(result.ops)} != reference {ops}"
        return None

    def start(self, world: World, tmp: Path) -> Rig:
        store = tmp / "store"
        executor = StoreExecutor(store=SnapshotStore(store), workers=GRADE_WORKERS)
        rig = Rig(world, [executor] * self.clients, stores=[store])
        rig.prepare_s = self._prepare(world, executor)
        return rig


# -- serve ------------------------------------------------------------------

SERVE_KINDS = {
    "status": vcs.STATUS_AMBIENT,
    "log": vcs.LOG_AMBIENT,
    "commit": vcs.COMMIT_AMBIENT,
    "probe": vcs.PROBE_AMBIENT,
}
#: Share of requests that re-send one of the client's recent requests.
REPEAT_SHARE = 0.25
#: How many of a client's latest distinct requests a repeat picks from.
REPEAT_WINDOW = 8


class Serve(Workload):
    name = "serve"
    clients = 2
    layers = IN_EVERY_WORKLOAD + (
        "kernel.syscalls.self_ms", "kernel.total_syscalls", "kernel.store.snapshot_kb",
        "serve.overhead_ms", "serve.cache_hit_ratio", "serve.join_s",
        "remote.result_kb")
    scripts = dict(vcs.SCRIPTS)

    def world(self) -> World:
        return vcs.vcs_world()

    @staticmethod
    def _source(kind: str, number: int) -> str:
        return SERVE_KINDS[kind].replace("{msg}", f"m{number}")

    def stream(self, seed: int, client: int) -> Iterator[Request]:
        rng = self._rng(seed, client)
        recent: list[Request] = []
        fresh = 0
        while True:
            if recent and rng.random() < REPEAT_SHARE:
                original = rng.choice(recent)
                yield Request(original.number, original.kind, original.source,
                              repeat=True)
                continue
            kind = rng.choice(sorted(SERVE_KINDS))
            number = self._number(client, fresh)
            fresh += 1
            request = Request(number, kind, with_echo(self._source(kind, number), number))
            recent = (recent + [request])[-REPEAT_WINDOW:]
            yield request

    def expect(self, world: World) -> None:
        """The stdout of every request kind, run once on the sequential
        executor."""
        self._stdout: dict[str, str] = {}
        with SequentialExecutor() as executor:
            for kind in SERVE_KINDS:
                result = self.send(world, executor,
                                    Request(0, kind, self._source(kind, 0)))
                if result.status != 0:
                    raise RuntimeError(f"serve reference run for {kind} failed: "
                                       f"{result.stderr.strip()[-200:]}")
                self._stdout[kind] = result.stdout

    def check(self, request: Request, result: Any) -> str | None:
        if result.status != 0:
            return f"status {result.status}: {result.stderr.strip()[-200:]}"
        if result.stdout != self._stdout[request.kind] + echo_line(request.number):
            return "wrong stdout"
        return None

    def start(self, world: World, tmp: Path) -> Rig:
        from repro.remote.agent import spawn_local_agent
        from repro.serve import spawn_local_gateway

        log = tmp / "requests.jsonl"
        rig = Rig(world, [], request_log=log,
                  stores=[tmp / "gateway", tmp / "agent"])
        try:
            started = time.perf_counter()
            gateway_proc, gateway = spawn_local_gateway(tmp / "gateway", request_log=log)
            rig.processes.append(gateway_proc)
            agent_proc, _address = spawn_local_agent(tmp / "agent", announce=gateway)
            rig.processes.append(agent_proc)
            rig.join_s = time.perf_counter() - started
            for client in range(self.clients):
                store = tmp / f"client{client}"
                rig.stores.append(store)
                rig.executors.append(ServeExecutor(
                    gateway, store=SnapshotStore(store), concurrency=1,
                    user=f"client{client}"))
            rig.prepare_s = sum(self._prepare(world, executor)
                                for executor in rig.executors)
        except BaseException:
            rig.close()
            raise
        return rig


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Walk, Grade, Serve)}
