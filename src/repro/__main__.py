"""Command-line interface (a thin shell over :mod:`repro.api`).

Usage::

    python -m repro demo
        Boot a world and run the paper's running example end to end.

    python -m repro run AMBIENT.ambient [--cap SCRIPT.cap ...] [--user U]
        Run an ambient SHILL script from the host filesystem against a
        freshly booted world image.  Capability-safe scripts it requires
        are registered from the --cap files (by basename).

    python -m repro shill-run POLICY_FILE -- CMD [ARGS...]
        The section 3.2.2 debugging tool: run one command in a sandbox
        configured from a policy file.  Add --debug to auto-grant and
        report the privileges the command needed.

    python -m repro batch AMBIENT.ambient [MORE.ambient ...] [--executor E]
        Run many ambient scripts, each against its own copy-on-write
        fork of one world image (boot cost is paid once).  --executor
        picks the execution strategy: sequential (default), thread (a
        thread pool with per-job kernels), process (worker processes
        boot from a temporary snapshot store), store (the same over a
        persistent on-disk snapshot store; see --store), remote
        (agent hosts; see --hosts) or serve (a gateway; see --gateway).
        Results are byte-identical whatever the strategy.  --json emits a
        machine-readable summary with the deterministic kernel op
        counts per job.  An engine/worker failure (not a script error)
        prints the failing job to stderr and exits 3.

    python -m repro lint PATH [PATH ...] [--format json] [--corpus]
        Statically lint SHILL scripts without executing them: infer each
        script's capability footprint and flag least-privilege gaps
        (over-granted contracts), guaranteed runtime violations
        (under-privileged scripts), shadowed contract clauses, and more
        (rule catalog: docs/linting.md).  Directories are searched for
        *.cap / *.ambient; --corpus adds the shipped demo + case-study
        scripts.  Exits 1 if any error-severity diagnostic fired.

    python -m repro bench profile BENCH/CONFIG [--json]
        Run one Figure 9 cell and report per-syscall / per-vnode-op /
        per-MAC-hook attribution, dcache hit rates, and the snapshot
        payload sizes before and after the run that the executors would
        ship.
        --list names every profileable cell.

    python -m repro store ls [--store DIR]
    python -m repro store gc [--keep N] [--store DIR]
        Inspect / evict the persistent snapshot store the store
        executor boots from (default directory: $REPRO_STORE, else the
        user cache dir).

    python -m repro agent --store DIR --port P [--host H]
        Serve one worker host of a sharded batch cluster: a cluster is
        just N agents.  Pair with
        `python -m repro batch ... --executor remote --hosts H1:P1,H2:P2`
        on the coordinator; snapshot blobs ship by digest and are
        fetched from the agent's own store when it is warm.

    python -m repro serve --store DIR --port P [--rate R] [--policy P]
        Serve a long-lived batch gateway over a dynamic agent fleet:
        agents join with `python -m repro agent --announce HOST:PORT`
        (and rejoin the same way after a restart), clients submit with
        `python -m repro batch ... --executor serve --gateway HOST:PORT`
        or a ServeExecutor.  The gateway owns admission control
        (per-user rate limits, a bounded queue, typed BUSY/RETRY-AFTER
        backpressure) and the scheduling policy.  See docs/serving.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys as _hostsys

from repro.api import (
    FIXTURE_CHOICES,
    Batch,
    BatchExecutionError,
    Executor,
    ProcessExecutor,
    RemoteExecutor,
    ScriptRegistry,
    SequentialExecutor,
    ServeExecutor,
    SnapshotStore,
    StoreExecutor,
    ThreadExecutor,
    World,
)
from repro.api.scheduling import POLICY_NAMES

#: Exit status for engine/worker failures (script failures exit with the
#: script's own status, like a shell).
EXIT_BATCH_ERROR = 3

#: ``repro batch --executor`` choices, in the order ``--help`` lists them.
EXECUTOR_NAMES = ("sequential", "thread", "process", "store", "remote", "serve")


def cmd_demo(_args: argparse.Namespace) -> int:
    world = World().for_user("alice").with_fixture("jpeg").boot()
    session = world.session(scripts=ScriptRegistry().add("find_jpg.cap", _DEMO_FIND_JPG))
    result = session.run_ambient(_DEMO_AMBIENT, "demo.ambient")
    print(result.stdout, end="")
    if result.stderr:
        _hostsys.stderr.write(result.stderr)
    return result.status


def cmd_run(args: argparse.Namespace) -> int:
    # create=False: a typo'd --user must fail, not run as a fresh user.
    world = World().for_user(args.user, create=False).with_fixture(args.fixture).boot()
    registry = ScriptRegistry()
    for cap_path in args.cap:
        registry.add_file(cap_path)
    session = world.session(scripts=registry)
    result = session.run_ambient_file(args.script)
    print(result.stdout, end="")
    if result.stderr:
        _hostsys.stderr.write(result.stderr)
    return result.status


def cmd_shill_run(args: argparse.Namespace) -> int:
    world = World().for_user(args.user, create=False).boot()
    policy_text = pathlib.Path(args.policy).read_text()
    sandbox = world.sandbox(policy_text, debug=args.debug)
    result = sandbox.exec(args.cmd_argv)
    _hostsys.stdout.write(result.stdout)
    _hostsys.stderr.write(result.stderr)
    if args.debug and result.auto_granted:
        print("-- privileges auto-granted in debug mode --")
        for line in result.auto_granted:
            print("  " + line)
    elif result.denials:
        print("-- denied operations --")
        for line in result.denial_lines():
            print("  " + line)
    return result.status


def cmd_batch(args: argparse.Namespace) -> int:
    world = World().for_user(args.user, create=False).with_fixture(args.fixture)
    registry = ScriptRegistry()
    for cap_path in args.cap:
        registry.add_file(cap_path)
    batch = Batch(world, scripts=registry, cache=not args.no_cache,
                  lint=args.lint)
    for script in args.scripts:
        path = pathlib.Path(script)
        batch.add(path.read_text(), name=path.name)
    executor = _batch_executor(args)
    if executor is None:
        return 2
    try:
        with executor:
            results = batch.run(executor=executor)
    except BatchExecutionError as err:
        # Not a script failure (those come back as per-job results):
        # the engine or a worker died, or pre-dispatch lint rejected a
        # job.  Name the job, then whatever detail the error carries —
        # the original traceback, or (lint rejections have none) the
        # full diagnostic list — and exit with the reserved status.
        _hostsys.stderr.write(f"repro batch: {err}\n")
        if err.traceback_text:
            _hostsys.stderr.write(err.traceback_text)
        for diag in getattr(err, "diagnostics", ()):
            _hostsys.stderr.write(f"  {diag.format()}\n")
        return EXIT_BATCH_ERROR

    if args.verbose:
        _hostsys.stderr.write(_boot_note(executor) + "\n")
        # Per-job cache verdicts (same vocabulary the gateway's JSONL
        # request log uses): hit / miss / invalidated-by:<prefix> /
        # uncacheable:<flag>.
        verdicts = batch.verdicts
        for index, job in enumerate(batch.jobs):
            verdict = verdicts.get(index, "miss")
            _hostsys.stderr.write(
                f"repro batch: {job.name}: cache {verdict}\n")
        report = batch.cache_report
        _hostsys.stderr.write(
            f"repro batch: cache report: {report['hits']} hits, "
            f"{report['misses']} misses, {report['invalidated']} "
            f"invalidated, {report['uncacheable']} uncacheable\n")
        for event in batch.audit_events:
            _hostsys.stderr.write(f"repro batch: audit: {event}\n")
    if args.json:
        print(json.dumps([
            {
                "script": job.name,
                "status": result.status,
                "stdout": result.stdout,
                "stderr": result.stderr,
                "sandboxes": result.sandbox_count,
                "ops": dict(result.ops),
            }
            for job, result in zip(batch.jobs, results)
        ], indent=2))
    else:
        for job, result in zip(batch.jobs, results):
            print(f"== {job.name} (status {result.status}) ==")
            print(result.stdout, end="")
            if result.stderr:
                _hostsys.stderr.write(result.stderr)
        stats = batch.stats
        print(f"-- {stats['jobs']} jobs, {stats['forks']} world forks, "
              f"{stats['cache_hits']} result-cache hits --")
    return max((r.status for r in results), default=0)


def _batch_executor(args: argparse.Namespace) -> "Executor | None":
    """The executor ``repro batch --executor NAME`` runs on: the one
    place a name becomes an executor.  A flag the name does not take, or
    a missing one it needs, prints a usage error and returns None."""
    name = args.executor
    hosts = [spec for spec in (args.hosts or "").split(",") if spec]
    if args.store is not None and name not in ("store", "remote", "serve"):
        error = "--store only applies to --executor store/remote/serve"
    elif (hosts or args.policy is not None) and name != "remote":
        error = "--hosts/--policy only apply to --executor remote"
    elif name == "remote" and not hosts:
        error = ("--executor remote needs --hosts HOST:PORT[,...] "
                 "(start agents with `python -m repro agent`)")
    elif args.gateway is not None and name != "serve":
        error = "--gateway only applies to --executor serve"
    elif name == "serve" and not args.gateway:
        error = ("--executor serve needs --gateway HOST:PORT "
                 "(start one with `python -m repro serve`)")
    else:
        error = None
    if error is not None:
        _hostsys.stderr.write(f"repro batch: {error}\n")
        return None
    if name == "store":
        return StoreExecutor(store=args.store, workers=args.workers)
    if name == "remote":
        policy = POLICY_NAMES[args.policy]() if args.policy else None
        return RemoteExecutor(hosts, store=args.store, policy=policy,
                              workers=args.workers)
    if name == "serve":
        return ServeExecutor(args.gateway, store=args.store,
                             workers=args.workers)
    local = {"sequential": SequentialExecutor, "thread": ThreadExecutor,
             "process": ProcessExecutor}
    return local[name](workers=args.workers)


def _boot_note(executor) -> str:
    """One line for ``batch --verbose``: where this run's jobs got their
    machine — ``memory`` (the sequential and thread executors: each job
    forks the in-process template) or ``store`` (a blob in the
    executor's snapshot store)."""
    store = getattr(executor, "store", None)
    info = getattr(executor, "boot_info", None)
    if store is None:
        return (f"repro batch: boot source = memory ({executor.name} "
                "executor; jobs fork the in-process template)")
    digest = None
    template = getattr(executor, "_template", None)
    if template is not None:
        digest = getattr(executor, "_snapshots", {}).get(template.token)
    if digest is None and info is not None:
        digest = info.snapshot
    if digest is not None and store.has(digest):
        return (f"repro batch: boot source = store (blob {digest[:12]}, "
                f"store {store.root})")
    return ("repro batch: boot source = "
            f"{info.source if info is not None else 'unknown'}")


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: the profile pulls in every case-study world builder,
    # which the other subcommands do not need at startup.
    from repro.bench.profile import list_cells, profile_cell, render_profile

    if args.list or not args.cell:
        for cell in list_cells():
            print(cell)
        return 0 if args.list else 2
    bench, sep, config = args.cell.partition("/")
    if not sep:
        _hostsys.stderr.write(
            "repro bench profile: cell must be BENCH/CONFIG "
            "(see --list)\n")
        return 2
    try:
        report = profile_cell(bench, config)
    except KeyError as err:
        _hostsys.stderr.write(f"repro bench profile: {err.args[0]}\n")
        return 2
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_profile(report))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported here: the analyzer pulls in the parser and contract
    # elaborator, which the other subcommands do not need at startup.
    from repro.analysis import lint_scripts, render_human, render_json

    reports = {}
    if args.paths:
        files: list[pathlib.Path] = []
        for raw in args.paths:
            path = pathlib.Path(raw)
            if path.is_dir():
                files.extend(sorted(
                    p for pat in ("*.cap", "*.ambient") for p in path.rglob(pat)))
            elif path.exists():
                files.append(path)
            else:
                _hostsys.stderr.write(
                    f"repro lint: no such file or directory: {raw}\n")
                return 2
        scripts = {str(p): p.read_text() for p in files}
        # Requires name scripts by basename, the same way `repro run
        # --cap` registers them.
        registry = {pathlib.Path(name).name: source
                    for name, source in scripts.items() if name.endswith(".cap")}
        reports.update(lint_scripts(scripts, registry=registry))
    if args.corpus:
        from repro.analysis.corpus import lint_corpus

        reports.update(lint_corpus())
    if not reports:
        _hostsys.stderr.write(
            "repro lint: nothing to lint (pass script paths, or --corpus)\n")
        return 2
    if args.format == "json":
        print(json.dumps(render_json(reports), indent=2))
    else:
        print(render_human(reports))
    return 1 if any(r.errors for r in reports.values()) else 0


def cmd_store(args: argparse.Namespace) -> int:
    store = SnapshotStore(args.store)
    if args.store_command == "ls":
        entries = store.entries()
        for entry in entries:
            print(f"{entry.digest[:16]}  {entry.size:>10}B  worlds={len(entry.worlds)}")
        total = sum(entry.size for entry in entries)
        print(f"total: {len(entries)} blob(s), {total} bytes, {store.root}")
        return 0
    evicted = store.gc(keep=args.keep)
    print(f"evicted {len(evicted)} blob(s), {len(store)} kept, {store.root}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    # Imported here: the fuzzer pulls in hypothesis, which the other
    # subcommands do not need at startup.
    from repro.fuzz import run_fuzz

    checked = [0]

    def on_example(_scenario) -> None:
        checked[0] += 1
        if args.verbose:
            _hostsys.stderr.write(f"repro fuzz: scenario {checked[0]}/{args.runs}\n")

    report = run_fuzz(runs=args.runs, seed=args.seed, on_example=on_example)
    if report.ok:
        print(f"repro fuzz: ok — {report.runs} scenario(s) @ seed {report.seed}, "
              "4 invariants each")
        return 0
    _hostsys.stderr.write(f"repro fuzz: FAILED — {report.failure}\n")
    if report.falsifying is not None:
        path = report.write_falsifying(args.artifact)
        _hostsys.stderr.write(
            f"repro fuzz: shrunk falsifying example written to {path}\n")
    return 1


_DEMO_FIND_JPG = """\
#lang shill/cap
provide find_jpg :
  {cur : dir(+contents, +lookup, +path) \\/ file(+path),
   out : file(+append)} -> void;
find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "jpg") then
    append(out, path(cur) + "\\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then find_jpg(child, out);
    }
}
"""

_DEMO_AMBIENT = """\
#lang shill/ambient
require "find_jpg.cap";
docs = open_dir("~/Documents");
find_jpg(docs, stdout);
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's running example")

    run_p = sub.add_parser("run", help="run an ambient script from the host FS")
    run_p.add_argument("script")
    run_p.add_argument("--cap", action="append", default=[],
                       help="capability-safe script file(s) to register")
    run_p.add_argument("--user", default="alice")
    run_p.add_argument("--fixture", choices=list(FIXTURE_CHOICES), default="jpeg")

    sr_p = sub.add_parser("shill-run", help="run one command under a policy file")
    sr_p.add_argument("policy")
    sr_p.add_argument("cmd_argv", nargs="+", metavar="command")
    sr_p.add_argument("--user", default="root")
    sr_p.add_argument("--debug", action="store_true")

    batch_p = sub.add_parser("batch", help="run many ambient scripts over forked worlds")
    batch_p.add_argument("scripts", nargs="+", metavar="script")
    batch_p.add_argument("--cap", action="append", default=[],
                         help="capability-safe script file(s) to register")
    batch_p.add_argument("--user", default="alice")
    batch_p.add_argument("--fixture", choices=list(FIXTURE_CHOICES), default="jpeg")
    batch_p.add_argument("--executor", choices=EXECUTOR_NAMES, default="sequential",
                         help="execution strategy (default: sequential); "
                              "'process' boots worker processes from a "
                              "temporary snapshot store, 'store' from the "
                              "persistent one (see --store)")
    batch_p.add_argument("--store", default=None, metavar="DIR",
                         help="snapshot store directory for --executor "
                              "store/remote (default: $REPRO_STORE, else the "
                              "user cache dir)")
    batch_p.add_argument("--hosts", default=None, metavar="HOST:PORT[,...]",
                         help="agent addresses for --executor remote "
                              "(start them with `python -m repro agent`)")
    batch_p.add_argument("--gateway", default=None, metavar="HOST:PORT",
                         help="gateway address for --executor serve "
                              "(start one with `python -m repro serve`)")
    batch_p.add_argument("--policy", choices=list(POLICY_NAMES),
                         default=None,
                         help="sharding policy for --executor remote "
                              "(default: round-robin)")
    batch_p.add_argument("--workers", type=int, default=None,
                         help="worker/dispatch width (default: each "
                              "executor's own — 4, or the host count for "
                              "--executor remote)")
    batch_p.add_argument("--json", action="store_true",
                         help="machine-readable per-job summary")
    batch_p.add_argument("--verbose", action="store_true",
                         help="print a one-line worker boot-source note "
                              "(memory/store) on stderr")
    batch_p.add_argument("--no-cache", action="store_true",
                         help="bypass the (world, script, user) result cache")
    batch_p.add_argument("--lint", choices=("off", "warn", "strict"),
                         default="off",
                         help="pre-dispatch static lint: 'warn' records each "
                              "job's inferred capability footprint, 'strict' "
                              "additionally rejects statically-doomed jobs "
                              "before any fork (exit 3)")

    lint_p = sub.add_parser(
        "lint", help="statically lint SHILL scripts (no execution)")
    lint_p.add_argument("paths", nargs="*", metavar="path",
                        help="script files, or directories searched for "
                             "*.cap / *.ambient")
    lint_p.add_argument("--format", choices=("human", "json"), default="human",
                        help="report format (default: human)")
    lint_p.add_argument("--corpus", action="store_true",
                        help="also lint the shipped demo + case-study scripts")

    bench_p = sub.add_parser(
        "bench", help="benchmark tooling (op-attribution profiles)")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    prof_p = bench_sub.add_parser(
        "profile",
        help="run one fig9 cell; report per-syscall/vnode-op/MAC-hook "
             "attribution and snapshot payload sizes")
    prof_p.add_argument("cell", nargs="?", metavar="BENCH/CONFIG",
                        help="the cell to profile, e.g. Find/sandboxed")
    prof_p.add_argument("--json", action="store_true",
                        help="machine-readable report")
    prof_p.add_argument("--list", action="store_true",
                        help="list profileable cells and exit")

    fuzz_p = sub.add_parser(
        "fuzz", help="property-based cross-check of the sandbox invariants "
                     "over generated (world, policy, script) scenarios")
    fuzz_p.add_argument("--runs", type=int, default=50,
                        help="number of generated scenarios (default: 50)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="generation seed — same (runs, seed) checks the "
                             "same scenarios everywhere (default: 0)")
    fuzz_p.add_argument("--artifact", default="fuzz-falsifying.json",
                        metavar="PATH",
                        help="where to write the shrunk falsifying example "
                             "on failure (default: fuzz-falsifying.json)")
    fuzz_p.add_argument("--verbose", action="store_true",
                        help="progress line per scenario on stderr")

    store_p = sub.add_parser("store", help="inspect/evict the persistent snapshot store")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list stored snapshot blobs")
    store_ls.add_argument("--store", default=None, metavar="DIR")
    store_gc = store_sub.add_parser("gc", help="evict stalest blobs and dangling world links")
    store_gc.add_argument("--store", default=None, metavar="DIR")
    store_gc.add_argument("--keep", type=int, default=None,
                          help="blobs to retain (default: the store's LRU cap)")

    # `repro agent` / `repro serve` own their own argparse (each is its
    # own process shape); everything after the subcommand word passes
    # through untouched.
    sub.add_parser("agent", add_help=False,
                   help="serve one worker host of a sharded batch cluster")
    sub.add_parser("serve", add_help=False,
                   help="serve a long-lived batch gateway over a dynamic "
                        "agent fleet")
    if argv is None:
        argv = _hostsys.argv[1:]
    if argv and argv[0] == "agent":
        from repro.remote.agent import serve

        return serve(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import serve_main

        return serve_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "demo":
        return cmd_demo(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "shill-run":
        return cmd_shill_run(args)
    if args.command == "batch":
        return cmd_batch(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "store":
        return cmd_store(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
