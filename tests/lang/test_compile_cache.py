"""The process-wide cache of compiled capability-safe modules
(:func:`repro.lang.modules.compile_module`): what it is keyed on, that
its code captures no run's world, that concurrent first loads agree with
sequential ones, its bound, and that ambient scripts stay out of it."""

from __future__ import annotations

import sys
import uuid

from repro.api import Batch, SequentialExecutor, ThreadExecutor, World
from repro.lang.modules import COMPILED_MODULES, compile_module
from repro.lang.runner import ShillRuntime

EMIT = """#lang shill/cap
provide emit : {out : file(+append)} -> void;
emit = fun(out) { append(out, "%s\\n"); }
"""
RUN_EMIT = '#lang shill/ambient\nrequire "emit.cap";\nemit(stdout);\n'

LIST = """#lang shill/cap
provide list : {d : dir(+contents), out : file(+append)} -> void;
tag = "%s";
list = fun(d, out) { for name in contents(d) { append(out, name + "\\n"); } }
"""
RUN_LIST = '#lang shill/ambient\nrequire "list.cap";\nlist(open_dir("/data"), stdout);\n'


def _run(world, scripts, sources, executor):
    batch = Batch(world, scripts=scripts, cache=False)
    for source in sources:
        batch.add(source)
    return batch.run(executor=executor)


def test_batches_reusing_a_script_name_each_run_their_own_source():
    world = World()
    with SequentialExecutor() as executor:
        [first] = _run(world, {"emit.cap": EMIT % "first"}, [RUN_EMIT], executor)
        [second] = _run(world, {"emit.cap": EMIT % "second"}, [RUN_EMIT], executor)
    assert (first.stdout, second.stdout) == ("first\n", "second\n")


def test_a_cached_module_reads_the_world_of_each_run():
    scripts = {"list.cap": LIST % uuid.uuid4().hex}
    worlds = [World().with_file("/data/a.txt", "a"), World().with_file("/data/b.txt", "b")]
    before = compile_module.cache_info()
    with SequentialExecutor() as executor:
        outputs = [_run(world, scripts, [RUN_LIST], executor)[0].stdout for world in worlds]
    after = compile_module.cache_info()
    assert outputs == ["a.txt\n", "b.txt\n"]
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_concurrent_first_loads_match_sequential_runs():
    scripts = {"list.cap": LIST % uuid.uuid4().hex}
    world = World().with_file("/data/a.txt", "a").with_file("/data/b.txt", "b")
    jobs = [RUN_LIST + f'append(stdout, "job{i}\\n");\n' for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadExecutor(workers=8) as executor:
            threaded = _run(world, scripts, jobs, executor)
    finally:
        sys.setswitchinterval(interval)
    with SequentialExecutor() as executor:
        sequential = _run(world, scripts, jobs, executor)
    assert [r.status for r in threaded] == [0] * len(jobs)
    assert [r.fingerprint() for r in threaded] == [r.fingerprint() for r in sequential]


def test_the_cache_stays_at_its_bound(kernel):
    rt = ShillRuntime(kernel)
    for i in range(COMPILED_MODULES + 8):
        rt.register_script(f"bound{i}.cap", f"#lang shill/cap\nx = {i};\n")
        rt.load_cap_exports(f"bound{i}.cap")
    info = compile_module.cache_info()
    assert info.currsize == info.maxsize == COMPILED_MODULES


def test_ambient_scripts_are_never_cached(kernel):
    scripts = {"emit.cap": EMIT % uuid.uuid4().hex}
    ShillRuntime(kernel, scripts=scripts).run_ambient(RUN_EMIT)
    before = compile_module.cache_info()
    for i in range(20):
        ShillRuntime(kernel, scripts=scripts).run_ambient(RUN_EMIT + f"x{i} = {i};\n")
    after = compile_module.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 20
