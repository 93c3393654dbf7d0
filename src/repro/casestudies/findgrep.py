'''Case study 4: find and execute (section 4.1).

Two versions, "as another example of how programmers can use SHILL to
gradually strengthen the guarantees of scripts":

* **Simple**: one sandbox around
  ``find /usr/src -name "*.c" -exec grep -H mac_ {} \\;``
  — the sandbox has access only to /usr/src and what find/grep need.

* **Fine-grained**: the polymorphic ``find`` function from Figure 5
  walks the tree in SHILL, and a *fresh sandbox per matching file* runs
  grep with a capability for exactly that file.  "the files that grep
  operates on are exactly the files selected by the find function" —
  unlike the simple version, where "paths passed to grep may resolve to
  different files."
'''

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunResult, Session, World, as_kernel
from repro.casestudies.probes import make_probe_batch
from repro.kernel.kernel import Kernel

SIMPLE_CAP_SCRIPT = """\
#lang shill/cap
require shill/native;

provide find_grep :
  {wallet : native_wallet,
   src : is_dir && readonly,
   out : file(+write, +append, +stat, +path)} -> is_num;

find_grep = fun(wallet, src, out) {
  findprog = pkg_native("find", wallet);
  findprog([src, "-name", "*.c", "-exec", "grep", "-H", "mac_", "{}", ";"],
           stdout = out, extras = [wallet, src]);
}
"""

# Figure 5, verbatim (ASCII spellings).
FIND_CAP_SCRIPT = """\
#lang shill/cap

provide find :
  forall X with {+lookup, +contents} .
  {cur : X, filter : X -> is_bool, cmd : X -> void} -> void;

find = fun(cur, filter, cmd) {
  if is_file(cur) && filter(cur) then
    cmd(cur);

  # if cur is a directory, recur on its contents
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find(child, filter, cmd);
    }
}
"""

FINE_CAP_SCRIPT = """\
#lang shill/cap
require shill/native;
require "find.cap";

provide find_grep_fine :
  {wallet : native_wallet,
   src : is_dir && readonly,
   srcwalk : dir(+lookup with {+lookup}, +stat, +path),
   out : file(+write, +append, +stat, +path)} -> void;

find_grep_fine = fun(wallet, src, srcwalk, out) {
  grep = pkg_native("grep", wallet);
  find(src,
       fun(f) { has_ext(f, "c"); },
       # binding the status makes the body's value void, as cmd's
       # contract (X -> void) requires
       fun(f) { status = grep(["-H", "mac_", f], stdout = out,
                              extras = [f, srcwalk]); });
}
"""

SIMPLE_AMBIENT = """\
#lang shill/ambient

require shill/native;
require "findgrep_simple.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
src = open_dir("/usr/src");
out = open_file("{out}");
find_grep(wallet, src, out);
"""

FINE_AMBIENT = """\
#lang shill/ambient

require shill/native;
require "findgrep_fine.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
src = open_dir("/usr/src");
srcwalk = open_dir("/usr/src");
out = open_file("{out}");
find_grep_fine(wallet, src, srcwalk, out);
"""

SCRIPTS = {
    "findgrep_simple.cap": SIMPLE_CAP_SCRIPT,
    "find.cap": FIND_CAP_SCRIPT,
    "findgrep_fine.cap": FINE_CAP_SCRIPT,
}


def usr_src_world(install_shill: bool = True, **fixture_kwargs) -> World:
    """The standard world: the base image plus the scaled-down /usr/src
    tree the Find workload greps."""
    return World(install_shill=install_shill).with_usr_src(**fixture_kwargs)


#: One straight-line ambient probe touching the /usr/src fixture — the
#: executor-equivalence suites run it across every execution strategy.
PROBE_AMBIENT = """\
#lang shill/ambient
src = open_dir("/usr/src/sys00/dir0");
entries = contents(src);
append(stdout, path(src) + "\\n");
"""


def probe_batch(jobs: int = 3, install_shill: bool = True, cache: bool = False,
                **fixture_kwargs):
    """Fixture probes over this world (see :mod:`repro.casestudies.probes`)."""
    return make_probe_batch(lambda: usr_src_world(install_shill, **fixture_kwargs),
                            PROBE_AMBIENT, jobs=jobs, cache=cache)


@dataclass
class FindResult:
    session: Session
    run: RunResult
    output: str

    @property
    def matches(self) -> list[str]:
        return [line for line in self.output.splitlines() if line]


def _prepare_out(kernel: Kernel, user: str, out_path: str) -> None:
    from repro.world.image import WorldBuilder

    cred = kernel.users.lookup(user)
    WorldBuilder(kernel).write_file(out_path, b"", uid=cred.uid, gid=cred.gid)


def run_simple(world: "World | Kernel", user: str = "root",
               out_path: str = "/root/matches.txt") -> FindResult:
    """One sandbox around find -exec grep."""
    kernel = as_kernel(world)
    _prepare_out(kernel, user, out_path)
    session = Session(kernel, user=user, cwd="/root", scripts=SCRIPTS)
    run = session.run_ambient(SIMPLE_AMBIENT.format(out=out_path), "findgrep_simple.ambient")
    sys = kernel.syscalls(kernel.spawn_process(user, "/"))
    return FindResult(session, run, sys.read_whole(out_path).decode())


def run_fine(world: "World | Kernel", user: str = "root", out_path: str = "/root/matches.txt") -> FindResult:
    """The SHILL version: Figure 5's find + one grep sandbox per file."""
    kernel = as_kernel(world)
    _prepare_out(kernel, user, out_path)
    session = Session(kernel, user=user, cwd="/root", scripts=SCRIPTS)
    run = session.run_ambient(FINE_AMBIENT.format(out=out_path), "findgrep_fine.ambient")
    sys = kernel.syscalls(kernel.spawn_process(user, "/"))
    return FindResult(session, run, sys.read_whole(out_path).decode())


def run_baseline(world: "World | Kernel", user: str = "root", out_path: str = "/root/matches.txt") -> str:
    """No SHILL: find -exec grep with full ambient authority."""
    kernel = as_kernel(world)
    _prepare_out(kernel, user, out_path)
    launcher = kernel.spawn_process(user, "/")
    sys = kernel.syscalls(launcher)
    from repro.kernel.fdesc import OpenFile
    from repro.kernel.syscalls import O_APPEND, O_WRONLY

    _, _, out_vp = sys._resolve(out_path)
    child = kernel.procs.fork(launcher)
    child.fdtable.install(1, OpenFile(out_vp, O_WRONLY | O_APPEND))
    _, _, find_vp = sys._resolve("/usr/bin/find")
    status = kernel.exec_file(
        child, find_vp,
        ["find", "/usr/src", "-name", "*.c", "-exec", "grep", "-H", "mac_", "{}", ";"],
    )
    if status != 0:
        raise RuntimeError(f"find exited with {status}")
    return sys.read_whole(out_path).decode()
