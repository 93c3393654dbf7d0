'''Case study 5 (extension): a git-like version-control tool in SHILL.

A miniature VCS over the :func:`repro.world.add_vcs_repo` fixture —
``status`` / ``commit`` / ``log`` over a worktree with a ``.vcs``
metadata directory.  The capability story mirrors the paper's grading
study: the commit script walks the worktree with read-only privileges,
may *only create* snapshot objects (never rewrite history), and the
commit log is append-only from the script's perspective.  The deploy
token sitting next to the worktree (``~/secrets/deploy_token``) is never
passed in, so no code path in the scripts can reach it.

This is also the standard target for the declarative policy layer
(:mod:`repro.policy`) and the scenario fuzzer (:mod:`repro.fuzz`): its
worktree/metadata/secret split gives policies natural allow and deny
targets, and :func:`read_token_sandboxed` is the flip-a-denial
demonstration used by ``docs/policy.md``.
'''

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunResult, Session, World, as_kernel
from repro.casestudies.probes import make_probe_batch
from repro.kernel.kernel import Kernel

VCS_CAP_SCRIPT = """\
#lang shill/cap

provide vcs_status :
  {src : dir(+lookup, +contents, +read, +stat, +path),
   logf : file(+read, +stat, +path)} -> is_string;

provide vcs_commit :
  {msg : is_string,
   src : dir(+lookup, +contents, +read, +stat, +path),
   objects : dir(+contents, +path, +stat,
                 +create-file with {+write, +append, +stat, +path}),
   logf : file(+read, +append, +stat, +path),
   headf : file(+write, +stat, +path)} -> is_num;

provide vcs_log :
  {logf : file(+read, +stat, +path)} -> is_string;

# Recursively collect the worktree's files, skipping the .vcs metadata
# directory.  +lookup carries no modifier, so every child inherits the
# same read-only privilege set — the whole walk stays read-only.
walk = fun(d, acc) {
  walk_entries(d, contents(d), 0, acc);
}

walk_entries = fun(d, entries, i, acc) {
  if i == length(entries) then acc
  else {
    entry = nth(entries, i);
    if entry == ".vcs" then
      walk_entries(d, entries, i + 1, acc)
    else {
      child = lookup(d, entry);
      if is_syserror(child) then
        walk_entries(d, entries, i + 1, acc)
      else {
        if is_dir(child) then
          walk_entries(d, entries, i + 1, walk(child, acc))
        else
          walk_entries(d, entries, i + 1, push(acc, child));
      }
    }
  }
}

vcs_status = fun(src, logf) {
  files = walk(src, []);
  committed = length(lines(read(logf)));
  format_status(files, 0, "# on commit " + to_string(committed) + "\\n");
}

format_status = fun(files, i, acc) {
  if i == length(files) then acc
  else format_status(files, i + 1,
                     acc + "tracked: " + path(nth(files, i)) + "\\n");
}

# Snapshot every worktree file into objects/ and append one log line.
# The objects capability can only create (never rewrite) and the log
# capability can only append — history is immutable by contract.
vcs_commit = fun(msg, src, objects, logf, headf) {
  n = length(lines(read(logf))) + 1;
  files = walk(src, []);
  store_all(files, 0, objects, n);
  append(logf, "commit " + to_string(n) + " " + msg + "\\n");
  write(headf, to_string(n) + "\\n");
  n;
}

store_all = fun(files, i, objects, n) {
  if i == length(files) then 0
  else {
    f = nth(files, i);
    obj = create_file(objects,
                      "c" + to_string(n) + "-" + to_string(i) + "-" + name(f));
    write(obj, read(f));
    store_all(files, i + 1, objects, n);
  }
}

vcs_log = fun(logf) {
  read(logf);
}
"""

STATUS_AMBIENT = """\
#lang shill/ambient

require "vcs.cap";

src = open_dir("~/project");
logf = open_file("~/project/.vcs/log");
append(stdout, vcs_status(src, logf));
"""

COMMIT_AMBIENT = """\
#lang shill/ambient

require "vcs.cap";

src = open_dir("~/project");
objects = open_dir("~/project/.vcs/objects");
logf = open_file("~/project/.vcs/log");
headf = open_file("~/project/.vcs/HEAD");
n = vcs_commit("{msg}", src, objects, logf, headf);
append(stdout, "committed " + to_string(n) + "\\n");
"""

LOG_AMBIENT = """\
#lang shill/ambient

require "vcs.cap";

logf = open_file("~/project/.vcs/log");
append(stdout, vcs_log(logf));
"""

SCRIPTS = {"vcs.cap": VCS_CAP_SCRIPT}


def vcs_world(install_shill: bool = True, owner: str = "alice", **fixture_kwargs) -> World:
    """The standard world: the base image plus a git-like repository (and
    its out-of-tree deploy token) owned by ``owner``."""
    return (World(install_shill=install_shill)
            .for_user(owner)
            .with_vcs_repo(owner=owner, **fixture_kwargs))


#: One straight-line ambient probe touching the repository fixture — the
#: executor-equivalence suites run it across every execution strategy.
PROBE_AMBIENT = """\
#lang shill/ambient
src = open_dir("~/project/src");
entries = contents(src);
append(stdout, path(src) + "\\n");
"""


def probe_batch(jobs: int = 3, install_shill: bool = True, cache: bool = False,
                **fixture_kwargs):
    """Fixture probes over this world (see :mod:`repro.casestudies.probes`)."""
    return make_probe_batch(lambda: vcs_world(install_shill, **fixture_kwargs),
                            PROBE_AMBIENT, jobs=jobs, cache=cache)


@dataclass
class VcsResult:
    session: Session
    run: RunResult
    output: str


def _run(world: "World | Kernel", source: str, name: str, user: str) -> VcsResult:
    kernel = as_kernel(world)
    session = Session(kernel, user=user, scripts=SCRIPTS)
    run = session.run_ambient(source, name)
    return VcsResult(session, run, run.stdout)


def run_status(world: "World | Kernel", user: str = "alice") -> VcsResult:
    """List tracked files and the current commit number."""
    return _run(world, STATUS_AMBIENT, "vcs_status.ambient", user)


def run_commit(world: "World | Kernel", msg: str = "update", user: str = "alice") -> VcsResult:
    """Snapshot the worktree into ``.vcs/objects`` and append one commit."""
    return _run(world, COMMIT_AMBIENT.format(msg=msg), "vcs_commit.ambient", user)


def run_log(world: "World | Kernel", user: str = "alice") -> VcsResult:
    """Print the append-only commit log."""
    return _run(world, LOG_AMBIENT, "vcs_log.ambient", user)


def read_token_sandboxed(world: "World | Kernel", user: str = "alice",
                         policy: str = "") -> RunResult:
    """Try to read the deploy token from a ``shill-run`` sandbox.

    Under the default (empty) policy the sandbox holds no capability for
    ``~/secrets`` and the read is denied; a kernel-wide
    :meth:`~repro.api.World.with_policy_rules` allow rule flips it to a
    success with zero script changes — the executable demonstration in
    ``docs/policy.md``.
    """
    kernel = as_kernel(world)
    home = kernel.users.lookup(user).home
    from repro.api.sandboxes import Sandbox

    sandbox = Sandbox(kernel, policy, user=user, cwd=home)
    return sandbox.exec(["/bin/cat", f"{home}/secrets/deploy_token"])
