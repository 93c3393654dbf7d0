'''Case study 1: grading student submissions (section 4.1).

Two secured variants, exactly as in the paper:

* **Sandboxed Bash script** — the original ``grade.sh`` runs unmodified
  inside one SHILL sandbox.  A 22-line capability-safe wrapper (14 lines
  of contract) plus a 22-line ambient script.  Guarantees: read-only
  submissions and tests, confined writes.

* **Pure SHILL script** — grading rewritten in SHILL (78 lines, 6 of
  contract; 16-line ambient script).  Adds the fine-grained guarantee the
  Bash version cannot give: "while grading a student's submission, no
  other student's submission, working-directory files, or results file
  can be accessed", and grade files are append-only from the graded
  code's perspective.
'''

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunResult, Session, World, as_kernel
from repro.casestudies.probes import make_probe_batch
from repro.kernel.kernel import Kernel

SANDBOXED_CAP_SCRIPT = """\
#lang shill/cap
require shill/native;

provide grade_all :
  {wallet : native_wallet,
   submissions : is_dir && readonly,
   tests : is_dir && readonly,
   working : dir(+lookup, +contents, +path, +stat,
                 +create-file with full_privs,
                 +create-dir with full_privs),
   grades : dir(+lookup, +contents, +path, +stat,
                +create-file with full_privs),
   tmp : dir(+lookup, +path, +stat,
             +create-file with full_privs),
   devnull : file(+read, +write, +append, +stat, +path)} -> is_num;

grade_all = fun(wallet, submissions, tests, working, grades, tmp, devnull) {
  grade_sh = pkg_native("grade.sh", wallet);
  grade_sh([submissions, tests, working, grades],
           extras = [wallet, submissions, tests, working, grades, tmp, devnull]);
}
"""

SANDBOXED_AMBIENT_SCRIPT = """\
#lang shill/ambient

require shill/native;
require "grading_sandboxed.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
submissions = open_dir("~/submissions");
tests = open_dir("~/tests");
working = open_dir("~/working");
grades = open_dir("~/grades");
tmp = open_dir("/tmp");
devnull = open_file("/dev/null");
grade_all(wallet, submissions, tests, working, grades, tmp, devnull);
"""

PURE_SHILL_CAP_SCRIPT = """\
#lang shill/cap
require shill/native;

provide grade :
  {wallet : native_wallet,
   submissions : is_dir && readonly,
   tests : is_dir && readonly,
   working : dir(+lookup, +path, +stat, +create-dir with full_privs),
   grades : dir(+create-file with {+append, +stat, +path}),
   tmp : dir(+lookup, +path, +stat, +create-file with full_privs)} -> is_num;

# Grade every submission; each student is compiled and run with
# capabilities for *their own* files only.  Returns the student count.
grade = fun(wallet, submissions, tests, working, grades, tmp) {
  ocamlc = pkg_native("ocamlc", wallet);
  ocamlrun = pkg_native("ocamlrun", wallet);
  names = test_names(tests);
  for student in contents(submissions) {
    subdir = lookup(submissions, student);
    if !is_syserror(subdir) then
      grade_one(ocamlc, ocamlrun, student, subdir, tests, names,
                working, grades, tmp);
  }
  length(contents(submissions));
}

# The names of the tests: every "<t>.in" entry, stripped of its suffix.
test_names = fun(tests) {
  collect_names(contents(tests), []);
}

collect_names = fun(entries, acc) {
  if length(entries) == 0 then acc
  else {
    entry = nth(entries, 0);
    rest = remove_first(entries);
    if ends_with(entry, ".in") then
      collect_names(rest, push(acc, nth(split(entry, "."), 0)))
    else
      collect_names(rest, acc);
  }
}

remove_first = fun(l) { drop_n(l, 1, []); }

drop_n = fun(l, n, acc) {
  if length(l) == n then acc
  else drop_n_go(l, n, acc);
}

drop_n_go = fun(l, n, acc) {
  drop_n(l, n + 1, push(acc, nth(l, n)));
}

# One student: private work dir, compile, run each test, record score.
grade_one = fun(ocamlc, ocamlrun, student, subdir, tests, names,
                working, grades, tmp) {
  work = create_dir(working, student);
  gradefile = create_file(grades, student);
  submission = lookup(subdir, "main.ml");
  if is_syserror(submission) then
    append(gradefile, student + ": 0/" + to_string(length(names)) + " (no submission)\\n")
  else {
    status = ocamlc(["-o", path(work) + "/main.byte", submission],
                    extras = [work, submission, tmp]);
    if status == 0 then {
      bytecode = lookup(work, "main.byte");
      score = run_tests(ocamlrun, bytecode, tests, names, work, 0);
      append(gradefile, student + ": " + to_string(score) + "/" +
             to_string(length(names)) + "\\n");
    } else
      append(gradefile, student + ": 0/" + to_string(length(names)) + " (compile error)\\n");
  }
}

run_tests = fun(ocamlrun, bytecode, tests, names, work, i) {
  if i == length(names) then 0
  else {
    passed = run_one(ocamlrun, bytecode, tests, nth(names, i), work);
    rest = run_tests(ocamlrun, bytecode, tests, names, work, i + 1);
    if passed then 1 + rest else rest;
  }
}

run_one = fun(ocamlrun, bytecode, tests, test, work) {
  input = lookup(tests, test + ".in");
  expected = lookup(tests, test + ".expected");
  outfile = create_file(work, test + ".out");
  status = ocamlrun([bytecode], stdin = input, stdout = outfile,
                    extras = [work, bytecode]);
  if status == 0 then read(outfile) == read(expected) else false;
}
"""

PURE_SHILL_AMBIENT_SCRIPT = """\
#lang shill/ambient

require shill/native;
require "grading_shill.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
submissions = open_dir("~/submissions");
tests = open_dir("~/tests");
working = open_dir("~/working");
grades = open_dir("~/grades");
tmp = open_dir("/tmp");
grade(wallet, submissions, tests, working, grades, tmp);
"""

SHELLSCRIPT_CAP_SCRIPT = SANDBOXED_CAP_SCRIPT.replace(
    'pkg_native("grade.sh", wallet)', 'pkg_native("grade-sh", wallet)'
)

SHELLSCRIPT_AMBIENT_SCRIPT = SANDBOXED_AMBIENT_SCRIPT.replace(
    "grading_sandboxed.cap", "grading_shellscript.cap"
)

SCRIPTS = {
    "grading_sandboxed.cap": SANDBOXED_CAP_SCRIPT,
    "grading_shellscript.cap": SHELLSCRIPT_CAP_SCRIPT,
    "grading_shill.cap": PURE_SHILL_CAP_SCRIPT,
}


def grading_world(install_shill: bool = True, **fixture_kwargs) -> World:
    """The standard world this case study runs against: the base image
    plus the student-submission fixture.  Declarative, so repeated boots
    hit the boot-image cache and fork instead of rebuilding."""
    return World(install_shill=install_shill).with_grading_fixture(**fixture_kwargs)


#: One straight-line ambient probe touching the submissions fixture — the
#: executor-equivalence suites run it across every execution strategy.
PROBE_AMBIENT = """\
#lang shill/ambient
subs = open_dir("/home/tester/submissions");
entries = contents(subs);
append(stdout, path(subs) + "\\n");
"""


def probe_batch(jobs: int = 3, install_shill: bool = True, cache: bool = False,
                **fixture_kwargs):
    """Fixture probes over this world (see :mod:`repro.casestudies.probes`)."""
    return make_probe_batch(lambda: grading_world(install_shill, **fixture_kwargs),
                            PROBE_AMBIENT, jobs=jobs, cache=cache)


@dataclass
class GradingResult:
    session: Session
    run: RunResult
    grades: dict[str, str]


def _collect_grades(kernel: Kernel, grades_dir: str) -> dict[str, str]:
    sys = kernel.syscalls(kernel.spawn_process("tester", "/home/tester"))
    out: dict[str, str] = {}
    for name in sys.contents(grades_dir):
        out[name] = sys.read_whole(f"{grades_dir}/{name}").decode()
    return out


def run_sandboxed_grading(world: "World | Kernel", user: str = "tester") -> GradingResult:
    """The "Sandboxed" configuration: grade.sh in one SHILL sandbox."""
    kernel = as_kernel(world)
    session = Session(kernel, user=user, scripts=SCRIPTS)
    run = session.run_ambient(SANDBOXED_AMBIENT_SCRIPT, "grading_sandboxed.ambient")
    return GradingResult(session, run, _collect_grades(kernel, f"/home/{user}/grades"))


def run_shellscript_grading(world: "World | Kernel", user: str = "tester") -> GradingResult:
    """The sandboxed configuration with the grader as an *actual shell
    script* (/usr/local/bin/grade-sh, run by the simulated /bin/sh via
    its shebang) — the closest analogue of the paper's secured Bash
    script."""
    kernel = as_kernel(world)
    session = Session(kernel, user=user, scripts=SCRIPTS)
    run = session.run_ambient(SHELLSCRIPT_AMBIENT_SCRIPT, "grading_shellscript.ambient")
    return GradingResult(session, run, _collect_grades(kernel, f"/home/{user}/grades"))


def run_shill_grading(world: "World | Kernel", user: str = "tester") -> GradingResult:
    """The "SHILL version": fine-grained per-student isolation."""
    kernel = as_kernel(world)
    session = Session(kernel, user=user, scripts=SCRIPTS)
    run = session.run_ambient(PURE_SHILL_AMBIENT_SCRIPT, "grading_shill.ambient")
    return GradingResult(session, run, _collect_grades(kernel, f"/home/{user}/grades"))


def run_baseline_grading(world: "World | Kernel", user: str = "tester") -> dict[str, str]:
    """No SHILL at all: run the grading *shell script* with the user's
    full ambient authority (the paper's baseline Bash script)."""
    kernel = as_kernel(world)
    launcher = kernel.spawn_process(user, f"/home/{user}")
    sys = kernel.syscalls(launcher)
    base = f"/home/{user}"
    status = sys.spawn(
        "/usr/local/bin/grade-sh",
        ["grade-sh", f"{base}/submissions", f"{base}/tests", f"{base}/working", f"{base}/grades"],
    )
    if status != 0:
        raise RuntimeError(f"grade-sh failed with status {status}")
    return _collect_grades(kernel, f"{base}/grades")
