"""Pre-dispatch gating: `Batch(..., lint=...)` and the `repro lint` /
`repro batch --lint` CLI.  The headline guarantee — a statically-doomed
job is rejected with byte-identical diagnostics whether the batch
targets a sequential or a remote executor — is asserted directly."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import Diagnostic, FakeRuleSet, LintRejection, gate_jobs
from repro.api import (
    Batch,
    BatchJob,
    RemoteExecutor,
    SequentialExecutor,
    World,
)
from repro.api.caching import BoundedCache
from repro.__main__ import EXIT_BATCH_ERROR, main

DOOMED_CAP = """\
#lang shill/cap
provide scrub : {log : file(+read)} -> void;
scrub = fun(log) { write(log, ""); }
"""

DOOMED_JOB = """\
#lang shill/ambient
require "scrub.cap";
scrub(open_file("/home/alice/notes.txt"));
"""

CLEAN_JOB = """\
#lang shill/ambient
docs = open_dir("~/Documents");
append(stdout, path(docs) + "\\n");
"""


# ---------------------------------------------------------------------------
# gate_jobs
# ---------------------------------------------------------------------------


def jobs(*sources):
    return [BatchJob(source, None, f"job{i}") for i, source in enumerate(sources)]


def test_gate_mode_off_lints_nothing():
    assert gate_jobs(jobs(DOOMED_JOB), {"scrub.cap": DOOMED_CAP}, "off") == {}


def test_gate_mode_warn_reports_but_never_raises():
    reports = gate_jobs(jobs(DOOMED_JOB, CLEAN_JOB),
                        {"scrub.cap": DOOMED_CAP}, "warn")
    assert set(reports) == {0, 1}
    assert reports[1].clean


def test_gate_mode_strict_raises_for_transitively_doomed_job():
    # The job's own source is clean; the error lives in the required
    # script, which the runtime would load after the fork.
    with pytest.raises(LintRejection) as exc:
        gate_jobs(jobs(CLEAN_JOB, DOOMED_JOB), {"scrub.cap": DOOMED_CAP},
                  "strict")
    err = exc.value
    assert err.job_name == "job1"
    assert [d.code for d in err.diagnostics] == ["SH002"]
    assert "rejected by pre-dispatch lint" in str(err)
    assert err.traceback_text == ""


def test_gate_rejects_earliest_job_in_submission_order():
    with pytest.raises(LintRejection) as exc:
        gate_jobs(jobs(DOOMED_JOB, DOOMED_JOB), {"scrub.cap": DOOMED_CAP},
                  "strict")
    assert exc.value.job_name == "job0"


def test_gate_validates_mode():
    with pytest.raises(ValueError, match="lint mode"):
        gate_jobs([], {}, "paranoid")


def test_lint_rejection_pickles_with_diagnostics_and_footprint():
    with pytest.raises(LintRejection) as exc:
        gate_jobs(jobs(DOOMED_JOB), {"scrub.cap": DOOMED_CAP}, "strict")
    err = exc.value
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, LintRejection)
    assert clone.diagnostics == err.diagnostics
    assert str(clone) == str(err)
    assert clone.footprint == err.footprint


def test_fake_ruleset_drives_gating():
    boom = Diagnostic(code="X001", severity="error", message="no",
                      script="job0")
    with pytest.raises(LintRejection) as exc:
        gate_jobs(jobs(CLEAN_JOB), None, "strict", rules=FakeRuleSet([boom]))
    assert exc.value.diagnostics == (boom,)
    # An empty canned engine waves everything through.
    reports = gate_jobs(jobs(DOOMED_JOB), {"scrub.cap": DOOMED_CAP},
                        "strict", rules=FakeRuleSet())
    assert reports[0].clean


# ---------------------------------------------------------------------------
# Batch integration
# ---------------------------------------------------------------------------


def doomed_batch(**kwargs):
    batch = Batch(World().for_user("alice"),
                  scripts={"scrub.cap": DOOMED_CAP}, lint="strict", **kwargs)
    batch.add(DOOMED_JOB, name="doomed.ambient")
    return batch


def test_batch_validates_lint_mode():
    with pytest.raises(ValueError, match="lint"):
        Batch(World(), lint="yes please")


def test_strict_rejection_is_byte_identical_across_executors(tmp_path):
    def attempt(executor):
        try:
            doomed_batch().run(executor=executor)
        except LintRejection as err:
            return str(err), tuple(d.format() for d in err.diagnostics)
        raise AssertionError("lint rejection did not fire")

    # The remote executor points at an unreachable address: the gate
    # fires before any connection (or fork) is attempted.
    local = attempt(SequentialExecutor())
    remote = attempt(RemoteExecutor(hosts=["127.0.0.1:1"], store=tmp_path / "coord"))
    assert local == remote
    assert "SH002" in local[0]


def test_warn_mode_attaches_footprints_and_cache_stays_bare():
    world = World().for_user("alice").with_fixture("jpeg")
    cache = BoundedCache(64)
    linted = Batch(world, lint="warn", result_cache=cache)
    linted.add(CLEAN_JOB, name="walk.ambient")
    [result] = linted.run()
    assert result.ok
    assert result.footprint is not None
    assert result.footprint.script == "walk.ambient"
    assert "<stdout>" in result.footprint.writes

    # Same cache, lint off: the cached result must come back bare —
    # footprints are advisory metadata, not part of the result.
    plain = Batch(world, result_cache=cache)
    plain.add(CLEAN_JOB, name="walk.ambient")
    [cached] = plain.run()
    assert plain.stats["cache_hits"] == 1
    assert cached.footprint is None
    assert cached.fingerprint() == result.fingerprint()


def test_strict_mode_runs_clean_jobs_normally():
    batch = Batch(World().for_user("alice").with_fixture("jpeg"),
                  lint="strict", result_cache=BoundedCache(8))
    batch.add(CLEAN_JOB, name="walk.ambient")
    [result] = batch.run()
    assert result.ok and result.footprint is not None


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def script_dir(tmp_path):
    (tmp_path / "scrub.cap").write_text(DOOMED_CAP)
    (tmp_path / "doomed.ambient").write_text(DOOMED_JOB)
    return tmp_path


def test_repro_lint_human_and_exit_code(script_dir, capsys):
    status = main(["lint", str(script_dir)])
    out = capsys.readouterr().out
    assert status == 1  # SH002 is error severity
    assert "SH002" in out and "scrub.cap" in out
    assert "2 scripts checked" in out


def test_repro_lint_json(script_dir, capsys):
    status = main(["lint", str(script_dir / "scrub.cap"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["schema_version"] == 1
    assert payload["summary"]["rule_counts"]["SH002"] == 1
    [entry] = payload["scripts"]
    assert entry["footprint"]["exports"][0]["name"] == "scrub"


def test_repro_lint_usage_errors(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent.cap")]) == 2
    assert "no such file" in capsys.readouterr().err
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_repro_batch_strict_exits_3_with_script_and_diagnostic(script_dir, capsys):
    status = main(["batch", str(script_dir / "doomed.ambient"),
                   "--cap", str(script_dir / "scrub.cap"),
                   "--lint", "strict"])
    err = capsys.readouterr().err
    assert status == EXIT_BATCH_ERROR
    # The bugfix under test: the offending script's name and the first
    # diagnostic both reach stderr even though there is no traceback.
    assert "doomed.ambient" in err
    assert "SH002" in err and "rejected by pre-dispatch lint" in err


def test_repro_batch_lint_warn_still_runs(script_dir, capsys):
    (script_dir / "walk.ambient").write_text(CLEAN_JOB)
    status = main(["batch", str(script_dir / "walk.ambient"),
                   "--lint", "warn", "--no-cache"])
    out = capsys.readouterr().out
    assert status == 0
    assert "/home/alice/Documents" in out
