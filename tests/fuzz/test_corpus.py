"""The pinned fuzz regression corpus plus the fuzz harness itself.

Corpus entries are stored the way falsifying examples are shipped —
:meth:`Scenario.describe` JSON — so a CI artifact pastes straight into
this file as a new regression entry.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz import (
    InvariantViolation,
    Scenario,
    check_scenario,
    run_fuzz,
)

# ---------------------------------------------------------------------------
# the seeded edge-case corpus
# ---------------------------------------------------------------------------

#: Edge case 1 — the *empty* policy: an engine with no rules installed
#: must be indistinguishable from no engine at all.
EMPTY_POLICY = {
    "world": {"fixture": "jpeg", "extra_files": []},
    "policy": {"default": "defer", "rules": []},
    "commands": [["/bin/cat", "/home/alice/Documents/notes.txt"],
                 ["/bin/ls", "/home/alice/Documents"]],
    "ambient_ops": [["read", "/home/alice/Documents/notes.txt"],
                    ["list", "/home/alice/Documents"]],
}

#: Edge case 2 — the deny-all policy: every session-scoped check is
#: refused, and every one of those denials must still be audited (and
#: identical across executors).
DENY_ALL_POLICY = {
    "world": {"fixture": "vcs", "extra_files": []},
    "policy": {"default": "deny", "rules": [{"effect": "deny"}]},
    "commands": [["/bin/cat", "/home/alice/project/README"],
                 ["/bin/echo", "fuzz"]],
    "ambient_ops": [["read", "/home/alice/project/README"]],
}

#: Edge case 3 — a policy granting a *nonexistent* path: an allow rule
#: for a file that is not in the world must neither conjure the file
#: into existence nor corrupt the checks on real paths.
NONEXISTENT_GRANT_POLICY = {
    "world": {"fixture": "none", "extra_files": [["f0.txt", "alpha\n"]]},
    "policy": {"default": "defer",
               "rules": [{"effect": "allow",
                          "paths": ["/home/alice/does-not-exist.txt"]}]},
    "commands": [["/bin/cat", "/home/alice/does-not-exist.txt"],
                 ["/bin/cat", "/home/alice/fuzz/f0.txt"]],
    "ambient_ops": [["read", "/home/alice/fuzz/f0.txt"],
                    ["list", "/home/alice"]],
}

CORPUS = {
    "empty-policy": EMPTY_POLICY,
    "deny-all-policy": DENY_ALL_POLICY,
    "nonexistent-path-grant": NONEXISTENT_GRANT_POLICY,
}


@pytest.mark.parametrize("name", sorted(CORPUS), ids=str)
def test_corpus_entry_upholds_all_invariants(name):
    scenario = Scenario.from_json(CORPUS[name])
    check_scenario(scenario)


def test_corpus_entries_survive_the_artifact_round_trip():
    """describe() → JSON → from_json() is the falsifying-example wire
    format; a corpus entry must be a fixed point of it."""
    for name, data in CORPUS.items():
        scenario = Scenario.from_json(data)
        dumped = json.loads(json.dumps(scenario.describe()))
        assert Scenario.from_json(dumped) == scenario, name
        # The stored entry matches describe() modulo the rendered script
        # (describe() adds it for human readers).
        stripped = {k: v for k, v in scenario.describe().items()
                    if k != "ambient_script"}
        assert stripped == data, name


def test_deny_all_scenario_actually_denies():
    """The deny-all corpus entry must have teeth: its sandboxed command
    is refused, with every denial audited."""
    from repro.fuzz.invariants import sandboxed_exec

    scenario = Scenario.from_json(DENY_ALL_POLICY)
    result = sandboxed_exec(scenario, ("/bin/cat", "/home/alice/project/README"))
    assert result is not None and result.status != 0
    assert result.denials
    assert result.ops["mac_denials"] == len(result.denials)


def test_executor_equivalence_leaves_the_default_store_alone(tmp_path, monkeypatch):
    """Regression: the store leg of the equivalence check runs on a
    store the check owns, never on the user's default snapshot store."""
    from repro.fuzz.invariants import check_executor_equivalence

    default_store = tmp_path / "default-store"
    default_store.mkdir()
    monkeypatch.setenv("REPRO_STORE", str(default_store))
    check_executor_equivalence(Scenario.from_json(EMPTY_POLICY))
    assert list(default_store.iterdir()) == []


# ---------------------------------------------------------------------------
# the harness itself
# ---------------------------------------------------------------------------

class TestRunner:
    def test_small_run_is_green_and_deterministic(self):
        report = run_fuzz(runs=5, seed=0)
        assert report.ok and report.runs == 5 and report.seed == 0
        assert report.failure is None and report.falsifying is None

    def test_violation_is_caught_shrunk_and_described(self, monkeypatch, tmp_path):
        """An invariant violation must surface as a failed report whose
        falsifying example is complete, JSON-dumpable, and minimal
        enough to rebuild."""
        import repro.fuzz.runner as runner_mod

        real_check = runner_mod.check_scenario

        def broken_check(scenario):
            if scenario.policy is not None and scenario.policy.rules:
                raise InvariantViolation("synthetic", "injected failure", scenario)
            real_check(scenario)

        monkeypatch.setattr(runner_mod, "check_scenario", broken_check)
        report = run_fuzz(runs=30, seed=0)
        assert not report.ok
        assert "synthetic" in report.failure
        rebuilt = Scenario.from_json(report.falsifying)
        assert rebuilt.policy is not None and rebuilt.policy.rules
        # Shrinking drove the example toward minimality: one rule, and
        # no commands/ops beyond hypothesis's floor of one command.
        assert len(rebuilt.policy.rules) == 1
        path = report.write_falsifying(tmp_path / "falsifying.json")
        assert Scenario.from_json(json.loads(path.read_text())) == rebuilt

    def test_generated_scenarios_talk_about_their_world(self):
        """Strategy sanity: every generated policy path and script
        target comes from the world's own alphabet."""
        from hypothesis import HealthCheck, given, settings
        from repro.fuzz import scenarios

        @settings(max_examples=25, database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(scenarios())
        def property(scenario):
            alphabet = set(scenario.world.policy_paths())
            if scenario.policy is not None:
                for rule in scenario.policy.rules:
                    for p in rule.paths or ():
                        assert p in alphabet
            for op, target in scenario.ambient_ops:
                assert op in ("list", "path", "read", "append")
                assert target in scenario.world.file_paths() + scenario.world.dir_paths()
            script = scenario.ambient_script()
            assert script.startswith("#lang shill/ambient")
            assert script.endswith('append(stdout, "done\\n");\n')

        property()


class TestCli:
    def test_cli_green_run_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--runs", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "3 scenario(s)" in out

    def test_cli_failure_exits_one_and_writes_artifact(self, monkeypatch,
                                                       tmp_path, capsys):
        from repro.__main__ import main
        import repro.fuzz.runner as runner_mod

        def always_broken(scenario):
            raise InvariantViolation("synthetic", "injected failure", scenario)

        monkeypatch.setattr(runner_mod, "check_scenario", always_broken)
        artifact = tmp_path / "falsifying.json"
        status = main(["fuzz", "--runs", "3", "--seed", "0",
                       "--artifact", str(artifact)])
        assert status == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and str(artifact) in err
        Scenario.from_json(json.loads(artifact.read_text()))  # parses back
