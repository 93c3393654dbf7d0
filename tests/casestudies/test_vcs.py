"""VCS case study: functionality, capability confinement, policy flips."""

from __future__ import annotations

import pytest

from repro.api import ThreadExecutor
from repro.casestudies.vcs import (
    SCRIPTS,
    probe_batch,
    read_token_sandboxed,
    run_commit,
    run_log,
    run_status,
    vcs_world,
)
from repro.errors import ContractViolation

def _object_names(world) -> list[str]:
    kernel = world.kernel
    sys = kernel.syscalls(kernel.spawn_process("root", "/"))
    fd = sys.open("/home/alice/project/.vcs/objects")
    try:
        return sorted(sys.getdents(fd))
    finally:
        sys.close(fd)


@pytest.fixture
def world():
    return vcs_world().boot()


class TestFunctionality:
    def test_status_reports_history_and_tracked_files(self, world):
        out = run_status(world).output
        assert out.startswith("# on commit 2\n")  # seeded history = 2
        assert "tracked: /home/alice/project/README\n" in out
        for i in range(4):
            assert f"tracked: /home/alice/project/src/mod{i}.c\n" in out
        # The metadata directory is never itself tracked.
        assert ".vcs" not in out.replace("# on", "")

    def test_commit_snapshots_appends_and_advances_head(self, world):
        result = run_commit(world, msg="add feature")
        assert result.output == "committed 3\n"
        log = run_log(world).output
        assert log.splitlines() == [
            "commit 1 seed-commit-1",
            "commit 2 seed-commit-2",
            "commit 3 add feature",
        ]
        objects = _object_names(world)
        assert "c3-0-README" in objects
        assert "c3-4-mod3.c" in objects
        assert len([o for o in objects if o.startswith("c3-")]) == 5

    def test_commits_accumulate_monotonically(self, world):
        assert run_commit(world, msg="one").output == "committed 3\n"
        assert run_commit(world, msg="two").output == "committed 4\n"
        assert run_status(world).output.startswith("# on commit 4\n")


class TestConfinement:
    def test_commit_never_touches_the_deploy_token(self, world):
        """The token lives outside every capability handed to the
        scripts; the dynamic footprint proves no code path reached it."""
        result = run_commit(world)
        touched = {path for _, path in result.run.touched}
        assert touched, "commit must record its dynamic footprint"
        assert not any("secrets" in path for path in touched)
        assert all(kind == "read" or "/.vcs/" in path
                   for kind, path in result.run.touched)

    def test_token_is_unreachable_from_an_empty_sandbox(self, world):
        result = read_token_sandboxed(world)
        assert result.status != 0
        assert result.denials
        assert "hunter2" not in result.stdout

    def test_scripts_lint_clean(self):
        from repro.analysis import lint_scripts

        reports = lint_scripts(dict(SCRIPTS), registry=dict(SCRIPTS))
        for name, report in reports.items():
            assert report.errors == (), (name, report.errors)


class TestPolicyFlips:
    def test_allow_rule_flips_the_token_denial_without_code_changes(self):
        world = vcs_world().with_policy_rules([], default="allow").boot()
        result = read_token_sandboxed(world)
        assert result.status == 0
        assert result.stdout == "hunter2-deploy-token\n"

    def test_deny_rule_freezes_history_but_not_status(self):
        """A declarative freeze of the commit log turns commits into
        contract violations blamed on the policy engine, while the
        read-only status path keeps working."""
        world = vcs_world().with_policy_rules([
            {"name": "freeze-history", "effect": "deny",
             "operations": ["append"],
             "paths": ["/home/alice/project/.vcs/log"]},
        ]).boot()
        assert run_status(world).run.ok
        with pytest.raises(ContractViolation) as exc:
            run_commit(world)
        assert "policy-engine:rules" in str(exc.value)
        # History is untouched: the log still ends at the seeded commits.
        assert run_log(world).output.splitlines()[-1] == "commit 2 seed-commit-2"


class TestExecutorEquivalence:
    def test_probe_batch_matches_across_sequential_and_thread(self):
        sequential = [r.fingerprint() for r in probe_batch().run()]
        with ThreadExecutor() as executor:
            threaded = [r.fingerprint() for r in probe_batch().run(executor=executor)]
        assert sequential == threaded
