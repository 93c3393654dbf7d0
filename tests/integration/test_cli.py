"""CLI tests for `python -m repro`."""

from __future__ import annotations

import pathlib
import re
import sys as _sys

import pytest

from repro.__main__ import main


def test_demo(capsys):
    assert main(["demo"]) == 0
    assert "/home/alice/Documents/dog.jpg" in capsys.readouterr().out


def test_run_with_host_scripts(tmp_path, capsys):
    cap = tmp_path / "hello.cap"
    cap.write_text(
        "#lang shill/cap\n"
        "provide hello : {out : file(+write, +append)} -> void;\n"
        "hello = fun(out) { append(out, \"hello from shill\\n\"); }\n"
    )
    ambient = tmp_path / "main.ambient"
    ambient.write_text(
        "#lang shill/ambient\nrequire \"hello.cap\";\nhello(stdout);\n"
    )
    assert main(["run", str(ambient), "--cap", str(cap)]) == 0
    assert "hello from shill" in capsys.readouterr().out


def test_shill_run_allowed(tmp_path, capsys):
    policy = tmp_path / "cat.policy"
    policy.write_text(
        "/ : +lookup with {}\n"
        "/etc : +lookup with {}\n"
        "/lib : +lookup, +read, +stat, +path\n"
        "/libexec : +lookup, +read, +stat, +path\n"
        "/etc/passwd : +read, +stat, +path\n"
        "/etc/locale.conf : +read, +stat, +path\n"
    )
    assert main(["shill-run", str(policy), "/bin/cat", "/etc/passwd"]) == 0
    assert "alice:1001" in capsys.readouterr().out


def test_shill_run_denied_reports(tmp_path, capsys):
    policy = tmp_path / "empty.policy"
    policy.write_text("")
    status = main(["shill-run", str(policy), "/bin/cat", "/etc/passwd"])
    assert status != 0
    assert "denied operations" in capsys.readouterr().out


def test_shill_run_debug_reports_grants(tmp_path, capsys):
    policy = tmp_path / "empty.policy"
    policy.write_text("")
    assert main(["shill-run", str(policy), "--debug", "/bin/cat", "/etc/passwd"]) == 0
    out = capsys.readouterr().out
    assert "auto-grant" in out and "+read" in out


WALK_AMBIENT = (
    '#lang shill/ambient\n'
    'docs = open_dir("~/Documents");\n'
    'append(stdout, path(docs) + "\\n");\n'
)


def _walk_script(tmp_path):
    script = tmp_path / "walk.ambient"
    script.write_text(WALK_AMBIENT)
    return str(script)


def test_batch_executor_flag(tmp_path, capsys):
    script = _walk_script(tmp_path)
    assert main(["batch", script, script, "--executor", "thread", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("/home/alice/Documents") == 2
    assert "2 jobs" in out


def test_batch_verbose_reports_cache_verdicts(tmp_path, capsys):
    from repro.api import clear_result_cache

    clear_result_cache()
    script = _walk_script(tmp_path)
    assert main(["batch", script, script, "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "walk.ambient: cache miss" in err
    assert "walk.ambient: cache hit" in err
    assert "cache report: 1 hits, 1 misses, 0 invalidated, 0 uncacheable" in err


@pytest.mark.parametrize("executor", ["sequential", "process", "store"])
def test_batch_verbose_names_the_boot_source(executor, tmp_path, capsys,
                                             monkeypatch):
    """Sequential jobs fork the in-process template; process and store
    workers boot from a blob in the executor's store, which for the
    process executor is a temporary directory of its own."""
    import gc
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    script = _walk_script(tmp_path)
    store = ["--store", str(tmp_path / "snapstore")] if executor == "store" else []
    argv = ["batch", script, "--no-cache", "--verbose", "--executor", executor]
    assert main(argv + store) == 0
    gc.collect()
    note = [line for line in capsys.readouterr().err.splitlines()
            if "boot source" in line]
    if executor == "sequential":
        assert note == ["repro batch: boot source = memory (sequential "
                        "executor; jobs fork the in-process template)"]
        return
    [line] = note
    match = re.fullmatch(r"repro batch: boot source = store "
                         r"\(blob [0-9a-f]{12}, store (.+)\)", line)
    assert match, line
    root = pathlib.Path(match.group(1))
    if executor == "store":
        assert root == tmp_path / "snapstore"
    else:
        assert root.parent == tmp_path
        assert root.name.startswith("repro-process-")
        assert not root.exists()  # removed with the executor


def test_batch_store_executor_populates_and_reuses_the_store(tmp_path, capsys):
    from repro.api import SnapshotStore, clear_boot_cache

    script = _walk_script(tmp_path)
    store_dir = tmp_path / "snapstore"
    argv = ["batch", script, "--executor", "store", "--store", str(store_dir),
            "--workers", "2"]
    assert main(argv) == 0
    store = SnapshotStore(store_dir)
    assert len(store) == 1
    assert len(store.world_links()) == 1
    clear_boot_cache()  # a new process would start cold: boot from disk
    assert main(argv) == 0
    assert "/home/alice/Documents" in capsys.readouterr().out
    assert len(SnapshotStore(store_dir)) == 1


def test_batch_engine_error_exits_3_with_job_on_stderr(tmp_path, capsys, monkeypatch):
    """Satellite: BatchExecutionError through the CLI — exit code and a
    stderr line naming the failing job."""
    from repro.api import sessions

    def explode(self, source, name="<ambient>"):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(sessions.Session, "run_ambient", explode)
    script = _walk_script(tmp_path)
    status = main(["batch", script, "--no-cache"])
    assert status == 3
    err = capsys.readouterr().err
    assert "repro batch:" in err
    assert "walk.ambient" in err
    assert "RuntimeError: engine bug" in err


@pytest.mark.skipif(_sys.platform != "linux",
                    reason="relies on fork-start workers inheriting the patch")
def test_batch_worker_error_exits_3_through_process_executor(tmp_path, capsys, monkeypatch):
    from repro.api import sessions

    def explode(self, source, name="<ambient>"):
        raise RuntimeError("engine bug in worker")

    monkeypatch.setattr(sessions.Session, "run_ambient", explode)
    script = _walk_script(tmp_path)
    status = main(["batch", script, "--no-cache", "--executor", "process",
                   "--workers", "2"])
    assert status == 3
    err = capsys.readouterr().err
    assert "walk.ambient" in err
    assert "RuntimeError: engine bug in worker" in err


def test_store_ls_and_gc(tmp_path, capsys):
    from repro.api import SnapshotStore

    store_dir = tmp_path / "snapstore"
    store = SnapshotStore(store_dir)
    digest = store.put(b"machine-bytes")
    store.link_world("wdigest", digest)

    assert main(["store", "ls", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert digest[:16] in out
    assert "worlds=1" in out
    assert "total: 1 blob(s)" in out

    assert main(["store", "gc", "--keep", "0", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "evicted 1 blob(s)" in out
    assert len(SnapshotStore(store_dir)) == 0
    assert SnapshotStore(store_dir).world_links() == {}
