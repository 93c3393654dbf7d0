"""The shared wire server: the lifecycle of the one listening end that
agents and the gateway both run."""

from __future__ import annotations

import threading
import time

import pytest

from repro.remote.agent import AgentServer, spawn_local_agent
from repro.remote.wire import connect


class TestLifecycle:
    def test_shutdown_stops_serve_forever(self, tmp_path):
        """``shutdown()`` must wake a serving thread blocked in
        ``accept()``: closing the listener alone leaves it blocked, and
        an in-process server (the gateway test fixture) never stops."""
        server = AgentServer(store=tmp_path / "store")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn, hello = connect(*server.address)  # it is serving
        assert hello.fields["store"] == str(server.store.root)
        conn.close()
        time.sleep(0.2)  # back in accept()
        server.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()


def drain_thread(proc):
    """The thread that drains a spawned child's stdout."""
    [thread] = [t for t in threading.enumerate() if t.name == f"drain-{proc.pid}"]
    return thread


def test_an_agent_that_cannot_start_is_reaped_and_reported(tmp_path):
    """No readiness line (the store path runs through a file): the child
    is killed and reaped, and the error carries its exit status (1, or
    -9 if the kill lands before the exit completes), not None."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(RuntimeError, match=r"agent failed to start \(exit (1|-9)\): ''"):
        spawn_local_agent(blocker / "store")


def test_a_spawned_agents_drain_closes_its_pipe(tmp_path):
    """The drain thread reads the child's stdout to EOF and closes it;
    left open, the pipe lingers until garbage collection (a
    ResourceWarning under ``python -X dev``)."""
    proc, _addr = spawn_local_agent(tmp_path / "store")
    try:
        drain = drain_thread(proc)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    drain.join(timeout=10)
    assert not drain.is_alive()
    assert proc.stdout.closed
