"""The shared wire server: the lifecycle of the one listening end that
agents and the gateway both run."""

from __future__ import annotations

import threading
import time

from repro.remote.agent import AgentServer
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
