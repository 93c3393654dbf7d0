"""Wire channels: multiplexed exchanges, the version check, retirement.

The mux contracts: N threads share one connection, replies route by
channel id even arriving out of order; an older peer is refused,
readably, in either direction; an unsolicited GOODBYE is a clean
retirement, not a crash.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.remote.wire import (
    WIRE_VERSION,
    ChannelMux,
    Connection,
    WireClosed,
    WireVersionError,
    open_link,
)


def _pipe() -> tuple[Connection, Connection]:
    a, b = socket.socketpair()
    return Connection(a), Connection(b)


def _mux_pair(on_goodbye=None) -> tuple[ChannelMux, Connection]:
    """A client-side mux talking to a raw server-side connection the
    test scripts by hand."""
    client, server = _pipe()
    return ChannelMux(client, on_goodbye=on_goodbye), server


class TestChannelMux:
    def test_interleaved_submits_replies_out_of_order(self):
        """Two SUBMITs in flight at once on one connection; the peer
        answers them in *reverse* order and each waiter still gets its
        own reply — the whole point of channel tags."""
        mux, server = _mux_pair()
        first_sent = threading.Event()
        second_sent = threading.Event()
        results: dict[str, object] = {}

        def peer():
            # Collect both requests before answering either, then reply
            # newest-first: routing must come from the channel id, not
            # arrival order.
            a = server.recv()
            first_sent.set()
            b = server.recv()
            second_sent.set()
            for msg in (b, a):
                server.send("RESULT", {"channel": msg.fields["channel"],
                                       "index": msg.fields["index"]},
                            blob=b"r%d" % msg.fields["index"])

        thread = threading.Thread(target=peer)
        thread.start()

        def submit(i):
            reply = mux.request("SUBMIT", {"index": i})
            results[i] = (reply.fields["index"], reply.blob)

        t1 = threading.Thread(target=submit, args=(1,))
        t1.start()
        assert first_sent.wait(timeout=5)
        t2 = threading.Thread(target=submit, args=(2,))
        t2.start()
        for t in (thread, t1, t2):
            t.join(timeout=5)
        assert results == {1: (1, b"r1"), 2: (2, b"r2")}

    def test_channels_are_distinct_per_request(self):
        mux, server = _mux_pair()
        seen = []

        def peer():
            for _ in range(3):
                msg = server.recv()
                seen.append(msg.fields["channel"])
                server.send("PONG", {"channel": msg.fields["channel"]})

        thread = threading.Thread(target=peer)
        thread.start()
        for _ in range(3):
            mux.request("PING")
        thread.join(timeout=5)
        assert len(set(seen)) == 3

    def test_unsolicited_goodbye_is_clean_retirement(self):
        retired = threading.Event()
        mux, server = _mux_pair(on_goodbye=retired.set)
        server.send("GOODBYE", {"reason": "retiring"})
        server.close()
        assert retired.wait(timeout=5)
        assert mux.retired
        with pytest.raises(WireClosed, match="retired"):
            mux.request("SUBMIT", {"index": 0})

    def test_peer_death_fails_all_waiters(self):
        mux, server = _mux_pair()
        failures = []

        def submit():
            try:
                mux.request("SUBMIT", {"index": 0})
            except WireClosed as err:
                failures.append(err)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        # Let both requests reach the peer, then die without replying.
        server.recv()
        server.recv()
        server.close()
        for t in threads:
            t.join(timeout=5)
        assert len(failures) == 2


class _MiniAgent:
    """A scriptable server speaking just enough HELLO to negotiate."""

    def __init__(self, version: int):
        self.version = version
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        sock, _ = self._listener.accept()
        conn = Connection(sock)
        hello = conn.recv()
        assert hello.type == "HELLO"
        advertised = hello.fields["version"]
        conn.send("HELLO", {"version": min(self.version, advertised),
                            "pid": 1})


class TestNegotiation:
    @pytest.mark.parametrize("old", [1, 2, 3, 4])
    def test_older_peers_are_refused(self, agent_factory, old):
        """Every peer lives in this tree, so the wire speaks v5 only: an
        older agent is refused with a typed error, and an older client
        gets the agent's readable ERROR frame.  A v4 peer answers NEED
        with a BLOB frame this end no longer reads; a v3 peer ships
        snapshot frames this codec refuses, so its PREPARE would fail
        restore on a healthy agent; a v2 peer would also key templates
        on four ingredients (PREPARE under one key, SUBMIT under
        another) and could send callables."""
        agent = _MiniAgent(version=old)
        with pytest.raises(WireVersionError, match=f"wire version {old}"):
            open_link("127.0.0.1", agent.port)

        _proc, addr = agent_factory("v5-only")
        host, port = addr.rsplit(":", 1)
        conn = Connection(socket.create_connection((host, int(port))))
        reply = conn.request("HELLO", {"version": old})
        conn.close()
        assert reply.type == "ERROR"
        assert "no common wire version" in reply.fields["error"]

    def test_v2_peer_gets_a_mux(self):
        agent = _MiniAgent(version=WIRE_VERSION)
        link, hello = open_link("127.0.0.1", agent.port)
        assert isinstance(link, ChannelMux)
        assert hello.fields["version"] == WIRE_VERSION
        link.close()

    def test_peer_replying_above_our_version_is_refused(self):
        class Overeager(_MiniAgent):
            def _serve(self):
                sock, _ = self._listener.accept()
                conn = Connection(sock)
                conn.recv()
                conn.send("HELLO", {"version": WIRE_VERSION + 1})

        agent = Overeager(version=WIRE_VERSION + 1)
        with pytest.raises(WireVersionError, match="wire version"):
            open_link("127.0.0.1", agent.port)


class TestAgentRetirement:
    """SIGTERM = drain + GOODBYE + exit 0; SIGKILL = none of that.
    The distinction is what lets pools retire cleanly-shutdown agents
    without a health strike while striking crashed ones."""

    def test_sigterm_sends_goodbye_and_exits_zero(self, agent_factory):
        proc, addr = agent_factory("retiree")
        host, port = addr.rsplit(":", 1)
        retired = threading.Event()
        link, _hello = open_link(host, int(port), on_goodbye=retired.set)
        proc.terminate()  # SIGTERM: the clean path
        assert proc.wait(timeout=15) == 0
        assert retired.wait(timeout=10)
        assert isinstance(link, ChannelMux) and link.retired
        link.close()

    def test_pool_marks_sigtermed_host_retired_not_dead(self, agent_factory):
        from repro.remote.hostpool import HostPool

        proc, addr = agent_factory("retiree2")
        pool = HostPool([addr])
        [host] = pool.hosts
        pool.link_for(host)  # opens the link; GOODBYE routes to the pool
        proc.terminate()
        assert proc.wait(timeout=15) == 0
        # The mux reader delivers the GOODBYE asynchronously.
        deadline = threading.Event()
        for _ in range(100):
            if host.retired:
                break
            deadline.wait(0.05)
        assert host.retired and not host.alive
        assert host.strikes == 0  # a clean shutdown is not a strike
        pool.close_all(farewell=False)

    def test_sigkill_still_counts_as_a_crash(self, agent_factory):
        """The contrast case: a kill leaves no GOODBYE, so the next wire
        operation strikes the host."""
        from repro.remote.hostpool import HostPool
        from repro.remote.wire import WireError

        proc, addr = agent_factory("victim")
        pool = HostPool([addr])
        [host] = pool.hosts
        link = pool.link_for(host)
        proc.kill()
        proc.wait(timeout=15)
        with pytest.raises((WireError, OSError)):
            link.request("SUBMIT", {"index": 0})
        pool.mark_dead(host, "boom")
        assert not host.retired and host.strikes == 1
        pool.close_all(farewell=False)
