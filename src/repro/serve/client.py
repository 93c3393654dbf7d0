"""Client-side conveniences for the gateway: spawn one locally.

The serving side lives in :mod:`repro.serve.gateway`; the *client* side
of the protocol is just :class:`~repro.api.executors.serve
.ServeExecutor` (the gateway speaks the agent wire protocol, so the
executor needs nothing gateway-specific beyond an address).  What tests,
benchmarks and the CI smoke step do need is a way to stand a real
gateway up as a subprocess and learn its ephemeral port — the exact
shape :func:`repro.remote.agent.spawn_local_agent` already has for
agents.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.remote.agent import _spawn


def spawn_local_gateway(store: "Path | str", *, host: str = "127.0.0.1",
                        policy: "str | None" = None, concurrency: int = 4,
                        rate: "float | None" = None,
                        burst: "float | None" = None,
                        max_pending: "int | None" = None,
                        request_log: "Path | str | None" = None,
                        result_cache: "int | None" = None,
                        ) -> "tuple[subprocess.Popen, str]":
    """Spawn one gateway subprocess; returns ``(process, "host:port")``.

    Runs ``python -m repro serve --port 0`` with ``src`` on
    ``PYTHONPATH``, waits for the ``GATEWAY LISTENING`` readiness line,
    and hands back the discovered address — ready to be passed as
    ``--announce`` to agents and as ``gateway=`` to a
    :class:`~repro.api.executors.serve.ServeExecutor`.  The caller owns
    the process (``proc.kill()``, or ``proc.terminate()`` for a clean
    stop).
    """
    args = ["--store", str(store), "--host", host, "--port", "0",
            "--concurrency", str(concurrency)]
    if policy:
        args += ["--policy", policy]
    if rate is not None:
        args += ["--rate", str(rate)]
    if burst is not None:
        args += ["--burst", str(burst)]
    if max_pending is not None:
        args += ["--max-pending", str(max_pending)]
    if request_log is not None:
        args += ["--request-log", str(request_log)]
    if result_cache is not None:
        args += ["--result-cache", str(result_cache)]
    return _spawn("serve", "gateway", args)
