"""repro.serve — the long-lived gateway over a dynamic agent fleet.

``python -m repro serve`` turns the batch cluster from a *per-run*
construction (a coordinator that dials a fixed host list, runs its
batch, and hangs up) into a *service*: one gateway process that agents
join by announcing themselves, that admits client jobs under per-user
rate limits and a bounded queue, and that survives agents restarting
under it mid-batch.  Clients reach it through
:class:`~repro.api.executors.serve.ServeExecutor` — on the wire the
gateway is just one very large agent, so the determinism story
(byte-identical fingerprints across every executor) extends to the
served fleet unchanged.

The pieces:

* :class:`~repro.serve.gateway.Gateway` — the server, on the same
  threaded :class:`~repro.remote.server.WireServer` an agent runs:
  clients northbound, the agent fleet southbound, a JSONL request log
  for everything it decides;
* :class:`~repro.serve.admission.AdmissionController` — the front
  door: per-user token buckets + a global pending bound, refusals as
  typed ``BUSY {retry_after}`` frames;
* :func:`~repro.serve.gateway.serve_main` — the ``python -m repro
  serve`` entrypoint;
* :func:`~repro.serve.client.spawn_local_gateway` — the test/CI
  helper: spawn a gateway subprocess on an ephemeral port and discover
  its address.

See ``docs/serving.md`` for the operational walkthrough.
"""

from repro.serve.admission import AdmissionController
from repro.serve.client import spawn_local_gateway
from repro.serve.gateway import Gateway, serve_main

__all__ = [
    "AdmissionController",
    "Gateway",
    "serve_main",
    "spawn_local_gateway",
]
