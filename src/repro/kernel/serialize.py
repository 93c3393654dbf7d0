"""Deterministic kernel snapshots: one booted machine as bytes.

The snapshot codec is what lets the batch engine scale past the GIL: a
booted template kernel is serialized **once**, shipped to worker
processes, and each worker restores a private machine and forks it per
job — the process-parallel analogue of handing every workload its own
cheaply-instantiated OS instance.

The codec is a thin, versioned wrapper over :mod:`pickle`; the real
contract lives in explicit ``__getstate__``/``__setstate__``/
``__reduce__`` hooks on the kernel's subsystems:

* :class:`~repro.kernel.vfs.Vnode` — slot-by-slot state; hard links and
  the name cache survive via the pickle memo, copy-on-write buffer flags
  cross verbatim;
* :class:`~repro.kernel.proc.ProcessTable` — pid watermark only (live
  processes are per-run state, as across :meth:`Kernel.fork`);
* :class:`~repro.kernel.sockets.Network` — registered services and the
  mutation watermark; live listeners and listen hooks are dropped;
* :class:`~repro.sandbox.session.SessionManager` — audit history and
  the sid watermark; live sessions are dropped;
* :class:`~repro.kernel.devices.CharDevice` — stateless devices reduce
  to a registered factory name; :class:`~repro.kernel.devices.TtyDevice`
  snapshots its capture buffers;
* :class:`~repro.kernel.kernel.Kernel` — fixed field order, stats sinks
  re-wired on restore.

**Determinism.**  Two machines with the same construction history (same
build steps, same run history) produce byte-identical snapshots: every
container in the state graph is either insertion-ordered (dicts, lists)
or explicitly ordered by the hooks, and wall-clock fields
(``boot_time``) are excluded.  ``snapshot_digest`` exposes that property
as a hash — the process executor's determinism tests gate on it.  (A
machine and its *restore* are behaviourally identical but may snapshot
to different bytes once — restoring normalises pickle's identity-based
string sharing — after which re-snapshotting is a fixed point.)

**Frame.**  A snapshot is one frame kind: the ``SHILLK`` magic, one
:data:`SNAPSHOT_VERSION` byte, then the pickled kernel at the pinned
:data:`SNAPSHOT_PROTOCOL`.  A frame whose version byte differs fails
with :class:`SnapshotError`, which every consumer treats as a cache
miss and rebuilds.  :func:`restore_kernel` is the one place snapshot
bytes are unpickled.

**What does not cross** (same list as :meth:`Kernel.fork`, documented
in docs/determinism.md): live processes, open sockets and
listeners, and entered sandbox sessions.  Snapshots, like forks, are
taken *between* runs, when none of that state is load-bearing.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

#: Pinned pickle protocol: snapshots must mean the same bytes on every
#: interpreter the CI matrix runs (3.10–3.12), so the codec never floats
#: with ``pickle.HIGHEST_PROTOCOL``.
SNAPSHOT_PROTOCOL = 5

#: Bumped whenever the snapshot state layout changes incompatibly.
#: v2: lazily allocated Label slots, Vnode state without the runtime
#: lazy flag.  v3: one frame kind, so the header lost its kind byte.
SNAPSHOT_VERSION = 3

_MAGIC = b"SHILLK"

#: magic + one version byte; the pickle body follows.
_HEADER_LEN = len(_MAGIC) + 1


class SnapshotError(Exception):
    """A snapshot could not be encoded or decoded."""


def snapshot_kernel(kernel: "Kernel") -> bytes:
    """Serialize one booted machine to self-describing bytes."""
    try:
        body = pickle.dumps(kernel, protocol=SNAPSHOT_PROTOCOL)
    except Exception as err:  # unpicklable state is a caller bug worth naming
        raise SnapshotError(
            f"kernel state did not serialize: {type(err).__name__}: {err}"
        ) from err
    return _MAGIC + bytes([SNAPSHOT_VERSION]) + body


def restore_kernel(data: bytes) -> "Kernel":
    """Rebuild a machine from :func:`snapshot_kernel` bytes.

    The restored kernel is indistinguishable from a fork of the source:
    same vnode tree, users, programs, MAC policies, op counters, audit
    history, and allocation watermarks — and therefore the same
    ``state_epoch``, so world-layer pristine checks keep holding.
    """
    from repro.kernel.kernel import Kernel

    if len(data) <= _HEADER_LEN:
        raise SnapshotError("truncated snapshot")
    if data[: len(_MAGIC)] != _MAGIC:
        raise SnapshotError("not a kernel snapshot (bad magic)")
    version = data[len(_MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    try:
        kernel = pickle.loads(data[_HEADER_LEN:])
    except Exception as err:  # truncated/corrupt body: uphold the contract
        raise SnapshotError(
            f"snapshot body did not decode: {type(err).__name__}: {err}"
        ) from err
    if not isinstance(kernel, Kernel):
        raise SnapshotError(f"snapshot decoded to {type(kernel).__name__}, not Kernel")
    return kernel


def snapshot_digest(kernel: "Kernel") -> str:
    """SHA-256 of the machine's snapshot — equal digests mean "restores
    to an identical machine".  Deterministic for epoch-identical kernels
    (the codec excludes wall-clock state)."""
    return hashlib.sha256(snapshot_kernel(kernel)).hexdigest()
