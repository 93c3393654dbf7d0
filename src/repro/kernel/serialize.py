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

**What does not cross** (same list as :meth:`Kernel.fork`, documented
in docs/determinism.md): live processes, open sockets and
listeners, and entered sandbox sessions.  Snapshots, like forks, are
taken *between* runs, when none of that state is load-bearing.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.vfs import Vnode

#: Pinned pickle protocol: snapshots must mean the same bytes on every
#: interpreter the CI matrix runs (3.10–3.12), so the codec never floats
#: with ``pickle.HIGHEST_PROTOCOL``.
SNAPSHOT_PROTOCOL = 5

#: Bumped whenever the snapshot state layout changes incompatibly.
#: v2: kind byte after the version (full vs. delta frames), lazily
#: allocated Label slots, Vnode state without the runtime lazy flag.
SNAPSHOT_VERSION = 2

_MAGIC = b"SHILLK"

#: Frame kinds (one byte after the version).
_KIND_FULL = b"F"
_KIND_DELTA = b"D"

#: Hex digest length of the delta's base reference.
_DIGEST_LEN = 64


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
    return _MAGIC + bytes([SNAPSHOT_VERSION]) + _KIND_FULL + body


def _parse_frame(data: bytes) -> tuple[bytes, bytes]:
    """Validate the header; return ``(kind, body)``."""
    if len(data) <= len(_MAGIC) + 2:
        raise SnapshotError("truncated snapshot")
    if data[: len(_MAGIC)] != _MAGIC:
        raise SnapshotError("not a kernel snapshot (bad magic)")
    version = data[len(_MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    kind = data[len(_MAGIC) + 1 : len(_MAGIC) + 2]
    if kind not in (_KIND_FULL, _KIND_DELTA):
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    return kind, data[len(_MAGIC) + 2 :]


def is_delta(data: bytes) -> bool:
    """Is this frame an incremental (delta) snapshot?"""
    return _parse_frame(data)[0] == _KIND_DELTA


def delta_base_digest(data: bytes) -> str:
    """The full-snapshot digest a delta frame must be applied against."""
    kind, body = _parse_frame(data)
    if kind != _KIND_DELTA:
        raise SnapshotError("not a delta snapshot")
    return body[:_DIGEST_LEN].decode("ascii")


def restore_kernel(data: bytes) -> "Kernel":
    """Rebuild a machine from :func:`snapshot_kernel` bytes.

    The restored kernel is indistinguishable from a fork of the source:
    same vnode tree, users, programs, MAC policies, op counters, audit
    history, and allocation watermarks — and therefore the same
    ``state_epoch``, so world-layer pristine checks keep holding.

    Delta frames need their base machine: use :func:`restore_any` (or
    :func:`apply_kernel_delta` directly) for those.
    """
    from repro.kernel.kernel import Kernel

    kind, body = _parse_frame(data)
    if kind != _KIND_FULL:
        raise SnapshotError(
            "delta snapshot: restore it against its base with restore_any()"
        )
    try:
        kernel = pickle.loads(body)
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


# ----------------------------------------------------------------------
# incremental (delta) snapshots
# ----------------------------------------------------------------------
#
# A delta frame pickles the whole kernel graph *except* vnodes whose
# entire subtree is unchanged versus a referenced base snapshot: those
# pickle as external references (pickle's persistent-id mechanism) named
# by vid, and resolve against the base machine at apply time.  Since the
# vnode tree — file data above all — dominates snapshot size, a delta
# for a lightly-mutated machine is a few KB where the full blob is MBs.
#
# The "entire subtree" rule keeps the restored graph consistent: an
# externalized directory adopts its base subtree wholesale, so it must
# not contain any vnode that also ships inline (two objects for one vid).
# Upward nc_parent pointers can still cross from adopted base vnodes to
# stale base parents; apply canonicalizes them in a fixup pass.
#
# Applying a delta *adopts* vnodes from the base machine object — the
# caller hands over ownership and must not use the base afterwards.


def _index_vnodes(root: "Vnode") -> dict[int, "Vnode"]:
    """vid → vnode for every vnode reachable through directory entries."""
    index: dict[int, "Vnode"] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.vid in index:
            continue
        index[node.vid] = node
        if node.entries:
            stack.extend(node.entries.values())
    return index


def _vnode_fingerprint(vp: "Vnode") -> tuple:
    """Canonical comparable state for one vnode, with object references
    flattened to vids (labels and devices compare by pickled bytes —
    spurious mismatches only cost delta size, never correctness)."""
    entries = (
        None if vp.entries is None
        else tuple((name, child.vid) for name, child in vp.entries.items())
    )
    return (
        vp.vid, vp.vtype.value, vp.mode, vp.uid, vp.gid, vp.flags, vp.nlink,
        None if vp.data is None else bytes(vp.data),
        entries, vp.linktarget,
        pickle.dumps(vp.device, protocol=SNAPSHOT_PROTOCOL),
        vp.program, tuple(vp.needed),
        pickle.dumps(vp.label, protocol=SNAPSHOT_PROTOCOL),
        vp.nc_parent.vid if vp.nc_parent is not None else None,
        vp.nc_name, vp.mtime, vp.data_shared,
    )


def _unchanged_subtrees(cur_root: "Vnode", base_root: "Vnode") -> dict[int, "Vnode"]:
    """vid → current vnode for every vnode whose whole entries-subtree is
    state-identical to the base's vnode of the same vid."""
    base_index = _index_vnodes(base_root)
    cur_index = _index_vnodes(cur_root)
    own_ok: dict[int, bool] = {}
    for vid, vp in cur_index.items():
        base_vp = base_index.get(vid)
        own_ok[vid] = (
            base_vp is not None
            and _vnode_fingerprint(vp) == _vnode_fingerprint(base_vp)
        )
    # Directories form a tree (no hard links to directories), so a
    # reversed DFS preorder sees children before parents; files are
    # leaves and need no ordering.
    order: list["Vnode"] = []
    seen: set[int] = set()
    stack = [cur_root]
    while stack:
        node = stack.pop()
        if node.vid in seen:
            continue
        seen.add(node.vid)
        order.append(node)
        if node.entries:
            stack.extend(node.entries.values())
    subtree_ok: dict[int, bool] = {}
    for node in reversed(order):
        ok = own_ok[node.vid]
        if ok and node.entries:
            ok = all(subtree_ok.get(child.vid, False) for child in node.entries.values())
        subtree_ok[node.vid] = ok
    return {vid: cur_index[vid] for vid, ok in subtree_ok.items() if ok}


class _DeltaPickler(pickle.Pickler):
    def __init__(self, file, external: dict[int, "Vnode"]) -> None:
        super().__init__(file, protocol=SNAPSHOT_PROTOCOL)
        self._external = external

    def persistent_id(self, obj):  # noqa: A003 - pickle API name
        vid = getattr(obj, "vid", None)
        if vid is not None and self._external.get(vid) is obj:
            return ("vnode", vid)
        return None


class _DeltaUnpickler(pickle.Unpickler):
    def __init__(self, file, base_index: dict[int, "Vnode"]) -> None:
        super().__init__(file)
        self._base_index = base_index

    def persistent_load(self, pid):
        kind, vid = pid
        if kind != "vnode":
            raise SnapshotError(f"unknown persistent reference {pid!r}")
        try:
            return self._base_index[vid]
        except KeyError:
            raise SnapshotError(
                f"delta references vnode {vid} absent from the base snapshot"
            ) from None


def snapshot_kernel_delta(kernel: "Kernel", base: "Kernel", base_digest: str) -> bytes:
    """Serialize ``kernel`` as a delta against ``base`` (whose full
    snapshot has digest ``base_digest``).

    ``base`` must be a machine restored from (or snapshotting to) that
    digest; the encoder only trusts the digest string for naming, the
    diff itself runs against the ``base`` object."""
    if len(base_digest) != _DIGEST_LEN:
        raise SnapshotError(f"base digest must be {_DIGEST_LEN} hex chars")
    # The diff below walks the current tree; shared lazy-fork subtrees
    # must be private first (pickling would materialize anyway).
    kernel.vfs._materialize_all()
    external = _unchanged_subtrees(kernel.vfs.root, base.vfs.root)
    buf = io.BytesIO()
    try:
        _DeltaPickler(buf, external).dump(kernel)
    except Exception as err:
        raise SnapshotError(
            f"kernel state did not serialize: {type(err).__name__}: {err}"
        ) from err
    return (
        _MAGIC + bytes([SNAPSHOT_VERSION]) + _KIND_DELTA
        + base_digest.encode("ascii") + buf.getvalue()
    )


def apply_kernel_delta(data: bytes, base: "Kernel") -> "Kernel":
    """Rebuild a machine from a delta frame plus its base machine.

    **Consumes** ``base``: unchanged subtrees are adopted by object
    reference, so the base must not be used (or mutated) afterwards.
    """
    from repro.kernel.kernel import Kernel

    kind, body = _parse_frame(data)
    if kind != _KIND_DELTA:
        raise SnapshotError("not a delta snapshot")
    base_index = _index_vnodes(base.vfs.root)
    try:
        kernel = _DeltaUnpickler(io.BytesIO(body[_DIGEST_LEN:]), base_index).load()
    except SnapshotError:
        raise
    except Exception as err:
        raise SnapshotError(
            f"delta body did not decode: {type(err).__name__}: {err}"
        ) from err
    if not isinstance(kernel, Kernel):
        raise SnapshotError(f"delta decoded to {type(kernel).__name__}, not Kernel")
    # Canonicalize nc_parent backpointers: an adopted base vnode may
    # still point at the *base* version of a parent that shipped inline.
    new_index = _index_vnodes(kernel.vfs.root)
    for vp in new_index.values():
        parent = vp.nc_parent
        if parent is not None:
            canonical = new_index.get(parent.vid)
            if canonical is not None and canonical is not parent:
                vp.nc_parent = canonical
    return kernel


def restore_any(data: bytes, load_base: Callable[[str], bytes] | None = None) -> "Kernel":
    """Restore a snapshot of either kind.

    For delta frames, ``load_base`` maps the base digest to its full
    snapshot bytes (e.g. ``SnapshotStore.load``); chained deltas resolve
    recursively."""
    kind, _ = _parse_frame(data)
    if kind == _KIND_FULL:
        return restore_kernel(data)
    if load_base is None:
        raise SnapshotError("delta snapshot but no base loader provided")
    base = restore_any(load_base(delta_base_digest(data)), load_base)
    return apply_kernel_delta(data, base)
