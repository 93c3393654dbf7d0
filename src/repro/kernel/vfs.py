"""The virtual filesystem: vnodes, directory entries, and the name cache.

This is the substrate the SHILL sandbox protects.  It is an in-memory
tree of :class:`Vnode` objects mirroring the parts of FreeBSD's VFS that
SHILL's paper depends on:

* vnodes carry type, DAC attributes, and a MAC **label** slot where the
  framework stores per-policy state (SHILL stores privilege maps there);
* directories map names to child vnodes, and support hard links (regular
  files may appear under several names);
* a **name cache** remembers the last (parent, name) under which each
  vnode was reached, backing the paper's new ``path`` system call ("attempts
  to retrieve an accessible path for a file descriptor from the
  filesystem's lookup cache", section 3.1.3);
* executables are vnodes tagged with a registered program name plus the
  list of ``NEEDED`` shared libraries, which the loader opens at exec time
  (so sandboxes must be granted library capabilities, as in the paper's
  ``cat`` example that needs eight extra capabilities).

Path *resolution* (walking components, symlinks, MAC lookup hooks) lives
in :mod:`repro.kernel.syscalls`; this module only provides the mechanical
tree operations and raises :class:`SysError` for structural errors.

The tree supports **O(changed-state) forking** (:meth:`VFS.fork`): a fork
clones the vnode graph (preserving hard links and the name cache) but
shares each regular file's byte buffer copy-on-write — the buffer is only
duplicated when either side first mutates it, so forking a booted world
costs a tree walk, not a data copy.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from typing import TYPE_CHECKING, Optional

from repro.errors import SysError
from repro.kernel import errno_

if TYPE_CHECKING:
    from repro.kernel.devices import CharDevice

NAME_MAX = 255


class VType(enum.Enum):
    """Vnode types (a subset of FreeBSD's ``vtype``)."""

    VREG = "regular"
    VDIR = "directory"
    VLNK = "symlink"
    VCHR = "chardev"
    VFIFO = "fifo"
    VSOCK = "socket"


class Label:
    """A MAC label: per-policy storage attached to a kernel object.

    The MAC framework provides "a policy-agnostic mechanism for attaching
    security labels to kernel objects" (section 3.2).  Policies index into
    the label by their registered name; SHILL stores its privilege map
    under ``"shill"``.
    """

    __slots__ = ("_slots",)

    def __init__(self) -> None:
        # Allocated on first set(): almost every vnode is never labelled,
        # and label clones dominate fork cost when every label carries an
        # (empty) dict.
        self._slots: dict[str, object] | None = None

    def get(self, policy: str) -> object | None:
        return None if self._slots is None else self._slots.get(policy)

    def set(self, policy: str, value: object) -> None:
        if self._slots is None:
            self._slots = {}
        self._slots[policy] = value

    def clear(self, policy: str) -> None:
        if self._slots is not None:
            self._slots.pop(policy, None)
            if not self._slots:
                # Normalise back to the unlabelled state: a label whose
                # last slot is cleared must snapshot identically to
                # one that was never set.
                self._slots = None

    def clone(self) -> "Label":
        """Per-policy state is cloned when it knows how (privilege maps
        define ``clone``); immutable state is shared."""
        new = Label()
        if not self._slots:
            # The overwhelmingly common case during fork: unlabelled
            # vnodes skip both the dict allocation and the per-slot loop.
            return new
        new._slots = {}
        for policy, value in self._slots.items():
            clone = getattr(value, "clone", None)
            new._slots[policy] = clone() if callable(clone) else value
        return new


# Fallback allocator for vnodes constructed outside any VFS tree (the
# runtime's per-session device vnodes, test scaffolding).  It starts far
# above any per-tree vid so the two ranges can never collide inside one
# kernel.
_vid_counter = itertools.count(1 << 32)


class Vnode:
    """A single filesystem object.

    Regular files store bytes in ``data``; directories store a name→vnode
    map in ``entries``; symlinks store their target path in ``linktarget``;
    character devices reference a :class:`~repro.kernel.devices.CharDevice`.
    Executable regular files additionally carry ``program`` (the registered
    simulated-binary name) and ``needed`` (shared-library basenames reported
    by ``ldd``).
    """

    __slots__ = (
        "vid",
        "vtype",
        "mode",
        "uid",
        "gid",
        "flags",
        "nlink",
        "data",
        "entries",
        "linktarget",
        "device",
        "program",
        "needed",
        "label",
        "nc_parent",
        "nc_name",
        "mtime",
        "data_shared",
        "entries_lazy",
    )

    # Snapshot state excludes ``entries_lazy``: VFS.__getstate__
    # materializes every shared subtree first, so the flag is always
    # False by the time a vnode is pickled — carrying it would only
    # change the byte format for no information.
    _STATE_SLOTS = (
        "vid", "vtype", "mode", "uid", "gid", "flags", "nlink", "data",
        "entries", "linktarget", "device", "program", "needed", "label",
        "nc_parent", "nc_name", "mtime", "data_shared",
    )

    def __init__(
        self,
        vtype: VType,
        mode: int,
        uid: int,
        gid: int,
    ) -> None:
        self.vid: int = next(_vid_counter)
        self.vtype = vtype
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.flags = 0
        self.nlink = 1
        self.data = bytearray() if vtype is VType.VREG else None
        self.entries: dict[str, Vnode] | None = {} if vtype is VType.VDIR else None
        self.linktarget: str | None = None
        self.device: Optional["CharDevice"] = None
        self.program: str | None = None
        self.needed: list[str] = []
        self.label = Label()
        # Name-cache backpointer: last (parent vnode, name) this vnode was
        # reachable at.  Supports the `path` syscall; invalidated on unlink.
        self.nc_parent: Vnode | None = None
        self.nc_name: str | None = None
        self.mtime: int = 0
        # Copy-on-write marker: True while ``data`` is a buffer shared
        # with a forked (or template) vnode.  Mutators must go through
        # ``writable_data()``, which unshares first.
        self.data_shared: bool = False
        # Lazy-fork marker (directories only): True while ``entries``
        # values still reference the fork *template's* vnodes.  The
        # owning VFS materializes private clones on first access.
        self.entries_lazy: bool = False

    def __getstate__(self) -> dict:
        """Snapshot state (:mod:`repro.kernel.serialize`): every slot, in
        declaration order.  Cycles (entries ↔ nc_parent) are safe — the
        pickle memo registers the vnode before its state is traversed —
        and hard links stay shared the same way.  ``data_shared`` crosses
        verbatim: a buffer shared with a *template* serializes as this
        side's private copy, and the first write after restore unshares
        exactly as it would have before."""
        return {name: getattr(self, name) for name in self._STATE_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name in self._STATE_SLOTS:
            setattr(self, name, state[name])
        self.entries_lazy = False

    def writable_data(self) -> bytearray:
        """The file's byte buffer, for mutation: unshares a copy-on-write
        buffer first so forks never observe each other's writes."""
        assert self.data is not None
        if self.data_shared:
            self.data = bytearray(self.data)
            self.data_shared = False
        return self.data

    # -- convenience predicates -------------------------------------------------

    @property
    def is_dir(self) -> bool:
        return self.vtype is VType.VDIR

    @property
    def is_reg(self) -> bool:
        return self.vtype is VType.VREG

    @property
    def is_symlink(self) -> bool:
        return self.vtype is VType.VLNK

    @property
    def is_chardev(self) -> bool:
        return self.vtype is VType.VCHR

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vnode {self.vid} {self.vtype.value} {self.nc_name or '?'}>"


class VFS:
    """The filesystem tree and its mechanical operations.

    All methods operate on already-resolved directory vnodes with a single
    name component — multi-component resolution, symlink following, and
    security checks are the syscall layer's job.  This split mirrors the
    kernel, where ``namei`` drives per-component VOP_LOOKUPs.
    """

    def __init__(self) -> None:
        # Tree vids are allocated per-VFS (and the watermark crosses
        # fork()), so two forks performing identical operations assign
        # identical vids — vids leak into observable output (Stat.vid,
        # audit fallbacks), and "parallel equals sequential" needs them
        # reproducible.
        self._next_vid = 1
        self.root = Vnode(VType.VDIR, 0o755, 0, 0)
        self.root.vid = self._alloc_vid()
        self.root.nc_name = "/"
        self._generation = 0
        # Optional stats sink (set by the Kernel): an object with a
        # ``count_vnode_op(name)`` method.  Deterministic op counts back
        # the benchmark harness's noise-free shape assertions.
        self.stats = None
        self._init_runtime_state()

    def _init_runtime_state(self) -> None:
        """Cache and lazy-fork bookkeeping: never pickled, never forked."""
        # Directory-entry cache ("dcache"): (dir vid, name) → vnode for
        # plain entries, valid only while the tree generation matches.
        # Purely mechanical — no DAC/MAC state is cached — so a hit skips
        # the VOP_LOOKUP but nothing security-relevant.
        self.dcache_enabled = True
        self._dcache: dict[tuple[int, str], Vnode] = {}
        self._dcache_gen = self._generation
        # Path memo behind path_of: vnode → the path its name-cache chain
        # spells, valid while the generation matches and no lookup has
        # moved a name-cache entry (cache_enter drops what a move makes
        # stale).  Follows dcache_enabled; off, every call walks.
        self._paths: dict[Vnode, str] = {}
        self._paths_gen = self._generation
        # Lazy-fork state (populated on clones made by fork()):
        # vid → this tree's private clone of a template vnode, plus the
        # vid watermark at fork time (vids below it that are not in the
        # memo still belong to the template).
        self._lazy_memo: dict[int, Vnode] = {}
        self._lazy_floor = 0
        # Live forks still sharing subtrees with this tree; a mutation
        # here forces them to materialize first (templates are normally
        # quiescent while forks run, so this list stays empty in the
        # batch hot path).
        self._lazy_children: list[weakref.ref["VFS"]] = []

    def _alloc_vid(self) -> int:
        vid = self._next_vid
        self._next_vid += 1
        return vid

    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumps on every structural or data
        change.  Equal generations ⇒ the tree has not been modified."""
        return self._generation

    def _vop(self, name: str) -> None:
        if self.stats is not None:
            self.stats.count_vnode_op(name)

    # -- lookup -----------------------------------------------------------------

    def lookup(self, dvp: Vnode, name: str) -> Vnode:
        """Look up ``name`` in directory ``dvp``. Handles ``.`` and ``..``.

        ``..`` is resolved through the name cache backpointer, as the real
        kernel resolves it through the directory entry; at the root, ``..``
        is the root itself.
        """
        self._check_component(name)
        cacheable = self.dcache_enabled and name != "." and name != ".."
        if cacheable and dvp.is_dir:
            if self._dcache_gen != self._generation:
                # Any tree mutation invalidates wholesale; entries are
                # re-filled by the next walk.
                self._dcache.clear()
                self._dcache_gen = self._generation
            cached = self._dcache.get((dvp.vid, name))
            if cached is not None:
                if self.stats is not None:
                    self.stats.dcache_hits += 1
                # A hit has the same name-cache effect a walk would.
                self.cache_enter(dvp, name, cached)
                return cached
        self._vop("lookup")
        if not dvp.is_dir:
            raise SysError(errno_.ENOTDIR, f"lookup {name!r} in non-directory")
        if name == ".":
            return dvp
        if name == "..":
            return dvp.nc_parent if dvp.nc_parent is not None else self.root
        assert dvp.entries is not None
        try:
            vp = dvp.entries[name]
        except KeyError:
            raise SysError(errno_.ENOENT, f"no entry {name!r}") from None
        if dvp.entries_lazy:
            vp = self._materialize_child(dvp, name, vp)
        # Refresh the name cache on every successful lookup.
        self.cache_enter(dvp, name, vp)
        if cacheable:
            if self.stats is not None:
                self.stats.dcache_misses += 1
            self._dcache[(dvp.vid, name)] = vp
        return vp

    def exists(self, dvp: Vnode, name: str) -> bool:
        return bool(dvp.is_dir and dvp.entries is not None and name in dvp.entries)

    def contents(self, dvp: Vnode) -> list[str]:
        if not dvp.is_dir:
            raise SysError(errno_.ENOTDIR, "contents of non-directory")
        assert dvp.entries is not None
        return sorted(dvp.entries)

    # -- creation ---------------------------------------------------------------

    def create(self, dvp: Vnode, name: str, vtype: VType, mode: int, uid: int, gid: int) -> Vnode:
        """Create a new vnode of ``vtype`` named ``name`` inside ``dvp``."""
        self._check_component(name)
        self._unshare_forks()
        self._vop("create")
        if name in (".", ".."):
            raise SysError(errno_.EEXIST, name)
        if not dvp.is_dir:
            raise SysError(errno_.ENOTDIR, "create in non-directory")
        if dvp.nlink <= 0:
            raise SysError(errno_.ENOENT, "directory has been removed")
        assert dvp.entries is not None
        if name in dvp.entries:
            raise SysError(errno_.EEXIST, f"entry {name!r} exists")
        vp = Vnode(vtype, mode, uid, gid)
        vp.vid = self._alloc_vid()
        dvp.entries[name] = vp
        vp.nc_parent = dvp
        vp.nc_name = name
        self._generation += 1
        return vp

    def symlink(self, dvp: Vnode, name: str, target: str, uid: int, gid: int) -> Vnode:
        vp = self.create(dvp, name, VType.VLNK, 0o777, uid, gid)
        vp.linktarget = target
        return vp

    # -- link / unlink / rename ---------------------------------------------------

    def link(self, file_vp: Vnode, dvp: Vnode, name: str) -> None:
        """Install a hard link to ``file_vp`` at ``dvp``/``name``.

        This is the mechanism behind the paper's ``flinkat`` system call,
        which "installs a link to a file in a directory given file
        descriptors for both the file and the directory" — no path ever
        designates the source, so there is no TOCTTOU window.
        """
        self._check_component(name)
        self._unshare_forks()
        self._vop("link")
        if file_vp.is_dir:
            raise SysError(errno_.EPERM, "hard link to directory")
        if not dvp.is_dir:
            raise SysError(errno_.ENOTDIR, "link target not a directory")
        if dvp.nlink <= 0:
            raise SysError(errno_.ENOENT, "directory has been removed")
        assert dvp.entries is not None
        if name in dvp.entries:
            raise SysError(errno_.EEXIST, f"entry {name!r} exists")
        dvp.entries[name] = file_vp
        file_vp.nlink += 1
        self._generation += 1

    def unlink(self, dvp: Vnode, name: str, expect: Vnode | None = None) -> Vnode:
        """Remove entry ``name`` from ``dvp``; returns the unlinked vnode.

        With ``expect`` set this is ``funlinkat``: the entry is removed only
        if it still refers to that exact vnode, otherwise ``EDEADLK`` — the
        fd-based race-free unlink from section 3.1.3.
        """
        self._check_component(name)
        self._unshare_forks()
        self._vop("unlink")
        if name in (".", ".."):
            raise SysError(errno_.EINVAL, name)
        if not dvp.is_dir:
            raise SysError(errno_.ENOTDIR, "unlink in non-directory")
        assert dvp.entries is not None
        try:
            vp = dvp.entries[name]
        except KeyError:
            raise SysError(errno_.ENOENT, f"no entry {name!r}") from None
        if dvp.entries_lazy:
            # The nlink decrement below must land on this tree's private
            # clone, never on a vnode still shared with the template.
            vp = self._materialize_child(dvp, name, vp)
        if expect is not None and vp is not expect:
            raise SysError(errno_.EDEADLK, f"entry {name!r} no longer refers to the expected file")
        if vp.is_dir:
            assert vp.entries is not None
            if vp.entries:
                raise SysError(errno_.ENOTEMPTY, f"directory {name!r} not empty")
        del dvp.entries[name]
        vp.nlink -= 1
        if vp.nc_parent is dvp and vp.nc_name == name:
            vp.nc_parent = None
            vp.nc_name = None
        self._generation += 1
        return vp

    def rename(self, src_dvp: Vnode, src_name: str, dst_dvp: Vnode, dst_name: str) -> Vnode:
        """Move ``src_dvp``/``src_name`` to ``dst_dvp``/``dst_name``."""
        self._check_component(src_name)
        self._check_component(dst_name)
        self._unshare_forks()
        self._vop("rename")
        vp = self.lookup(src_dvp, src_name)
        if vp.is_dir and self._in_subtree(vp, dst_dvp):
            # Moving a directory into itself/its own subtree would orphan
            # a cycle; the real kernel refuses with EINVAL.
            raise SysError(errno_.EINVAL, "rename would move a directory into itself")
        if self.exists(dst_dvp, dst_name):
            existing = self.lookup(dst_dvp, dst_name)
            if existing is vp:
                return vp
            if existing.is_dir:
                raise SysError(errno_.EISDIR, f"rename target {dst_name!r} is a directory")
            self.unlink(dst_dvp, dst_name)
        if dst_dvp.nlink <= 0:
            raise SysError(errno_.ENOENT, "target directory has been removed")
        assert src_dvp.entries is not None and dst_dvp.entries is not None
        del src_dvp.entries[src_name]
        dst_dvp.entries[dst_name] = vp
        vp.nc_parent = dst_dvp
        vp.nc_name = dst_name
        self._generation += 1
        return vp

    @staticmethod
    def _in_subtree(root: Vnode, candidate: Vnode) -> bool:
        """Is ``candidate`` inside (or equal to) the tree rooted at ``root``?

        Walks the candidate's ``nc_parent`` ancestors — O(depth), not the
        old O(tree) scan from ``root``.  For directories the backpointer
        is authoritative: it is set at create, refreshed by every lookup,
        rewritten by rename, and cleared by unlink, and a directory has
        exactly one parent.
        """
        node: Vnode | None = candidate
        seen: set[int] = set()
        while node is not None:
            if node is root:
                return True
            if node.vid in seen:
                return False
            seen.add(node.vid)
            node = node.nc_parent
        return False

    # -- the name cache / `path` -----------------------------------------------

    def cache_enter(self, dvp: Vnode, name: str, vp: Vnode) -> None:
        """Record in the name cache that ``vp`` was reached as ``dvp``/``name``.

        Every lookup writes the pair through here (a walk, a dcache hit,
        the syscall layer's resolved-path hit).  A lookup that *moves* a
        pair already set — a hard-linked file reached under its other
        name — changes what :meth:`path_of` spells without moving
        ``generation``, so it drops the memo entries the move makes stale:
        the file's own, or every entry for a directory, whose descendants'
        paths run through it.
        """
        if vp.nc_parent is not None and (vp.nc_parent is not dvp or vp.nc_name != name):
            if vp.is_dir:
                self._paths.clear()
            else:
                self._paths.pop(vp, None)
        # Written even when unchanged: which string object holds the name
        # shows in snapshot bytes (pickle shares equal objects only).
        vp.nc_parent = dvp
        vp.nc_name = name

    def path_of(self, vp: Vnode) -> str:
        """Reconstruct an accessible path for ``vp`` from the name cache.

        Raises ``ENOENT`` when the chain is broken (e.g. the file was
        unlinked), matching the paper's note that "if the path system call
        fails, SHILL uses the last known path at which the file was
        accessible" — that fallback lives in the capability layer.

        With the dcache enabled, paths are memoised: the walk up the
        chain, checking that each entry is still live, stops at the
        nearest ancestor whose path is memoised and extends it.  Disabled,
        every call walks to the root (the reference the memo must equal).
        """
        if vp is self.root:
            return "/"
        if self.dcache_enabled:
            if self._paths_gen != self._generation:
                self._paths.clear()
                self._paths_gen = self._generation
            paths = self._paths
            path = paths.get(vp)
            if path is not None:
                return path
        else:
            paths = {}
        chain: list[Vnode] = []
        seen: set[int] = set()
        node = vp
        path = ""
        while node is not self.root:
            if node.vid in seen or node.nc_parent is None or node.nc_name is None:
                raise SysError(errno_.ENOENT, "name cache cannot resolve a path")
            # Verify the cached entry is still live.
            parent = node.nc_parent
            if not parent.is_dir or parent.entries is None or parent.entries.get(node.nc_name) is not node:
                raise SysError(errno_.ENOENT, "stale name cache entry")
            seen.add(node.vid)
            chain.append(node)
            node = parent
            known = paths.get(node)
            if known is not None:
                path = known
                break
        for node in reversed(chain):
            path = path + "/" + node.nc_name
            paths[node] = path
        return path

    # -- attributes --------------------------------------------------------------

    def set_meta(self, vp: Vnode, *, mode: int | None = None,
                 uid: int | None = None, gid: int | None = None,
                 mtime: int | None = None) -> None:
        """Change DAC attributes.  All metadata mutation funnels through
        here so the generation counter (which backs "world unmodified
        since boot" checks) never misses a change."""
        self._unshare_forks()
        self._vop("setattr")
        if mode is not None:
            vp.mode = mode
        if uid is not None:
            vp.uid = uid
        if gid is not None:
            vp.gid = gid
        if mtime is not None:
            vp.mtime = mtime
        self._generation += 1

    # -- data I/O ----------------------------------------------------------------

    def read_file(self, vp: Vnode, offset: int, size: int) -> bytes:
        self._vop("read")
        if not vp.is_reg:
            raise SysError(errno_.EINVAL, "read from non-regular file")
        assert vp.data is not None
        if offset < 0:
            raise SysError(errno_.EINVAL, "negative offset")
        return bytes(vp.data[offset : offset + size])

    def write_file(self, vp: Vnode, offset: int, data: bytes) -> int:
        self._unshare_forks()
        self._vop("write")
        if not vp.is_reg:
            raise SysError(errno_.EINVAL, "write to non-regular file")
        assert vp.data is not None
        if offset < 0:
            raise SysError(errno_.EINVAL, "negative offset")
        buf = vp.writable_data()
        end = offset + len(data)
        if len(buf) < offset:
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset:end] = data
        self._generation += 1
        return len(data)

    def truncate_file(self, vp: Vnode, length: int) -> None:
        self._unshare_forks()
        self._vop("truncate")
        if not vp.is_reg:
            raise SysError(errno_.EINVAL, "truncate non-regular file")
        assert vp.data is not None
        if length < 0:
            raise SysError(errno_.EINVAL, "negative length")
        buf = vp.writable_data()
        if length <= len(buf):
            del buf[length:]
        else:
            buf.extend(b"\x00" * (length - len(buf)))
        self._generation += 1

    # -- forking -----------------------------------------------------------------

    def fork(self) -> "VFS":
        """An isolated copy of the tree in O(paths-accessed), not O(tree).

        Only the root is cloned eagerly.  Directory subtrees stay shared
        with this template: a cloned directory keeps a *copy of the
        entries dict whose values still reference template vnodes*, and
        the fork materializes a private clone of each vnode on first
        access (lookup, or structurally mutating ops).  Regular-file
        buffers additionally stay shared copy-on-write even after the
        vnode itself is materialized.  Hard links and the name cache are
        preserved through a vid-keyed memo; vids carry over, so fork
        behaviour stays byte-for-byte comparable with an eager clone.

        Isolation is bidirectional: fork-side access always materializes
        before any reference escapes, and a template-side mutation first
        forces every still-sharing fork to materialize its remaining
        shared subtrees (:meth:`_unshare_forks`).  The mutation
        generation carries over so "has this tree changed since boot"
        answers stay meaningful on forks.
        """
        clone = VFS.__new__(VFS)
        clone.stats = None
        clone._next_vid = self._next_vid
        clone._generation = self._generation
        clone._init_runtime_state()
        clone.dcache_enabled = self.dcache_enabled
        clone._lazy_floor = self._next_vid
        clone.root = clone._lazy_clone(self.root)
        clone.root.nc_name = "/"
        if len(self._lazy_children) > 32:
            self._lazy_children = [r for r in self._lazy_children if r() is not None]
        self._lazy_children.append(weakref.ref(clone))
        return clone

    def _lazy_clone(self, vp: Vnode) -> Vnode:
        """A private clone of template vnode ``vp``, its entries (if a
        directory) still referencing the template's children.

        Slot-by-slot copy via __new__ (skipping __init__ keeps it cheap
        and, deliberately, keeps the original vid: vids only need to be
        unique within one kernel).
        """
        new = Vnode.__new__(Vnode)
        new.vid = vp.vid
        new.vtype = vp.vtype
        new.mode = vp.mode
        new.uid = vp.uid
        new.gid = vp.gid
        new.flags = vp.flags
        new.nlink = vp.nlink
        new.linktarget = vp.linktarget
        new.device = vp.device
        new.program = vp.program
        new.needed = list(vp.needed) if vp.needed else []
        new.label = vp.label.clone()
        new.nc_parent = None
        new.nc_name = None
        new.mtime = vp.mtime
        if vp.data is not None:
            vp.data_shared = True
            new.data = vp.data
            new.data_shared = True
        else:
            new.data = None
            new.data_shared = False
        if vp.entries is not None:
            new.entries = dict(vp.entries)
            new.entries_lazy = bool(new.entries)
        else:
            new.entries = None
            new.entries_lazy = False
        self._lazy_memo[vp.vid] = new
        return new

    def _owns(self, vp: Vnode) -> bool:
        """Does ``vp`` belong to this tree (vs. the fork template)?"""
        return vp.vid >= self._lazy_floor or self._lazy_memo.get(vp.vid) is vp

    def _materialize_child(self, dvp: Vnode, name: str, child: Vnode) -> Vnode:
        """Replace ``dvp``'s (this tree's directory) entry ``name`` with a
        private clone of the template vnode ``child``, memoized by vid so
        hard links converge on one clone."""
        if self._owns(child):
            return child
        new = self._lazy_memo.get(child.vid)
        if new is None:
            new = self._lazy_clone(child)
        # Preserve the template's name-cache backpointer the way an eager
        # fork would — but never clobber a fresher fork-side refresh.
        if (new.nc_parent is None and child.nc_parent is not None
                and child.nc_name == name and child.nc_parent.vid == dvp.vid):
            new.nc_parent = dvp
            new.nc_name = name
        assert dvp.entries is not None
        dvp.entries[name] = new
        return new

    def _materialize_all(self) -> None:
        """Complete the lazy fork: clone every still-shared subtree.

        Called before this tree is serialized (a pickle must never reach
        into the template's graph) and when the template mutates while
        this fork is live."""
        stack = [self.root]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.vid in seen or node.entries is None:
                continue
            seen.add(node.vid)
            if node.entries_lazy:
                for name in list(node.entries):
                    self._materialize_child(node, name, node.entries[name])
                node.entries_lazy = False
            stack.extend(child for child in node.entries.values() if child.is_dir)
        self._lazy_memo = {}
        self._lazy_floor = 0

    def _unshare_forks(self) -> None:
        """Force every live fork still sharing subtrees with this tree to
        materialize *before* a mutation here lands (fork isolation is a
        contract; laziness must not be observable)."""
        if not self._lazy_children:
            return
        children, self._lazy_children = self._lazy_children, []
        for ref in children:
            fork = ref()
            if fork is not None:
                fork._materialize_all()

    # -- serialization ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Snapshot state: the tree plus the vid/generation watermarks.

        Shared subtrees are materialized first — pickling a graph that
        reaches template-owned vnodes (via entries or nc backpointers)
        would drag the whole template in.  Runtime-only state (dcache
        contents, lazy-fork bookkeeping, the stats sink) is excluded so
        equal trees produce equal snapshot bytes regardless of cache
        history; the Kernel re-wires ``stats`` on restore."""
        self._materialize_all()
        return {
            "next_vid": self._next_vid,
            "root": self.root,
            "generation": self._generation,
            "dcache_enabled": self.dcache_enabled,
        }

    def __setstate__(self, state: dict) -> None:
        self._next_vid = state["next_vid"]
        self.root = state["root"]
        self._generation = state["generation"]
        self.stats = None
        self._init_runtime_state()
        self.dcache_enabled = state.get("dcache_enabled", True)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _check_component(name: str) -> None:
        if not name:
            raise SysError(errno_.EINVAL, "empty name component")
        if "/" in name:
            raise SysError(errno_.EINVAL, f"component {name!r} contains '/'")
        if len(name) > NAME_MAX:
            raise SysError(errno_.ENAMETOOLONG, name[:32] + "...")
