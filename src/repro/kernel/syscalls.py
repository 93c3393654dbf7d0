"""The system-call layer: every operation a process can ask of the kernel.

A :class:`SyscallInterface` binds the kernel to one process and exposes
Unix-flavoured entry points.  Each call performs, in order:

1. **path resolution** (for path-taking calls): component-at-a-time walk
   with per-component DAC execute checks, ``vnode_check_lookup`` MAC
   checks, and — on success — the ``vnode_post_lookup`` notification the
   paper's kernel module added so the SHILL policy can propagate
   privileges to derived objects;
2. **DAC** mode-bit checks with the process credential;
3. **MAC** checks via the framework (all registered policies must allow);
4. the mechanical VFS/pipe/socket operation.

The module includes the paper's four new/changed system calls
(section 3.1.3): ``flinkat``, ``funlinkat``, ``frenameat`` (fd-designated
files, closing the TOCTTOU window that path-based ``linkat``/``unlinkat``/
``renameat`` leave open), the fd-returning ``mkdirat``, and ``path``
(fd → pathname via the name cache).

Per the paper's limitation discussion (section 3.2.3), read/write MAC
hooks are **not** invoked for character-device vnodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SysError
from repro.kernel import errno_
from repro.kernel.cred import R_OK, W_OK, X_OK, dac_check
from repro.kernel.fdesc import OpenFile, OpenFlags
from repro.kernel.pipes import PipeEnd, make_pipe
from repro.kernel.proc import Process
from repro.kernel.sockets import AddressFamily, Socket, SocketType
from repro.kernel.vfs import Vnode, VType

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

SYMLOOP_MAX = 32

# Final-op MAC hooks whose first argument is the vnode (or, for the
# namespace mutators, the parent directory) a run observably touched,
# exec's image check among them.  Traversal hooks (vnode_check_lookup)
# are deliberately absent: the paths a walk crosses are captured by the
# read/readlink checks that actually observe data.  SyscallInterface._mac
# appends (kind, path) for these to Kernel._touched after the check
# succeeds; sessions slice that log into RunResult.touched and
# repro.analysis.deps gates static footprints on it.
_TOUCH_HOOKS = {
    "vnode_check_exec": "execute",
    "vnode_check_read": "read",
    "vnode_check_readdir": "read",
    "vnode_check_readlink": "read",
    "vnode_check_write": "write",
    "vnode_check_truncate": "write",
    "vnode_check_setmode": "write",
    "vnode_check_setowner": "write",
    "vnode_check_setutimes": "write",
    "vnode_check_create": "write",
    "vnode_check_unlink": "write",
    "vnode_check_link": "write",
    "vnode_check_rename_from": "write",
    "vnode_check_rename_to": "write",
}

O_RDONLY = OpenFlags.O_RDONLY
O_WRONLY = OpenFlags.O_WRONLY
O_RDWR = OpenFlags.O_RDWR
O_APPEND = OpenFlags.O_APPEND
O_CREAT = OpenFlags.O_CREAT
O_TRUNC = OpenFlags.O_TRUNC
O_EXCL = OpenFlags.O_EXCL
O_DIRECTORY = OpenFlags.O_DIRECTORY
O_EXEC = OpenFlags.O_EXEC
O_NOFOLLOW = OpenFlags.O_NOFOLLOW

# The flags' int values.  The syscalls below test ``int(flags)`` against
# these: ``flags & O_CREAT`` on an OpenFlags runs Flag.__and__ in Python,
# and so does ``bits & O_CREAT``, since an int subclass's reflected
# operator goes first.
_APPEND = O_APPEND.value
_CREAT = O_CREAT.value
_TRUNC = O_TRUNC.value
_EXCL = O_EXCL.value
_DIRECTORY = O_DIRECTORY.value
_EXEC = O_EXEC.value
_NOFOLLOW = O_NOFOLLOW.value


@dataclass(frozen=True)
class Stat:
    """Result of ``stat``-family calls."""

    vid: int
    vtype: VType
    mode: int
    uid: int
    gid: int
    size: int
    nlink: int
    mtime: int

    @property
    def is_dir(self) -> bool:
        return self.vtype is VType.VDIR

    @property
    def is_file(self) -> bool:
        return self.vtype is VType.VREG


def _dac(proc: Process, vp: Vnode, want: int, what: str) -> None:
    if not dac_check(proc.cred, mode=vp.mode, uid=vp.uid, gid=vp.gid, want=want):
        raise SysError(errno_.EACCES, f"dac: {what}")


class SyscallInterface:
    """System calls bound to one process.

    ``sys = kernel.syscalls(proc)`` and then ``sys.open(...)`` etc.
    """

    def __init__(self, kernel: "Kernel", proc: Process) -> None:
        self.kernel = kernel
        self.proc = proc

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.kernel.stats.count_syscall(name)

    def _mac(self, hook: str, *args) -> None:
        self.kernel.mac.check(hook, self.proc, *args)
        kind = _TOUCH_HOOKS.get(hook)
        if kind is not None and args and isinstance(args[0], Vnode):
            # Record only allowed operations: a denial is not a touch.
            # path_of is a pure name-cache walk — no op counters move.
            try:
                path = self.kernel.vfs.path_of(args[0])
            except SysError:
                path = "<detached>"
            self.kernel._touched.append((kind, path))

    def _post(self, hook: str, *args) -> None:
        self.kernel.mac.post(hook, self.proc, *args)

    def _lookup_once(self, dvp: Vnode, name: str) -> Vnode:
        """One component lookup: DAC X on dir, MAC lookup hook, post hook."""
        _dac(self.proc, dvp, X_OK, f"search {name!r}")
        self._mac("vnode_check_lookup", dvp, name)
        vp = self.kernel.vfs.lookup(dvp, name)
        self._post("vnode_post_lookup", dvp, vp, name)
        return vp

    def _start_dir(self, path: str) -> Vnode:
        return self.kernel.vfs.root if path.startswith("/") else self.proc.cwd

    def _resolve(
        self, path: str, *, follow: bool = True, want_parent: bool = False, _depth: int = 0
    ) -> tuple[Vnode, str, Vnode | None]:
        """Resolve ``path`` to ``(parent_dir, final_name, vnode_or_None)``.

        ``follow`` controls whether a symlink in the final component is
        chased.  With ``want_parent`` the final component may not exist
        (creation); otherwise a missing final component raises ``ENOENT``
        only when the caller demands it (callers check ``vp is None``).

        Successful resolutions by *sessionless* processes are cached on
        the kernel (the resolved-path dcache).  A hit is legal only while
        nothing the skipped walk consulted can have changed: the key
        carries (start-dir vid, path, credential, follow, want_parent)
        and the whole cache is invalidated when the VFS generation, the
        MAC label epoch, or the MAC policy set moves.  Sandboxed
        processes never hit the cache — their per-component MAC checks
        and post-lookup privilege propagation are side-effecting, and
        denial behaviour must stay byte-identical.  Hits may reduce
        mac_check counts, never denials.
        """
        if _depth > SYMLOOP_MAX:
            raise SysError(errno_.ELOOP, path)
        if not path:
            raise SysError(errno_.ENOENT, "empty path")
        kernel = self.kernel
        cache_key = None
        if _depth == 0 and self.proc.session is None and kernel.vfs.dcache_enabled:
            # The engine component folds policy-engine swaps *and* engine
            # reconfiguration (FakePolicyEngine.set bumps ``mutations``)
            # into the stamp: cached walks must be re-judged when future
            # decisions can differ.  id() is fine — the cache is
            # runtime-only and never outlives the engine object.
            engine = kernel.mac.engine
            engine_stamp = None if engine is None else (id(engine), engine.mutations)
            stamp = (kernel.vfs.generation, kernel.mac.label_epoch,
                     kernel.mac.mutations, engine_stamp)
            if kernel._resolve_stamp != stamp:
                kernel._resolve_cache.clear()
                kernel._resolve_stamp = stamp
            cache_key = (self._start_dir(path).vid, path, self.proc.cred, follow, want_parent)
            hit = kernel._resolve_cache.get(cache_key)
            if hit is not None:
                kernel.stats.dcache_hits += 1
                dvp, name, vp = hit
                if vp is not None and name != "." and name != "..":
                    # Same name-cache effect the final lookup would have.
                    kernel.vfs.cache_enter(dvp, name, vp)
                return dvp, name, vp
        result = self._resolve_walk(path, follow=follow, want_parent=want_parent, _depth=_depth)
        if cache_key is not None and result[2] is not None:
            kernel._resolve_cache[cache_key] = result
        return result

    def _resolve_walk(
        self, path: str, *, follow: bool, want_parent: bool, _depth: int
    ) -> tuple[Vnode, str, Vnode | None]:
        """The uncached component walk behind :meth:`_resolve`."""
        node = self._start_dir(path)
        parts = [p for p in path.split("/") if p]
        if not parts:
            # Path was "/" (or all slashes).
            return node, ".", node
        for i, comp in enumerate(parts):
            is_last = i == len(parts) - 1
            if not node.is_dir:
                raise SysError(errno_.ENOTDIR, comp)
            if is_last and want_parent:
                try:
                    vp = self._lookup_once(node, comp)
                except SysError as err:
                    if err.errno == errno_.ENOENT:
                        return node, comp, None
                    raise
                if vp.is_symlink and follow:
                    assert vp.linktarget is not None
                    return self._resolve(
                        self._rebase(vp.linktarget, node),
                        follow=follow,
                        want_parent=True,
                        _depth=_depth + 1,
                    )
                return node, comp, vp
            vp = self._lookup_once(node, comp)
            if vp.is_symlink and (not is_last or follow):
                self._mac("vnode_check_readlink", vp)
                assert vp.linktarget is not None
                rest = "/".join(parts[i + 1 :])
                target = self._rebase(vp.linktarget, node)
                newpath = target + ("/" + rest if rest else "")
                return self._resolve(
                    newpath, follow=follow, want_parent=want_parent, _depth=_depth + 1
                )
            if is_last:
                return node, comp, vp
            node = vp
        raise AssertionError("unreachable")

    def _rebase(self, target: str, dvp: Vnode) -> str:
        """Turn a symlink target into an absolute-or-cwd path for re-resolution."""
        if target.startswith("/"):
            return target
        base = self.kernel.vfs.path_of(dvp)
        return base.rstrip("/") + "/" + target

    def _alloc_fd(self, of: OpenFile) -> int:
        limit = self.proc.ulimits.open_files
        if limit is not None and len(self.proc.fdtable.fds()) >= limit:
            raise SysError(errno_.EMFILE, "ulimit: open files")
        return self.proc.fdtable.alloc(of)

    def _vnode_for_fd(self, fd: int, *, directory: bool = False) -> Vnode:
        obj = self.proc.fdtable.get(fd).obj
        if not isinstance(obj, Vnode):
            raise SysError(errno_.EINVAL, "fd is not a vnode")
        if directory and not obj.is_dir:
            raise SysError(errno_.ENOTDIR, "fd is not a directory")
        return obj

    # ------------------------------------------------------------------
    # open / close / io
    # ------------------------------------------------------------------

    def open(self, path: str, flags: OpenFlags = O_RDONLY, mode: int = 0o644) -> int:
        self._count("open")
        bits = int(flags)
        dvp, name, vp = self._resolve(path, follow=not (bits & _NOFOLLOW),
                                      want_parent=bits & _CREAT != 0)
        return self._open_vnode(dvp, name, vp, flags, mode)

    def openat(self, dirfd: int, path: str, flags: OpenFlags = O_RDONLY, mode: int = 0o644) -> int:
        """Open relative to a directory fd.

        The kernel accepts multi-component relative paths (ordinary
        executables use them); the *SHILL runtime* additionally restricts
        its own use of ``openat`` to single-component names — that
        restriction lives in :mod:`repro.capability.caps`.
        """
        self._count("openat")
        if path.startswith("/"):
            return self.open(path, flags, mode)
        start = self._vnode_for_fd(dirfd, directory=True)
        saved_cwd = self.proc.cwd
        self.proc.cwd = start
        try:
            return self.open(path, flags, mode)
        finally:
            self.proc.cwd = saved_cwd

    def _open_vnode(
        self, dvp: Vnode, name: str, vp: Vnode | None, flags: OpenFlags, mode: int
    ) -> int:
        bits = int(flags)
        if vp is None:
            if not bits & _CREAT:
                raise SysError(errno_.ENOENT, name)
            _dac(self.proc, dvp, W_OK, f"create {name!r}")
            self._mac("vnode_check_create", dvp, name, VType.VREG)
            vp = self.kernel.vfs.create(
                dvp, name, VType.VREG, mode & 0o777, self.proc.cred.uid, self.proc.cred.gid
            )
            self._post("vnode_post_create", dvp, vp, name, VType.VREG)
        else:
            if bits & _CREAT and bits & _EXCL:
                raise SysError(errno_.EEXIST, name)
            if vp.is_symlink:
                raise SysError(errno_.ELOOP, f"{name!r} is a symlink (O_NOFOLLOW)")
            if bits & _DIRECTORY and not vp.is_dir:
                raise SysError(errno_.ENOTDIR, name)
            writable = flags.writable
            if vp.is_dir and writable:
                raise SysError(errno_.EISDIR, name)
            accmode = 0
            if flags.readable:
                accmode |= R_OK
            if writable or bits & _APPEND:
                accmode |= W_OK
            if bits & _EXEC:
                accmode |= X_OK
            if accmode:
                _dac(self.proc, vp, accmode, f"open {name!r}")
            self._mac("vnode_check_open", vp, accmode)
            if bits & _TRUNC and vp.is_reg:
                if not vp.is_chardev:
                    self._mac("vnode_check_write", vp)
                self.kernel.vfs.truncate_file(vp, 0)
        of = OpenFile(vp, flags)
        return self._alloc_fd(of)

    def close(self, fd: int) -> None:
        self._count("close")
        self.proc.fdtable.close(fd)

    def read(self, fd: int, size: int) -> bytes:
        self._count("read")
        of = self.proc.fdtable.get(fd)
        data = self._read_obj(of, size, of.offset)
        of.offset += len(data)
        return data

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        self._count("pread")
        of = self.proc.fdtable.get(fd)
        return self._read_obj(of, size, offset)

    def _read_obj(self, of: OpenFile, size: int, offset: int) -> bytes:
        obj = of.obj
        if isinstance(obj, Vnode):
            if obj.is_chardev:
                # By default MAC does not interpose on character-device
                # I/O (§3.2.3).  The paper notes the limitation "can be
                # resolved by adding entry points to the MAC framework
                # around unprotected operations" — that extension is the
                # kernel's `interpose_devices` switch.
                if self.kernel.interpose_devices:
                    self._mac("vnode_check_read", obj)
                assert obj.device is not None
                return obj.device.read(size)
            if not of.flags.readable:
                raise SysError(errno_.EBADF, "fd not open for reading")
            self._mac("vnode_check_read", obj)
            if obj.is_dir:
                raise SysError(errno_.EISDIR, "read on directory")
            return self.kernel.vfs.read_file(obj, offset, size)
        if isinstance(obj, PipeEnd):
            if obj.writable:
                raise SysError(errno_.EBADF, "write end of pipe")
            self._mac("pipe_check_read", obj.pipe)
            return obj.pipe.read(size)
        if isinstance(obj, Socket):
            self._mac("socket_check_receive", obj)
            return self.kernel.network.recv(obj, size)
        raise SysError(errno_.EINVAL, "unreadable object")

    def write(self, fd: int, data: bytes) -> int:
        self._count("write")
        of = self.proc.fdtable.get(fd)
        obj = of.obj
        if isinstance(obj, Vnode):
            if obj.is_chardev:
                if self.kernel.interpose_devices:
                    self._mac("vnode_check_write", obj)
                assert obj.device is not None
                return obj.device.write(data)
            append = int(of.flags) & _APPEND
            if not (append or of.flags.writable):
                raise SysError(errno_.EBADF, "fd not open for writing")
            self._mac("vnode_check_write", obj)
            assert obj.data is not None
            offset = len(obj.data) if append else of.offset
            limit = self.proc.ulimits.file_size
            if limit is not None and offset + len(data) > limit:
                raise SysError(errno_.EFBIG, "ulimit: file size")
            n = self.kernel.vfs.write_file(obj, offset, data)
            if not append:
                of.offset = offset + n
            return n
        if isinstance(obj, PipeEnd):
            if not obj.writable:
                raise SysError(errno_.EBADF, "read end of pipe")
            self._mac("pipe_check_write", obj.pipe)
            return obj.pipe.write(data)
        if isinstance(obj, Socket):
            self._mac("socket_check_send", obj)
            return self.kernel.network.send(obj, data)
        raise SysError(errno_.EINVAL, "unwritable object")

    def lseek(self, fd: int, offset: int) -> int:
        self._count("lseek")
        of = self.proc.fdtable.get(fd)
        if isinstance(of.obj, (PipeEnd, Socket)):
            raise SysError(errno_.ESPIPE, "seek on pipe/socket")
        if offset < 0:
            raise SysError(errno_.EINVAL, "negative offset")
        of.offset = offset
        return offset

    def ftruncate(self, fd: int, length: int) -> None:
        self._count("ftruncate")
        of = self.proc.fdtable.get(fd)
        vp = of.obj
        if not isinstance(vp, Vnode) or not vp.is_reg:
            raise SysError(errno_.EINVAL, "ftruncate target")
        if not (of.flags.writable or int(of.flags) & _APPEND):
            raise SysError(errno_.EBADF, "fd not open for writing")
        self._mac("vnode_check_truncate", vp)
        self.kernel.vfs.truncate_file(vp, length)

    # ------------------------------------------------------------------
    # directory operations
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._count("mkdir")
        dvp, name, vp = self._resolve(path, want_parent=True)
        if vp is not None:
            raise SysError(errno_.EEXIST, name)
        self._create_dir(dvp, name, mode)

    def mkdirat(self, dirfd: int, name: str, mode: int = 0o755) -> int:
        """The paper's variant: creates the directory **and returns an fd**
        for it, so a capability for the new directory exists immediately.
        """
        self._count("mkdirat")
        dvp = self._vnode_for_fd(dirfd, directory=True)
        vp = self._create_dir(dvp, name, mode)
        return self._alloc_fd(OpenFile(vp, O_RDONLY))

    def _create_dir(self, dvp: Vnode, name: str, mode: int) -> Vnode:
        _dac(self.proc, dvp, W_OK, f"mkdir {name!r}")
        self._mac("vnode_check_create", dvp, name, VType.VDIR)
        vp = self.kernel.vfs.create(
            dvp, name, VType.VDIR, mode & 0o777, self.proc.cred.uid, self.proc.cred.gid
        )
        self._post("vnode_post_create", dvp, vp, name, VType.VDIR)
        return vp

    def getdents(self, fd: int) -> list[str]:
        self._count("getdents")
        vp = self._vnode_for_fd(fd, directory=True)
        self._mac("vnode_check_readdir", vp)
        return self.kernel.vfs.contents(vp)

    def contents(self, path: str) -> list[str]:
        """Convenience: readdir by path."""
        self._count("getdents")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not vp.is_dir:
            raise SysError(errno_.ENOTDIR, path)
        _dac(self.proc, vp, R_OK, "readdir")
        self._mac("vnode_check_readdir", vp)
        return self.kernel.vfs.contents(vp)

    # ------------------------------------------------------------------
    # link / unlink / rename — path-based (racy) and fd-based (new)
    # ------------------------------------------------------------------

    def unlink(self, path: str) -> None:
        self._count("unlink")
        dvp, name, vp = self._resolve(path, follow=False)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        self._unlink_common(dvp, name, vp)

    def unlinkat(self, dirfd: int, name: str) -> None:
        self._count("unlinkat")
        dvp = self._vnode_for_fd(dirfd, directory=True)
        vp = self._lookup_once(dvp, name)
        self._unlink_common(dvp, name, vp)

    def funlinkat(self, dirfd: int, name: str, filefd: int) -> None:
        """Race-free unlink: removes ``name`` only if it still refers to the
        vnode behind ``filefd`` (paper, section 3.1.3).
        """
        self._count("funlinkat")
        dvp = self._vnode_for_fd(dirfd, directory=True)
        expect = self._vnode_for_fd(filefd)
        vp = self._lookup_once(dvp, name)
        _dac(self.proc, dvp, W_OK, f"unlink {name!r}")
        self._mac("vnode_check_unlink", dvp, vp, name)
        self.kernel.vfs.unlink(dvp, name, expect=expect)

    def _unlink_common(self, dvp: Vnode, name: str, vp: Vnode) -> None:
        _dac(self.proc, dvp, W_OK, f"unlink {name!r}")
        self._mac("vnode_check_unlink", dvp, vp, name)
        self.kernel.vfs.unlink(dvp, name)

    def link(self, oldpath: str, newpath: str) -> None:
        self._count("link")
        _, _, vp = self._resolve(oldpath)
        if vp is None:
            raise SysError(errno_.ENOENT, oldpath)
        dvp, name, existing = self._resolve(newpath, want_parent=True)
        if existing is not None:
            raise SysError(errno_.EEXIST, newpath)
        self._link_common(vp, dvp, name)

    def flinkat(self, filefd: int, dirfd: int, name: str) -> None:
        """Race-free link: both the file and the target directory are
        designated by file descriptors (paper, section 3.1.3).
        """
        self._count("flinkat")
        vp = self._vnode_for_fd(filefd)
        dvp = self._vnode_for_fd(dirfd, directory=True)
        self._link_common(vp, dvp, name)

    def _link_common(self, vp: Vnode, dvp: Vnode, name: str) -> None:
        _dac(self.proc, dvp, W_OK, f"link {name!r}")
        self._mac("vnode_check_link", dvp, vp)
        self.kernel.vfs.link(vp, dvp, name)
        self._post("vnode_post_create", dvp, vp, name, vp.vtype)

    def rename(self, oldpath: str, newpath: str) -> None:
        self._count("rename")
        src_dvp, src_name, vp = self._resolve(oldpath, follow=False)
        if vp is None:
            raise SysError(errno_.ENOENT, oldpath)
        dst_dvp, dst_name, _ = self._resolve(newpath, want_parent=True, follow=False)
        self._rename_common(src_dvp, src_name, vp, dst_dvp, dst_name)

    def frenameat(self, filefd: int, src_dirfd: int, src_name: str, dst_dirfd: int, dst_name: str) -> None:
        """Race-free rename: unlinks ``src_name`` only if it refers to the
        file behind ``filefd`` and installs a link in the target directory
        (paper, section 3.1.3).
        """
        self._count("frenameat")
        expect = self._vnode_for_fd(filefd)
        src_dvp = self._vnode_for_fd(src_dirfd, directory=True)
        dst_dvp = self._vnode_for_fd(dst_dirfd, directory=True)
        vp = self._lookup_once(src_dvp, src_name)
        if vp is not expect:
            raise SysError(errno_.EDEADLK, f"{src_name!r} no longer refers to the expected file")
        self._rename_common(src_dvp, src_name, vp, dst_dvp, dst_name)

    def _rename_common(
        self, src_dvp: Vnode, src_name: str, vp: Vnode, dst_dvp: Vnode, dst_name: str
    ) -> None:
        _dac(self.proc, src_dvp, W_OK, "rename from")
        _dac(self.proc, dst_dvp, W_OK, "rename to")
        self._mac("vnode_check_rename_from", src_dvp, vp)
        self._mac("vnode_check_rename_to", dst_dvp, vp)
        self.kernel.vfs.rename(src_dvp, src_name, dst_dvp, dst_name)
        self._post("vnode_post_create", dst_dvp, vp, dst_name, vp.vtype)

    # ------------------------------------------------------------------
    # symlinks
    # ------------------------------------------------------------------

    def symlink(self, target: str, linkpath: str) -> None:
        self._count("symlink")
        dvp, name, existing = self._resolve(linkpath, want_parent=True, follow=False)
        if existing is not None:
            raise SysError(errno_.EEXIST, linkpath)
        _dac(self.proc, dvp, W_OK, f"symlink {name!r}")
        self._mac("vnode_check_create", dvp, name, VType.VLNK)
        vp = self.kernel.vfs.symlink(dvp, name, target, self.proc.cred.uid, self.proc.cred.gid)
        self._post("vnode_post_create", dvp, vp, name, VType.VLNK)

    def readlink(self, path: str) -> str:
        self._count("readlink")
        _, _, vp = self._resolve(path, follow=False)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not vp.is_symlink:
            raise SysError(errno_.EINVAL, "not a symlink")
        self._mac("vnode_check_readlink", vp)
        assert vp.linktarget is not None
        return vp.linktarget

    # ------------------------------------------------------------------
    # stat / metadata
    # ------------------------------------------------------------------

    def _stat_of(self, vp: Vnode) -> Stat:
        size = 0
        if vp.is_reg and vp.data is not None:
            size = len(vp.data)
        elif vp.is_dir and vp.entries is not None:
            size = len(vp.entries)
        return Stat(
            vid=vp.vid,
            vtype=vp.vtype,
            mode=vp.mode,
            uid=vp.uid,
            gid=vp.gid,
            size=size,
            nlink=vp.nlink,
            mtime=vp.mtime,
        )

    def stat(self, path: str) -> Stat:
        self._count("stat")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        self._mac("vnode_check_stat", vp)
        return self._stat_of(vp)

    def lstat(self, path: str) -> Stat:
        self._count("lstat")
        _, _, vp = self._resolve(path, follow=False)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        self._mac("vnode_check_stat", vp)
        return self._stat_of(vp)

    def fstat(self, fd: int) -> Stat:
        self._count("fstat")
        obj = self.proc.fdtable.get(fd).obj
        if isinstance(obj, Vnode):
            self._mac("vnode_check_stat", obj)
            return self._stat_of(obj)
        if isinstance(obj, PipeEnd):
            self._mac("pipe_check_stat", obj.pipe)
            return Stat(0, VType.VFIFO, 0o600, self.proc.cred.uid, self.proc.cred.gid,
                        len(obj.pipe.buffer), 1, 0)
        raise SysError(errno_.EINVAL, "fstat target")

    def fstatat(self, dirfd: int, name: str) -> Stat:
        self._count("fstatat")
        dvp = self._vnode_for_fd(dirfd, directory=True)
        vp = self._lookup_once(dvp, name)
        self._mac("vnode_check_stat", vp)
        return self._stat_of(vp)

    def chmod(self, path: str, mode: int) -> None:
        self._count("chmod")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not self.proc.cred.is_root and self.proc.cred.uid != vp.uid:
            raise SysError(errno_.EPERM, "chmod: not owner")
        self._mac("vnode_check_setmode", vp, mode)
        self.kernel.vfs.set_meta(vp, mode=mode & 0o7777)

    def fchmod(self, fd: int, mode: int) -> None:
        self._count("fchmod")
        vp = self._vnode_for_fd(fd)
        if not self.proc.cred.is_root and self.proc.cred.uid != vp.uid:
            raise SysError(errno_.EPERM, "chmod: not owner")
        self._mac("vnode_check_setmode", vp, mode)
        self.kernel.vfs.set_meta(vp, mode=mode & 0o7777)

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._count("chown")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not self.proc.cred.is_root:
            raise SysError(errno_.EPERM, "chown requires root")
        self._mac("vnode_check_setowner", vp, uid, gid)
        self.kernel.vfs.set_meta(vp, uid=uid, gid=gid)

    def utimes(self, path: str, mtime: int) -> None:
        self._count("utimes")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not self.proc.cred.is_root and self.proc.cred.uid != vp.uid:
            raise SysError(errno_.EPERM, "utimes: not owner")
        self._mac("vnode_check_setutimes", vp)
        self.kernel.vfs.set_meta(vp, mtime=mtime)

    # ------------------------------------------------------------------
    # cwd and the new `path` syscall
    # ------------------------------------------------------------------

    def chdir(self, path: str) -> None:
        self._count("chdir")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        if not vp.is_dir:
            raise SysError(errno_.ENOTDIR, path)
        _dac(self.proc, vp, X_OK, "chdir")
        self._mac("vnode_check_chdir", vp)
        self.proc.cwd = vp

    def fchdir(self, fd: int) -> None:
        self._count("fchdir")
        vp = self._vnode_for_fd(fd, directory=True)
        _dac(self.proc, vp, X_OK, "fchdir")
        self._mac("vnode_check_chdir", vp)
        self.proc.cwd = vp

    def getcwd(self) -> str:
        self._count("getcwd")
        return self.kernel.vfs.path_of(self.proc.cwd)

    def path(self, fd: int) -> str:
        """The paper's new syscall: retrieve an accessible path for a file
        descriptor from the filesystem's lookup (name) cache.  Fails with
        ``ENOENT`` when the cache cannot produce one; callers (the SHILL
        runtime) then fall back to the last known path.
        """
        self._count("path")
        vp = self._vnode_for_fd(fd)
        return self.kernel.vfs.path_of(vp)

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------

    def pipe(self) -> tuple[int, int]:
        self._count("pipe")
        self._mac("pipe_check_create")
        rend, wend = make_pipe()
        self._post("pipe_post_create", rend.pipe)
        rfd = self._alloc_fd(OpenFile(rend, O_RDONLY))
        wfd = self._alloc_fd(OpenFile(wend, O_WRONLY))
        return rfd, wfd

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    def socket(self, domain: AddressFamily, stype: SocketType) -> int:
        self._count("socket")
        self._mac("socket_check_create", int(domain), int(stype))
        sock = Socket(domain, stype)
        return self._alloc_fd(OpenFile(sock, O_RDWR))

    def _socket_for_fd(self, fd: int) -> Socket:
        obj = self.proc.fdtable.get(fd).obj
        if not isinstance(obj, Socket):
            raise SysError(errno_.EINVAL, "fd is not a socket")
        return obj

    def bind(self, fd: int, addr: tuple) -> None:
        self._count("bind")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_bind", sock, addr)
        self.kernel.network.bind(sock, addr)

    def listen(self, fd: int) -> None:
        self._count("listen")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_listen", sock)
        self.kernel.network.listen(sock)

    def accept(self, fd: int) -> int:
        self._count("accept")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_accept", sock)
        conn = self.kernel.network.accept(sock)
        return self._alloc_fd(OpenFile(conn, O_RDWR))

    def connect(self, fd: int, addr: tuple) -> None:
        self._count("connect")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_connect", sock, addr)
        self.kernel.network.connect(sock, addr)

    def send(self, fd: int, data: bytes) -> int:
        self._count("send")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_send", sock)
        return self.kernel.network.send(sock, data)

    def recv(self, fd: int, size: int) -> bytes:
        self._count("recv")
        sock = self._socket_for_fd(fd)
        self._mac("socket_check_receive", sock)
        return self.kernel.network.recv(sock, size)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def fork(self) -> Process:
        self._count("fork")
        limit = self.proc.ulimits.processes
        if limit is not None and len([c for c in self.proc.children if not c.exited]) >= limit:
            raise SysError(errno_.EAGAIN, "ulimit: processes")
        return self.kernel.procs.fork(self.proc)

    def kill(self, pid: int, signum: int) -> None:
        self._count("kill")
        target = self.kernel.procs.get(pid)
        self._mac("proc_check_signal", target, signum)
        if not self.proc.cred.is_root and self.proc.cred.uid != target.cred.uid:
            raise SysError(errno_.EPERM, "kill: different user")
        target.deliver(signum)

    def wait(self, pid: int) -> int:
        self._count("wait")
        target = self.kernel.procs.get(pid)
        if target.ppid != self.proc.pid:
            raise SysError(errno_.ECHILD, f"pid {pid} is not a child")
        self._mac("proc_check_wait", target)
        if not target.exited:
            raise SysError(errno_.EAGAIN, "child still running")
        return target.exit_status

    def ptrace_attach(self, pid: int) -> None:
        self._count("ptrace")
        target = self.kernel.procs.get(pid)
        self._mac("proc_check_debug", target)
        if not self.proc.cred.is_root and self.proc.cred.uid != target.cred.uid:
            raise SysError(errno_.EPERM, "ptrace: different user")

    def exec_fd(self, fd: int, argv: list[str], env: dict[str, str] | None = None) -> int:
        """Execute the program behind ``fd`` in a forked child, wait for it,
        and return its exit status.  This is how sandboxed programs (e.g.
        ``gmake``) spawn sub-programs: the child inherits the session.
        """
        self._count("exec")
        vp = self._vnode_for_fd(fd)
        child = self.fork()
        return self.kernel.exec_file(child, vp, argv, env)

    def spawn(self, path: str, argv: list[str], env: dict[str, str] | None = None) -> int:
        """fork + exec by path + wait: the everyday way programs run other
        programs.  Path resolution happens in the caller's context, so a
        sandboxed caller needs lookup privileges along the way.
        """
        self._count("exec")
        _, _, vp = self._resolve(path)
        if vp is None:
            raise SysError(errno_.ENOENT, path)
        child = self.fork()
        return self.kernel.exec_file(child, vp, argv, env)

    # ------------------------------------------------------------------
    # system-wide: sysctl, kenv, kld, IPC
    # ------------------------------------------------------------------

    def sysctl_get(self, name: str) -> object:
        self._count("sysctl")
        return self.kernel.sysctl.get(self.proc, name)

    def sysctl_set(self, name: str, value: object) -> None:
        self._count("sysctl")
        self.kernel.sysctl.set(self.proc, name, value)

    def kenv_get(self, name: str) -> str:
        self._count("kenv")
        return self.kernel.kenv.get(self.proc, name)

    def kenv_set(self, name: str, value: str) -> None:
        self._count("kenv")
        self.kernel.kenv.set(self.proc, name, value)

    def kldunload(self, name: str) -> None:
        self._count("kld")
        self.kernel.kld.kldunload(self.proc, name)

    def shm_open(self, name: str, create: bool = True) -> bytearray:
        self._count("shm_open")
        return self.kernel.ipc.shm_open(self.proc, name, create)

    def msgget(self, key: int) -> int:
        self._count("msgget")
        return self.kernel.ipc.msgget(self.proc, key)

    # ------------------------------------------------------------------
    # SHILL sandbox syscalls (provided by the kernel module)
    # ------------------------------------------------------------------

    def shill_init(self):
        """Create a new session and associate it with the current process
        (section 3.2.1).  Requires the SHILL policy module to be loaded.
        """
        self._count("shill_init")
        policy = self.kernel.shill_policy()
        return policy.sessions.shill_init(self.proc)

    def shill_enter(self) -> None:
        """Seal the current process's session: from now on "the session
        allows only operations permitted by capabilities it was granted
        explicitly" (section 3.2.1).
        """
        self._count("shill_enter")
        policy = self.kernel.shill_policy()
        policy.sessions.shill_enter(self.proc)

    # -- convenience helpers used by programs and tests --------------------

    def read_whole(self, path: str) -> bytes:
        fd = self.open(path, O_RDONLY)
        try:
            chunks = []
            while True:
                chunk = self.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        finally:
            self.close(fd)

    def write_whole(self, path: str, data: bytes, *, append: bool = False, mode: int = 0o644) -> None:
        flags = O_WRONLY | O_CREAT | (O_APPEND if append else O_TRUNC)
        fd = self.open(path, flags, mode)
        try:
            self.write(fd, data)
        finally:
            self.close(fd)
