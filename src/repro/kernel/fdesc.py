"""File descriptors and per-process descriptor tables.

An :class:`OpenFile` is the kernel's "open file description": it pairs a
kernel object (vnode, pipe end, or socket) with open flags and a seek
offset.  File descriptors are small integers indexing a per-process
table, and — as in Unix — several descriptors (including inherited ones)
may share one open file description.

File descriptors are the **low-level capabilities** of the paper
(section 3.1.3): "File descriptors provide unforgeable tokens that can
serve as low-level capabilities for directories, files, links, pipes,
sockets, and devices."
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Union

from repro.errors import SysError
from repro.kernel import errno_

if TYPE_CHECKING:
    from repro.kernel.pipes import PipeEnd
    from repro.kernel.sockets import Socket
    from repro.kernel.vfs import Vnode


class OpenFlags(enum.IntFlag):
    """Open(2) flags; values follow FreeBSD's ``fcntl.h``."""

    O_RDONLY = 0x0000
    O_WRONLY = 0x0001
    O_RDWR = 0x0002
    O_APPEND = 0x0008
    O_CREAT = 0x0200
    O_TRUNC = 0x0400
    O_EXCL = 0x0800
    O_DIRECTORY = 0x20000
    O_EXEC = 0x40000
    O_NOFOLLOW = 0x0100

    # Both test the int value: ``self & 0x3`` would run Flag.__and__.
    @property
    def readable(self) -> bool:
        return (int(self) & 0x3) in (0x0, 0x2)

    @property
    def writable(self) -> bool:
        return (int(self) & 0x3) in (0x1, 0x2)


KernelObject = Union["Vnode", "PipeEnd", "Socket"]


class OpenFile:
    """An open file description shared by one or more descriptors."""

    __slots__ = ("obj", "flags", "offset", "refcount")

    def __init__(self, obj: KernelObject, flags: OpenFlags) -> None:
        self.obj = obj
        self.flags = flags
        self.offset = 0
        self.refcount = 0

    def incref(self) -> "OpenFile":
        self.refcount += 1
        return self

    def decref(self) -> None:
        self.refcount -= 1
        if self.refcount <= 0:
            close = getattr(self.obj, "on_last_close", None)
            if close is not None:
                close()


class FDTable:
    """A per-process map of descriptor numbers to open file descriptions."""

    MAX_FDS = 1024

    def __init__(self) -> None:
        self._table: dict[int, OpenFile] = {}
        self._next = 0

    def alloc(self, of: OpenFile) -> int:
        fd = 0
        while fd in self._table:
            fd += 1
        if fd >= self.MAX_FDS:
            raise SysError(errno_.EMFILE, "too many open files")
        self._table[fd] = of.incref()
        return fd

    def install(self, fd: int, of: OpenFile) -> None:
        """Install at a specific number (used to wire stdio as 0/1/2)."""
        if fd in self._table:
            self._table[fd].decref()
        self._table[fd] = of.incref()

    def get(self, fd: int) -> OpenFile:
        try:
            return self._table[fd]
        except KeyError:
            raise SysError(errno_.EBADF, f"fd {fd}") from None

    def close(self, fd: int) -> None:
        try:
            of = self._table.pop(fd)
        except KeyError:
            raise SysError(errno_.EBADF, f"fd {fd}") from None
        of.decref()

    def close_all(self) -> None:
        for fd in list(self._table):
            self.close(fd)

    def dup_into(self, other: "FDTable", fd: int, newfd: int) -> None:
        other.install(newfd, self.get(fd))

    def fds(self) -> list[int]:
        return sorted(self._table)

    def __contains__(self, fd: int) -> bool:
        return fd in self._table
