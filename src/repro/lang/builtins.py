"""Built-in functions of the SHILL language.

"Conceptually, SHILL capabilities correspond to operating system
representations of resources, such as file descriptors, and built-in
functions such as append and lookup are wrappers for the corresponding
system calls" (section 2.1).

Failed resource operations surface as :class:`SysErrorVal` *values* —
scripts branch on them (``if !is_syserror(child) then ...``) instead of
unwinding.  Contract violations, by design, are not catchable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ShillRuntimeError, SysError
from repro.capability.caps import FsCap, PipeFactoryCap
from repro.contracts import library as ctclib
from repro.lang.values import VOID, BuiltinFunction, SysErrorVal, shill_repr

if TYPE_CHECKING:
    from repro.lang.runner import ShillRuntime


def _syserrors(fn):
    """Convert SysError into a SysErrorVal result."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SysError as err:
            return SysErrorVal(err.name, str(err))

    return wrapper


def _as_bytes(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    return shill_repr(value).encode()


def _require_cap(value: Any, op: str) -> FsCap:
    if not isinstance(value, FsCap):
        raise ShillRuntimeError(f"{op} expects a capability, got {shill_repr(value)}")
    return value


# ---------------------------------------------------------------------------
# capability operations
# ---------------------------------------------------------------------------


def b_is_file(v: Any) -> bool:
    return ctclib.is_file_value(v)


def b_is_dir(v: Any) -> bool:
    return ctclib.is_dir_value(v)


def b_is_syserror(v: Any) -> bool:
    return isinstance(v, SysErrorVal)


@_syserrors
def b_path(cap: Any) -> Any:
    return _require_cap(cap, "path").path()


@_syserrors
def b_size(cap: Any) -> Any:
    return _require_cap(cap, "size").stat().size


@_syserrors
def b_mtime(cap: Any) -> Any:
    return _require_cap(cap, "mtime").stat().mtime


@_syserrors
def b_read(cap: Any) -> Any:
    return _require_cap(cap, "read").read().decode(errors="replace")


@_syserrors
def b_write(cap: Any, data: Any) -> Any:
    _require_cap(cap, "write").write(_as_bytes(data))
    return VOID


@_syserrors
def b_append(cap: Any, data: Any) -> Any:
    _require_cap(cap, "append").append(_as_bytes(data))
    return VOID


@_syserrors
def b_contents(cap: Any) -> Any:
    return _require_cap(cap, "contents").contents()


@_syserrors
def b_lookup(cap: Any, name: str) -> Any:
    return _require_cap(cap, "lookup").lookup(name)


@_syserrors
def b_create_file(cap: Any, name: str) -> Any:
    return _require_cap(cap, "create-file").create_file(name)


@_syserrors
def b_create_dir(cap: Any, name: str) -> Any:
    return _require_cap(cap, "create-dir").create_dir(name)


@_syserrors
def b_unlink(cap: Any, name: str) -> Any:
    _require_cap(cap, "unlink").unlink(name)
    return VOID


@_syserrors
def b_read_symlink(cap: Any, name: str) -> Any:
    return _require_cap(cap, "read-symlink").read_symlink(name)


_SOCKET_DOMAINS = {"inet": 2, "unix": 1}
_SOCKET_TYPES = {"stream": 1, "dgram": 2}


def make_socket_builtins(runtime: "ShillRuntime") -> dict[str, Any]:
    """EXTENSION: socket built-ins (the paper notes direct socket
    manipulation "can be addressed by adding built-in functions ... to
    the language").  Every operation requires a socket factory (or a
    socket derived from one) — capability safety is preserved."""
    from repro.capability.caps import SocketCap, SocketFactoryCap
    from repro.kernel.sockets import AddressFamily, SocketType

    def _sock(value: Any, op: str) -> SocketCap:
        if not isinstance(value, SocketCap):
            raise ShillRuntimeError(f"{op} expects a socket capability")
        return value

    @_syserrors
    def create_socket(factory: Any, domain: str = "inet", stype: str = "stream") -> Any:
        if not isinstance(factory, SocketFactoryCap):
            raise ShillRuntimeError("create_socket expects a socket factory")
        dom = AddressFamily(_SOCKET_DOMAINS.get(domain, 2))
        typ = SocketType(_SOCKET_TYPES.get(stype, 1))
        return factory.create(runtime.sys, dom, typ)

    @_syserrors
    def socket_connect(sock: Any, host: str, port: int) -> Any:
        _sock(sock, "socket_connect").connect(host, port)
        return VOID

    @_syserrors
    def socket_bind(sock: Any, host: str, port: int) -> Any:
        _sock(sock, "socket_bind").bind(host, port)
        return VOID

    @_syserrors
    def socket_listen(sock: Any) -> Any:
        _sock(sock, "socket_listen").listen()
        return VOID

    @_syserrors
    def socket_accept(sock: Any) -> Any:
        return _sock(sock, "socket_accept").accept()

    @_syserrors
    def socket_send(sock: Any, data: Any) -> Any:
        _sock(sock, "socket_send").send(_as_bytes(data))
        return VOID

    @_syserrors
    def socket_recv(sock: Any) -> Any:
        return _sock(sock, "socket_recv").recv().decode(errors="replace")

    @_syserrors
    def socket_close(sock: Any) -> Any:
        _sock(sock, "socket_close").close()
        return VOID

    return {
        "create_socket": create_socket,
        "socket_connect": socket_connect,
        "socket_bind": socket_bind,
        "socket_listen": socket_listen,
        "socket_accept": socket_accept,
        "socket_send": socket_send,
        "socket_recv": socket_recv,
        "socket_close": socket_close,
    }


def b_create_pipe(factory: Any) -> list:
    if not isinstance(factory, PipeFactoryCap):
        raise ShillRuntimeError("create_pipe expects a pipe factory")
    read_cap, write_cap = factory.create()
    return [read_cap, write_cap]


def b_has_ext(cap: Any, ext: str) -> bool:
    """Library helper from Figure 3 ("The library function has_ext also
    uses path")."""
    path = b_path(cap)
    if isinstance(path, SysErrorVal):
        return False
    return path.endswith("." + ext.lstrip("."))


def b_name(cap: Any) -> Any:
    path = b_path(cap)
    if isinstance(path, SysErrorVal):
        return path
    return path.rsplit("/", 1)[-1]


# ---------------------------------------------------------------------------
# strings and lists (pure helpers, no authority involved)
# ---------------------------------------------------------------------------


def b_strcat(*parts: Any) -> str:
    return "".join(p if isinstance(p, str) else shill_repr(p) for p in parts)


def b_to_string(v: Any) -> str:
    return shill_repr(v)


def b_length(v: Any) -> int:
    if isinstance(v, (str, list, tuple)):
        return len(v)
    raise ShillRuntimeError(f"length expects a string or list, got {shill_repr(v)}")


def b_contains(haystack: str, needle: str) -> bool:
    return needle in haystack


def b_split(s: str, sep: str) -> list[str]:
    return s.split(sep)


def b_lines(s: str) -> list[str]:
    return s.splitlines()


def b_starts_with(s: str, prefix: str) -> bool:
    return s.startswith(prefix)


def b_ends_with(s: str, suffix: str) -> bool:
    return s.endswith(suffix)


def b_concat(a: list, b: list) -> list:
    return list(a) + list(b)


def b_push(lst: list, value: Any) -> list:
    return list(lst) + [value]


def b_nth(lst: list, index: int) -> Any:
    if not isinstance(lst, (list, tuple)) or not 0 <= index < len(lst):
        raise ShillRuntimeError(f"nth: bad index {index}")
    return lst[index]


def b_range(n: int) -> list[int]:
    return list(range(int(n)))


# ---------------------------------------------------------------------------
# environment construction
# ---------------------------------------------------------------------------


def make_base_builtins(runtime: "ShillRuntime | None") -> dict[str, Any]:
    """Builtins available to capability-safe scripts."""
    table: dict[str, Any] = {
        # predicates (value versions of the contract predicates)
        "is_file": b_is_file,
        "is_dir": b_is_dir,
        "is_syserror": b_is_syserror,
        "is_bool": ctclib.is_bool_value,
        "is_string": ctclib.is_string_value,
        "is_num": ctclib.is_num_value,
        "is_list": ctclib.is_list_value,
        "is_void": ctclib.is_void_value,
        # capability operations
        "path": b_path,
        "size": b_size,
        "mtime": b_mtime,
        "read": b_read,
        "write": b_write,
        "append": b_append,
        "contents": b_contents,
        "lookup": b_lookup,
        "create_file": b_create_file,
        "create_dir": b_create_dir,
        "unlink": b_unlink,
        "read_symlink": b_read_symlink,
        "create_pipe": b_create_pipe,
        "has_ext": b_has_ext,
        "name": b_name,
        # pure helpers
        "strcat": b_strcat,
        "to_string": b_to_string,
        "length": b_length,
        "contains": b_contains,
        "split": b_split,
        "lines": b_lines,
        "starts_with": b_starts_with,
        "ends_with": b_ends_with,
        "concat": b_concat,
        "push": b_push,
        "nth": b_nth,
        "range": b_range,
    }
    if runtime is not None:
        table["exec"] = runtime.exec_builtin
        table.update(make_socket_builtins(runtime))
    return {name: BuiltinFunction(name, fn) for name, fn in table.items()}
