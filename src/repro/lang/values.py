"""Runtime values of the SHILL language.

Most values are plain Python objects (str, int/float, bool, list), which
keeps builtins simple.  Language-specific values:

* :data:`VOID` — the unit value ("no value is returned");
* :class:`SysErrorVal` — a *value* representing a failed resource
  operation.  SHILL scripts branch on these (``if !is_syserror(child)``)
  rather than unwinding, so builtins catch :class:`SysError` and return
  one;
* :class:`Closure` — a user function: its compiled body and the
  environment it was created in.  SHILL has no mutable variables, so the
  captured environment is write-once (recursion is tied by completing a
  reserved binding, never by re-assignment);
* :class:`BuiltinFunction` — a Python-implemented primitive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ShillRuntimeError

if TYPE_CHECKING:
    from repro.lang.env import Env


class Void:
    _instance: "Void | None" = None

    def __new__(cls) -> "Void":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "void"

    def __bool__(self) -> bool:
        return False


VOID = Void()


class SysErrorVal:
    """A system error as a first-class value."""

    def __init__(self, name: str, message: str = "") -> None:
        self.name = name
        self.message = message

    def __repr__(self) -> str:
        return f"syserror({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SysErrorVal) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("syserror", self.name))


class Closure:
    """A user-defined function value.  ``body`` is the compiled code of the
    function's block (see :mod:`repro.lang.interp`), run in a frame that
    binds ``params`` on top of ``env``."""

    __slots__ = ("name", "params", "body", "env")

    def __init__(
        self, name: str, params: Sequence[str], body: Callable[["Env"], Any], env: "Env"
    ) -> None:
        self.name = name
        self.params = params
        self.body = body
        self.env = env

    @property
    def display_name(self) -> str:
        return self.name or "<anonymous fun>"

    def __repr__(self) -> str:
        return f"<fun {self.display_name}({', '.join(self.params)})>"


class BuiltinFunction:
    """A primitive implemented in Python.

    ``fn(*args, **kwargs)`` receives already-evaluated SHILL values and
    returns one.  ``name`` is the identifier scripts call it by.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[..., Any]) -> None:
        self.name = name
        self.fn = fn

    @property
    def display_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<builtin {self.name}>"


def truthy(value: Any) -> bool:
    """SHILL truth: booleans only — other types in conditions are errors,
    except that this helper is also used by `&&`/`||` shortcuts."""
    if isinstance(value, bool):
        return value
    raise ShillRuntimeError(f"condition must be a boolean, got {value!r}")


def shill_repr(value: Any) -> str:
    """Display form used by error messages and the `show` builtin."""
    if value is VOID:
        return "void"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(shill_repr(v) for v in value) + "]"
    return repr(value)
