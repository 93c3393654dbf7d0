"""Lexical environments.

SHILL "does not have mutable variables" (section 2.1), so environments
are write-once: ``define`` adds a fresh binding to the innermost frame
and redefinition is an error.  There is deliberately no ``set``.

Recursive functions still work: module- and block-level definitions
evaluate their right-hand side in an environment where the name is
already reserved, and the closure's captured frame receives the binding
when the definition completes (single assignment, never re-assignment).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ShillRuntimeError

_MISSING = object()


class Env:
    __slots__ = ("_frame", "_parent", "_top")

    def __init__(self, parent: Optional["Env"] = None) -> None:
        self._frame: dict[str, Any] = {}
        self._parent = parent
        # The bindings of the chain's top frame: a module's builtins,
        # imports and top-level definitions.  Compiled code reads a name
        # that no enclosing function, block or ``for`` binds with one
        # probe here instead of a walk up the chain.
        self._top: dict[str, Any] = self._frame if parent is None else parent._top

    def child(self, bindings: dict[str, Any]) -> "Env":
        """A frame over this one holding ``bindings``, whose names the
        caller has made distinct (a call's parameters, a loop variable),
        so no ``define`` check is needed."""
        env = Env.__new__(Env)
        env._frame = bindings
        env._parent = self
        env._top = self._top
        return env

    def define(self, name: str, value: Any) -> None:
        if name in self._frame:
            raise ShillRuntimeError(
                f"duplicate definition of {name!r} (SHILL has no mutable variables)"
            )
        self._frame[name] = value

    def complete_definition(self, name: str, value: Any) -> None:
        """Tie the knot for recursive definitions: replace the reserved
        placeholder installed before evaluating the right-hand side."""
        self._frame[name] = value

    def lookup(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            value = env._frame.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env._parent
        raise ShillRuntimeError(f"unbound variable {name!r}")

    def bound(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env._frame:
                return True
            env = env._parent
        return False

    def names(self) -> list[str]:
        out: set[str] = set()
        env: Env | None = self
        while env is not None:
            out.update(env._frame)
            env = env._parent
        return sorted(out)
