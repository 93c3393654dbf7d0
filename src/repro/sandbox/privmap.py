"""Privilege maps: the sandbox's per-object security state.

Section 3.2.2: "SHILL labels these kernel objects with a privilege map: a
map from sessions to sets of privileges.  A privilege map records the
privileges that each session has for the given kernel object."

Privilege maps live in the MAC label slot ``"shill"`` of vnodes, pipes,
and sockets.  The merge rule implements the paper's conservative
no-amplification policy: "SHILL requires that a session is never granted
conflicting privileges to the same object ... we would not merge these
privileges."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sandbox.privileges import PrivSet

if TYPE_CHECKING:
    from repro.kernel.vfs import Label

POLICY_SLOT = "shill"

_EMPTY = PrivSet.empty()


class PrivMap:
    """Map from session id to :class:`PrivSet` for one kernel object."""

    __slots__ = ("_grants",)

    def __init__(self) -> None:
        self._grants: dict[int, PrivSet] = {}

    def privs_for(self, sid: int) -> PrivSet:
        return self._grants.get(sid, _EMPTY)

    def __contains__(self, sid: int) -> bool:
        return sid in self._grants

    def sessions(self) -> list[int]:
        return sorted(self._grants)

    def merge(self, sid: int, incoming: PrivSet) -> int:
        """Merge ``incoming`` privileges for ``sid``; returns the mask of
        the refused privileges' ``Priv.bit`` values (0 when none is).

        * new privilege → added with its modifier;
        * present with an identical modifier → no-op;
        * present with a *different* modifier (deriving privs only) →
          **kept as-is**: merging could amplify privilege, so the sandbox
          refuses it.

        A merge that adds no privilege stores nothing.
        """
        existing = self._grants.get(sid)
        if existing is None:
            self._grants[sid] = incoming
            return 0
        if existing is incoming:
            return 0
        merged, refused = existing.merge(incoming)
        if merged is not existing:
            self._grants[sid] = merged
        return refused

    def drop_session(self, sid: int) -> None:
        self._grants.pop(sid, None)

    def clone(self) -> "PrivMap":
        """An independent map for a forked object's label.  PrivSets are
        immutable and shared; the sid index is copied so grants in one
        world never leak into another (sids stay globally comparable
        because forks preserve the sid watermark)."""
        new = PrivMap()
        new._grants = dict(self._grants)
        return new

    def __repr__(self) -> str:
        return f"PrivMap({self._grants!r})"


def privmap_of(obj) -> PrivMap | None:
    """Return the object's privilege map, or None if it has never been
    labelled by the SHILL policy."""
    label: "Label" = obj.label
    pm = label.get(POLICY_SLOT)
    return pm  # type: ignore[return-value]


def ensure_privmap(obj) -> PrivMap:
    label: "Label" = obj.label
    pm = label.get(POLICY_SLOT)
    if pm is None:
        pm = PrivMap()
        label.set(POLICY_SLOT, pm)
    assert isinstance(pm, PrivMap)
    return pm
