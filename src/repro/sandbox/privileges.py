"""Privileges: the atoms of SHILL authority.

The paper (section 3.1.1): "In total, SHILL has twenty-four different
privileges for filesystem capabilities and seven different privileges for
sockets.  Socket privileges are further refined by connection type."
Privileges "align closely with the operations that our capability-based
sandbox can interpose on, so that we can ensure that giving a capability
to a sandbox conveys the same authority as giving that capability to a
SHILL script."

A :class:`PrivSet` is an immutable set of filesystem privileges where the
*deriving* privileges (``+lookup`` and the three ``+create-*``) may carry
a **modifier**: either ``None`` ("derived capabilities have the same
privileges as the parent") or an explicit privilege set (``+lookup with
{+stat, +path}``).
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Iterator, Mapping, Optional


class Priv(enum.Enum):
    """The 24 filesystem privileges.

    ``bit`` is the member's bit in a :class:`PrivSet` mask: bit *i* for
    the *i*-th privilege in declaration order.
    """

    bit: int

    # data access
    READ = "read"
    WRITE = "write"
    APPEND = "append"
    TRUNCATE = "truncate"
    IOCTL = "ioctl"
    # metadata
    STAT = "stat"
    PATH = "path"
    CHMOD = "chmod"
    CHOWN = "chown"
    CHFLAGS = "chflags"
    UTIMES = "utimes"
    # execution and traversal
    EXEC = "exec"
    CHDIR = "chdir"
    LOOKUP = "lookup"
    CONTENTS = "contents"
    READ_SYMLINK = "read-symlink"
    # namespace modification
    CREATE_FILE = "create-file"
    CREATE_DIR = "create-dir"
    CREATE_PIPE = "create-pipe"
    CREATE_SYMLINK = "create-symlink"
    UNLINK_FILE = "unlink-file"
    UNLINK_DIR = "unlink-dir"
    RENAME = "rename"
    LINK = "link"

    def __repr__(self) -> str:
        return f"+{self.value}"


for _index, _priv in enumerate(Priv):
    _priv.bit = 1 << _index

#: Privileges whose exercise mints capabilities for *other* objects; only
#: these may carry ``with {...}`` modifiers.
DERIVING_PRIVS = frozenset(
    {Priv.LOOKUP, Priv.CREATE_FILE, Priv.CREATE_DIR, Priv.CREATE_PIPE}
)

ALL_PRIVS = frozenset(Priv)

_BY_NAME = {p.value: p for p in Priv}


def priv_from_name(name: str) -> Priv:
    """Parse ``"read"`` or ``"+read"`` into a :class:`Priv`."""
    key = name.lstrip("+")
    try:
        return _BY_NAME[key]
    except KeyError:
        raise ValueError(f"unknown privilege {name!r}") from None


Modifier = Optional[frozenset[Priv]]

_PRIVS = tuple(Priv)
_ALL_MASK = (1 << len(_PRIVS)) - 1
_DERIVING_BITS = tuple(p.bit for p in _PRIVS if p in DERIVING_PRIVS)
_DERIVING_MASK = sum(_DERIVING_BITS)
#: ``(bit, "+name")`` in name order, the order ``repr`` lists privileges in.
_NAMED_BITS = tuple((p.bit, f"+{p.value}") for p in sorted(_PRIVS, key=lambda p: p.value))

#: Frozenset views, and reprs, kept per process (each memo holds this
#: many).  A run meets a few dozen distinct sets; audit grant and revoke
#: lines format one for every grant.
MASK_VIEWS = 256


@functools.lru_cache(maxsize=MASK_VIEWS)
def _members(mask: int) -> frozenset[Priv]:
    return frozenset(p for p in _PRIVS if mask & p.bit)


@functools.lru_cache(maxsize=MASK_VIEWS)
def _repr(mask: int, mods: tuple[tuple[int, int], ...]) -> str:
    explicit = dict(mods)
    parts = []
    for bit, name in _NAMED_BITS:
        if mask & bit:
            mod = explicit.get(bit)
            if mod is None:
                parts.append(name)
            else:
                inner = ",".join(n for b, n in _NAMED_BITS if mod & b)
                parts.append(f"{name} with {{{inner}}}")
    return "{" + ", ".join(parts) + "}"


def _mask_of(privs: Iterable[Priv]) -> int:
    mask = 0
    for priv in privs:
        if not isinstance(priv, Priv):
            raise TypeError(f"not a privilege: {priv!r}")
        mask |= priv.bit
    return mask


class PrivSet(Mapping[Priv, Modifier]):
    """An immutable privilege set with per-privilege derive modifiers.

    Mapping semantics: keys are held privileges; the value is the modifier
    (``None`` = derived objects inherit this whole set; a frozenset =
    derived objects get exactly those privileges).  Modifiers on
    non-deriving privileges are rejected.

    The set is kept as a C MAC module would keep it in a label: ``mask``
    has the ``bit`` of every held privilege, and ``_mods`` maps the bit of
    each deriving privilege that carries an explicit ``with {...}`` to
    that modifier's mask.  Inherit modifiers have no entry.  Iteration
    follows declaration order.
    """

    __slots__ = ("mask", "_mods")

    mask: int
    _mods: dict[int, int]

    def __init__(self, privs: Mapping[Priv, Modifier] | Iterable[tuple[Priv, Modifier]] = ()):
        mask = 0
        mods: dict[int, int] = {}
        for priv, modifier in dict(privs).items():
            if not isinstance(priv, Priv):
                raise TypeError(f"not a privilege: {priv!r}")
            mask |= priv.bit
            if modifier is not None:
                if not priv.bit & _DERIVING_MASK:
                    raise ValueError(f"modifier on non-deriving privilege {priv!r}")
                mods[priv.bit] = _mask_of(modifier)
        self.mask = mask
        self._mods = mods

    @classmethod
    def _make(cls, mask: int, mods: dict[int, int]) -> "PrivSet":
        """Build from a mask and modifier masks already known valid."""
        new = object.__new__(cls)
        new.mask = mask
        new._mods = mods
        return new

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, *privs: Priv) -> "PrivSet":
        """A set of privileges, all with the inherit modifier."""
        return cls._make(_mask_of(privs), {})

    @classmethod
    def full(cls) -> "PrivSet":
        """All 24 privileges; deriving privileges inherit the full set."""
        return _FULL

    @classmethod
    def empty(cls) -> "PrivSet":
        return _EMPTY

    def with_modifier(self, priv: Priv, mods: Iterable[Priv]) -> "PrivSet":
        """Return a copy where ``priv`` carries ``with {mods}``."""
        if not isinstance(priv, Priv):
            raise TypeError(f"not a privilege: {priv!r}")
        if not priv.bit & _DERIVING_MASK:
            raise ValueError(f"modifier on non-deriving privilege {priv!r}")
        return PrivSet._make(self.mask | priv.bit, {**self._mods, priv.bit: _mask_of(mods)})

    def adding(self, *privs: Priv) -> "PrivSet":
        return PrivSet._make(self.mask | _mask_of(privs), self._mods)

    def removing(self, *privs: Priv) -> "PrivSet":
        mask = self.mask & ~_mask_of(privs)
        return PrivSet._make(mask, {b: m for b, m in self._mods.items() if mask & b})

    # -- queries ---------------------------------------------------------------

    def has(self, priv: Priv) -> bool:
        return self.mask & priv.bit != 0

    def modifier(self, priv: Priv) -> Modifier:
        if not self.mask & priv.bit:
            raise KeyError(priv)
        mod = self._mods.get(priv.bit)
        return None if mod is None else _members(mod)

    def privs(self) -> frozenset[Priv]:
        return _members(self.mask)

    def _effective(self, bit: int) -> int:
        """The mask a capability derived via the held privilege ``bit``
        would hold: the explicit modifier, else this whole set."""
        return self._mods.get(bit, self.mask)

    def effective_modifier(self, priv: Priv) -> frozenset[Priv]:
        """The modifier with ``None`` (inherit) resolved to this set's own
        privileges — the set a capability derived via ``priv`` would hold.
        """
        if not self.mask & priv.bit:
            raise KeyError(priv)
        return _members(self._effective(priv.bit))

    def derived_set(self, priv: Priv) -> "PrivSet":
        """The :class:`PrivSet` for a capability derived via ``priv``.

        Inherit modifier: the derived capability "has the same privileges
        as its parent capability" — the whole set including modifiers.
        Explicit modifier: exactly those privileges (inheriting onward).
        """
        if not self.mask & priv.bit:
            raise KeyError(priv)
        mod = self._mods.get(priv.bit)
        if mod is None:
            return self
        return PrivSet._make(mod, {})

    def subset_of(self, other: "PrivSet") -> bool:
        """Is every privilege (and every derivable consequence) of ``self``
        also available via ``other``?  Used for contract checks and for
        the parent-session bound when granting to child sessions.
        """
        mask = self.mask
        if mask & ~other.mask:
            return False
        for bit in _DERIVING_BITS:
            if mask & bit and self._effective(bit) & ~other._effective(bit):
                return False
        return True

    def restricted_to(self, allowed: "PrivSet") -> "PrivSet":
        """Intersection used when a capability passes through a contract:
        keep only privileges present in ``allowed``, taking the *narrower*
        modifier on deriving privileges.
        """
        mask = self.mask & allowed.mask
        mods = {
            bit: self._effective(bit) & allowed._effective(bit)
            for bit in _DERIVING_BITS
            if mask & bit
        }
        return PrivSet._make(mask, mods)

    def merge(self, incoming: "PrivSet") -> tuple["PrivSet", int]:
        """``incoming`` merged into this set without amplification.

        Privileges this set lacks are added with their modifiers.  A
        deriving privilege both sets hold with different effective
        modifiers keeps this set's modifier.  Returns the merged set —
        ``self`` when nothing is added — and the mask of those refused
        privileges.
        """
        mask = self.mask
        inc = incoming.mask
        refused = 0
        both = mask & inc & _DERIVING_MASK
        if both:
            mine, theirs = self._mods, incoming._mods
            for bit in _DERIVING_BITS:
                if both & bit and mine.get(bit, mask) != theirs.get(bit, inc):
                    refused |= bit
        added = inc & ~mask
        if not added:
            return self, refused
        mods = self._mods
        if incoming._mods and added & _DERIVING_MASK:
            mods = {**mods, **{b: m for b, m in incoming._mods.items() if added & b}}
        return PrivSet._make(mask | added, mods), refused

    # -- Mapping protocol ---------------------------------------------------------

    def __getitem__(self, priv: Priv) -> Modifier:
        if not isinstance(priv, Priv):
            raise KeyError(priv)
        return self.modifier(priv)

    def __iter__(self) -> Iterator[Priv]:
        mask = self.mask
        return (p for p in _PRIVS if mask & p.bit)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _canonical(self) -> tuple:
        """Equality compares *effective* modifiers: an inherit modifier and
        an explicit modifier naming the same privileges are the same
        authority (their derivation chains coincide)."""
        mask = self.mask
        return mask, tuple(self._effective(bit) for bit in _DERIVING_BITS if mask & bit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrivSet):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        # Dict order only splits equal sets across memo entries.
        return _repr(self.mask, tuple(self._mods.items()))


_EMPTY = PrivSet._make(0, {})
_FULL = PrivSet._make(_ALL_MASK, {})


class SockPriv(enum.Enum):
    """The 7 socket privileges."""

    CREATE = "create"
    BIND = "bind"
    CONNECT = "connect"
    LISTEN = "listen"
    ACCEPT = "accept"
    SEND = "send"
    RECEIVE = "receive"

    def __repr__(self) -> str:
        return f"+{self.value}"


ALL_SOCK_PRIVS = frozenset(SockPriv)

_SOCK_BY_NAME = {p.value: p for p in SockPriv}


def sock_priv_from_name(name: str) -> SockPriv:
    key = name.lstrip("+")
    try:
        return _SOCK_BY_NAME[key]
    except KeyError:
        raise ValueError(f"unknown socket privilege {name!r}") from None


class ConnType:
    """A connection-type refinement: (address family, socket type).

    "Socket privileges are further refined by connection type" — a socket
    factory may, e.g., allow only ``inet/stream``.  ``None`` components
    are wildcards.
    """

    __slots__ = ("domain", "stype")

    def __init__(self, domain: int | None = None, stype: int | None = None) -> None:
        self.domain = domain
        self.stype = stype

    def allows(self, domain: int, stype: int) -> bool:
        return (self.domain is None or self.domain == domain) and (
            self.stype is None or self.stype == stype
        )

    def __repr__(self) -> str:
        return f"ConnType(domain={self.domain}, stype={self.stype})"


class SocketPerms:
    """Socket privileges plus their connection-type refinement.

    Attached to a session when it is granted a *socket factory*
    capability; without one, a sandbox "must possess a socket factory
    capability to be allowed to create and use sockets" (section 3.1.1).
    """

    __slots__ = ("privs", "conn_types")

    def __init__(self, privs: Iterable[SockPriv], conn_types: Iterable[ConnType] = ()) -> None:
        self.privs = frozenset(privs)
        self.conn_types = tuple(conn_types) or (ConnType(),)

    @classmethod
    def full(cls) -> "SocketPerms":
        return cls(ALL_SOCK_PRIVS)

    def has(self, priv: SockPriv) -> bool:
        return priv in self.privs

    def allows_conn(self, domain: int, stype: int) -> bool:
        return any(ct.allows(domain, stype) for ct in self.conn_types)

    def subset_of(self, other: "SocketPerms") -> bool:
        if not self.privs <= other.privs:
            return False
        # Every connection type we allow must be allowed by `other`; with
        # wildcard components this is conservative: require each of our
        # conn types to be matched by an equal-or-wider one of theirs.
        for mine in self.conn_types:
            if not any(_conn_wider(theirs, mine) for theirs in other.conn_types):
                return False
        return True

    def __repr__(self) -> str:
        names = ",".join(sorted(f"+{p.value}" for p in self.privs))
        return f"SocketPerms({{{names}}}, {list(self.conn_types)!r})"


def _conn_wider(wider: ConnType, narrower: ConnType) -> bool:
    dom_ok = wider.domain is None or wider.domain == narrower.domain
    typ_ok = wider.stype is None or wider.stype == narrower.stype
    return dom_ok and typ_ok
