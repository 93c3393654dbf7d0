"""Static reading of contract syntax: what does a contract *grant*?

A contract in a ``provide`` clause both demands privileges from the
caller (provider obligation) and attenuates the parameter to exactly
those privileges (consumer obligation) — see
:mod:`repro.contracts.capctc`.  For analysis we flatten each parameter
contract to a disjunction of :class:`GrantBranch` objects: the body of
the export must be satisfiable by *some* branch, and any explicit
``+priv`` the body exercises through *no* branch is a least-privilege
gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_ as A
from repro.lang.ctc_elab import privset_from_items
from repro.sandbox.privileges import PrivSet

#: Branch kinds that describe a filesystem capability with a privilege set.
CAP_KINDS = ("dir", "file", "cap")

#: Library contract names with known meanings (beyond privilege bundles).
_PREDICATE_NARROW = {"is_file": "file", "is_dir": "dir", "is_cap": "cap"}
_NEUTRAL_NAMES = {
    "is_bool", "is_string", "is_num", "is_list", "is_syserror", "is_void",
    "void", "any",
}


@dataclass(frozen=True)
class GrantBranch:
    """One alternative a contract may admit.

    ``kind`` is one of ``dir``/``file``/``cap`` (with ``privs``),
    ``pipe_factory``, ``socket``, ``wallet``, ``fun``, ``any``
    (unconstrained — predicates like ``is_list``), or ``opaque``
    (a contract we cannot reason about; suppresses checks).
    """

    kind: str
    privs: PrivSet | None = None

    def admits_privs(self, required: PrivSet) -> bool:
        if self.kind in ("any", "opaque"):
            return True
        if self.kind not in CAP_KINDS:
            return False
        if self.privs is None:
            return True
        return required.subset_of(self.privs)


@dataclass(frozen=True)
class ExplicitPriv:
    """An explicit ``+priv`` item spelled in the contract source."""

    priv_name: str
    span: A.Span


@dataclass(frozen=True)
class Grant:
    """The flattened authority one parameter contract conveys."""

    branches: tuple[GrantBranch, ...] = ()
    explicit: tuple[ExplicitPriv, ...] = ()
    unknown: tuple[tuple[str, A.Span], ...] = field(default=())
    or_parts: tuple[tuple["Grant", A.Span], ...] = ()

    @property
    def opaque(self) -> bool:
        return any(b.kind == "opaque" for b in self.branches) or not self.branches

    @property
    def grants_network(self) -> bool:
        return self.opaque or any(b.kind == "socket" for b in self.branches)

    @property
    def grants_wallet(self) -> bool:
        return self.opaque or any(b.kind == "wallet" for b in self.branches)

    def admits(self, required: PrivSet) -> bool:
        """Does some branch hold (at least) ``required``?"""
        if not self.branches:
            return True
        return any(b.admits_privs(required) for b in self.branches)

    def union_privs(self) -> frozenset:
        """Every privilege any branch may convey (footprint upper bound)."""
        out: set = set()
        for b in self.branches:
            if b.kind in CAP_KINDS and b.privs is not None:
                out |= b.privs.privs()
        return frozenset(out)


def _bundle(name: str) -> tuple[GrantBranch, ...] | None:
    from repro.contracts import library as L

    if name == "readonly":
        return (GrantBranch("dir", L.READONLY_DIR_PRIVS),
                GrantBranch("file", L.READONLY_FILE_PRIVS))
    if name == "writeable":
        return (GrantBranch("file", L.WRITEABLE_FILE_PRIVS),)
    if name == "executable":
        return (GrantBranch("file", L.EXEC_FILE_PRIVS),)
    if name == "full_privs":
        return (GrantBranch("cap", PrivSet.full()),)
    if name == "pipe_factory":
        return (GrantBranch("pipe_factory"),)
    if name == "socket_factory":
        return (GrantBranch("socket"),)
    if name.endswith("_wallet") or name == "wallet":
        return (GrantBranch("wallet"),)
    return None


def _merge_kind(a: str, b: str) -> str | None:
    if a == "any":
        return b
    if b == "any":
        return a
    if a == b:
        return a
    if a == "cap" and b in CAP_KINDS:
        return b
    if b == "cap" and a in CAP_KINDS:
        return a
    if "opaque" in (a, b):
        return "opaque"
    return None


def _merge(a: GrantBranch, b: GrantBranch) -> GrantBranch | None:
    kind = _merge_kind(a.kind, b.kind)
    if kind is None:
        return None
    if a.privs is None:
        return GrantBranch(kind, b.privs)
    if b.privs is None:
        return GrantBranch(kind, a.privs)
    return GrantBranch(kind, a.privs.restricted_to(b.privs))


def grant_of(
    ctc: "A.Ctc",
    poly: dict[str, PrivSet] | None = None,
    known_names: frozenset[str] | set[str] = frozenset(),
) -> Grant:
    """Flatten a contract AST to a :class:`Grant`.

    ``poly`` maps in-scope ``forall`` variables to their privilege
    bounds; ``known_names`` are identifiers bound by requires/defs (a
    name outside both the library and ``known_names`` is reported as
    unknown — rule SH004)."""
    poly = poly or {}

    if isinstance(ctc, A.CtcName):
        name = ctc.name
        if name in poly:
            return Grant((GrantBranch("cap", poly[name]),))
        bundle = _bundle(name)
        if bundle is not None:
            return Grant(bundle)
        if name in _PREDICATE_NARROW:
            return Grant((GrantBranch(_PREDICATE_NARROW[name]),))
        if name in _NEUTRAL_NAMES:
            return Grant((GrantBranch("any"),))
        if name in known_names:
            return Grant((GrantBranch("opaque"),))
        return Grant((GrantBranch("opaque"),), unknown=((name, ctc.span),))

    if isinstance(ctc, A.CtcCap):
        kind = "file" if ctc.kind == "pipe" else ctc.kind
        privs = privset_from_items(ctc.items)
        explicit = tuple(ExplicitPriv(item.priv, item.span) for item in ctc.items)
        return Grant((GrantBranch(kind, privs),), explicit=explicit)

    if isinstance(ctc, A.CtcOr):
        parts = [grant_of(p, poly, known_names) for p in ctc.parts]
        return Grant(
            branches=tuple(b for g in parts for b in g.branches),
            explicit=tuple(e for g in parts for e in g.explicit),
            unknown=tuple(u for g in parts for u in g.unknown),
            or_parts=tuple((g, p.span) for g, p in zip(parts, ctc.parts)),
        )

    if isinstance(ctc, A.CtcAnd):
        parts = [grant_of(p, poly, known_names) for p in ctc.parts]
        branches: list[GrantBranch] = [GrantBranch("any")]
        for g in parts:
            branches = [m for a in branches for b in g.branches
                        if (m := _merge(a, b)) is not None]
        # drop the untouched neutral placeholder if real branches emerged
        real = tuple(b for b in branches if b.kind != "any") or tuple(branches)
        return Grant(
            branches=real,
            explicit=tuple(e for g in parts for e in g.explicit),
            unknown=tuple(u for g in parts for u in g.unknown),
        )

    if isinstance(ctc, A.CtcFun):
        return Grant((GrantBranch("fun"),))

    if isinstance(ctc, A.CtcForall):
        return Grant((GrantBranch("opaque"),))

    return Grant((GrantBranch("opaque"),))
