"""Dependency analysis: static footprint × world-delta cache invalidation.

This module is the decision procedure behind the dependency-aware result
cache (build-system *early cutoff* applied to sandboxed runs): a cached
:class:`~repro.api.RunResult` survives a world mutation iff the run's
read footprint **cannot** intersect the mutation's write set.

Three pieces:

* :func:`world_delta_between` / :func:`world_delta_of` — the **world-delta
  analyzer**: statically computes the write set (path prefixes plus
  label/config/watermark mutations) separating a mutated world from its
  boot template.  It walks the two vnode trees in parallel, relying on
  the lazy-fork materialization record for an identity short-circuit
  (untouched subtrees are object-identical across a fork, so the walk is
  O(changed-paths), never O(tree)) — no replay, no op counters moved.
* :func:`may_depend` — the **cache-validity decision procedure**:
  ``may_depend(footprint, delta) -> Verdict`` returns :data:`VALID`,
  :data:`INVALID`, or :data:`UNKNOWN` with per-rule blame strings
  (which prefix intersected, or why the footprint is uncacheable —
  network/wallet/dynamic-path/escape authority force :data:`UNKNOWN`).
* :func:`soundness_escapes` — the **soundness gate** for recorded
  dynamic footprints: every path a run actually touched
  (:attr:`RunResult.touched <repro.api.RunResult.touched>`) must
  intersect the static footprint (``static ⊇ touched``).  A run whose
  touched set escapes its static footprint is served from cache only
  conservatively (never across a mutation), and the escape is surfaced
  as an audit event.

Intersection is deliberately *either-direction* prefix containment
(:func:`prefixes_intersect`): namespace mutators record the parent
directory, traversal symlink reads record short paths, and contracts
grant directory prefixes — so "cannot alias" must hold under both
orientations before a cached result may survive.

Example::

    from repro.analysis import Footprint, WorldDelta, may_depend, VALID, INVALID

    fp = Footprint(script="q.ambient", lang="shill/ambient",
                   reads=("/home/alice/Documents",), writes=("<stdout>",))
    assert may_depend(fp, WorldDelta(writes=("/srv/other",))).state == VALID
    verdict = may_depend(fp, WorldDelta(writes=("/home/alice/Documents/a.txt",)))
    assert verdict.state == INVALID and verdict.blame
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.analysis.footprint import Footprint
    from repro.kernel.kernel import Kernel
    from repro.kernel.vfs import Vnode

#: Verdict states.  ``VALID``: the cached result provably cannot depend
#: on anything the delta wrote — serve it.  ``INVALID``: the delta may
#: intersect the footprint (or mutated non-VFS machine state) — re-run.
#: ``UNKNOWN``: the footprint itself is uncacheable (network, wallet,
#: dynamic paths, escaping authority) — re-run, and don't cache.
VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """The decision, with per-rule blame.

    ``blame`` entries are stable strings: ``uncacheable:<flag>`` for
    :data:`UNKNOWN`, ``invalidated-by:<component-or-prefix>`` for
    :data:`INVALID`; empty for :data:`VALID`.
    """

    state: str
    blame: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.state == VALID

    def to_json(self) -> dict:
        return {"state": self.state, "blame": list(self.blame)}

    def __str__(self) -> str:
        return self.state if not self.blame else f"{self.state} ({self.blame[0]})"


@dataclass(frozen=True)
class WorldDelta:
    """The statically computed write set separating a world from its
    template: path prefixes whose object or namespace changed, plus the
    non-VFS mutation classes the state epoch tracks.

    ``watermark_drift`` is **observable** (audit lines embed sids, and
    can embed pids — see :attr:`Kernel.state_epoch`), so it invalidates
    like any other mutation; it is reported separately only so blame can
    name it.  ``unknown`` means no template was available to diff
    against — every verdict over it is conservatively :data:`INVALID`.
    """

    writes: tuple[str, ...] = ()
    label_mutation: bool = False
    config_mutation: bool = False
    watermark_drift: bool = False
    unknown: bool = False

    @property
    def clean(self) -> bool:
        """No observable difference from the template at all."""
        return not (self.writes or self.label_mutation or self.config_mutation
                    or self.watermark_drift or self.unknown)

    def to_json(self) -> dict:
        return {
            "writes": list(self.writes),
            "label_mutation": self.label_mutation,
            "config_mutation": self.config_mutation,
            "watermark_drift": self.watermark_drift,
            "unknown": self.unknown,
        }


# ----------------------------------------------------------------------
# the world-delta analyzer
# ----------------------------------------------------------------------

def _labels_equal(a, b) -> bool:
    """Conservative label comparison: equal only when trivially so.

    Unlabelled labels (the overwhelming majority) compare equal; labelled
    ones compare equal only per-slot-identical.  A cloned privilege map
    therefore reads as "changed" — over-approximation is the safe
    direction for a write set."""
    if a._slots is None and b._slots is None:
        return True
    if a._slots is None or b._slots is None:
        return False
    if a._slots.keys() != b._slots.keys():
        return False
    return all(a._slots[k] is b._slots[k] for k in a._slots)


def _vnode_state_equal(cur: "Vnode", base: "Vnode") -> bool:
    """Own-state comparison for the tree diff.

    Pure cache state — ``nc_parent``/``nc_name`` (name-cache
    backpointers, refreshed by read-only lookups) and ``data_shared``
    (COW bookkeeping) — is deliberately excluded: it changes under
    reads, and a read is not a write."""
    if (cur.vtype is not base.vtype or cur.mode != base.mode
            or cur.uid != base.uid or cur.gid != base.gid
            or cur.flags != base.flags or cur.nlink != base.nlink
            or cur.linktarget != base.linktarget
            or cur.device is not base.device
            or cur.program != base.program or cur.needed != base.needed
            or cur.mtime != base.mtime):
        return False
    if (cur.data is None) != (base.data is None):
        return False
    if cur.data is not None and cur.data is not base.data:
        if bytes(cur.data) != bytes(base.data):
            return False
    return _labels_equal(cur.label, base.label)


def _join(path: str, name: str) -> str:
    return path.rstrip("/") + "/" + name


def _diff_tree(cur: "Vnode", base: "Vnode", path: str,
               writes: "set[str]", seen: "set[tuple[int, int]]") -> None:
    if cur is base:
        # The lazy-fork materialization record at work: a subtree still
        # object-identical to the template was provably never written.
        return
    key = (id(cur), id(base))
    if key in seen:
        return
    seen.add(key)
    if not _vnode_state_equal(cur, base):
        writes.add(path)
    if cur.is_dir and base.is_dir:
        cur_entries = cur.entries or {}
        base_entries = base.entries or {}
        for name in cur_entries.keys() | base_entries.keys():
            c, b = cur_entries.get(name), base_entries.get(name)
            child = _join(path, name)
            if c is None or b is None:
                writes.add(child)
            else:
                _diff_tree(c, b, child, writes, seen)


def _shill_sid(kernel: "Kernel") -> int:
    shill = kernel.mac.find("shill")
    return shill.sessions.last_sid if shill is not None else 0


def world_delta_between(kernel: "Kernel", template: "Kernel") -> WorldDelta:
    """Diff a (possibly mutated) fork against the template it was forked
    from.  Never materializes lazy subtrees, never moves an op counter."""
    writes: set[str] = set()
    _diff_tree(kernel.vfs.root, template.vfs.root, "/", writes, set())
    config = (kernel.users.mutations != template.users.mutations
              or kernel.sysctl.mutations != template.sysctl.mutations
              or kernel.kenv.mutations != template.kenv.mutations
              or kernel.ipc.mutations != template.ipc.mutations
              or kernel.network.mutations != template.network.mutations
              or kernel.mac.mutations != template.mac.mutations
              or kernel._epoch != template._epoch)
    watermark = (kernel.procs.allocated != template.procs.allocated
                 or _shill_sid(kernel) != _shill_sid(template))
    label = kernel.mac.label_epoch != template.mac.label_epoch
    return WorldDelta(writes=tuple(sorted(writes)),
                      label_mutation=label,
                      config_mutation=config,
                      watermark_drift=watermark)


def world_delta_of(world) -> WorldDelta:
    """The delta separating a booted :class:`~repro.api.World` from its
    boot-cache template.  ``unknown=True`` when the template has been
    evicted (or the world has no digest) — callers must then treat every
    cached result for this world as invalid."""
    from repro.api.worlds import _BOOT_CACHE

    if world.kernel is None or world.digest is None:
        return WorldDelta(unknown=True)
    cached = _BOOT_CACHE.get(world.digest)
    if cached is None:
        return WorldDelta(unknown=True)
    template, _ = cached
    return world_delta_between(world.kernel, template)


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------

def prefixes_intersect(a: str, b: str) -> bool:
    """Either-direction prefix containment: can paths under ``a`` alias
    paths under ``b``?  (Sentinel pseudo-paths — ``<stdout>`` and kin —
    never intersect real paths.)"""
    if a.startswith("<") or b.startswith("<"):
        return False
    return (a == b
            or b.startswith(a.rstrip("/") + "/")
            or a.startswith(b.rstrip("/") + "/"))


def expand_home(prefix: str, home: "str | None") -> str:
    """Expand a leading ``~`` against the run user's home directory."""
    if home and prefix == "~":
        return home
    if home and prefix.startswith("~/"):
        return home.rstrip("/") + prefix[1:]
    return prefix


def _uncacheable(footprint: "Footprint", home: "str | None") -> list[str]:
    """Why this footprint can never back a cache hit (empty = cacheable)."""
    blame: list[str] = []
    if footprint.network:
        blame.append("uncacheable:network")
    if footprint.wallet:
        blame.append("uncacheable:wallet")
    for prefix in footprint.reads + footprint.writes + footprint.executes:
        if prefix == "<dynamic>":
            blame.append("uncacheable:dynamic-path")
        elif prefix.startswith("~") and not home:
            blame.append(f"uncacheable:unresolved-home:{prefix}")
    for name in footprint.requires:
        blame.append(f"uncacheable:requires:{name}")
    for export in footprint.exports:
        for param in export.params:
            if param.network:
                blame.append(f"uncacheable:network:{export.name}/{param.name}")
            if param.wallet:
                blame.append(f"uncacheable:wallet:{export.name}/{param.name}")
            if param.escapes:
                blame.append(f"uncacheable:escape:{export.name}/{param.name}")
    return blame


def footprint_prefixes(footprint: "Footprint",
                       home: "str | None" = None) -> tuple[str, ...]:
    """Every real path prefix the footprint may touch, ``~``-expanded."""
    raw = footprint.reads + footprint.writes + footprint.executes
    return tuple(expand_home(p, home) for p in raw if not p.startswith("<"))


def may_depend(footprint: "Footprint | None", delta: WorldDelta,
               home: "str | None" = None) -> Verdict:
    """May a run with this static footprint depend on anything the world
    delta wrote?  The cache-validity decision procedure.

    :data:`VALID` ⇒ a cached result for the run is byte-identical to a
    fresh re-run against the mutated world (the hypothesis property in
    ``tests/analysis/test_deps_properties.py`` checks exactly this).
    """
    if footprint is None:
        return Verdict(UNKNOWN, ("uncacheable:no-footprint",))
    blame = _uncacheable(footprint, home)
    if blame:
        return Verdict(UNKNOWN, tuple(blame))
    if delta.unknown:
        return Verdict(INVALID, ("invalidated-by:unknown-world-delta",))
    invalid: list[str] = []
    if delta.config_mutation:
        invalid.append("invalidated-by:config-mutation")
    if delta.label_mutation:
        invalid.append("invalidated-by:label-mutation")
    if delta.watermark_drift:
        # Observable: audit lines embed sids/pids (Kernel.state_epoch).
        invalid.append("invalidated-by:watermark-drift")
    prefixes = footprint_prefixes(footprint, home)
    for written in delta.writes:
        for prefix in prefixes:
            if prefixes_intersect(prefix, written):
                invalid.append(f"invalidated-by:{written}")
                break
    if invalid:
        return Verdict(INVALID, tuple(invalid))
    return Verdict(VALID)


# ----------------------------------------------------------------------
# the soundness gate: static ⊇ touched
# ----------------------------------------------------------------------

def soundness_escapes(footprint: "Footprint | None",
                      touched: "Iterable[tuple[str, str]]",
                      home: "str | None" = None) -> tuple[str, ...]:
    """Touched paths the static footprint fails to account for.

    ``touched`` is :attr:`RunResult.touched` — recorded ``(kind, path)``
    pairs.  A path is accounted for when it intersects some footprint
    prefix under :func:`prefixes_intersect` (either direction — the
    same rule :func:`may_depend` uses, so "accounted for" and "a write
    there invalidates" coincide).  Sentinel paths (``<detached>``)
    always escape: an unattributable touch cannot be proven disjoint
    from anything.  Non-empty ⇒ the contract under-declares; results
    must not survive any world mutation (and the escape is audited).
    """
    if footprint is None:
        return tuple(f"{kind}:{path}" for kind, path in touched)
    prefixes = footprint_prefixes(footprint, home)
    escaped: list[str] = []
    for kind, path in touched:
        if path.startswith("<"):
            escaped.append(f"{kind}:{path}")
            continue
        if not any(prefixes_intersect(prefix, path) for prefix in prefixes):
            escaped.append(f"{kind}:{path}")
    return tuple(escaped)


__all__ = [
    "VALID",
    "INVALID",
    "UNKNOWN",
    "Verdict",
    "WorldDelta",
    "world_delta_between",
    "world_delta_of",
    "may_depend",
    "prefixes_intersect",
    "expand_home",
    "footprint_prefixes",
    "soundness_escapes",
]
