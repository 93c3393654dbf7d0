"""Differential tests: the bitmask PrivSet and PrivMap.merge against a
dict-based reference model.

``RefPrivSet`` and ``ref_merge`` keep the earlier dict-from-``Priv``
representation line for line.  Hypothesis draws privilege sets (with and
without explicit ``with {...}`` modifiers) and checks that both agree on
every query, on equality and hashing, on ``repr`` (audit lines are made
from it) and on what a merge stores and refuses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.sandbox.privileges import DERIVING_PRIVS, Priv, PrivSet
from repro.sandbox.privmap import PrivMap

Modifier = Optional[frozenset]


class RefPrivSet(Mapping):
    """The dict-based privilege set the bitmask one replaced."""

    def __init__(self, privs=()):
        items = dict(privs)
        for priv, modifier in items.items():
            if not isinstance(priv, Priv):
                raise TypeError(f"not a privilege: {priv!r}")
            if modifier is not None:
                if priv not in DERIVING_PRIVS:
                    raise ValueError(f"modifier on non-deriving privilege {priv!r}")
                items[priv] = frozenset(modifier)
        self._privs: dict[Priv, Modifier] = items

    @classmethod
    def of(cls, *privs: Priv) -> "RefPrivSet":
        return cls({p: None for p in privs})

    def with_modifier(self, priv: Priv, mods: Iterable[Priv]) -> "RefPrivSet":
        items = dict(self._privs)
        items[priv] = frozenset(mods)
        return RefPrivSet(items)

    def adding(self, *privs: Priv) -> "RefPrivSet":
        items = dict(self._privs)
        for p in privs:
            items.setdefault(p, None)
        return RefPrivSet(items)

    def removing(self, *privs: Priv) -> "RefPrivSet":
        return RefPrivSet({p: m for p, m in self._privs.items() if p not in privs})

    def has(self, priv: Priv) -> bool:
        return priv in self._privs

    def modifier(self, priv: Priv) -> Modifier:
        return self._privs[priv]

    def privs(self) -> frozenset:
        return frozenset(self._privs)

    def effective_modifier(self, priv: Priv) -> frozenset:
        modifier = self._privs[priv]
        return self.privs() if modifier is None else modifier

    def derived_set(self, priv: Priv) -> "RefPrivSet":
        modifier = self._privs[priv]
        if modifier is None:
            return self
        return RefPrivSet.of(*modifier)

    def subset_of(self, other: "RefPrivSet") -> bool:
        for priv in self._privs:
            if priv not in other._privs:
                return False
            if priv in DERIVING_PRIVS:
                if not self.effective_modifier(priv) <= other.effective_modifier(priv):
                    return False
        return True

    def restricted_to(self, allowed: "RefPrivSet") -> "RefPrivSet":
        items: dict[Priv, Modifier] = {}
        for priv in self._privs:
            if priv not in allowed._privs:
                continue
            if priv in DERIVING_PRIVS:
                items[priv] = self.effective_modifier(priv) & allowed.effective_modifier(priv)
            else:
                items[priv] = None
        return RefPrivSet(items)

    def __getitem__(self, priv: Priv) -> Modifier:
        return self._privs[priv]

    def __iter__(self) -> Iterator[Priv]:
        return iter(self._privs)

    def __len__(self) -> int:
        return len(self._privs)

    def _canonical(self) -> frozenset:
        return frozenset(
            (p, self.effective_modifier(p) if p in DERIVING_PRIVS else None)
            for p in self._privs
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefPrivSet):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        parts = []
        for priv in sorted(self._privs, key=lambda p: p.value):
            modifier = self._privs[priv]
            if modifier is None:
                parts.append(f"+{priv.value}")
            else:
                inner = ",".join(sorted(f"+{m.value}" for m in modifier))
                parts.append(f"+{priv.value} with {{{inner}}}")
        return "{" + ", ".join(parts) + "}"


def ref_merge(grants: dict, sid: int, incoming: RefPrivSet) -> int:
    """The dict-based merge; conflicts as a mask of their privileges' bits."""
    existing = grants.get(sid)
    if existing is None:
        grants[sid] = incoming
        return 0
    conflicts = 0
    items = {p: existing.modifier(p) for p in existing}
    for priv in incoming:
        new_mod = incoming.modifier(priv)
        if priv not in items:
            items[priv] = new_mod
            continue
        if priv in DERIVING_PRIVS:
            old_eff = existing.effective_modifier(priv)
            new_eff = incoming.effective_modifier(priv)
            if old_eff != new_eff:
                conflicts |= priv.bit
                continue
    grants[sid] = RefPrivSet(items)
    return conflicts


# -- strategies ----------------------------------------------------------------

PRIVS = list(Priv)
DERIVING = sorted(DERIVING_PRIVS, key=lambda p: p.value)
# Small pools make overlaps, equal effective modifiers and conflicts common.
pool_st = st.sampled_from([PRIVS, PRIVS[:6] + DERIVING])


@st.composite
def items_st(draw) -> dict:
    """A privilege-to-modifier mapping in a random insertion order."""
    pool = draw(pool_st)
    held = draw(st.lists(st.sampled_from(pool), unique=True, max_size=10))
    items: dict = {}
    for priv in held:
        kind = draw(st.sampled_from(["inherit", "explicit", "own"])) \
            if priv in DERIVING_PRIVS else "inherit"
        if kind == "explicit":
            items[priv] = frozenset(draw(st.sets(st.sampled_from(pool), max_size=6)))
        elif kind == "own":
            # An explicit modifier naming the set itself: the same
            # authority as inherit, with a different repr.
            items[priv] = frozenset(held)
        else:
            items[priv] = None
    return items


def both(items: dict) -> tuple[PrivSet, RefPrivSet]:
    return PrivSet(items), RefPrivSet(items)


def assert_same(new: PrivSet, ref: RefPrivSet, depth: int = 1) -> None:
    assert repr(new) == repr(ref)
    assert set(new) == set(ref)
    assert len(new) == len(ref)
    assert new.privs() == ref.privs()
    assert dict(new.items()) == dict(ref.items())
    for priv in Priv:
        assert new.has(priv) == ref.has(priv)
        assert (priv in new) == (priv in ref)
        if ref.has(priv):
            assert new.modifier(priv) == ref.modifier(priv)
            assert new[priv] == ref[priv]
            assert new.effective_modifier(priv) == ref.effective_modifier(priv)
            if depth:
                assert_same(new.derived_set(priv), ref.derived_set(priv), depth - 1)
        else:
            for query in ("modifier", "effective_modifier", "derived_set"):
                with pytest.raises(KeyError):
                    getattr(new, query)(priv)


# -- properties ----------------------------------------------------------------


@given(items=items_st())
def test_every_query_agrees(items):
    assert_same(*both(items))


@given(a=items_st(), b=items_st())
def test_relations_agree(a, b):
    new_a, ref_a = both(a)
    new_b, ref_b = both(b)
    assert (new_a == new_b) == (ref_a == ref_b)
    assert (new_a != new_b) == (ref_a != ref_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    assert new_a.subset_of(new_b) == ref_a.subset_of(ref_b)
    assert new_b.subset_of(new_a) == ref_b.subset_of(ref_a)
    assert_same(new_a.restricted_to(new_b), ref_a.restricted_to(ref_b))


@given(items=items_st(), op=st.sampled_from(["with_modifier", "adding", "removing"]),
       privs=st.lists(st.sampled_from(PRIVS), max_size=4),
       deriving=st.sampled_from(DERIVING))
def test_copy_constructors_agree(items, op, privs, deriving):
    new, ref = both(items)
    if op == "with_modifier":
        assert_same(new.with_modifier(deriving, privs), ref.with_modifier(deriving, privs))
    else:
        assert_same(getattr(new, op)(*privs), getattr(ref, op)(*privs))
    assert_same(PrivSet.of(*privs), RefPrivSet.of(*privs))


@given(items=items_st())
def test_equal_sets_hash_equal_across_spellings(items):
    """Respelling each inherit modifier as the explicit set it resolves to
    keeps the authority, so equality and the hash must not change."""
    new, ref = both(items)
    explicit = {p: (new.effective_modifier(p) if p in DERIVING_PRIVS else None)
                for p in items}
    new2, ref2 = both(explicit)
    assert ref == ref2 and new == new2
    assert hash(new) == hash(new2)


@settings(max_examples=200)
@given(steps=st.lists(st.tuples(st.sampled_from([1, 2]), items_st(), st.booleans()),
                      min_size=1, max_size=6))
def test_merge_agrees(steps):
    """Every merge stores the same set and refuses the same modifiers;
    re-merging a session's own stored set is among the steps."""
    pm = PrivMap()
    ref_grants: dict = {}
    for sid, items, remerge in steps:
        if remerge and sid in pm:
            new_in, ref_in = pm.privs_for(sid), ref_grants[sid]
        else:
            new_in, ref_in = both(items)
        assert pm.merge(sid, new_in) == ref_merge(ref_grants, sid, ref_in)
        assert_same(pm.privs_for(sid), ref_grants[sid])
    assert pm.sessions() == sorted(ref_grants)


def test_constructor_validates():
    with pytest.raises(TypeError):
        PrivSet({"read": None})
    with pytest.raises(TypeError):
        PrivSet({Priv.LOOKUP: frozenset({"read"})})
    with pytest.raises(ValueError):
        PrivSet.of(Priv.READ).with_modifier(Priv.READ, ())


def test_empty_is_one_constant():
    assert PrivSet.empty() is PrivSet.empty()
    assert PrivMap().privs_for(3) is PrivSet.empty()
