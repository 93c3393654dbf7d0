"""Privilege-map tests: grants, propagation merges, no-amplification."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.kernel.pipes import Pipe
from repro.sandbox.privileges import Priv, PrivSet
from repro.sandbox.privmap import PrivMap, ensure_privmap, privmap_of


class TestBasics:
    def test_empty_for_unknown_session(self):
        pm = PrivMap()
        assert pm.privs_for(7) == PrivSet.empty()

    def test_set_and_get(self):
        pm = PrivMap()
        pm.merge(1, PrivSet.of(Priv.READ))
        assert pm.privs_for(1).has(Priv.READ)
        assert not pm.privs_for(2).has(Priv.READ)

    def test_drop_session(self):
        pm = PrivMap()
        pm.merge(1, PrivSet.of(Priv.READ))
        pm.drop_session(1)
        assert pm.privs_for(1) == PrivSet.empty()

    def test_label_helpers(self):
        pipe = Pipe()
        assert privmap_of(pipe) is None
        pm = ensure_privmap(pipe)
        assert privmap_of(pipe) is pm
        assert ensure_privmap(pipe) is pm


class TestMerge:
    def test_plain_privileges_union(self):
        pm = PrivMap()
        pm.merge(1, PrivSet.of(Priv.READ))
        pm.merge(1, PrivSet.of(Priv.STAT))
        assert pm.privs_for(1).privs() == {Priv.READ, Priv.STAT}

    def test_identical_modifier_is_noop(self):
        pm = PrivMap()
        ps = PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, {Priv.STAT})
        assert pm.merge(1, ps) == 0
        assert pm.merge(1, ps) == 0
        assert pm.privs_for(1).effective_modifier(Priv.LOOKUP) == {Priv.STAT}

    def test_conflicting_modifiers_not_merged(self):
        """The paper's create-file example: +create-file with {+read,...}
        already present; an incoming +create-file with {+write} must NOT
        merge into {+write,+read,...}."""
        pm = PrivMap()
        readonly = PrivSet.of(Priv.CREATE_FILE).with_modifier(
            Priv.CREATE_FILE, {Priv.READ, Priv.STAT, Priv.PATH}
        )
        writable = PrivSet.of(Priv.CREATE_FILE).with_modifier(Priv.CREATE_FILE, {Priv.WRITE})
        pm.merge(1, readonly)
        assert pm.merge(1, writable) == Priv.CREATE_FILE.bit
        kept = pm.privs_for(1).effective_modifier(Priv.CREATE_FILE)
        assert kept == {Priv.READ, Priv.STAT, Priv.PATH}  # first grant wins

    def test_conflict_records_both_sides(self):
        """The refused side is named by the returned mask, the kept side
        by the stored set."""
        pm = PrivMap()
        pm.merge(1, PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, {Priv.READ}))
        refused = pm.merge(1, PrivSet.of(Priv.LOOKUP, Priv.STAT)
                           .with_modifier(Priv.LOOKUP, {Priv.WRITE}))
        assert refused == Priv.LOOKUP.bit
        assert pm.privs_for(1).effective_modifier(Priv.LOOKUP) == {Priv.READ}
        assert pm.privs_for(1).has(Priv.STAT)  # the rest of the merge lands

    def test_sessions_are_independent(self):
        pm = PrivMap()
        pm.merge(1, PrivSet.of(Priv.READ))
        pm.merge(2, PrivSet.of(Priv.WRITE))
        assert pm.privs_for(1).privs() == {Priv.READ}
        assert pm.privs_for(2).privs() == {Priv.WRITE}


privs_st = st.sets(st.sampled_from(list(Priv)), max_size=6)


@given(first=privs_st, second=privs_st)
def test_merge_never_loses_plain_privileges(first, second):
    pm = PrivMap()
    pm.merge(1, PrivSet.of(*first))
    pm.merge(1, PrivSet.of(*second))
    assert pm.privs_for(1).privs() == frozenset(first | second)


@given(
    mods_a=privs_st,
    mods_b=privs_st,
)
def test_merge_no_amplification_property(mods_a, mods_b):
    """After any merge sequence, the effective modifier of a deriving
    privilege equals one of the granted modifiers — never their union
    (unless one was already a superset)."""
    pm = PrivMap()
    pm.merge(1, PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, mods_a))
    pm.merge(1, PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, mods_b))
    effective = pm.privs_for(1).effective_modifier(Priv.LOOKUP)
    assert effective == frozenset(mods_a)  # first grant always wins
