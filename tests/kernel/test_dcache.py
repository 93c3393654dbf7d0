"""The VFS dcache and resolved-path cache: hits must be invisible.

The caching contract is purely observational: with the dcache enabled,
every resolution returns the same vnode (or raises the same errno) and
every MAC decision — denials above all — is identical to the uncached
walk, and ``path_of`` (memoised with the dcache) spells the path the
uncached walk up the name cache spells.  The hypothesis machine drives
two forks of one booted world, one cached and one not, through random
mkdir/write/unlink/rename/symlink/hard-link/label-mutation interleavings
and compares every probe; the unit tests pin the invalidation edges
(unlink, rename, label change, a hard link's name moved by a cache hit)
the machine would only hit probabilistically.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.api import World
from repro.errors import SysError
from repro.kernel import O_WRONLY, O_CREAT
from repro.sandbox.privileges import Priv, PrivSet
from repro.sandbox.privmap import ensure_privmap

PATHS = [
    "/", "/a", "/b", "/c", "/a/b", "/a/c", "/a/b/c", "/b/a",
    "a", "a/b", "./a", "../a", "/a/../b", "/a/./b", "/a/f", "/b/g",
]


def _twin_kernels():
    """Two forks of one booted world — identical machines, same vids —
    one with the dcache enabled, one without."""
    on = World().boot().kernel
    off = World().boot().kernel
    off.vfs.dcache_enabled = False
    return on, off


def _observe(kernel, sys, path, *, follow=True, want_parent=False):
    """One resolution as a comparable outcome: (vid-of-vnode, vid-of-
    parent, final name) on success, the errno on failure — plus the
    machine's MAC denial count, which a cache hit must never change."""
    try:
        dvp, name, vp = sys._resolve(path, follow=follow,
                                     want_parent=want_parent)
        outcome = (dvp.vid if dvp is not None else None, name,
                   vp.vid if vp is not None else None)
    except SysError as err:
        outcome = ("errno", err.errno)
    return outcome, kernel.stats.mac_denials


class DcacheEquivalence(RuleBasedStateMachine):
    """dcache-on and dcache-off resolution are observationally identical."""

    def __init__(self) -> None:
        super().__init__()
        self.k_on, self.k_off = _twin_kernels()
        self.pairs = [(k, k.syscalls(k.spawn_process("root", "/root")))
                      for k in (self.k_on, self.k_off)]
        # (cached vnode, uncached vnode) pairs resolved so far, whose
        # paths are probed again after later operations.
        self.held: list[tuple] = []
        # Both machines start with one file under two names, /a/f and
        # /b/g, so the hard-link edge of the path memo is reachable from
        # the first step.
        for _kernel, sys in self.pairs:
            sys.mkdir("/a")
            sys.mkdir("/b")
            sys.close(sys.open("/a/f", O_WRONLY | O_CREAT))
            sys.link("/a/f", "/b/g")

    def _apply(self, op):
        """Run one mutation on both machines; outcomes must agree."""
        outcomes = []
        for _kernel, sys in self.pairs:
            try:
                op(sys)
                outcomes.append(None)
            except SysError as err:
                outcomes.append(err.errno)
        assert outcomes[0] == outcomes[1]

    @rule(path=st.sampled_from(PATHS))
    def mkdir(self, path):
        self._apply(lambda sys: sys.mkdir(path))

    @rule(path=st.sampled_from(PATHS), data=st.binary(max_size=8))
    def write_file(self, path, data):
        def op(sys):
            fd = sys.open(path, O_WRONLY | O_CREAT)
            try:
                sys.write(fd, data)
            finally:
                sys.close(fd)
        self._apply(op)

    @rule(path=st.sampled_from(PATHS))
    def unlink(self, path):
        self._apply(lambda sys: sys.unlink(path))

    @rule(src=st.sampled_from(PATHS), dst=st.sampled_from(PATHS))
    def rename(self, src, dst):
        self._apply(lambda sys: sys.rename(src, dst))

    @rule(dest=st.sampled_from(PATHS), link=st.sampled_from(PATHS))
    def symlink(self, dest, link):
        self._apply(lambda sys: sys.symlink(dest, link))

    @rule(src=st.sampled_from(PATHS), dst=st.sampled_from(PATHS))
    def link(self, src, dst):
        self._apply(lambda sys: sys.link(src, dst))

    @rule(path=st.sampled_from(PATHS))
    def mutate_label(self, path):
        """Grant-shaped label mutation on both machines (the epoch bump a
        real session grant performs)."""
        for kernel, sys in self.pairs:
            try:
                _dvp, _name, vp = sys._resolve(path)
            except SysError:
                return
            if vp is None:
                return
            ensure_privmap(vp).merge(1, PrivSet.of(Priv.READ))
            kernel.label_mutation()

    @rule(path=st.sampled_from(PATHS),
          follow=st.booleans(), want_parent=st.booleans())
    def probe(self, path, follow, want_parent):
        """The property: identical outcome and identical denial count,
        whatever the caches currently hold."""
        seen = [_observe(kernel, sys, path, follow=follow,
                         want_parent=want_parent)
                for kernel, sys in self.pairs]
        assert seen[0] == seen[1], (path, follow, want_parent)

    @rule(path=st.sampled_from(PATHS))
    def hold(self, path):
        """Keep what ``path`` resolves to on both machines, for the
        ``path_of`` invariant below."""
        vnodes = []
        for _kernel, sys in self.pairs:
            try:
                vnodes.append(sys._resolve(path)[2])
            except SysError:
                return
        if vnodes[0] is not None:
            self.held.append(tuple(vnodes))

    @invariant()
    def paths_agree(self):
        """The memo's property: after every step (renames, unlinks, and
        lookups that moved a hard link's name without a tree change),
        ``path_of`` of every held vnode spells what the unmemoised walk
        spells, or fails with the same errno."""
        for vnodes in self.held:
            seen = []
            for (kernel, _sys), vp in zip(self.pairs, vnodes):
                try:
                    seen.append(kernel.vfs.path_of(vp))
                except SysError as err:
                    seen.append(("errno", err.errno))
            assert seen[0] == seen[1]


TestDcacheEquivalence = DcacheEquivalence.TestCase
TestDcacheEquivalence.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None)


# ---------------------------------------------------------------------------
# the invalidation edges, pinned
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel():
    return World().boot().kernel


@pytest.fixture
def sys(kernel):
    return kernel.syscalls(kernel.spawn_process("root", "/root"))


def _warm(sys, path):
    """Resolve twice so the second walk is served from cache."""
    sys._resolve(path)
    before = sys.kernel.stats.dcache_hits
    sys._resolve(path)
    assert sys.kernel.stats.dcache_hits > before, "cache never warmed"


class TestInvalidation:
    def test_unlink_invalidates(self, kernel, sys):
        fd = sys.open("/tmp/x", O_WRONLY | O_CREAT)
        sys.close(fd)
        _warm(sys, "/tmp/x")
        sys.unlink("/tmp/x")
        with pytest.raises(SysError):
            sys._resolve("/tmp/x")

    def test_rename_invalidates_both_names(self, kernel, sys):
        fd = sys.open("/tmp/old", O_WRONLY | O_CREAT)
        sys.close(fd)
        _warm(sys, "/tmp/old")
        sys.rename("/tmp/old", "/tmp/new")
        with pytest.raises(SysError):
            sys._resolve("/tmp/old")
        _dvp, _name, vp = sys._resolve("/tmp/new")
        assert vp is not None and vp.is_reg

    def test_label_change_invalidates(self, kernel, sys):
        """A label mutation must flush resolved-path state: the next
        walk re-runs its MAC checks against the new label."""
        fd = sys.open("/tmp/guarded", O_WRONLY | O_CREAT)
        sys.close(fd)
        _warm(sys, "/tmp/guarded")
        checks_before = kernel.stats.mac_checks
        sys._resolve("/tmp/guarded")  # cached: no fresh component checks
        cached_cost = kernel.stats.mac_checks - checks_before

        _dvp, _name, vp = sys._resolve("/tmp/guarded")
        ensure_privmap(vp).merge(1, PrivSet.of(Priv.READ))
        kernel.label_mutation()

        checks_before = kernel.stats.mac_checks
        sys._resolve("/tmp/guarded")
        post_mutation_cost = kernel.stats.mac_checks - checks_before
        assert post_mutation_cost > cached_cost, (
            "label mutation did not force a fresh checked walk")

    def test_a_resolve_hit_moves_a_hard_links_path(self, kernel, sys):
        """A resolved-path hit re-enters its final name in the name
        cache, as the walk it skips would; a hard-linked file's
        ``path_of`` must follow it, though no tree change moved the
        generation the path memo is also keyed by."""
        sys.mkdir("/tmp/a")
        sys.mkdir("/tmp/b")
        sys.close(sys.open("/tmp/a/f", O_WRONLY | O_CREAT))
        sys.link("/tmp/a/f", "/tmp/b/g")
        _warm(sys, "/tmp/a/f")
        _warm(sys, "/tmp/b/g")
        vfs = kernel.vfs
        generation, hits = vfs.generation, kernel.stats.dcache_hits
        vp = sys._resolve("/tmp/a/f")[2]
        assert vfs.path_of(vp) == "/tmp/a/f"
        assert sys._resolve("/tmp/b/g")[2] is vp
        assert vfs.path_of(vp) == "/tmp/b/g"
        sys._resolve("/tmp/a/f")
        assert vfs.path_of(vp) == "/tmp/a/f"
        assert kernel.stats.dcache_hits == hits + 3
        assert vfs.generation == generation

    def test_disabled_dcache_counts_nothing(self):
        """Boot itself resolves through the cache; after disabling, the
        counters must stand still however often we resolve."""
        kernel = World().boot().kernel
        kernel.vfs.dcache_enabled = False
        sys = kernel.syscalls(kernel.spawn_process("root", "/root"))
        hits, misses = kernel.stats.dcache_hits, kernel.stats.dcache_misses
        sys._resolve("/etc/passwd")
        sys._resolve("/etc/passwd")
        assert kernel.stats.dcache_hits == hits
        assert kernel.stats.dcache_misses == misses
