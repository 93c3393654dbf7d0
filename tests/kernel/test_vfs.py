"""Unit tests for the VFS: tree operations, hard links, the name cache."""

from __future__ import annotations

import pytest

from repro.errors import SysError
from repro.kernel import errno_
from repro.kernel.vfs import VFS, VType


@pytest.fixture
def vfs() -> VFS:
    return VFS()


def test_root_is_directory(vfs: VFS):
    assert vfs.root.is_dir
    assert vfs.path_of(vfs.root) == "/"


def test_create_and_lookup_file(vfs: VFS):
    f = vfs.create(vfs.root, "a.txt", VType.VREG, 0o644, 0, 0)
    assert vfs.lookup(vfs.root, "a.txt") is f
    assert f.is_reg and not f.is_dir


def test_create_duplicate_fails(vfs: VFS):
    vfs.create(vfs.root, "a", VType.VREG, 0o644, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.create(vfs.root, "a", VType.VDIR, 0o755, 0, 0)
    assert exc.value.errno == errno_.EEXIST


def test_lookup_missing_is_enoent(vfs: VFS):
    with pytest.raises(SysError) as exc:
        vfs.lookup(vfs.root, "nope")
    assert exc.value.errno == errno_.ENOENT


def test_lookup_in_file_is_enotdir(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.lookup(f, "x")
    assert exc.value.errno == errno_.ENOTDIR


def test_dot_and_dotdot(vfs: VFS):
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    assert vfs.lookup(d, ".") is d
    assert vfs.lookup(d, "..") is vfs.root
    assert vfs.lookup(vfs.root, "..") is vfs.root


def test_component_validation(vfs: VFS):
    with pytest.raises(SysError):
        vfs.lookup(vfs.root, "")
    with pytest.raises(SysError):
        vfs.create(vfs.root, "a/b", VType.VREG, 0o644, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.create(vfs.root, "x" * 300, VType.VREG, 0o644, 0, 0)
    assert exc.value.errno == errno_.ENAMETOOLONG


def test_contents_sorted(vfs: VFS):
    for name in ("zz", "aa", "mm"):
        vfs.create(vfs.root, name, VType.VREG, 0o644, 0, 0)
    assert vfs.contents(vfs.root) == ["aa", "mm", "zz"]


def test_hard_link_shares_vnode(vfs: VFS):
    f = vfs.create(vfs.root, "orig", VType.VREG, 0o644, 0, 0)
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    vfs.link(f, d, "alias")
    assert vfs.lookup(d, "alias") is f
    assert f.nlink == 2


def test_hard_link_to_directory_refused(vfs: VFS):
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.link(d, vfs.root, "alias")
    assert exc.value.errno == errno_.EPERM


def test_unlink_removes_entry_and_decrements_nlink(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    vfs.unlink(vfs.root, "f")
    assert not vfs.exists(vfs.root, "f")
    assert f.nlink == 0


def test_unlink_expect_mismatch_is_race_detected(vfs: VFS):
    """funlinkat semantics: entry must still refer to the expected vnode."""
    f1 = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    vfs.unlink(vfs.root, "f")
    f2 = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    assert f2 is not f1
    with pytest.raises(SysError) as exc:
        vfs.unlink(vfs.root, "f", expect=f1)
    assert exc.value.errno == errno_.EDEADLK
    # And the entry survives the refused unlink.
    assert vfs.lookup(vfs.root, "f") is f2


def test_unlink_nonempty_directory_refused(vfs: VFS):
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    vfs.create(d, "child", VType.VREG, 0o644, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.unlink(vfs.root, "d")
    assert exc.value.errno == errno_.ENOTEMPTY


def test_rename_moves_vnode(vfs: VFS):
    f = vfs.create(vfs.root, "old", VType.VREG, 0o644, 0, 0)
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    vfs.rename(vfs.root, "old", d, "new")
    assert not vfs.exists(vfs.root, "old")
    assert vfs.lookup(d, "new") is f


def test_rename_replaces_existing_file(vfs: VFS):
    f = vfs.create(vfs.root, "src", VType.VREG, 0o644, 0, 0)
    old = vfs.create(vfs.root, "dst", VType.VREG, 0o644, 0, 0)
    vfs.rename(vfs.root, "src", vfs.root, "dst")
    assert vfs.lookup(vfs.root, "dst") is f
    assert old.nlink == 0


def test_rename_into_own_subtree_refused(vfs: VFS):
    """Regression (found by the property suite): moving a directory into
    itself or a descendant must fail with EINVAL, not create a cycle."""
    outer = vfs.create(vfs.root, "outer", VType.VDIR, 0o755, 0, 0)
    inner = vfs.create(outer, "inner", VType.VDIR, 0o755, 0, 0)
    with pytest.raises(SysError) as exc:
        vfs.rename(vfs.root, "outer", inner, "loop")
    assert exc.value.errno == errno_.EINVAL
    with pytest.raises(SysError) as exc:
        vfs.rename(vfs.root, "outer", outer, "self")
    assert exc.value.errno == errno_.EINVAL


def test_create_in_removed_directory_refused(vfs: VFS):
    """Regression (found by the property suite): an unlinked directory
    cannot gain new entries."""
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    vfs.unlink(vfs.root, "d")
    with pytest.raises(SysError) as exc:
        vfs.create(d, "orphan", VType.VREG, 0o644, 0, 0)
    assert exc.value.errno == errno_.ENOENT
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    with pytest.raises(SysError):
        vfs.link(f, d, "alias")


def test_path_of_reconstructs_from_name_cache(vfs: VFS):
    a = vfs.create(vfs.root, "a", VType.VDIR, 0o755, 0, 0)
    b = vfs.create(a, "b", VType.VDIR, 0o755, 0, 0)
    f = vfs.create(b, "f.txt", VType.VREG, 0o644, 0, 0)
    assert vfs.path_of(f) == "/a/b/f.txt"


def test_path_of_fails_after_unlink(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    vfs.unlink(vfs.root, "f")
    with pytest.raises(SysError) as exc:
        vfs.path_of(f)
    assert exc.value.errno == errno_.ENOENT


def test_path_of_follows_rename(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    d = vfs.create(vfs.root, "d", VType.VDIR, 0o755, 0, 0)
    vfs.rename(vfs.root, "f", d, "g")
    assert vfs.path_of(f) == "/d/g"


def test_path_of_follows_the_latest_lookup_of_a_hard_link(vfs: VFS):
    """A successful lookup rewrites the name cache without a tree change,
    so a memo of ``path_of`` keyed by ``generation`` would go stale."""
    a = vfs.create(vfs.root, "a", VType.VDIR, 0o755, 0, 0)
    b = vfs.create(vfs.root, "b", VType.VDIR, 0o755, 0, 0)
    f = vfs.create(a, "f", VType.VREG, 0o644, 0, 0)
    vfs.link(f, b, "g")
    generation = vfs.generation
    vfs.lookup(b, "g")
    assert vfs.path_of(f) == "/b/g"
    vfs.lookup(a, "f")
    assert vfs.path_of(f) == "/a/f"
    assert vfs.generation == generation


def test_path_of_follows_a_renamed_ancestor(vfs: VFS):
    """A memoised path goes stale with any ancestor's rename."""
    a = vfs.create(vfs.root, "a", VType.VDIR, 0o755, 0, 0)
    b = vfs.create(a, "b", VType.VDIR, 0o755, 0, 0)
    f = vfs.create(b, "f", VType.VREG, 0o644, 0, 0)
    assert vfs.path_of(f) == "/a/b/f"
    vfs.rename(vfs.root, "a", vfs.root, "c")
    assert vfs.path_of(f) == "/c/b/f"
    assert vfs.path_of(b) == "/c/b"


def test_path_of_extends_the_nearest_memoised_ancestor(vfs: VFS):
    a = vfs.create(vfs.root, "a", VType.VDIR, 0o755, 0, 0)
    b = vfs.create(a, "b", VType.VDIR, 0o755, 0, 0)
    assert vfs.path_of(b) == "/a/b"
    f = vfs.create(b, "f", VType.VREG, 0o644, 0, 0)
    g = vfs.create(b, "g", VType.VREG, 0o644, 0, 0)
    assert (vfs.path_of(f), vfs.path_of(g)) == ("/a/b/f", "/a/b/g")
    vfs.unlink(b, "f")
    with pytest.raises(SysError):
        vfs.path_of(f)
    assert vfs.path_of(g) == "/a/b/g"


def test_a_lookup_stores_its_name_even_when_equal(vfs: VFS):
    """Which string object holds a name shows in snapshot bytes (pickle
    shares only identical objects), so a lookup that leaves the name
    cache's pair unchanged still stores its own name, as a walk did
    before the path memo."""
    d = vfs.create(vfs.root, "directory", VType.VDIR, 0o755, 0, 0)
    for _ in range(2):  # a walk, then a dcache hit
        name = "".join(["direc", "tory"])
        assert vfs.lookup(vfs.root, name) is d
        assert d.nc_name is name


def test_read_write_roundtrip(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    assert vfs.write_file(f, 0, b"hello") == 5
    assert vfs.read_file(f, 0, 100) == b"hello"
    assert vfs.read_file(f, 2, 2) == b"ll"


def test_write_past_end_zero_fills(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    vfs.write_file(f, 4, b"x")
    assert vfs.read_file(f, 0, 10) == b"\x00\x00\x00\x00x"


def test_truncate_shrinks_and_grows(vfs: VFS):
    f = vfs.create(vfs.root, "f", VType.VREG, 0o644, 0, 0)
    vfs.write_file(f, 0, b"abcdef")
    vfs.truncate_file(f, 3)
    assert vfs.read_file(f, 0, 10) == b"abc"
    vfs.truncate_file(f, 5)
    assert vfs.read_file(f, 0, 10) == b"abc\x00\x00"


def test_symlink_nodes(vfs: VFS):
    link = vfs.symlink(vfs.root, "l", "/target", 0, 0)
    assert link.is_symlink
    assert link.linktarget == "/target"


# ---------------------------------------------------------------------------
# lazy (copy-on-access) forking
# ---------------------------------------------------------------------------


def _tree(vfs: VFS):
    """/dir/{a.txt,b.txt} plus /other/hard — a hard link to a.txt."""
    d = vfs.create(vfs.root, "dir", VType.VDIR, 0o755, 0, 0)
    a = vfs.create(d, "a.txt", VType.VREG, 0o644, 0, 0)
    vfs.write_file(a, 0, b"alpha")
    b = vfs.create(d, "b.txt", VType.VREG, 0o644, 0, 0)
    vfs.write_file(b, 0, b"beta")
    other = vfs.create(vfs.root, "other", VType.VDIR, 0o755, 0, 0)
    vfs.link(a, other, "hard")
    return d, a, b, other


class TestLazyFork:
    def test_subtrees_stay_shared_until_accessed(self, vfs: VFS):
        d, a, _b, _other = _tree(vfs)
        fork = vfs.fork()
        # The fork's root entries still point into the template tree...
        assert fork.root.entries_lazy
        assert fork.root.entries["dir"] is d
        # ...until a lookup materializes a private clone on demand.
        fd = fork.lookup(fork.root, "dir")
        assert fd is not d and fd.vid == d.vid
        assert fork.root.entries["dir"] is fd
        # One level down is again shared until touched.
        assert fd.entries["a.txt"] is a

    def test_fork_write_never_reaches_the_template(self, vfs: VFS):
        d, a, _b, _other = _tree(vfs)
        fork = vfs.fork()
        fa = fork.lookup(fork.lookup(fork.root, "dir"), "a.txt")
        fork.write_file(fa, 0, b"ALPHA")
        assert vfs.read_file(a, 0, 10) == b"alpha"
        assert fork.read_file(fa, 0, 10) == b"ALPHA"

    def test_template_mutation_unshares_live_forks_first(self, vfs: VFS):
        d, a, _b, _other = _tree(vfs)
        fork = vfs.fork()
        # Mutate the template while the fork has touched nothing.
        vfs.write_file(a, 0, b"MUTATED")
        vfs.unlink(d, "b.txt")
        # The fork saw none of it: laziness is unobservable.
        fd = fork.lookup(fork.root, "dir")
        assert fork.read_file(fork.lookup(fd, "a.txt"), 0, 10) == b"alpha"
        assert fork.contents(fd) == ["a.txt", "b.txt"]

    def test_fork_of_fork_is_isolated_from_both_ancestors(self, vfs: VFS):
        _tree(vfs)
        child = vfs.fork()
        grandchild = child.fork()
        gdir = grandchild.lookup(grandchild.root, "dir")
        grandchild.write_file(grandchild.lookup(gdir, "a.txt"), 0, b"GRAND")
        cdir = child.lookup(child.root, "dir")
        assert child.read_file(child.lookup(cdir, "a.txt"), 0, 10) == b"alpha"
        tdir = vfs.lookup(vfs.root, "dir")
        assert vfs.read_file(vfs.lookup(tdir, "a.txt"), 0, 10) == b"alpha"

    def test_hard_links_converge_on_one_clone(self, vfs: VFS):
        _tree(vfs)
        fork = vfs.fork()
        via_dir = fork.lookup(fork.lookup(fork.root, "dir"), "a.txt")
        via_link = fork.lookup(fork.lookup(fork.root, "other"), "hard")
        assert via_dir is via_link
        assert via_dir.nlink == 2
        fork.write_file(via_link, 0, b"LINKED")
        assert fork.read_file(via_dir, 0, 10) == b"LINKED"

    def test_materialize_all_cuts_every_template_reference(self, vfs: VFS):
        d, a, b, other = _tree(vfs)
        fork = vfs.fork()
        fork._materialize_all()
        template_ids = {id(v) for v in (d, a, b, other, vfs.root)}
        stack = [fork.root]
        while stack:
            node = stack.pop()
            assert id(node) not in template_ids
            assert not node.entries_lazy
            if node.entries:
                stack.extend(node.entries.values())
