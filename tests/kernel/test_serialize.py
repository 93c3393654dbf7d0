"""Kernel snapshot round-trips: the contract behind the process backend.

A snapshot must be a *perfect fork*: restoring ``pickle.dumps(kernel)``
(or the versioned :mod:`repro.kernel.serialize` codec) has to preserve
everything a :meth:`Kernel.fork` preserves — vnode tree, users, MAC
policies, op counters, audit history, and every allocation watermark —
because the process backend's byte-identical-results guarantee reduces
to exactly that.  Each case-study world (grading / usr_src / web /
emacs) is round-tripped, and property tests sweep ad-hoc worlds.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import World
from repro.api.sessions import Session
from repro.casestudies.apache import web_world
from repro.casestudies.findgrep import usr_src_world
from repro.casestudies.grading import grading_world
from repro.casestudies.package_mgmt import emacs_world
from repro.kernel.serialize import (
    SNAPSHOT_VERSION,
    SnapshotError,
    restore_kernel,
    snapshot_digest,
    snapshot_kernel,
)

#: name -> (world builder, a path that must survive the round trip)
CASE_STUDY_WORLDS = {
    "grading": (lambda: grading_world(True, students=3, tests=2),
                "/home/tester/submissions/student02/main.ml"),
    "usr_src": (lambda: usr_src_world(True, subsystems=2, files_per_dir=4),
                "/usr/src/sys00/dir0/file0.c"),
    "web": (lambda: web_world(True, file_kb=16, small_files=2),
            "/var/www/page0.html"),
    "emacs": (lambda: emacs_world(True), "/etc/passwd"),
}

PROBE_AMBIENT = """\
#lang shill/ambient
root = open_dir("/");
entries = contents(root);
append(stdout, path(root) + "\\n");
"""

DENIED_AMBIENT = """\
#lang shill/ambient
secret = open_file("/etc/passwd");
entries = contents(open_dir("/etc"));
"""


def _roundtrip(kernel):
    return pickle.loads(pickle.dumps(kernel))


def _watermarks(kernel) -> dict:
    shill = kernel.mac.find("shill")
    return {
        "pids": kernel.procs.allocated,
        "vids": kernel.vfs._next_vid,
        "generation": kernel.vfs.generation,
        "epoch": kernel.state_epoch,
        "last_sid": shill.sessions.last_sid if shill is not None else 0,
    }


@pytest.mark.parametrize("name", sorted(CASE_STUDY_WORLDS))
class TestCaseStudyRoundTrips:
    def test_plain_pickle_preserves_watermarks_and_ops(self, name):
        build, _path = CASE_STUDY_WORLDS[name]
        kernel = build().boot().kernel
        restored = _roundtrip(kernel)
        assert _watermarks(restored) == _watermarks(kernel)
        assert restored.stats.snapshot() == kernel.stats.snapshot()
        assert restored.stats.trace() == kernel.stats.trace()

    def test_runs_on_restored_kernel_fingerprint_identically(self, name):
        build, _path = CASE_STUDY_WORLDS[name]
        kernel = build().boot().kernel
        restored = _roundtrip(kernel)
        original = Session(kernel.fork(), user="root").run_ambient(PROBE_AMBIENT)
        mirrored = Session(restored.fork(), user="root").run_ambient(PROBE_AMBIENT)
        assert mirrored.fingerprint() == original.fingerprint()

    def test_world_content_survives(self, name):
        build, path = CASE_STUDY_WORLDS[name]
        world = build().boot()
        restored = _roundtrip(world.kernel)
        session = Session(restored, user="root")
        assert session.runtime.sys.read_whole(path) == world.read_file(path)

    def test_codec_round_trip_equals_plain_pickle(self, name):
        build, _path = CASE_STUDY_WORLDS[name]
        kernel = build().boot().kernel
        restored = restore_kernel(snapshot_kernel(kernel))
        assert _watermarks(restored) == _watermarks(kernel)


class TestHistoryAndCounters:
    def _kernel_with_history(self):
        """A kernel that has already served runs: op counters advanced,
        audit history (incl. a denial) recorded, watermarks moved."""
        world = World().for_user("alice").with_jpeg_samples().boot()
        session = world.session(user="alice")
        session.run_ambient(PROBE_AMBIENT)
        sandbox = world.sandbox("", user="alice")
        sandbox.exec(["/bin/cat", "/etc/passwd"])
        return world.kernel

    def test_audit_history_survives_the_round_trip(self):
        kernel = self._kernel_with_history()
        restored = _roundtrip(kernel)
        original = kernel.shill_policy().sessions.audit_records()
        mirrored = restored.shill_policy().sessions.audit_records()
        assert [r.sid for r in mirrored] == [r.sid for r in original]
        assert [r.log.format() for r in mirrored] == \
            [r.log.format() for r in original]
        assert any(r.log.denials() for r in mirrored)

    def test_op_counters_keep_counting_after_restore(self):
        kernel = self._kernel_with_history()
        restored = _roundtrip(kernel)
        before = restored.stats.snapshot()
        Session(restored, user="alice").run_ambient(PROBE_AMBIENT)
        after = restored.stats.snapshot()
        assert after["vnode_ops"] > before["vnode_ops"]
        # The restored kernel's stats sinks are re-wired to one object.
        assert restored.vfs.stats is restored.stats
        assert restored.mac.stats is restored.stats

    def test_restored_equals_forked_run_for_run(self):
        """The load-bearing equivalence: fork-of-restored and
        fork-of-original produce identical results for a run that makes
        denials (audit lines embed sids, so watermark drift would show)."""
        kernel = self._kernel_with_history()
        restored = _roundtrip(kernel)
        world_a = Session(kernel.fork(), user="alice")
        world_b = Session(restored.fork(), user="alice")
        result_a = world_a.run_ambient(DENIED_AMBIENT)
        result_b = world_b.run_ambient(DENIED_AMBIENT)
        assert result_b.fingerprint() == result_a.fingerprint()


class TestSnapshotCodec:
    def test_snapshot_is_deterministic_for_equal_worlds(self):
        a = World().with_usr_src(subsystems=1, files_per_dir=3).boot().kernel
        b = World().with_usr_src(subsystems=1, files_per_dir=3).boot().kernel
        assert snapshot_digest(a) == snapshot_digest(b)

    def test_snapshot_differs_for_different_worlds(self):
        a = World().with_file("/tmp/a", b"one").boot().kernel
        b = World().with_file("/tmp/a", b"two").boot().kernel
        assert snapshot_digest(a) != snapshot_digest(b)

    def test_bad_magic_is_rejected(self):
        with pytest.raises(SnapshotError, match="magic"):
            restore_kernel(b"NOTASNAPSHOT")

    def test_truncated_snapshot_is_rejected(self):
        """Even a magic-prefix-only blob must fail inside the codec's
        error contract, never with a raw IndexError."""
        for blob in (b"", b"SHILL", b"SHILLK"):
            with pytest.raises(SnapshotError, match="truncated"):
                restore_kernel(blob)

    def test_corrupt_body_is_rejected_inside_the_contract(self):
        """A valid header over a garbage body (truncated file, bit rot)
        raises SnapshotError, not a raw pickle exception."""
        good = snapshot_kernel(World().boot().kernel)
        # Header is magic + version (7 bytes); everything after is
        # pickle body.
        for blob in (good[:8], good[: len(good) // 2], good[:7] + b"garbage"):
            with pytest.raises(SnapshotError, match="decode"):
                restore_kernel(blob)
        with pytest.raises(SnapshotError, match="truncated"):
            restore_kernel(good[:7])  # header-only: no body at all
        with pytest.raises(SnapshotError, match="version"):
            # A blob from the previous codec: every consumer reads this
            # error as a cache miss and rebuilds.
            restore_kernel(good[:6] + bytes([SNAPSHOT_VERSION - 1]) + good[7:])

    def test_live_state_is_dropped_like_a_fork(self):
        """Live processes and listeners are per-run state: a restored
        kernel starts with none, but keeps the allocation watermarks."""
        world = World().boot()
        kernel = world.kernel
        kernel.spawn_process("root", "/")
        allocated = kernel.procs.allocated
        restored = _roundtrip(kernel)
        assert restored.procs.live_processes() == []
        assert restored.procs.allocated == allocated

    def test_mirror_service_survives(self):
        """Registered network services are world plumbing and must cross
        (the Download workload depends on the GNU mirror)."""
        kernel = emacs_world(True).boot().kernel
        restored = _roundtrip(kernel)
        from repro.world.fixtures import EMACS_HOST

        assert EMACS_HOST in restored.network._services


# ---------------------------------------------------------------------------
# property tests: arbitrary worlds round-trip
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_name = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
_tree = st.dictionaries(
    st.tuples(_name, _name),  # (directory, filename) under /srv
    st.binary(min_size=0, max_size=64),
    min_size=1,
    max_size=8,
)


def _world_of(tree: dict) -> World:
    world = World()
    for (directory, filename), data in sorted(tree.items()):
        world.with_file(f"/srv/{directory}/{filename}", data)
    return world.boot()


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(tree=_tree)
    def test_every_file_survives_the_round_trip(self, tree):
        world = _world_of(tree)
        restored = _roundtrip(world.kernel)
        session = Session(restored, user="root")
        for (directory, filename), data in tree.items():
            assert session.runtime.sys.read_whole(
                f"/srv/{directory}/{filename}") == bytes(data)

    @settings(max_examples=25, deadline=None)
    @given(tree=_tree)
    def test_watermarks_and_digest_are_stable(self, tree):
        kernel = _world_of(tree).kernel
        restored = _roundtrip(kernel)
        assert _watermarks(restored) == _watermarks(kernel)
        # Snapshotting is repeatable (same machine, same bytes) and a
        # restore is a fixed point: re-snapshotting a restored machine
        # reproduces its bytes exactly.  (A source machine and its
        # restore may differ in *bytes* — restoring normalises string
        # sharing — while restoring to behaviourally identical machines;
        # the equal-construction determinism is asserted in
        # TestSnapshotCodec.)
        assert snapshot_digest(kernel) == snapshot_digest(kernel)
        assert snapshot_digest(restored) == snapshot_digest(_roundtrip(restored))

    @settings(max_examples=10, deadline=None)
    @given(tree=_tree, mutation=st.binary(min_size=1, max_size=16))
    def test_restored_kernels_are_isolated_from_the_source(self, tree, mutation):
        world = _world_of(tree)
        restored = _roundtrip(world.kernel)
        (directory, filename), _data = sorted(tree.items())[0]
        path = f"/srv/{directory}/{filename}"
        world.write_file(path, mutation)
        session = Session(restored, user="root")
        assert session.runtime.sys.read_whole(path) == bytes(tree[(directory, filename)])
