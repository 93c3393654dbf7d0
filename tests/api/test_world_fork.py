"""World snapshot/fork: isolation, copy-on-write, and the boot cache."""

from __future__ import annotations

import pytest

from repro.api import World, boot_cache_size, clear_boot_cache


def _find_vnode(world: World, path: str):
    kernel = world.kernel
    node = kernel.vfs.root
    for comp in [p for p in path.split("/") if p]:
        node = kernel.vfs.lookup(node, comp)
    return node


class TestForkIsolation:
    def test_writes_do_not_leak_into_template_or_siblings(self):
        base = World().with_jpeg_samples(owner="alice").boot()
        fork_a = base.fork()
        fork_b = base.fork()

        fork_a.write_file("/home/alice/Documents/dog.jpg", b"REWRITTEN-IN-A")

        assert base.read_file("/home/alice/Documents/dog.jpg").startswith(b"JPEG")
        assert fork_b.read_file("/home/alice/Documents/dog.jpg").startswith(b"JPEG")
        assert fork_a.read_file("/home/alice/Documents/dog.jpg") == b"REWRITTEN-IN-A"

    def test_new_files_and_unlinks_stay_in_the_fork(self):
        base = World().boot()
        fork = base.fork()
        fork.write_file("/tmp/only-in-fork", b"x")
        fork.syscalls().unlink("/etc/resolv.conf")

        with pytest.raises(Exception):
            base.read_file("/tmp/only-in-fork")
        assert base.read_file("/etc/resolv.conf")
        with pytest.raises(Exception):
            fork.read_file("/etc/resolv.conf")

    def test_chmod_chown_stay_in_the_fork(self):
        base = World().boot()
        fork = base.fork()
        fork.syscalls("root").chmod("/etc/passwd", 0o600)
        assert fork.syscalls().stat("/etc/passwd").mode == 0o600
        assert base.syscalls().stat("/etc/passwd").mode == 0o644

    def test_user_adds_stay_in_the_fork(self):
        base = World().boot()
        fork = base.fork()
        fork.kernel.users.add_user("mallory", 3001, 3001)
        assert fork.kernel.users.lookup("mallory").uid == 3001
        with pytest.raises(KeyError):
            base.kernel.users.lookup("mallory")

    def test_audit_records_stay_in_the_fork(self):
        base = World().boot()
        fork = base.fork()
        # A denied run inside the fork appends audit records there only.
        sandbox = fork.sandbox("")
        result = sandbox.exec(["/bin/cat", "/etc/passwd"])
        assert result.denied
        fork_records = fork.kernel.shill_policy().sessions.audit_records()
        base_records = base.kernel.shill_policy().sessions.audit_records()
        assert len(fork_records) > len(base_records)

    def test_sessions_on_template_unaffected_by_fork_runs(self):
        base = World().for_user("alice").with_jpeg_samples().boot()
        fork = base.fork()
        fork.session().run_ambient(
            '#lang shill/ambient\nd = open_dir("~/Documents");\nx = contents(d);\n')
        assert not base.kernel.procs.live_processes()


class TestCopyOnWrite:
    def test_buffers_shared_until_first_write(self):
        base = World().with_jpeg_samples(owner="alice").boot()
        fork = base.fork()
        path = "/home/alice/Documents/dog.jpg"
        base_vp = _find_vnode(base, path)
        fork_vp = _find_vnode(fork, path)
        assert fork_vp.data is base_vp.data  # shared, no copy yet
        assert fork_vp.data_shared and base_vp.data_shared

        fork.write_file(path, b"NEW")
        fork_vp = _find_vnode(fork, path)
        assert fork_vp.data is not base_vp.data
        assert bytes(base_vp.data) != b"NEW"

    def test_hard_links_survive_the_fork(self):
        base = World().with_file("/srv/a.txt", b"shared").boot()
        base.syscalls("root").link("/srv/a.txt", "/srv/b.txt")
        fork = base.fork()
        a = _find_vnode(fork, "/srv/a.txt")
        b = _find_vnode(fork, "/srv/b.txt")
        assert a is b
        assert a.nlink == 2


class TestBootCache:
    def test_identical_configs_share_one_template(self):
        clear_boot_cache()
        w1 = World().with_usr_src(subsystems=1, files_per_dir=2).boot()
        w2 = World().with_usr_src(subsystems=1, files_per_dir=2).boot()
        assert boot_cache_size() == 1
        assert w1.kernel is not w2.kernel
        assert w1.fixtures == w2.fixtures

    def test_cached_boots_are_isolated(self):
        w1 = World().with_jpeg_samples(owner="alice").boot()
        w2 = World().with_jpeg_samples(owner="alice").boot()
        w1.write_file("/home/alice/Documents/dog.jpg", b"gone")
        assert w2.read_file("/home/alice/Documents/dog.jpg").startswith(b"JPEG")

    def test_fixture_values_are_isolated_too(self):
        """Mutating one world's fixtures record must not reach the cache
        template or sibling worlds (fixture values are mutable lists)."""
        w1 = World().with_jpeg_samples(owner="alice").boot()
        w1.fixtures["jpeg_samples"].append("/polluted")
        w2 = World().with_jpeg_samples(owner="alice").boot()
        assert "/polluted" not in w2.fixtures["jpeg_samples"]
        fork = w1.fork()
        fork.fixtures["jpeg_samples"].append("/fork-only")
        assert "/fork-only" not in w1.fixtures["jpeg_samples"]

    def test_different_configs_different_digests(self):
        a = World().with_usr_src(subsystems=1)
        b = World().with_usr_src(subsystems=2)
        assert a.digest != b.digest
        assert a.digest == World().with_usr_src(subsystems=1).digest

    def test_default_user_is_part_of_the_digest(self):
        # jpeg ownership defaults to the world's user, so the digest
        # must distinguish the two configurations.
        a = World().for_user("alice").with_jpeg_samples()
        b = World().for_user("tester").with_jpeg_samples()
        assert a.digest != b.digest

    def test_with_setup_worlds_are_never_cached(self):
        world = World().with_setup(lambda kernel: None)
        assert world.digest is None
        clear_boot_cache()
        world.boot()
        assert boot_cache_size() == 0
        assert not world.pristine

    def test_keyed_setup_worlds_regain_the_digest(self):
        """with_setup(fn, key=...) folds the key into the digest: the
        caller promises equal keys build equal worlds, and in exchange
        gets boot-cache / result-cache / snapshot-store eligibility
        back (the former ROADMAP known-limit)."""
        def setup(kernel):
            return "probed"

        a = World().with_setup(setup, key="probe-v1")
        b = World().with_setup(setup, key="probe-v1")
        c = World().with_setup(setup, key="probe-v2")
        assert a.digest is not None
        assert a.digest == b.digest
        assert a.digest != c.digest
        assert a.digest != World().digest  # a keyed step is not a no-op

    def test_keyed_setup_worlds_hit_the_boot_cache(self):
        calls = []

        def setup(kernel):
            calls.append(1)
            return len(calls)

        clear_boot_cache()
        first = World().with_setup(setup, key="counted").boot()
        second = World().with_setup(setup, key="counted").boot()
        assert calls == [1]            # second boot forked the template
        assert boot_cache_size() == 1
        assert first.pristine and second.pristine
        assert second.fixtures["counted"] == 1

    def test_keyed_setup_with_uncopyable_fixture_boots_privately(self):
        """Regression: a fixture value that refuses deep-copy (a lock, a
        handle) must keep the boot out of the template cache — not crash
        it."""
        import threading

        def setup(kernel):
            return threading.Lock()

        clear_boot_cache()
        world = World().with_setup(setup, key="locky").boot()
        assert boot_cache_size() == 0          # kept private, no crash
        assert world.digest is not None        # digest (and result cache) hold
        assert world.pristine
        world.session().run_ambient('#lang shill/ambient\nh = open_dir("/");\n')

    def test_keyed_setup_worlds_are_result_cache_eligible(self):
        from repro.api import Batch, clear_result_cache

        def setup(kernel):
            return None

        clear_result_cache()
        try:
            src = '#lang shill/ambient\ndocs = open_dir("/tmp");\n'
            def build():
                return World().with_setup(setup, key="rc")
            Batch(build()).add(src).run()
            batch = Batch(build()).add(src)
            batch.run()
            assert batch.stats == {"jobs": 1, "cache_hits": 1, "forks": 0}
        finally:
            clear_result_cache()

    def test_pristine_tracks_mutation(self):
        world = World().with_jpeg_samples(owner="alice").boot()
        assert world.pristine
        world.write_file("/tmp/dirty", b"x")
        assert not world.pristine

    def test_pristine_tracks_metadata_mutation(self):
        world = World().with_jpeg_samples(owner="alice").boot()
        world.syscalls("alice").chmod("/home/alice/Documents/dog.jpg", 0o600)
        assert not world.pristine

    def test_pristine_tracks_builder_overwrite(self):
        from repro.world.image import WorldBuilder

        world = World().boot()
        WorldBuilder(world.kernel).write_file("/etc/resolv.conf", b"changed")
        assert not world.pristine

    def test_pristine_tracks_kernel_config(self):
        """Non-VFS configuration — users, device interposition, network
        hooks — must break pristine too: it changes what runs observe,
        so cached results would be stale."""
        for mutate in (
            lambda w: w.kernel.users.add_user("eve", 5001, 5001),
            lambda w: setattr(w.kernel, "interpose_devices", True),
            lambda w: w.kernel.network.register_listen_hook(("0.0.0.0", 1), lambda s: None),
            lambda w: w.kernel.sysctl.set(w.kernel.spawn_process("root", "/"),
                                          "kern.hostname", "other"),
        ):
            world = World().with_jpeg_samples(owner="alice").boot()
            assert world.pristine
            mutate(world)
            assert not world.pristine

    def test_pristine_tracks_watermark_drift(self):
        """Running anything on the base world advances pid/sid
        watermarks; audit lines embed sids, so cached results would no
        longer match an uncached rerun."""
        world = World().for_user("alice").with_jpeg_samples().boot()
        assert world.pristine
        world.session().run_ambient(
            '#lang shill/ambient\nd = open_dir("~/Documents");\nx = contents(d);\n')
        assert not world.pristine

    def test_vids_deterministic_across_identical_forks(self):
        """Identical operations on sibling forks allocate identical vids
        (vids surface in Stat and audit fallbacks, so the parallel ==
        sequential guarantee needs them reproducible)."""
        base = World().boot()
        forks = [base.fork() for _ in range(2)]
        for fork in forks:
            fork.write_file("/tmp/fresh.txt", b"x")
        vids = [_find_vnode(fork, "/tmp/fresh.txt").vid for fork in forks]
        assert vids[0] == vids[1]

    def test_fork_of_pristine_world_is_pristine(self):
        world = World().with_jpeg_samples(owner="alice").boot()
        assert world.fork().pristine

    def test_listen_hooks_do_not_cross_forks(self):
        """Listen hooks close over the registering kernel's run state
        (the Apache bench's flood driver), so a fork must start without
        them — inheriting one would let the fork's listen() drive
        syscalls on the parent kernel."""
        base = World().boot()
        fired = []
        base.kernel.network.register_listen_hook(("0.0.0.0", 81),
                                                 lambda sock: fired.append(sock))
        fork = base.fork()
        from repro.kernel.sockets import AddressFamily, SocketType

        sys = fork.syscalls("root")
        fd = sys.socket(AddressFamily.AF_INET, SocketType.SOCK_STREAM)
        sys.bind(fd, ("0.0.0.0", 81))
        sys.listen(fd)
        assert fired == []

    def test_fork_preserves_every_mac_policy(self):
        """A fork enforces everything the template enforced — including
        third-party MAC policies loaded via kldload."""
        from repro.kernel.mac import MacPolicy

        class ThirdParty(MacPolicy):
            name = "third-party"

        base = World().boot()
        kernel = base.kernel
        kernel.kld.kldload(kernel.spawn_process("root", "/"),
                           "third-party", ThirdParty())
        fork = kernel.fork()
        assert [p.name for p in fork.mac.policies] == ["shill", "third-party"]


class TestPool:
    def test_pool_hands_out_independent_booted_forks(self):
        pool = World().with_jpeg_samples(owner="alice").pool(workers=3)
        assert len(pool) == 3
        pool[0].write_file("/home/alice/Documents/dog.jpg", b"w0")
        assert pool[1].read_file("/home/alice/Documents/dog.jpg").startswith(b"JPEG")

    def test_pool_map_runs_on_every_worker(self):
        pool = World().pool(workers=2)
        outs = pool.map(lambda w: w.read_file("/etc/passwd"))
        assert len(outs) == 2 and outs[0] == outs[1]

    def test_pool_requires_a_worker(self):
        with pytest.raises(ValueError):
            World().pool(workers=0)
