"""SHILL MAC policy tests: every hook class, privilege propagation,
the Figure 8 worked example, and Figure 7's denied resources."""

from __future__ import annotations

import io

import pytest

from repro.errors import SysError
from repro.kernel import O_CREAT, O_RDONLY, O_WRONLY, errno_
from repro.kernel.sockets import AddressFamily, SocketType
from repro.sandbox.privileges import ConnType, Priv, PrivSet, SocketPerms, SockPriv

RO = PrivSet.of(Priv.READ, Priv.STAT, Priv.PATH)
RO_DIR = PrivSet.of(Priv.READ_SYMLINK, Priv.CONTENTS, Priv.LOOKUP, Priv.STAT, Priv.READ, Priv.PATH)


def expect_eacces(fn, *args, **kwargs):
    with pytest.raises(SysError) as exc:
        fn(*args, **kwargs)
    assert exc.value.errno == errno_.EACCES
    return exc.value


class TestBasicEnforcement:
    def test_ungranted_file_unreadable(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.open, "/home/alice/dog.jpg", O_RDONLY)

    def test_granted_file_readable(self, sandbox):
        sb = sandbox()
        # Need lookup privileges along the path, like the real sandbox.
        sb.grant_path("/", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice/dog.jpg", RO)
        sb.enter()
        assert sb.sys.read_whole("/home/alice/dog.jpg") == b"JPEGDATA-DOG"

    def test_read_priv_does_not_allow_write(self, sandbox):
        sb = sandbox()
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice/dog.jpg", RO)
        sb.enter()
        sb.proc.cwd = sb.kernel.vfs.lookup(sb.kernel.vfs.lookup(sb.kernel.vfs.root, "home"), "alice")
        expect_eacces(sb.sys.open, "dog.jpg", O_WRONLY)

    def test_write_requires_both_write_and_append(self, sandbox):
        """Single MAC write entry point (section 3.2.3): +write alone and
        +append alone are both insufficient."""
        for privs in (PrivSet.of(Priv.WRITE), PrivSet.of(Priv.APPEND)):
            sb = sandbox()
            sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
            sb.grant_path("/home/alice/dog.jpg", privs)
            sb.enter()
            expect_eacces(sb.sys.open, "/home/alice/dog.jpg", O_WRONLY)

    def test_write_with_both_privs_succeeds(self, sandbox):
        sb = sandbox()
        sb.grant_chain("/home/alice/dog.jpg")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice/dog.jpg", PrivSet.of(Priv.WRITE, Priv.APPEND))
        sb.enter()
        fd = sb.sys.open("/home/alice/dog.jpg", O_WRONLY)
        assert sb.sys.write(fd, b"X") == 1

    def test_dac_still_applies_inside_sandbox(self, sandbox):
        """MAC is enforced *in addition to* DAC: granting bob's sandbox a
        capability for alice's private file does not defeat mode bits."""
        sb = sandbox(user="bob", cwd="/home/bob")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice/notes.txt", PrivSet.full())
        sb.enter()
        expect_eacces(sb.sys.open, "/home/alice/notes.txt", O_RDONLY)

    def test_denied_syscall_leaves_process_running(self, sandbox):
        """'the system call aborts with an error but the process is
        otherwise allowed to continue' (section 3.2.2)."""
        sb = sandbox()
        sb.grant_chain("/home/alice/x")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP, Priv.CONTENTS))
        sb.enter()
        expect_eacces(sb.sys.open, "/home/alice/dog.jpg", O_RDONLY)
        # Still alive and able to use remaining privileges:
        assert "dog.jpg" in sb.sys.contents("/home/alice")


class TestStatContentsExec:
    def test_stat_requires_stat(self, sandbox):
        sb = sandbox()
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home/alice/dog.jpg", PrivSet.of(Priv.READ))
        sb.enter()
        expect_eacces(sb.sys.stat, "/home/alice/dog.jpg")

    def test_contents_requires_contents(self, sandbox):
        sb = sandbox()
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP))
        sb.enter()
        expect_eacces(sb.sys.contents, "/home/alice")

    def test_contents_granted(self, sandbox):
        sb = sandbox()
        sb.grant_chain("/home/alice/x")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP, Priv.CONTENTS))
        sb.enter()
        assert "notes.txt" in sb.sys.contents("/home/alice")


class TestLookupPropagation:
    def test_lookup_propagates_modifier_privs(self, sandbox):
        """+lookup with {+stat,+path}: children looked up get exactly those."""
        sb = sandbox()
        privs = PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, {Priv.STAT, Priv.PATH})
        sb.grant_chain("/home/alice")
        sb.grant_path("/home/alice", privs)
        sb.enter()
        st = sb.sys.stat("/home/alice/dog.jpg")  # lookup then stat: allowed
        assert st.size == 12
        expect_eacces(sb.sys.open, "/home/alice/dog.jpg", O_RDONLY)  # but not read

    def test_lookup_inherit_propagates_whole_set(self, sandbox):
        sb = sandbox()
        sb.grant_chain("/home/alice")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP, Priv.READ, Priv.STAT))
        sb.enter()
        assert sb.sys.read_whole("/home/alice/dog.jpg") == b"JPEGDATA-DOG"

    def test_figure8_left_panel(self, sandbox, kernel):
        """Session has privileges on /home/alice and cwd /home/bob, but NOT
        /home: open("../alice/dog.jpg") fails with EACCES."""
        sb = sandbox(user="bob", cwd="/home/bob")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP).with_modifier(
            Priv.LOOKUP, {Priv.READ}))
        sb.grant_path("/home/bob", PrivSet.of(Priv.LOOKUP))
        sb.enter()
        err = expect_eacces(sb.sys.open, "../alice/dog.jpg", O_RDONLY)
        assert err.errno == errno_.EACCES

    def test_figure8_right_panel(self, sandbox):
        """Adding +lookup on /home makes the same open succeed, and the
        +read from /home/alice's lookup modifier propagates to dog.jpg."""
        sb = sandbox(user="bob", cwd="/home/bob")
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP).with_modifier(
            Priv.LOOKUP, {Priv.READ}))
        sb.grant_path("/home/bob", PrivSet.of(Priv.LOOKUP))
        sb.grant_path("/home", PrivSet.of(Priv.LOOKUP))
        sb.enter()
        fd = sb.sys.open("../alice/dog.jpg", O_RDONLY)
        assert sb.sys.read(fd, 4) == b"JPEG"

    def test_dotdot_lookup_allowed_but_never_propagates(self, sandbox, kernel):
        """'..'' lookups succeed with +lookup but mint no privileges on the
        parent (fine-grained confinement, section 3.2.2)."""
        from repro.sandbox.privmap import privmap_of

        sb = sandbox(user="bob", cwd="/home/bob")
        sb.grant_path("/home/bob", PrivSet.of(Priv.LOOKUP, Priv.READ, Priv.STAT, Priv.CONTENTS))
        sb.enter()
        # ".." resolves (no error from lookup itself)...
        home = kernel.vfs.lookup(kernel.vfs.root, "home")
        # ...but /home gained no privileges for this session:
        expect_eacces(sb.sys.contents, "..")
        pm = privmap_of(home)
        assert pm is None or not pm.privs_for(sb.session.sid).has(Priv.LOOKUP)

    def test_dot_lookup_does_not_amplify(self, sandbox, kernel):
        """openat(d, ".") must not grant the modifier privileges to d itself."""
        from repro.sandbox.privmap import privmap_of

        sb = sandbox()
        privs = PrivSet.of(Priv.LOOKUP).with_modifier(Priv.LOOKUP, {Priv.STAT})
        sb.grant_path("/home/alice", privs)
        sb.enter()
        alice = kernel.vfs.lookup(kernel.vfs.lookup(kernel.vfs.root, "home"), "alice")
        # Lookup "." is permitted...
        sb.sys.kernel.vfs.lookup(alice, ".")
        expect_eacces(sb.sys.stat, "/home/alice/.")
        pm = privmap_of(alice)
        assert not pm.privs_for(sb.session.sid).has(Priv.STAT)


class TestCreateAndUnlink:
    def test_create_file_requires_priv(self, sandbox):
        sb = sandbox()
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", PrivSet.of(Priv.LOOKUP))
        sb.enter()
        expect_eacces(sb.sys.open, "/tmp/new", O_WRONLY | O_CREAT)

    def test_create_file_with_modifier_controls_new_file_privs(self, sandbox):
        """The grading-script pattern: '+create-file with {...append-only...}'
        — created files usable per modifier, and deletable only if the
        modifier says so."""
        sb = sandbox()
        privs = PrivSet.of(Priv.LOOKUP).adding(Priv.CREATE_FILE).with_modifier(
            Priv.CREATE_FILE, {Priv.WRITE, Priv.APPEND, Priv.STAT, Priv.PATH}
        )
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", privs)
        sb.enter()
        fd = sb.sys.open("/tmp/out", O_WRONLY | O_CREAT)
        sb.sys.write(fd, b"data")
        sb.sys.close(fd)
        # Write to own file OK; reading it back is NOT in the modifier:
        expect_eacces(sb.sys.open, "/tmp/out", O_RDONLY)
        # Nor deleting it:
        expect_eacces(sb.sys.unlink, "/tmp/out")

    def test_delete_only_files_created_with_capability(self, sandbox, alice_sys):
        """Files that existed before the sandbox cannot be unlinked, files
        the sandbox created (with +unlink-file in the modifier) can."""
        alice_sys.write_whole("/tmp/preexisting", b"x")
        sb = sandbox()
        privs = PrivSet.of(Priv.LOOKUP).adding(Priv.CREATE_FILE).with_modifier(
            Priv.CREATE_FILE,
            {Priv.READ, Priv.WRITE, Priv.APPEND, Priv.UNLINK_FILE, Priv.STAT, Priv.PATH},
        )
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", privs)
        sb.enter()
        fd = sb.sys.open("/tmp/mine", O_WRONLY | O_CREAT)
        sb.sys.close(fd)
        expect_eacces(sb.sys.unlink, "/tmp/preexisting")
        sb.sys.unlink("/tmp/mine")  # allowed: created with the capability

    def test_mkdir_requires_create_dir(self, sandbox):
        sb = sandbox()
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", PrivSet.of(Priv.LOOKUP, Priv.CREATE_FILE))
        sb.enter()
        expect_eacces(sb.sys.mkdir, "/tmp/sub")

    def test_mkdir_with_full_modifier(self, sandbox):
        """The grade contract's 'dir(+create-dir with full privileges)'."""
        from repro.sandbox.privileges import ALL_PRIVS

        sb = sandbox()
        privs = PrivSet.of(Priv.LOOKUP).adding(Priv.CREATE_DIR).with_modifier(
            Priv.CREATE_DIR, ALL_PRIVS
        )
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", privs)
        sb.enter()
        sb.sys.mkdir("/tmp/work")
        # Full privileges inside the new directory:
        fd = sb.sys.open("/tmp/work/scratch", O_WRONLY | O_CREAT)
        sb.sys.write(fd, b"ok")
        sb.sys.close(fd)
        assert sb.sys.read_whole("/tmp/work/scratch") == b"ok"
        sb.sys.unlink("/tmp/work/scratch")

    def test_rename_requires_rename_and_create(self, sandbox, alice_sys):
        alice_sys.write_whole("/tmp/a", b"x")
        sb = sandbox()
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", PrivSet.of(Priv.LOOKUP, Priv.CREATE_FILE))
        sb.grant_path("/tmp/a", PrivSet.of(Priv.READ))
        sb.enter()
        expect_eacces(sb.sys.rename, "/tmp/a", "/tmp/b")

    def test_rename_with_privs(self, sandbox, alice_sys):
        alice_sys.write_whole("/tmp/a", b"x")
        sb = sandbox()
        sb.grant_chain("/tmp/x")
        sb.grant_path("/tmp", PrivSet.of(Priv.LOOKUP, Priv.CREATE_FILE))
        sb.grant_path("/tmp/a", PrivSet.of(Priv.RENAME))
        sb.enter()
        sb.sys.rename("/tmp/a", "/tmp/b")


class TestPipesAndSockets:
    def test_pipe_requires_factory(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.pipe)

    def test_pipe_factory_grants_creation_and_use(self, sandbox):
        sb = sandbox().grant_pipe_factory().enter()
        rfd, wfd = sb.sys.pipe()
        sb.sys.write(wfd, b"hi")
        assert sb.sys.read(rfd, 10) == b"hi"

    def test_granted_pipe_end_respects_privs(self, sandbox, kernel):
        """A stdout pipe granted write-only cannot be read back."""
        from repro.kernel.fdesc import OpenFile
        from repro.kernel.pipes import make_pipe
        from repro.kernel.syscalls import O_RDONLY as RD, O_WRONLY as WR

        rend, wend = make_pipe()
        sb = sandbox()
        sb.grant_obj(rend.pipe, PrivSet.of(Priv.WRITE, Priv.APPEND))
        sb.proc.fdtable.install(1, OpenFile(wend, WR))
        sb.proc.fdtable.install(5, OpenFile(rend, RD))
        sb.enter()
        sb.sys.write(1, b"out")
        expect_eacces(sb.sys.read, 5, 10)

    def test_socket_requires_factory(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.socket, AddressFamily.AF_INET, SocketType.SOCK_STREAM)

    def test_socket_factory_with_conn_type(self, sandbox):
        perms = SocketPerms(
            {SockPriv.CREATE, SockPriv.CONNECT, SockPriv.SEND, SockPriv.RECEIVE},
            (ConnType(int(AddressFamily.AF_INET), int(SocketType.SOCK_STREAM)),),
        )
        sb = sandbox().grant_socket_factory(perms).enter()
        sb.sys.socket(AddressFamily.AF_INET, SocketType.SOCK_STREAM)
        expect_eacces(sb.sys.socket, AddressFamily.AF_INET, SocketType.SOCK_DGRAM)
        expect_eacces(sb.sys.socket, AddressFamily.AF_UNIX, SocketType.SOCK_STREAM)

    def test_socket_priv_refinement(self, sandbox):
        """A factory with send-only privileges cannot bind/listen."""
        perms = SocketPerms({SockPriv.CREATE, SockPriv.CONNECT, SockPriv.SEND})
        sb = sandbox().grant_socket_factory(perms).enter()
        fd = sb.sys.socket(AddressFamily.AF_INET, SocketType.SOCK_STREAM)
        expect_eacces(sb.sys.bind, fd, ("0.0.0.0", 80))

    def test_other_socket_families_denied_even_with_factory(self, sandbox):
        """Figure 7: 'Sockets (other): Denied'."""
        sb = sandbox().grant_socket_factory().enter()
        expect_eacces(sb.sys.socket, AddressFamily.AF_NETGRAPH, SocketType.SOCK_STREAM)


class TestFigure7DeniedResources:
    def test_sysctl_read_only(self, sandbox):
        sb = sandbox().enter()
        assert sb.sys.sysctl_get("kern.ostype") == "FreeBSD"
        expect_eacces(sb.sys.sysctl_set, "kern.hostname", "pwned")

    def test_kenv_denied(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.kenv_get, "kernelname")
        expect_eacces(sb.sys.kenv_set, "x", "y")

    def test_kld_unload_denied(self, sandbox):
        """'no sandboxed executable has a capability to unload kernel
        modules, including the module that enforces the MAC policy.'"""
        sb = sandbox(user="root", cwd="/").enter()
        expect_eacces(sb.sys.kldunload, "shill")
        # The policy is still registered afterwards:
        assert sb.kernel.shill_installed

    def test_posix_ipc_denied(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.shm_open, "/seg")

    def test_sysv_ipc_denied(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.msgget, 1)


class TestProcessInteraction:
    def test_signal_within_session_allowed(self, sandbox, kernel):
        sb = sandbox().enter()
        child = kernel.procs.fork(sb.proc)  # same session by default
        sb.sys.kill(child.pid, 15)
        assert 15 in child.pending_signals

    def test_signal_outside_session_denied(self, sandbox, kernel):
        outsider = kernel.spawn_process("alice", "/home/alice")
        sb = sandbox().enter()
        expect_eacces(sb.sys.kill, outsider.pid, 15)

    def test_wait_outside_session_denied(self, sandbox, kernel):
        sb = sandbox().enter()
        outsider = kernel.spawn_process("alice", "/home/alice")
        outsider.ppid = sb.proc.pid  # even as a nominal child
        expect_eacces(sb.sys.wait, outsider.pid)

    def test_debug_outside_session_denied(self, sandbox, kernel):
        outsider = kernel.spawn_process("alice", "/home/alice")
        sb = sandbox().enter()
        expect_eacces(sb.sys.ptrace_attach, outsider.pid)

    def test_descendant_session_reachable(self, sandbox, kernel):
        """Interaction with *descendant* sessions is allowed."""
        sb = sandbox().enter()
        child = kernel.procs.fork(sb.proc)
        sb.policy.sessions.shill_init(child)
        kernel.syscalls(child).shill_enter()
        sb.sys.kill(child.pid, 15)
        assert 15 in child.pending_signals

    def test_parent_session_not_signalable_from_child(self, sandbox, kernel):
        sb = sandbox().enter()
        child = kernel.procs.fork(sb.proc)
        sb.policy.sessions.shill_init(child)
        kernel.syscalls(child).shill_enter()
        child_sys = kernel.syscalls(child)
        expect_eacces(child_sys.kill, sb.proc.pid, 15)


class TestSessionHierarchy:
    def test_child_session_grant_bounded_by_parent(self, sandbox, kernel):
        """'a new session S2, which has fewer capabilities than S1'."""
        from repro.errors import SandboxError

        sb = sandbox()
        sb.grant_path("/home/alice", PrivSet.of(Priv.LOOKUP, Priv.CONTENTS))
        sb.enter()
        child = kernel.procs.fork(sb.proc)
        sub = sb.policy.sessions.shill_init(child)
        alice_dir = kernel.vfs.lookup(kernel.vfs.lookup(kernel.vfs.root, "home"), "alice")
        # Subset grant fine:
        sb.policy.sessions.grant(sub, alice_dir, PrivSet.of(Priv.LOOKUP))
        # Exceeding grant refused:
        with pytest.raises(SandboxError):
            sb.policy.sessions.grant(sub, alice_dir, PrivSet.of(Priv.READ))

    def test_grant_after_enter_refused(self, sandbox, kernel):
        from repro.errors import SandboxError

        sb = sandbox().enter()
        alice_dir = kernel.vfs.lookup(kernel.vfs.lookup(kernel.vfs.root, "home"), "alice")
        with pytest.raises(SandboxError):
            sb.policy.sessions.grant(sb.session, alice_dir, PrivSet.of(Priv.READ))

    def test_double_enter_refused(self, sandbox):
        from repro.errors import SandboxError

        sb = sandbox().enter()
        with pytest.raises(SandboxError):
            sb.sys.shill_enter()

    def test_session_cleanup_drops_privmaps(self, sandbox, kernel):
        from repro.sandbox.privmap import privmap_of

        sb = sandbox()
        sb.grant_path("/home/alice/dog.jpg", PrivSet.of(Priv.READ))
        sb.enter()
        sid = sb.session.sid
        dog = kernel.vfs.lookup(
            kernel.vfs.lookup(kernel.vfs.lookup(kernel.vfs.root, "home"), "alice"), "dog.jpg"
        )
        assert privmap_of(dog).privs_for(sid).has(Priv.READ)
        kernel.procs.reap(sb.proc)
        # The grant is gone — and with no other sessions holding one,
        # teardown clears the label slot back to the unlabelled state.
        pm = privmap_of(dog)
        assert pm is None or not pm.privs_for(sid).has(Priv.READ)
        assert sb.session.dead


class TestDebugMode:
    def test_debug_auto_grants_and_logs(self, sandbox):
        """Debug sandboxes auto-grant missing privileges and record them —
        'a useful starting point for identifying necessary capabilities'."""
        sb = sandbox(debug=True).enter()
        data = sb.sys.read_whole("/home/alice/dog.jpg")
        assert data == b"JPEGDATA-DOG"
        grants = sb.session.log.auto_grants()
        assert grants, "expected auto-grant entries"
        text = "\n".join(e.format() for e in grants)
        assert "+lookup" in text and "+read" in text

    def test_normal_mode_logs_denials(self, sandbox):
        sb = sandbox().enter()
        expect_eacces(sb.sys.open, "/home/alice/dog.jpg", O_RDONLY)
        assert sb.session.log.denials()

    def test_debug_auto_grants_are_revoked_at_teardown(self):
        """An auto-grant is a grant: teardown revokes and audits it, so a
        finished debug run leaves no label behind for later snapshots."""
        import pickle

        from repro.api import World
        from repro.kernel import serialize

        world = World().boot()
        result = world.sandbox("", debug=True).exec(["/bin/cat", "/etc/passwd"])
        assert result.ok and result.auto_granted
        kernel = world.kernel
        policy = kernel.mac.find("shill")
        assert not policy.sessions.live_sessions()

        def vnodes(vp):
            yield vp
            for child in (vp.entries or {}).values():
                yield from vnodes(child)

        assert [vp for vp in vnodes(kernel.vfs.root) if vp.label.get("shill") is not None] == []
        log = policy.sessions.audit_records()[-1].log
        revoked = {e.target for e in log.revocations()}
        assert {e.target for e in log.auto_grants()} <= revoked

        modules: set[str] = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                modules.add(module)
                return super().find_class(module, name)

        blob = serialize.snapshot_kernel(kernel)
        Recorder(io.BytesIO(blob[serialize._HEADER_LEN:])).load()
        assert "repro.kernel.kernel" in modules
        assert not modules & {"repro.sandbox.privileges", "repro.sandbox.privmap"}
