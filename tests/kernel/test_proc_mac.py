"""Process-layer and MAC-framework unit tests."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SysError
from repro.kernel import O_CREAT, O_RDONLY, O_WRONLY, errno_
from repro.kernel.mac import HOOKS, MacFramework, MacPolicy
from repro.kernel.proc import SIGKILL, SIGTERM
from repro.sandbox.policy import ShillPolicy

SRC = Path(repro.__file__).parent


class TestProcesses:
    def test_fork_inherits_cred_cwd_fds(self, kernel, alice_sys):
        fd = alice_sys.open("dog.jpg")
        child = kernel.procs.fork(alice_sys.proc)
        assert child.cred == alice_sys.proc.cred
        assert child.cwd is alice_sys.proc.cwd
        child_sys = kernel.syscalls(child)
        assert child_sys.read(fd, 4) == b"JPEG"  # shared open file

    def test_shared_offset_after_fork(self, kernel, alice_sys):
        fd = alice_sys.open("dog.jpg")
        child = kernel.procs.fork(alice_sys.proc)
        alice_sys.read(fd, 8)
        assert kernel.syscalls(child).read(fd, 4) == b"-DOG"

    def test_wait_requires_child(self, kernel, alice_sys, bob_sys):
        with pytest.raises(SysError) as exc:
            alice_sys.wait(bob_sys.proc.pid)
        assert exc.value.errno == errno_.ECHILD

    def test_wait_returns_status(self, kernel, alice_sys):
        child = alice_sys.fork()
        child.exited = True
        child.exit_status = 7
        assert alice_sys.wait(child.pid) == 7

    def test_kill_sigkill_terminates(self, kernel, alice_sys):
        child = alice_sys.fork()
        alice_sys.kill(child.pid, SIGKILL)
        assert child.exited and child.killed_by == SIGKILL

    def test_kill_other_signal_queues(self, kernel, alice_sys):
        child = alice_sys.fork()
        alice_sys.kill(child.pid, SIGTERM)
        assert not child.exited and SIGTERM in child.pending_signals

    def test_kill_cross_user_denied(self, kernel, alice_sys, bob_sys):
        with pytest.raises(SysError) as exc:
            alice_sys.kill(bob_sys.proc.pid, SIGTERM)
        assert exc.value.errno == errno_.EPERM

    def test_kill_missing_pid(self, alice_sys):
        with pytest.raises(SysError) as exc:
            alice_sys.kill(424242, SIGTERM)
        assert exc.value.errno == errno_.ESRCH

    def test_reap_closes_fds(self, kernel, alice_sys):
        child = kernel.procs.fork(alice_sys.proc)
        fd = kernel.syscalls(child).open("/home/alice/dog.jpg")
        kernel.procs.reap(child)
        with pytest.raises(SysError):
            kernel.syscalls(child).read(fd, 1)


class TestMacFramework:
    def test_register_and_find(self):
        mac = MacFramework()

        class P(MacPolicy):
            name = "testpol"

        policy = P()
        mac.register(policy)
        assert mac.find("testpol") is policy
        assert mac.find("absent") is None

    def test_duplicate_registration_refused(self):
        mac = MacFramework()

        class P(MacPolicy):
            name = "dup"

        mac.register(P())
        with pytest.raises(ValueError):
            mac.register(P())

    def test_restrictive_composition(self):
        """All policies must allow: one denier denies."""
        mac = MacFramework()

        class Allow(MacPolicy):
            name = "allow"

        class Deny(MacPolicy):
            name = "deny"

            def vnode_check_read(self, proc, vp):
                return errno_.EACCES

        mac.register(Allow())
        mac.register(Deny())
        with pytest.raises(SysError) as exc:
            mac.check("vnode_check_read", None, None)
        assert exc.value.errno == errno_.EACCES

    def test_unregister(self):
        mac = MacFramework()

        class P(MacPolicy):
            name = "gone"

        mac.register(P())
        mac.unregister("gone")
        assert mac.find("gone") is None

    def test_kldload_requires_root(self, kernel, alice_sys, root_sys):
        class P(MacPolicy):
            name = "third-party"

        with pytest.raises(SysError) as exc:
            kernel.kld.kldload(alice_sys.proc, "third-party", P())
        assert exc.value.errno == errno_.EPERM
        kernel.kld.kldload(root_sys.proc, "third-party", P())
        assert kernel.mac.find("third-party") is not None

    def test_kldunload_root_outside_sandbox_allowed(self, kernel, root_sys):
        kernel.install_shill_module()
        root_sys.kldunload("shill")
        assert not kernel.shill_installed


def _hook_call_sites() -> tuple[set[str], set[tuple[str, str]]]:
    """The hook names ``src/`` passes as literals to the framework's
    ``check``/``post`` (called on an attribute named ``mac`` or ``_mac``)
    and to ``SyscallInterface._mac``/``_post``; and the (module,
    function) of every such call that passes a computed name."""
    literal: set[str] = set()
    computed: set[tuple[str, str]] = set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                func = node.func
                framework = (func.attr in ("check", "post")
                             and isinstance(func.value, ast.Attribute)
                             and func.value.attr in ("mac", "_mac"))
                if not (framework or func.attr in ("_mac", "_post")):
                    continue
                name = node.args[0]
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    literal.add(name.value)
                else:
                    computed.add((path.relative_to(SRC).as_posix(), fn.name))
    return literal, computed


class TestHooks:
    """A policy defines the hooks it enforces; ``HOOKS`` names every hook
    the kernel calls, and a hook no policy defines passes."""

    def test_hooks_are_the_names_the_kernel_calls(self):
        literal, computed = _hook_call_sites()
        # The sysctl, kenv/kld and IPC subsystems and exec call in too.
        assert {"system_check_sysctl", "kenv_check", "kld_check_load",
                "kld_check_unload", "ipc_check", "vnode_check_exec"} <= literal
        assert literal == HOOKS
        # Only the syscall layer's two forwarders pass a computed name.
        assert computed == {("kernel/syscalls.py", "_mac"), ("kernel/syscalls.py", "_post")}

    def test_the_base_defines_no_hook_and_shill_every_one(self):
        assert not HOOKS & set(dir(MacPolicy))
        public = {name for name in vars(ShillPolicy) if not name.startswith("_")}
        assert public - {"name", "fork_for"} == HOOKS

    def test_a_bare_policy_passes_every_hook_and_no_unknown_name(self):
        class Bare(MacPolicy):
            name = "bare"

        mac = MacFramework()
        mac.register(Bare())
        for hook in HOOKS:
            (mac.post if "_post_" in hook else mac.check)(hook, None)
        with pytest.raises(AttributeError):
            mac.check("vnode_check_raed", None, None)
        with pytest.raises(AttributeError):
            mac.post("vnode_post_lokup", None, None, None, "x")

    def test_a_policy_is_asked_only_about_the_hooks_it_defines(self, kernel, alice_sys):
        asked = []

        class DenyReads(MacPolicy):
            name = "deny-reads"

            def vnode_check_read(self, proc, vp):
                asked.append((proc, vp))
                return errno_.EACCES

        alone = MacFramework()
        alone.register(DenyReads())
        for hook in HOOKS - {"vnode_check_read"}:
            (alone.post if "_post_" in hook else alone.check)(hook, None)
        assert asked == []
        kernel.mac.register(DenyReads())
        fd = alice_sys.open("dog.jpg", O_RDONLY)
        alice_sys.stat("dog.jpg")
        alice_sys.close(alice_sys.open("/tmp/new", O_WRONLY | O_CREAT))
        alice_sys.mkdir("/tmp/dir")
        assert asked == []
        with pytest.raises(SysError) as exc:
            alice_sys.read(fd, 4)
        assert exc.value.errno == errno_.EACCES
        assert "mac:deny-reads:vnode_check_read" in str(exc.value)
        _dvp, _name, dog = alice_sys._resolve("dog.jpg")
        assert asked == [(alice_sys.proc, dog)]
        assert kernel.stats.mac_denials == 1


class TestExecStatuses:
    def test_missing_program_image(self, kernel):
        """A file without a program image fails ENOEXEC -> 126."""
        from repro.kernel.vfs import VType

        vp = kernel.vfs.create(kernel.vfs.root, "junk", VType.VREG, 0o755, 0, 0)
        assert vp.data is not None
        vp.data.extend(b"just bytes")
        proc = kernel.spawn_process("root", "/")
        child = kernel.procs.fork(proc)
        assert kernel.exec_file(child, vp, ["junk"]) == 126

    def test_exec_non_executable_mode(self, kernel):
        from repro.kernel.vfs import VType
        from repro.programs.base import elf_image

        vp = kernel.vfs.create(kernel.vfs.root, "noexec", VType.VREG, 0o644, 0, 0)
        assert vp.data is not None
        vp.data.extend(elf_image("echo", []))
        proc = kernel.spawn_process("alice", "/")
        child = kernel.procs.fork(proc)
        assert kernel.exec_file(child, vp, ["noexec"]) == 126

    def test_exec_records_its_touch_only_when_allowed(self):
        """exec's check goes through ``SyscallInterface._mac``, which
        records the image as an ``execute`` touch once the check passes."""
        from repro.world import build_world

        class NoExec(MacPolicy):
            name = "no-exec"

            def vnode_check_exec(self, proc, vp):
                return errno_.EACCES

        world = build_world()
        sys = world.syscalls(world.spawn_process("root", "/"))
        assert sys.spawn("/bin/echo", ["echo", "hi"]) == 0
        assert world._touched.count(("execute", "/bin/echo")) == 1
        world.mac.register(NoExec())
        assert sys.spawn("/bin/echo", ["echo", "hi"]) == 126
        assert world._touched.count(("execute", "/bin/echo")) == 1

    def test_exec_reaps_child(self, kernel):
        from repro.world import build_world

        world = build_world()
        proc = world.spawn_process("root", "/")
        sys = world.syscalls(proc)
        status = sys.spawn("/bin/echo", ["echo", "hi"])
        assert status == 0
        live = [p.pid for p in world.procs.live_processes()]
        assert len(live) == 1  # only the launcher remains
