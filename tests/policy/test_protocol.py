"""One decision path per domain: the engine protocol, domain by domain.

Every check site asks an installed engine first.  A DEFER reaches
``post_check`` exactly once with the final outcome (after any debug
auto-grant); an ALLOW or a DENY never does.  Each case below runs one
check whose capability test fails, so an engine ALLOW is always audited.
"""

from __future__ import annotations

import pytest

from repro.api import World
from repro.api.sandboxes import Sandbox
from repro.errors import ContractViolation, SysError
from repro.kernel import O_RDONLY, errno_
from repro.kernel.mac import MacPolicy
from repro.kernel.pipes import make_pipe
from repro.policy import DOMAINS, Decision, FakePolicyEngine, PolicyEngine
from repro.sandbox.privileges import Priv, PrivSet

DOG = "/home/alice/dog.jpg"


def _vnode(kernel, path):
    node = kernel.vfs.root
    for name in path.strip("/").split("/"):
        node = kernel.vfs.lookup(node, name)
    return node


def _sandboxed(domain, kernel, engine, debug):
    """Run one ``domain`` check in a fresh entered session that holds
    nothing; returns (allowed, the audit lines the check added)."""
    policy = kernel.install_shill_module()
    launcher = kernel.spawn_process("alice", "/home/alice")
    proc = kernel.procs.fork(launcher)
    session = policy.sessions.shill_init(proc, debug=debug, engine=engine)
    kernel.syscalls(proc).shill_enter()
    before = len(session.log.entries)
    if domain == "vnode":
        error = policy.vnode_check_read(proc, _vnode(kernel, DOG))
    elif domain == "pipe":
        error = policy.pipe_check_read(proc, make_pipe()[0].pipe)
    elif domain == "socket":
        error = policy.socket_check_bind(proc, None, ("127.0.0.1", 80))
    elif domain == "proc":
        error = policy.proc_check_signal(proc, launcher, 9)
    else:
        error = policy.kenv_check(proc, "set", "FOO")
    lines = [f"{e.kind} {e.operation} {e.target} {e.detail}"
             for e in session.log.entries[before:]]
    assert error in (0, errno_.EACCES)
    return error == 0, [line.replace(f"<pid {launcher.pid}>", "<launcher>") for line in lines]


def _language(kernel, engine):
    from repro.capability.caps import FsCap

    kernel.policy_engine = engine
    sys = kernel.syscalls(kernel.spawn_process("alice", "/home/alice"))
    cap = FsCap(sys, _vnode(kernel, DOG), PrivSet.of(Priv.STAT), DOG)
    try:
        cap.read()
    except ContractViolation as exc:
        return False, [f"{exc.blame}: {exc.detail}"]
    return True, []


class _DenyReads(MacPolicy):
    name = "deny-reads"

    def vnode_check_read(self, proc, vp):
        return errno_.EACCES


def _mac(kernel, engine):
    kernel.mac.register(_DenyReads())
    kernel.policy_engine = engine
    proc = kernel.spawn_process("alice", "/home/alice")
    try:
        kernel.mac.check("vnode_check_read", proc, _vnode(kernel, DOG))
    except SysError as exc:
        return False, [str(exc)]
    return True, []


def _probe(domain, kernel, engine, debug=False):
    if domain == "language":
        return _language(kernel, engine)
    if domain == "mac":
        return _mac(kernel, engine)
    return _sandboxed(domain, kernel, engine, debug)


def _traffic(engine, domain):
    """What ``engine`` was asked in ``domain``, and what it observed
    there (an allowed language read goes on to ask in ``mac``)."""
    return (engine.asked(domain=domain),
            [(r, allowed) for r, allowed in engine.observed if r.domain == domain])


#: domain -> (what the capability test denies, the engine-allow line,
#: the engine-deny line, the debug auto-grant line or None).
EXPECTED = {
    "vnode": (["deny read /home/alice/dog.jpg missing +read"],
              ["engine-allow read /home/alice/dog.jpg +read allowed by fake"],
              ["deny read /home/alice/dog.jpg missing +read (denied by fake)"],
              ["auto-grant read /home/alice/dog.jpg granted +read"]),
    "pipe": (["deny pipe-read <pipe> missing +read"],
             ["engine-allow pipe-read <pipe> +read allowed by fake"],
             ["deny pipe-read <pipe> missing +read (denied by fake)"],
             ["auto-grant pipe-read <pipe> granted +read"]),
    "socket": (["deny socket-bind <socket> missing +bind"],
               ["engine-allow socket-bind <socket> +bind allowed by fake"],
               ["deny socket-bind <socket> missing +bind (denied by fake)"],
               ["auto-grant socket-bind <socket> granted +bind"]),
    "proc": (["deny signal <launcher> missing (outside session)"],
             ["engine-allow signal <launcher> allowed by fake"],
             ["deny signal <launcher> missing (denied by fake)"],
             None),
    "system": (["deny kenv-set FOO missing (denied in sandboxes)"],
               ["engine-allow kenv-set FOO allowed by fake"],
               ["deny kenv-set FOO missing (denied by fake)"],
               None),
    "language": (["the system: operation 'read' requires +read on <file-cap /home/alice/dog.jpg>"],
                 [],
                 ["policy-engine:fake: operation 'read' denied by policy engine "
                  "on <file-cap /home/alice/dog.jpg>"],
                 None),
    "mac": (["[EACCES] mac:deny-reads:vnode_check_read"],
            [],
            ["[EACCES] mac:engine:fake:vnode_check_read"],
            None),
}


def test_the_table_covers_every_domain():
    assert tuple(EXPECTED) == DOMAINS


@pytest.mark.parametrize("domain", DOMAINS)
class TestOneDecisionPath:
    def test_no_engine_denies_with_the_capability_line(self, domain, kernel):
        denied, _allow, _deny, _grant = EXPECTED[domain]
        assert _probe(domain, kernel, None) == (False, denied)

    def test_a_defer_reaches_post_check_once_with_the_outcome(self, domain, kernel):
        engine = FakePolicyEngine()
        denied, _allow, _deny, _grant = EXPECTED[domain]
        assert _probe(domain, kernel, engine) == (False, denied)
        [request], observed = _traffic(engine, domain)
        assert observed == [(request, False)]

    @pytest.mark.parametrize("decision", [Decision.ALLOW, Decision.DENY])
    def test_allow_and_deny_are_audited_and_never_reach_post_check(
            self, domain, decision, kernel):
        engine = FakePolicyEngine().set(domain=domain, decision=decision)
        _denied, allow, deny, _grant = EXPECTED[domain]
        expected = (True, allow) if decision is Decision.ALLOW else (False, deny)
        assert _probe(domain, kernel, engine) == expected
        [_request], observed = _traffic(engine, domain)
        assert observed == []


@pytest.mark.parametrize("domain", ["vnode", "pipe", "socket", "proc", "system"])
def test_a_debug_grant_is_the_outcome_post_check_sees(domain, kernel):
    """Only sessions have a debug mode, and only a hook with a privilege
    to grant auto-grants: ``proc`` and ``system`` deny in debug mode too."""
    engine = FakePolicyEngine()
    denied, _allow, _deny, granted = EXPECTED[domain]
    allowed, lines = _probe(domain, kernel, engine, debug=True)
    [request], observed = _traffic(engine, domain)
    if granted is None:
        assert (allowed, lines) == (False, denied)
        assert observed == [(request, False)]
    else:
        assert (allowed, lines) == (True, granted)
        assert observed == [(request, True)]


class _DenyReadEngine(PolicyEngine):
    """Overrides nothing but ``pre_check``."""

    name = "deny-read"

    def pre_check(self, request):
        if request.operation in ("read", "vnode_check_read"):
            return Decision.DENY
        return Decision.DEFER


class TestAnInstalledEngineIsAsked:
    """Regression: an engine subclass that overrides only ``pre_check``
    used to be skipped, so its DENY never took effect."""

    def test_on_the_language_path(self):
        world = (World().for_user("alice").with_jpeg_samples()
                 .with_policy_engine(_DenyReadEngine()).boot())
        with pytest.raises(ContractViolation, match="policy-engine:deny-read"):
            world.session().run_ambient(
                '#lang shill/ambient\nread(open_file("~/Documents/dog.jpg"));\n')

    def test_on_the_sandbox_path(self):
        target = "/home/alice/Documents/notes.txt"
        policy = ("/ : +lookup with {}\n/home : +lookup with {}\n"
                  "/lib : +lookup, +read, +stat, +path\n"
                  "/libexec : +lookup, +read, +stat, +path\n"
                  "/home/alice : +lookup with {}\n/home/alice/Documents : +lookup, +stat\n"
                  f"{target} : +read, +stat, +path\n")
        booted = World().for_user("alice").with_jpeg_samples().boot()
        result = Sandbox(booted.kernel, policy, user="alice", cwd="/home/alice",
                         engine=_DenyReadEngine()).exec(["/bin/cat", target])
        assert result.status != 0
        [denial] = result.denials
        assert denial.target == target
        assert denial.detail == "missing +read (denied by deny-read)"

    def test_on_the_mac_path(self, kernel):
        kernel.policy_engine = _DenyReadEngine()
        sys = kernel.syscalls(kernel.spawn_process("alice", "/home/alice"))
        fd = sys.open(DOG, O_RDONLY)
        with pytest.raises(SysError, match="mac:engine:deny-read:vnode_check_read"):
            sys.read(fd, 100)
