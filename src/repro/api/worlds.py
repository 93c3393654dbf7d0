"""Worlds: a fluent builder over the deterministic world image.

``World()`` records configuration steps (users, workload fixtures,
extra files) and :meth:`World.boot` materialises them onto a freshly
booted kernel, in declaration order.  A booted world hands out
:class:`repro.api.Session` and :class:`repro.api.Sandbox` objects — the
only supported way to run SHILL code::

    world = World().for_user("alice").with_jpeg_samples().boot()
    result = world.session(scripts=my_registry).run_ambient(src)

Booting is cheap when repeated: every declarative configuration has a
**digest**, and :meth:`World.boot` keeps a module-level cache of booted
template kernels keyed on it.  A second boot of an identical
configuration *forks* the cached template (copy-on-write, see
:meth:`repro.kernel.kernel.Kernel.fork`) instead of rebuilding ~200
vnodes of world image.  :meth:`World.fork` exposes the same mechanism
directly, and :meth:`World.pool` hands out N forks for parallel work.
Worlds configured through the escape hatch (:meth:`World.with_setup`)
run arbitrary code and are exempt from caching — unless the step is
given a ``key``, which is folded into the digest as the caller's promise
that equal keys build equal worlds.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.api.caching import BoundedCache
from repro.api.registry import ScriptRegistry
from repro.api.sandboxes import Sandbox
from repro.api.sessions import Session
from repro.world import (
    add_emacs_mirror,
    add_grading_fixture,
    add_jpeg_samples,
    add_usr_src,
    add_vcs_repo,
    add_web_content,
    build_world,
)
from repro.world.image import WorldBuilder

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import SyscallInterface

#: ``--fixture`` spellings accepted by :meth:`World.with_fixture`.
FIXTURE_CHOICES = ("none", "jpeg", "grading", "usr-src", "web", "emacs", "vcs")

#: Booted template kernels keyed by config digest.  Templates are never
#: handed out directly — every boot and fork takes an isolated copy — so
#: a cached image stays pristine for the life of the process.  The cache
#: is LRU-bounded: each entry retains a whole template kernel, and a
#: process sweeping many distinct configurations must not accumulate
#: them forever (an evicted configuration just rebuilds on next boot).
_BOOT_CACHE: BoundedCache = BoundedCache(64)


def clear_boot_cache() -> None:
    """Drop all cached world templates (tests of boot cost use this)."""
    _BOOT_CACHE.clear()


def boot_cache_size() -> int:
    """Booted template kernels currently held by the module-level
    boot-image cache (one entry per distinct world config digest)."""
    return len(_BOOT_CACHE)


def boot_cache_contains(digest: str) -> bool:
    """Whether a template for ``digest`` is already cached in-process —
    executors use this to report a warm boot as "cached" rather than
    claiming build work that never happened."""
    return _BOOT_CACHE.get(digest) is not None


def as_kernel(world: "World | Kernel") -> "Kernel":
    """Normalise a ``World | Kernel`` argument (the case studies accept
    either) to a booted kernel."""
    if isinstance(world, World):
        kernel = world.boot().kernel
        assert kernel is not None
        return kernel
    return world


class World:
    """Builder + handle for one booted world image.

    Fluent ``with_*`` / ``for_user`` calls queue build steps; ``boot()``
    runs them once and is idempotent afterwards.  Fixture helpers record
    their return values (paths, counts, blobs) under ``world.fixtures``.

    Example::

        from repro.api import World

        world = World().for_user("alice").with_file("/tmp/data.txt", "hi")
        world.boot()
        assert world.read_file("/tmp/data.txt") == b"hi"
        fork = world.fork()
        fork.write_file("/tmp/data.txt", "changed")
        assert world.read_file("/tmp/data.txt") == b"hi"   # forks are isolated
    """

    def __init__(self, *, install_shill: bool = True) -> None:
        self._install_shill = install_shill
        # (fixtures key, build step, digest descriptor); a None descriptor
        # means "arbitrary code" and makes the whole world uncacheable.
        self._steps: list[tuple[str | None, Callable[["Kernel"], Any], str | None]] = []
        self._users: list[str] = []
        self._default_user = "root"
        self.kernel: "Kernel | None" = None
        self.fixtures: dict[str, Any] = {}
        self._digest: str | None = None
        self._boot_generation = -1
        self._boot_epoch = -1

        self._sys_cache: dict[tuple[str, str], "SyscallInterface"] = {}

    # -- configuration -----------------------------------------------------

    def without_shill(self) -> "World":
        """The Figure 9 "Baseline" machine: no SHILL kernel module."""
        self._check_unbooted()
        self._install_shill = False
        return self

    def for_user(self, user: str, *, create: bool = True) -> "World":
        """Default user for sessions, sandboxes, and owner-less content.

        Unknown users are created at boot (with a home) unless
        ``create=False``, in which case a later lookup fails with
        ``KeyError`` — the CLI uses this so a typo'd ``--user`` errors
        instead of silently running as a brand-new user."""
        self._check_unbooted()
        self._default_user = user
        if create and user != "root":
            self.with_users(user)
        return self

    def with_users(self, *names: str) -> "World":
        """Ensure the named users exist (with homes); no-op for users the
        base image already creates."""
        self._check_unbooted()
        for name in names:
            if name not in self._users:
                self._users.append(name)
        return self

    # -- workload fixtures -------------------------------------------------

    def with_jpeg_samples(self, owner: str | None = None) -> "World":
        """The quickstart's ~/Documents samples, owned by ``owner``
        (default: the world's default user)."""
        def step(kernel: "Kernel") -> Any:
            return add_jpeg_samples(kernel, owner=owner or self._default_user)

        return self._add_step("jpeg_samples", step, f"jpeg:{owner!r}")

    def with_grading_fixture(self, **kwargs: Any) -> "World":
        """Student submissions + test suite (see
        :func:`repro.world.add_grading_fixture` for knobs)."""
        return self._add_step("grading", lambda kernel: add_grading_fixture(kernel, **kwargs),
                              f"grading:{sorted(kwargs.items())!r}")

    def with_usr_src(self, **kwargs: Any) -> "World":
        """The scaled-down BSD source tree the Find workload greps."""
        return self._add_step("usr_src", lambda kernel: add_usr_src(kernel, **kwargs),
                              f"usr_src:{sorted(kwargs.items())!r}")

    def with_web_content(self, **kwargs: Any) -> "World":
        """Docroot content + access log for the Apache workload."""
        return self._add_step("web_content", lambda kernel: add_web_content(kernel, **kwargs),
                              f"web:{sorted(kwargs.items())!r}")

    def with_emacs_mirror(self, tarball: bytes | None = None) -> "World":
        """The simulated GNU mirror the Download workload fetches from."""
        blob = "default" if tarball is None else hashlib.sha256(tarball).hexdigest()
        return self._add_step("emacs_mirror", lambda kernel: add_emacs_mirror(kernel, tarball),
                              f"emacs:{blob}")

    def with_vcs_repo(self, **kwargs: Any) -> "World":
        """A git-like repository (worktree + ``.vcs`` metadata) plus an
        out-of-tree secret — the vcs case study's world (see
        :func:`repro.world.add_vcs_repo` for knobs)."""
        return self._add_step("vcs_repo", lambda kernel: add_vcs_repo(kernel, **kwargs),
                              f"vcs:{sorted(kwargs.items())!r}")

    def with_fixture(self, name: str, **kwargs: Any) -> "World":
        """String-keyed fixture selection (the CLI's ``--fixture``).
        ``"none"`` is explicitly a no-op."""
        self._check_unbooted()
        if name == "none":
            return self
        dispatch = {
            "jpeg": self.with_jpeg_samples,
            "grading": self.with_grading_fixture,
            "usr-src": self.with_usr_src,
            "web": self.with_web_content,
            "emacs": self.with_emacs_mirror,
            "vcs": self.with_vcs_repo,
        }
        if name not in dispatch:
            raise ValueError(f"unknown fixture {name!r}; choices: {', '.join(FIXTURE_CHOICES)}")
        return dispatch[name](**kwargs)

    # -- ad-hoc content ----------------------------------------------------

    def with_file(self, path: str, data: bytes | str, mode: int = 0o644,
                  owner: str | None = None) -> "World":
        if isinstance(data, str):
            data = data.encode()

        def step(kernel: "Kernel") -> Any:
            uid, gid = self._owner_ids(kernel, owner)
            return WorldBuilder(kernel).write_file(path, data, mode=mode, uid=uid, gid=gid)

        digest = hashlib.sha256(data).hexdigest()
        return self._add_step(None, step, f"file:{path}:{mode}:{owner!r}:{digest}")

    def with_dir(self, path: str, mode: int = 0o755, owner: str | None = None) -> "World":
        def step(kernel: "Kernel") -> Any:
            uid, gid = self._owner_ids(kernel, owner)
            return WorldBuilder(kernel).ensure_dir(path, mode=mode, uid=uid, gid=gid)

        return self._add_step(None, step, f"dir:{path}:{mode}:{owner!r}")

    def with_symlink(self, target: str, link: str) -> "World":
        def step(kernel: "Kernel") -> None:
            kernel.syscalls(kernel.spawn_process("root", "/")).symlink(target, link)

        return self._add_step(None, step, f"symlink:{target}:{link}")

    def with_policy_rules(self, rules: Any, *, default: str = "defer",
                          name: str | None = None) -> "World":
        """Install a declarative :class:`repro.policy.RuleEngine` as the
        booted kernel's policy engine.

        ``rules`` is a rule list / policy spec dict (see
        :mod:`repro.policy.rules`), JSON text, or an already-built
        :class:`~repro.policy.RuleEngine`.  Because rule engines are pure
        data with a stable digest, the configuration stays digestible —
        the world keeps its boot cache, result cache, and snapshot-store
        eligibility, and two worlds differing only in rules get
        *different* digests (which is what keeps per-tenant result
        caches from crossing policy boundaries).
        """
        from repro.policy.rules import RuleEngine

        if isinstance(rules, RuleEngine):
            engine = rules
        elif isinstance(rules, str):
            engine = RuleEngine.from_json(rules)
        elif isinstance(rules, dict):
            engine = RuleEngine.from_spec(rules)
        else:
            engine = RuleEngine(rules, default=default, name=name)

        def step(kernel: "Kernel") -> None:
            kernel.policy_engine = engine

        return self._add_step(None, step, f"policy-rules:{engine.digest()}")

    def with_policy_engine(self, engine: Any, *, key: str | None = None) -> "World":
        """Install an arbitrary :class:`repro.policy.PolicyEngine` as the
        booted kernel's policy engine.

        Like :meth:`with_setup`, arbitrary code has no digest: unless the
        engine reports one (``engine.digest()``) or you supply ``key``
        (the same equal-keys-mean-equal-worlds promise), the world
        becomes uncacheable — which is exactly right for a stateful
        test double like :class:`~repro.policy.FakePolicyEngine`.
        """

        def step(kernel: "Kernel") -> None:
            kernel.policy_engine = engine

        stamp = key or engine.digest()
        descriptor = None if stamp is None else f"policy-engine:{stamp}"
        return self._add_step(None, step, descriptor)

    def with_setup(self, fn: Callable[["Kernel"], Any], key: str | None = None) -> "World":
        """Escape hatch: run ``fn(kernel)`` during boot.

        Arbitrary code has no digest, so keyless setup worlds are never
        cached.  Supplying ``key`` does two things: ``fn``'s return value
        lands under ``world.fixtures[key]``, and the key is **folded into
        the world digest**, restoring boot-cache / result-cache /
        snapshot-store eligibility.  The key is thereby a promise —
        *equal keys build equal worlds* — exactly like a cache key; two
        different setup functions under one key would wrongly share
        cached images and results.  Fixture values should be plain data:
        a value that refuses deep-copy keeps the boot private (uncached),
        and one that refuses pickling is simply absent from
        snapshot-store links.
        """
        return self._add_step(key, fn, None if key is None else f"setup:{key}")

    # -- boot --------------------------------------------------------------

    def boot(self) -> "World":
        """Materialise the configuration onto a kernel, once.

        Cacheable configurations (every step carries a digest descriptor)
        go through the module-level boot-image cache: the first boot
        builds a template and every boot — including the first — receives
        an isolated copy-on-write fork of it, so no caller can pollute
        the cached image.  Undigestible configurations build a private
        kernel the old way.
        """
        if self.kernel is not None:
            return self
        digest = self.digest
        if digest is None:
            self.kernel = self._build()
        else:
            cached = _BOOT_CACHE.get(digest)
            built = None
            if cached is None:
                built = self._build()
                try:
                    fixtures_copy = copy.deepcopy(self.fixtures)
                except Exception:
                    # A keyed with_setup step may record a fixture value
                    # that refuses deep-copy (a lock, an open handle).
                    # Such a value cannot be shared safely through the
                    # template cache — keep this build private instead
                    # of crashing (the digest, and with it the result
                    # cache, still holds).
                    self.kernel = built
                    self._digest = digest
                    self._boot_generation = built.vfs.generation
                    self._boot_epoch = built.state_epoch
                    return self
                cached = _BOOT_CACHE.put(digest, (built, fixtures_copy))
            template, fixtures = cached
            # Fixture values are plain data (paths, counts, blobs) but
            # may be mutable containers — deep-copy so no caller can
            # pollute the cached template's record.  When our own build
            # just won the insert, self.fixtures is already a private
            # copy distinct from the cached one.
            if template is not built:
                self.fixtures = copy.deepcopy(fixtures)
            self.kernel = template.fork()
        self._digest = digest
        self._boot_generation = self.kernel.vfs.generation
        self._boot_epoch = self.kernel.state_epoch
        return self

    def _build(self) -> "Kernel":
        kernel = build_world(install_shill=self._install_shill)
        for name in self._users:
            self._ensure_user(kernel, name)
        for key, step, _descriptor in self._steps:
            value = step(kernel)
            if key is not None:
                self.fixtures[key] = value
        return kernel

    @property
    def booted(self) -> bool:
        return self.kernel is not None

    @property
    def digest(self) -> str | None:
        """A stable hash of the declarative configuration, or ``None``
        when a key-less :meth:`with_setup` step makes it undigestible.  Equal
        digests mean "boots to an identical world" — the key for both
        the boot-image cache and the batch runner's result cache.
        Configuration freezes at boot, so the value is computed once
        then (recomputed on demand only while still configurable)."""
        if self.kernel is not None:
            return self._digest
        descriptors = [d for _key, _step, d in self._steps]
        if any(d is None for d in descriptors):
            return None
        payload = repr((self._install_shill, self._default_user,
                        tuple(self._users), tuple(descriptors)))
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def pristine(self) -> bool:
        """True while the booted world is byte-identical to what its
        digest describes — no filesystem mutation (``vfs.generation``)
        and no kernel configuration change (``state_epoch``: users,
        sysctl, kenv, IPC, network services, MAC policy set, device
        interposition) since boot.  The precondition for serving cached
        :class:`RunResult`s."""
        return (self.kernel is not None and self.digest is not None
                and self.kernel.vfs.generation == self._boot_generation
                and self.kernel.state_epoch == self._boot_epoch)

    @property
    def default_user(self) -> str:
        return self._default_user

    # -- forking -----------------------------------------------------------

    def fork(self) -> "World":
        """An isolated, booted copy of this world in O(changed-state).

        The clone sees everything this world's kernel holds right now —
        including post-boot mutations — but writes on either side never
        cross over (file buffers are copy-on-write).  Cheap enough to
        take one per job: the batch runner does exactly that.
        """
        self.boot()
        assert self.kernel is not None
        child = World(install_shill=self._install_shill)
        child._users = list(self._users)
        child._default_user = self._default_user
        child._steps = list(self._steps)
        child.kernel = self.kernel.fork()
        child.fixtures = copy.deepcopy(self.fixtures)
        child._digest = self._digest
        # generation and epoch carry over in the kernel fork, so the
        # child's pristine flag tracks the parent's state at fork time.
        child._boot_generation = self._boot_generation
        child._boot_epoch = self._boot_epoch
        return child

    def adopt_template(self, kernel: "Kernel", fixtures: "dict | None" = None) -> "World":
        """Install an externally materialised template — a machine
        restored from a :class:`repro.kernel.store.SnapshotStore` — as
        this configuration's boot image.

        The kernel enters the module boot cache under the world digest
        and this world receives a copy-on-write fork, exactly as if
        :meth:`boot` had built it; the build steps never run (that is
        the point: a store hit performs zero world-build kernel ops).
        Only digestible, unbooted worlds can adopt — the digest is the
        claim that ``kernel`` is what the steps would have built.
        """
        self._check_unbooted()
        digest = self.digest
        if digest is None:
            raise ValueError("only digestible worlds can adopt a template "
                             "(the digest is what names the snapshot)")
        cached = _BOOT_CACHE.put(digest, (kernel, copy.deepcopy(dict(fixtures or {}))))
        template, cached_fixtures = cached
        self.fixtures = copy.deepcopy(cached_fixtures)
        self.kernel = template.fork()
        self._digest = digest
        self._boot_generation = self.kernel.vfs.generation
        self._boot_epoch = self.kernel.state_epoch
        return self

    def pool(self, workers: int = 4) -> "WorldPool":
        """``workers`` independent forks of this world, for long-lived
        parallel sessions and the caller's own Python
        (:meth:`WorldPool.map`).  SHILL jobs go through
        :class:`repro.api.Batch`, which forks per job on any executor."""
        return WorldPool(self, workers)

    # -- handles over the booted world -------------------------------------

    def session(
        self,
        user: str | None = None,
        cwd: str | None = None,
        scripts: "Mapping[str, str] | ScriptRegistry | None" = None,
        engine: Any = None,
    ) -> Session:
        self.boot()
        return Session(self.kernel, user=user or self._default_user,
                       cwd=cwd, scripts=scripts, engine=engine)

    def sandbox(self, policy: str, *, user: str | None = None,
                debug: bool = False, cwd: str = "/",
                engine: Any = None) -> Sandbox:
        self.boot()
        assert self.kernel is not None
        return Sandbox(self.kernel, policy, user=user or self._default_user,
                       debug=debug, cwd=cwd, engine=engine)

    def syscalls(self, user: str | None = None, cwd: str | None = None) -> "SyscallInterface":
        """An ambient (unsandboxed) syscall interface for inspecting or
        mutating the booted world — e.g. reading files a run produced.
        Defaults to the world's default user, like ``session()``.  One
        backing process per (user, cwd), reused across calls, so polling
        the world does not grow the kernel's process table."""
        self.boot()
        assert self.kernel is not None
        who = user or self._default_user
        key = (who, cwd or self.kernel.users.lookup(who).home)
        if key not in self._sys_cache:
            self._sys_cache[key] = self.kernel.syscalls(
                self.kernel.spawn_process(key[0], key[1]))
        return self._sys_cache[key]

    def read_file(self, path: str) -> bytes:
        return self.syscalls().read_whole(path)

    def write_file(self, path: str, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode()
        self.syscalls().write_whole(path, data)

    def patch_file(self, path: str, data: bytes | str, mode: int = 0o644,
                   owner: str | None = None) -> None:
        """Mutate the booted world as an administrative patch — no process.

        :meth:`write_file` goes through a syscall interface, which spawns
        a backing process on first use; that advances the kernel's pid
        watermark, and watermark drift is an observable the dependency
        analyzer (:mod:`repro.analysis.deps`) must treat as invalidating
        *everything*.  ``patch_file`` writes through the world builder
        instead: the only state it moves is ``vfs.generation`` plus the
        touched vnodes, so the world delta against the boot template is
        exactly ``{path}`` — and cached results whose footprints are
        disjoint from it survive (:func:`repro.analysis.may_depend`
        returns VALID)."""
        if isinstance(data, str):
            data = data.encode()
        self.boot()
        assert self.kernel is not None
        uid, gid = self._owner_ids(self.kernel, owner)
        WorldBuilder(self.kernel).write_file(path, data, mode=mode, uid=uid, gid=gid)

    # -- helpers -----------------------------------------------------------

    def _add_step(self, key: str | None, step: Callable[["Kernel"], Any],
                  descriptor: str | None) -> "World":
        self._check_unbooted()
        self._steps.append((key, step, descriptor))
        return self

    def _check_unbooted(self) -> None:
        if self.kernel is not None:
            raise RuntimeError("World is already booted; configure before boot()")

    def _owner_ids(self, kernel: "Kernel", owner: str | None) -> tuple[int, int]:
        cred = kernel.users.lookup(owner or self._default_user)
        return cred.uid, cred.gid

    @staticmethod
    def _ensure_user(kernel: "Kernel", name: str) -> None:
        try:
            kernel.users.lookup(name)
            return
        except KeyError:
            pass
        for uid in itertools.count(2001):
            try:
                cred = kernel.users.add_user(name, uid, uid)
                break
            except ValueError:
                continue
        WorldBuilder(kernel).ensure_dir(cred.home, mode=0o755,
                                        uid=cred.uid, gid=cred.gid)

    def __repr__(self) -> str:
        state = "booted" if self.booted else "unbooted"
        return f"<World {state} user={self._default_user!r} steps={len(self._steps)}>"


class WorldPool:
    """``workers`` forked worlds over one base image.

    Each worker world has its own kernel, so sessions on different
    workers can run in parallel without sharing any mutable state.  The
    forks are taken at construction, so later writes to the base world
    never reach them.  :meth:`map` is the convenience driver; index or
    iterate the pool to own the scheduling yourself.  The pool runs the
    caller's own Python in the caller's process; executors run SHILL
    scripts (:class:`repro.api.Batch`).
    """

    def __init__(self, base: World, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        base.boot()
        self.base = base
        self.worlds: list[World] = [base.fork() for _ in range(workers)]

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self) -> Iterator[World]:
        return iter(self.worlds)

    def __getitem__(self, index: int) -> World:
        return self.worlds[index]

    def map(self, fn: Callable[[World], Any]) -> list[Any]:
        """Run ``fn(world)`` once per worker on a thread pool against the
        pool's own worker worlds; results in worker order.  Writes made
        by one ``map`` call are visible to the next."""
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(self.worlds)) as pool:
            return list(pool.map(fn, self.worlds))

    def __repr__(self) -> str:
        return f"<WorldPool workers={len(self.worlds)} base={self.base!r}>"
