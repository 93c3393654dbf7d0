"""Frozen run results: everything a caller may observe about a run.

A :class:`RunResult` is the API's only answer object.  Callers never
reach into ``runtime.tty``, ``runtime.profile`` or ``runtime.last_session``
— the session snapshots those internals into an immutable record the
moment a run finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Mapping

from repro.sandbox.audit import AuditEntry

#: The per-phase keys every ``RunResult.profile`` mapping carries
#: (Figure 10's breakdown: startup / sandbox setup / sandboxed
#: execution / remaining, plus the total they decompose).
PROFILE_KEYS = ("startup", "sandbox_setup", "sandbox_exec", "total", "remaining")

#: The deterministic kernel operation counters every ``RunResult.ops``
#: mapping carries (deltas of :meth:`repro.kernel.kernel.KernelStats
#: .snapshot` over the run).  Unlike ``profile``, these are exact and
#: reproducible — the benchmark shape assertions and the batch runner's
#: determinism checks gate on them.
OPS_KEYS = ("total_syscalls", "vnode_ops", "mac_checks", "mac_denials",
            "sandboxes_created", "execs")


def freeze_ops(raw: Mapping[str, int]) -> Mapping[str, int]:
    """Package a kernel-stats delta into the public immutable mapping."""
    return MappingProxyType({key: int(raw.get(key, 0)) for key in OPS_KEYS})


def freeze_profile(raw: Mapping[str, float]) -> Mapping[str, float]:
    """Package a runtime's accumulator dict into the public breakdown.

    ``total`` covers script execution only; ``startup`` (interpreter
    construction) is reported alongside it, so ``remaining`` — time in
    SHILL script code and contract checking — is what's left of
    ``total`` after sandbox setup and sandboxed execution.
    """
    startup = float(raw.get("startup", 0.0))
    setup = float(raw.get("sandbox_setup", 0.0))
    sexec = float(raw.get("sandbox_exec", 0.0))
    total = float(raw.get("total", 0.0))
    remaining = max(total - setup - sexec, 0.0)
    return MappingProxyType({
        "startup": startup,
        "sandbox_setup": setup,
        "sandbox_exec": sexec,
        "total": total,
        "remaining": remaining,
    })


def _stable_repr(value: Any) -> str:
    """A repr for fingerprinting: exact for plain data, type-only for
    opaque objects (default reprs embed memory addresses, which would
    make identical runs fingerprint differently)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        inner = ",".join(_stable_repr(v) for v in value)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: _stable_repr(kv[0]))
        inner = ",".join(f"{_stable_repr(k)}:{_stable_repr(v)}" for k, v in items)
        return f"dict({inner})"
    return f"<opaque:{type(value).__qualname__}>"


@dataclass(frozen=True)
class RunResult:
    """The outcome of one run (an ambient script, or a sandboxed command).

    * ``stdout`` / ``stderr`` — what the run wrote to the ambient stdout
      and stderr devices (or the sandbox's wired pipes);
    * ``status`` — exit status (0 for ambient scripts that completed);
    * ``profile`` — the per-phase timing breakdown (:data:`PROFILE_KEYS`);
    * ``ops`` — deterministic kernel operation counts (:data:`OPS_KEYS`);
    * ``sandbox_count`` — capability-based sandboxes created by the run;
    * ``denials`` — audit entries for operations the MAC policy refused;
    * ``auto_granted`` — privileges granted on demand (debug mode only);
    * ``value`` — the run's language-level result, when there is one;
    * ``traceback`` — for failed batch jobs, the full host traceback of
      the error that failed the run (diagnostic only: its frames name
      whichever executor ran the job, so it is excluded from
      :meth:`fingerprint` the same way wall-clock timings are);
    * ``footprint`` — the statically inferred capability footprint
      (:class:`repro.analysis.Footprint`), attached when the batch ran
      with ``lint="warn"``/``"strict"``; ``None`` otherwise.  Advisory
      metadata, not an observable of the run: excluded from
      :meth:`fingerprint` and never stored in the result cache.
    * ``touched`` — the recorded dynamic footprint: sorted, deduplicated
      ``(kind, path)`` pairs (kind is ``"read"``/``"write"``/``"execute"``)
      for every final-op MAC check the run passed.  Like ``footprint``
      it is diagnostic metadata, not an observable: excluded from
      :meth:`fingerprint` and stripped before a result enters the cache.
      The dependency analyzer (:mod:`repro.analysis.deps`) gates the
      static footprint against it — ``static ⊇ touched`` — before a
      cached result may survive a world mutation.

    Example::

        from repro.api import World

        world = World().for_user("alice").with_jpeg_samples()
        result = world.session().run_ambient(
            '#lang shill/ambient\\n'
            'docs = open_dir("~/Documents");\\n'
            'append(stdout, path(docs) + "\\\\n");\\n')
        assert result.ok and result.stdout.endswith("Documents\\n")
        assert result.ops["vnode_ops"] > 0
        assert isinstance(result.fingerprint(), bytes)
    """

    stdout: str = ""
    stderr: str = ""
    status: int = 0
    profile: Mapping[str, float] = field(default_factory=lambda: freeze_profile({}))
    ops: Mapping[str, int] = field(default_factory=lambda: freeze_ops({}))
    sandbox_count: int = 0
    denials: tuple[AuditEntry, ...] = ()
    auto_granted: tuple[str, ...] = ()
    value: Any = None
    traceback: str = ""
    footprint: Any = None
    touched: tuple = ()

    def __reduce__(self):
        """Results cross process boundaries (the batch engine's process
        executor ships them home), and the frozen ``profile``/``ops``
        mapping proxies do not pickle — reduce to plain data and re-freeze
        on load.  Fields are enumerated via :func:`dataclasses.fields`
        so a future field cannot be silently dropped in transit (which
        would break fingerprint identity on the process executor only)."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["profile"] = dict(state["profile"])
        state["ops"] = dict(state["ops"])
        return (_rebuild, (state,))

    @property
    def ok(self) -> bool:
        return self.status == 0

    @property
    def denied(self) -> bool:
        return bool(self.denials)

    def denial_lines(self) -> tuple[str, ...]:
        return tuple(entry.format() for entry in self.denials)

    def fingerprint(self) -> bytes:
        """Every deterministic observable of the run, as one digest.

        Two runs of the same job against identical worlds must produce
        identical fingerprints — this is what the batch runner's
        "parallel equals sequential" guarantee is stated (and tested)
        in.  Wall-clock ``profile`` timings are deliberately excluded;
        the exact ``ops`` counters stand in for "did the same work".
        Fields are length-prefixed before hashing, so no output content
        can make two different results collide by mimicking a separator.
        ``value`` participates only as far as it is plain data — opaque
        objects (whose default reprs embed memory addresses) hash as
        their type name, never their repr.
        """
        import hashlib

        parts = (
            self.stdout,
            self.stderr,
            str(self.status),
            str(self.sandbox_count),
            ",".join(f"{key}={self.ops.get(key, 0)}" for key in OPS_KEYS),
            "\n".join(self.denial_lines()),
            "\n".join(self.auto_granted),
            _stable_repr(self.value),
        )
        digest = hashlib.sha256()
        for part in parts:
            raw = part.encode()
            digest.update(len(raw).to_bytes(8, "big"))
            digest.update(raw)
        return digest.digest()


def _rebuild(state: dict) -> RunResult:
    """Unpickle helper for :meth:`RunResult.__reduce__`."""
    state = dict(state)
    state["profile"] = freeze_profile(state["profile"])
    state["ops"] = freeze_ops(state["ops"])
    return RunResult(**state)
