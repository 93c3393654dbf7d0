"""Module loading: ``#lang`` dispatch, compilation, require/provide linking.

Security properties enforced here (section 2.5 / 3.1.2):

* capability-safe scripts may require only other capability-safe scripts
  and the (capability-safe) standard library — "capability-safe scripts
  cannot import ambient scripts";
* every exported function crosses the module boundary wrapped in its
  ``provide`` contract, with blame assigned to (provider, importer);
* ambient scripts are parsed under the straight-line restriction.

A required capability-safe module is parsed and compiled once per
process (:func:`compile_module`), whichever runtime loads it first; every
run still executes the module's top-level definitions in an environment
of its own.  Ambient scripts are parsed and compiled on every run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CapabilitySafetyError, ShillRuntimeError
from repro.contracts.blame import Blame
from repro.lang import ast_ as A
from repro.lang.ctc_elab import elaborate
from repro.lang.env import Env
from repro.lang.interp import Code, compile_stmts
from repro.lang.parser import check_ambient_restrictions, parse_source
from repro.lang.values import BuiltinFunction

if TYPE_CHECKING:
    from repro.lang.runner import ShillRuntime

CAP_LANG = "shill/cap"
AMBIENT_LANG = "shill/ambient"


def read_lang(source: str, default: str = CAP_LANG) -> tuple[str, str]:
    """Split off the ``#lang`` directive; returns (lang, remaining source)."""
    lines = source.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#lang"):
            lang = stripped[len("#lang"):].strip()
            rest = "".join(lines[:i]) + "\n" + "".join(lines[i + 1 :])
            return lang, rest
        break
    return default, source


#: Compiled modules kept per process.  A compiled case-study module
#: takes 25-175 KB under ``tracemalloc``, so a full cache stays near 10 MB.
COMPILED_MODULES = 64


@functools.lru_cache(maxsize=COMPILED_MODULES)
def compile_module(source: str, name: str) -> tuple[A.Module, Code]:
    """Parse and compile the capability-safe module ``name``.

    The result is shared by every run in the process that loads the same
    source under the same name (the name is baked into spans and error
    messages; the source carries the ``#lang`` line).  It holds no
    environment, runtime or capability: only the module's syntax and the
    code of its body.
    """
    lang, body_source = read_lang(source)
    if lang not in (CAP_LANG, AMBIENT_LANG):
        raise ShillRuntimeError(f"unknown #lang {lang!r} in {name}")
    if lang == AMBIENT_LANG:
        raise CapabilitySafetyError(
            f"capability-safe scripts cannot import ambient scripts ({name})"
        )
    module_ast = parse_source(body_source, lang, name)
    return module_ast, compile_stmts(module_ast.body)


@dataclass
class LoadedModule:
    name: str
    lang: str
    env: Env
    provides: dict[str, A.Ctc] = field(default_factory=dict)


class ModuleLoader:
    def __init__(self, runtime: "ShillRuntime") -> None:
        self.runtime = runtime
        self._cache: dict[str, LoadedModule] = {}
        self._loading: list[str] = []

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load(self, target: str) -> LoadedModule:
        if target in self._cache:
            return self._cache[target]
        if target in self._loading:
            cycle = " -> ".join(self._loading + [target])
            raise ShillRuntimeError(f"require cycle: {cycle}")
        source = self.runtime.scripts.get(target)
        if source is None:
            raise ShillRuntimeError(f"no such script: {target!r}")
        self._loading.append(target)
        try:
            module = self._eval_module(target, source)
        finally:
            self._loading.pop()
        self._cache[target] = module
        return module

    def _eval_module(self, name: str, source: str) -> LoadedModule:
        module_ast, body = compile_module(source, name)
        env = self.runtime.cap_env()
        self._process_requires(module_ast, env, importer_name=name)
        body(env)
        provides = {p.name: p.contract for p in module_ast.provides}
        for export in provides:
            if not env.bound(export):
                raise ShillRuntimeError(f"{name} provides {export!r} but never defines it")
        return LoadedModule(name=name, lang=module_ast.lang, env=env, provides=provides)

    # ------------------------------------------------------------------
    # linking
    # ------------------------------------------------------------------

    def _process_requires(self, module_ast: A.Module, env: Env, importer_name: str) -> None:
        for req in module_ast.requires:
            if not req.is_path:
                self._import_builtin(req.target, env, importer_name)
            else:
                loaded = self.load(req.target)
                self.import_exports(loaded, env, importer_name)

    def import_exports(self, module: LoadedModule, env: Env, importer_name: str) -> None:
        """Bind each provided name, wrapped in its contract with blame
        (provider=module, consumer=importer)."""
        for export_name, ctc_ast in module.provides.items():
            value = module.env.lookup(export_name)
            contract = elaborate(ctc_ast, module.env)
            blame = Blame(module.name, importer_name, export_name)
            env.define(export_name, contract.check(value, blame))

    def _import_builtin(self, target: str, env: Env, importer_name: str) -> None:
        exports = self.builtin_exports(target)
        if exports is None:
            raise ShillRuntimeError(f"unknown library {target!r} (required by {importer_name})")
        for name, value in exports.items():
            if callable(value) and not isinstance(value, BuiltinFunction):
                value = BuiltinFunction(name, value)
            if not env.bound(name):
                env.define(name, value)

    def builtin_exports(self, target: str) -> dict[str, Any] | None:
        from repro.contracts.library import EXPORTS as CONTRACTS_EXPORTS
        from repro.stdlib.filesys import EXPORTS as FILESYS_EXPORTS
        from repro.stdlib.io_ import EXPORTS as IO_EXPORTS
        from repro.stdlib.native import make_exports as native_exports

        if target == "shill/contracts":
            return dict(CONTRACTS_EXPORTS)
        if target == "shill/filesys":
            return dict(FILESYS_EXPORTS)
        if target == "shill/io":
            return dict(IO_EXPORTS)
        if target == "shill/native":
            return native_exports(self.runtime)
        return None

    # ------------------------------------------------------------------
    # ambient entry point
    # ------------------------------------------------------------------

    def run_ambient(self, source: str, name: str = "<ambient>") -> Env:
        lang, body_source = read_lang(source, default=AMBIENT_LANG)
        if lang != AMBIENT_LANG:
            raise ShillRuntimeError(f"run_ambient got a {lang} script")
        module_ast = parse_source(body_source, lang, name)
        check_ambient_restrictions(module_ast)
        env = self.runtime.ambient_env()
        self._process_requires(module_ast, env, importer_name=name)
        compile_stmts(module_ast.body)(env)
        return env
