"""The SHILL language: lexer, parser, compiler, modules, runtime."""

from repro.lang.env import Env
from repro.lang.interp import apply
from repro.lang.lexer import lex
from repro.lang.modules import AMBIENT_LANG, CAP_LANG, ModuleLoader, read_lang
from repro.lang.parser import parse_source
from repro.lang.runner import ShillRuntime, ambient_privs
from repro.lang.values import VOID, BuiltinFunction, Closure, SysErrorVal

__all__ = [
    "Env",
    "apply",
    "lex",
    "parse_source",
    "ModuleLoader",
    "read_lang",
    "CAP_LANG",
    "AMBIENT_LANG",
    "ShillRuntime",
    "ambient_privs",
    "VOID",
    "BuiltinFunction",
    "Closure",
    "SysErrorVal",
]
