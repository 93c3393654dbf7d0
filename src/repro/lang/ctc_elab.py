"""Elaboration of contract syntax into contract values.

Name resolution order for ``CtcName``:

1. polymorphic variables in scope (``forall X . ... X ...``);
2. bindings in the module environment whose value is a contract — this
   is how "users can define their own contracts by creating contract
   combinators and user-defined predicates written in SHILL itself"
   (section 2.4.2): a SHILL closure bound to a name becomes a flat
   predicate contract;
3. the standard contract library (``readonly``, ``is_file``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ShillRuntimeError
from repro.contracts.capctc import CapContract, SocketFactoryContract
from repro.contracts.core import AndContract, Contract, OrContract, PredicateContract
from repro.contracts.functionctc import FunctionContract
from repro.contracts.polyctc import ContractVar, PolyContract
from repro.contracts.library import EXPORTS as LIBRARY
from repro.contracts.walletctc import WalletContract
from repro.lang import ast_ as A
from repro.lang.interp import apply
from repro.lang.values import BuiltinFunction, Closure
from repro.sandbox.privileges import (
    ALL_PRIVS,
    PrivSet,
    SocketPerms,
    priv_from_name,
    sock_priv_from_name,
)

if TYPE_CHECKING:
    from repro.lang.env import Env


def elaborate(
    ctc: A.Ctc,
    env: "Env",
    poly_vars: frozenset[str] = frozenset(),
) -> Contract:
    if isinstance(ctc, A.CtcName):
        return _resolve_name(ctc.name, env, poly_vars)
    if isinstance(ctc, A.CtcCap):
        return _elaborate_cap(ctc)
    if isinstance(ctc, A.CtcOr):
        return OrContract(*[elaborate(p, env, poly_vars) for p in ctc.parts])
    if isinstance(ctc, A.CtcAnd):
        return AndContract(*[elaborate(p, env, poly_vars) for p in ctc.parts])
    if isinstance(ctc, A.CtcFun):
        params = [(name, elaborate(c, env, poly_vars)) for name, c in ctc.params]
        result = elaborate(ctc.result, env, poly_vars)
        return FunctionContract(params, result)
    if isinstance(ctc, A.CtcForall):
        bound = PrivSet.of(*[priv_from_name(p) for p in ctc.bound])
        inner_vars = poly_vars | {ctc.var}
        body = elaborate(ctc.body, env, inner_vars)
        assert isinstance(body, FunctionContract)
        return PolyContract(ctc.var, bound, body)
    raise ShillRuntimeError(f"unknown contract form {ctc!r}")


def _resolve_name(name: str, env: "Env", poly_vars: frozenset[str]) -> Contract:
    if name in poly_vars:
        return ContractVar(name)
    if env is not None and env.bound(name):
        value = env.lookup(name)
        if isinstance(value, Contract):
            return value
        if isinstance(value, Closure):
            # A user-defined predicate written in SHILL.
            return PredicateContract(
                lambda v, _c=value: apply(_c, [v]) is True, name
            )
        if isinstance(value, BuiltinFunction):
            # A builtin predicate shadows nothing: prefer the library's
            # contract of the same name (is_file the contract vs is_file
            # the builtin), falling back to predicate wrapping.
            if name in LIBRARY:
                return LIBRARY[name]
            return PredicateContract(
                lambda v, _b=value: apply(_b, [v]) is True, name
            )
        raise ShillRuntimeError(f"{name!r} is bound but is not a contract")
    if name.endswith("_wallet") and name not in LIBRARY:
        # Wallet kinds are open-ended: `ocaml_wallet` checks kind "ocaml".
        return WalletContract(kind=name[: -len("_wallet")])
    if name in LIBRARY:
        return LIBRARY[name]
    raise ShillRuntimeError(f"unknown contract {name!r}")


def _elaborate_cap(ctc: A.CtcCap) -> Contract:
    if ctc.kind == "socket_factory":
        if not ctc.items:
            return SocketFactoryContract()
        perms = SocketPerms({sock_priv_from_name(item.priv) for item in ctc.items})
        return SocketFactoryContract(perms)
    privs = privset_from_items(ctc.items)
    kind = "file" if ctc.kind == "pipe" else ctc.kind
    return CapContract(kind, privs)


def privset_from_items(items: tuple[A.CtcPrivItem, ...]) -> PrivSet:
    """The PrivSet a cap contract's items name (what lint reads it as granting, too)."""
    mapping: dict = {}
    for item in items:
        priv = priv_from_name(item.priv)
        if item.modifier_full:
            # "with full privileges": derived capabilities may carry every
            # privilege (bounded, as always, by what the supplied
            # capability can actually derive).
            mapping[priv] = frozenset(ALL_PRIVS)
        elif item.modifier is not None:
            mapping[priv] = frozenset(priv_from_name(m) for m in item.modifier)
        else:
            mapping[priv] = None
    return PrivSet(mapping)
