"""The capability-safe evaluator: SHILL compiled to Python closures.

A small strict language with no mutable variables and no ambient
authority: every resource the script touches arrives as a capability
argument or is derived from one.

:func:`compile_stmts` turns a script's statements into Python closures
once ("compiling to closures", Feeley and Lapalme, 1987): every AST node
becomes a closure ``code(env)`` over its already compiled children, so a
run never dispatches on node types.  Names are still looked up in the
write-once :class:`~repro.lang.env.Env` frames when the code runs, so
scoping, the knot that ties recursive definitions and every error message
are those of the language; the compiled code holds no environment,
runtime or capability and can be shared by every run in the process.

Value application — closures, builtins, and contract-guarded functions —
funnels through :func:`apply`, which is where function contracts
interpose.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ShillRuntimeError
from repro.contracts.functionctc import GuardedFunction
from repro.lang import ast_ as A
from repro.lang.env import Env
from repro.lang.values import VOID, BuiltinFunction, Closure, truthy

#: Compiled code: called with an environment, returns the node's value.
Code = Callable[[Env], Any]

_PENDING = object()


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def apply(fn: Any, args: Sequence[Any], kwargs: Mapping[str, Any] | None = None) -> Any:
    """Apply a SHILL function value to evaluated arguments."""
    kwargs = kwargs or {}
    if isinstance(fn, Closure):
        return _enter(fn, args, kwargs)
    if isinstance(fn, BuiltinFunction):
        return fn.fn(*args, **kwargs)
    if isinstance(fn, GuardedFunction):
        return fn.invoke(apply, args, kwargs)
    if callable(fn):
        return fn(*args, **kwargs)
    raise ShillRuntimeError(f"not a function: {fn!r}")


def _enter(fn: Closure, args: Sequence[Any], kwargs: Mapping[str, Any] | None) -> Any:
    if kwargs:
        raise ShillRuntimeError(f"{fn.display_name} does not accept keyword arguments")
    if len(args) != len(fn.params):
        raise ShillRuntimeError(
            f"{fn.display_name} expects {len(fn.params)} argument(s), got {len(args)}"
        )
    env = Env(fn.env)
    for name, value in zip(fn.params, args):
        env.define(name, value)
    return fn.body(env)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


def compile_stmts(stmts: Sequence[A.Stmt]) -> Code:
    """Code running ``stmts`` in the environment it is given; its value is
    the last statement's (``void`` when there are none)."""
    codes = tuple(_compile(stmt) for stmt in stmts)
    if len(codes) == 1:
        return codes[0]

    def seq(env: Env) -> Any:
        result: Any = VOID
        for code in codes:
            result = code(env)
        return result

    return seq


def _compile(node: A.Node) -> Code:
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        raise ShillRuntimeError(f"unknown expression {node!r}")
    return compiler(node)


def _lit(node: A.Lit) -> Code:
    value = node.value
    return lambda env: value


def _var(node: A.Var) -> Code:
    name = node.name

    def var(env: Env) -> Any:
        value = env.lookup(name)
        if value is _PENDING:
            raise ShillRuntimeError(f"variable {name!r} used before its definition completed")
        return value

    return var


def _list(node: A.ListLit) -> Code:
    items = tuple(_compile(item) for item in node.items)
    return lambda env: [item(env) for item in items]


def _fun(node: A.Fun) -> Code:
    name, params, body = node.name, node.params, _block(node.body)
    return lambda env: Closure(name, params, body, env)


def _call(node: A.Call) -> Code:
    callee = _compile(node.fn)
    arg_codes = tuple(_compile(arg) for arg in node.args)
    kw_codes = tuple((key, _compile(val)) for key, val in node.kwargs)

    def call(env: Env) -> Any:
        fn = callee(env)
        args = [arg(env) for arg in arg_codes]
        if kw_codes:
            return apply(fn, args, {key: val(env) for key, val in kw_codes})
        if isinstance(fn, BuiltinFunction):
            return fn.fn(*args)
        if isinstance(fn, Closure):
            return _enter(fn, args, None)
        return apply(fn, args)

    return call


def _unary(node: A.UnOp) -> Code:
    operand = _compile(node.operand)
    if node.op == "!":
        return lambda env: not truthy(operand(env))
    if node.op != "-":
        raise ShillRuntimeError(f"unknown unary operator {node.op!r}")

    def negate(env: Env) -> Any:
        value = operand(env)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ShillRuntimeError(f"unary - on non-number {value!r}")
        return -value

    return negate


def _binary(node: A.BinOp) -> Code:
    left, right = _compile(node.left), _compile(node.right)
    if node.op == "&&":
        return lambda env: truthy(left(env)) and truthy(right(env))
    if node.op == "||":
        return lambda env: truthy(left(env)) or truthy(right(env))
    op = _OPERATORS.get(node.op)
    if op is None:
        raise ShillRuntimeError(f"unknown operator {node.op!r}")
    return lambda env: op(left(env), right(env))


def _if(node: A.If) -> Code:
    cond, then = _compile(node.cond), _compile(node.then)
    otherwise = compile_stmts(() if node.otherwise is None else (node.otherwise,))
    return lambda env: then(env) if truthy(cond(env)) else otherwise(env)


def _for(node: A.For) -> Code:
    var, iterable, body = node.var, _compile(node.iterable), compile_stmts(node.body.stmts)

    def for_(env: Env) -> Any:
        items = iterable(env)
        if not isinstance(items, (list, tuple)):
            raise ShillRuntimeError(f"for expects a list, got {items!r}")
        for item in items:
            body_env = Env(env)
            body_env.define(var, item)
            body(body_env)
        return VOID

    return for_


def _block(node: A.Block) -> Code:
    stmts = compile_stmts(node.stmts)
    return lambda env: stmts(Env(env))


def _def(node: A.Def) -> Code:
    name, expr = node.name, _compile(node.expr)

    def define(env: Env) -> Any:
        env.define(name, _PENDING)
        value = expr(env)
        if isinstance(value, Closure) and not value.name:
            value.name = name
        env.complete_definition(name, value)
        return VOID

    return define


def _expr_stmt(node: A.ExprStmt) -> Code:
    return _compile(node.expr)


_COMPILERS: dict[type, Callable[[Any], Code]] = {
    A.Lit: _lit,
    A.Var: _var,
    A.ListLit: _list,
    A.Fun: _fun,
    A.Call: _call,
    A.UnOp: _unary,
    A.BinOp: _binary,
    A.If: _if,
    A.For: _for,
    A.Block: _block,
    A.Def: _def,
    A.ExprStmt: _expr_stmt,
}


# ---------------------------------------------------------------------------
# binary operators on evaluated operands
# ---------------------------------------------------------------------------


def _require_num(value: Any, op: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ShillRuntimeError(f"operator {op!r} expects numbers, got {value!r}")


def _numeric(op: str, fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def checked(left: Any, right: Any) -> Any:
        _require_num(left, op)
        _require_num(right, op)
        return fn(left, right)

    return checked


def _add(left: Any, right: Any) -> Any:
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    _require_num(left, "+")
    _require_num(right, "+")
    return left + right


def _div(left: Any, right: Any) -> Any:
    if right == 0:
        raise ShillRuntimeError("division by zero")
    result = left / right
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return int(result)
    return result


def _mod(left: Any, right: Any) -> Any:
    if right == 0:
        raise ShillRuntimeError("modulo by zero")
    return left % right


_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "+": _add,
    "-": _numeric("-", operator.sub),
    "*": _numeric("*", operator.mul),
    "/": _numeric("/", _div),
    "%": _numeric("%", _mod),
    "<": _numeric("<", operator.lt),
    ">": _numeric(">", operator.gt),
    "<=": _numeric("<=", operator.le),
    ">=": _numeric(">=", operator.ge),
}
