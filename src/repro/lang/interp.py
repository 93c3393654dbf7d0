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

The compiler knows which names each frame may bind: a function's
parameters, a ``for`` variable, and the definitions among a block's
statements.  A name that no enclosing function, block or ``for`` binds
can only live in the module's top frame (builtins, imports, top-level
definitions), so it compiles to one probe of that frame.  Every other
name walks the chain, because a block may read an outer binding before
its own definition of the name has run.

Call sites with up to three positional arguments pass them to a builtin,
or bind them in a closure's parameter frame, without building a list.

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
    params = fn.params
    if len(args) != len(params):
        raise ShillRuntimeError(
            f"{fn.display_name} expects {len(params)} argument(s), got {len(args)}"
        )
    frame = dict(zip(params, args))
    if len(frame) < len(params):
        # A repeated parameter name: ``define`` reports the duplicate.
        env = Env(fn.env)
        for name, value in zip(params, args):
            env.define(name, value)
    return fn.body(fn.env.child(frame))


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


def compile_stmts(stmts: Sequence[A.Stmt]) -> Code:
    """Code running the module body ``stmts`` in a top frame (one with no
    parent); its value is the last statement's (``void`` when there are
    none)."""
    return _stmts(stmts, frozenset())


#: The names the frames enclosing a node may bind (its top frame aside).
Local = frozenset


def _stmts(stmts: Sequence[A.Stmt], local: Local) -> Code:
    codes = tuple(_compile(stmt, local) for stmt in stmts)
    if len(codes) == 1:
        return codes[0]

    def seq(env: Env) -> Any:
        result: Any = VOID
        for code in codes:
            result = code(env)
        return result

    return seq


def _defined(stmts: Sequence[A.Stmt]) -> set[str]:
    """The names a frame running ``stmts`` binds: their definitions,
    including one an ``if`` branch holds, which runs in the same frame."""
    names: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, A.Def):
            names.add(stmt.name)
        elif isinstance(stmt, A.If):
            names |= _defined([stmt.then] if stmt.otherwise is None
                              else [stmt.then, stmt.otherwise])
    return names


def _compile(node: A.Node, local: Local) -> Code:
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        raise ShillRuntimeError(f"unknown expression {node!r}")
    return compiler(node, local)


def _lit(node: A.Lit, local: Local) -> Code:
    value = node.value
    return lambda env: value


def _var(node: A.Var, local: Local) -> Code:
    name = node.name
    if name in local:

        def var(env: Env) -> Any:
            value = env.lookup(name)
            if value is _PENDING:
                raise ShillRuntimeError(f"variable {name!r} used before its definition completed")
            return value

        return var

    def top_var(env: Env) -> Any:
        value = env._top.get(name, _PENDING)
        if value is _PENDING:
            if name in env._top:
                raise ShillRuntimeError(f"variable {name!r} used before its definition completed")
            raise ShillRuntimeError(f"unbound variable {name!r}")
        return value

    return top_var


def _list(node: A.ListLit, local: Local) -> Code:
    items = tuple(_compile(item, local) for item in node.items)
    return lambda env: [item(env) for item in items]


def _fun(node: A.Fun, local: Local) -> Code:
    name, params = node.name, node.params
    body = _block(node.body, local | set(params))
    return lambda env: Closure(name, params, body, env)


def _call(node: A.Call, local: Local) -> Code:
    callee = _compile(node.fn, local)
    arg_codes = tuple(_compile(arg, local) for arg in node.args)
    kw_codes = tuple((key, _compile(val, local)) for key, val in node.kwargs)
    if not kw_codes and len(arg_codes) < len(_CALL_SITES):
        return _CALL_SITES[len(arg_codes)](callee, *arg_codes)

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


# Call sites with 0-3 positional arguments and no keywords.  A builtin
# gets the values directly; a closure of that arity gets a parameter
# frame built in one dict.  Anything else (another arity, a repeated
# parameter name, a guarded or Python function) goes through ``apply``,
# which raises the errors or interposes the contract.


def _call0(callee: Code) -> Code:
    def call(env: Env) -> Any:
        fn = callee(env)
        if isinstance(fn, BuiltinFunction):
            return fn.fn()
        if isinstance(fn, Closure) and not fn.params:
            return fn.body(fn.env.child({}))
        return apply(fn, [])

    return call


def _call1(callee: Code, a: Code) -> Code:
    def call(env: Env) -> Any:
        fn = callee(env)
        x = a(env)
        if isinstance(fn, BuiltinFunction):
            return fn.fn(x)
        if isinstance(fn, Closure) and len(fn.params) == 1:
            return fn.body(fn.env.child({fn.params[0]: x}))
        return apply(fn, [x])

    return call


def _call2(callee: Code, a: Code, b: Code) -> Code:
    def call(env: Env) -> Any:
        fn = callee(env)
        x = a(env)
        y = b(env)
        if isinstance(fn, BuiltinFunction):
            return fn.fn(x, y)
        if isinstance(fn, Closure) and len(fn.params) == 2:
            p, q = fn.params
            if p != q:
                return fn.body(fn.env.child({p: x, q: y}))
        return apply(fn, [x, y])

    return call


def _call3(callee: Code, a: Code, b: Code, c: Code) -> Code:
    def call(env: Env) -> Any:
        fn = callee(env)
        x = a(env)
        y = b(env)
        z = c(env)
        if isinstance(fn, BuiltinFunction):
            return fn.fn(x, y, z)
        if isinstance(fn, Closure) and len(fn.params) == 3:
            p, q, r = fn.params
            if p != q and p != r and q != r:
                return fn.body(fn.env.child({p: x, q: y, r: z}))
        return apply(fn, [x, y, z])

    return call


_CALL_SITES = (_call0, _call1, _call2, _call3)


def _unary(node: A.UnOp, local: Local) -> Code:
    operand = _compile(node.operand, local)
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


def _binary(node: A.BinOp, local: Local) -> Code:
    left, right = _compile(node.left, local), _compile(node.right, local)
    if node.op == "&&":
        return lambda env: truthy(left(env)) and truthy(right(env))
    if node.op == "||":
        return lambda env: truthy(left(env)) or truthy(right(env))
    op = _OPERATORS.get(node.op)
    if op is None:
        raise ShillRuntimeError(f"unknown operator {node.op!r}")
    return lambda env: op(left(env), right(env))


def _if(node: A.If, local: Local) -> Code:
    cond, then = _compile(node.cond, local), _compile(node.then, local)
    otherwise = _stmts(() if node.otherwise is None else (node.otherwise,), local)

    def if_(env: Env) -> Any:
        test = cond(env)
        if test is True:
            return then(env)
        if test is False:
            return otherwise(env)
        return truthy(test)  # not a boolean: raises the language's error

    return if_


def _for(node: A.For, local: Local) -> Code:
    var, iterable = node.var, _compile(node.iterable, local)
    body = _stmts(node.body.stmts, local | {var} | _defined(node.body.stmts))

    def for_(env: Env) -> Any:
        items = iterable(env)
        if not isinstance(items, (list, tuple)):
            raise ShillRuntimeError(f"for expects a list, got {items!r}")
        for item in items:
            body(env.child({var: item}))
        return VOID

    return for_


def _block(node: A.Block, local: Local) -> Code:
    stmts = _stmts(node.stmts, local | _defined(node.stmts))
    return lambda env: stmts(Env(env))


def _def(node: A.Def, local: Local) -> Code:
    name, expr = node.name, _compile(node.expr, local)

    def define(env: Env) -> Any:
        env.define(name, _PENDING)
        value = expr(env)
        if isinstance(value, Closure) and not value.name:
            value.name = name
        env.complete_definition(name, value)
        return VOID

    return define


def _expr_stmt(node: A.ExprStmt, local: Local) -> Code:
    return _compile(node.expr, local)


_COMPILERS: dict[type, Callable[[Any, Local], Code]] = {
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
