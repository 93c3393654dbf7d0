"""Recursive-descent parser for SHILL scripts and their contracts.

Handles both dialects (the ``#lang`` line is stripped by the module
reader and passed in as ``lang``).  The ambient dialect's restrictions
("straight line code", no functions/conditionals/loops) are enforced
post-parse by :func:`check_ambient_restrictions` so the error messages
can be precise.
"""

from __future__ import annotations

from repro.errors import ShillSyntaxError
from repro.lang import ast_ as A
from repro.lang.lexer import lex
from repro.lang.tokens import T, Token

_CAP_KINDS = {"file", "dir", "cap", "pipe"}

#: How deeply expressions, prefix operators, blocks, conditionals and
#: contracts may nest, and how many levels an operand may reach.  A fixed
#: count rather than the Python stack, so a script that nests too deeply
#: is a syntax error of its own job on every executor.  The deepest form
#: allowed, 63 lists nested in a statement, parses and compiles in about
#: 710 Python frames, inside the default recursion limit of 1,000.
#: Binary operators and calls are built in loops, but each is one more
#: level of the tree every later pass recurses down, so each is charged
#: one level over the deepest its operands reached: a statement's chain
#: of 63 operators parses and one of 64 does not.
MAX_NESTING = 64

#: Binary operators, loosest level first: each level's token types, and
#: whether it chains (``a < b < c`` is a syntax error).  A BinOp's
#: ``op`` is its token's text.
_BINARY = (
    ({T.OR}, True),
    ({T.AND}, True),
    ({T.EQ, T.NE, T.LT, T.GT, T.LE, T.GE}, False),
    ({T.PLUS, T.MINUS}, True),
    ({T.STAR, T.SLASH, T.PERCENT}, True),
)


class Parser:
    def __init__(self, tokens: list[Token], filename: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0
        #: The deepest level the operand being parsed has reached: its
        #: nesting, plus the charges of its operators and calls.
        self.reached = 0

    # -- token plumbing -----------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, ttype: T, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.type is ttype and (value is None or tok.value == value)

    def at_keyword(self, word: str) -> bool:
        return self.at(T.IDENT, word)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not T.EOF:
            self.pos += 1
        return tok

    def expect(self, ttype: T, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.type is not ttype or (value is not None and tok.value != value):
            want = value or ttype.value
            raise self.error(f"expected {want!r}, found {tok.value!r}", tok)
        return self.advance()

    def error(self, msg: str, tok: Token | None = None) -> ShillSyntaxError:
        tok = tok or self.peek()
        return ShillSyntaxError(msg, tok.line, tok.col, self.filename)

    @staticmethod
    def span_of(tok: Token) -> A.Span:
        return A.Span(tok.line, tok.col)

    def _nest(self) -> None:
        """Enter one nesting level at the current (opening) token; the
        caller leaves it with ``self.depth -= 1`` once parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nested too deeply")
        if self.depth > self.reached:
            self.reached = self.depth

    def _charge(self, tok: Token | None = None) -> None:
        """Charge one level, at ``tok`` (else the current token), over
        the deepest the operand reached: a binary operator over its
        operands, a call over its callee."""
        self.reached += 1
        if self.reached > MAX_NESTING:
            raise self.error("nested too deeply", tok)

    # -- module -------------------------------------------------------------------

    def parse_module(self, lang: str) -> A.Module:
        start = self.span_of(self.peek())
        requires: list[A.Require] = []
        provides: list[A.Provide] = []
        body: list[A.Stmt] = []
        while not self.at(T.EOF):
            if self.at_keyword("require"):
                requires.append(self.parse_require())
            elif self.at_keyword("provide"):
                provides.append(self.parse_provide())
            else:
                body.append(self.parse_stmt())
        return A.Module(
            lang=lang,
            requires=tuple(requires),
            provides=tuple(provides),
            body=tuple(body),
            filename=self.filename,
            span=start,
        )

    def parse_require(self) -> A.Require:
        start = self.span_of(self.expect(T.IDENT, "require"))
        if self.at(T.STRING):
            target = self.advance().value
            self.expect(T.SEMI)
            return A.Require(target, is_path=True, span=start)
        parts = [self.expect(T.IDENT).value]
        while self.at(T.SLASH):
            self.advance()
            parts.append(self.expect(T.IDENT).value)
        self.expect(T.SEMI)
        return A.Require("/".join(parts), is_path=False, span=start)

    def parse_provide(self) -> A.Provide:
        start = self.span_of(self.expect(T.IDENT, "provide"))
        name = self.expect(T.IDENT).value
        self.expect(T.COLON)
        contract = self.parse_contract()
        self.expect(T.SEMI)
        return A.Provide(name, contract, span=start)

    # -- statements ------------------------------------------------------------------

    def parse_stmt(self) -> A.Stmt:
        if self.at_keyword("if"):
            return self.parse_if()
        if self.at_keyword("for"):
            return self.parse_for()
        if self.at(T.LBRACE):
            return self.parse_block()
        # definition: IDENT '=' ... (but not '==')
        if self.at(T.IDENT) and not self.peek().is_keyword and self.peek(1).type is T.ASSIGN:
            start = self.span_of(self.peek())
            name = self.advance().value
            self.advance()  # '='
            expr = self.parse_expr()
            self._end_stmt(expr)
            return A.Def(name, expr, span=start)
        expr = self.parse_expr()
        self._end_stmt(expr)
        return A.ExprStmt(expr, span=expr.span)

    def _end_stmt(self, expr: A.Expr) -> None:
        """Statements end with ';' — optional after a brace-closed form
        (function literals), matching the paper's listings."""
        if self.at(T.SEMI):
            self.advance()
        elif not isinstance(expr, A.Fun):
            self.expect(T.SEMI)

    def parse_if(self) -> A.If:
        self._nest()
        start = self.span_of(self.peek())
        self.expect(T.IDENT, "if")
        cond = self.parse_expr()
        self.expect(T.IDENT, "then")
        then = self._parse_branch()
        otherwise = None
        if self.at_keyword("else"):
            self.advance()
            otherwise = self._parse_branch()
        self.depth -= 1
        return A.If(cond, then, otherwise, span=start)

    def _parse_branch(self) -> A.Stmt:
        """An if/else branch: a nested if/for/block, or a bare expression.
        A trailing ';' is consumed when present, but is not required before
        'else' (``if n <= 1 then 1 else n * fact(n - 1);``)."""
        if self.at_keyword("if"):
            return self.parse_if()
        if self.at_keyword("for"):
            return self.parse_for()
        if self.at(T.LBRACE):
            return self.parse_block()
        expr = self.parse_expr()
        if self.at(T.SEMI):
            self.advance()
        return A.ExprStmt(expr, span=expr.span)

    def parse_for(self) -> A.For:
        start = self.span_of(self.peek())
        self.expect(T.IDENT, "for")
        var = self.expect(T.IDENT).value
        self.expect(T.IDENT, "in")
        iterable = self.parse_expr()
        body = self.parse_block()
        return A.For(var, iterable, body, span=start)

    def parse_block(self) -> A.Block:
        self._nest()
        start = self.span_of(self.expect(T.LBRACE))
        stmts: list[A.Stmt] = []
        while not self.at(T.RBRACE):
            if self.at(T.EOF):
                raise self.error("unterminated block")
            stmts.append(self.parse_stmt())
        self.expect(T.RBRACE)
        self.depth -= 1
        return A.Block(tuple(stmts), span=start)

    # -- expressions -------------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        """One expression: one nesting level, whose reach is measured
        afresh and then joins the enclosing operand's."""
        outer = self.reached
        self._nest()
        self.reached = self.depth
        expr = self._parse_binary(0)
        self.depth -= 1
        if outer > self.reached:
            self.reached = outer
        return expr

    def _parse_binary(self, level: int) -> A.Expr:
        """The binary operators of ``_BINARY[level:]``, then a unary."""
        if level == len(_BINARY):
            return self.parse_unary()
        ops, chains = _BINARY[level]
        left = self._parse_binary(level + 1)
        while self.peek().type in ops:
            tok = self.advance()
            reached = self.reached
            self.reached = self.depth
            right = self._parse_binary(level + 1)
            if reached > self.reached:
                self.reached = reached
            self._charge(tok)
            left = A.BinOp(tok.value, left, right, span=left.span)
            if not chains:
                break
        return left

    def parse_unary(self) -> A.Expr:
        """A prefix operator is one nesting level."""
        if self.at(T.NOT) or self.at(T.MINUS):
            self._nest()
            tok = self.advance()
            operand = self.parse_unary()
            self.depth -= 1
            return A.UnOp("!" if tok.type is T.NOT else "-", operand,
                          span=self.span_of(tok))
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while self.at(T.LPAREN):
            self._charge()
            args, kwargs = self.parse_call_args()
            expr = A.Call(expr, tuple(args), tuple(kwargs), span=expr.span)
        return expr

    def parse_call_args(self) -> tuple[list[A.Expr], list[tuple[str, A.Expr]]]:
        self.expect(T.LPAREN)
        args: list[A.Expr] = []
        kwargs: list[tuple[str, A.Expr]] = []
        while not self.at(T.RPAREN):
            # keyword argument: IDENT '=' expr
            if self.at(T.IDENT) and not self.peek().is_keyword and self.peek(1).type is T.ASSIGN:
                key = self.advance().value
                self.advance()
                kwargs.append((key, self.parse_expr()))
            else:
                if kwargs:
                    raise self.error("positional argument after keyword argument")
                args.append(self.parse_expr())
            if not self.at(T.RPAREN):
                self.expect(T.COMMA)
        self.expect(T.RPAREN)
        return args, kwargs

    def parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.type is T.NUMBER:
            self.advance()
            try:
                value: object = float(tok.value) if "." in tok.value else int(tok.value)
            except ValueError:
                raise self.error(f"malformed number literal {tok.value!r}", tok) from None
            return A.Lit(value, span=self.span_of(tok))
        if tok.type is T.STRING:
            self.advance()
            return A.Lit(tok.value, span=self.span_of(tok))
        if self.at_keyword("true"):
            self.advance()
            return A.Lit(True, span=self.span_of(tok))
        if self.at_keyword("false"):
            self.advance()
            return A.Lit(False, span=self.span_of(tok))
        if self.at_keyword("fun"):
            return self.parse_fun()
        if tok.type is T.IDENT:
            if tok.is_keyword:
                raise self.error(f"unexpected keyword {tok.value!r}")
            self.advance()
            return A.Var(tok.value, span=self.span_of(tok))
        if tok.type is T.LBRACKET:
            return self.parse_list()
        if tok.type is T.LBRACE:
            # A block expression: its value is the last statement's value.
            return self.parse_block()
        if tok.type is T.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(T.RPAREN)
            return expr
        raise self.error(f"unexpected token {tok.value!r}")

    def parse_fun(self) -> A.Fun:
        start = self.span_of(self.peek())
        self.expect(T.IDENT, "fun")
        self.expect(T.LPAREN)
        params: list[str] = []
        while not self.at(T.RPAREN):
            params.append(self.expect(T.IDENT).value)
            if not self.at(T.RPAREN):
                self.expect(T.COMMA)
        self.expect(T.RPAREN)
        body = self.parse_block()
        return A.Fun(tuple(params), body, span=start)

    def parse_list(self) -> A.ListLit:
        start = self.span_of(self.peek())
        self.expect(T.LBRACKET)
        items: list[A.Expr] = []
        while not self.at(T.RBRACKET):
            items.append(self.parse_expr())
            if not self.at(T.RBRACKET):
                self.expect(T.COMMA)
        self.expect(T.RBRACKET)
        return A.ListLit(tuple(items), span=start)

    # -- contracts ------------------------------------------------------------------------

    def parse_contract(self) -> A.Ctc:
        if self.at_keyword("forall"):
            return self.parse_forall()
        return self.parse_ctc_arrow()

    def parse_forall(self) -> A.CtcForall:
        start = self.span_of(self.peek())
        self.expect(T.IDENT, "forall")
        var = self.expect(T.IDENT).value
        self.expect(T.IDENT, "with")
        self.expect(T.LBRACE)
        bound: list[str] = []
        while not self.at(T.RBRACE):
            bound.append(self.expect(T.PRIV).value)
            if not self.at(T.RBRACE):
                self.expect(T.COMMA)
        self.expect(T.RBRACE)
        self.expect(T.DOT)
        body = self.parse_ctc_arrow()
        if not isinstance(body, A.CtcFun):
            raise self.error("forall body must be a function contract")
        return A.CtcForall(var, tuple(bound), body, span=start)

    def parse_ctc_arrow(self) -> A.Ctc:
        """Either a named-parameter function contract, or ``C [-> R]``.
        Every contract (and the result of an arrow) is one nesting level."""
        self._nest()
        if self.at(T.LBRACE):
            ctc: A.Ctc = self.parse_ctc_fun_named()
        else:
            ctc = self.parse_ctc_or()
            if self.at(T.ARROW):
                self.advance()
                result = self.parse_ctc_arrow()
                ctc = A.CtcFun((("arg", ctc),), result, span=ctc.span)
        self.depth -= 1
        return ctc

    def parse_ctc_fun_named(self) -> A.CtcFun:
        start = self.span_of(self.expect(T.LBRACE))
        params: list[tuple[str, A.Ctc]] = []
        while not self.at(T.RBRACE):
            name = self.expect(T.IDENT).value
            self.expect(T.COLON)
            params.append((name, self.parse_contract()))
            if not self.at(T.RBRACE):
                self.expect(T.COMMA)
        self.expect(T.RBRACE)
        self.expect(T.ARROW)
        result = self.parse_ctc_arrow()
        return A.CtcFun(tuple(params), result, span=start)

    def parse_ctc_or(self) -> A.Ctc:
        parts = [self.parse_ctc_and()]
        while self.at(T.OR_CTC) or self.at(T.OR):
            self.advance()
            parts.append(self.parse_ctc_and())
        return parts[0] if len(parts) == 1 else A.CtcOr(tuple(parts), span=parts[0].span)

    def parse_ctc_and(self) -> A.Ctc:
        parts = [self.parse_ctc_atom()]
        while self.at(T.AND_CTC) or self.at(T.AND):
            self.advance()
            parts.append(self.parse_ctc_atom())
        return parts[0] if len(parts) == 1 else A.CtcAnd(tuple(parts), span=parts[0].span)

    def parse_ctc_atom(self) -> A.Ctc:
        if self.at(T.LPAREN):
            self.advance()
            inner = self.parse_contract()
            self.expect(T.RPAREN)
            return inner
        if self.at(T.LBRACE):
            return self.parse_ctc_fun_named()
        tok = self.expect(T.IDENT)
        name = tok.value
        if self.at(T.LPAREN) and (name in _CAP_KINDS or name == "socket_factory"):
            return self.parse_ctc_cap(name, self.span_of(tok))
        return A.CtcName(name, span=self.span_of(tok))

    def parse_ctc_cap(self, kind: str, start: A.Span) -> A.CtcCap:
        self.expect(T.LPAREN)
        items: list[A.CtcPrivItem] = []
        while not self.at(T.RPAREN):
            priv_tok = self.expect(T.PRIV)
            priv = priv_tok.value
            modifier: tuple[str, ...] | None = None
            modifier_full = False
            if self.at_keyword("with"):
                self.advance()
                if self.at(T.LBRACE):
                    self.advance()
                    mods: list[str] = []
                    while not self.at(T.RBRACE):
                        mods.append(self.expect(T.PRIV).value)
                        if not self.at(T.RBRACE):
                            self.expect(T.COMMA)
                    self.expect(T.RBRACE)
                    modifier = tuple(mods)
                else:
                    word = self.expect(T.IDENT).value
                    if word not in ("full_privs", "full_priv"):
                        raise self.error(f"expected privilege set or full_privs, got {word!r}")
                    modifier_full = True
            items.append(A.CtcPrivItem(priv, modifier, modifier_full,
                                       span=self.span_of(priv_tok)))
            if not self.at(T.RPAREN):
                self.expect(T.COMMA)
        self.expect(T.RPAREN)
        return A.CtcCap(kind, tuple(items), span=start)


def parse_source(source: str, lang: str, filename: str = "<script>") -> A.Module:
    tokens = lex(source, filename)
    return Parser(tokens, filename).parse_module(lang)


def check_ambient_restrictions(module: A.Module) -> None:
    """Enforce section 2.5: "ambient scripts contain straight line code
    that can import capability-safe scripts, create capabilities ... and
    call functions exported by capability-safe scripts."  No function
    definitions, conditionals, or loops."""
    for stmt in module.body:
        _check_ambient_stmt(stmt, module.filename)
    if module.provides:
        raise ShillSyntaxError(
            "ambient scripts cannot provide functions", filename=module.filename
        )


def _check_ambient_stmt(stmt: A.Stmt, filename: str) -> None:
    if isinstance(stmt, (A.If, A.For, A.Block)):
        raise ShillSyntaxError(
            "ambient scripts are straight-line: no if/for/blocks", filename=filename
        )
    expr = stmt.expr if isinstance(stmt, (A.Def, A.ExprStmt)) else None
    if expr is not None:
        _check_ambient_expr(expr, filename)


def _check_ambient_expr(expr: A.Expr, filename: str) -> None:
    if isinstance(expr, A.Fun):
        raise ShillSyntaxError(
            "ambient scripts cannot define functions", filename=filename
        )
    for child in getattr(expr, "args", ()) or ():
        _check_ambient_expr(child, filename)
    for _, child in getattr(expr, "kwargs", ()) or ():
        _check_ambient_expr(child, filename)
    if isinstance(expr, A.Call):
        _check_ambient_expr(expr.fn, filename)
    if isinstance(expr, A.ListLit):
        for child in expr.items:
            _check_ambient_expr(child, filename)
    if isinstance(expr, A.BinOp):
        _check_ambient_expr(expr.left, filename)
        _check_ambient_expr(expr.right, filename)
    if isinstance(expr, A.UnOp):
        _check_ambient_expr(expr.operand, filename)
