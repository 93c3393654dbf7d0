"""Lexer and parser tests for the SHILL concrete syntax."""

from __future__ import annotations

import pytest

from repro.errors import ShillSyntaxError
from repro.lang import ast_ as A
from repro.lang.lexer import lex
from repro.lang.parser import MAX_NESTING, check_ambient_restrictions, parse_source
from repro.lang.tokens import T


class TestLexer:
    def test_idents_and_keywords(self):
        toks = lex("fun if then foo_bar")
        assert [t.value for t in toks[:-1]] == ["fun", "if", "then", "foo_bar"]
        assert all(t.type is T.IDENT for t in toks[:-1])

    def test_privilege_literals(self):
        toks = lex("+read +create-file +read-symlink")
        assert [t.type for t in toks[:-1]] == [T.PRIV] * 3
        assert [t.value for t in toks[:-1]] == ["read", "create-file", "read-symlink"]

    def test_plus_with_space_is_addition(self):
        toks = lex("a + b")
        assert [t.type for t in toks[:-1]] == [T.IDENT, T.PLUS, T.IDENT]

    def test_contract_operators(self):
        toks = lex("\\/ /\\ -> && ||")
        assert [t.type for t in toks[:-1]] == [T.OR_CTC, T.AND_CTC, T.ARROW, T.AND, T.OR]

    def test_string_escapes(self):
        (tok, _eof) = lex(r'"a\nb\t\"q\""')
        assert tok.value == 'a\nb\t"q"'

    def test_paper_style_double_quote_strings(self):
        (tok, _eof) = lex("''jpeginfo''")
        assert tok.type is T.STRING and tok.value == "jpeginfo"

    def test_comments_skipped(self):
        toks = lex("x # comment with , tokens ;\ny")
        assert [t.value for t in toks[:-1]] == ["x", "y"]

    def test_numbers(self):
        toks = lex("42 3.5")
        assert [t.value for t in toks[:-1]] == ["42", "3.5"]

    def test_unterminated_string(self):
        with pytest.raises(ShillSyntaxError):
            lex('"unclosed')

    def test_unexpected_char(self):
        with pytest.raises(ShillSyntaxError):
            lex("a @ b")

    def test_position_tracking(self):
        toks = lex("a\n  b")
        assert toks[1].line == 2


class TestParserExpressions:
    def _expr(self, source: str) -> A.Expr:
        module = parse_source(f"x = {source};", "shill/cap")
        stmt = module.body[0]
        assert isinstance(stmt, A.Def)
        return stmt.expr

    def test_literals(self):
        assert self._expr("42") == A.Lit(42)
        assert self._expr("true") == A.Lit(True)
        assert self._expr('"hi"') == A.Lit("hi")

    def test_call_with_kwargs(self):
        expr = self._expr('exec(prog, ["a"], stdout = out)')
        assert isinstance(expr, A.Call)
        assert expr.kwargs[0][0] == "stdout"

    def test_precedence(self):
        expr = self._expr("1 + 2 * 3")
        assert isinstance(expr, A.BinOp) and expr.op == "+"
        assert isinstance(expr.right, A.BinOp) and expr.right.op == "*"

    def test_and_or_precedence(self):
        expr = self._expr("a && b || c")
        assert isinstance(expr, A.BinOp) and expr.op == "||"

    def test_unary_not(self):
        expr = self._expr("!is_syserror(x)")
        assert isinstance(expr, A.UnOp) and expr.op == "!"

    @pytest.mark.parametrize("literal", ["1.2.3", "2²"])
    def test_malformed_number_literal_is_a_syntax_error(self, literal):
        """The lexer reads any run of digits and dots as one number; the
        parser, not float()/int(), reports the ones that are no number."""
        with pytest.raises(ShillSyntaxError) as excinfo:
            parse_source(f"a = 1;\nx = {literal};", "shill/cap")
        err = excinfo.value
        assert (err.line, err.col) == (2, 5)
        assert str(err) == f"<script>:2:5: malformed number literal {literal!r}"

    def test_comparison(self):
        expr = self._expr("n <= 10")
        assert isinstance(expr, A.BinOp) and expr.op == "<="

    def test_list_literal(self):
        expr = self._expr('["a", "b"]')
        assert isinstance(expr, A.ListLit) and len(expr.items) == 2

    def test_nested_call(self):
        expr = self._expr("f(g(x))(y)")
        assert isinstance(expr, A.Call) and isinstance(expr.fn, A.Call)


class TestNesting:
    """Nesting is bounded by a fixed count (``MAX_NESTING``), not by the
    Python stack: past it a script is a syntax error at the opening token
    of the construct that crosses the limit.  A statement's expression is
    one level, and so is each parenthesis, list, prefix operator, block,
    ``if`` and contract inside it (an ``if`` at the limit fails at its
    condition, the expression inside it)."""

    @pytest.mark.parametrize("source, where", [
        ("x = " + "(" * 150 + "1" + ")" * 150 + ";", (2, 69)),
        ("x = " + "!" * 150 + "true;", (2, 68)),
        ("x = " + "[" * 150 + "1" + "]" * 150 + ";", (2, 69)),
        ("{" * 150 + "1;" + "}" * 150, (2, 65)),
        ("x = " + "-" * 150 + "1;", (2, 68)),
        ("provide f : " + "(" * 150 + "is_num" + ")" * 150 + ";", (2, 77)),
        ("if true then " * 150 + "1;", (2, 63 * 13 + 4)),
    ], ids=["paren", "not", "list", "block", "minus", "contract", "if"])
    def test_150_levels_fail_at_their_line_and_column(self, source, where):
        assert MAX_NESTING == 64
        with pytest.raises(ShillSyntaxError) as excinfo:
            parse_source("a = 1;\n" + source, "shill/cap")
        err = excinfo.value
        assert (err.line, err.col) == where
        assert str(err) == f"<script>:{where[0]}:{where[1]}: nested too deeply"

    @pytest.mark.parametrize("nest", [
        lambda n: "x = " + "(" * n + "1" + ")" * n + ";",
        lambda n: "x = " + "[" * n + "1" + "]" * n + ";",
        lambda n: "x = " + "!" * n + "true;",
        lambda n: "{" * n + "1;" + "}" * n,
    ], ids=["paren", "list", "not", "block"])
    def test_the_limit_is_exact(self, nest):
        """The innermost expression is a level too, so 63 nested forms
        reach the limit and 64 cross it."""
        parse_source(nest(MAX_NESTING - 1), "shill/cap")
        with pytest.raises(ShillSyntaxError, match="nested too deeply"):
            parse_source(nest(MAX_NESTING), "shill/cap")

    def test_the_limit_is_per_nesting_not_per_script(self):
        """Siblings do not add up: 100 parenthesised 40-level terms parse
        as the items of one list, and 24 as one sum, whose 23 operators
        are each one level over the deepest term (41 + 23 = 64)."""
        term = "(" * 40 + "1" + ")" * 40
        parse_source("x = [" + ", ".join([term] * 100) + "];", "shill/cap")
        parse_source("x = " + " + ".join([term] * 24) + ";", "shill/cap")
        with pytest.raises(ShillSyntaxError, match="nested too deeply"):
            parse_source("x = " + " + ".join([term] * 25) + ";", "shill/cap")


def stacked_chain(t: int, p: int = 0) -> str:
    """``E(p) = "(" E(p+1) ")" + "+1" * (t - p - 2)``: every parenthesised
    leftmost operand carries a chain of its own, so the chains stack down
    the left spine of the tree although none is long."""
    if p >= t - 1:
        return "1"
    return "(" + stacked_chain(t, p + 1) + ")" + "+1" * (t - p - 2)


def right_chain(levels: int) -> str:
    """``1+(`` R ``)+1``: the chains stack down right operands instead."""
    return "1" if levels == 0 else "1+(" + right_chain(levels - 1) + ")+1"


class TestChains:
    """Binary operators and calls are parsed in loops but nest the tree
    one level each, so each is charged one level over the deepest its
    operands (or its callee) reached: a chain that would make a later
    pass recurse past the limit is a syntax error at the operator that
    crosses it, whatever the Python stack of the thread parsing it."""

    @pytest.mark.parametrize("source, where", [
        ("x = " + "+".join(["1"] * 3000) + ";", (2, 132)),
        ("x = " + stacked_chain(20) + ";", (2, 123)),
        ("x = " + stacked_chain(40) + ";", (2, 101)),
        ("x = " + stacked_chain(64) + ";", (2, 71)),
        ("x = " + right_chain(40) + ";", (2, 160)),
        ("x = f" + "()" * 3000 + ";", (2, 132)),
    ], ids=["flat-3000", "stacked-20", "stacked-40", "stacked-64", "right-40", "calls-3000"])
    def test_long_chains_fail_at_their_line_and_column(self, source, where):
        with pytest.raises(ShillSyntaxError) as excinfo:
            parse_source("a = 1;\n" + source, "shill/cap")
        err = excinfo.value
        assert (err.line, err.col) == where
        assert str(err) == f"<script>:{where[0]}:{where[1]}: nested too deeply"

    @pytest.mark.parametrize("chain", [
        lambda n: "x = " + "+".join(["1"] * (n + 1)) + ";",
        lambda n: "x = " + " && ".join(["true"] * (n + 1)) + ";",
        lambda n: "x = f" + "()" * n + ";",
    ], ids=["plus", "and", "calls"])
    def test_the_chain_limit_is_exact(self, chain):
        """A statement's expression is one level, so 63 operators (or
        calls) reach the limit and 64 cross it."""
        parse_source(chain(MAX_NESTING - 1), "shill/cap")
        with pytest.raises(ShillSyntaxError, match="nested too deeply"):
            parse_source(chain(MAX_NESTING), "shill/cap")

    def test_the_shipped_scripts_still_parse(self):
        """Their longest chain is 5 operators."""
        from repro.analysis.corpus import shipped_corpus
        from repro.casestudies import vcs
        from repro.lang.modules import read_lang

        scripts = [*(s for suite in shipped_corpus().values() for s in suite.values()),
                   vcs.VCS_CAP_SCRIPT, vcs.STATUS_AMBIENT, vcs.COMMIT_AMBIENT,
                   vcs.LOG_AMBIENT, vcs.PROBE_AMBIENT]
        for source in scripts:
            parse_source(*reversed(read_lang(source)))


class TestParserStatements:
    def test_if_then(self):
        module = parse_source("if is_file(c) then append(out, path(c));", "shill/cap")
        stmt = module.body[0]
        assert isinstance(stmt, A.If) and stmt.otherwise is None

    def test_if_then_else(self):
        module = parse_source("if b then f(); else g();", "shill/cap")
        stmt = module.body[0]
        assert isinstance(stmt, A.If) and stmt.otherwise is not None

    def test_for_in(self):
        module = parse_source("for name in contents(cur) { f(name); }", "shill/cap")
        stmt = module.body[0]
        assert isinstance(stmt, A.For) and stmt.var == "name"

    def test_fun_def_without_trailing_semi(self):
        module = parse_source("f = fun(x) { x; }", "shill/cap")
        stmt = module.body[0]
        assert isinstance(stmt, A.Def) and isinstance(stmt.expr, A.Fun)

    def test_missing_semi_is_error(self):
        with pytest.raises(ShillSyntaxError):
            parse_source("x = 1\ny = 2;", "shill/cap")

    def test_requires_and_provides(self):
        source = """
        require shill/native;
        require "other.cap";
        provide f : {x : is_num} -> is_num;
        f = fun(x) { x; }
        """
        module = parse_source(source, "shill/cap")
        assert module.requires[0] == A.Require("shill/native", is_path=False)
        assert module.requires[1] == A.Require("other.cap", is_path=True)
        assert module.provides[0].name == "f"


class TestContractSyntax:
    def _ctc(self, text: str) -> A.Ctc:
        module = parse_source(f"provide f : {text};", "shill/cap")
        return module.provides[0].contract

    def test_simple_name(self):
        assert self._ctc("is_file -> void") == A.CtcFun(
            (("arg", A.CtcName("is_file")),), A.CtcName("void")
        )

    def test_named_params(self):
        ctc = self._ctc("{cur : is_dir, out : is_file} -> void")
        assert isinstance(ctc, A.CtcFun)
        assert [name for name, _ in ctc.params] == ["cur", "out"]

    def test_or_contract(self):
        ctc = self._ctc("{cur : is_dir \\/ is_file} -> void")
        assert isinstance(ctc.params[0][1], A.CtcOr)

    def test_and_contract(self):
        ctc = self._ctc("{submission : is_file && readonly} -> void")
        assert isinstance(ctc.params[0][1], A.CtcAnd)

    def test_cap_contract_with_privs(self):
        ctc = self._ctc("{cur : dir(+contents, +lookup, +path)} -> void")
        cap = ctc.params[0][1]
        assert isinstance(cap, A.CtcCap) and cap.kind == "dir"
        assert [i.priv for i in cap.items] == ["contents", "lookup", "path"]

    def test_priv_modifier(self):
        ctc = self._ctc("{d : dir(+lookup with {+path, +stat})} -> void")
        item = ctc.params[0][1].items[0]
        assert item.priv == "lookup" and item.modifier == ("path", "stat")

    def test_priv_modifier_full(self):
        ctc = self._ctc("{w : dir(+create-dir with full_privs)} -> void")
        item = ctc.params[0][1].items[0]
        assert item.modifier_full

    def test_forall(self):
        ctc = self._ctc(
            "forall X with {+lookup, +contents} . "
            "{cur : X, filter : X -> is_bool, cmd : X -> void} -> void"
        )
        assert isinstance(ctc, A.CtcForall)
        assert ctc.var == "X" and ctc.bound == ("lookup", "contents")
        assert isinstance(ctc.body.params[1][1], A.CtcFun)

    def test_wallet_kinds(self):
        ctc = self._ctc("{wallet : native_wallet} -> void")
        assert ctc.params[0][1] == A.CtcName("native_wallet")

    def test_figure1_grade_contract_parses(self):
        """The paper's Figure 1, in ASCII spelling."""
        source = """
        provide grade :
          {submission : is_file && readonly,
           tests : is_dir && readonly,
           working : dir(+create-dir with full_privs),
           grade_log : is_file && writeable,
           wallet : ocaml_wallet} -> void;
        grade = fun(submission, tests, working, grade_log, wallet) { void_v(); }
        """
        module = parse_source(source, "shill/cap")
        assert module.provides[0].name == "grade"


class TestAmbientRestrictions:
    def test_straight_line_ok(self):
        module = parse_source('x = open_dir("/"); f(x);', "shill/ambient")
        check_ambient_restrictions(module)

    def test_no_functions(self):
        module = parse_source("f = fun(x) { x; }", "shill/ambient")
        with pytest.raises(ShillSyntaxError):
            check_ambient_restrictions(module)

    def test_no_conditionals(self):
        module = parse_source("if b then f();", "shill/ambient")
        with pytest.raises(ShillSyntaxError):
            check_ambient_restrictions(module)

    def test_no_loops(self):
        module = parse_source("for x in l { f(x); }", "shill/ambient")
        with pytest.raises(ShillSyntaxError):
            check_ambient_restrictions(module)

    def test_no_provides(self):
        module = parse_source("provide f : is_num -> is_num;", "shill/ambient")
        with pytest.raises(ShillSyntaxError):
            check_ambient_restrictions(module)
