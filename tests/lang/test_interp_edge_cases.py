"""Interpreter edge cases: scoping, arity, builtins-in-scripts."""

from __future__ import annotations

import pytest

from repro.errors import ShillRuntimeError
from repro.lang.runner import ShillRuntime


@pytest.fixture
def rt(kernel) -> ShillRuntime:
    return ShillRuntime(kernel, user="alice", cwd="/home/alice")


def run_fn(rt, body: str, export: str = "f"):
    rt.register_script("edge.cap", "#lang shill/cap\n" + body)
    return rt.load_cap_exports("edge.cap")[export]


class TestScoping:
    def test_block_shadowing_does_not_leak(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "f = fun(x) {\n"
            "  inner = { x = 99; x; };\n"
            "  inner + x;\n"
            "}\n",
        )
        # Hmm: blocks introduce a child scope; defining x again inside is
        # shadowing, not redefinition.
        assert rt.call(f, 1) == 100

    def test_for_variable_scoped_to_body(self, rt):
        f = run_fn(
            rt,
            "provide f : {l : is_list} -> is_bool;\n"
            "f = fun(l) {\n"
            "  for item in l { item; }\n"
            "  true;\n"
            "}\n",
        )
        assert rt.call(f, [1, 2]) is True

    def test_closure_captures_definition_env(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "base = 100;\n"
            "adder = fun(n) { n + base; }\n"
            "f = fun(x) { adder(x); }\n",
        )
        assert rt.call(f, 5) == 105

    def test_mutual_recursion(self, rt):
        f = run_fn(
            rt,
            "provide f : {n : is_num} -> is_bool;\n"
            "f = fun(n) { is_even(n); }\n"
            "is_even = fun(n) { if n == 0 then true else is_odd(n - 1); }\n"
            "is_odd = fun(n) { if n == 0 then false else is_even(n - 1); }\n",
        )
        # Note: is_even is defined *after* f but before f is called.
        assert rt.call(f, 10) is True
        assert rt.call(f, 7) is False


class TestArityAndErrors:
    def test_closure_wrong_arity(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "g = fun(a, b) { a + b; }\n"
            "f = fun(x) { g(x); }\n",
        )
        with pytest.raises(ShillRuntimeError) as exc:
            rt.call(f, 1)
        assert "expects 2" in str(exc.value)

    def test_closure_rejects_kwargs(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "g = fun(a) { a; }\n"
            "f = fun(x) { g(a = x); }\n",
        )
        with pytest.raises(ShillRuntimeError) as exc:
            rt.call(f, 1)
        assert "keyword" in str(exc.value)

    def test_calling_non_function(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> is_num;\nf = fun(x) { x(1); }")
        with pytest.raises(ShillRuntimeError) as exc:
            rt.call(f, 42)
        assert "not a function" in str(exc.value)

    def test_for_over_non_list(self, rt):
        f = run_fn(
            rt, "provide f : {x : is_num} -> void;\nf = fun(x) { for i in x { i; } }"
        )
        with pytest.raises(ShillRuntimeError):
            rt.call(f, 42)

    def test_use_before_definition_completes(self, rt):
        rt.register_script(
            "selfref.cap", "#lang shill/cap\nx = x + 1;\nprovide f : is_num -> is_num;\nf = fun(y){y;}"
        )
        with pytest.raises(ShillRuntimeError):
            rt.load_cap_exports("selfref.cap")


class TestPureBuiltinsInScripts:
    def test_string_helpers(self, rt):
        f = run_fn(
            rt,
            "provide f : {s : is_string} -> is_list;\n"
            "f = fun(s) {\n"
            "  [strcat(s, \"!\"), to_string(length(s)), contains(s, \"ell\"),\n"
            "   starts_with(s, \"he\"), ends_with(s, \"lo\"), split(s, \"l\")];\n"
            "}\n",
        )
        out = rt.call(f, "hello")
        assert out[0] == "hello!"
        assert out[1] == "5"
        assert out[2] is True and out[3] is True and out[4] is True
        assert out[5] == ["he", "", "o"]

    def test_list_helpers(self, rt):
        f = run_fn(
            rt,
            "provide f : {l : is_list} -> is_list;\n"
            "f = fun(l) { push(concat(l, range(2)), nth(l, 0)); }\n",
        )
        assert rt.call(f, [7, 8]) == [7, 8, 0, 1, 7]

    def test_lines(self, rt):
        f = run_fn(
            rt,
            "provide f : {s : is_string} -> is_num;\nf = fun(s) { length(lines(s)); }",
        )
        assert rt.call(f, "a\nb\nc") == 3

    def test_nth_out_of_range(self, rt):
        f = run_fn(
            rt, "provide f : {l : is_list} -> is_num;\nf = fun(l) { nth(l, 10); }"
        )
        with pytest.raises(ShillRuntimeError):
            rt.call(f, [1])


class TestComparisonSemantics:
    def test_equality_across_types(self, rt):
        f = run_fn(
            rt,
            "provide f : {a : any, b : any} -> is_bool;\nf = fun(a, b) { a == b; }",
        )
        assert rt.call(f, 1, 1) is True
        assert rt.call(f, "x", "x") is True
        assert rt.call(f, 1, "1") is False

    def test_ordering_requires_numbers(self, rt):
        f = run_fn(
            rt, "provide f : {a : any, b : any} -> is_bool;\nf = fun(a, b) { a < b; }"
        )
        with pytest.raises(ShillRuntimeError):
            rt.call(f, "a", "b")

    def test_boolean_ops_require_booleans(self, rt):
        f = run_fn(
            rt, "provide f : {a : any} -> is_bool;\nf = fun(a) { a && true; }"
        )
        with pytest.raises(ShillRuntimeError):
            rt.call(f, 1)


class TestScopingPins:
    """Scoping the compiled evaluator must keep exactly: names resolve in
    the write-once frames when the code runs, not when it is compiled."""

    def test_block_reads_outer_name_before_its_own_definition(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "x0 = 1;\n"
            "f = fun(x) { r = { y = x0; x0 = 2; y + x0 + x; }; r; }\n",
        )
        assert rt.call(f, 10) == 13

    def test_closure_sees_a_later_sibling_definition(self, rt):
        k = run_fn(
            rt,
            "provide k : {n : is_num} -> is_num;\n"
            "k = fun(n) { early = fun() { later; }; later = n * 2; early(); }\n",
            export="k",
        )
        assert rt.call(k, 4) == 8

    def test_unbound_name_fails_only_on_the_branch_taken(self, rt):
        h = run_fn(
            rt,
            "provide h : {c : is_bool} -> is_num;\n"
            "h = fun(c) { if c then 1 else nowhere; }\n",
            export="h",
        )
        assert rt.call(h, True) == 1
        with pytest.raises(ShillRuntimeError, match="unbound variable 'nowhere'"):
            rt.call(h, False)

    def test_builtins_share_the_module_top_frame(self, rt):
        rt.register_script(
            "dup.cap",
            "#lang shill/cap\nprovide f : {x : is_num} -> is_num;\n"
            "path = 1;\nf = fun(x) { x; }\n",
        )
        with pytest.raises(ShillRuntimeError, match="duplicate definition of 'path'"):
            rt.load_cap_exports("dup.cap")

    def test_builtins_share_the_ambient_top_frame(self, rt):
        with pytest.raises(ShillRuntimeError, match="duplicate definition of 'path'"):
            rt.run_ambient("#lang shill/ambient\npath = 1;\n")

    def test_a_block_in_a_function_may_shadow_a_builtin(self, rt):
        f = run_fn(
            rt,
            "provide f : {x : is_num} -> is_num;\n"
            "f = fun(x) { { path = x; path + 1; } }\n",
        )
        assert rt.call(f, 1) == 2

    def test_ambient_redefinition_fails_after_earlier_statements_ran(self, rt):
        with pytest.raises(ShillRuntimeError, match="duplicate definition of 'x'"):
            rt.run_ambient('#lang shill/ambient\nappend(stdout, "a\\n");\nx = 1;\nx = 2;\n')
        assert rt.tty.text == "a\n"


class TestNameResolution:
    """A name no enclosing function, block or ``for`` binds is read from
    the module's top frame in one probe; every other name walks the
    chain.  Local bindings must still shadow the builtins up there."""

    def test_a_parameter_shadows_a_builtin(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> is_num;\n"
                       "g = fun(path) { path + 1; }\nf = fun(x) { g(x); }\n")
        assert rt.call(f, 1) == 2

    def test_a_for_variable_shadows_a_builtin(self, rt):
        """``lookup + 1`` fails on the builtin; on the loop's numbers the
        body's block reads them back."""
        f = run_fn(rt, "provide f : {l : is_list} -> is_num;\n"
                       "f = fun(l) { for lookup in l { n = { lookup + 1; }; n; } length(l); }\n")
        assert rt.call(f, [1, 2]) == 2

    def test_a_block_definition_shadows_a_builtin(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> is_num;\n"
                       "f = fun(x) { contents = x * 3; contents; }\n")
        assert rt.call(f, 2) == 6

    def test_a_closure_calls_a_top_level_sibling_defined_after_it(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> is_num;\n"
                       "f = fun(x) { later(x) + 1; }\n"
                       "later = fun(y) { y * 10; }\n")
        assert rt.call(f, 4) == 41

    def test_an_unbound_name_keeps_its_error(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> is_num;\nf = fun(x) { nowhere; }\n")
        with pytest.raises(ShillRuntimeError, match="^unbound variable 'nowhere'$"):
            rt.call(f, 1)

    def test_a_top_level_read_before_its_definition_completes(self, rt):
        rt.register_script("early.cap", "#lang shill/cap\nprovide f : is_num -> is_num;\n"
                                        "g = fun() { x; }\nx = g();\nf = fun(y) { y; }\n")
        with pytest.raises(ShillRuntimeError,
                           match="^variable 'x' used before its definition completed$"):
            rt.load_cap_exports("early.cap")


class TestCallSites:
    """Calls with 0-3 positional arguments skip the argument list; their
    arity and keyword errors must be byte-identical to ``apply``'s for
    builtins, closures and contract-guarded functions alike."""

    CALLEE = ("#lang shill/cap\nprovide gf : {a : is_num, b : is_num} -> is_num;\n"
              "gf = fun(a, b) { a + b; }\n")
    GUARDED = ("contract violation: blaming edge.cap: arity mismatch: expected 2 "
               "argument(s), got {n} (contract: {{a : is_num, b : is_num}} -> is_num)")

    def _call(self, rt, callee: str, args: str):
        rt.register_script("callee.cap", self.CALLEE)
        f = run_fn(rt, 'require "callee.cap";\nprovide f : {x : is_num} -> any;\n'
                       "g = fun(a, b) { a + b; }\n"
                       f"f = fun(x) {{ {callee}({args}); }}\n")
        try:
            return repr(rt.call(f, 1))
        except Exception as err:  # noqa: BLE001 - the error is the observation
            return f"{type(err).__name__}: {err}"

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("keyword", [False, True], ids=["positional", "keyword"])
    def test_closure_errors(self, rt, n, keyword):
        args = ", ".join(str(i + 1) for i in range(n)) + (", k = 9" if n else "k = 9") * keyword
        if keyword:
            expected = "ShillRuntimeError: g does not accept keyword arguments"
        elif n == 2:
            expected = "3"
        else:
            expected = f"ShillRuntimeError: g expects 2 argument(s), got {n}"
        assert self._call(rt, "g", args) == expected

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("keyword", [False, True], ids=["positional", "keyword"])
    def test_guarded_errors(self, rt, n, keyword):
        args = ", ".join(str(i + 1) for i in range(n)) + (", k = 9" if n else "k = 9") * keyword
        if n == 2:
            expected = ("ShillRuntimeError: gf does not accept keyword arguments"
                        if keyword else "3")
        else:
            expected = "ContractViolation: " + self.GUARDED.format(n=n)
        assert self._call(rt, "gf", args) == expected

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("keyword", [False, True], ids=["positional", "keyword"])
    def test_builtin_errors(self, rt, n, keyword):
        """A builtin gets exactly the script's arguments: the error is the
        one its function raises called with them directly."""
        from repro.lang.builtins import b_nth

        values = list(range(1, n + 1))
        args = ", ".join(map(str, values)) + (", k = 9" if n else "k = 9") * keyword
        try:
            b_nth(*values, **({"k": 9} if keyword else {}))
        except Exception as err:  # noqa: BLE001
            expected = f"{type(err).__name__}: {err}"
        assert self._call(rt, "nth", args) == expected

    def test_a_repeated_parameter_name_is_a_duplicate_definition(self, rt):
        for params, args in (("a, a", "1, 2"), ("a, b, a", "1, 2, 3"), ("a, b, c, a", "1, 2, 3, 4")):
            f = run_fn(rt, "provide f : {x : is_num} -> any;\n"
                           f"g = fun({params}) {{ a; }}\nf = fun(x) {{ g({args}); }}\n")
            with pytest.raises(ShillRuntimeError,
                               match="^duplicate definition of 'a' "
                                     r"\(SHILL has no mutable variables\)$"):
                rt.call(f, 1)

    def test_a_non_boolean_condition_keeps_its_error(self, rt):
        f = run_fn(rt, "provide f : {x : is_num} -> any;\nf = fun(x) { if x then 1 else 2; }\n")
        with pytest.raises(ShillRuntimeError, match="^condition must be a boolean, got 1$"):
            rt.call(f, 1)
