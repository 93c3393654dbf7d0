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
