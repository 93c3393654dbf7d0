"""The master-regex lexer against a reference model: the character-at-a-
time lexer it replaced, kept here verbatim.

Both must produce the same tokens (type, value, line, column) or the same
:class:`ShillSyntaxError` text, for generated sources over an alphabet
that holds every punctuation token, both string forms, escapes, comments,
every whitespace character the reference knows (and form feed, which it
does not), and the non-ASCII characters on which ``re`` and ``str``
disagree, and for every SHILL script this tree ships.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import ShillSyntaxError
from repro.lang import lexer
from repro.lang.tokens import T, Token

ROOT = Path(__file__).resolve().parents[2]


# -- the reference: the character-at-a-time lexer, verbatim -----------------

def _advance_pos(source: str, start: int, stop: int, line: int, col: int) -> tuple[int, int]:
    """(line, col) after consuming ``source[start:stop]``.  String literals
    may span lines, and a lexer that does not count their newlines reports
    every later token one line short."""
    chunk = source[start:stop]
    newlines = chunk.count("\n")
    if newlines:
        return line + newlines, stop - (source.rfind("\n", start, stop) + 1) + 1
    return line, col + (stop - start)


_SIMPLE = {
    "(": T.LPAREN,
    ")": T.RPAREN,
    "{": T.LBRACE,
    "}": T.RBRACE,
    "[": T.LBRACKET,
    "]": T.RBRACKET,
    ",": T.COMMA,
    ";": T.SEMI,
    ":": T.COLON,
    ".": T.DOT,
    "*": T.STAR,
    "%": T.PERCENT,
}


def lex(source: str, filename: str = "<script>") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(msg: str) -> ShillSyntaxError:
        return ShillSyntaxError(msg, line, col, filename)

    def push(ttype: T, value: str) -> None:
        tokens.append(Token(ttype, value, line, col))

    while i < n:
        ch = source[i]
        # whitespace
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        # comments
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        # strings (double quotes; '' ... '' also accepted as in the paper's listings)
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, "\\" + esc))
                    j += 2
                else:
                    out.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            push(T.STRING, "".join(out))
            line, col = _advance_pos(source, i, j + 1, line, col)
            i = j + 1
            continue
        if source.startswith("''", i):
            end = source.find("''", i + 2)
            if end == -1:
                raise error("unterminated string literal")
            push(T.STRING, source[i + 2 : end])
            line, col = _advance_pos(source, i, end + 2, line, col)
            i = end + 2
            continue
        # numbers
        if ch.isdigit():
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            push(T.NUMBER, source[i:j])
            col += j - i
            i = j
            continue
        # identifiers
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            push(T.IDENT, source[i:j])
            col += j - i
            i = j
            continue
        # privilege literal: '+' immediately followed by a letter
        if ch == "+" and i + 1 < n and (source[i + 1].isalpha()):
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "-_"):
                j += 1
            push(T.PRIV, source[i + 1 : j])
            col += j - i
            i = j
            continue
        # multi-character operators (longest match first)
        for text, ttype in (
            ("->", T.ARROW),
            ("\\/", T.OR_CTC),
            ("/\\", T.AND_CTC),
            ("&&", T.AND),
            ("||", T.OR),
            ("==", T.EQ),
            ("!=", T.NE),
            ("<=", T.LE),
            (">=", T.GE),
        ):
            if source.startswith(text, i):
                push(ttype, text)
                col += len(text)
                i += len(text)
                break
        else:
            if ch in _SIMPLE:
                push(_SIMPLE[ch], ch)
            elif ch == "=":
                push(T.ASSIGN, ch)
            elif ch == "<":
                push(T.LT, ch)
            elif ch == ">":
                push(T.GT, ch)
            elif ch == "!":
                push(T.NOT, ch)
            elif ch == "+":
                push(T.PLUS, ch)
            elif ch == "-":
                push(T.MINUS, ch)
            elif ch == "/":
                push(T.SLASH, ch)
            else:
                raise error(f"unexpected character {ch!r}")
            i += 1
            col += 1

    tokens.append(Token(T.EOF, "", line, col))
    return tokens


# -- equivalence -------------------------------------------------------------

def _outcome(lex_fn, source: str):
    try:
        return [(t.type, t.value, t.line, t.col) for t in lex_fn(source, "<model>")]
    except ShillSyntaxError as err:
        return str(err)


def _assert_same(source: str) -> None:
    assert _outcome(lexer.lex, source) == _outcome(lex, source), repr(source)


#: Every punctuation token, both string forms with their escapes, comments,
#: whitespace, and characters that ``re`` and ``str`` classify differently:
#: ``٣`` is a decimal digit, ``²`` a digit that is not decimal, ``½`` and
#: ``Ⅻ`` numerics that are neither digits nor letters, ``é`` a letter.
FRAGMENTS = sorted(t.value for t in T if not t.value.isalpha()) + [
    "'", "''", '"', "\\", "\\n", "\\t", '\\"', "\\\\", "\\q", "#", "#lang shill/cap",
    " ", "\t", "\r", "\n", "\x0c",
    "é", "٣", "²", "½", "Ⅻ",
    "a", "Z", "_", "0", "7", "1.5", "read", "create-file", "fun", "x_1",
]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_generated_sources_lex_like_the_reference(source):
    _assert_same(source)


def test_pinned_differences_between_re_and_str():
    for source in ["2²", "+²", "x = ½;", "Ⅻ", "a½Ⅻ", "+aⅫ", "٣.٣", "2²x",
                   "'", "''", "'' x", "x # c", "\n  # c", '"a\nb"\nc',
                   "''a\n\nb'' c", '"a\nb" c', "café = 1;", "\x0c", '"\\', "1.2.3"]:
        _assert_same(source)


def _shipped_scripts():
    """Every string constant holding a ``#lang`` script in this tree's
    Python sources, and every ``.cap`` and ``.ambient`` file."""
    for top in ("src", "tests", "examples", "perfbench", "benchmarks", "docs"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and "#lang" in node.value:
                    yield f"{path.relative_to(ROOT)}:{node.lineno}", node.value
        for pattern in ("*.cap", "*.ambient"):
            for path in sorted((ROOT / top).rglob(pattern)):
                yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")


def test_every_shipped_script_lexes_like_the_reference():
    scripts = dict(_shipped_scripts())
    assert len(scripts) > 100
    differ = [name for name, source in scripts.items()
              if _outcome(lexer.lex, source) != _outcome(lex, source)]
    assert differ == []
