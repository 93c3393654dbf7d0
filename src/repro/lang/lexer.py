r"""Lexer for SHILL's concrete syntax.

Notable rules:

* ``# ...`` comments run to end of line (but the ``#lang`` directive on
  the first line is handled by the module reader before lexing);
* ``+`` immediately followed by a letter lexes as a **privilege literal**
  (``+read``, ``+create-file`` — hyphens allowed inside); addition must
  therefore be written with a space (``a + b``), which matches the
  paper's style;
* ``\/`` and ``/\`` are the contract disjunction/conjunction operators;
* an identifier starts with a letter (any character ``str.isalpha``
  admits, so ``café`` is one) or ``_`` and continues with letters,
  digits, numerics and ``_`` (``str.isalnum``); a number starts with a
  digit (``str.isdigit``, so ``²`` is one) and continues with digits
  and dots;
* a punctuation token's type is the :class:`T` member whose value is
  its text.

One pattern with a named group per token class (the tokenizer recipe in
the :mod:`re` docs) finds each token.  Where ``re`` and ``str`` disagree
(``\d`` is ``str.isdecimal``; ``\w`` admits numerics such as ``½``),
the loop decides with the ``str`` method.
"""

from __future__ import annotations

import re

from repro.errors import ShillSyntaxError
from repro.lang.tokens import T, Token

#: Punctuation text -> token type; every non-word value of T.
_PUNCT = {t.value: t for t in T if not t.value.isalpha()}

_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>#[^\n]*)",
    r'(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")',
    r"(?P<raw>''.*?'')",  # '' ... '' as in the paper's listings
    r"(?P<number>\d[\d.]*)",
    r"(?P<word>\w+)",
    r"(?P<priv>\+[^\W\d_][\w-]*)",
    "(?P<punct>%s)" % "|".join(
        re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True)),
]), re.DOTALL)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[0])


def lex(source: str, filename: str = "<script>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos, end = 1, 0, 0, len(source)
    kind, col = None, 1
    while pos < end:
        col = pos - line_start + 1
        m = _TOKEN.match(source, pos)
        if m is None:
            msg = ("unterminated string literal"
                   if source.startswith(('"', "''"), pos)
                   else f"unexpected character {source[pos]!r}")
            raise ShillSyntaxError(msg, line, col, filename)
        kind, text, stop = m.lastgroup, m.group(), m.end()
        if kind == "punct":
            tokens.append(Token(_PUNCT[text], text, line, col))
        elif kind == "string":
            tokens.append(Token(T.STRING, _ESCAPE.sub(_unescape, text[1:-1]), line, col))
        elif kind == "raw":
            tokens.append(Token(T.STRING, text[2:-2], line, col))
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            tokens.append(Token(T.IDENT, text, line, col))
        elif kind == "number" or kind == "word":
            if not text[0].isdigit():
                raise ShillSyntaxError(f"unexpected character {text[0]!r}",
                                       line, col, filename)
            if kind == "word":  # str.isdigit admits digits \d does not, such as '²'
                stop = pos + 1
            while source[stop:stop + 1].isdigit() or source[stop:stop + 1] == ".":
                stop += 1
            tokens.append(Token(T.NUMBER, source[pos:stop], line, col))
        elif kind == "priv":
            if text[1].isalpha():
                tokens.append(Token(T.PRIV, text[1:], line, col))
            else:  # '+²': [^\W\d_] admits non-letters too
                tokens.append(Token(T.PLUS, "+", line, col))
                stop = pos + 1
        if "\n" in text:  # whitespace, or a string spanning lines
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos = stop
    # A comment never advanced the column: an EOF right after one keeps
    # the comment's.
    tokens.append(Token(T.EOF, "", line,
                        col if kind == "comment" else end - line_start + 1))
    return tokens
