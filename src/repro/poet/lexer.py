"""Tokenizer for the C subset accepted by the mini-POET parser."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = frozenset(
    {"void", "char", "int", "long", "float", "double", "for", "if", "else",
     "return", "while", "const", "register", "restrict"}
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=",
    "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||",
    "<<", ">>", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "?",
]

_PUNCT = "()[]{};,"


@dataclass(frozen=True)
class Token:
    kind: str  # 'id' | 'int' | 'float' | 'op' | 'punct' | 'kw' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; returns a list ending with an ``eof`` token.

    Handles ``//`` and ``/* */`` comments, decimal/hex integers, and C
    floating literals (including exponents and the ``f`` suffix, which is
    dropped).
    """
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def err(msg: str) -> LexError:
        return LexError(msg, line, col)

    while i < n:
        c = source[i]
        # whitespace
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # comments
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise err("unterminated block comment")
            for k in range(i, j + 2):
                if source[k] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            continue
        # identifiers / keywords
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "id"
            toks.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        # numbers
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
                    j += 1
                toks.append(Token("int", source[i:j], line, col))
                col += j - i
                i = j
                continue
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if j < n and source[j] in "fF" and is_float:
                j += 1  # drop the suffix
            elif j < n and source[j] in "lLuU" and not is_float:
                j += 1  # drop integer suffix
            toks.append(Token("float" if is_float else "int", text, line, col))
            col += j - i
            i = j
            continue
        # punctuation
        if c in _PUNCT:
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        # operators
        for op in _OPERATORS:
            if source.startswith(op, i):
                toks.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise err(f"unexpected character {c!r}")
    toks.append(Token("eof", "", line, col))
    return toks
