"""The token pattern of ``dsl.tokenize`` against the character-by-character
scanner it replaced: the same kind, text, line and column for every token,
and the same ``DslError`` text, on every model in ``tests/data``, on the
benchmark families and on seeded random edits of them."""
import os
import random
from collections import namedtuple

import pytest

from fixleads import dsl
from fixleads.dsl import DslError, _Parser, parse

from test_bench_models import FAMILIES

DATA = os.path.join(os.path.dirname(__file__), "data")

# --- the former scanner, as the reference ----------------------------------

_KEYWORDS = {
    "system", "var", "invariant", "init", "event", "when", "then", "skip",
    "variant", "property", "ensures", "leadsto", "via", "under", "using",
    "with", "si", "mp", "wf", "bool", "true", "false", "not", "and", "or",
}

_DIGITS = "0123456789"

_SYMBOLS = [
    ":in", ":=", "..", "[]", "!=", "<=", ">=",
    "{", "}", "(", ")", ",", ":", "=", "<", ">", "+", "-", "*",
]

Token = namedtuple("Token", "kind text line col")


def reference_tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _DIGITS:  # str.isdigit also accepts '²', which int() rejects
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise DslError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# --- the differential ------------------------------------------------------


def _lexed(text: str) -> list[Token] | str:
    """Every token of ``text`` with its line and column, or the error."""
    try:
        parser = _Parser(text)
    except DslError as exc:
        return str(exc)
    return [Token(k, t, *parser.position(i))
            for i, (k, t) in enumerate(zip(parser.kinds, parser.texts))]


def _reference(text: str) -> list[Token] | str:
    try:
        return reference_tokenize(text)
    except DslError as exc:
        return str(exc)


def _corpus() -> dict[str, str]:
    texts = {}
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".evt"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    for name, model in FAMILIES.items():
        texts[name] = model.text
    return texts


CORPUS = _corpus()

# characters that the edits insert: every blank, symbol and comment start,
# ASCII and other digits, letters, and characters the language rejects
_PIECES = list(" \t\r\n#:.=[]!{}(),<>+-*_aZx019") + [
    "²", "٣", "ǅ", "\xa0", "\f", "é", "a²", ":in", "..", "skip", "# c\n", "\r\n",
]


def _edit(text: str, rng: random.Random) -> str:
    """``text`` after one to three random deletions, insertions or cuts."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif roll < 0.9:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        else:
            text = text[:i]
    return text


def test_every_keyword_and_symbol_is_the_references():
    assert set(dsl._KEYWORDS) == _KEYWORDS
    assert list(dsl._SYMBOLS) == _SYMBOLS


def test_keywords_and_symbols_share_one_string():
    parser = _Parser("system s event e then x := 1 [] x := 2\nevent f then x := 1\n")
    assert parser.texts[2] is parser.texts[12] and parser.texts[6] is parser.texts[10]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_tokens_match_the_reference(name):
    text = CORPUS[name]
    assert isinstance(_reference(text), list)
    assert _lexed(text) == _reference(text)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_random_edits_match_the_reference(name):
    rng = random.Random(name)
    outcomes = {"tokens": 0, "error": 0}
    for _ in range(60):
        text = _edit(CORPUS[name], rng)
        want = _reference(text)
        assert _lexed(text) == want, repr(text)
        outcomes["tokens" if isinstance(want, list) else "error"] += 1
    assert min(outcomes.values()) >= 3, outcomes


@pytest.mark.parametrize("text, want", [
    ("²", "1:1: unexpected character '²'"),
    ("x ٣", "1:3: unexpected character '٣'"),
    ("a\n 12٣", "2:4: unexpected character '٣'"),
    ("a²", [("ident", "a²", 1, 1), ("eof", "", 1, 3)]),
    ("\xa0", "1:1: unexpected character '\\xa0'"),
    ("x\f", "1:2: unexpected character '\\x0c'"),
    ("x .", "1:3: unexpected character '.'"),
    ("x\n[", "2:1: unexpected character '['"),
    ("!x", "1:1: unexpected character '!'"),
    (":inx", [(":in", ":in", 1, 1), ("ident", "x", 1, 4), ("eof", "", 1, 5)]),
    ("3abc", [("int", "3", 1, 1), ("ident", "abc", 1, 2), ("eof", "", 1, 5)]),
    ("\tx\t:=", [("ident", "x", 1, 2), (":=", ":=", 1, 4), ("eof", "", 1, 6)]),
    ("x\r\ny", [("ident", "x", 1, 1), ("ident", "y", 2, 1), ("eof", "", 2, 2)]),
    ("x # c", [("ident", "x", 1, 1), ("eof", "", 1, 3)]),
    ("x # c\n", [("ident", "x", 1, 1), ("eof", "", 2, 1)]),
    ("x  #", [("ident", "x", 1, 1), ("eof", "", 1, 4)]),
    ("x\n  # c\n  y  ", [("ident", "x", 1, 1), ("ident", "y", 3, 3), ("eof", "", 3, 6)]),
    ("", [("eof", "", 1, 1)]),
])
def test_edge_cases(text, want):
    assert _reference(text) == _lexed(text) == (want if isinstance(want, str) else
                                                [Token(*t) for t in want])


def test_end_of_input_after_a_trailing_comment_sits_at_its_hash():
    with pytest.raises(DslError) as exc:
        parse("system s\nvar x : # c")
    assert str(exc.value) == "2:9: expected int, got 'end of input'"
    assert (exc.value.line, exc.value.col) == (2, 9)


def test_positions_asked_out_of_order():
    text = CORPUS["ring4"]
    forward = _lexed(text)
    parser = _Parser(text)
    backward = [parser.position(i) for i in reversed(range(len(parser.kinds)))]
    assert backward[::-1] == [(t.line, t.col) for t in forward]


def test_declarations_carry_their_lines():
    body = "".join(f"event e{i} then skip  # {i}\n" for i in range(3000))
    ast = parse("system s\nvar x : bool\n" + body + "property p : leadsto {x} {x} under mp\n")
    assert [e.line for e in ast.events] == list(range(3, 3003))
    assert ast.properties[0].line == 3003
