"""The text format: one digest over the outcomes of seeded strings and
systems, which error wins across two bad lines, one tokenization per
polynomial line, and the check on declared variable names."""

import hashlib
import json
import random
import re

import pytest

import diffalg.textio as textio
from diffalg import DiffRing, ParseError, ResourceLimit, parse_poly, parse_system
from diffalg.diffpoly import describe

RING = DiffRing(("x", "y", "z"))
# one digit over, and exactly at, the interpreter's default limit of 4,300
# digits for integer-string conversion
OVER_LIMIT = "9" * 4301
AT_LIMIT = "8" * 4300

# single tokens and short runs of them: names (two outside RING), primes,
# powers and orders (some past the caps), parentheses, rationals (some with
# a zero or missing denominator), stray characters, a non-ASCII digit
# (which \d reads as 3) and whitespace
PIECES = (
    "x", "y", "z", "q", "x1", "y_2",
    "'", "''", "^", "^0", "^2", "^3", "^40000", "^(", "^(0)", "^(2)", "^(12)", "^(1001)",
    "(", ")", "+", "-", "*", "/",
    "0", "1", "2", "7", "12", "3/4", "12/8", "5/0", "0/3", "1/",
    "$", "@", "é", "٣", "#", " ", "\t",
    OVER_LIMIT, AT_LIMIT,
)


def _join(pieces):
    """The pieces as one string; a space keeps two numbers apart, so that no
    power of a sum gets an exponent that takes long to expand."""
    out = ""
    for p in pieces:
        if out[-1:].isdigit() and p[:1].isdigit():
            out += " "
        out += p
    return out


def _expr(rng, names, depth):
    """A string of the grammar over `names`."""
    terms = []
    for i in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if r < 0.25:
                f = rng.choice(("0", "1", "2", "7", "3/4", "12/8"))
            elif r < 0.8 or depth == 0:
                f = rng.choice(names) + rng.choice(("", "'", "''", "'''", "^(4)", "^(0)", "''''"))
            else:
                f = "(" + _expr(rng, names, depth - 1) + ")"
            if rng.random() < 0.2:
                f += "^" + rng.choice("0123")
            factors.append(f)
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "", "-", "+"))
        terms.append(sign + rng.choice(("*", " * ")).join(factors))
    return rng.choice((" ", "")).join(terms)


def _mutate(rng, text):
    """text with one piece inserted, or one character dropped or replaced."""
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.4:
        return _join((text[:i], rng.choice(PIECES), text[i:]))
    if r < 0.7:
        return _join((text[:i], text[i + 1 :]))
    return _join((text[:i], rng.choice(PIECES), text[i + 1 :]))


def _string(rng):
    r = rng.random()
    if r < 0.4:
        return _join(rng.choice(PIECES) for _ in range(rng.randint(1, 10)))
    text = _expr(rng, ("x", "y", "z"), 2)
    return text if r < 0.7 else _mutate(rng, text)


def _system(rng):
    """(text, names) of a system over x, y, z, u: polynomial lines (some
    mutated), comments and blank lines, with or without a vars: line, and
    sometimes with explicit names."""
    pool = ["x", "y", "z", "u"]
    lines = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("", "   ", "# a comment", "\t# x $")))
            continue
        text = _expr(rng, pool[: rng.randint(1, 4)], 1)
        if r > 0.8:
            text = _mutate(rng, text)
        if rng.random() < 0.2:
            text += rng.choice((" # note", "#", "  # q $ '"))
        lines.append(text)
    if rng.random() < 0.5:
        declared = rng.sample(pool, rng.randint(0, 4))
        if rng.random() < 0.2:
            declared.append(rng.choice(declared or ["x"]))  # a duplicate
        sep = rng.choice((", ", ",", " ,", ",, "))
        lines.insert(rng.randint(0, 1) if lines else 0, rng.choice(("vars:", "VARS:", "Vars: ")) + sep.join(declared))
    names = None
    if rng.random() < 0.25:
        names = rng.sample(pool, rng.randint(0, 4))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n")), names


def _outcome(call):
    """["=", the result] or [the exception's type, its message]."""
    try:
        return ["=", call()]
    except (ValueError, ResourceLimit) as e:
        return [type(e).__name__, str(e)]


def _parsed(text):
    return describe(parse_poly(text, RING))


def _system_parsed(text, names):
    ring, polys = parse_system(text, names)
    return [list(ring.names), [describe(p) for p in polys]]


def test_parse_outcomes_are_pinned():
    # One digest over what parse_poly and parse_system make of seeded
    # strings and systems: the rendered result, or the exception's type and
    # message (its column included), so any change to the grammar, to a
    # result or to an error text shows here.
    rng = random.Random(20)
    h = hashlib.sha256()
    valid = 0
    for _ in range(20000):
        text = _string(rng)
        out = _outcome(lambda: _parsed(text))
        valid += out[0] == "="
        h.update(json.dumps([text, out]).encode())
    for _ in range(3000):
        text, names = _system(rng)
        out = _outcome(lambda: _system_parsed(text, names))
        valid += out[0] == "="
        h.update(json.dumps([text, names, out]).encode())
    assert valid == 8520
    assert h.hexdigest() == "e3babe275b8783c33ea74977b169d6971865612500f070cddd93c811c421848a"


def test_which_of_two_bad_lines_reports():
    # with the names known, lines are read in order: line 1's unknown
    # variable reports before line 2's stray character
    for text, names in (("vars: x\nq + 1\nx $ 2\n", None), ("q + 1\nx $ 2\n", ["x"])):
        with pytest.raises(ParseError, match="unknown variable 'q' at column 1: 'q \\+ 1'"):
            parse_system(text, names)
    # with the names scanned from the lines, every line is tokenized before
    # any is parsed: line 2's stray character reports before line 1's
    # unknown token
    with pytest.raises(ParseError, match=r"unexpected character '\$' at column 3: 'x \$ 2'"):
        parse_system("x +\nx $ 2\n")
    with pytest.raises(ParseError, match="unexpected token at column 4: 'x \\+'"):
        parse_system("x +\nx - 2\n")


def test_each_polynomial_line_is_tokenized_once(monkeypatch):
    calls = []
    tokenize = textio._tokenize

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(textio, "_tokenize", counted)
    body = "# a comment\nx' - y\n\n  y'' + x*y  # note\n(x + 1)^2\n"
    lines = ["x' - y", "y'' + x*y", "(x + 1)^2"]
    for text, names in ((body, None), ("vars: y, x\n" + body, None), (body, ["x", "y"])):
        calls.clear()
        ring, polys = parse_system(text, names)
        assert len(polys) == 3
        assert calls == lines, (text, names)


def test_declared_names_must_be_names():
    # a declared name, from a vars: line or given explicitly, is one NAME
    # token; anything else is refused before any line is read
    for text, names, bad in (
        ("vars: x y\nx + y\n", None, "x y"),
        ("vars: x, 2y\nx\n", None, "2y"),
        ("x + y\n", ["x", ""], ""),
        ("x + y\n", ["x", "y "], "y "),
        ("x\n", ["x", "é"], "é"),
    ):
        with pytest.raises(ParseError, match="variable %s is not a name" % re.escape(repr(bad))):
            parse_system(text, names)
    ring, _ = parse_system("vars: x_1, y2 ,, Z\nx_1 + y2 + Z\n")
    assert ring.names == ("x_1", "y2", "Z")
