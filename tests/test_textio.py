"""The text format: one digest over the outcomes of seeded strings and
systems, which error wins across two bad lines, one tokenization per
polynomial line, the check on declared variable names, parses against the
same expressions built by DiffPoly's arithmetic, and one DiffPoly built per
polynomial line."""

import hashlib
import json
import random
import re
import sys
from ast import literal_eval
from fractions import Fraction

import pytest

import diffalg.diffpoly as diffpoly
import diffalg.textio as textio
from diffalg import DiffPoly, DiffRing, ParseError, ResourceLimit, parse_poly, parse_system
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
    # result or to an error text shows here.  A line over _DESCRIBE_LIMIT
    # characters is quoted as a window of it.
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
    assert h.hexdigest() == "3381525052b9883ffdfb262be92a8a72ed81f0970316df61228b7ea0fac1b279"


def test_errors_on_long_lines_quote_a_window():
    # Each of the three messages that quote a line (a stray character or
    # token, an integer past the interpreter's digit limit, an order over
    # its cap), with the fault near either end of a line of exactly
    # _DESCRIBE_LIMIT characters, quoted whole, and of one more, quoted as a
    # window of _DESCRIBE_LIMIT characters that holds the faulty token, each
    # cut marked "...", and the line's length.  The column counts in the
    # whole line.
    limit = diffpoly._DESCRIBE_LIMIT
    digits = sys.get_int_max_str_digits()
    over = "9" * 641  # past the least digit limit the interpreter allows
    seen = set()
    try:
        sys.set_int_max_str_digits(640)
        for n in (limit, limit + 1):
            for head, tail, error, what, column, token in (
                ("x $", "", ParseError, "unexpected character '$'", 3, "$"),
                ("x", "$", ParseError, "unexpected character '$'", n, "$"),
                ("x", "+", ParseError, "unexpected token", n + 1, ""),
                (over, "", ResourceLimit, "integer of 641 digits", 1, over),
                ("x", over, ResourceLimit, "integer of 641 digits", n - 640, over),
                ("x^(1001)", "", ResourceLimit, "derivative order 1001 over the cap", 1, "x^(1001)"),
                ("x +", "x^(1001)", ResourceLimit, "derivative order 1001 over the cap", n - 7, "x^(1001)"),
            ):
                line = head + " " * (n - len(head) - len(tail)) + tail
                with pytest.raises(error) as e:
                    parse_poly(line, RING)
                msg = str(e.value)
                at = " at column %d: " % column
                assert msg.startswith(what) and at in msg, msg
                quoted = msg.split(at, 1)[1]
                if n == limit:
                    assert quoted == repr(line)
                    continue
                length = " <%d characters>" % n
                assert quoted.endswith(length) and len(msg) < 1200, msg
                window = quoted[: -len(length)]
                start = 1 if window.startswith("... ") else 0
                cut = window.endswith(" ...")
                window = literal_eval(window[4 * start : len(window) - 4 * cut])
                assert window == line[start : start + limit] and cut == (start + limit < n)
                assert start <= column - 1 and column - 1 + len(token) <= start + limit, msg
                seen.add((start, cut))
    finally:
        sys.set_int_max_str_digits(digits)
    assert seen == {(0, True), (1, False)}


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


# -- the parse against DiffPoly's arithmetic -----------------------------------

# coefficients whose sums and products often turn integral, or cancel
LITERALS = ("0", "1", "2", "3", "1/2", "3/2", "1/3", "2/3", "5/4", "12/8", "0/5")


def _arith_primary(rng, depth):
    """(text, polynomial) of a primary: the polynomial built from RING.var,
    RING.const and DiffPoly's + - * ** alone."""
    r = rng.random()
    if r < 0.3:
        lit = rng.choice(LITERALS)
        num, _, den = lit.partition("/")
        return lit, RING.const(Fraction(int(num), int(den or 1)))
    if r < 0.75 or depth == 0:
        name, order = rng.choice(RING.names), rng.randint(0, 5)
        if order and rng.random() < 0.5:
            return "%s^(%d)" % (name, order), RING.var(name, order)
        return name + "'" * order, RING.var(name, order)
    text, p = _arith_expr(rng, depth - 1)
    return "(%s)" % text, p


def _arith_term(rng, depth):
    text, p = None, None
    for _ in range(rng.randint(1, 3)):
        ftext, f = _arith_primary(rng, depth)
        if rng.random() < 0.25:
            k = rng.randint(0, 3)
            ftext, f = "%s^%d" % (ftext, k), f**k
        text, p = (ftext, f) if p is None else (text + rng.choice(("*", " * ")) + ftext, p * f)
    return text, p


def _arith_expr(rng, depth):
    """(text, polynomial) of a sum of terms, some of which repeat an earlier
    term with the other sign, so that they cancel."""
    texts, p = [], None
    terms = []
    for i in range(rng.randint(1, 4)):
        if terms and rng.random() < 0.3:
            t, q, neg = rng.choice(terms)
            neg = not neg
        else:
            (t, q), neg = _arith_term(rng, depth), rng.random() < 0.4
            terms.append((t, q, neg))
        if i == 0:
            texts.append(("-" if neg else rng.choice(("", "+"))) + t)
            p = -q if neg else q
        else:
            texts.append(("- " if neg else "+ ") + t)
            p = p - q if neg else p + q
    return " ".join(texts), p


def _coefficient_types(p):
    return sorted((m, type(c).__name__) for m, c in p.terms.items())


def test_parse_equals_public_arithmetic():
    # seeded expressions parse to the polynomial that RING.var, RING.const
    # and + - * ** build from the same pieces: equal, rendered alike, and
    # with the same coefficient types, an int wherever a coefficient is
    # integral (1/2*x + 1/2*x has the int coefficient 1)
    fixed = (
        ("1/2*x + 1/2*x", RING.var("x")),
        ("1/2 + 1/2", RING.one()),
        ("x - x", RING.zero()),
        ("3/4*x*y - 3/4*y*x + 1/4 + 3/4", RING.one()),
        ("(1/2)^0", RING.one()),
        ("(x + y)^2 - x^2 - 2*x*y - y^2", RING.zero()),
        ("(x - x + y)^3 - y^3 + x - 1/3*x - 2/3*x", RING.zero()),
    )
    rng = random.Random(32)
    cases = list(fixed) + [_arith_expr(rng, 2) for _ in range(3000)]
    integral = zero = 0
    for text, want in cases:
        got = parse_poly(text, RING)
        assert got == want and describe(got) == describe(want), text
        assert _coefficient_types(got) == _coefficient_types(want), text
        assert all((type(c) is int) == (c.denominator == 1) for c in got.terms.values()), text
        zero += not got
        integral += any("/" in lit for lit in LITERALS if lit in text) and all(type(c) is int for c in got.terms.values())
    assert zero > 300 and integral > 500, (zero, integral)


# -- one DiffPoly per polynomial line -------------------------------------------


def test_parse_builds_one_poly_per_line(monkeypatch):
    # the parser sums and multiplies packed term dicts and builds the one
    # DiffPoly of each line at its end: neither a literal, a derivative, a
    # product, a power of a sum nor a partial sum is a DiffPoly of its own
    built = []
    new, init = diffpoly._new, DiffPoly.__init__
    monkeypatch.setattr(diffpoly, "_new", lambda cls: built.append(cls) or new(cls))
    monkeypatch.setattr(DiffPoly, "__init__", lambda p, *a: built.append(type(p)) or init(p, *a))
    lines = [
        "x' - y + 3/4*x*y^2 - 7",
        "(x + y)^3 - (x - 1/2*y)^2*(y' + 1)",
        "2*(x + (y - z)^2)*(z'' - x^(4)) + x - x",
        "1/2*x + 1/2*x - x",
        "((x))^2 + (x + y + z)^0 + 0*(x + y)",
        "z",
    ]
    ring, polys = parse_system("vars: x, y, z\n# a comment\n" + "\n".join(lines) + "\n")
    assert len(built) == len(lines) and len(polys) == len(lines)
    assert polys[3] == 0 and polys[4] == parse_poly("x^2 + 1", ring) and polys[5] == ring.var("z")
    built.clear()
    parse_poly("(x + y)^4 - 3*x*(y - z)^2", RING)
    assert len(built) == 1
