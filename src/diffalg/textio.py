"""Text format for differential polynomials and systems.

Grammar (whitespace-insensitive within a line):
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ['^' INT]
    primary:= INT ['/' INT] | deriv | '(' expr ')'
    deriv  := NAME primes | NAME '^(' INT ')'
    NAME   := [a-zA-Z][a-zA-Z0-9_]*
Primes mark orders 1..3 in output but any count parses; x^(k) parses for
k >= 0.  A bare '^' followed by an integer is a power, so x'^2 is (x')^2.
So a sign stands only at the start of an expression or after '(', '/' only
inside a rational literal, and x'^(3) and (...)^(k) are errors.  Orders over
diffpoly.MAX_ORDER, powers over diffpoly.MAX_EXPONENT and powers past
MAX_TERMS or MAX_COEFF_BITS raise ResourceLimit, an implementation cap,
before anything is built; so does an integer literal longer than the
interpreter converts from text.

System files: one polynomial per line, '#' comments, optional leading
"vars: x, y, z" line fixing the variable order.  A declared name, from that
line or given explicitly, must be one NAME.

A line is tokenized once, into (kind, value) tokens ending in an "end"
token, an operator's kind being its character; _Parser reads them.  A token
carries no column: an error finds it by scanning the line again (_column).
The parser sums each expression's terms into one packed term dict and
builds one DiffPoly per line.  A factor or a product of factors is kept as
one (monomial, coefficient) term while it is one; a sum in parentheses
makes it a term dict.  Its arithmetic is diffpoly's, the rules and caps
DiffPoly's operators use: _integral, _offset, _merge, _guard, _product and
_power.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .diffpoly import (
    _NAME,
    MAX_EXPONENT,
    MAX_ORDER,
    DiffPoly,
    DiffRing,
    _canon,
    _guard,
    _integral,
    _merge,
    _offset,
    _poly,
    _power,
    _product,
    _word,
)
from .errors import ResourceLimit, digit_limit, digits_size

_TOKEN = re.compile(r"%s|\d+|\S" % _NAME.pattern)  # a name, an integer or one other character
_OPERATORS = {op: (op, op) for op in "-+*^/()'"}  # the token of each operator


class ParseError(ValueError):
    def __init__(self, msg, text, pos):
        self.pos = pos
        super().__init__("%s at column %d: %r" % (msg, pos + 1, text))


def _column(text, i):
    """The column (from 0) of token i of text: where its match starts, or
    len(text) for the end token."""
    m = next(itertools.islice(_TOKEN.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _tokenize(text):
    out = []
    for tok in _TOKEN.findall(text):
        t = _OPERATORS.get(tok)
        if t is None:
            if tok.isascii() and tok[0].isalpha():
                t = ("name", tok)
            elif tok.isdecimal():  # what \d matches
                try:
                    t = ("int", int(tok))
                except ValueError:  # more digits than the interpreter converts
                    where = " at column %d: %r" % (_column(text, len(out)) + 1, text)
                    raise digit_limit("integer of %s" % digits_size(len(tok)), where) from None
            else:
                raise ParseError("unexpected character %r" % tok, text, _column(text, len(out)))
        out.append(t)
    out.append(("end", None))
    return out


def _single(t):
    """A canonical term dict as one (monomial, coefficient) term when it has
    at most one term ((0, 0) for zero), else t itself."""
    return t if len(t) > 1 else next(iter(t.items()), (0, 0))


def _terms(v):
    """(term dict, support word) of a term or a term dict."""
    if type(v) is dict:
        return v, _word(v)
    m, c = v
    return ({m: c} if c else {}), m


class _Parser:
    """Recursive descent over the tokens of one line, with one cursor `i`.
    An expression is a canonical packed term dict; a term, factor or primary
    is one (monomial, coefficient) term ((0, 0) for zero) or a canonical
    packed term dict of two or more terms."""

    def __init__(self, text, toks, ring):
        self.text, self.toks, self.ring, self.i = text, toks, ring, 0

    def _error(self, message, i):
        """ParseError(message) at the column of token i."""
        return ParseError(message, self.text, _column(self.text, i))

    def _take(self, kind, message):
        """The value of the token at the cursor, which moves past it;
        ParseError(message) at its column unless the token is of `kind`."""
        k, val = self.toks[self.i]
        if k != kind:
            raise self._error(message, self.i)
        self.i += 1
        return val

    def _capped(self, value, cap, what, i):
        """value, or ResourceLimit at the column of token i when it is over cap."""
        if value > cap:
            raise ResourceLimit(
                "%s %d over the cap of %d at column %d: %r" % (what, value, cap, _column(self.text, i) + 1, self.text))
        return value

    def parse(self):
        t = self.expr()
        self._take("end", "trailing input")
        return _poly(self.ring, t)

    def expr(self):
        """The terms of the expression, with their signs, summed into one
        accumulator by one _merge."""
        pairs = []
        toks = self.toks
        sign = toks[self.i][0]
        while True:
            negate = sign == "-"
            if negate or sign == "+":
                self.i += 1
            v = self.term()
            if type(v) is dict:
                pairs.extend(((m, -c) for m, c in v.items()) if negate else v.items())
            elif v[1]:
                pairs.append((v[0], -v[1]) if negate else v)
            sign = toks[self.i][0]
            if sign != "+" and sign != "-":
                return _canon(_merge({}, pairs))

    def term(self):
        v = self.factor()
        while self.toks[self.i][0] == "*":
            self.i += 1
            f = self.factor()
            if type(v) is tuple and type(f) is tuple:
                # one coefficient product and one monomial sum, refused where
                # _product would refuse it
                _guard(self.ring, v[0], f[0])
                c = v[1] * f[1]
                v = (v[0] + f[0], c) if c else (0, 0)
            else:
                v = _single(_product(self.ring, *_terms(v), *_terms(f)))
        return v

    def factor(self):
        v = self.primary()
        toks = self.toks
        if toks[self.i][0] == "^" and toks[self.i + 1][0] != "(":  # '^(' after primes or ')' is trailing input
            self.i += 1
            k = self._capped(self._take("int", "expected exponent"), MAX_EXPONENT, "power", self.i - 1)
            v = _single(_power(self.ring, *_terms(v), k))
        return v

    def primary(self):
        toks, at = self.toks, self.i
        kind, val = toks[at]
        i = self.i = at + 1
        if kind == "name":
            ring = self.ring
            var = ring.index.get(val)
            if var is None:
                raise self._error("unknown variable %r" % val, at)
            while toks[i][0] == "'":
                i += 1
            order = i - at - 1
            if order:
                self.i = i
            elif toks[i][0] == "^" and toks[i + 1][0] == "(":
                self.i = i + 2
                order = self._take("int", "expected derivative order")
                self._take(")", "expected ')'")
            return 1 << _offset(ring, var, self._capped(order, MAX_ORDER, "derivative order", at), True), 1
        if kind == "int":
            if toks[i][0] != "/":
                return 0, val
            self.i = i + 1
            den = self._take("int", "expected denominator")
            if not den:
                raise self._error("zero denominator", i + 1)
            return 0, _integral(Fraction(val, den))
        if kind == "(":
            t = self.expr()
            self._take(")", "expected ')'")
            return _single(t)
        raise self._error("unexpected token", at)


def parse_poly(text, ring: DiffRing) -> DiffPoly:
    return _Parser(text, _tokenize(text), ring).parse()


def parse_system(text, names=None):
    """Parse a system file; returns (ring, [polynomials]).

    Variable order: explicit `names`, else a leading "vars:" line, else
    order of first appearance.  Each line is tokenized once: all before any
    is parsed when the names are scanned from them, else each as it is parsed.
    """
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if lines and lines[0].lower().startswith("vars:"):
        declared = [s.strip() for s in lines.pop(0)[5:].split(",") if s.strip()]
        if names is None:
            names = declared
    if names is None:
        toks = [_tokenize(ln) for ln in lines]
        names = list(dict.fromkeys(val for t in toks for kind, val in t if kind == "name"))
    else:
        toks = map(_tokenize, lines)
        for nm in names:
            if not (isinstance(nm, str) and _NAME.fullmatch(nm)):
                raise ParseError("variable %r is not a name" % (nm,), "vars: " + ", ".join(map(str, names)), 0)
    if not names:
        raise ParseError("no variables found", text, 0)
    ring = DiffRing(names)
    return ring, [_Parser(ln, t, ring).parse() for ln, t in zip(lines, toks)]
