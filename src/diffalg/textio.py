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

A line is tokenized once, into (kind, value, column) tokens ending in an
"end" token, an operator's kind being its character; _Parser reads them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diffpoly import _NAME, MAX_EXPONENT, MAX_ORDER, DiffPoly, DiffRing
from .errors import ResourceLimit, digit_limit, digits_size

_TOKEN = re.compile(r"\s*(?:(?P<name>%s)|(?P<int>\d+)|(?P<op>[-+*^/()'])|(?P<bad>\S))" % _NAME.pattern)


class ParseError(ValueError):
    def __init__(self, msg, text, pos):
        self.pos = pos
        super().__init__("%s at column %d: %r" % (msg, pos + 1, text))


def _capped(value, cap, what, text, pos):
    if value > cap:
        raise ResourceLimit("%s %d over the cap of %d at column %d: %r" % (what, value, cap, pos + 1, text))
    return value


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        val, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError("unexpected character %r" % val, text, pos)
        if kind == "int":
            try:
                val = int(val)
            except ValueError:  # more digits than the interpreter converts
                where = " at column %d: %r" % (pos + 1, text)
                raise digit_limit("integer of %s" % digits_size(len(val)), where) from None
        out.append((val if kind == "op" else kind, val, pos))
    out.append(("end", None, len(text)))
    return out


class _Parser:
    """Recursive descent over the tokens of one line, with one cursor `i`."""

    def __init__(self, text, toks, ring):
        self.text, self.toks, self.ring, self.i = text, toks, ring, 0

    def _op(self, ops, ahead=0):
        """The operator `ahead` tokens past the cursor if it is one of `ops`, else ""."""
        kind = self.toks[self.i + ahead][0]
        return kind if kind in ops else ""

    def _take(self, kind, message):
        """(value, column) of the token at the cursor, which moves past it;
        ParseError(message) at its column unless the token is of `kind`."""
        k, val, pos = self.toks[self.i]
        if k != kind:
            raise ParseError(message, self.text, pos)
        self.i += 1
        return val, pos

    def parse(self):
        p = self.expr()
        self._take("end", "trailing input")
        return p

    def expr(self):
        sign = self._op("+-")
        self.i += bool(sign)
        p = -self.term() if sign == "-" else self.term()
        while True:
            sign = self._op("+-")
            if not sign:
                return p
            self.i += 1
            t = self.term()
            p = p + t if sign == "+" else p - t

    def term(self):
        p = self.factor()
        while self._op("*"):
            self.i += 1
            p = p * self.factor()
        return p

    def factor(self):
        p = self.primary()
        if self._op("^") and not self._op("(", 1):  # '^(' after primes or ')' is trailing input
            self.i += 1
            k, pos = self._take("int", "expected exponent")
            p = p ** _capped(k, MAX_EXPONENT, "power", self.text, pos)
        return p

    def primary(self):
        kind, val, pos = self.toks[self.i]
        self.i += 1
        if kind == "int":
            if not self._op("/"):
                return self.ring.const(val)
            self.i += 1
            den, at = self._take("int", "expected denominator")
            if den == 0:
                raise ParseError("zero denominator", self.text, at)
            return self.ring.const(Fraction(val, den))
        if kind == "name":
            if val not in self.ring.index:
                raise ParseError("unknown variable %r" % val, self.text, pos)
            order = 0
            while self._op("'"):
                self.i += 1
                order += 1
            if not order and self._op("^") and self._op("(", 1):
                self.i += 2
                order, _ = self._take("int", "expected derivative order")
                self._take(")", "expected ')'")
            return self.ring.var(val, _capped(order, MAX_ORDER, "derivative order", self.text, pos))
        if kind == "(":
            p = self.expr()
            self._take(")", "expected ')'")
            return p
        raise ParseError("unexpected token", self.text, pos)


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
        names = list(dict.fromkeys(val for t in toks for kind, val, _ in t if kind == "name"))
    else:
        toks = map(_tokenize, lines)
        for nm in names:
            if not (isinstance(nm, str) and _NAME.fullmatch(nm)):
                raise ParseError("variable %r is not a name" % (nm,), "vars: " + ", ".join(map(str, names)), 0)
    if not names:
        raise ParseError("no variables found", text, 0)
    ring = DiffRing(names)
    return ring, [_Parser(ln, t, ring).parse() for ln, t in zip(lines, toks)]
