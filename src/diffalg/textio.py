"""Text format for differential polynomials and systems.

Grammar (whitespace-insensitive within a line):
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ['^' INT]
    primary:= INT ['/' INT] | deriv | '(' expr ')'
    deriv  := NAME primes | NAME '^(' INT ')'
Primes mark orders 1..3 in output but any count parses; x^(k) parses for
k >= 0.  A bare '^' followed by an integer is a power, so x'^2 is (x')^2.
Orders over diffpoly.MAX_ORDER and powers over diffpoly.MAX_EXPONENT raise
ResourceLimit, an implementation cap, before anything is built; so does an
integer literal longer than the interpreter converts from text.

System files: one polynomial per line, '#' comments, optional leading
"vars: x, y, z" line fixing the variable order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diffpoly import MAX_EXPONENT, MAX_ORDER, DiffPoly, DiffRing
from .errors import ResourceLimit, digit_limit, digits_size

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*^/()'])|(?P<bad>\S))"
)


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
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError("unexpected character %r" % m.group("bad"), text, m.start("bad"))
        if m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            try:
                out.append(("int", int(m.group("int")), m.start("int")))
            except ValueError:  # more digits than the interpreter converts
                where = " at column %d: %r" % (m.start("int") + 1, text)
                raise digit_limit("integer of %s" % digits_size(len(m.group("int"))), where) from None
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def take(self):
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, self.text, pos)

    def parse(self):
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return p

    def expr(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        p = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                p = p + t if val == "+" else p - t
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            k2, v2, pos2 = self.peek(1)
            if k2 == "int":
                self.take()
                self.take()
                p = p ** _capped(v2, MAX_EXPONENT, "power", self.text, pos2)
            elif not (k2 == "op" and v2 == "("):
                raise ParseError("expected exponent", self.text, pos2)
        return p

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, pos3 = self.take()
                if k3 != "int":
                    raise ParseError("expected denominator", self.text, pos3)
                if v3 == 0:
                    raise ParseError("zero denominator", self.text, pos3)
                return self.ring.const(Fraction(val, v3))
            return self.ring.const(val)
        if kind == "name":
            if val not in self.ring.index:
                raise ParseError("unknown variable %r" % val, self.text, pos)
            order = 0
            while True:
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "'":
                    self.take()
                    order += 1
                else:
                    break
            if order == 0:
                k2, v2, _ = self.peek()
                k3, v3, _ = self.peek(1)
                if k2 == "op" and v2 == "^" and k3 == "op" and v3 == "(":
                    self.take()
                    self.take()
                    k4, v4, pos4 = self.take()
                    if k4 != "int":
                        raise ParseError("expected derivative order", self.text, pos4)
                    self.expect_op(")")
                    order = v4
            return self.ring.var(val, _capped(order, MAX_ORDER, "derivative order", self.text, pos))
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError("unexpected token", self.text, pos)


def parse_poly(text, ring: DiffRing) -> DiffPoly:
    return _Parser(text, ring).parse()


def _scan_names(lines):
    seen = []
    for ln in lines:
        for kind, val, _ in _tokenize(ln):
            if kind == "name" and val not in seen:
                seen.append(val)
    return seen


def _content_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_system(text, names=None):
    """Parse a system file; returns (ring, [polynomials]).

    Variable order: explicit `names`, else a leading "vars:" line, else
    order of first appearance.
    """
    lines = _content_lines(text)
    if lines and lines[0].lower().startswith("vars:"):
        declared = [s.strip() for s in lines[0][5:].split(",") if s.strip()]
        if names is None:
            names = declared
        lines = lines[1:]
    if names is None:
        names = _scan_names(lines)
    if not names:
        raise ParseError("no variables found", text, 0)
    ring = DiffRing(names)
    return ring, [parse_poly(ln, ring) for ln in lines]
