"""Sparse differential polynomials over Q with rational constants.

A differential polynomial lives in Q{x1,...,xn}: coefficients are exact
rationals, stored as an int where integral and as a Fraction otherwise;
monomials are multisets of derivatives x_i^(k).  The derivation acts by
x_i^(k) -> x_i^(k+1) and kills constants.

Monomial invariant (packed exponent vectors, as in Bachmann and Schoenemann,
ISSAC 1998, and Monagan and Pearce, CASC 2007): a monomial is one
non-negative int in which the exponent of x_v^(k) fills the FIELD_BITS-wide
bit field of index k*n + v, n the number of variables of the ring; the unit
monomial is 0.  The product of two monomials is the sum of their ints.  The
field index orders derivatives exactly as (order, var), so comparing two
monomial ints compares them in the orderly term order that render uses.  A
factor of a product, a derivation or a power carries exponents of at most
MAX_EXPONENT, the lower half of a field, so that a sum of two never carries
into the next field; orders are capped at MAX_ORDER, so a monomial stays a
bounded int.  Both caps raise ResourceLimit before a field could overflow.
Each polynomial caches its support word, the OR of its monomials: a field of
the word is nonzero iff that derivative occurs, so is_constant and order_in
are a test and a mask, and the orderly leader is the word's top field.  An
elimination leader is the occurring derivative of largest Ranking.key, the
order a division's measure compares (Ritt 1950, ch. I; Kolchin 1973).
DiffPoly(ring, terms) is the public way in, from (Derivative, exponent)
tuple monomials; `terms` decodes the same dict back.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import ResourceLimit, digit_limit

NEG_INF = float("-inf")
POS_INF = float("inf")


def jsonable(v):
    """v for a JSON document: NEG_INF and POS_INF become "-inf" and "inf"."""
    return "-inf" if v == NEG_INF else "inf" if v == POS_INF else v


FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1  # 32767
MAX_ORDER = 1000


class Derivative(namedtuple("Derivative", "var order")):
    """The derivative x_var^(order)."""

    __slots__ = ()


MONO_ONE = ()  # the unit monomial of the `terms` view


def _integral(c):
    # a Fraction (or other rational) with denominator 1 is stored as an int
    return c.numerator if c.denominator == 1 else c


_INT = frozenset((int,))


def _canon(acc):
    """A packed term dict without zero coefficients, integral ones as ints
    (acc itself when it is one already, as it is for most sums and products)."""
    vals = acc.values()
    if 0 in vals or not _INT.issuperset(map(type, vals)):
        return {m: c if type(c) is int else _integral(c) for m, c in acc.items() if c}
    return acc


def _shifts(w):
    """Bit offsets of the nonzero fields of w, highest first: one step per
    nonzero field, however many zero fields lie between."""
    out = []
    while w:
        s = (w.bit_length() - 1) // FIELD_BITS * FIELD_BITS
        out.append(s)
        w -= (w >> s) << s
    return out


def _at(s, nvars):
    """The derivative whose field starts at bit offset s."""
    order, var = divmod(s // FIELD_BITS, nvars)
    return Derivative(var, order)


def _mono_degree(m):
    """Total degree of a packed monomial: the sum of its fields."""
    return sum((m >> s) & _FIELD for s in _shifts(m))


def _encode(ring, mono):
    """Packed int of a monomial given as (Derivative, exponent) pairs."""
    exps = {}
    for d, e in mono:
        var, order = d
        if not 0 <= var < ring.nvars:
            raise ValueError("no variable %r" % (var,))
        if order < 0 or e < 0:
            raise ValueError("negative order or exponent in %r" % (mono,))
        if order > MAX_ORDER:
            raise ResourceLimit("derivative order %d exceeds the cap MAX_ORDER = %d" % (order, MAX_ORDER))
        idx = order * ring.nvars + var
        exps[idx] = exps.get(idx, 0) + e
    m = 0
    for idx, e in exps.items():
        if e > _FIELD:
            raise ResourceLimit("exponent %d does not fit a %d-bit field" % (e, FIELD_BITS))
        m += e << (idx * FIELD_BITS)
    return m


def _decode(nvars, m):
    """(Derivative, exponent) pairs of a packed monomial, sorted by derivative."""
    return tuple(sorted((_at(s, nvars), (m >> s) & _FIELD) for s in _shifts(m)))


class _Layout:
    """Masks over the packed fields of a ring of `nvars` variables: one per
    variable (its field at every order), and `guard`, the top bit of every
    field (an exponent over MAX_EXPONENT).  They cover the first `orders`
    orders and grow with the longest support word they are asked about."""

    def __init__(self, nvars):
        self.nvars = nvars
        self._build(8)

    def _build(self, orders):
        period = self.nvars * FIELD_BITS
        rep = sum(1 << (period * k) for k in range(orders))  # 1 in the first field of each order
        self.var = tuple((_FIELD << (v * FIELD_BITS)) * rep for v in range(self.nvars))
        self.guard = sum(1 << (FIELD_BITS - 1 + v * FIELD_BITS) for v in range(self.nvars)) * rep
        self.orders = orders
        self.limit = (1 << (period * orders)) - 1

    def cover(self, w):
        """self, with masks at least as long as the word w."""
        if w > self.limit:
            period = self.nvars * FIELD_BITS
            self._build(max(2 * self.orders, -(-w.bit_length() // period)))
        return self


class DiffRing:
    """Names the variables; polynomials carry a reference to their ring."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self.nvars = len(names)
        self.index = {nm: i for i, nm in enumerate(names)}
        self._layout = _Layout(self.nvars)

    def __eq__(self, other):
        return isinstance(other, DiffRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "DiffRing(%s)" % ", ".join(self.names)

    def const(self, c) -> "DiffPoly":
        if type(c) is not int:
            c = _integral(Fraction(c))
        return _poly(self, {0: c} if c else {})

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def var_index(self, which) -> int:
        """The index of a variable given by name or by index."""
        idx = self.index.get(which) if isinstance(which, str) else which
        if idx is None or not 0 <= idx < self.nvars:
            raise ValueError("no variable %r" % (which,))
        return idx

    def var(self, which, order=0) -> "DiffPoly":
        """The derivative x_which^(order) as a polynomial."""
        idx = self.var_index(which)
        if order < 0:
            raise ValueError("negative order")
        if order > MAX_ORDER:
            raise ResourceLimit("derivative order %d exceeds the cap MAX_ORDER = %d" % (order, MAX_ORDER))
        return _poly(self, {1 << ((order * self.nvars + idx) * FIELD_BITS): 1})

    def extend(self, name) -> "DiffRing":
        """New ring with one fresh variable appended."""
        if name in self.index:
            raise ValueError("name %r already in ring" % name)
        return DiffRing(self.names + (name,))

    def lift(self, poly: "DiffPoly") -> "DiffPoly":
        """Reinterpret a polynomial of a prefix ring in this ring."""
        if poly.ring.names != self.names[: len(poly.ring.names)]:
            raise ValueError("ring %r is not a prefix of %r" % (poly.ring, self))
        if poly.ring.nvars == self.nvars:
            return _poly(self, poly._packed)
        # the field index k*n + v depends on n: re-encode
        return DiffPoly(self, poly.terms)


class DiffPoly:
    """Immutable sparse polynomial: packed monomial -> nonzero coefficient, an
    int when integral and a Fraction otherwise."""

    __slots__ = ("ring", "_packed", "_word", "_view", "_lead")

    def __init__(self, ring, terms):
        """From a dict (Derivative, exponent)-tuple monomial -> rational;
        zero coefficients are dropped and integral ones stored as ints."""
        acc = {}
        for mono, c in terms.items():
            m = _encode(ring, mono)
            acc[m] = acc.get(m, 0) + c
        self.ring = ring
        self._packed = _canon(acc)
        self._word = self._view = self._lead = None

    @property
    def terms(self):
        """dict monomial -> coefficient, each monomial a tuple of
        (Derivative, exponent) pairs sorted by derivative; decoded once."""
        view = self._view
        if view is None:
            n = self.ring.nvars
            view = self._view = {_decode(n, m): c for m, c in self._packed.items()}
        return view

    def _support(self):
        """The support word: the OR of all monomials, cached."""
        w = self._word
        if w is None:
            w = self._word = reduce(or_, self._packed, 0)
        return w

    def _shift(self, d):
        """Bit offset of the field of derivative d, None if d cannot occur."""
        var, order = d
        n = self.ring.nvars
        if 0 <= var < n and 0 <= order <= MAX_ORDER:
            return (order * n + var) * FIELD_BITS
        return None

    # -- basic ring operations ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self._packed)
        for m, c in other._packed.items():
            if m in acc:
                acc[m] += c
            else:
                acc[m] = c
        return _poly(self.ring, _canon(acc))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {m: -c for m, c in self._packed.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        acc = dict(self._packed)
        for m, c in other._packed.items():
            if m in acc:
                acc[m] -= c
            else:
                acc[m] = -c
        return _poly(self.ring, _canon(acc))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            # a number scales the coefficients, as ring.const(other) would
            return self._scaled(other if isinstance(other, int) else Fraction(other))
        if other.ring is not self.ring:
            self._coerce(other)  # equal rings pass, mixed rings raise
        t1, t2 = self._packed, other._packed
        if not t2 or len(t2) == 1 and 0 in t2:
            return self._scaled(t2.get(0, 0))
        if len(t1) == 1 and 0 in t1:
            return other._scaled(t1[0])
        return _poly(self.ring, _canon(_addmul({}, self, other)))

    __rmul__ = __mul__

    def _scaled(self, k):
        """self * k for a rational number k."""
        if not k:
            return _poly(self.ring, {})
        if k == 1:
            return self
        return _poly(self.ring, _canon({m: c * k for m, c in self._packed.items()}))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        t = self._packed
        w = self._support()
        # the power's largest exponent is k times the base's: refuse it
        # unbuilt (a constant's power is held to k <= MAX_EXPONENT as well)
        top = max((m >> s) & _FIELD for m in t for s in _shifts(w)) if w else 1
        if k * top > MAX_EXPONENT:
            raise ResourceLimit(
                "power %d of a polynomial with exponents up to %d exceeds the cap MAX_EXPONENT = %d"
                % (k, top, MAX_EXPONENT)
            )
        if len(t) == 1:
            ((m, c),) = t.items()
            return _poly(self.ring, {m * k: c**k})
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, DiffPoly) and self.ring == other.ring and self._packed == other._packed

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self._packed.items()))))

    def __bool__(self):
        return bool(self._packed)

    def is_constant(self):
        return not self._support()

    def support(self):
        """All derivatives occurring in some monomial."""
        n = self.ring.nvars
        return {_at(s, n) for s in _shifts(self._support())}

    def variables(self):
        return sorted({d.var for d in self.support()})

    # -- differential structure -----------------------------------------

    def derive(self, times=1):
        """Apply the derivation (Leibniz on monomials, constants to 0)."""
        p = self
        ring = self.ring
        up = ring.nvars * FIELD_BITS  # from the field of x_v^(k) to that of x_v^(k+1)
        for _ in range(times):
            w = p._support()
            if w and (w.bit_length() - 1) // up >= MAX_ORDER:
                raise ResourceLimit("derivative of order over the cap MAX_ORDER = %d" % MAX_ORDER)
            if w & ring._layout.cover(w).guard:
                raise ResourceLimit("derivation refused: an exponent over MAX_EXPONENT = %d" % MAX_EXPONENT)
            # d^e -> e * d^(e-1) * d': one field down by one, the next order's up by one
            steps = [(s, (1 << (s + up)) - (1 << s)) for s in _shifts(w)]
            acc = {}
            for m, c in p._packed.items():
                for s, bump in steps:
                    e = (m >> s) & _FIELD
                    if e:
                        mono = m + bump
                        if mono in acc:
                            acc[mono] += c * e
                        else:
                            acc[mono] = c * e
            p = _poly(ring, _canon(acc))
        return p

    def partial(self, d: Derivative):
        """Formal partial derivative with respect to one derivative symbol."""
        s = self._shift(d)
        if s is None or not (self._support() >> s) & _FIELD:
            return _poly(self.ring, {})
        # lowering the exponent of d is injective on the monomials holding d
        one = 1 << s
        acc = {}
        for m, c in self._packed.items():
            e = (m >> s) & _FIELD
            if e:
                acc[m - one] = c * e
        return _poly(self.ring, _canon(acc))

    def order_in(self, var):
        """Max derivative order of var, -inf when var does not occur (the
        strong convention; tropical.weak_entries reads -inf as 0 for the
        weak one)."""
        if isinstance(var, str):
            var = self.ring.var_index(var)
        w = self._support()
        n = self.ring.nvars
        if w and 0 <= var < n:
            x = w & self.ring._layout.cover(w).var[var]
            if x:
                return (x.bit_length() - 1) // (n * FIELD_BITS)
        return NEG_INF

    def leader_in(self, var):
        """(x_var^(k), degree in it) for k the order of var, or None when var
        does not occur."""
        var = self.ring.var_index(var)
        o = self.order_in(var)
        if o == NEG_INF:
            return None
        ld = Derivative(var, o)
        return ld, self.deg_in(ld)

    def coeffs_in(self, d: Derivative):
        """View as univariate in d: dict degree -> coefficient polynomial."""
        t = self._packed
        s = self._shift(d)
        if s is None or not (self._support() >> s) & _FIELD:
            return {0: self} if t else {}
        # dropping the factor d^e is injective on the monomials of one degree
        # e, so no bucket collects two terms and none can cancel
        out = {}
        for m, c in t.items():
            e = (m >> s) & _FIELD
            bucket = out.get(e)
            if bucket is None:
                bucket = out[e] = {}
            bucket[m - (e << s)] = c
        return {e: _poly(self.ring, b) for e, b in out.items()}

    def deg_in(self, d: Derivative):
        t = self._packed
        if not t:
            return NEG_INF
        s = self._shift(d)
        if s is None or not (self._support() >> s) & _FIELD:
            return 0
        mask = _FIELD << s
        return max(m & mask for m in t) >> s

    def _lowered(self, d: Derivative, e, k):
        """The terms of degree e in d with k of their factors d removed, for
        an occurring d and k <= e: the coefficient of d^e times d^(e-k)."""
        s = self._shift(d)
        mask, top, down = _FIELD << s, e << s, k << s
        return _poly(self.ring, {m - down: c for m, c in self._packed.items() if m & mask == top})

    def __repr__(self):
        return "DiffPoly(%s)" % render(self)

    __str__ = __repr__


_new = object.__new__


def _addmul(acc, a, b, negate=False):
    """acc + a*b, or acc - a*b when negate, into the packed term dict acc
    (returned; it may hold zero coefficients, see _canon).  The one product
    loop of the kernel: __mul__, a Ritt division step and the certificate
    check all sum their products here.  Unless a or b is a constant, it
    refuses, as __mul__ does, a factor with an exponent over MAX_EXPONENT,
    whose sum with another could carry out of its field."""
    if a.ring is not b.ring:
        a._coerce(b)  # equal rings pass, mixed rings raise
    wa, wb = a._support(), b._support()
    if wa and wb:
        w = wa | wb
        if w & a.ring._layout.cover(w).guard:
            raise ResourceLimit(
                "product refused: an exponent over MAX_EXPONENT = %d could carry out of its %d-bit field"
                % (MAX_EXPONENT, FIELD_BITS)
            )
    t1, t2 = a._packed, b._packed
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    for m1, c1 in t1.items():
        if negate:
            c1 = -c1
        for m2, c2 in t2.items():
            m = m1 + m2
            if m in acc:
                acc[m] += c1 * c2
            else:
                acc[m] = c1 * c2
    return acc


def _poly(ring, packed):
    """Trusted constructor: `packed` is a packed term dict that is canonical
    already (nonzero coefficients, integral ones as ints)."""
    p = _new(DiffPoly)
    p.ring = ring
    p._packed = packed
    p._word = p._view = p._lead = None
    return p


# -- rankings -------------------------------------------------------------


class Ranking(namedtuple("Ranking", "kind blocks")):
    """Orderly or block-elimination ranking on derivatives.

    kind 'orderly': compare (order, var index).
    kind 'elim': blocks of variable indices, later blocks rank higher;
    within a block compare (order, var index).
    """

    __slots__ = ()

    def __new__(cls, kind, blocks=()):
        if kind not in ("orderly", "elim"):
            raise ValueError("unknown ranking kind %r" % kind)
        if len({v for b in blocks for v in b}) != sum(map(len, blocks)):
            raise ValueError("variable repeated across blocks")
        return super().__new__(cls, kind, blocks)

    def key(self, d: Derivative):
        if self.kind == "orderly":
            return (d.order, d.var)
        for block, vs in enumerate(self.blocks):
            if d.var in vs:
                return (block, d.order, d.var)
        raise ValueError("variable %d not covered by blocks" % d.var)

    def leader(self, p: DiffPoly) -> Derivative:
        return self.leader_degree(p)[0]

    def leader_degree(self, p: DiffPoly):
        """(leader, degree of p in it), cached on p for this ranking.  The
        leader is the occurring derivative of largest key; under the orderly
        ranking that is the top field of the support word."""
        got = p._lead
        if got is not None and got[0] is self:
            return got[1]
        w = p._support()
        if not w:
            raise ValueError("leader of a constant")
        n = p.ring.nvars
        if self.kind == "orderly":
            ld = _at((w.bit_length() - 1) // FIELD_BITS * FIELD_BITS, n)
        else:
            # keys are taken highest field first, so an uncovered variable is
            # reported at its highest occurring derivative
            ld = max((_at(s, n) for s in _shifts(w)), key=self.key)
        got = (ld, p.deg_in(ld))
        p._lead = (self, got)
        return got

    def rank(self, p: DiffPoly):
        """(leader key, leader degree): the rank used by autoreduced sets."""
        ld, deg = self.leader_degree(p)
        return (self.key(ld), deg)


def orderly() -> Ranking:
    return Ranking("orderly")


def elimination(blocks) -> Ranking:
    return Ranking("elim", tuple(tuple(b) for b in blocks))


def _leader_degree(p: DiffPoly, var, ranking):
    """(leader, degree): in var if given, else under ranking."""
    if var is None:
        return ranking.leader_degree(p)
    got = p.leader_in(var)
    if got is None:
        raise ValueError("polynomial does not involve variable %s" % p.ring.names[p.ring.var_index(var)])
    return got


def separant(p: DiffPoly, var, ranking: Ranking = None) -> DiffPoly:
    """d p / d(leader); leader taken in var if given, else under ranking."""
    return p.partial(_leader_degree(p, var, ranking)[0])


def initial(p: DiffPoly, var, ranking: Ranking = None) -> DiffPoly:
    """Coefficient of the highest power of the leader."""
    ld, d = _leader_degree(p, var, ranking)
    return p._lowered(ld, d, d)


def is_lower_than(f: DiffPoly, g: DiffPoly, var) -> bool:
    """f lower than g per var: smaller order, or equal order and smaller
    degree in the leading derivative of var."""
    lf, lg = f.leader_in(var), g.leader_in(var)
    # (x_var^(k), degree) pairs of one variable compare by order, then degree
    return lg is not None and (lf is None or lf < lg)


# -- linear differential operators ----------------------------------------


class LinOp(namedtuple("LinOp", "ring coeffs")):
    """Element of the Weyl-type operator ring: sum c_k * D^k, c_k in the
    polynomial ring, D the derivation.  Relation: D r = r D + r'."""

    __slots__ = ()

    def __new__(cls, ring, coeffs):
        return super().__new__(cls, ring, {k: c for k, c in coeffs.items() if c})

    def apply(self, g: DiffPoly) -> DiffPoly:
        acc = {}
        gk, k = g, 0
        for j in sorted(self.coeffs):
            gk, k = gk.derive(j - k), j  # g^(j) from g^(k), k < j
            _addmul(acc, self.coeffs[j], gk)
        return _poly(self.ring, _canon(acc))

    def __repr__(self):
        if not self.coeffs:
            return "LinOp(0)"
        bits = []
        for k in sorted(self.coeffs, reverse=True):
            c = render(self.coeffs[k])
            head = "D^%d" % k if k >= 2 else ("D" if k == 1 else "1")
            bits.append("(%s)*%s" % (c, head))
        return "LinOp(%s)" % " + ".join(bits)


# -- canonical rendering ---------------------------------------------------


def render_derivative(ring, d: Derivative) -> str:
    name = ring.names[d.var]
    if d.order == 0:
        return name
    if d.order <= 3:
        return name + "'" * d.order
    return "%s^(%d)" % (name, d.order)


def _render_mono(ring, m) -> str:
    # factors from the top field down: descending (order, var)
    bits = []
    for s in _shifts(m):
        e = (m >> s) & _FIELD
        text = render_derivative(ring, _at(s, ring.nvars))
        bits.append(text + "^%d" % e if e > 1 else text)
    return "*".join(bits)


def render(p: DiffPoly) -> str:
    """Canonical text form: terms descending under the orderly ranking."""
    t = p._packed
    if not t:
        return "0"
    out = []
    try:
        for m in sorted(t, reverse=True):
            c = t[m]
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if not m:
                body = str(a)
            elif a == 1:
                body = _render_mono(p.ring, m)
            else:
                body = "%s*%s" % (a, _render_mono(p.ring, m))
            out.append((sign, body))
    except ValueError:  # str() of a coefficient past the interpreter's digit limit
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in t.values())
        raise digit_limit("a coefficient of %d bits" % bits) from None
    first_sign, first_body = out[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in out[1:]:
        s += " %s %s" % (sign, body)
    return s


_DESCRIBE_LIMIT = 1000  # characters of a polynomial shown in an error message


def describe(p: DiffPoly) -> str:
    """render(p) for error messages: cut after _DESCRIBE_LIMIT characters, and
    sized instead of written out when a coefficient passes the interpreter's
    limit on int-to-str conversion."""
    try:
        text = render(p)
    except ResourceLimit:
        if p.is_constant():
            (c,) = p._packed.values()
            text = "%s<%d-bit integer>" % ("-" if c < 0 else "", c.numerator.bit_length())
            if c.denominator != 1:
                text += "/<%d-bit integer>" % c.denominator.bit_length()
            return text
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p._packed.values())
        return "<%d-term polynomial, coefficients up to %d bits>" % (len(p._packed), bits)
    if len(text) > _DESCRIBE_LIMIT:
        text = "%s ... <%d characters>" % (text[:_DESCRIBE_LIMIT], len(text))
    return text
