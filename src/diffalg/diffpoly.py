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
A power of a base of n terms is bounded before it is built, by C(k+n-1, k)
terms and coefficients within (sum of |numerators|)^k over lcm(denominators)^k:
past MAX_TERMS terms or MAX_COEFF_BITS bits it raises ResourceLimit too, as
do _addmul_terms, the one product loop, before more than MAX_PAIRS term
pairs len(a)*len(b), and a Ritt division step whose remainder passes MAX_TERMS.
Sums, products and powers are rules on packed term dicts (_merge, _product,
_power), which DiffPoly's operators and the parser (textio) share.
Each polynomial caches its support word, the OR of its monomials: a field of
the word is nonzero iff that derivative occurs, so is_constant is a test and
the orderly leader is the word's top field.  The three masks of a ring
(_Masks), one set per number of variables, span every order up to
MAX_ORDER, so every word: variable v's fields of a word w are
(w >> v*FIELD_BITS) & low.  A derivative ranks by
Ranking.key, its variable's prefix (the block under an elimination ranking,
resolved once per ranking) followed by (order, var): the one order that
leaders and a division's measure compare (Ritt 1950, ch. I; Kolchin 1973).
An elimination leader is the largest key over the occurring variables' tops.
A polynomial is immutable, so every other fact asked of it again is kept on
it too, each computed on first use: the `terms` view; per variable, the
order of its top derivative and the degree in it (read by order_in,
leader_in, the leaders and the division steps); the leader, degree and rank
under the last ranking asked; the separant and initial at the last leader
asked, with the derivative chain's entries less their leading parts at it
as far as a division needed them; the derivative chain g', g'', ... as far
as a division needed it, a tuple that is replaced whole, never grown in
place; its value at the replay point mod PRIME; and whether it is linear.
Two threads may compute one fact at once: each stores the same value, so
the caches take no lock.
DiffPoly(ring, terms) is the public way in, from (Derivative, exponent)
tuple monomials; `terms` decodes the same dict back.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul, or_

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
MAX_TERMS = 1 << 15  # terms of a power or a division remainder; a test's power has 6,188, a seed-1 round's remainder 98
MAX_COEFF_BITS = 1 << 20  # a power's coefficient-bit bound; a test's largest is 42,855
# term pairs a product (_addmul) may form: a test's largest is 5,616; with certificates
# formed, a seed-1 round's is 390 on charset-nonlinear, 14 on linear-deep, 8 on linear-wide
MAX_PAIRS = 1 << 22


class Derivative(namedtuple("Derivative", "var order")):
    """The derivative x_var^(order)."""

    __slots__ = ()


MONO_ONE = ()  # the unit monomial of the `terms` view

_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")  # a variable name, as the text format reads it


def _integral(c):
    # a Fraction (or other rational) with denominator 1 is stored as an int
    return c.numerator if c.denominator == 1 else c


def _count(n, what):
    """n if it is an int >= 0 (a bool is not); ValueError naming `what` otherwise."""
    if type(n) is not int or n < 0:
        raise ValueError("%s must be a non-negative int, not %r" % (what, n))
    return n


def _var(v):
    """v if it is an int (a bool is not); ValueError as var_index raises otherwise."""
    if type(v) is not int:
        raise ValueError("no variable %r" % (v,))
    return v


_INT = frozenset((int,))


def _canon(acc):
    """A packed term dict without zero coefficients, integral ones as ints
    (acc itself when it is one already, as it is for most sums and products)."""
    vals = acc.values()
    if 0 in vals or not _INT.issuperset(map(type, vals)):
        return {m: c if type(c) is int else _integral(c) for m, c in acc.items() if c}
    return acc


def _word(t):
    """The support word of the packed term dict t: the OR of its monomials."""
    return reduce(or_, t, 0)


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


def _offset(ring, var, order, strict):
    """Bit offset of the field of x_var^(order); ValueError unless var is an int
    and order an int >= 0 (a bool is neither).  A variable outside the ring or
    an order over MAX_ORDER raises when strict, the variable first, and
    otherwise reads as None."""
    n = ring.nvars
    if type(var) is int and type(order) is int and 0 <= var < n and 0 <= order <= MAX_ORDER:
        return (order * n + var) * FIELD_BITS
    if not 0 <= _var(var) < n and strict:
        raise ValueError("no variable %r" % (var,))
    if _count(order, "order") > MAX_ORDER and strict:
        raise ResourceLimit("derivative order %d exceeds the cap MAX_ORDER = %d" % (order, MAX_ORDER))
    return None


def _encode(ring, mono):
    """Packed int of a monomial given as (Derivative, exponent) pairs."""
    exps = {}
    for (var, order), e in mono:
        _count(e, "exponent")
        s = _offset(ring, var, order, True)
        exps[s] = exps.get(s, 0) + e
    m = 0
    for s, e in exps.items():
        if e > _FIELD:
            raise ResourceLimit("exponent %d does not fit a %d-bit field" % (e, FIELD_BITS))
        m += e << s
    return m


def _decode(nvars, m):
    """(Derivative, exponent) pairs of a packed monomial, sorted by derivative."""
    return tuple(sorted((_at(s, nvars), (m >> s) & _FIELD) for s in _shifts(m)))


class _Masks(namedtuple("_Masks", "low guard unit")):
    """Masks over the packed fields of rings of one number of variables, at
    every order up to MAX_ORDER: `low`, every field of variable 0; `guard`,
    the top bit of every field (an exponent over MAX_EXPONENT); and `unit`,
    the lowest bit of every field (an exponent of 1)."""

    __slots__ = ()


def _ring_masks(nvars):
    """The _Masks of the rings of nvars variables, each read off one
    little-endian byte pattern repeated over its fields."""
    size = FIELD_BITS // 8  # bytes per field
    orders = MAX_ORDER + 1
    low = int.from_bytes(_FIELD.to_bytes(size * nvars, "little") * orders, "little") if nvars else 0
    guard = int.from_bytes((1 << (FIELD_BITS - 1)).to_bytes(size, "little") * (nvars * orders), "little")
    return _Masks(low, guard, guard >> (FIELD_BITS - 1))


_MASKS = {}  # number of variables -> its _Masks, shared by all rings of that many


class DiffRing:
    """Names the variables; polynomials carry a reference to their ring."""

    def __init__(self, names):
        names = tuple(names)
        for nm in names:
            # render writes a name as it is, so text must read back as one name
            if not (isinstance(nm, str) and _NAME.fullmatch(nm)):
                raise ValueError("variable %r is not a name" % (nm,))
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self.nvars = len(names)
        self.index = {nm: i for i, nm in enumerate(names)}
        self._masks = _MASKS.get(self.nvars) or _MASKS.setdefault(self.nvars, _ring_masks(self.nvars))

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
        """The index of a variable given by name or by index (an int, not a bool)."""
        idx = self.index.get(which) if isinstance(which, str) else which
        if type(idx) is not int or not 0 <= idx < self.nvars:
            raise ValueError("no variable %r" % (which,))
        return idx

    def var(self, which, order=0) -> "DiffPoly":
        """The derivative x_which^(order) as a polynomial."""
        return _poly(self, {1 << _offset(self, self.var_index(which), order, True): 1})

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

    __slots__ = ("ring", "_packed", "_word", "_view", "_lead", "_tops", "_mults", "_chain", "_res", "_lin")

    def __init__(self, ring, terms):
        """From a dict (Derivative, exponent)-tuple monomial -> rational;
        zero coefficients are dropped and integral ones stored as ints."""
        acc = {}
        for mono, c in terms.items():
            m = _encode(ring, mono)
            acc[m] = acc.get(m, 0) + c
        self.ring = ring
        self._packed = _canon(acc)
        self._word = self._view = self._lead = self._tops = self._mults = self._res = self._lin = None
        self._chain = ()

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

    def _top(self, v):
        """(order, degree) of the top derivative of the variable of index v,
        or None when v does not occur; cached per variable."""
        tops = self._tops
        if tops is None:
            tops = self._tops = {}
        elif v in tops:
            return tops[v]
        ring = self.ring
        x = (self._support() >> v * FIELD_BITS) & ring._masks.low
        got = None
        if x:
            order = (x.bit_length() - 1) // (ring.nvars * FIELD_BITS)
            s = (order * ring.nvars + v) * FIELD_BITS
            mask = _FIELD << s
            got = (order, max(map(mask.__and__, self._packed)) >> s)
        tops[v] = got
        return got

    def _leading(self, ld):
        """(separant, initial, tails) at ld, a top derivative of self,
        cached for the last ld: the multipliers of a division step by self,
        and the dict tails, k -> self^(k) less its leading part, which holds
        the derivative of ld k orders up (initial*ld^degree for k = 0,
        separant times it for k > 0) and would only form products that
        cancel (ritt_divide).  tails starts with k = 0, and divisions by
        self add the further k they read, each the same value."""
        got = self._mults
        if got is None or got[0] != ld:
            d = self._top(ld.var)[1]
            init, tail = self._split(ld, d, d)
            got = self._mults = (ld, self.partial(ld), init, {0: tail})
        return got[1:]

    def _shift(self, d):
        """Bit offset of the field of derivative d when d occurs, else None."""
        var, order = d
        s = _offset(self.ring, var, order, False)
        return None if s is None or not (self._support() >> s) & _FIELD else s

    # -- basic ring operations ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))
            return other
        return self.ring.const(other)

    def __add__(self, other, negate=False):
        """self + other, or self - other when negate, by _merge."""
        other = self._coerce(other)
        return _poly(self.ring, _canon(_merge(dict(self._packed), other._packed.items(), negate)))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {m: -c for m, c in self._packed.items()})

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            # a number scales the coefficients, as ring.const(other) would
            return self._scaled(other if isinstance(other, int) else Fraction(other))
        if other.ring is not self.ring:
            self._coerce(other)  # equal rings pass, mixed rings raise
        t1, t2 = self._packed, other._packed
        t = _product(self.ring, t1, self._support(), t2, other._support())
        return self if t is t1 else other if t is t2 else _poly(self.ring, t)

    __rmul__ = __mul__

    def _scaled(self, k):
        """self * k for a rational number k."""
        t = _scale(self._packed, k)
        return self if t is self._packed else _poly(self.ring, t)

    def __pow__(self, k):
        t = _power(self.ring, self._packed, self._support(), _count(k, "exponent"))
        return self if t is self._packed else _poly(self.ring, t)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, DiffPoly) and self.ring == other.ring and self._packed == other._packed

    def __hash__(self):
        if not self._support():  # a constant equals its number, so hashes as it
            return hash(self._packed.get(0, 0))
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
        for _ in range(_count(times, "times")):
            w = p._support()
            if w and (w.bit_length() - 1) // up >= MAX_ORDER:
                raise ResourceLimit("derivative of order over the cap MAX_ORDER = %d" % MAX_ORDER)
            if w & ring._masks.guard:
                raise ResourceLimit("derivation refused: an exponent over MAX_EXPONENT = %d" % MAX_EXPONENT)
            # d^e -> e * d^(e-1) * d': one field down by one, the next order's
            # up by one, for each nonzero field of the monomial, highest first
            acc = {}
            for m, c in p._packed.items():
                x = m
                while x:
                    s = (x.bit_length() - 1) // FIELD_BITS * FIELD_BITS
                    e = x >> s
                    x -= e << s
                    mono = m + (1 << (s + up)) - (1 << s)
                    if mono in acc:
                        acc[mono] += c * e
                    else:
                        acc[mono] = c * e
            p = _poly(ring, _canon(acc))
        return p

    def partial(self, d: Derivative):
        """Formal partial derivative with respect to one derivative symbol."""
        s = self._shift(d)
        if s is None:
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
        if type(var) is not int:
            var = self.ring.var_index(var) if isinstance(var, str) else _var(var)
        top = self._top(var) if 0 <= var < self.ring.nvars else None
        return NEG_INF if top is None else top[0]

    def leader_in(self, var):
        """(x_var^(k), degree in it) for k the order of var, or None when var
        does not occur."""
        var = self.ring.var_index(var)
        top = self._top(var)
        return None if top is None else (Derivative(var, top[0]), top[1])

    def coeffs_in(self, d: Derivative):
        """View as univariate in d: dict degree -> coefficient polynomial,
        degrees in the order of their first term."""
        s = self._shift(d)
        if s is None:
            return {0: self} if self else {}
        out = {}  # one pass; dropping d^e is injective on the monomials of degree e
        for m, c in self._packed.items():
            e = (m >> s) & _FIELD
            out.setdefault(e, {})[m - (e << s)] = c
        return {e: _poly(self.ring, b) for e, b in out.items()}

    def deg_in(self, d: Derivative):
        s = self._shift(d)
        if s is None:
            return 0 if self else NEG_INF
        mask = _FIELD << s
        return max(m & mask for m in self._packed) >> s

    def _split(self, d: Derivative, e, k):
        """(the terms of degree e in d with k of their factors d removed,
        the other terms), by one pass, for an occurring d and k <= e: the
        first is the coefficient of d^e times d^(e-k)."""
        s = self._shift(d)
        mask, top, down = _FIELD << s, e << s, k << s
        low, rest = {}, {}
        for m, c in self._packed.items():
            if m & mask == top:
                low[m - down] = c
            else:
                rest[m] = c
        return _poly(self.ring, low), _poly(self.ring, rest)

    def __repr__(self):
        return "DiffPoly(%s)" % render(self)

    __str__ = __repr__


_new = object.__new__


# -- arithmetic on packed term dicts ----------------------------------------
# DiffPoly's operators and the parser (textio) share these: one merge loop,
# one product rule and one power rule, with their caps.


def _merge(acc, items, negate=False):
    """acc + items, or acc - items when negate, into the packed term dict acc
    (returned), for (monomial, nonzero coefficient) pairs: the one merge loop
    of sums.  A coefficient that sums to zero is dropped at once, so a
    monomial that comes back later is appended, as in a sum canonicalized
    after each term."""
    for m, c in items:
        if negate:
            c = -c
        if m in acc:
            c += acc[m]
            if not c:
                del acc[m]
                continue
        acc[m] = c
    return acc


def _guard(ring, w1, w2):
    """Refuse (ResourceLimit) a product of two non-constant factors, of
    support words w1 and w2, when a factor has an exponent over MAX_EXPONENT,
    whose sum with another could carry out of its field."""
    if w1 and w2 and (w1 | w2) & ring._masks.guard:
        raise ResourceLimit(
            "product refused: an exponent over MAX_EXPONENT = %d could carry out of its %d-bit field"
            % (MAX_EXPONENT, FIELD_BITS)
        )


def _scale(t, k):
    """The canonical packed term dict t * k, for a canonical t and a rational
    k (t itself when k is 1)."""
    if not k:
        return {}
    if k == 1:
        return t
    return _canon({m: c * k for m, c in t.items()})


def _product(ring, t1, w1, t2, w2):
    """The canonical packed term dict t1 * t2, for canonical t1 and t2 of
    support words w1 and w2: a constant factor scales the other (_scale),
    and two non-constant ones multiply in _addmul_terms."""
    if not t2 or len(t2) == 1 and 0 in t2:
        return _scale(t1, t2.get(0, 0))
    if len(t1) == 1 and 0 in t1:
        return _scale(t2, t1[0])
    return _canon(_addmul_terms({}, ring, t1, w1, t2, w2))


def _power(ring, t, w, k):
    """The canonical packed term dict t^k, for a canonical t of support word
    w and an int k >= 0, by k products (_product) unless t is one term.  It
    is refused unbuilt (ResourceLimit) past the caps of the module
    docstring: an exponent over MAX_EXPONENT (a constant's power is held to
    k <= MAX_EXPONENT as well), more than MAX_TERMS terms or more than
    MAX_COEFF_BITS coefficient bits."""
    top = max((m >> s) & _FIELD for m in t for s in _shifts(w)) if w else 1
    if k * top > MAX_EXPONENT:
        raise ResourceLimit(
            "power %d of a polynomial with exponents up to %d exceeds the cap MAX_EXPONENT = %d"
            % (k, top, MAX_EXPONENT)
        )
    if k > 1 and t:
        vals = t.values()
        terms = math.comb(k + len(t) - 1, k)
        bits = k * max(sum(abs(c.numerator) for c in vals), math.lcm(*(c.denominator for c in vals))).bit_length()
        if terms > MAX_TERMS or bits > MAX_COEFF_BITS:
            cap = "MAX_TERMS = %d" % MAX_TERMS if terms > MAX_TERMS else "MAX_COEFF_BITS = %d" % MAX_COEFF_BITS
            raise ResourceLimit(
                "power %d exceeds the cap %s (term bound %d, coefficient bound %d bits)" % (k, cap, terms, bits))
    if len(t) == 1:
        ((m, c),) = t.items()
        return _canon({m * k: c**k})  # a Fraction to the power 0 is Fraction(1, 1)
    out, wo = {0: 1}, 0
    for _ in range(k):
        out = _product(ring, out, wo, t, w)
        wo = _word(out)
    return out


def _addmul(acc, a, b, negate=False):
    """acc + a*b, or acc - a*b when negate, into the packed term dict acc
    (returned; it may hold zero coefficients, see _canon), by _addmul_terms.
    A Ritt division step, its backward pass and the certificate check all
    sum their products here."""
    if a.ring is not b.ring:
        a._coerce(b)  # equal rings pass, mixed rings raise
    return _addmul_terms(acc, a.ring, a._packed, a._support(), b._packed, b._support(), negate)


def _addmul_terms(acc, ring, t1, w1, t2, w2, negate=False):
    """acc + t1*t2, or acc - t1*t2 when negate, for packed term dicts t1 and
    t2 of support words w1 and w2: the one product loop of the kernel.  It
    refuses a product of more than MAX_PAIRS term pairs, and one that _guard
    refuses."""
    if len(t1) * len(t2) > MAX_PAIRS:
        raise ResourceLimit(
            "product of %d by %d terms exceeds the cap MAX_PAIRS = %d term pairs" % (len(t1), len(t2), MAX_PAIRS))
    _guard(ring, w1, w2)
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


def _pairs(a, b):
    """The term pairs _addmul forms multiplying a by b."""
    return len(a._packed) * len(b._packed)


def _nth(chain, k):
    """chain[k] of [g, g', g'', ...], extended in place one derivation at a time."""
    while len(chain) <= k:
        chain.append(chain[-1].derive())
    return chain[k]


def _apply(acc, coeffs, chain, negate=False):
    """acc + sum_k coeffs[k] * g^(k), or acc minus it when negate: the one
    application of an operator sum c_k D^k, reading g^(k) off chain = [g, ...]."""
    for k in sorted(coeffs):
        _addmul(acc, coeffs[k], _nth(chain, k), negate)
    return acc


def _primitive(t):
    """(content, t / content) for a canonical packed term dict t, a division
    step's remainder.  The content is positive and rational: the gcd of the
    numerators over the lcm of the denominators, so t / content has coprime
    integer coefficients.  With content 1, t itself is returned; an empty t
    has content 1.  A t of more than MAX_TERMS terms raises ResourceLimit."""
    if len(t) > MAX_TERMS:
        raise ResourceLimit("division remainder of %d terms exceeds the cap MAX_TERMS = %d" % (len(t), MAX_TERMS))
    vals = t.values()
    if _INT.issuperset(map(type, vals)):
        c = math.gcd(*vals)
        if c < 2:
            return 1, t
        return c, {m: v // c for m, v in t.items()}
    c = Fraction(math.gcd(*(v.numerator for v in vals)), math.lcm(*(v.denominator for v in vals)))
    return c, {m: _integral(v / c) for m, v in t.items()}


# -- values at one fixed point modulo a prime ----------------------------------

PRIME = (1 << 61) - 1  # a Mersenne prime
_M64 = (1 << 64) - 1
_MONO_RESIDUES = {}  # packed monomial -> its value at the point, for every ring


def _field_value(s):
    """The point's value of the derivative whose field starts at bit offset s:
    SplitMix64 (Steele, Lea and Flood 2014) of s, mod PRIME.  A ring maps
    distinct derivatives to distinct offsets, so the value needs no ring."""
    z = (s + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) % PRIME


def _residue(p):
    """The value of the polynomial p mod PRIME at the point of _field_value,
    its coefficients read by _ratmod; cached on p.  Each monomial's value is
    kept in one process-wide memo, cleared past 2^16 entries."""
    v = p._res
    if v is not None:
        return v
    t = p._packed
    vals = t.values()
    if not _INT.issuperset(map(type, vals)):
        vals = list(map(_ratmod, vals))
    memo = _MONO_RESIDUES
    try:
        v = sum(map(mul, vals, map(memo.__getitem__, t))) % PRIME
    except KeyError:  # a monomial met for the first time
        if len(memo) > 1 << 16:
            memo.clear()
        mvals = []  # kept here, not read back from the memo another thread may clear
        for m in t:
            mv = memo.get(m)
            if mv is None:
                mv = 1
                for s in _shifts(m):
                    mv = mv * pow(_field_value(s), (m >> s) & _FIELD, PRIME) % PRIME
                memo[m] = mv
            mvals.append(mv)
        v = sum(map(mul, vals, mvals)) % PRIME
    p._res = v
    return v


def _ratmod(c):
    """The rational c mod PRIME; ZeroDivisionError when its denominator is 0 mod PRIME."""
    if type(c) is int:
        return c % PRIME
    d = c.denominator % PRIME
    if not d:
        raise ZeroDivisionError("a denominator is 0 mod PRIME")
    return c.numerator * pow(d, -1, PRIME) % PRIME


def _poly(ring, packed):
    """Trusted constructor: `packed` is a packed term dict that is canonical
    already (nonzero coefficients, integral ones as ints)."""
    p = _new(DiffPoly)
    p.ring = ring
    p._packed = packed
    p._word = p._view = p._lead = p._tops = p._mults = p._res = p._lin = None
    p._chain = ()
    return p


# -- linear polynomials as rows over Q[D] ------------------------------------
# A linear polynomial's packed dict is its row over Q[D]: the monomial 1 << s
# of the field at bit s of x_v^(k) holds the coefficient of x_v^(k), and the
# monomial 0 the constant.  D^k moves every field k orders, k*n fields, up.


def _is_linear(p: DiffPoly) -> bool:
    """Whether every term of p has total degree at most 1: each monomial is
    0 or a single bit, and every bit of the support word starts a field.
    Cached on p."""
    lin = p._lin
    if lin is None:
        t = p._packed
        w = p._support()
        lin = p._lin = sum(map(int.bit_count, t)) == len(t) - (0 in t) and w & p.ring._masks.unit == w
    return lin


def _linear_terms(p: DiffPoly):
    """The packed term dict of p, a linear polynomial: its row over Q[D]."""
    return p._packed


def _linear_word(ring, t):
    """The support word w of the linear term dict t, off which the order of
    the top derivative of variable v reads as
    (((w >> v*FIELD_BITS) & ring._masks.low).bit_length() - 1) // (n*FIELD_BITS),
    -1 when v does not occur.  t's monomials are distinct single bits and 0,
    so w is their sum.  An order over MAX_ORDER, which only a derivative
    D^k g can reach, raises ResourceLimit as DiffPoly.derive does, so the
    ring's masks span w."""
    w = sum(t)
    if w.bit_length() > (MAX_ORDER + 1) * ring.nvars * FIELD_BITS:
        raise ResourceLimit("derivative of order over the cap MAX_ORDER = %d" % MAX_ORDER)
    return w


def _linear_tops(ring, w):
    """The order of the top derivative of each variable of the ring, -1 for
    an absent one, read off w, the support word of a linear term dict, as
    _linear_word describes, at each variable's shift v*FIELD_BITS."""
    low, up = ring._masks.low, ring.nvars * FIELD_BITS
    return [(((w >> s) & low).bit_length() - 1) // up for s in range(0, up, FIELD_BITS)]


def _linear_at(ring, t, var, order):
    """The coefficient of x_var^(order) in the linear term dict t, where it occurs."""
    return t[1 << (order * ring.nvars + var) * FIELD_BITS]


def _submul(acc, a, row, k, ring):
    """acc - a * D^k(row) into the packed term dict acc (returned; it may
    hold zero coefficients), for the term dict row of a linear polynomial:
    D^k moves each derivative k orders, k*n fields, up, and for k > 0 the
    constant drops."""
    if not k:
        for m, c in row.items():
            acc[m] = acc.get(m, 0) - a * c
        return acc
    sh = k * ring.nvars * FIELD_BITS
    for m, c in row.items():
        if m:
            m <<= sh
            acc[m] = acc.get(m, 0) - a * c
    return acc


def _linear_step(ring, r, lc, var, order, g, k):
    """(a, lc*r - a*D^k(g)) for the term dicts r and g of linear polynomials,
    a the coefficient of x_var^(order) in r and lc that of x_var^(order-k)
    in g: the two terms in x_var^(order) cancel and are left out, and the
    result is canonical."""
    top = 1 << (order * ring.nvars + var) * FIELD_BITS
    a = r[top]
    acc = _submul({m: lc * c for m, c in r.items()}, a, g, k, ring)
    del acc[top]
    return a, _canon(acc)


def _linear_poly(ring, t, w):
    """_poly(ring, t) for a canonical linear term dict t, with its support
    word w and the top derivative of each variable (_linear_tops) cached."""
    p = _poly(ring, t)
    p._word, p._lin = w, True
    p._tops = {v: (o, 1) if o >= 0 else None for v, o in enumerate(_linear_tops(ring, w))}
    return p


# -- rankings -------------------------------------------------------------


_UNCOVERED = (POS_INF,)  # the key prefix _facts gives a variable in no block


class Ranking(namedtuple("Ranking", "kind blocks")):
    """Orderly or block-elimination ranking on derivatives.

    kind 'orderly': compare (order, var index); it takes no blocks.
    kind 'elim': blocks of variable indices (ints >= 0, ValueError for any
    other entry), later blocks rank higher;
    within a block compare (order, var index).  The blocks are kept as a
    tuple of tuples, so rankings compare and hash by value.
    key(d) = _prefix(d.var) + (d.order, d.var) is the one rank of derivatives
    that leaders and divisions compare.
    """

    def __new__(cls, kind, blocks=()):
        if kind not in ("orderly", "elim"):
            raise ValueError("unknown ranking kind %r" % kind)
        blocks = tuple(tuple(_count(v, "block entry") for v in b) for b in blocks)
        if kind == "orderly" and blocks:
            raise ValueError("the orderly ranking takes no blocks")
        if len({v for b in blocks for v in b}) != sum(map(len, blocks)):
            raise ValueError("variable repeated across blocks")
        return super().__new__(cls, kind, blocks)

    @cached_property
    def _prefixes(self):
        """Variable -> the prefix (block,) of its keys, resolved once."""
        return {v: (b,) for b, vs in enumerate(self.blocks) for v in vs}

    def _prefix(self, v):
        """The prefix of the keys of variable v's derivatives: () under the
        orderly ranking, (block,) under an elimination one; ValueError when
        no block holds v."""
        if self.kind == "orderly":
            return ()
        pre = self._prefixes.get(v)
        if pre is None:
            raise ValueError("variable %d not covered by blocks" % v)
        return pre

    def key(self, d: Derivative):
        return self._prefix(d.var) + (d.order, d.var)

    def leader(self, p: DiffPoly) -> Derivative:
        return self.leader_degree(p)[0]

    def _facts(self, p: DiffPoly):
        """(self, (leader, degree of p in it), rank), cached on p for this
        ranking.  The leader is the occurring derivative of largest key, the
        top derivative of its variable: under the orderly ranking the top
        field of the support word, and under an elimination ranking the
        largest (block, order, var) over the occurring variables' tops."""
        got = p._lead
        if got is not None and got[0] is self:
            return got
        w = p._support()
        if not w:
            raise ValueError("leader of a constant")
        n = p.ring.nvars
        if self.kind == "orderly":
            ld = _at((w.bit_length() - 1) // FIELD_BITS * FIELD_BITS, n)
            key = (ld.order, ld.var)
        else:
            # a variable in no block takes a prefix above every block's, so
            # that _prefix raises for the uncovered one of largest (order, var);
            # a plain loop, as a generator here would put p in a closure cell
            # and slow every cached call
            pres, key = self._prefixes, None
            for v in range(n):
                top = p._top(v)
                if top is not None:
                    k = pres.get(v, _UNCOVERED) + (top[0], v)
                    if key is None or k > key:
                        key = k
            ld = Derivative(key[-1], key[-2])
            key = self._prefix(ld.var) + key[-2:]
        deg = p._top(ld.var)[1]
        got = p._lead = (self, (ld, deg), (key, deg))
        return got

    def leader_degree(self, p: DiffPoly):
        """(leader, degree of p in it), cached on p for this ranking."""
        return self._facts(p)[1]

    def rank(self, p: DiffPoly):
        """(leader key, leader degree): the rank used by autoreduced sets."""
        return self._facts(p)[2]


_ORDERLY = Ranking("orderly")


def orderly() -> Ranking:
    """The orderly ranking: one shared Ranking, so that the facts _facts
    caches on a polynomial serve every later call that uses it."""
    return _ORDERLY


def elimination(blocks) -> Ranking:
    return Ranking("elim", blocks)


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
    return p._leading(_leader_degree(p, var, ranking)[0])[0]


def initial(p: DiffPoly, var, ranking: Ranking = None) -> DiffPoly:
    """Coefficient of the highest power of the leader."""
    return p._leading(_leader_degree(p, var, ranking)[0])[1]


# -- linear differential operators ----------------------------------------


class LinOp(namedtuple("LinOp", "ring coeffs")):
    """Element of the Weyl-type operator ring: sum c_k * D^k, c_k in the
    polynomial ring, D the derivation.  Relation: D r = r D + r'."""

    __slots__ = ()

    def __new__(cls, ring, coeffs):
        return super().__new__(cls, ring, {k: c for k, c in coeffs.items() if c})

    def apply(self, g: DiffPoly) -> DiffPoly:
        return _poly(self.ring, _canon(_apply({}, self.coeffs, [g])))

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


def _pieces(p: DiffPoly):
    """render(p) one term at a time, in render's order: the first term with a
    leading "-" when negative, then " + term" or " - term" for each further
    one ("0" for the zero polynomial).  A piece holds a space only in that
    leading " + " or " - "."""
    t = p._packed
    if not t:
        yield "0"
        return
    ring = p.ring
    signs = ("-", "")
    for m in sorted(t, reverse=True):
        c = t[m]
        a = abs(c)
        if not m:
            body = str(a)
        elif a == 1:
            body = _render_mono(ring, m)
        else:
            body = "%s*%s" % (a, _render_mono(ring, m))
        yield (signs[0] if c < 0 else signs[1]) + body
        signs = (" - ", " + ")


def render(p: DiffPoly) -> str:
    """Canonical text form: terms descending under the orderly ranking."""
    try:
        return "".join(_pieces(p))
    except ValueError:  # str() of a coefficient past the interpreter's digit limit
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p._packed.values())
        raise digit_limit("a coefficient of %d bits" % bits) from None


def _render_cmp(p: DiffPoly, q: DiffPoly) -> int:
    """-1, 0 or 1 as render(p) is below, equal to or above render(q),
    rendering both only as far as their first differing piece (_pieces).
    That piece decides: where one piece is a proper prefix of the other, the
    shorter string goes on with " " or ends, and both sort below every
    character of a term, so the shorter piece sorts first, as its string
    does.  Both must be renderable (_renderable)."""
    for a, b in itertools.zip_longest(_pieces(p), _pieces(q), fillvalue=""):
        if a != b:
            return -1 if a < b else 1
    return 0


def _renderable(p: DiffPoly) -> bool:
    """Whether render(p) keeps within the interpreter's limit of L digits
    for int-to-str conversion: every numerator and denominator below 10^L,
    decided from their sizes without converting any (2^(3L) < 10^L)."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return True
    quick = 3 * limit
    big = [abs(n) for c in p._packed.values() for n in (c.numerator, c.denominator) if n.bit_length() > quick]
    return not big or max(big) < 10**limit


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
