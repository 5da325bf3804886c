"""Sparse differential polynomials over Q with rational constants.

A differential polynomial lives in Q{x1,...,xn}: coefficients are exact
rationals, stored as an int where integral and as a Fraction otherwise;
monomials are multisets of derivatives x_i^(k).  The derivation acts by
x_i^(k) -> x_i^(k+1) and kills constants.

Monomial invariant: a monomial is a tuple of (Derivative, exponent) pairs,
sorted by derivative, with distinct derivatives and every exponent > 0; the
unit monomial is ().  Every operation keeps it without re-sorting: products
merge two sorted tuples, and dropping or lowering one factor (coeffs_in,
partial, derive) leaves the others in order.  Since derivatives sort by
(var, order), x_v^(k+1) can only sit right after x_v^(k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

NEG_INF = float("-inf")
POS_INF = float("inf")


class Derivative(NamedTuple):
    var: int
    order: int


MONO_ONE = ()


def _mono_mul(m1, m2):
    """Product of two monomials: a merge of two sorted tuples."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    d1, d2 = m1[0][0], m2[0][0]
    while True:
        if d1 < d2:
            out.append(m1[i])
            i += 1
            if i == n1:
                break
            d1 = m1[i][0]
        elif d2 < d1:
            out.append(m2[j])
            j += 1
            if j == n2:
                break
            d2 = m2[j][0]
        else:
            out.append((d1, m1[i][1] + m2[j][1]))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            d1, d2 = m1[i][0], m2[j][0]
    return tuple(out) + m1[i:] + m2[j:]


def _mono_degree(m):
    return sum(e for _, e in m)


def _integral(c):
    # a Fraction (or other rational) with denominator 1 is stored as an int
    return c.numerator if c.denominator == 1 else c


class DiffRing:
    """Names the variables; polynomials carry a reference to their ring."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, DiffRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "DiffRing(%s)" % ", ".join(self.names)

    def const(self, c) -> "DiffPoly":
        return DiffPoly(self, {MONO_ONE: c if isinstance(c, int) else Fraction(c)})

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def var(self, which, order=0) -> "DiffPoly":
        """The derivative x_which^(order) as a polynomial."""
        idx = self.index[which] if isinstance(which, str) else which
        if not 0 <= idx < self.nvars:
            raise ValueError("no variable %r" % (which,))
        if order < 0:
            raise ValueError("negative order")
        mono = ((Derivative(idx, order), 1),)
        return DiffPoly(self, {mono: 1})

    def extend(self, name) -> "DiffRing":
        """New ring with one fresh variable appended."""
        if name in self.index:
            raise ValueError("name %r already in ring" % name)
        return DiffRing(self.names + (name,))

    def lift(self, poly: "DiffPoly") -> "DiffPoly":
        """Reinterpret a polynomial of a prefix ring in this ring."""
        if poly.ring.names != self.names[: len(poly.ring.names)]:
            raise ValueError("ring %r is not a prefix of %r" % (poly.ring, self))
        return DiffPoly(self, dict(poly.terms))


class DiffPoly:
    """Immutable sparse polynomial: dict monomial -> nonzero coefficient, an
    int when integral and a Fraction otherwise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c if type(c) is int else _integral(c) for m, c in terms.items() if c}

    # -- basic ring operations ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return DiffPoly(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            # a number scales the coefficients, as ring.const(other) would
            return self._scaled(other if isinstance(other, int) else Fraction(other))
        other = self._coerce(other)
        t1, t2 = self.terms, other.terms
        if not t2 or len(t2) == 1 and MONO_ONE in t2:
            return self._scaled(t2.get(MONO_ONE, 0))
        if len(t1) == 1 and MONO_ONE in t1:
            return other._scaled(t1[MONO_ONE])
        acc = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return DiffPoly(self.ring, acc)

    __rmul__ = __mul__

    def _scaled(self, k):
        """self * k for a rational number k."""
        return DiffPoly(self.ring, {m: c * k for m, c in self.terms.items()} if k else {})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, DiffPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(m == MONO_ONE for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self.terms.get(MONO_ONE, 0))

    def total_degree(self):
        # degree of 0 is -inf by convention
        if not self.terms:
            return NEG_INF
        return max(_mono_degree(m) for m in self.terms)

    def support(self):
        """All derivatives occurring in some monomial."""
        out = set()
        for m in self.terms:
            for d, _ in m:
                out.add(d)
        return out

    def variables(self):
        return sorted({d.var for d in self.support()})

    # -- differential structure -----------------------------------------

    def derive(self, times=1):
        """Apply the derivation (Leibniz on monomials, constants to 0)."""
        p = self
        for _ in range(times):
            acc = {}
            for m, c in p.terms.items():
                n = len(m)
                for i, (d, e) in enumerate(m):
                    # d^e -> e * d^(e-1) * d', and d' can only sit at i + 1
                    head = m[:i] if e == 1 else m[:i] + ((d, e - 1),)
                    bumped = Derivative(d.var, d.order + 1)
                    if i + 1 < n and m[i + 1][0] == bumped:
                        mono = head + ((bumped, m[i + 1][1] + 1),) + m[i + 2 :]
                    else:
                        mono = head + ((bumped, 1),) + m[i + 1 :]
                    acc[mono] = acc.get(mono, 0) + c * e
            p = DiffPoly(p.ring, acc)
        return p

    def partial(self, d: Derivative):
        """Formal partial derivative with respect to one derivative symbol."""
        # lowering the exponent of d is injective on the monomials holding d
        acc = {}
        for m, c in self.terms.items():
            for i, (dd, e) in enumerate(m):
                if dd == d:
                    acc[m[:i] + m[i + 1 :] if e == 1 else m[:i] + ((d, e - 1),) + m[i + 1 :]] = c * e
                    break
        return DiffPoly(self.ring, acc)

    def order_in(self, var, convention="strong"):
        """Max derivative order of var; absent -> 0 (weak) or -inf (strong)."""
        if isinstance(var, str):
            var = self.ring.index[var]
        orders = [d.order for m in self.terms for d, _ in m if d.var == var]
        if orders:
            return max(orders)
        if convention == "weak":
            return 0
        if convention == "strong":
            return NEG_INF
        raise ValueError("unknown convention %r" % convention)

    def coeffs_in(self, d: Derivative):
        """View as univariate in d: dict degree -> coefficient polynomial."""
        # dropping the factor d^e is injective on the monomials of one degree
        # e, so no bucket collects two terms and none can cancel
        out = {}
        for m, c in self.terms.items():
            for i, (dd, e) in enumerate(m):
                if dd == d:
                    out.setdefault(e, {})[m[:i] + m[i + 1 :]] = c
                    break
            else:
                out.setdefault(0, {})[m] = c
        return {e: DiffPoly(self.ring, t) for e, t in out.items()}

    def deg_in(self, d: Derivative):
        if not self.terms:
            return NEG_INF
        return max((e for m in self.terms for dd, e in m if dd == d), default=0)

    def substitute_constant(self, var, value):
        """Replace x_var (order 0 only) by a rational constant."""
        if isinstance(var, str):
            var = self.ring.index[var]
        if any(d.var == var and d.order > 0 for d in self.support()):
            raise ValueError("cannot substitute: proper derivatives of %s present" % self.ring.names[var])
        value = Fraction(value)
        d0 = Derivative(var, 0)
        acc = {}
        for m, c in self.terms.items():
            md = dict(m)
            e = md.pop(d0, 0)
            mono = tuple(sorted(md.items()))
            acc[mono] = acc.get(mono, 0) + c * value**e
        return DiffPoly(self.ring, acc)

    def __repr__(self):
        return "DiffPoly(%s)" % render(self)

    __str__ = __repr__


# -- rankings -------------------------------------------------------------


@dataclass(frozen=True)
class Ranking:
    """Orderly or block-elimination ranking on derivatives.

    kind 'orderly': compare (order, var index).
    kind 'elim': blocks of variable indices, later blocks rank higher;
    within a block compare (order, var index).
    """

    kind: str
    blocks: tuple = ()

    def __post_init__(self):
        if self.kind not in ("orderly", "elim"):
            raise ValueError("unknown ranking kind %r" % self.kind)
        if self.kind == "elim":
            seen = [v for b in self.blocks for v in b]
            if len(seen) != len(set(seen)):
                raise ValueError("variable repeated across blocks")

    def _block_of(self, var):
        for i, b in enumerate(self.blocks):
            if var in b:
                return i
        raise ValueError("variable %d not covered by blocks" % var)

    def key(self, d: Derivative):
        if self.kind == "orderly":
            return (d.order, d.var)
        return (self._block_of(d.var), d.order, d.var)

    def leader(self, p: DiffPoly) -> Derivative:
        sup = p.support()
        if not sup:
            raise ValueError("leader of a constant")
        return max(sup, key=self.key)

    def mono_key(self, m):
        # descending multiset of derivative keys; total refinement of the
        # ranking on leading derivatives, used for canonical term order
        ks = []
        for d, e in m:
            ks.extend([self.key(d)] * e)
        ks.sort(reverse=True)
        return tuple(ks)

    def rank(self, p: DiffPoly):
        """(leader key, leader degree): the rank used by autoreduced sets."""
        ld = self.leader(p)
        return (self.key(ld), p.deg_in(ld))


def orderly() -> Ranking:
    return Ranking("orderly")


def elimination(blocks) -> Ranking:
    return Ranking("elim", tuple(tuple(b) for b in blocks))


def separant(p: DiffPoly, var, ranking: Ranking = None) -> DiffPoly:
    """d p / d(leader); leader taken in var if given, else under ranking."""
    if var is not None:
        if isinstance(var, str):
            var = p.ring.index[var]
        o = p.order_in(var, "strong")
        if o == NEG_INF:
            raise ValueError("polynomial does not involve variable %s" % p.ring.names[var])
        ld = Derivative(var, int(o))
    else:
        ld = ranking.leader(p)
    return p.partial(ld)


def initial(p: DiffPoly, var, ranking: Ranking = None) -> DiffPoly:
    """Coefficient of the highest power of the leader."""
    if var is not None:
        if isinstance(var, str):
            var = p.ring.index[var]
        o = p.order_in(var, "strong")
        if o == NEG_INF:
            raise ValueError("polynomial does not involve variable %s" % p.ring.names[var])
        ld = Derivative(var, int(o))
    else:
        ld = ranking.leader(p)
    cs = p.coeffs_in(ld)
    return cs[max(cs)]


def is_lower_than(f: DiffPoly, g: DiffPoly, var) -> bool:
    """f lower than g per var: smaller order, or equal order and smaller
    degree in the leading derivative of var."""
    if isinstance(var, str):
        var = f.ring.index[var]
    of, og = f.order_in(var, "strong"), g.order_in(var, "strong")
    if of != og:
        return of < og
    if of == NEG_INF:
        return False
    d = Derivative(var, int(of))
    return f.deg_in(d) < g.deg_in(d)


# -- linear differential operators ----------------------------------------


class LinOp:
    """Element of the Weyl-type operator ring: sum c_k * D^k, c_k in the
    polynomial ring, D the derivation.  Relation: D r = r D + r'."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def from_poly(cls, c: DiffPoly):
        return cls(c.ring, {0: c})

    @classmethod
    def derivation(cls, ring, k=1):
        return cls(ring, {k: ring.one()})

    def __add__(self, other):
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, self.ring.zero()) + c
        return LinOp(self.ring, acc)

    def __eq__(self, other):
        return isinstance(other, LinOp) and self.ring == other.ring and self.coeffs == other.coeffs

    def lmul(self, c: DiffPoly):
        """Left multiplication by a polynomial: (c*L)(g) = c * L(g)."""
        return LinOp(self.ring, {k: c * q for k, q in self.coeffs.items()})

    def dmul(self):
        """Left multiplication by the derivation: D o L = sum c_k' D^k + c_k D^(k+1)."""
        acc = {}
        for k, c in self.coeffs.items():
            acc[k] = acc.get(k, self.ring.zero()) + c.derive()
            acc[k + 1] = acc.get(k + 1, self.ring.zero()) + c
        return LinOp(self.ring, acc)

    def apply(self, g: DiffPoly) -> DiffPoly:
        out = self.ring.zero()
        gk, k = g, 0
        for j in sorted(self.coeffs):
            gk, k = gk.derive(j - k), j  # g^(j) from g^(k), k < j
            out = out + self.coeffs[j] * gk
        return out

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
    facs = sorted(m, key=lambda de: (de[0].order, de[0].var), reverse=True)
    bits = []
    for d, e in facs:
        s = render_derivative(ring, d)
        if e > 1:
            s += "^%d" % e
        bits.append(s)
    return "*".join(bits)


def render(p: DiffPoly) -> str:
    """Canonical text form: terms descending under the orderly ranking."""
    if not p.terms:
        return "0"
    rk = orderly()
    out = []
    for m in sorted(p.terms, key=rk.mono_key, reverse=True):
        c = p.terms[m]
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if m == MONO_ONE:
            body = str(a)
        elif a == 1:
            body = _render_mono(p.ring, m)
        else:
            body = "%s*%s" % (a, _render_mono(p.ring, m))
        out.append((sign, body))
    first_sign, first_body = out[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in out[1:]:
        s += " %s %s" % (sign, body)
    return s
