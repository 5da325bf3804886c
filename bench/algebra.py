"""The benchmark's own differential-polynomial arithmetic.

Everything the benchmark checks is recomputed here, apart from diffalg: a
polynomial is a dict {monomial: Fraction}, a monomial a sorted tuple of
((var, order), exponent) pairs.  Nothing in this module imports diffalg.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

NEG = float("-inf")
PRIME = (1 << 61) - 1  # identities are checked after reducing modulo this prime


# -- construction and arithmetic --------------------------------------------


def var(v, k=0):
    return {(((v, k), 1),): Fraction(1)}


def const(c):
    c = Fraction(c)
    return {(): c} if c else {}


def add(*polys):
    acc = {}
    for p in polys:
        for m, c in p.items():
            acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def scale(p, c):
    return {m: c * a for m, a in p.items()} if c else {}


def _mono_mul(m1, m2):
    acc = dict(m1)
    for d, e in m2:
        acc[d] = acc.get(d, 0) + e
    return tuple(sorted(acc.items()))


def mul(p, q):
    acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def derive(p, times=1):
    """Leibniz rule on monomials; constants go to zero."""
    for _ in range(times):
        acc = {}
        for m, c in p.items():
            for i, ((v, k), e) in enumerate(m):
                rest = dict(m)
                if e == 1:
                    del rest[(v, k)]
                else:
                    rest[(v, k)] = e - 1
                rest[(v, k + 1)] = rest.get((v, k + 1), 0) + 1
                mono = tuple(sorted(rest.items()))
                acc[mono] = acc.get(mono, 0) + c * e
        p = {m: c for m, c in acc.items() if c}
    return p


def order_in(p, v):
    """Highest order of variable v in p, or NEG when v is absent."""
    return max((k for m in p for (w, k), _ in m if w == v), default=NEG)


def degree_in(p, d):
    return max((dict(m).get(d, 0) for m in p), default=0)


def partial(p, d):
    """Formal partial derivative with respect to the derivative d = (var, order)."""
    acc = {}
    for m, c in p.items():
        md = dict(m)
        e = md.pop(d, 0)
        if e:
            if e > 1:
                md[d] = e - 1
            mono = tuple(sorted(md.items()))
            acc[mono] = acc.get(mono, 0) + c * e
    return {m: c for m, c in acc.items() if c}


def from_program(dp):
    """Copy a diffalg polynomial's terms into this representation."""
    return {tuple(sorted(((d.var, d.order), e) for d, e in m)): Fraction(c) for m, c in dp.terms.items()}


# -- text --------------------------------------------------------------------


def _render_derivative(names, v, k):
    if k == 0:
        return names[v]
    if k <= 3:
        return names[v] + "'" * k
    return "%s^(%d)" % (names[v], k)


def render(p, names):
    """System-file text for p (any order of terms; the grammar is textio's)."""
    if not p:
        return "0"
    out = []
    for m in sorted(p):
        c = p[m]
        facs = []
        for (v, k), e in m:
            s = _render_derivative(names, v, k)
            facs.append(s + ("^%d" % e if e > 1 else ""))
        a = abs(c)
        if not facs:
            body = str(a)
        elif a == 1:
            body = "*".join(facs)
        else:
            body = "%s*%s" % (a, "*".join(facs))
        out.append(("-" if c < 0 else "+", body))
    s = ("-" if out[0][0] == "-" else "") + out[0][1]
    return s + "".join(" %s %s" % sb for sb in out[1:])


def read_system(text):
    """(names, polys) of a system file that has a "vars:" line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    names = tuple(s.strip() for s in lines[0][len("vars:"):].split(","))
    return names, [parse_rendered(ln, names) for ln in lines[1:]]


def system_text(names, polys):
    return "vars: %s\n%s\n" % (", ".join(names), "\n".join(render(p, names) for p in polys))


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:('+)|\^\((\d+)\))?(?:\^(\d+))?$")
_COEF = re.compile(r"(\d+)(?:/(\d+))?$")


_PAREN_POWER = re.compile(r"\(([A-Za-z][A-Za-z0-9_]*'*)\)\^(\d+)")


def parse_rendered(text, names):
    """Parse diffalg's canonical output (sums of c*factor*factor terms);
    a parenthesized single derivative to a power, (y')^2, is accepted too."""
    index = {nm: i for i, nm in enumerate(names)}
    text = _PAREN_POWER.sub(r"\1^\2", text.strip())
    if text == "0":
        return {}
    if not text.startswith("-"):
        text = "+ " + text
    toks = text.replace("-", " - ").replace("+", " + ").split()
    if len(toks) % 2:
        raise ValueError("cannot parse %r" % text)
    acc = {}
    for sign, body in zip(toks[::2], toks[1::2]):
        coef = Fraction(1)
        mono = {}
        for part in body.split("*"):
            mc = _COEF.match(part)
            if mc:
                coef *= Fraction(int(mc.group(1)), int(mc.group(2) or 1))
                continue
            mf = _FACTOR.match(part)
            if not mf or mf.group(1) not in index:
                raise ValueError("bad factor %r in %r" % (part, text))
            k = len(mf.group(2)) if mf.group(2) else int(mf.group(3) or 0)
            d = (index[mf.group(1)], k)
            mono[d] = mono.get(d, 0) + int(mf.group(4) or 1)
        m = tuple(sorted(mono.items()))
        acc[m] = acc.get(m, 0) + (coef if sign == "+" else -coef)
    return {m: c for m, c in acc.items() if c}


# -- evaluation modulo PRIME ------------------------------------------------


def _mod(c):
    return c.numerator % PRIME * pow(c.denominator % PRIME, -1, PRIME) % PRIME


class Point:
    """Values of every derivative x_v^(k) at t = t0 for x_v = a polynomial in t.

    Substitution is a differential ring map into functions of t with d/dt as
    the derivation, so any identity that holds for the polynomials holds for
    the values too.  `coeffs[v]` are the (rational) coefficients of x_v(t).
    """

    def __init__(self, coeffs, t0):
        self.coeffs = [[Fraction(c) for c in cs] for cs in coeffs]
        self.t0 = t0
        self.cache = {}

    def value(self, v, k):
        key = (v, k)
        if key not in self.cache:
            cs, val = self.coeffs[v], 0
            for j in range(k, len(cs)):
                # d^k/dt^k t^j = j!/(j-k)! t^(j-k)
                fall = 1
                for i in range(j - k + 1, j + 1):
                    fall *= i
                val = (val + _mod(cs[j]) * fall % PRIME * pow(self.t0, j - k, PRIME)) % PRIME
            self.cache[key] = val
        return self.cache[key]

    def eval(self, p):
        total = 0
        for m, c in p.items():
            t = _mod(c)
            for (v, k), e in m:
                t = t * pow(self.value(v, k), e, PRIME) % PRIME
            total += t
        return total % PRIME


def random_point(rng, nvars, degree):
    """A seeded substitution with nonzero derivatives up to `degree`."""
    coeffs = [[rng.randrange(1, PRIME) for _ in range(degree + 1)] for _ in range(nvars)]
    return Point(coeffs, rng.randrange(1, PRIME))


def certificate_holds(point, f, divisors, s, quotients, r):
    """s*f == sum_i sum_k Q_ik * g_i^(k) + r, evaluated at the point."""
    rhs = point.eval(r)
    for g, q in zip(divisors, quotients):
        for k, qk in q.items():
            rhs += point.eval(qk) * point.eval(derive(g, k))
    return (point.eval(s) * point.eval(f) - rhs) % PRIME == 0


# -- order matrices and tropical determinants ------------------------------


def order_matrix(polys, n, convention="strong"):
    rows = []
    for p in polys:
        row = []
        for v in range(n):
            o = order_in(p, v)
            row.append(0 if (o == NEG and convention == "weak") else o)
        rows.append(row)
    return rows


def max_transversal(a):
    """Tropical determinant by dynamic programming over column subsets."""
    n = len(a)
    best = {0: 0}
    for i in range(n):
        nxt = {}
        for mask, val in best.items():
            for j in range(n):
                if not mask >> j & 1 and a[i][j] != NEG:
                    key = mask | 1 << j
                    cand = val + a[i][j]
                    if cand > nxt.get(key, NEG):
                        nxt[key] = cand
        best = nxt
    return best.get((1 << n) - 1, NEG)


def maximizing_perms(a):
    n = len(a)
    value = max_transversal(a)
    if value == NEG:
        return value, []
    perms = [rho for rho in itertools.permutations(range(n)) if sum(a[i][rho[i]] for i in range(n)) == value]
    return value, perms


# -- det P(D) for constant-coefficient linear systems ------------------------


def _bareiss_det(m):
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_degree(polys, n):
    """deg_D det P(D), P the operator matrix of a linear system; NEG if det = 0.

    det P(lam) is evaluated exactly at lam = 0..B (B bounds its degree) by
    fraction-free elimination; the degree is the highest nonzero order of
    the forward-difference table.
    """
    ops = [[{} for _ in range(n)] for _ in polys]
    for i, p in enumerate(polys):
        den = math.lcm(*(c.denominator for c in p.values()))
        for m, c in p.items():
            if m:
                ((v, k), e), = m
                if e != 1:
                    raise ValueError("not linear")
                ops[i][v][k] = ops[i][v].get(k, 0) + int(c * den)
    bound = sum(max((k for cell in row for k in cell), default=0) for row in ops)
    vals = []
    for lam in range(bound + 1):
        mat = [[sum(c * lam**k for k, c in cell.items()) for cell in row] for row in ops]
        vals.append(_bareiss_det(mat))
    deg = NEG
    for order in range(bound + 1):
        if vals[0] != 0:
            deg = order
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return deg


# -- autoreduction under a ranking -------------------------------------------


def rank_key(ranking, d):
    """ranking: None for orderly, else blocks (lowest first) of var indices."""
    v, k = d
    if ranking is None:
        return (k, v)
    block = next(i for i, b in enumerate(ranking) if v in b)
    return (block, k, v)


def leader(p, ranking):
    return max((d for m in p for d, _ in m), key=lambda d: rank_key(ranking, d))


def autoreduced_problems(elements, ranking):
    """Reasons why the list is not an autoreduced set (empty when it is)."""
    out = []
    if not elements:
        return ["empty set"]
    info = []
    for p in elements:
        if not p or all(m == () for m in p):
            out.append("constant element")
            return out
        ld = leader(p, ranking)
        info.append((ld, degree_in(p, ld)))
    ranks = [(rank_key(ranking, ld), dg) for ld, dg in info]
    if any(not a < b for a, b in zip(ranks, ranks[1:])):
        out.append("ranks not strictly increasing")
    if len({ld[0] for ld, _ in info}) != len(info):
        out.append("two leaders in one variable")
    for i, p in enumerate(elements):
        for j, (ld, dg) in enumerate(info):
            if i == j:
                continue
            v, k = ld
            if order_in(p, v) > k:
                out.append("element %d has a proper derivative of leader %d" % (i, j))
            elif degree_in(p, ld) >= dg:
                out.append("element %d has degree >= %d in leader %d" % (i, dg, j))
    return out
