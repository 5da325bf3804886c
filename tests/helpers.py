"""Seeded random generators shared by the test modules."""

from fractions import Fraction

from diffalg import DiffRing, NEG_INF

NAMES = ("x", "y", "z", "t", "u", "v")


def ring_of(nvars):
    return DiffRing(NAMES[:nvars])


SMALL_INTS = (-3, -2, -1, 1, 2, 3)
SMALL_RATIONALS = SMALL_INTS + (Fraction(7, 5), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 4))


def rand_poly(rng, ring, max_monos=4, max_deg=3, max_order=4, nonzero=True, coeffs=SMALL_INTS):
    while True:
        p = ring.zero()
        for _ in range(rng.randint(1, max_monos)):
            term = ring.const(Fraction(rng.choice(coeffs)))
            for _ in range(rng.randint(0, max_deg)):
                v = rng.randrange(ring.nvars)
                term = term * ring.var(v, rng.randint(0, max_order))
            p = p + term
        if p or not nonzero:
            return p


def rand_nonconstant(rng, ring, **kw):
    while True:
        p = rand_poly(rng, ring, **kw)
        if not p.is_constant():
            return p


def rand_unit_separant_system(rng, n, max_order=4, boost_first=False):
    """Square system whose top derivative in every variable it contains has a
    constant coefficient, so all separants and initials are constants.  May
    carry a nonlinear tail strictly below every top order."""
    ring = ring_of(n)
    out = []
    for i in range(n):
        tops = {}
        for v in range(n):
            if v == i or rng.random() < 0.8:
                tops[v] = rng.randint(0, max_order)
        if boost_first and i == rng.randrange(n):
            tops[0] = rng.randint(max_order + 1, max_order + 3)
        p = ring.zero()
        for v, r in tops.items():
            p = p + ring.var(v, r) * rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.4:
            lows = [(v, j) for v, r in tops.items() for j in range(r)]
            if lows:
                tail = ring.const(rng.choice([-1, 1]))
                for _ in range(rng.randint(1, 2)):
                    v, j = rng.choice(lows)
                    tail = tail * ring.var(v, j)
                p = p + tail
        if rng.random() < 0.3:
            p = p + ring.const(rng.randint(-2, 2))
        out.append(p)
    return ring, out


def all_cycles(n):
    """Every cyclic permutation pattern (as vertex tuples) on subsets of 0..n-1."""
    import itertools

    out = []
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(n), k):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                out.append((first,) + rest)
    return out



# -- naive reference kernel ----------------------------------------------------------
# DiffPoly's arithmetic as plain dict-and-sort code on term dicts (monomial ->
# coefficient): every monomial is rebuilt through a dict and re-sorted, and
# every sum drops its zero coefficients.


def _ref_mono(acc):
    return tuple(sorted((d, e) for d, e in acc.items() if e))


def _ref_clean(acc):
    return {m: c for m, c in acc.items() if c}


def ref_mono_mul(m1, m2):
    acc = dict(m1)
    for d, e in m2:
        acc[d] = acc.get(d, 0) + e
    return _ref_mono(acc)


def ref_mul(t1, t2):
    acc = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = ref_mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _ref_clean(acc)


def ref_partial(terms, d):
    acc = {}
    for m, c in terms.items():
        md = dict(m)
        e = md.get(d, 0)
        if e:
            md[d] = e - 1
            mono = _ref_mono(md)
            acc[mono] = acc.get(mono, 0) + c * e
    return _ref_clean(acc)


def ref_derive(terms):
    from diffalg import Derivative

    acc = {}
    for m, c in terms.items():
        for d, _ in m:
            up = Derivative(d.var, d.order + 1)
            for mono, k in ref_partial({m: c}, d).items():
                mono = ref_mono_mul(mono, ((up, 1),))
                acc[mono] = acc.get(mono, 0) + k
    return _ref_clean(acc)


def ref_coeffs_in(terms, d):
    out = {}
    for m, c in terms.items():
        md = dict(m)
        e = md.pop(d, 0)
        bucket = out.setdefault(e, {})
        mono = _ref_mono(md)
        bucket[mono] = bucket.get(mono, 0) + c
    return {e: t for e, t in ((e, _ref_clean(t)) for e, t in out.items()) if t}


def ref_deg_in(terms, d):
    return max(ref_coeffs_in(terms, d), default=NEG_INF)


def ref_order_in(terms, var, convention):
    orders = [d.order for m in terms for d, _ in m if d.var == var]
    if orders:
        return max(orders)
    return 0 if convention == "weak" else NEG_INF


def is_canonical_monomial(m):
    """A sorted tuple of distinct (Derivative, exponent > 0) pairs."""
    from diffalg import Derivative

    return (
        type(m) is tuple
        and all(type(d) is Derivative and d.order >= 0 and type(e) is int and e > 0 for d, e in m)
        and all(a[0] < b[0] for a, b in zip(m, m[1:]))
    )

def mono_key(m, ranking):
    """Descending multiset of the ranking's keys of the derivatives of a
    tuple monomial: a total refinement of the ranking on leading derivatives."""
    ks = []
    for d, e in m:
        ks.extend([ranking.key(d)] * e)
    ks.sort(reverse=True)
    return tuple(ks)


def ref_render(p):
    """render(p) from the terms view: terms sorted by mono_key under the
    orderly ranking, factors by descending (order, var)."""
    from diffalg import orderly
    from diffalg.diffpoly import render_derivative

    if not p.terms:
        return "0"
    out = []
    rk = orderly()
    for m in sorted(p.terms, key=lambda m: mono_key(m, rk), reverse=True):
        c = p.terms[m]
        facs = sorted(m, key=lambda de: (de[0].order, de[0].var), reverse=True)
        mono = "*".join(render_derivative(p.ring, d) + ("^%d" % e if e > 1 else "") for d, e in facs)
        a = abs(c)
        body = str(a) if not m else mono if a == 1 else "%s*%s" % (a, mono)
        out.append(("-" if c < 0 else "+", body))
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    return text + "".join(" %s %s" % sb for sb in out[1:])


# -- determinant oracle for constant-coefficient linear systems ----------------------
# P(D) has entries in Z[D], each a tuple of integer coefficients, lowest power
# first, without trailing zeros (the zero polynomial is ()).


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def _dsub(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n))


def _dmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ddiv_exact(a, b):
    """a / b in Z[D], which must divide exactly."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c, rem = divmod(a[k + len(b) - 1], b[-1])
        if rem:
            raise AssertionError("inexact division in Z[D]")
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise AssertionError("inexact division in Z[D]")
    return _trim(q)


def bareiss_det(m):
    """Fraction-free determinant (Bareiss 1968) of a square matrix over Z[D]."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, (1,)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return ()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _ddiv_exact(_dsub(_dmul(m[i][j], m[k][k]), _dmul(m[i][k], m[k][j])), prev)
        prev = m[k][k]
    return tuple(sign * c for c in m[n - 1][n - 1])


def rand_constant_coefficient_system(rng, n, max_order):
    """(P(D), text): a square linear system with integer coefficients, as its
    operator matrix and as system-file text; constants are added at random
    (they do not enter P(D))."""
    names = NAMES[:n]
    matrix, lines = [], []
    for i in range(n):
        row, terms = [], []
        for j in range(n):
            cell = [0] * (max_order + 1)
            if j == i or rng.random() < 0.6:
                for k in rng.sample(range(max_order + 1), rng.randint(1, 2)):
                    cell[k] = rng.choice([-3, -2, -1, 1, 2, 3])
            row.append(_trim(cell))
            terms += [(c, "%s^(%d)" % (names[j], k)) for k, c in enumerate(cell) if c]
        if rng.random() < 0.3:
            terms.append((rng.choice([-2, -1, 1, 2]), "1"))
        matrix.append(row)
        lines.append(" ".join("%s %d*%s" % ("-" if c < 0 else "+", abs(c), t) for c, t in terms))
    return matrix, "vars: %s\n%s\n" % (", ".join(names), "\n".join(lines))


# -- brute-force reference normalizers -------------------------------------------
# The form normalizers as they were before the tight-graph route: every
# witness question is answered over the full list of maximizing permutations
# from tdet_brute, and every form test by brute-force determinants.


def _brute_value(a):
    from diffalg import tdet_brute

    return tdet_brute(a)[0]


def _brute_third_form(d):
    from diffalg.tropical import minor

    n = len(d)
    pattern = d[n - 1][0] + sum(d[i][i + 1] for i in range(n - 1))
    if _brute_value(d) != pattern:
        return False
    inner = d[0][0] + sum(d[i][i + 1] for i in range(1, n - 1))
    if inner == NEG_INF or _brute_value(minor(d, n - 1, 1)) != inner:
        return False
    return d[n - 1][0] == max(d[i][0] for i in range(n))


def _brute_witness_data(a):
    from diffalg import HypothesisFailure, tdet_brute
    from diffalg.tropical import inverse

    value, wits = tdet_brute(a)
    if value == NEG_INF:
        raise HypothesisFailure("no finite transversal")
    col0 = [row[0] for row in a]
    if sum(1 for e in col0 if e != NEG_INF) < 2:
        raise HypothesisFailure("column 1 has fewer than two finite entries")
    picks = [(rho, a[inverse(rho)[0]][0]) for rho in wits]
    return value, wits, max(col0), picks


def first_form_brute(a):
    """FormCertificate of the first-form normalizer, from min(good)."""
    from diffalg import FormCertificate, HypothesisFailure
    from diffalg.tropical import compose, identity_perm, inverse, permute, transposition

    n = len(a)
    _, _, colmax, picks = _brute_witness_data(a)
    good = [rho for rho, e in picks if e != NEG_INF and e < colmax]
    if not good:
        raise HypothesisFailure("every maximizing transversal meets column 1 at its maximum")
    sigma = inverse(min(good))
    b = permute(a, sigma, identity_perm(n))
    i = 1 if b[1][0] >= b[0][0] else max(range(1, n), key=lambda r: (b[r][0], -r))
    sw = transposition(n, 1, i)
    return FormCertificate(compose(sigma, sw), sw, "first")


def _cols_cycle(n):
    # second -> third: new col 1 is old col n-1, cols 2..n-1 shift right
    rho = [0] * n
    if n >= 2:
        rho[1] = n - 1
    for j in range(2, n):
        rho[j] = j - 1
    return tuple(rho)


def second_form_brute(a):
    """FormCertificate of the second-form normalizer, from min(wits)."""
    from diffalg import FormCertificate, HypothesisFailure
    from diffalg.tropical import compose, inverse, permute, transposition

    n = len(a)
    _, wits, colmax, picks = _brute_witness_data(a)
    if any(e != colmax for _, e in picks):
        raise HypothesisFailure("some maximizing transversal avoids the column-1 maximum")
    rho = min(wits)
    r = inverse(rho)[0]
    remaining = [i for i in range(n) if i != r]
    sigma0 = tuple(remaining + [r])
    tau0 = tuple([0] + [rho[i] for i in remaining])
    a1 = permute(a, sigma0, tau0)
    for idx in range(n - 1):
        sw_r = transposition(n, 0, idx)
        sw_c = transposition(n, 1, idx + 1)
        if _brute_third_form(permute(a1, sw_r, sw_c)):
            return FormCertificate(
                compose(sigma0, sw_r),
                compose(compose(tau0, sw_c), inverse(_cols_cycle(n))),
                "second",
                idx + 1,
            )
    raise AssertionError("no second-form index for %r" % (a,))
