"""Seeded random generators, reference implementations and the paper's
constructions, shared by the test modules."""

import math
from collections import Counter
from fractions import Fraction

from diffalg import (
    NEG_INF,
    AutoreducedSet,
    BipartiteMultigraph,
    DiffRing,
    HallViolation,
    InternalInvariantViolation,
    hall_matching,
    render,
)
from diffalg.tropical import Assignment, _shape, tdet_brute

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


# -- the paper's constructions -----------------------------------------------------
# What the paper states and the tests check, which no program path runs:
# the identity permutation and the cyclic sum (acceptance criterion 4), the
# split of a regular bipartite multigraph into perfect matchings (criterion
# 6), the lower-than relation (criterion 8), the transversal sum (criterion
# 9), Ritt's ordering as a key, the directed-cycle walk, and the projection
# of a characteristic set onto its lowest elimination block.  Matrices are
# checked by the tropical layer's own _shape, so a ragged or empty one raises
# as it does in the program.


def identity_perm(n):
    return tuple(range(n))


def transversal_value(entries, rho):
    _shape(entries)
    if sorted(rho) != list(range(len(entries))):
        raise ValueError("not a permutation: %r" % (rho,))
    return sum(entries[i][rho[i]] for i in range(len(entries)))


def cyclic_sum(entries, cycle):
    """a_{i1,i2} + a_{i2,i3} + ... + a_{is,i1} for a genuine cycle (length >= 2)."""
    n, m = _shape(entries)
    if m != n:
        raise ValueError("cyclic sums need a square matrix")
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        raise ValueError("not a cycle: %r" % (cycle,))
    if any(not 0 <= i < n for i in cycle):
        raise ValueError("cycle index out of range")
    return sum(entries[cycle[k]][cycle[(k + 1) % len(cycle)]] for k in range(len(cycle)))


def ritt_key(entries):
    """Per column the sorted entry vector; columns compared left to right."""
    n, m = _shape(entries)
    return tuple(tuple(sorted(entries[i][j] for i in range(n))) for j in range(m))


def decompose_regular(graph, k):
    """Split a k-regular bipartite multigraph into k perfect matchings (König)."""
    dl, dr = [0] * graph.left, [0] * graph.right
    for l, r in graph.edges:
        dl[l] += 1
        dr[r] += 1
    for side, degs in (("left", dl), ("right", dr)):
        for v, d in enumerate(degs):
            if d != k:
                raise ValueError("%s vertex %d has degree %d, expected %d" % (side, v, d, k))
    if graph.left != graph.right:
        raise ValueError("regularity forces equal sides")
    remaining = Counter(graph.edges)
    out = []
    for _ in range(k):
        sub = BipartiteMultigraph(graph.left, graph.right, tuple(remaining.elements()))
        m = hall_matching(sub)
        if isinstance(m, HallViolation):
            raise InternalInvariantViolation("regular graph lost a perfect matching: %r in %r" % (m, graph))
        out.append(m)
        for e in m.pairs:
            remaining[e] -= 1
    if sum(remaining.values()):
        raise InternalInvariantViolation("edges left after %d matchings of %r" % (k, graph))
    return out


def find_directed_cycle(successor):
    """A directed cycle in an out-degree-one digraph without self-loops.

    `successor` is a sequence with successor[i] the unique out-neighbour of
    i.  Walk from the smallest vertex; the first repeat closes the cycle."""
    n = len(successor)
    for i, s in enumerate(successor):
        if not 0 <= s < n:
            raise ValueError("successor of %d out of range" % i)
        if s == i:
            raise ValueError("self-loop at %d" % i)
    walk = [0]
    pos = {0: 0}
    while True:
        nxt = successor[walk[-1]]
        if nxt in pos:
            return tuple(walk[pos[nxt]:])
        pos[nxt] = len(walk)
        walk.append(nxt)


def is_lower_than(f, g, var):
    """f lower than g per var: smaller order, or equal order and smaller
    degree in the leading derivative of var."""
    lf, lg = f.leader_in(var), g.leader_in(var)
    # (x_var^(k), degree) pairs of one variable compare by order, then degree
    return lg is not None and (lf is None or lf < lg)


def elimination_project(charset, keep):
    """Restrict to the polynomials supported entirely on the kept block.

    The ranking must be a block elimination ranking whose lowest block is
    exactly the kept variables.  The kept polynomials then form a prefix,
    since every leader in the kept block ranks below every other leader;
    InternalInvariantViolation when they do not.
    """
    ring = charset.elements[0].ring
    keep_idx = tuple(ring.var_index(v) for v in keep)
    rk = charset.ranking
    if rk.kind != "elim" or set(rk.blocks[0]) != set(keep_idx):
        raise ValueError("ranking's lowest block must equal the kept variables")
    inside = [all(v in keep_idx for v in p.variables()) for p in charset.elements]
    cut = sum(inside)
    if not all(inside[:cut]) or any(inside[cut:]):
        raise InternalInvariantViolation(
            "kept polynomials do not form a prefix: %s" % ", ".join(render(p) for p in charset.elements)
        )
    if cut == 0:
        raise ValueError("no polynomial lies in the kept block")
    return AutoreducedSet._make((charset.elements[:cut], rk))  # a prefix of an autoreduced set is one


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


def ref_add(t1, t2):
    acc = dict(t1)
    for m, c in t2.items():
        acc[m] = acc.get(m, 0) + c
    return _ref_clean(acc)


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


# -- reference Ritt division ----------------------------------------------------------
# Each step forms the full products mult*r - co*g^(k), the terms that cancel
# included, by DiffPoly's public arithmetic, then divides r by its content.


def _ref_content(p):
    """(content, p / content): the gcd of the numerators over the lcm of the
    denominators, an int when every coefficient is one (1 below 2)."""
    vals = list(p.terms.values())
    if all(type(c) is int for c in vals):
        c = math.gcd(*vals)
        return (1, p) if c < 2 else (c, p * Fraction(1, c))
    c = Fraction(math.gcd(*(v.numerator for v in vals)), math.lcm(*(v.denominator for v in vals)))
    return c, p * (1 / c)


def ref_ritt_divide(f, divisors, mode="full", ranking=None, var=None):
    """(to_json() dict, multipliers, remainder, den) of
    ritt_divide(f, divisors, mode, ranking, var): each step eliminates the
    top degree of r's highest unreduced derivative occ, of order k over the
    leader of divisor g, as mult*r - co*g^(k), mult the separant (k > 0) or
    the initial (k = 0) and co the coefficient of occ^e times occ^(e - 1) or
    occ^(e - deg), and the content of each step moves into den; S and the
    Q_i come from one pass back over the steps."""
    from diffalg import orderly, render
    from diffalg.diffpoly import Derivative

    ring = f.ring
    if var is not None:
        leads = [divisors[0].leader_in(var)]
    else:
        ranking = ranking or orderly()
        leads = [ranking.leader_degree(g) for g in divisors]
    r, den, steps = f, 1, []
    while True:
        best = None
        for i, (ld, dg) in enumerate(leads):
            o = r.order_in(ld.var)
            if o == NEG_INF or o < ld.order:
                continue
            occ = Derivative(ld.var, o)
            e = r.deg_in(occ)
            if o == ld.order and (mode == "partial" or e < dg):
                continue
            key = (o,) if var is not None else ranking.key(occ)
            if best is None or key > best[0]:
                best = (key, i, occ, e)
        if best is None:
            break
        _, i, occ, e = best
        (ld, dg), g = leads[i], divisors[i]
        k = occ.order - ld.order
        mult, low = (g.partial(ld), 1) if k else (g.coeffs_in(ld)[dg], dg)
        co = r.coeffs_in(occ)[e] * ring.var(occ.var, occ.order) ** (e - low)
        steps.append((i, k, co * den, mult))
        c, r = _ref_content(mult * r - co * g.derive(k))
        den = den * c
    S, Q = ring.one(), [{} for _ in divisors]
    for i, k, t, mult in reversed(steps):
        Q[i][k] = Q[i].get(k, ring.zero()) + S * t
        S = mult * S
    inv = Fraction(1, den)
    doc = {
        "s": render(S * inv),
        "quotients": [sorted(((k, render(c * inv)) for k, c in q.items() if c), reverse=True) for q in Q],
        "remainder": render(r),
        "mode": mode,
    }
    return doc, tuple(m for *_, m in steps), r, den


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


def assert_optimal(a, sol):
    """sol is an optimal Assignment of the square matrix a: its value is the
    factorial oracle's, its duals are feasible on every finite cell and tight
    on rho, and sum(u) + sum(v) = value."""
    assert sol.value == tdet_brute(a)[0], (a, sol)
    if sol.value == NEG_INF:
        assert sol == Assignment(NEG_INF), (a, sol)
        return
    n = len(a)
    assert sorted(sol.rho) == list(range(n)), (a, sol)
    assert all(sol.u[i] + sol.v[j] >= e for i, row in enumerate(a) for j, e in enumerate(row) if e != NEG_INF), (a, sol)
    assert all(sol.u[i] + sol.v[sol.rho[i]] == a[i][sol.rho[i]] for i in range(n)), (a, sol)
    assert sum(sol.u) + sum(sol.v) == sol.value, (a, sol)


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
    from diffalg.tropical import compose, inverse, permute, transposition

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


def second_form_per_candidate(a):
    """normalize's second-form certificate as the search ran before the
    one-pass distances: one Hungarian solve of the minor per candidate row.
    Call it on a matrix that normalize puts in the second form."""
    from diffalg import FormCertificate, tdet
    from diffalg.matching import perfect_matchings
    from diffalg.tropical import _tight_graph, minor, tdet_assignment

    n = len(a)
    sol = tdet_assignment(a)
    rho = next(perfect_matchings(_tight_graph(a, sol)))
    r = rho.index(0)
    others = [k for k in range(n) if k != r]
    for idx, i in enumerate(others):
        inner = sol.value - a[r][0] - a[i][rho[i]] + a[i][0]
        if inner == NEG_INF or tdet(minor(a, r, rho[i])) != inner:
            continue
        rows = list(others)
        rows[0], rows[idx] = i, rows[0]
        return FormCertificate(
            tuple(rows) + (r,), (0,) + tuple(rho[k] for k in rows[1:]) + (rho[i],), "second", idx + 1
        )
    raise AssertionError("no second-form index for %r" % (a,))
