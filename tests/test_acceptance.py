"""Acceptance gate: nine criteria, each reported as one PASS/FAIL line in the
terminal summary.  Every check is exact (integer or rational equality); the
random suites are fully seeded and must show zero failures."""

import functools
import itertools
import random
from collections import Counter

from diffalg import (
    HypothesisFailure,
    InconsistentSystem,
    NEG_INF,
    BipartiteMultigraph,
    Matching,
    build_pencil,
    coseparant,
    detect_second_form,
    fiber_at,
    hall_matching,
    is_reduced_wrt,
    linear_reduce,
    order_matrix,
    orderly,
    parse_system,
    permute,
    ritt_compare,
    ritt_divide,
    scripted_divide,
    step_first_form,
    step_second_form,
    tdet,
    tdet_assignment,
    tdet_brute,
    to_first_form,
    to_second_form,
)
from diffalg.corpus import J_INCREASING, J_INCREASING_SECOND_FORM
from diffalg.generators import rand_linear_system, rand_matrix
from diffalg.tropical import compose, inverse

from conftest import ACCEPTANCE_LINES
from helpers import (
    all_cycles,
    cyclic_sum,
    decompose_regular,
    identity_perm,
    is_lower_than,
    rand_nonconstant,
    rand_poly,
    rand_unit_separant_system,
    ring_of,
    transversal_value,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                ACCEPTANCE_LINES.append("criterion %d: FAIL  %s" % (num, label))
                raise
            ACCEPTANCE_LINES.append("criterion %d: PASS  %s" % (num, label))

        return wrapper

    return deco


@criterion(1, "golden Jacobi numbers (exact)")
def test_golden_jacobi_numbers():
    ring, sys1 = parse_system(J_INCREASING)
    assert tdet(order_matrix(sys1, None, "weak").entries) == 101
    assert tdet(order_matrix(sys1, None, "strong").entries) == 101
    assert tdet(((1, 18), (0, 1))) == 18
    assert tdet(((1, 18), (NEG_INF, 1))) == 2
    ring2, sys2 = parse_system(J_INCREASING_SECOND_FORM)
    before = order_matrix(sys2, None, "strong").entries
    assert before == ((1, 2, 3), (1, 1, 1), (2, 1, 1))
    assert tdet(before) == 6
    after_sys, _ = scripted_divide(sys2, [(2, 0, "x")])
    after = order_matrix(after_sys, None, "strong").entries
    assert after == ((1, 2, 3), (1, 1, 1), (1, 3, 4))
    assert tdet(after) == 7


@criterion(2, "scripted trace J-sequence 101,150,101 (exact)")
def test_scripted_trace():
    ring, sys1 = parse_system(J_INCREASING)
    final, trace = scripted_divide(sys1, [(0, 2, "x"), (1, 2, "x")])
    assert trace.j_sequence == (101, 150, 101)


def _reduced_in(r, g, v, mode):
    from diffalg import Derivative

    rv, gv = r.order_in(v), g.order_in(v)
    if rv == NEG_INF or rv < gv:
        return True
    if rv > gv:
        return False
    if mode == "partial":
        return True
    ld = Derivative(g.ring.index[v] if isinstance(v, str) else v, int(gv))
    return r.deg_in(ld) < g.deg_in(ld)


@criterion(3, "500 division certificates, both modes, zero failures")
def test_division_certificates():
    rng = random.Random(101)
    rk = orderly()
    done = 0
    while done < 500:
        mode = "partial" if done % 2 else "full"
        ring = ring_of(rng.randint(1, 3))
        f = rand_poly(rng, ring, max_monos=3, max_deg=3, max_order=4)
        if done % 4 < 2 or ring.nvars == 1:
            g = rand_nonconstant(rng, ring, max_monos=3, max_deg=3, max_order=4)
            v = rng.choice(g.variables())
            cert = ritt_divide(f, [g], mode, var=v)
            assert cert.verify(f, [g])
            assert _reduced_in(cert.remainder, g, v, mode)
        else:
            v1, v2 = rng.sample(range(ring.nvars), 2)
            gs = []
            for v in (v1, v2):
                r = rng.randint(1, 4)
                lead = ring.var(v, r) ** rng.randint(1, 3)
                tail = rand_poly(rng, ring, max_monos=2, max_deg=2, max_order=max(r - 1, 0), nonzero=False)
                gs.append(lead * rng.choice([-2, -1, 1, 2]) + tail)
            cert = ritt_divide(f, gs, mode)
            assert cert.verify(f, gs)
            for g in gs:
                assert is_reduced_wrt(cert.remainder, g, mode, rk)
        assert cert.s
        done += 1


@criterion(4, "cycle trick on 300 diagonalized matrices vs brute force")
def test_cycle_trick():
    rng = random.Random(202)
    done = 0
    while done < 300:
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n, p_inf=rng.choice([0.0, 0.15, 0.3]))
        value, wits = tdet_brute(a)
        if value == NEG_INF:
            continue
        d = permute(a, inverse(wits[0]), identity_perm(n))
        assert sum(d[i][i] for i in range(n)) == value
        for cyc in all_cycles(n):
            assert cyclic_sum(d, cyc) <= sum(d[i][i] for i in cyc)
        done += 1


@criterion(5, "200+200 form normalizations, J monotone, Ritt-order drop")
def test_form_monotonicity():
    rng = random.Random(303)
    hits = {"first": 0, "second": 0}
    attempts = 0
    while (hits["first"] < 200 or hits["second"] < 200) and attempts < 20000:
        attempts += 1
        n = rng.randint(2, 4)
        if attempts % 2:
            ring = ring_of(n)
            sys_ = rand_linear_system(rng, ring, max_order=4)
        else:
            ring, sys_ = rand_unit_separant_system(rng, n, max_order=3, boost_first=(attempts % 4 == 0))
        m = order_matrix(sys_, None, "strong")
        if tdet(m.entries) == NEG_INF:
            continue
        try:
            cert, form = to_first_form(m.entries), "first"
        except HypothesisFailure:
            try:
                cert, form = to_second_form(m.entries), "second"
            except HypothesisFailure:
                continue
        if hits[form] >= 200:
            continue
        perm_sys = [sys_[cert.row_perm[i]] for i in range(n)]
        var_order = [cert.col_perm[j] for j in range(n)]
        step_fn = step_first_form if form == "first" else step_second_form
        out, step = step_fn(perm_sys, var_order=var_order)
        assert step.j_after_strong <= step.j_before_strong
        before = order_matrix(perm_sys, var_order, "strong")
        assert ritt_compare(step.matrix_after_strong.entries, before.entries) == "less"
        hits[form] += 1
    assert hits == {"first": 200, "second": 200}, hits


def _second_form_hypotheses_brute(a):
    n = len(a)
    value, wits = tdet_brute(a)
    if value == NEG_INF or not wits:
        return False
    col0 = [row[0] for row in a]
    finite = [e for e in col0 if e != NEG_INF]
    if len(finite) < 2:
        return False
    colmax = max(finite)
    return all(a[inverse(w)[0]][0] == colmax for w in wits)


@criterion(6, "second-form normalization on 300 matrices; regular matching split")
def test_gap_fix_existence():
    rng = random.Random(404)
    done = 0
    while done < 300:
        n = rng.choice([3, 4, 5])
        a = rand_matrix(rng, n, lo=0, hi=5, p_inf=0.15, finite_col0=True)
        if done % 2:
            c = rng.randint(0, 5)
            a = tuple((c,) + row[1:] for row in a)
        if not _second_form_hypotheses_brute(a):
            continue
        cert = to_second_form(a)
        assert detect_second_form(cert.apply(a))
        done += 1

    for trial in range(100):
        rng2 = random.Random(500 + trial)
        side = rng2.randint(2, 8)
        k = rng2.randint(1, 4)
        edges = []
        for _ in range(k):
            perm = list(range(side))
            rng2.shuffle(perm)
            edges.extend((i, perm[i]) for i in range(side))
        g = BipartiteMultigraph(side, side, tuple(edges))
        parts = decompose_regular(g, k)
        assert len(parts) == k
        for m in parts:
            assert isinstance(m, Matching) and len(m.pairs) == side
        assert Counter(e for m in parts for e in m.pairs) == Counter(edges)


@criterion(7, "100 linear reductions: budget, monotone J, bound <= initial J")
def test_linear_reduce_bound():
    rng = random.Random(505)
    done = 0
    while done < 100:
        ring = ring_of(rng.randint(1, 4))
        sys_ = rand_linear_system(rng, ring, max_order=5)
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem:
            continue
        seq = res.trace.j_sequence_strong
        assert all(x >= y for x, y in zip(seq, seq[1:]))
        if not res.degenerate:
            assert res.diff_dim == 0
            assert res.abs_dim_bound <= res.j_initial
        done += 1


@criterion(8, "200 pencil pivots: exact identity, rank drop, reconstruction")
def test_pencil_identities():
    from fractions import Fraction

    rng = random.Random(606)
    rk = orderly()
    for _ in range(200):
        ring = ring_of(rng.randint(1, 3))
        u = rand_nonconstant(rng, ring, max_monos=3, max_deg=3, max_order=3)
        v = rng.choice(u.variables())
        t1, s1, ld, d = coseparant(u, v)
        assert u * d == t1 + ring.var(v, ld.order) * s1
        assert is_lower_than(s1, u, v)
        assert not t1 or t1.is_constant() or is_lower_than(t1, u, v)
        pen = build_pencil([u], 0, v)
        t1b, s1b = pen.base_generators()[:2]
        assert (t1b + ring.var(v, ld.order) * s1b) * Fraction(1, d) == u
        mu = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        fib = fiber_at(pen, mu)[0]
        if fib and not fib.is_constant():
            assert is_lower_than(fib, u, v)
            if rk.leader(u) == ld:
                assert rk.rank(fib) < rk.rank(u)


@criterion(9, "tropical oracle agreement and witness law")
def test_tropical_oracles():
    rng = random.Random(707)
    for _ in range(300):
        n = rng.randint(1, 7)
        a = rand_matrix(rng, n, p_inf=rng.choice([0.0, 0.2, 0.5]))
        value, _ = tdet_brute(a)
        assert value == tdet_assignment(a).value
    for _ in range(3):
        a = rand_matrix(rng, 3, p_inf=0.2)
        for sigma in itertools.permutations(range(3)):
            for tau in itertools.permutations(range(3)):
                b = permute(a, sigma, tau)
                for rho in itertools.permutations(range(3)):
                    moved = compose(inverse(tau), compose(rho, sigma))
                    assert transversal_value(b, moved) == transversal_value(a, rho)
