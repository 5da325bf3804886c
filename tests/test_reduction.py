import functools
import hashlib
import json
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import diffalg

from diffalg import (
    AutoreducedSet,
    DivisionCertificate,
    InconsistentSystem,
    InternalInvariantViolation,
    LinOp,
    POS_INF,
    autoreduce_loop,
    compare_autoreduced,
    dimensions,
    elimination,
    is_reduced_wrt,
    membership,
    orderly,
    parse_poly,
    render,
    ritt_divide,
)
from diffalg import reduction
from diffalg.diffpoly import PRIME, _residue
from diffalg.reduction import _replay_holds
from diffalg.generators import rand_linear_system
from helpers import (
    SMALL_INTS,
    SMALL_RATIONALS,
    elimination_project,
    rand_nonconstant,
    rand_poly,
    ref_deg_in,
    ref_order_in,
    ref_ritt_divide,
    ring_of,
)

R2 = ring_of(2)
R3 = ring_of(3)


def P(text, ring=R2):
    return parse_poly(text, ring)


# -- single divisions ---------------------------------------------------------


def test_divide_linear_full():
    # x'' against x' - x: full mode pushes all the way down to x
    cert = ritt_divide(P("x''"), [P("x' - x")], "full", var="x")
    assert cert.s == R2.one()
    assert cert.remainder == P("x")
    assert cert.quotients[0].coeffs == {1: R2.one(), 0: R2.one()}  # D + 1
    assert cert.verify(P("x''"), [P("x' - x")])


def test_divide_linear_partial_stops_at_equal_order():
    cert = ritt_divide(P("x''"), [P("x' - x")], "partial", var="x")
    assert cert.s == R2.one()
    assert cert.remainder == P("x'")
    assert cert.quotients[0].coeffs == {1: R2.one()}
    assert all(m == P("1") for m in cert.multipliers)  # separants only, here units


def test_divide_nonlinear_partial():
    g = P("x'^2 - x")
    cert = ritt_divide(P("x''"), [g], "partial", var="x")
    assert cert.s == P("2*x'")
    assert cert.remainder == P("x'")
    assert cert.quotients[0].coeffs == {1: R2.one()}
    assert cert.verify(P("x''"), [g])


def test_partial_multipliers_are_separants_only():
    # equal order, higher degree: partial stops, full keeps going with the initial
    f, g = P("x'^3 + y"), P("y*x'^2 + 1")
    assert ritt_divide(f, [g], "partial", var="x").remainder == f
    full = ritt_divide(f, [g], "full", var="x")
    assert full.remainder.deg_in(full.remainder.ring.var("x", 1).support().pop()) < 2


def test_divisor_must_involve_variable():
    with pytest.raises(ValueError):
        ritt_divide(P("x'"), [P("y' - y")], "full", var="x")
    with pytest.raises(ValueError):
        ritt_divide(P("x'"), [P("3")], "full", var="x")


def test_multi_divisor_distinct_leaders_required():
    with pytest.raises(ValueError):
        ritt_divide(P("x''"), [P("x' - x"), P("x' + x")], "full", orderly())


def test_multi_divisor_division():
    g1, g2 = P("x' - x"), P("y' - x")
    cert = ritt_divide(P("y'' - x'"), [g1, g2], "full", orderly())
    assert cert.remainder == R2.zero()
    assert cert.verify(P("y'' - x'"), [g1, g2])


def test_verify_reuses_the_division_chain(monkeypatch):
    # dividing x^(5) + y^2 by x' - x needs g', ..., g^(4): four derivations,
    # which the replay and the exact check on forming S read back instead of
    # deriving again; once S is formed the certificate keeps none of them
    # (f is not linear, so the division is the general loop's)
    derive = diffalg.DiffPoly.derive
    calls = []
    monkeypatch.setattr(diffalg.DiffPoly, "derive", lambda p, times=1: calls.append(times) or derive(p, times))
    f, g = P("x^(5) + y^2"), P("x' - x")
    cert = ritt_divide(f, [g], "full", var="x")
    assert cert.remainder == P("x + y^2") and len(calls) == 4
    assert cert.S == R2.one() and len(calls) == 4
    assert "_chains" not in vars(cert)
    assert cert.verify(f, [g]) and len(calls) == 8  # a later verify derives for itself


def test_division_chains_are_kept_on_the_divisor():
    # a division starts from its divisor's cached chain g', g'', ... and
    # stores a longer one back, replaced whole: each entry k is derive(k), a
    # division by a warm divisor certifies as one by a fresh copy does, and
    # two divisions of one dividend give identical certificates; each entry
    # a step read is kept less its leading part, separant times the leader
    # k orders up (k > 0) or initial times the leader to its degree (k = 0)
    rng = random.Random(61)
    stored = tailed = 0
    for _ in range(60):
        ring = ring_of(rng.randint(1, 3))
        g = rand_nonconstant(rng, ring, max_monos=3, coeffs=rng.choice([SMALL_INTS, SMALL_RATIONALS]))
        var, mode = rng.choice(g.variables()), rng.choice(["partial", "full"])
        for _ in range(3):
            f = rand_poly(rng, ring, nonzero=False, coeffs=SMALL_RATIONALS, max_order=6)
            before = g._chain
            warm = ritt_divide(f, [g], mode, var=var)
            assert type(g._chain) is tuple and all(a is b for a, b in zip(before, g._chain))
            stored += len(g._chain) > len(before)
            cold = ritt_divide(parse_poly(render(f), ring), [parse_poly(render(g), ring)], mode, var=var)
            again = ritt_divide(f, [g], mode, var=var)
            assert warm.to_json() == cold.to_json() == again.to_json() and warm.den == cold.den == again.den
            assert warm.multipliers == cold.multipliers == again.multipliers
        assert all(gk == g.derive(k) for k, gk in enumerate(g._chain, 1))
        ld, dg = g.leader_in(var)
        sep, ini, tails = g._leading(ld)
        for k, tail in tails.items():
            lead = sep * ring.var(ld.var, ld.order + k) if k else ini * ring.var(ld.var, ld.order) ** dg
            assert tail == g.derive(k) - lead
        tailed += len(tails) > 1
    assert stored > 30 and tailed > 30


def test_forming_one_certificate_leaves_a_sibling_unchanged():
    # short is divided while g's chain is cold; long lengthens the shared
    # chain and is formed first; short's S and exact check are unchanged
    g = P("x' - x*y")
    short = ritt_divide(P("x'' + y"), [g], "full", var="x")
    assert len(g._chain) == 1
    long = ritt_divide(P("x^(5) + y'"), [g], "full", var="x")
    assert len(g._chain) == 4 and all(gk == g.derive(k) for k, gk in enumerate(g._chain, 1))

    def fresh(text):
        return ritt_divide(P(text), [P("x' - x*y")], "full", var="x")

    assert long.S == fresh("x^(5) + y'").S and long.verify(P("x^(5) + y'"), [g])
    assert short.S == fresh("x'' + y").S and short.Q == fresh("x'' + y").Q
    assert short.to_json() == fresh("x'' + y").to_json() and short.verify(P("x'' + y"), [g])
    assert len(g._chain) == 4


def test_threads_share_one_divisor_without_a_lock():
    # eight threads, started together, divide distinct dividends by one
    # divisor whose chain starts cold, the interpreter switching threads every
    # microsecond; the caches take no lock, so each thread stores only whole
    # values: every certificate must form and pass the exact check, and every
    # cached chain entry must equal its derivation.  Four rounds, each with a
    # fresh divisor.
    text = "x'^2*y - x*y' + 1"
    dividends = [[P("x^(%d)*y + %d*x'*y^%d - x" % (2 + (t + j) % 4, t + 1, j + 1)) for j in range(3)] for t in range(8)]
    for _ in range(4):
        g = P(text)
        start = threading.Barrier(len(dividends))
        done = [[] for _ in dividends]
        errors = []

        def work(t):
            try:
                start.wait(timeout=60)
                for f in dividends[t]:
                    cert = ritt_divide(f, [g], "full", var="x")
                    if t % 2:
                        cert.S  # forming reads the shared chain entries too
                    done[t].append((f, cert))
            except Exception as e:  # reported below, with the thread's index
                errors.append((t, e))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(dividends))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads) and errors == []
        assert [len(d) for d in done] == [len(fs) for fs in dividends]
        for f, cert in (fc for d in done for fc in d):
            assert cert.S and cert.verify(f, [g])
            assert cert.to_json() == ritt_divide(parse_poly(render(f), R2), [P(text)], "full", var="x").to_json()
        assert len(g._chain) == 4 and all(gk == g.derive(k) for k, gk in enumerate(g._chain, 1))


# -- reducedness ----------------------------------------------------------------


def test_is_reduced_wrt():
    assert is_reduced_wrt(P("x"), P("x'"), "full")
    assert not is_reduced_wrt(P("x'^2"), P("x' - x"), "full")
    assert is_reduced_wrt(P("y^(5)"), P("x' - x"), "full")
    assert is_reduced_wrt(P("x'"), P("x' - x"), "partial")
    assert not is_reduced_wrt(P("x'"), P("x' - x"), "full")


def test_is_reduced_wrt_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        is_reduced_wrt(P("x"), P("x'"), "bogus")


def test_mixed_rings_are_refused():
    # f and g in the ring of x, y and h in that of x, y, z: a division or a
    # reducedness test across them raises as a product across them does
    f, g, h = P("x'' - y"), P("x' - x*y"), P("x'' - z", R3)
    for call in (
        lambda: ritt_divide(f, [h]),
        lambda: ritt_divide(h, [g]),
        lambda: ritt_divide(h, [P("y' - x", R3), g]),
        lambda: ritt_divide(P("x'' - y"), [P("x' - z", R3)], var="x"),
        lambda: is_reduced_wrt(h, g),
        lambda: is_reduced_wrt(g, h),
        lambda: autoreduce_loop([f, h]),
    ):
        with pytest.raises(ValueError, match="^mixed rings: "):
            call()
    # an equal ring built separately is the same ring
    g2 = parse_poly("x' - x*y", diffalg.DiffRing(("x", "y")))
    assert ritt_divide(f, [g2]).to_json() == ritt_divide(f, [g]).to_json()
    assert is_reduced_wrt(f, g2) == is_reduced_wrt(f, g) is False
    assert autoreduce_loop([f, g2]) == autoreduce_loop([f, g])


def test_ritt_divide_equals_the_full_product_reference():
    # each step leaves out the two products that cancel, mult*slice and
    # co*lead; the reference forms them: the certificate, multipliers,
    # remainder and den (with its type) must agree, in both modes, under the
    # orderly and both elimination rankings, with one or two divisors, with
    # integer or rational coefficients, and with or without steps
    rng = random.Random(67)
    rankings = (orderly(), elimination([[0], [1]]), elimination([[1], [0]]))
    seen = {"steps": 0, "none": 0, "fraction": 0, "two": 0, "var": 0}
    for n in range(240):
        coeffs = rng.choice([SMALL_INTS, SMALL_RATIONALS])
        mode, rk = rng.choice(["partial", "full"]), rankings[n % 3]
        var = None
        if n % 4 == 3:
            divisors = [rand_nonconstant(rng, R2, max_monos=3, max_deg=2, max_order=2, coeffs=coeffs)]
            var = rng.choice(divisors[0].variables())
        else:
            while True:
                divisors = [rand_nonconstant(rng, R2, max_monos=3, max_deg=2, max_order=2, coeffs=coeffs)
                            for _ in range(rng.randint(1, 2))]
                if len({rk.leader(g).var for g in divisors}) == len(divisors):
                    break
        f = rand_poly(rng, R2, max_monos=3, max_deg=2, max_order=rng.randint(0, 4), nonzero=False, coeffs=coeffs)
        cert = ritt_divide(f, divisors, mode, rk, var)
        doc, mults, r, den = ref_ritt_divide(f, divisors, mode, rk, var)
        assert cert.to_json() == doc
        assert cert.multipliers == mults and cert.remainder == r
        assert cert.den == den and type(cert.den) is type(den)
        seen["steps" if mults else "none"] += 1
        seen["fraction"] += type(den) is Fraction
        seen["two"] += len(divisors) == 2 and len(mults) > 0
        seen["var"] += var is not None and len(mults) > 0
    assert min(seen.values()) >= 15, seen


# -- autoreduced sets -------------------------------------------------------------


def test_autoreduced_set_validation():
    rk = orderly()
    els = (P("x' - x"), P("y' - x"))
    cs = AutoreducedSet(ranking=rk, elements=els)
    assert cs.elements is els and cs.ranking is rk
    with pytest.raises(ValueError, match="strictly increase in rank"):
        AutoreducedSet((P("y' - x"), P("x' - x")), rk)
    with pytest.raises(ValueError, match="element 1 is not reduced w.r.t. element 0"):
        AutoreducedSet((P("x' - x"), P("x'' - x")), rk)
    with pytest.raises(ValueError, match="nonempty"):
        AutoreducedSet((), rk)
    with pytest.raises(ValueError, match="non-constants only"):
        AutoreducedSet((P("3"),), rk)


def test_induced_ordering():
    rk = orderly()
    a = AutoreducedSet((P("x' - x"),), rk)
    b = AutoreducedSet((P("x'' - x"),), rk)
    ab = AutoreducedSet((P("x' - x"), P("y' - x")), rk)
    assert compare_autoreduced(a, b) == -1
    assert compare_autoreduced(b, a) == 1
    assert compare_autoreduced(a, a) == 0
    # longer set with equal prefix ranks is the lower one
    assert compare_autoreduced(ab, a) == -1


def test_compare_autoreduced_refuses_mixed_rankings():
    # rank keys of different rankings do not compare: x' - y has leader x'
    # under both, keyed (1, 0) and (1, 1, 0)
    a = AutoreducedSet((P("x' - y"),), orderly())
    b = AutoreducedSet((P("x' - y"),), elimination([[1], [0]]))
    for u, v in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="^autoreduced sets under different rankings$"):
            compare_autoreduced(u, v)
    assert compare_autoreduced(a, AutoreducedSet((P("x' - y"),), orderly())) == 0


def test_autoreduced_set_holds_a_tuple():
    rk = orderly()
    els = (P("x' - x"), P("y' - x"))
    cs = AutoreducedSet(els, rk)
    for given in (list(els), iter(els), (p for p in els)):
        other = AutoreducedSet(given, rk)
        assert other == cs and hash(other) == hash(cs) and type(other.elements) is tuple
    with pytest.raises(ValueError, match="nonempty"):
        AutoreducedSet((p for p in ()), rk)


def test_autoreduced_set_first_errors_pinned():
    # the first failing check and its message; under increasing ranks only an
    # element against an earlier one can fail, so the checks are the same
    # pairs in the same order as testing every ordered pair
    R4 = ring_of(4)
    cases = [
        (R3, orderly(), ("x' - x", "y' - x", "z'' + y''"), "element 2 is not reduced w.r.t. element 1"),
        (R3, orderly(), ("x' - y", "y' - z", "z'' + x'' + y''"), "element 2 is not reduced w.r.t. element 0"),
        (R3, orderly(), ("x' - y", "y'' + x'", "z'' + x''"), "element 1 is not reduced w.r.t. element 0"),
        (R3, orderly(), ("x' - y", "y' - z", "z' - x"), None),
        (R4, orderly(), ("x' - 1", "y' - x", "z' - y", "t' + z"), None),
        (R4, orderly(), ("x' - 1", "y' - x", "z'^2 - y", "t' + z'^2"), "element 3 is not reduced w.r.t. element 2"),
        (R4, orderly(), ("x' - 1", "y' - x", "z' + x", "t'' + y + x'"), "element 3 is not reduced w.r.t. element 0"),
        (R4, orderly(), ("x' - 1", "y' - x", "z' + y'", "t' + x'"), "element 2 is not reduced w.r.t. element 1"),
        (R4, elimination([[3], [2], [1], [0]]), ("t' - 1", "z' + t", "y' + z", "x' + y + t''"),
         "element 3 is not reduced w.r.t. element 0"),
        (R4, elimination([[0], [1], [2], [3]]), ("x'", "y + x", "z' + x'", "t + y"),
         "element 2 is not reduced w.r.t. element 0"),
        (R4, orderly(), ("x' - 1", "y' - 1", "t' - 1", "z' + x"), "elements must strictly increase in rank"),
    ]
    for ring, rk, texts, message in cases:
        els = tuple(parse_poly(s, ring) for s in texts)
        assert _ref_autoreduced(els, rk) == (message is None), texts
        if message is None:
            assert AutoreducedSet(els, rk).elements is els
        else:
            with pytest.raises(ValueError) as e:
                AutoreducedSet(els, rk)
            assert str(e.value) == message, texts
    # seeded 3- and 4-element sets in rank order, under orderly and both
    # elimination rankings
    rng = random.Random(29)
    out = []
    for _ in range(800):
        ring = ring_of(rng.randint(3, 4))
        rk = _random_ranking(rng, ring)
        gens = (rand_nonconstant(rng, ring, max_monos=2, max_deg=2, max_order=1) for _ in range(rng.choice((3, 4))))
        els = tuple(sorted(gens, key=rk.rank))
        try:
            AutoreducedSet(els, rk)
            out.append("ok")
        except ValueError as e:
            out.append(str(e))
        assert _ref_autoreduced(els, rk) == (out[-1] == "ok")
    assert len(set(out)) == 8 and out.count("ok") > 30
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "4aa14d68fef4b4c90097a1235a2e0dbe56db0c6d37c70aa0a478ccb1fe7720ff"
    )


def test_each_pair_of_a_round_is_tested_once(monkeypatch):
    # a round's selection tests each candidate against the polynomials chosen
    # before it, and the loop keeps the set it chose without testing it again
    rounds = []
    test, select = reduction.is_reduced_wrt, reduction._minimal_autoreduced

    def recording_test(f, g, *args):
        rounds[-1].append((id(f), id(g)))
        return test(f, g, *args)

    def recording_select(basis, ranking):
        rounds.append([])
        return select(basis, ranking)

    monkeypatch.setattr(reduction, "is_reduced_wrt", recording_test)
    monkeypatch.setattr(reduction, "_minimal_autoreduced", recording_select)
    for rk, gens in _seeded_nonlinear_systems():
        try:
            autoreduce_loop(gens, rk)
        except InconsistentSystem:
            pass
    assert len(rounds) > 150 and sum(map(len, rounds)) > 250
    for calls in rounds:
        assert len(set(calls)) == len(calls)


def test_a_faulty_selection_is_an_internal_fault(monkeypatch):
    # the loop keeps the set its selection tested, and checks only that its
    # ranks increase: a set that breaks this is the program's fault (exit 2)
    select = reduction._minimal_autoreduced
    monkeypatch.setattr(reduction, "_minimal_autoreduced", lambda basis, rk: select(basis, rk)[::-1])
    with pytest.raises(InternalInvariantViolation) as e:
        autoreduce_loop([P("x' - x"), P("y' - x")], orderly())
    assert str(e.value) == (
        "chosen set does not strictly increase in rank in round 1: %s" % ["y' - x", "x' - x"]
    )


def test_autoreduce_already_reduced():
    res = autoreduce_loop([P("x' - x"), P("y' - x")], orderly())
    assert res.converged and res.rounds == 1
    assert res.charset.elements == (P("x' - x"), P("y' - x"))


def test_autoreduce_adjoins_remainders():
    sys3 = [parse_poly(s, R3) for s in ("x' + y' + 1", "x^(50) + y + z", "x^(100) + y' + z'")]
    res = autoreduce_loop(sys3, orderly())
    assert res.converged
    lvars = {orderly().leader(p).var for p in res.charset.elements}
    assert len(lvars) == len(res.charset.elements)
    # every generator reduces to zero against the characteristic set
    for p in sys3:
        assert membership(p, res.charset)


def test_charset_is_a_value():
    res = autoreduce_loop([P("x' - x"), P("y' - x")], orderly())
    same = AutoreducedSet((P("x' - x"), P("y' - x")), orderly())
    assert res.charset == same and hash(res.charset) == hash(same)
    assert res.charset != AutoreducedSet((P("x' - x"), P("y' - x")), elimination([[0, 1]]))


def test_autoreduce_round_cap_is_a_resource_limit(monkeypatch):
    import diffalg.reduction as reduction

    gens = [P("x' + y"), P("x' - y'")]
    assert autoreduce_loop(gens, orderly()).rounds == 2
    monkeypatch.setattr(reduction, "MAX_ROUNDS", 1)
    with pytest.raises(diffalg.ResourceLimit) as e:
        autoreduce_loop(gens, orderly())
    assert str(e.value).endswith("did not converge in 1 rounds; last chosen set [\"x' + y\"]")


def test_a_swelling_division_stops_at_the_term_cap(monkeypatch):
    # x'^3 by x' - t, t = y'' + y' + y + 1: the steps leave x'^2*t, x'*t^2
    # and t^3, of 4, 10 and 20 terms; a step whose remainder passes
    # MAX_TERMS raises ResourceLimit (exit 3 in the CLI)
    f, g = P("x'^3"), P("x' - y'' - y' - y - 1")
    assert len(ritt_divide(f, [g], "full", var="x").remainder.terms) == 20
    monkeypatch.setattr(diffalg.diffpoly, "MAX_TERMS", 9)
    with pytest.raises(diffalg.ResourceLimit, match="^division remainder of 10 terms exceeds the cap MAX_TERMS = 9$"):
        ritt_divide(f, [g], "full", var="x")


def test_a_swelling_division_stops_at_the_pair_budget(monkeypatch):
    # the same division forms co*tail products of 1*4, 4*4 and 10*4 term
    # pairs (its rests are empty): 60 in all, which a budget of 60 allows and
    # one of 59 refuses in step 3 with ResourceLimit (exit 3 in the CLI);
    # the linear kernel's steps cannot swell, and it keeps no tally
    f, g = P("x'^3"), P("x' - y'' - y' - y - 1")
    monkeypatch.setattr(reduction, "MAX_DIVISION_PAIRS", 60)
    assert len(ritt_divide(f, [g], "full", var="x").remainder.terms) == 20
    monkeypatch.setattr(reduction, "MAX_DIVISION_PAIRS", 59)
    with pytest.raises(diffalg.ResourceLimit, match="^division passes the cap MAX_DIVISION_PAIRS = 59 term pairs in step 3$"):
        ritt_divide(f, [g], "full", var="x")
    with pytest.raises(diffalg.ResourceLimit, match="MAX_DIVISION_PAIRS = 59"):
        autoreduce_loop([f, g], elimination([[1], [0]]))
    monkeypatch.setattr(reduction, "MAX_DIVISION_PAIRS", 0)
    assert ritt_divide(P("x'' + y"), [P("x' - x")], "full", var="x").remainder == P("x + y")


def test_autoreduce_inconsistent():
    with pytest.raises(InconsistentSystem):
        autoreduce_loop([P("x' - x"), P("x' - x - 1")], orderly())
    with pytest.raises(InconsistentSystem):
        autoreduce_loop([P("2")], orderly())


# -- membership and dimensions ------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="autoreduce_loop drops a generator after its first division and never checks it again",
)
def test_charset_of_weak_strong_keeps_its_generators():
    # a characteristic set must reduce every input generator to zero; today
    # the loop returns -x'*y^26 alone, against which neither one is a member
    text = (Path(__file__).resolve().parents[1] / "systems" / "weak_strong.sys").read_text()
    ring, gens = diffalg.parse_system(text)
    res = autoreduce_loop(gens, orderly())
    assert [membership(g, res.charset) for g in gens] == [True, True]


def test_membership():
    cs = AutoreducedSet((P("x' - x"), P("y' - x")), orderly())
    assert membership(P("y'' - x'"), cs)
    assert membership(R2.zero(), cs)
    assert not membership(P("y'' - x' - 1"), cs)


def test_dimensions():
    cs = AutoreducedSet((P("x' - x"), P("y' - x")), orderly())
    assert dimensions(cs, 2) == (0, 2)
    part = AutoreducedSet((P("x' - x"),), orderly())
    assert dimensions(part, 2) == (1, POS_INF)


def test_elimination_project():
    rk = elimination([[1], [0]])  # y is the kept (lowest) block
    cs = AutoreducedSet((P("y' - y"), P("x' - y")), rk)
    kept = elimination_project(cs, ["y"])
    assert kept.elements == (P("y' - y"),)
    with pytest.raises(ValueError):
        elimination_project(cs, ["x"])
    with pytest.raises(ValueError):
        elimination_project(AutoreducedSet((P("y' - y"), P("x' - y")), rk), ["x", "y"])


def test_elimination_project_returns_the_prefix_untested(monkeypatch):
    # a prefix of an autoreduced set is autoreduced: the projection returns
    # the set's own first elements under its ranking and tests no pair again
    rk = elimination([[1, 2], [0]])  # y, z kept
    gens = [parse_poly(s, R3) for s in ("y' - z", "z'' - y", "x' - y - z")]
    cs = AutoreducedSet(sorted(gens, key=rk.rank), rk)
    monkeypatch.setattr(reduction, "is_reduced_wrt", lambda *a: pytest.fail("a pair was tested"))
    kept = elimination_project(cs, ["z", "y"])
    assert type(kept) is AutoreducedSet and kept.ranking is rk
    assert len(kept.elements) == 2 and all(a is b for a, b in zip(kept.elements, cs.elements))


def test_elimination_project_without_kept_element():
    rk = elimination([[0], [1]])  # x is the kept (lowest) block
    with pytest.raises(ValueError) as e:
        elimination_project(AutoreducedSet((P("y"),), rk), ["x"])
    assert str(e.value) == "no polynomial lies in the kept block"


def test_project_prefix_is_an_internal_fault():
    # a validated set has its kept elements first, so this one is built
    # around the constructor's checks: an internal fault, not a user error
    bad = AutoreducedSet._make(((P("y"), P("x")), elimination([[0], [1]])))
    with pytest.raises(InternalInvariantViolation) as e:
        elimination_project(bad, ["x"])
    assert str(e.value) == "kept polynomials do not form a prefix: y, x"


# -- randomized certificate checks --------------------------------------------------


def test_random_certificates_sampled():
    rng = random.Random(11)
    for _ in range(60):
        ring = ring_of(rng.randint(1, 3))
        f = rand_poly(rng, ring, nonzero=False)
        g = rand_nonconstant(rng, ring, max_monos=3)
        v = rng.choice(g.variables())
        mode = rng.choice(["partial", "full"])
        cert = ritt_divide(f, [g], mode, var=v)
        assert cert.verify(f, [g])


def test_remainders_are_primitive_integer_polynomials():
    # inputs with rational coefficients such as 7/5: after a division step the
    # remainder has coprime integer coefficients, and the certificate holds
    rng = random.Random(4)
    stepped = 0
    for _ in range(150):
        ring = ring_of(rng.randint(1, 3))
        f = rand_poly(rng, ring, nonzero=False, coeffs=SMALL_RATIONALS)
        g = rand_nonconstant(rng, ring, max_monos=3, coeffs=SMALL_RATIONALS)
        mode = rng.choice(["partial", "full"])
        cert = ritt_divide(f, [g], mode, var=rng.choice(g.variables()))
        assert cert.verify(f, [g])
        r = cert.remainder
        if not cert.multipliers:
            assert r == f
            continue
        stepped += 1
        assert all(type(c) is int for c in r.terms.values())
        assert not r or math.gcd(*r.terms.values()) == 1
    assert stepped > 50


def test_linear_remainders_stay_small():
    # the remainder is the primitive multiple of x at every step, not a
    # coefficient that grows with the step count; x' = 15/7*x modulo g
    f, g = P("x^(12)"), P("7/5*x' - 3*x")
    cert = ritt_divide(f, [g], "full", var="x")
    assert cert.remainder == P("x")
    assert cert.s == R2.const(Fraction(7, 15) ** 12)
    assert cert.verify(f, [g])



# -- pinned certificates ---------------------------------------------------------
# to_json() of divisions; how ritt_divide forms s and the quotients may change,
# their values may not

PINNED_DIVISIONS = [
    # linear, one content
    (
        ("x''' - 2*y' + x", ["3*x' - 2*y + 1"], "full", {"var": "x"}),
        {"s": "3", "quotients": [[[2, "1"]]], "remainder": "2*y'' - 6*y' + 3*x", "mode": "full"},
    ),
    # nonlinear: non-constant separant and initial
    (
        ("x''*y + x'^3 - y", ["y*x'^2 + x*x' - 2"], "full", {"var": "x"}),
        {
            "s": "2*x'*y^4 + y^3*x",
            "quotients": [[[1, "y^4"], [0, "-y'*y^3 + 2*x'^2*y^3 - x'*y^2*x - y^3 + 4*y^2 + y*x^2"]]],
            "remainder": "y'*x'*y^3*x - 2*y'*y^3 - 2*x'*y^5 + x'*y^3*x - 6*x'*y^2*x - x'*y*x^3"
            " - y^4*x - 2*y^3 + 8*y^2 + 2*y*x^2",
            "mode": "full",
        },
    ),
    (
        ("x''*y + x'^3 - y", ["y*x'^2 + x*x' - 2"], "partial", {"var": "x"}),
        {
            "s": "2*x'*y + x",
            "quotients": [[[1, "y"]]],
            "remainder": "-y'*x'^2*y + 2*x'^4*y + x'^3*x - x'^2*y - 2*x'*y^2 - y*x",
            "mode": "partial",
        },
    ),
    # several divisors; the contents make s and the quotients rational
    (
        ("x''*y' + y''^2 - x", ["2*x' - y", "y'^2 - 3*y"], "full", {"ranking": elimination([[1], [0]])}),
        {
            "s": "4/3*y'^2",
            "quotients": [[[1, "2/3*y'^3"]], [[1, "2/3*y''*y' + y'"], [0, "2/3*y'^2 + 2*y - 4/3*x + 3"]]],
            "remainder": "6*y^2 - 4*y*x + 9*y",
            "mode": "full",
        },
    ),
    # a 7/5 coefficient in f
    (
        ("7/5*x'' - y*x' + 1/2", ["2*x'*y - x"], "full", {"var": "x"}),
        {
            "s": "20*y^2",
            "quotients": [[[1, "14*y"], [0, "-14*y' - 10*y^2 + 7"]]],
            "remainder": "-14*y'*x - 10*y^2*x + 10*y^2 + 7*x",
            "mode": "full",
        },
    ),
]


@pytest.mark.parametrize("case, expected", PINNED_DIVISIONS)
def test_division_certificates_pinned(case, expected):
    f, gs, mode, kw = case
    f, gs = P(f), [P(g) for g in gs]
    cert = ritt_divide(f, gs, mode, **kw)
    assert json.loads(json.dumps(cert.to_json())) == expected
    assert cert.verify(f, gs)


def _seeded_divisions(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ring = ring_of(rng.randint(1, 3))
        f = rand_poly(rng, ring, nonzero=False, coeffs=SMALL_RATIONALS)
        g = rand_nonconstant(rng, ring, max_monos=3, coeffs=rng.choice([SMALL_INTS, SMALL_RATIONALS]))
        mode = rng.choice(["partial", "full"])
        yield f, g, ritt_divide(f, [g], mode, var=rng.choice(g.variables()))


def test_seeded_certificates_pinned():
    out = [[c.to_json(), [render(m) for m in c.multipliers]] for _, _, c in _seeded_divisions(31, 150)]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "07c86dd19faf6d079f36a33a26cea4670596af5a49a7888a8871cf50a7d3a471"
    )


def _random_ranking(rng, ring):
    order = list(range(ring.nvars))
    return rng.choice([orderly(), elimination([[v] for v in order]), elimination([[v] for v in reversed(order)])])


def _seeded_multi_divisions(seed, count):
    # two divisors with distinct leaders under orderly and elimination
    # rankings; about half of them step with a non-constant separant or initial
    rng = random.Random(seed)
    while count:
        ring = ring_of(rng.randint(2, 3))
        rk = _random_ranking(rng, ring)
        gs = [rand_nonconstant(rng, ring, max_monos=3, max_deg=3, max_order=3) for _ in range(2)]
        if rk.leader(gs[0]).var == rk.leader(gs[1]).var:
            continue
        f = rand_poly(rng, ring, nonzero=False, coeffs=SMALL_RATIONALS, max_order=3)
        count -= 1
        yield f, gs, ritt_divide(f, gs, "full", rk)


def test_seeded_multi_divisor_certificates_pinned():
    out = [[c.to_json(), [render(m) for m in c.multipliers]] for _, _, c in _seeded_multi_divisions(41, 120)]
    assert sum(len(c[1]) for c in out) > 200
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "5ee9cb1370cac08e8c9389a1d5e375047322accfb020e281fed94662b004c7ad"
    )


def test_certificates_replay_their_step_log():
    # S is the product of the step multipliers, and the quotients formed by
    # the one pass back over the log verify; among the divisions are long
    # ones that step with both divisors and hold fewer nonzero quotient
    # entries than steps, so an entry collects several steps
    long_ones = 0
    for f, gs, cert in _seeded_multi_divisions(41, 120):
        assert cert.S == functools.reduce(operator.mul, cert.multipliers, f.ring.one())
        assert cert.verify(f, gs)
        steps = len(cert.multipliers)
        entries = sum(len(q.coeffs) for q in cert.Q)
        long_ones += steps >= 5 and entries < steps and all(q.coeffs for q in cert.Q)
    assert long_ones >= 10


def _ref_autoreduced(elements, rk):
    # from the terms alone: each leader is the occurring derivative of largest
    # key, ranks (leader key, degree) strictly increase, and every element is
    # reduced w.r.t. every other one: no proper derivative of its leader and a
    # lower degree in it
    leads = []
    for q in elements:
        ld = max((d for m in q.terms for d, _ in m), key=rk.key)
        leads.append((ld, ref_deg_in(q.terms, ld)))
    ranks = [(rk.key(ld), dg) for ld, dg in leads]
    return all(a < b for a, b in zip(ranks, ranks[1:])) and all(
        ref_order_in(p.terms, ld.var, "strong") <= ld.order and ref_deg_in(p.terms, ld) < dg
        for p in elements
        for q, (ld, dg) in zip(elements, leads)
        if q is not p
    )


def _seeded_nonlinear_systems():
    # (ranking, generators) of 100 random nonlinear systems in 2-3 variables;
    # at these sizes every system takes milliseconds, while random systems of
    # degree and order 3 now and then run for seconds
    rng = random.Random(42)
    for _ in range(100):
        ring = ring_of(rng.randint(2, 3))
        rk = _random_ranking(rng, ring)
        yield rk, [rand_nonconstant(rng, ring, max_monos=3, max_deg=2, max_order=2) for _ in range(rng.randint(2, 3))]


def test_seeded_nonlinear_charsets_pinned():
    # autoreduce_loop and dimensions on the seeded nonlinear systems; every
    # returned charset is autoreduced by the reference from the terms
    out = []
    for rk, gens in _seeded_nonlinear_systems():
        try:
            res = autoreduce_loop(gens, rk)
        except InconsistentSystem as e:
            out.append(e.text)
            continue
        assert _ref_autoreduced(res.charset.elements, rk)
        dims = [str(d) for d in dimensions(res.charset)]
        out.append([[render(p) for p in res.charset.elements], [render(m) for m in res.multipliers], dims])
    assert sum(isinstance(o, list) and bool(o[1]) for o in out) > 20
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "57aa69a5013ab59d65d4d565919302bab3ce2c7133eb541914102b5f64e013e2"
    )


def test_verify_rejects_tampered_certificates():
    # verify's check, _identity_holds, sums S*f - sum Q_ik * g^(k) - den*r
    # exactly, so none of these false identities may pass: s doubled, the top
    # quotient coefficient bumped by one, r + 1, and den changed
    rational = 0
    for f, g, cert in _seeded_divisions(32, 80):
        if not f:
            continue
        ring = f.ring
        (q,) = cert.Q
        k = max(q.coeffs, default=0)
        bumped = dict(q.coeffs)
        bumped[k] = bumped.get(k, ring.zero()) + 1
        assert cert.verify(f, [g])
        S, Q, r, den = cert.S, cert.Q, cert.remainder, cert.den
        assert not reduction._identity_holds(S * 2, Q, den, r, f, [[g]])
        assert not reduction._identity_holds(S, (LinOp(ring, bumped),), den, r, f, [[g]])
        assert not reduction._identity_holds(S, Q, den, r + 1, f, [[g]])
        if cert.remainder:  # with r = 0 every den gives a true identity
            assert not reduction._identity_holds(S, Q, den + 1, r, f, [[g]])
        if q.coeffs:
            assert not cert.verify(f, [g + ring.var(0, 5)])
        rational += any(type(c) is Fraction for c in cert.s.terms.values())
    assert rational > 5


def test_replay_rejects_a_tampered_step_log(monkeypatch):
    # the replay evaluates the log at one point mod 2^61 - 1, so none of
    # these false identities may pass: the first step's multiplier doubled,
    # one step's den*co plus one, r + 1, and den + 1 where r is not zero;
    # every operand reads as nonlinear, so the linear divisions among these
    # take the general loop, which replays its log, in place of the kernel
    monkeypatch.setattr(reduction, "_is_linear", lambda p: False)
    stepped = 0
    for f, g, cert in _seeded_divisions(32, 80):
        log = cert._log
        if not log:
            continue
        stepped += 1
        chains, r, den = cert._chains, cert.remainder, cert.den
        assert _replay_holds(f, chains, log, r, den)
        i, k, t, mult = log[0]
        assert not _replay_holds(f, chains, [(i, k, t, mult * 2)] + log[1:], r, den)
        for j, (i, k, t, mult) in enumerate(log):
            assert not _replay_holds(f, chains, log[:j] + [(i, k, t + 1, mult)] + log[j + 1 :], r, den)
        assert not _replay_holds(f, chains, log, r + 1, den)
        if r:
            assert not _replay_holds(f, chains, log, r, den + 1)
        assert cert.verify(f, [g])  # the untampered log forms a certificate that verifies
    assert stepped == 33


def test_reading_s_checks_the_identity_exactly(monkeypatch):
    # the replay passes, so ritt_divide returns; the exact check runs when
    # S and the Q_i are formed, on every read until one succeeds
    monkeypatch.setattr(reduction, "_identity_holds", lambda *args: False)
    f, g = P("x'' + y"), P("x' - x")
    cert = ritt_divide(f, [g], "full", var="x")
    assert cert.remainder == P("x + y")
    for read in (lambda: cert.s, lambda: cert.quotients, cert.to_json, lambda: cert.verify(f, [g])):
        with pytest.raises(InternalInvariantViolation, match=r"division identity .* s = 1, r = y \+ x"):
            read()
    monkeypatch.undo()
    assert cert.s == R2.one() and "_log" not in vars(cert)


def test_a_denominator_zero_mod_the_prime_is_checked_exactly(monkeypatch):
    # 1/(2^61 - 1) has no value mod 2^61 - 1: the division forms its
    # certificate at once, and so runs the exact check
    exact = []
    holds = reduction._identity_holds
    monkeypatch.setattr(reduction, "_identity_holds", lambda *args: exact.append(1) or holds(*args))
    # (f is not linear, so the division is the general loop's, which replays)
    f = P("x'' + y^2") * Fraction(1, PRIME)
    with pytest.raises(ZeroDivisionError):
        _residue(f)
    cert = ritt_divide(f, [P("x' - x")], "full", var="x")
    assert exact == [1] and "_chains" not in vars(cert)
    assert cert.remainder == P("x + y^2") and cert.den == Fraction(1, PRIME)
    # a prime multiple of den reads as 0 mod the prime and is checked exactly too
    cert = ritt_divide(P("x'' + y^2") * PRIME, [P("x' - x")], "full", var="x")
    assert exact == [1, 1] and cert.den == PRIME
    ritt_divide(P("x'' + y^2"), [P("x' - x")], "full", var="x")
    assert exact == [1, 1]  # den = 1 reads mod the prime: no exact check


def test_charset_work_forms_no_certificate(monkeypatch):
    # autoreduce_loop, dimensions and membership read only remainders and
    # multipliers: no division of theirs may form S and the Q_i
    def refuse(self):
        raise AssertionError("a certificate was formed")

    monkeypatch.setattr(DivisionCertificate, "_formed", property(refuse))
    rng = random.Random(42)
    members = 0
    for _ in range(60):
        ring = ring_of(rng.randint(2, 3))
        rk = _random_ranking(rng, ring)
        gens = [rand_nonconstant(rng, ring, max_monos=3, max_deg=2, max_order=2) for _ in range(rng.randint(2, 3))]
        try:
            res = autoreduce_loop(gens, rk)
        except InconsistentSystem:
            continue
        dimensions(res.charset)
        members += sum(membership(g, res.charset) for g in gens + [gens[0] * gens[-1]])
    assert members > 50
    with pytest.raises(AssertionError, match="formed"):
        ritt_divide(P("x''"), [P("x' - x")], "full", var="x").s


def test_invariant_violation_survives_python_O():
    # the replay inside ritt_divide and the exact check on first read are
    # made without assert, so they hold under -O, and the message survives a
    # coefficient past the int-to-str limit
    code = textwrap.dedent(
        """
        from diffalg import DiffRing, parse_poly, ritt_divide
        from diffalg.errors import InternalInvariantViolation
        from diffalg import reduction

        assert False, "asserts must be stripped"
        ring = DiffRing(["x", "y"])
        f = parse_poly("x'' + y^2", ring) * 10**5000
        g = parse_poly("x' - x", ring)
        replay, reduction._replay_holds = reduction._replay_holds, lambda *args: False
        try:
            ritt_divide(f, [g], "full", var="x")
        except InternalInvariantViolation as e:
            print(e)
        reduction._replay_holds, reduction._identity_holds = replay, lambda *args: False
        cert = ritt_divide(f, [g], "full", var="x")
        try:
            cert.s
        except InternalInvariantViolation as e:
            print(e)
        """
    )
    src = str(Path(diffalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    msgs = out.stdout.splitlines()
    assert len(msgs) == 2 and "modulo 2^61 - 1" in msgs[0] and "s = " in msgs[1]
    for msg in msgs:
        assert "division identity" in msg and "x' - x" in msg
        assert "<2-term polynomial, coefficients up to 16610 bits>" in msg


# -- the linear division kernel --------------------------------------------------


def _division_facts(cert):
    """Everything a division reports, each coefficient with its type (an int
    or a Fraction): the step log first, since forming s drops it.  The
    linear kernel logs each den*co as a number, read here as the constant
    the certificate forms of it."""
    def terms(p):
        if not isinstance(p, diffalg.DiffPoly):
            p = cert.remainder.ring.const(p)
        return repr(sorted(p._packed.items()))

    log = [(i, k, terms(t), terms(m)) for i, k, t, m in cert._log]
    return [log, terms(cert.remainder), repr(cert.den), [terms(m) for m in cert.multipliers], cert.to_json()]


def _rational(rng, p):
    # each term scaled by its own seeded fraction
    scale = [Fraction(rng.choice([-5, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3, 7])) for _ in p.terms]
    return diffalg.DiffPoly(p.ring, {m: c * k for (m, c), k in zip(p.terms.items(), scale)})


def _linear_divisions(seed, count):
    """Seeded (f, divisors, keywords) of linear divisions: one divisor in a
    variable it holds, or several with distinct leaders under an elimination
    ranking of one variable per block, as the back-substitution divides;
    integer or rational coefficients, some with constants."""
    rng = random.Random(seed)
    while count:
        ring = ring_of(rng.randint(1, 4))
        polys = rand_linear_system(rng, ring, max_order=rng.randint(0, 4))
        if rng.random() < 0.5:
            polys = [_rational(rng, p) + ring.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for p in polys]
        f, gs = polys[0], [g for g in polys[1:] + [ring.var(0, rng.randint(0, 3)) - 1] if not g.is_constant()]
        if rng.random() < 0.5:
            g = rng.choice(gs)
            yield f, [g], {"var": rng.choice(g.variables())}
        else:
            order = list(range(ring.nvars))
            rng.shuffle(order)
            rk = elimination([[v] for v in order])
            by_leader = {rk.leader(g).var: g for g in gs}
            yield f, list(by_leader.values()), {"ranking": rk}
        count -= 1


def _counted_kernel(monkeypatch):
    """The list that gains an entry at each call of the linear kernel."""
    calls, kernel = [], reduction._linear_divide
    monkeypatch.setattr(reduction, "_linear_divide", lambda *args: calls.append(1) or kernel(*args))
    return calls


def test_linear_kernel_equals_ritt_divide(monkeypatch):
    # ritt_divide takes the kernel on linear input in full mode, and its answer
    # is the independent ref_ritt_divide's; the kernel takes the general
    # loop's steps (forced by reading every operand as nonlinear): the same
    # log, remainder, den, multipliers and certificate, every coefficient of
    # the same type; its remainder carries the top derivatives a fresh
    # polynomial would compute
    kernel = _counted_kernel(monkeypatch)
    kinds = {"var": 0, "ranking": 0, "zero steps": 0, "several divisors": 0, "rational": 0}
    for n, (f, gs, kw) in enumerate(_linear_divisions(61, 400), 1):
        cert = ritt_divide(f, gs, "full", **kw)
        assert len(kernel) == n
        facts = _division_facts(cert)
        doc, mults, r, den = ref_ritt_divide(f, gs, "full", **kw)
        assert cert.to_json() == doc and cert.multipliers == mults and cert.remainder == r
        assert cert.den == den and type(cert.den) is type(den)
        with monkeypatch.context() as m:
            m.setattr(reduction, "_is_linear", lambda p: False)
            assert _division_facts(ritt_divide(f, gs, "full", **kw)) == facts
        assert len(kernel) == n
        r = cert.remainder
        fresh = diffalg.DiffPoly(r.ring, r.terms)
        assert [r._top(v) for v in range(r.ring.nvars)] == [fresh._top(v) for v in range(r.ring.nvars)]
        kinds[next(iter(kw))] += 1
        kinds["zero steps"] += not cert.multipliers
        kinds["several divisors"] += len(gs) > 1
        kinds["rational"] += any(type(c) is Fraction for p in [f, *gs] for c in p.terms.values())
    assert min(kinds.values()) >= 50, kinds


def test_linear_kernel_refuses_what_it_cannot_divide(monkeypatch):
    # ritt_divide refuses what it cannot divide before it picks the kernel
    kernel = _counted_kernel(monkeypatch)
    with pytest.raises(ValueError, match="mixed rings"):
        ritt_divide(P("x''"), [P("x' - x", R3)], var="x")
    with pytest.raises(ValueError, match="distinct leading variables"):
        ritt_divide(P("x''"), [P("x' - x"), P("x'' + y")], "full", orderly())
    assert not kernel
    # a derivative past MAX_ORDER is refused as the general loop refuses it
    from diffalg.diffpoly import MAX_ORDER

    f, g = R2.var("x", MAX_ORDER), P("x + y^(5)")
    with pytest.raises(diffalg.ResourceLimit, match="MAX_ORDER"):
        ritt_divide(f, [g], "full", var="x")
    monkeypatch.setattr(reduction, "_is_linear", lambda p: False)
    with pytest.raises(diffalg.ResourceLimit, match="MAX_ORDER"):
        ritt_divide(f, [g], "full", var="x")
    assert len(kernel) == 1


def test_linear_kernel_checks_every_step(monkeypatch):
    # a step that leaves its top in place fails the measure, and a step that
    # adds a term fails the exact check of the certificate identity
    step = reduction._linear_step
    f, g = P("x'' + y"), P("x' - x")
    monkeypatch.setattr(reduction, "_linear_step", lambda ring, r, *rest: (step(ring, r, *rest)[0], dict(r)))
    with pytest.raises(InternalInvariantViolation, match=r"measure did not drop \(\(2,\) after \(2,\)\)"):
        ritt_divide(f, [g], "full", var="x")
    monkeypatch.setattr(reduction, "_linear_step", lambda *args: (lambda a, t: (a, {**t, 0: 1}))(*step(*args)))
    with pytest.raises(InternalInvariantViolation, match=r"division identity .*x' - x.*exactly, r = "):
        ritt_divide(f, [g], "full", var="x")


def test_linear_kernel_checks_survive_python_O():
    code = textwrap.dedent(
        """
        from diffalg import DiffRing, parse_poly, ritt_divide
        from diffalg import reduction
        from diffalg.errors import InternalInvariantViolation

        assert False, "asserts must be stripped"
        ring = DiffRing(["x", "y"])
        f, g = parse_poly("x'' + y", ring), parse_poly("x' - x", ring)
        step = reduction._linear_step
        for corrupt in (lambda ring, r, *rest: (step(ring, r, *rest)[0], dict(r)),
                        lambda *args: (lambda a, t: (a, {**t, 0: 1}))(*step(*args))):
            reduction._linear_step = corrupt
            try:
                ritt_divide(f, [g], "full", var="x")
            except InternalInvariantViolation as e:
                print(e)
        """
    )
    src = str(Path(diffalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    msgs = out.stdout.splitlines()
    assert len(msgs) == 2 and "measure did not drop" in msgs[0] and "exactly, r = " in msgs[1]


def test_describe_cuts_long_polynomials():
    from diffalg.diffpoly import _DESCRIBE_LIMIT, describe

    p = sum((R2.var("x", k) * k for k in range(1, 200)), R2.zero())
    text = render(p)
    assert len(text) > _DESCRIBE_LIMIT
    assert describe(p) == "%s ... <%d characters>" % (text[:_DESCRIBE_LIMIT], len(text))
    assert describe(P("x' - x")) == "x' - x"


def test_inconsistent_huge_constant_message():
    e = InconsistentSystem(R2.const(10**5000))
    assert str(e) == "nonzero constant remainder <16610-bit integer>"
    e = InconsistentSystem(R2.const(Fraction(-3, 10**6000)))
    assert str(e) == "nonzero constant remainder -<2-bit integer>/<19932-bit integer>"
    # constants that render keep their exact text
    assert str(InconsistentSystem(R2.const(Fraction(-3, 7)))) == "nonzero constant remainder -3/7"


def test_minimal_autoreduced_order_unchanged():
    from diffalg.reduction import _minimal_autoreduced

    rng = random.Random(31)
    rk = orderly()
    for _ in range(100):
        basis = [rand_nonconstant(rng, R2, max_order=2, max_deg=2) for _ in range(rng.randint(1, 6))]
        basis += basis[: rng.randint(0, 2)]  # equal ranks and equal renders
        ordered = sorted(basis, key=lambda p: (rk.rank(p), render(p)))
        chosen = []
        for p in ordered:
            if all(is_reduced_wrt(p, q, "full", rk) and is_reduced_wrt(q, p, "full", rk) for q in chosen):
                chosen.append(p)
        assert _minimal_autoreduced(basis, rk) == chosen


def test_tie_with_an_unrenderable_coefficient_keeps_basis_order():
    # x - 1 and 2*x + 2^20000 tie in rank and differ in their first rendered
    # terms, x and 2*x, ahead of the coefficient too long to render; the tie
    # keeps basis order all the same, as when the whole render was asked for
    from diffalg.reduction import _minimal_autoreduced

    rk = orderly()
    p, q = P("x - 1"), P("2*x + 2^20000")
    assert _minimal_autoreduced([p, q], rk) == [p]
    assert _minimal_autoreduced([q, p], rk) == [q]
    small = P("2*x + 3")  # renderable, it sorts first from either side
    assert _minimal_autoreduced([p, small], rk) == _minimal_autoreduced([small, p], rk) == [small]
