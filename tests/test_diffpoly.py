import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (
    NEG_INF,
    Derivative,
    DiffPoly,
    DiffRing,
    LinOp,
    Ranking,
    ResourceLimit,
    elimination,
    initial,
    is_lower_than,
    orderly,
    parse_poly,
    render,
    ritt_divide,
    separant,
)
from diffalg.diffpoly import MAX_EXPONENT, MAX_ORDER, MONO_ONE, _addmul, _canon, _decode, _encode, _poly
from helpers import (
    SMALL_INTS,
    SMALL_RATIONALS,
    is_canonical_monomial,
    rand_nonconstant,
    rand_poly,
    ref_coeffs_in,
    ref_deg_in,
    ref_derive,
    ref_mono_mul,
    ref_mul,
    ref_order_in,
    ref_partial,
    ref_render,
    ring_of,
)

R3 = ring_of(3)


def P(text, ring=R3):
    return parse_poly(text, ring)


def small_polys(ring=R3, **kw):
    seeds = st.integers(min_value=0, max_value=10**9)
    return seeds.map(lambda s: rand_poly(random.Random(s), ring, nonzero=False, **kw))


def stored_canonically(p):
    # an integral coefficient is an int, any other a Fraction
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values())


# -- ring arithmetic --------------------------------------------------------


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + R3.zero() == f
    assert f * R3.one() == f
    assert f - f == R3.zero()


def test_exact_rationals():
    f = P("1/2*x + 1/3*y")
    assert (f + f + f).terms[((Derivative(0, 0), 1),)] == Fraction(3, 2)
    assert f * 6 == P("3*x + 2*y")


def test_integral_coefficients_are_ints():
    c = R3.const(Fraction(4, 2)).terms
    assert c == {(): 2} and type(c[()]) is int
    assert type(R3.var("x").terms[((Derivative(0, 0), 1),)]) is int
    half = P("3/2*x")
    assert render(half) == "3/2*x"
    assert stored_canonically(half * 2) and (half * 2).terms == P("3*x").terms
    assert R3.const(Fraction(5, 1)).constant_value() == Fraction(5)
    assert type(R3.const(7).constant_value()) is Fraction


def test_int_and_fraction_built_polynomials_agree():
    x, y = R3.var("x"), R3.var("y", 2)
    from_ints = x * 3 - y * y * 2 + 5
    from_fractions = x * Fraction(3) - y * y * Fraction(6, 3) + R3.const(Fraction(10, 2))
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    assert render(from_ints) == render(from_fractions) == "-2*y''^2 + 3*x + 5"
    assert stored_canonically(from_fractions)


def test_mixed_ring_rejected():
    other = DiffRing(("a", "b"))
    with pytest.raises(ValueError):
        P("x") + other.var("a")


# -- derivation -------------------------------------------------------------


@settings(max_examples=60)
@given(small_polys(), small_polys())
def test_leibniz(f, g):
    assert (f * g).derive() == f.derive() * g + f * g.derive()


@settings(max_examples=60)
@given(small_polys(), small_polys())
def test_derivation_additive(f, g):
    assert (f + g).derive() == f.derive() + g.derive()


def test_derive_basics():
    assert R3.const(5).derive() == R3.zero()
    assert P("x").derive() == P("x'")
    assert P("x*y").derive() == P("x'*y + x*y'")
    assert P("x^2").derive() == P("2*x*x'")
    assert P("x' + y' + 1").derive(99) == P("x^(100) + y^(100)")


@settings(max_examples=60)
@given(small_polys())
def test_derive_raises_order_by_one(f):
    # char 0: the separant never vanishes, so the top order really moves up
    for v in range(3):
        o = f.order_in(v, "strong")
        if o != NEG_INF:
            assert f.derive().order_in(v, "strong") == o + 1


def test_partial():
    f = P("x'^2*y + 3*x'")
    assert f.partial(Derivative(0, 1)) == P("2*x'*y + 3")
    assert f.partial(Derivative(2, 5)) == R3.zero()


# -- orders and conventions ---------------------------------------------------


def test_order_conventions():
    f = P("x' + y^(18)")
    assert f.order_in("x", "strong") == 1
    assert f.order_in("y", "strong") == 18
    assert f.order_in("z", "strong") == NEG_INF
    assert f.order_in("z", "weak") == 0
    assert R3.zero().order_in("x", "strong") == NEG_INF
    assert R3.zero().order_in("x", "weak") == 0


# -- rankings ----------------------------------------------------------------


def test_orderly_ranking():
    rk = orderly()
    assert rk.key(Derivative(0, 1)) < rk.key(Derivative(1, 1))  # same order: var index
    assert rk.key(Derivative(2, 1)) < rk.key(Derivative(0, 2))  # order dominates
    assert rk.leader(P("x' + y' + 1")) == Derivative(1, 1)
    assert rk.leader(P("x^(50) + y + z")) == Derivative(0, 50)


def test_elimination_ranking():
    # x over y: x in the higher block, any x derivative beats any y derivative
    rk = elimination([[1], [0]])
    assert rk.key(Derivative(1, 100)) < rk.key(Derivative(0, 0))
    assert rk.leader(P("x + y^(9)")) == Derivative(0, 0)


def test_ranking_is_a_validated_value():
    assert Ranking("orderly") == orderly() == Ranking(kind="orderly", blocks=())
    assert hash(Ranking("orderly")) == hash(orderly())
    assert elimination([[1], [0]]) == Ranking("elim", ((1,), (0,)))
    assert hash(elimination([[1], [0]])) == hash(Ranking(blocks=((1,), (0,)), kind="elim"))
    assert elimination([[1], [0]]) != elimination([[0], [1]]) and orderly() != "orderly"
    assert len({orderly(), orderly(), elimination([[0, 1]])}) == 2
    assert repr(elimination([[1], [0]])) == "Ranking(kind='elim', blocks=((1,), (0,)))"
    with pytest.raises(ValueError, match="unknown ranking kind 'lex'"):
        Ranking("lex")
    with pytest.raises(ValueError, match="variable repeated across blocks"):
        elimination([[0], [1, 0]])


def test_derivative_is_a_named_pair():
    d = Derivative(var=1, order=2)
    assert d == (1, 2) and d == Derivative(1, 2) and hash(d) == hash((1, 2))
    assert (d.var, d.order) == (1, 2) and d._fields == ("var", "order")
    assert repr(d) == "Derivative(var=1, order=2)"
    assert d < Derivative(2, 0)


def test_ranking_axioms_sampled():
    rng = random.Random(7)
    for rk in (orderly(), elimination([[0], [1, 2]])):
        for _ in range(200):
            d = Derivative(rng.randrange(3), rng.randint(0, 6))
            e = Derivative(rng.randrange(3), rng.randint(0, 6))
            up = lambda u: Derivative(u.var, u.order + 1)
            assert rk.key(d) < rk.key(up(d))
            if rk.key(d) < rk.key(e):
                assert rk.key(up(d)) < rk.key(up(e))


# -- leaders, separants, initials --------------------------------------------


def test_separant_initial():
    f = P("x'^2 - x")
    assert separant(f, "x") == P("2*x'")
    assert initial(f, "x") == R3.one()
    g = P("y*x'^2 + x*x' + 1")
    assert separant(g, "x") == P("2*y*x' + x")
    assert initial(g, "x") == P("y")
    assert separant(g, None, orderly()) == P("2*y*x' + x")  # leader is x' under orderly
    h = P("y^2 + x*y + 1")
    assert separant(h, None, orderly()) == P("2*y + x")


def test_is_lower_than():
    assert is_lower_than(P("x"), P("x'"), "x")
    assert is_lower_than(P("x'"), P("x'^2"), "x")
    assert not is_lower_than(P("x'^2"), P("x'"), "x")
    assert is_lower_than(R3.zero(), P("x"), "x")


# -- linear differential operators -------------------------------------------


@settings(max_examples=40)
@given(small_polys(), small_polys())
def test_weyl_relation(c, g):
    # D o c = c' + c o D as operators
    lhs = LinOp.from_poly(c).dmul()
    rhs = LinOp.from_poly(c.derive()) + LinOp(R3, {1: c})
    assert lhs.apply(g) == rhs.apply(g)


def test_linop_apply():
    op = LinOp(R3, {1: R3.one(), 0: R3.one()})  # D + 1
    assert op.apply(P("x' - x")) == P("x'' - x")



# -- the kernel against a naive reference --------------------------------------------

SCALARS = (0, 1, -3, Fraction(2, 2), Fraction(7, 5), Fraction(-1, 2))


def any_polys():
    # int and rational coefficients, constants, and the zero polynomial
    return st.one_of(
        small_polys(),
        small_polys(coeffs=SMALL_RATIONALS),
        st.sampled_from(SCALARS).map(R3.const),
    )


derivatives = st.builds(Derivative, st.integers(0, 2), st.integers(0, 4))


def canonical(p):
    return stored_canonically(p) and all(p.terms.values()) and all(map(is_canonical_monomial, p.terms))


@settings(max_examples=80)
@given(any_polys(), any_polys())
def test_mul_and_mono_mul_match_reference(f, g):
    prod = f * g
    assert prod.terms == ref_mul(f.terms, g.terms) and canonical(prod)
    for m1 in list(f.terms) + [MONO_ONE]:
        for m2 in list(g.terms) + [MONO_ONE]:
            # the packed product is the sum of the packed monomials
            m = _decode(3, _encode(R3, m1) + _encode(R3, m2))
            assert m == ref_mono_mul(m1, m2) and is_canonical_monomial(m)


@settings(max_examples=60)
@given(any_polys(), st.sampled_from(SCALARS))
def test_scalar_products_match_reference(f, k):
    expected = ref_mul(f.terms, {MONO_ONE: k})
    for prod in (f * k, k * f, f * R3.const(k), R3.const(k) * f):
        assert prod.terms == expected and canonical(prod)


@settings(max_examples=80)
@given(any_polys(), derivatives)
def test_derivations_and_reads_match_reference(f, d):
    assert f.derive().terms == ref_derive(f.terms) and canonical(f.derive())
    assert f.derive(2).terms == ref_derive(ref_derive(f.terms))
    assert f.partial(d).terms == ref_partial(f.terms, d) and canonical(f.partial(d))
    cs = f.coeffs_in(d)
    assert {e: c.terms for e, c in cs.items()} == ref_coeffs_in(f.terms, d)
    assert all(canonical(c) for c in cs.values())
    assert f.deg_in(d) == ref_deg_in(f.terms, d)
    for v in range(3):
        for conv in ("weak", "strong"):
            assert f.order_in(v, conv) == ref_order_in(f.terms, v, conv)


@settings(max_examples=40)
@given(any_polys(), any_polys(), any_polys())
def test_linop_apply_matches_reference(c1, c3, g):
    g1 = ref_derive(g.terms)
    expected = ref_mul(c1.terms, g1)
    for mono, c in ref_mul(c3.terms, ref_derive(ref_derive(g1))).items():
        expected[mono] = expected.get(mono, 0) + c
    expected = {m: c for m, c in expected.items() if c}
    assert LinOp(R3, {3: c3, 1: c1}).apply(g).terms == expected

# -- rendering and parsing -----------------------------------------------------


def test_render_conventions():
    assert render(P("x''' + x^(4)")) == "x^(4) + x'''"
    assert render(R3.zero()) == "0"
    assert render(P("-x + 2*y")) == "2*y - x"
    assert render(P("x'^2")) == "x'^2"
    assert render(P("1/2*x - 1")) == "1/2*x - 1"
    assert P("x^(0)") == P("x")


def test_parse_render_round_trip_300():
    rng = random.Random(2024)
    for _ in range(300):
        p = rand_poly(rng, R3, nonzero=False)
        assert parse_poly(render(p), R3) == p


@settings(max_examples=80)
@given(st.one_of(small_polys(), small_polys(coeffs=SMALL_RATIONALS)))
def test_parse_render_round_trip_property(p):
    # integer and rational coefficients both pass through the text layer
    q = parse_poly(render(p), R3)
    assert q == p and hash(q) == hash(p)
    assert stored_canonically(p) and stored_canonically(q)


# -- the packed representation -------------------------------------------------


@settings(max_examples=80)
@given(any_polys())
def test_terms_view_round_trip(p):
    q = DiffPoly(R3, p.terms)
    assert q == p and hash(q) == hash(p) and q.terms == p.terms
    assert all(map(is_canonical_monomial, p.terms))


def test_terms_constructor_merges_and_normalizes():
    x, x1 = Derivative(0, 0), Derivative(0, 1)
    p = DiffPoly(R3, {((x1, 1), (x, 2)): Fraction(3, 2), ((x, 1), (x1, 1), (x, 1)): Fraction(1, 2), (): 0})
    assert p.terms == {((x, 2), (x1, 1)): 2} and type(p.terms[((x, 2), (x1, 1))]) is int


def test_render_order_matches_mono_key_1600():
    rng = random.Random(1600)
    for i in range(1600):
        coeffs = SMALL_RATIONALS if i % 2 else SMALL_INTS
        p = rand_poly(rng, ring_of(1 + i % 4), max_monos=6, max_order=5, nonzero=False, coeffs=coeffs)
        assert render(p) == ref_render(p)


def test_leaders_match_brute_force():
    rng = random.Random(41)
    R4 = ring_of(4)
    rankings = [orderly(), elimination([[0], [1, 2, 3]]), elimination([[3, 1], [0], [2]]),
                elimination([[2], [0, 1], [3]]), elimination([[0, 1, 2, 3]])]
    for _ in range(400):
        p = rand_nonconstant(rng, R4, max_monos=5, max_order=12)
        brute_support = {d for m in p.terms for d, _ in m}
        assert p.support() == brute_support
        for rk in rankings:
            ld = max(brute_support, key=rk.key)
            assert rk.leader(p) == ld
            assert rk.rank(p) == (rk.key(ld), max(dict(m).get(ld, 0) for m in p.terms))
    with pytest.raises(ValueError, match="not covered"):
        elimination([[0], [1]]).leader(R4.var("z", 2) + R4.var("x"))


def test_orders_past_the_first_masks():
    # the masks grow with the orders they meet; order_in and the leaders follow
    rng = random.Random(5)
    for _ in range(200):
        p = rand_poly(rng, R3, max_order=40)
        for v in range(3):
            assert p.order_in(v, "strong") == ref_order_in(p.terms, v, "strong")
        if not p.is_constant():
            assert orderly().leader(p) == max(p.support(), key=orderly().key)


def test_lift_into_extended_ring():
    rng = random.Random(17)
    ext = R3.extend("w")
    w = ext.var("w")
    for _ in range(150):
        f, g = rand_poly(rng, R3, nonzero=False), rand_poly(rng, R3, nonzero=False)
        lf, lg = ext.lift(f), ext.lift(g)
        assert lf.ring is ext and lf.terms == f.terms and render(lf) == render(f)
        assert ext.lift(f * g) == lf * lg and ext.lift(f + g) == lf + lg
        assert ext.lift(f.derive()) == lf.derive()
        for v in range(3):
            assert lf.order_in(v, "weak") == f.order_in(v, "weak")
        assert (lf * w).order_in("w", "strong") == (0 if f else NEG_INF)
    assert R3.lift(P("x' + 1")) == P("x' + 1")
    with pytest.raises(ValueError):
        ring_of(2).lift(P("x"))


def test_equality_and_hash_across_equal_rings():
    A, B = DiffRing(("x", "y", "z")), DiffRing(("x", "y", "z"))
    assert A is not B
    rng = random.Random(3)
    for _ in range(100):
        p = rand_poly(rng, R3, nonzero=False)
        text = render(p)
        pa, pb = parse_poly(text, A), parse_poly(text, B)
        assert pa == pb and hash(pa) == hash(pb)
        assert pa * pb == parse_poly(render(p * p), A) and (pa - pb) == A.zero()
    assert parse_poly("x", DiffRing(("y", "x"))) != parse_poly("x", A)


def _refused_fast(make):
    t = time.perf_counter()
    with pytest.raises(ResourceLimit):
        make()
    assert time.perf_counter() - t < 1.0


def test_exponent_and_order_caps():
    x = R3.var("x")
    _refused_fast(lambda: P("x^1000000000"))
    _refused_fast(lambda: P("2^1000000000*x"))
    _refused_fast(lambda: P("x^(1000000000)"))
    _refused_fast(lambda: P("x" + "'" * (MAX_ORDER + 1)))
    _refused_fast(lambda: R3.var("x", MAX_ORDER + 1))
    _refused_fast(lambda: R3.var("x", MAX_ORDER).derive())
    _refused_fast(lambda: DiffPoly(R3, {((Derivative(0, 10**9), 1),): 1}))
    _refused_fast(lambda: DiffPoly(R3, {((Derivative(0, 0), 1 << 40),): 1}))
    _refused_fast(lambda: x ** (MAX_EXPONENT + 1))
    _refused_fast(lambda: (x * x + 1) ** (MAX_EXPONENT // 2 + 1))
    assert R3.var("x", MAX_ORDER - 1).derive() == R3.var("x", MAX_ORDER)
    assert P("x^%d" % MAX_EXPONENT) == x**MAX_EXPONENT


def test_products_refused_before_a_field_carries():
    x, y = R3.var("x"), R3.var("y")
    top = x**MAX_EXPONENT
    big = top * top  # both factors within the cap: 2*MAX_EXPONENT fits the field
    assert big.deg_in(Derivative(0, 0)) == 2 * MAX_EXPONENT and big.order_in("y") == NEG_INF
    _refused_fast(lambda: big * x)
    _refused_fast(lambda: (big + y) * (y + 1))
    _refused_fast(lambda: big.derive())
    full = DiffPoly(R3, {((Derivative(0, 0), (1 << 16) - 1),): 1})  # the field's largest value
    _refused_fast(lambda: full * (x + y))
    assert big * 3 == 3 * big and (big * 3).deg_in(Derivative(0, 0)) == 2 * MAX_EXPONENT


# -- the product-accumulate kernel ------------------------------------------------


def fused(a, b, c, d):
    """a*b - c*d through one accumulator, as a Ritt division step forms it."""
    return _poly(R3, _canon(_addmul(_addmul({}, a, b), c, d, negate=True)))


@settings(max_examples=80)
@given(any_polys(), any_polys(), any_polys(), any_polys())
def test_fused_step_matches_products(a, b, c, d):
    got = fused(a, b, c, d)
    assert got == a * b - c * d and canonical(got)
    expected = ref_mul(a.terms, b.terms)
    for mono, coeff in ref_mul(c.terms, d.terms).items():
        expected[mono] = expected.get(mono, 0) - coeff
    assert got.terms == {m: coeff for m, coeff in expected.items() if coeff}
    # full cancellation leaves the zero polynomial, in either factor order
    assert not fused(a, b, a, b) and not fused(a, b, b, a)
    assert fused(a, b, R3.zero(), d) == a * b and fused(R3.one(), a, R3.zero(), d) == a


def _refuses(make):
    try:
        make()
    except ResourceLimit:
        return True
    return False


def test_fused_step_refuses_exactly_what_mul_refuses():
    x, y = R3.var("x"), R3.var("y")
    big = x**MAX_EXPONENT * x**MAX_EXPONENT  # a field's top bit set
    full = DiffPoly(R3, {((Derivative(0, 0), (1 << 16) - 1),): 1})
    polys = [big, big + y, full, x**MAX_EXPONENT, x + y, R3.const(3), R3.const(Fraction(1, 2)), R3.zero()]
    refused = 0
    for a in polys:
        for b in polys:
            by_mul = _refuses(lambda: a * b)
            refused += by_mul
            assert _refuses(lambda: _addmul({}, a, b)) == by_mul
            assert _refuses(lambda: fused(x, y, a, b)) == by_mul
    assert refused == 3 * 5 + 2 * 3  # two non-constants, one of the first three among them


def test_certificate_reads_match_scaling_by_one_over_den():
    # s = S/den and the quotients Q_i/den, formed when first read, equal the
    # values of scaling S and every Q_i by Fraction(1, den)
    rng = random.Random(12)
    checked = 0
    for _ in range(200):
        f = rand_poly(rng, R3, nonzero=False, coeffs=SMALL_RATIONALS)
        g = rand_nonconstant(rng, R3, max_monos=3, coeffs=SMALL_RATIONALS)
        cert = ritt_divide(f, [g], rng.choice(["partial", "full"]), var=rng.choice(g.variables()))
        inv = Fraction(1, cert.den)
        assert cert.s == cert.S * inv and cert.s is cert.s and cert.quotients is cert.quotients
        assert cert.quotients == tuple(LinOp(R3, {k: c * inv for k, c in q.coeffs.items()}) for q in cert.Q)
        assert all(canonical(c) for q in cert.quotients for c in q.coeffs.values())
        checked += cert.den != 1
    assert checked > 50
