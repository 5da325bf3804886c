import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import diffalg
from diffalg import (
    NEG_INF,
    AutoreducedSet,
    Derivative,
    DiffPoly,
    DiffRing,
    LinOp,
    Ranking,
    ResourceLimit,
    build_pencil,
    coseparant,
    elimination,
    fiber_at,
    initial,
    order_matrix,
    orderly,
    parse_poly,
    render,
    ritt_divide,
    scripted_divide,
    separant,
)
from diffalg.diffpoly import (
    FIELD_BITS,
    MAX_EXPONENT,
    MAX_ORDER,
    MAX_PAIRS,
    MONO_ONE,
    PRIME,
    _MONO_RESIDUES,
    _addmul,
    _canon,
    _decode,
    _encode,
    _field_value,
    _is_linear,
    _poly,
    _render_cmp,
    _renderable,
    _residue,
)
from helpers import (
    SMALL_INTS,
    SMALL_RATIONALS,
    elimination_project,
    is_canonical_monomial,
    is_lower_than,
    rand_nonconstant,
    rand_poly,
    ref_add,
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


def test_ring_names_are_names():
    # render writes a name as it is, so a name that is not one NAME of the
    # text format would print as another polynomial: x' plus the variable
    # "x'" would print x' + x', and twice "1 + q" as 2*1 + q
    for names in (("x", "x'"), ("",), ("x", "1 + q"), ("x", None), ("x", "y z")):
        with pytest.raises(ValueError, match="variable .* is not a name"):
            DiffRing(names)
    with pytest.raises(ValueError, match="variable '1 \\+ q' is not a name"):
        DiffRing(("x",)).extend("1 + q")
    with pytest.raises(ValueError, match="variable \"x'\" is not a name"):
        DiffRing(("x",)).extend("x'")
    ring = DiffRing(("x_1", "Y2")).extend("q")
    assert ring.names == ("x_1", "Y2", "q")
    assert render(ring.var("x_1", 1) + ring.var("q")) == "x_1' + q"


def test_is_linear_reads_the_monomials():
    # every term of total degree at most 1, whatever the fields and orders
    from diffalg.diffpoly import _is_linear

    for text, linear in (
        ("0", True), ("3", True), ("x", True), ("x^(7) - 2/3*y'' + z + 1", True),
        ("x^2", False), ("x'*y", False), ("x'^3 + y", False), ("x*y*z", False), ("x^(30)^2 + 1", False),
    ):
        assert _is_linear(P(text)) is linear, text
    rng = random.Random(29)
    for _ in range(200):
        p = rand_poly(rng, R3, nonzero=False, max_order=20)
        assert _is_linear(p) == all(sum(e for _, e in mono) <= 1 for mono in p.terms)


def test_sums_and_differences_match_reference():
    # sums checked against plain dict code, not only against other sums
    rng = random.Random(19)
    for _ in range(300):
        f, g = (rand_poly(rng, R3, max_monos=6, coeffs=SMALL_RATIONALS) for _ in range(2))
        neg_g = {m: -c for m, c in g.terms.items()}
        for got, want in [
            (f + g, ref_add(f.terms, g.terms)),
            (f - g, ref_add(f.terms, neg_g)),
            (-g, neg_g),
            (f + Fraction(-1, 2), ref_add(f.terms, {MONO_ONE: Fraction(-1, 2)})),
            (3 - g, ref_add({MONO_ONE: 3}, neg_g)),
            (Fraction(2, 3) + g, ref_add({MONO_ONE: Fraction(2, 3)}, g.terms)),
            # sums that cancel, wholly or in part
            (f - f, {}),
            (f + -f, {}),
            (f + (g - f), g.terms),
            (f - (f + g), neg_g),
        ]:
            assert got.terms == want and stored_canonically(got)
    other = DiffRing(("a", "b"))
    text = "mixed rings: DiffRing(x, y, z) vs DiffRing(a, b)"
    for op in (lambda p, q: p + q, lambda p, q: p - q):
        with pytest.raises(ValueError, match=re.escape(text)):
            op(P("x"), other.var("a"))


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
        o = f.order_in(v)
        if o != NEG_INF:
            assert f.derive().order_in(v) == o + 1


def test_derive_walks_each_monomials_own_fields():
    # monomials of several fields with exponents above 1, against the
    # Leibniz reference on the terms view; the order and exponent guards
    # still refuse a derivation that would overflow a field
    rng = random.Random(71)
    R4 = ring_of(4)
    several = powers = 0
    for _ in range(300):
        p = rand_poly(rng, R4, max_monos=6, max_deg=6, max_order=5, nonzero=False, coeffs=SMALL_RATIONALS)
        assert p.derive().terms == ref_derive(p.terms) and canonical(p.derive())
        assert p.derive(2).terms == ref_derive(ref_derive(p.terms))
        several += any(len(m) > 2 for m in p.terms)
        powers += any(e > 1 for m in p.terms for _, e in m)
    assert several > 200 and powers > 100
    x, y2, x1 = Derivative(0, 0), Derivative(1, 2), Derivative(0, 1)
    edge = DiffPoly(R3, {((x, MAX_EXPONENT), (y2, 3)): 2, ((Derivative(2, MAX_ORDER - 1), 2), (x1, 1)): 1})
    assert edge.derive().terms == ref_derive(edge.terms)
    with pytest.raises(ResourceLimit, match="MAX_EXPONENT"):
        DiffPoly(R3, {((x, MAX_EXPONENT + 1), (y2, 3)): 1}).derive()
    with pytest.raises(ResourceLimit, match="MAX_ORDER"):
        DiffPoly(R3, {((x1, 2), (Derivative(2, MAX_ORDER), 1)): 1}).derive()


def test_partial():
    f = P("x'^2*y + 3*x'")
    assert f.partial(Derivative(0, 1)) == P("2*x'*y + 3")
    assert f.partial(Derivative(2, 5)) == R3.zero()


# -- orders and conventions ---------------------------------------------------


def test_order_conventions():
    f = P("x' + y^(18)")
    assert f.order_in("x") == 1
    assert f.order_in("y") == 18
    assert f.order_in("z") == NEG_INF
    assert R3.zero().order_in("x") == NEG_INF
    # the weak convention reads an absent variable's order as 0
    weak = order_matrix([f, R3.zero()], None, "weak").entries
    assert weak == ((1, 18, 0), (0, 0, 0))
    assert weak == tuple(tuple(ref_order_in(p.terms, v, "weak") for v in range(3)) for p in (f, R3.zero()))


# -- rankings ----------------------------------------------------------------


def test_orderly_ranking():
    rk = orderly()
    assert rk.key(Derivative(0, 1)) < rk.key(Derivative(1, 1))  # same order: var index
    assert rk.key(Derivative(2, 1)) < rk.key(Derivative(0, 2))  # order dominates
    assert rk.leader(P("x' + y' + 1")) == Derivative(1, 1)
    assert rk.leader(P("x^(50) + y + z")) == Derivative(0, 50)


def test_orderly_ranking_is_shared(monkeypatch):
    # orderly() is one immutable Ranking, and _facts caches a polynomial's
    # leader for the ranking object that asked: so the leader of g is
    # computed once over repeated calls that default their ranking (the
    # orderly leader is read off the support word's top field by _at)
    from diffalg import is_reduced_wrt

    assert orderly() is orderly()
    leaders = []
    at = diffalg.diffpoly._at
    monkeypatch.setattr(diffalg.diffpoly, "_at", lambda s, n: leaders.append(at(s, n)) or leaders[-1])
    f, g = P("x*y'"), P("y'' - x")
    for _ in range(5):
        assert is_reduced_wrt(f, g)
    assert leaders == [Derivative(1, 2)]


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


def test_ranking_blocks_given_as_lists_are_a_value():
    # the constructor keeps blocks as a tuple of tuples: a ranking built
    # from lists equals elimination's and hashes, and so does a set
    # autoreduced under it; the orderly ranking takes no blocks
    rk = Ranking("elim", [[1], [0]])
    assert rk == elimination([[1], [0]]) and hash(rk) == hash(elimination([[1], [0]]))
    assert rk.blocks == ((1,), (0,))
    aset = AutoreducedSet((P("x'"),), rk)
    assert {aset} == {AutoreducedSet((P("x'"),), elimination([[1], [0]]))}
    with pytest.raises(ValueError, match="the orderly ranking takes no blocks"):
        Ranking("orderly", [[0]])


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


def test_bad_variable_is_one_value_error():
    # every name-or-index variable argument goes through DiffRing.var_index
    ring = DiffRing(("x", "y"))
    system = [parse_poly("x'^2 - y", ring), parse_poly("x'' - y'", ring)]
    u = system[0]
    charset = AutoreducedSet((parse_poly("y' - y", ring), parse_poly("x' - y", ring)), elimination([[1], [0]]))
    assert (ring.var_index("y"), ring.var_index(1)) == (1, 1)
    for bad in (5, -1, "q", 1.0, True):
        calls = [
            lambda: ring.var_index(bad),
            lambda: ring.var(bad),
            lambda: separant(u, bad),
            lambda: initial(u, bad),
            lambda: coseparant(u, bad),
            lambda: build_pencil(system, 0, bad),
            lambda: u.leader_in(bad),
            lambda: order_matrix(system, [0, bad]),
            lambda: scripted_divide(system, [(1, 0, bad)]),
            lambda: ritt_divide(system[1], [u], var=bad),
            lambda: elimination_project(charset, [bad]),
            lambda: DiffPoly(ring, {((Derivative(bad, 0), 1),): 1}),
        ]
        # a Derivative's variable: an int outside the ring reads as absent
        reads = [
            (NEG_INF, lambda: u.order_in(bad)),
            (0, lambda: u.deg_in(Derivative(bad, 2))),
            (0, lambda: u.partial(Derivative(bad, 2))),
        ]
        if type(bad) is int:
            for value, read in reads:
                assert read() == value, bad
        else:
            calls += [read for _, read in reads]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape("no variable %r" % (bad,))):
                call()
    # an int outside the ring still reads as an absent variable's order
    assert u.order_in(5) == NEG_INF


def test_counts_are_non_negative_ints():
    # derivative orders, exponents and derivation counts are checked the way
    # var_index checks variables: a bool or a float is not an int
    x, u = R3.var("x"), P("x'^2 - y''")
    for bad in (True, False, 1.0, 1.5, 2.0, -1, "1", None):
        calls = [
            ("order", lambda: R3.var("x", bad)),
            ("order", lambda: DiffPoly(R3, {((Derivative(0, bad), 1),): 1})),
            ("order", lambda: u.deg_in(Derivative(0, bad))),
            ("order", lambda: u.partial(Derivative(0, bad))),
            ("order", lambda: u.coeffs_in(Derivative(0, bad))),
            ("exponent", lambda: DiffPoly(R3, {((Derivative(0, 1), bad),): 1})),
            ("exponent", lambda: x**bad),
            ("times", lambda: x.derive(bad)),
        ]
        for what, call in calls:
            with pytest.raises(ValueError, match=re.escape("%s must be a non-negative int, not %r" % (what, bad))):
                call()
    assert R3.var("x", 0) == x.derive(0) == x**1 == DiffPoly(R3, {((Derivative(0, 0), 1),): 1})
    assert x**0 == R3.one() and DiffPoly(R3, {((Derivative(0, 2), 0),): 5}) == R3.const(5)
    # a well-formed derivative outside the ring or over MAX_ORDER reads as absent
    for d in (Derivative(3, 1), Derivative(0, MAX_ORDER + 1)):
        assert u.deg_in(d) == 0 and u.partial(d) == R3.zero() and u.coeffs_in(d) == {0: u}
    assert u.deg_in(Derivative(0, 1)) == 2 and R3.zero().deg_in(Derivative(0, 1)) == NEG_INF
    # a monomial is checked exponent first, then variable, then order
    for mono, err in (
        (((Derivative(0, MAX_ORDER + 1), True),), "exponent must be a non-negative int, not True"),
        (((Derivative(5, -1), 1),), "no variable 5"),
        (((Derivative(5, 0), -1),), "exponent must be a non-negative int, not -1"),
    ):
        with pytest.raises(ValueError, match=re.escape(err)):
            DiffPoly(R3, {mono: 1})
    # a fiber value must be a finite rational
    pen = build_pencil([P("x'^2 - x"), P("y' - x")], 0, "x")
    for mu in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            fiber_at(pen, mu)


def test_only_diffpoly_reads_the_packed_terms():
    # the packed representation belongs to diffpoly: every other module goes
    # through DiffPoly's methods and diffpoly's kernel functions
    src = Path(diffalg.__file__).resolve().parent
    assert sorted(p.name for p in src.glob("*.py") if "._packed" in p.read_text()) == ["diffpoly.py"]


# -- linear differential operators -------------------------------------------


@settings(max_examples=40)
@given(small_polys(), small_polys())
def test_weyl_relation(c, g):
    # D o c = c' + c o D as operators
    assert LinOp(R3, {0: c.derive(), 1: c}).apply(g) == (c * g).derive()


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
        assert f.order_in(v) == ref_order_in(f.terms, v, "strong")
    for conv in ("weak", "strong"):
        row = tuple(ref_order_in(f.terms, v, conv) for v in range(3))
        assert order_matrix([f], None, conv).entries == (row,)


def test_coeffs_in_is_one_pass():
    # coeffs_in reads every term once, however many degrees it finds: on a
    # polynomial of 2,000 degrees in x it costs a few partials, where a
    # pass per degree would cost hundreds
    f = DiffPoly(R3, {((Derivative(0, 0), e), (Derivative(1, 0), 1)): 1 for e in range(2000)})
    x = Derivative(0, 0)

    def took(call):
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t)
        return best

    cs = f.coeffs_in(x)
    assert len(cs) == 2000 and cs[7] == R3.var("y")
    assert took(lambda: f.coeffs_in(x)) < 50 * took(lambda: f.partial(x))


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


def _sign(a, b):
    return (a > b) - (a < b)


def test_render_cmp_equals_comparing_renders():
    # a rank tie compares rendered terms one at a time up to the first that
    # differs; it must order as the whole rendered strings do, also where one
    # differing piece is a proper prefix of the other (x and x', x + y and
    # x + y', x and x + 1) and for signs, fractions, powers and constants
    R2 = ring_of(2)
    cases = [
        ("x", "x'"), ("x", "x + 1"), ("x^2", "x^(4)"), ("3/2*x", "3*x"), ("2*x", "21*x"),
        ("-x", "-x'"), ("-x", "x"), ("-2*x", "-21*x"), ("-x + 1", "-x - 1"), ("x - 1", "x - 12"),
        ("x + y", "x + y'"), ("x + y - 1", "x + y' - 1"), ("x*y", "x"), ("x' + y^2", "x' + y"),
        ("3", "-2"), ("1", "12"), ("-1", "-12"), ("-3/2", "-3"), ("3", "3"), ("0", "x"), ("0", "-1"),
    ]
    pairs = [(P(a, R2), P(b, R2)) for a, b in cases]
    rng = random.Random(88)
    for _ in range(1500):
        coeffs = rng.choice([SMALL_INTS, SMALL_RATIONALS])
        p = rand_poly(rng, R2, max_monos=4, max_order=3, nonzero=False, coeffs=coeffs)
        if rng.random() < 0.5:  # shares p's leading terms, so the comparison runs past them
            q = p + rand_poly(rng, R2, max_monos=2, max_deg=2, max_order=1, nonzero=False, coeffs=coeffs)
        else:
            q = rand_poly(rng, R2, max_monos=4, max_order=3, nonzero=False, coeffs=coeffs)
        pairs.append((p, q))
    for p, q in pairs:
        want = _sign(render(p), render(q))
        assert _render_cmp(p, q) == want and _render_cmp(q, p) == -want, (render(p), render(q))
    assert {_render_cmp(p, q) for p, q in pairs} == {-1, 0, 1}


def test_renderable_decides_the_digit_limit_from_sizes():
    # render refuses a numerator or denominator of 10^L or more, L the
    # interpreter's limit; _renderable tells so without converting any
    limit = sys.get_int_max_str_digits()
    x = R3.var("x")
    try:
        sys.set_int_max_str_digits(640)
        for c in (10**640 - 1, 10**640, -(10**640), -(10**640 - 1), Fraction(1, 10**640), Fraction(10**640 - 1, 7),
                  2**1920, 2**1921, 2**2126, 2**2127, Fraction(-(2**2127), 3)):
            for p in (x * c + 1, R3.const(c)):
                try:
                    ok = bool(render(p))
                except ResourceLimit:
                    ok = False
                assert _renderable(p) is ok, c
        sys.set_int_max_str_digits(0)  # no limit
        assert _renderable(x * 10**5000) and render(x * 10**5000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_leaders_match_brute_force():
    rng = random.Random(41)
    R4 = ring_of(4)
    rankings = [orderly(), elimination([[0], [1, 2, 3]]), elimination([[3, 1], [0], [2]]),
                elimination([[2], [0, 1], [3]]), elimination([[0, 1, 2, 3]]),
                elimination([[2, 7], [0], [1, 3]])]  # 7 names no variable of the ring
    # singleton blocks over a shuffled variable order, as linear_reduce builds them
    shuffle = random.Random(43)
    for _ in range(4):
        order = [0, 1, 2, 3]
        shuffle.shuffle(order)
        rankings.append(elimination([[v] for v in order]))
    # blocks that leave variables uncovered: w, with 5 naming no variable of
    # the ring, and both z and w
    partials = [(elimination([[1], [5], [0, 2]]), (3,)), (elimination([[1], [0]]), (2, 3))]
    raised = 0
    for _ in range(400):
        p = rand_nonconstant(rng, R4, max_monos=5, max_order=12)
        brute_support = {d for m in p.terms for d, _ in m}
        assert p.support() == brute_support
        for rk in rankings:
            ld = max(brute_support, key=rk.key)
            assert rk.leader(p) == ld
            assert rk.rank(p) == (rk.key(ld), max(dict(m).get(ld, 0) for m in p.terms))
        # an uncovered variable is reported at its highest occurring derivative
        for rk, out in partials:
            uncovered = [(d.order, d.var) for d in brute_support if d.var in out]
            if uncovered:
                raised += rk is partials[0][0]
                with pytest.raises(ValueError) as err:
                    rk.leader(p)
                assert str(err.value) == "variable %d not covered by blocks" % max(uncovered)[1]
            else:
                assert rk.leader(p) == max(brute_support, key=rk.key)
    assert 50 <= raised <= 350, raised
    with pytest.raises(ValueError) as err:
        elimination([[0], [1]]).leader(R4.var("z", 2) + R4.var("x"))
    assert str(err.value) == "variable 2 not covered by blocks"


def test_masks_span_every_order():
    # the masks span every order up to MAX_ORDER; order_in and the leaders
    # read them at any order
    rng = random.Random(5)
    for _ in range(200):
        p = rand_poly(rng, R3, max_order=40)
        for v in range(3):
            assert p.order_in(v) == ref_order_in(p.terms, v, "strong")
        weak = tuple(ref_order_in(p.terms, v, "weak") for v in range(3))
        assert order_matrix([p], None, "weak").entries == (weak,)
        if not p.is_constant():
            assert orderly().leader(p) == max(p.support(), key=orderly().key)
    # they depend on the number of variables alone: rings of one size share
    # them, and a ring of no variables has masks of no fields
    assert DiffRing(("p", "q", "r"))._masks is R3._masks
    empty = DiffRing(())
    assert empty.const(3).derive() == 0 and empty.const(2) ** 3 == 8 and empty.const(3) * 2 == 6
    assert _is_linear(empty.const(3)) and empty._masks == (0, 0, 0)
    # up to the order cap, in rings of 1, 3 and 30 variables
    for n in (1, 3, 30):
        ring = DiffRing(["x%d" % v for v in range(n)])
        blocks = list(range(n))
        rng.shuffle(blocks)
        rankings = [orderly(), elimination([blocks[: n // 2], blocks[n // 2:]]), elimination([[v] for v in blocks])]
        for _ in range(60):
            p = rand_poly(rng, ring, max_order=MAX_ORDER)
            for v in range(n):
                assert p.order_in(v) == ref_order_in(p.terms, v, "strong")
            brute = {d for m in p.terms for d, _ in m}
            if brute:
                for rk in rankings:
                    assert rk.leader(p) == max(brute, key=rk.key)
        top = ring.var(n - 1, MAX_ORDER)
        row = 2 * top - ring.var(0, MAX_ORDER) + ring.var(0) + 5
        assert _is_linear(row) and not _is_linear(row * ring.var(0, MAX_ORDER))
        assert row.order_in(n - 1) == MAX_ORDER and orderly().leader(row) == Derivative(n - 1, MAX_ORDER)
        # the linear kernel divides at the cap, f - D^999(g), and reads the
        # remainder's top orders off its word
        f = top + ring.var(0)
        g = ring.var(n - 1, 1) + (ring.var(0) if n > 1 else 0)
        rem = ritt_divide(f, [g], "full").remainder
        assert rem == (ring.var(0) - ring.var(0, MAX_ORDER - 1) if n > 1 else ring.var(0))
        assert [rem.order_in(v) for v in range(n)] == [MAX_ORDER - 1 if n > 1 else 0] + [NEG_INF] * (n - 1)
        heavy = DiffPoly(ring, {((Derivative(n - 1, MAX_ORDER), MAX_EXPONENT + 1),): 1})
        with pytest.raises(ResourceLimit, match="product refused"):
            heavy * ring.var(0)
        with pytest.raises(ResourceLimit, match="MAX_ORDER"):
            top.derive()
    # every mask of a 300-variable ring spans its 1,001 orders of 300 fields
    wide = DiffRing(["x%d" % v for v in range(300)])
    assert sum(m.bit_length() for m in wide._masks) <= 3 * 1001 * 300 * 16


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
        weak = tuple(ref_order_in(f.terms, v, "weak") for v in range(3))
        assert order_matrix([lf], ["x", "y", "z"], "weak").entries == (weak,)
        assert order_matrix([lf], None, "weak").entries == (weak + (0,),)
        assert (lf * w).order_in("w") == (0 if f else NEG_INF)
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


def test_constants_hash_as_their_numbers():
    # a constant polynomial equals its number, so it hashes as that number
    for ring in (R3, DiffRing(("x", "y"))):
        for c in (3, -7, Fraction(1, 2), 0):
            assert ring.const(c) == c and hash(ring.const(c)) == hash(c)
            assert len({ring.const(c), c}) == 1
    assert len({R3.const(3), 3, Fraction(3), R3.const(Fraction(6, 2))}) == 1
    assert len({R3.zero(), 0, DiffPoly(R3, {})}) == 1
    # a non-constant polynomial hashes by its ring and terms, as before
    p = P("x'*y + 2")
    assert hash(p) == hash((R3.names, tuple(sorted(p._packed.items()))))


def _value_at_the_replay_point(p):
    # each derivative's value from its field offset, summed over the terms view
    n = p.ring.nvars
    total = Fraction(0)
    for m, c in p.terms.items():
        for (var, order), e in m:
            c *= _field_value((order * n + var) * FIELD_BITS) ** e
        total += c
    return total.numerator * pow(total.denominator, -1, PRIME) % PRIME


def test_cached_facts_match_their_computations():
    # every fact kept on a polynomial equals its uncached computation, asked
    # cold and then warm, with the rankings (and so the leaders) asked in turn
    rng = random.Random(23)
    R4 = ring_of(4)
    rankings = [orderly(), elimination([[0], [1, 2, 3]]), elimination([[3, 1], [0], [2]]), elimination([[0, 1, 2, 3]])]
    for _ in range(200):
        p = rand_nonconstant(rng, R4, max_monos=6, max_deg=4, max_order=6, coeffs=SMALL_RATIONALS)
        for _ in range(2):
            for v in range(4):
                # the oracle reads p's terms; order_in itself reads _top
                o = ref_order_in(p.terms, v, "strong")
                top = None if o == NEG_INF else (o, ref_deg_in(p.terms, Derivative(v, o)))
                assert p.order_in(v) == o and p._top(v) == top
                assert p.leader_in(v) == (None if top is None else (Derivative(v, o), top[1]))
            for rk in rankings:
                ld = max(p.support(), key=rk.key)
                deg = p.deg_in(ld)
                assert rk.leader_degree(p) == (ld, deg) and rk.rank(p) == (rk.key(ld), deg)
                sep, ini = p.partial(ld), p.coeffs_in(ld)[deg]
                assert p._leading(ld)[:2] == (sep, ini)
                assert p._leading(ld)[2][0] == p - ini * R4.var(ld.var, ld.order) ** deg
                assert separant(p, None, rk) == sep and initial(p, None, rk) == ini
                assert separant(p, ld.var) == sep and initial(p, ld.var) == ini
            assert _residue(p) == p._res == _value_at_the_replay_point(p)


def test_residue_memo_is_cleared_past_its_cap():
    # one polynomial of 45^3 = 91,125 distinct monomials x^a*y^b*z^c fills
    # the process-wide monomial memo past 2^16 entries; the next monomial
    # met for the first time clears it, and values read after are still right
    memo = _MONO_RESIDUES
    big = _poly(R3, {a | b << FIELD_BITS | c << 2 * FIELD_BITS: 1 for a in range(45) for b in range(45) for c in range(45)})
    _residue(big)
    assert len(memo) > 1 << 16
    fresh = P("x^50*y' + 3*z''^2 - 1/2")
    assert _residue(fresh) == _value_at_the_replay_point(fresh)
    assert set(memo) == set(fresh._packed)


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


def test_powers_of_a_multi_term_base():
    # a base of several terms is multiplied out k times
    base = P("x + y'")
    prod, ref = R3.one(), {MONO_ONE: 1}
    for k in range(5):
        p = base**k
        assert p == prod and p.terms == ref and canonical(p)
        prod, ref = prod * base, ref_mul(ref, base.terms)
    cube = P("x' - 2*y")
    assert P("(x' - 2*y)^3") == cube * cube * cube


def test_multi_term_power_refused_unbuilt(monkeypatch):
    # k times the base's largest exponent passes MAX_EXPONENT: no power of
    # the base is multiplied out.  Every product of a power, by ** or by the
    # parser, is one _product call out * base on packed term dicts, so the
    # factors it sees are the base's: (term dict, support word) pairs
    import diffalg.diffpoly as diffpoly_mod

    factors = []
    product = diffpoly_mod._product
    monkeypatch.setattr(
        diffpoly_mod, "_product", lambda ring, t1, w1, t2, w2: factors.append((t2, w2)) or product(ring, t1, w1, t2, w2))
    base = P("x^2 + y'")
    k = MAX_EXPONENT // 2 + 1
    _refused_fast(lambda: base**k)
    _refused_fast(lambda: P("(x^2 + y')^%d" % k))
    assert not any(w for _, w in factors)
    assert base**2 == P("x^4 + 2*x^2*y' + y'^2") and (base._packed, base._support()) in factors


def test_power_size_caps(monkeypatch):
    # a power is refused unbuilt when its bound passes MAX_TERMS terms, C(k+n-1, k)
    # for a base of n terms, or MAX_COEFF_BITS bits, k times the bits of the
    # larger of the sum of |numerators| and the lcm of the denominators
    import diffalg.diffpoly as diffpoly_mod

    monkeypatch.setattr(diffpoly_mod, "MAX_TERMS", 10)
    monkeypatch.setattr(diffpoly_mod, "MAX_COEFF_BITS", 20)
    base = P("x + y")
    assert len((base**9).terms) == 10
    with pytest.raises(ResourceLimit, match="exceeds the cap MAX_TERMS = 10 .term bound 11,"):
        base**10
    monkeypatch.setattr(diffpoly_mod, "MAX_TERMS", 100)
    for base in (P("2*x + 1"), P("x + 1") * Fraction(1, 3), R3.const(3)):  # 3 has 2 bits
        assert base**10 == base**5 * base**5
        with pytest.raises(ResourceLimit, match="exceeds the cap MAX_COEFF_BITS = 20 .* 22 bits"):
            base**11
    assert R3.zero() ** 30000 == R3.zero() and P("x*y")**11 == P("x^11*y^11")


def test_product_pair_cap(monkeypatch):
    # a product of more than MAX_PAIRS term pairs len(a)*len(b) is refused
    # before its loop, by _addmul, so a division step is bounded as * is; a
    # constant factor only scales
    import diffalg.diffpoly as diffpoly_mod

    x = R3.var("x")
    powers = [x**k for k in range(2049)]
    a, b = sum(powers[:2048], R3.zero()), sum(powers, R3.zero())
    assert MAX_PAIRS == 2048 * 2048
    _refused_fast(lambda: a * b)
    with pytest.raises(ResourceLimit, match="product of 2049 by 2048 terms exceeds the cap MAX_PAIRS = 4194304"):
        b * a
    assert a * 3 == 3 * a and len((a * R3.const(3))._packed) == 2048
    three, four = P("x + y + z"), P("x + y + z + 1")
    square = four * four
    monkeypatch.setattr(diffpoly_mod, "MAX_PAIRS", 12)
    assert three * four == P("x^2 + 2*x*y + 2*x*z + y^2 + 2*y*z + z^2 + x + y + z")
    with pytest.raises(ResourceLimit, match="product of 3 by 5 terms"):
        three * (four + x.derive())
    with pytest.raises(ResourceLimit, match="product of 4 by 4 terms"):
        _addmul({}, four, four)
    # the step's multiplier, the initial y' + z' + y + z + 1, times the rest of f
    f, g = P("x' + y^4 + z^4 + y^3 + z^3 + y^2"), P("(y + z + 1 + y' + z')*x'")
    with pytest.raises(ResourceLimit, match="product of 5 by 5 terms exceeds the cap MAX_PAIRS = 12 "):
        ritt_divide(f, [g], "full", var="x")
    monkeypatch.undo()
    assert ritt_divide(f, [g], "full", var="x").remainder and _poly(R3, _canon(_addmul({}, four, four))) == square


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
