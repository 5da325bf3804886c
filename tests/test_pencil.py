import random
from fractions import Fraction

import pytest

from diffalg import (
    build_pencil,
    coseparant,
    fiber_at,
    parse_poly,
    separant,
)
from helpers import is_lower_than, rand_nonconstant, ring_of

R2 = ring_of(2)


def P(text, ring=R2):
    return parse_poly(text, ring)


def test_coseparant_identity():
    u = P("x'^2 - x")
    t1, s1, ld, d = coseparant(u, "x")
    assert d == 2 and s1 == P("2*x'")
    assert t1 == P("-2*x")  # 2*u - x'*(2x') = -2x
    assert u * d == t1 + R2.var("x", 1) * s1


def test_coseparant_linear_pivot():
    u = P("x' + y' + 1")
    t1, s1, ld, d = coseparant(u, "x")
    assert d == 1 and s1 == R2.one()
    assert t1 == P("y' + 1")


def test_build_pencil_and_fibers():
    sys_ = [P("x'^2 - x"), P("y' - x")]
    pen = build_pencil(sys_, 0, "x")
    assert pen.ext_ring.names == ("x", "y", "w")
    w = pen.ext_ring.var("w")
    assert pen.generator == pen.ext_ring.lift(pen.coseparant) + w * pen.ext_ring.lift(pen.separant)
    fib = fiber_at(pen, Fraction(1, 2))
    assert fib[0].ring == R2
    assert fib[0] == pen.coseparant + pen.separant * Fraction(1, 2)
    assert fib[1:] == (P("y' - x"),)
    assert pen.base_generators() == (pen.coseparant, pen.separant, P("y' - x"))


def test_fiber_pivot_is_lower():
    rng = random.Random(14)
    for _ in range(50):
        u = rand_nonconstant(rng, R2, max_order=3)
        v = rng.choice(u.variables())
        pen = build_pencil([u], 0, v)
        mu = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert is_lower_than(fiber_at(pen, mu)[0], u, v)


def test_pencil_errors():
    with pytest.raises(ValueError):
        coseparant(P("y'"), "x")
    with pytest.raises(ValueError):
        build_pencil([P("x'")], 3, "x")
