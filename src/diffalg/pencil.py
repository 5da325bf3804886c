"""Pencils attached to a pivot equation.

For a pivot u with leader l = x_v^(r) of degree d, the coseparant t1 is
defined by the exact identity  d*u = t1 + l*s1  with s1 the separant.  The
pencil adjoins a fresh constant parameter w and replaces u by t1 + w*s1;
specializing w to a rational recovers a fiber in the original ring."""

from __future__ import annotations

from fractions import Fraction

from .diffpoly import NEG_INF, Derivative, DiffPoly, separant, render
from .errors import InternalInvariantViolation
from .reduction import AutoreducedSet, describe, membership


def coseparant(u: DiffPoly, var):
    """(t1, s1, leader, degree) with d*u = t1 + leader*s1."""
    ring = u.ring
    if isinstance(var, str):
        var = ring.index[var]
    o = u.order_in(var, "strong")
    if o == NEG_INF:
        raise ValueError("pivot does not involve %s" % ring.names[var])
    ld = Derivative(var, int(o))
    d = u.deg_in(ld)
    s1 = separant(u, var)
    t1 = u * d - ring.var(var, int(o)) * s1
    if u * d != t1 + ring.var(var, int(o)) * s1:
        raise InternalInvariantViolation(
            "coseparant identity d*u = t1 + leader*s1 failed for u = %s, d = %d: t1 = %s, s1 = %s"
            % (describe(u), d, describe(t1), describe(s1))
        )
    return t1, s1, ld, d


def is_degenerate(u: DiffPoly, var, charset: AutoreducedSet) -> bool:
    """Whether the pivot's separant vanishes on the component of the charset."""
    return membership(separant(u, var), charset)


class RittPencil:
    __slots__ = ("ring", "ext_ring", "pivot_index", "var", "leader", "degree", "separant", "coseparant",
                 "generator", "carried", "fresh")

    def __init__(self, ring, ext_ring, pivot_index, var, leader, degree, separant, coseparant, generator,
                 carried, fresh):
        self.ring = ring
        self.ext_ring = ext_ring
        self.pivot_index = pivot_index
        self.var = var
        self.leader = leader
        self.degree = degree
        self.separant = separant
        self.coseparant = coseparant
        self.generator = generator  # t1 + w*s1 in the extended ring
        self.carried = carried  # the non-pivot equations, original ring
        self.fresh = fresh

    def base_generators(self):
        """t1, s1 and the carried equations, all in the original ring."""
        return (self.coseparant, self.separant) + self.carried

    def to_json(self):
        return {
            "pivot": self.pivot_index,
            "var": self.ring.names[self.var],
            "degree": self.degree,
            "separant": render(self.separant),
            "coseparant": render(self.coseparant),
            "generator": render(self.generator),
            "carried": [render(p) for p in self.carried],
            "fresh": self.fresh,
        }


def build_pencil(system, pivot_index, var, fresh="w") -> RittPencil:
    system = list(system)
    if not 0 <= pivot_index < len(system):
        raise ValueError("pivot index out of range")
    u = system[pivot_index]
    ring = u.ring
    if isinstance(var, str):
        var = ring.index[var]
    t1, s1, ld, d = coseparant(u, var)
    ext = ring.extend(fresh)
    gen = ext.lift(t1) + ext.var(fresh) * ext.lift(s1)
    carried = tuple(p for i, p in enumerate(system) if i != pivot_index)
    return RittPencil(ring, ext, pivot_index, var, ld, d, s1, t1, gen, carried, fresh)


def fiber_at(pencil: RittPencil, mu):
    """Specialize w = mu; returns the fiber system in the original ring."""
    try:
        mu = Fraction(mu)
    except ZeroDivisionError:
        raise ValueError("fiber value %s has a zero denominator" % (mu,))
    fib = pencil.coseparant + pencil.separant * mu
    return (fib,) + pencil.carried
