"""Pencils attached to a pivot equation.

For a pivot u with leader l = x_v^(r) of degree d, the coseparant t1 is
defined by the exact identity  d*u = t1 + l*s1  with s1 the separant.  The
pencil adjoins a fresh constant parameter w and replaces u by t1 + w*s1;
specializing w to a rational recovers a fiber in the original ring."""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .diffpoly import _NAME, DiffPoly, describe, render, separant
from .errors import InternalInvariantViolation, digit_limit, digits_size


def coseparant(u: DiffPoly, var):
    """(t1, s1, leader, degree) with d*u = t1 + leader*s1."""
    ring = u.ring
    var = ring.var_index(var)
    got = u.leader_in(var)
    if got is None:
        raise ValueError("pivot does not involve %s" % ring.names[var])
    ld, d = got
    s1 = separant(u, var)
    lv = ring.var(var, ld.order)
    t1 = u * d - lv * s1
    if u * d != t1 + lv * s1:
        raise InternalInvariantViolation(
            "coseparant identity d*u = t1 + leader*s1 failed for u = %s, d = %d: t1 = %s, s1 = %s"
            % (describe(u), d, describe(t1), describe(s1))
        )
    return t1, s1, ld, d


class RittPencil(namedtuple("RittPencil", "ring ext_ring pivot_index var leader degree separant coseparant "
                             "generator carried fresh")):
    """generator is t1 + w*s1 in the extended ring; carried holds the
    non-pivot equations, in the original ring."""

    __slots__ = ()

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
    if not (isinstance(fresh, str) and _NAME.fullmatch(fresh)):
        raise ValueError("parameter %r is not a name" % (fresh,))
    system = list(system)
    if not 0 <= pivot_index < len(system):
        raise ValueError("pivot index out of range")
    u = system[pivot_index]
    ring = u.ring
    var = ring.var_index(var)
    t1, s1, ld, d = coseparant(u, var)
    ext = ring.extend(fresh)
    gen = ext.lift(t1) + ext.var(fresh) * ext.lift(s1)
    carried = tuple(p for i, p in enumerate(system) if i != pivot_index)
    return RittPencil(ring, ext, pivot_index, var, ld, d, s1, t1, gen, carried, fresh)


def _well_formed(text):
    """Whether Fraction reads text once each run of digits is cut to one."""
    try:
        Fraction(re.sub(r"\d+", "1", text))
    except ValueError:
        return False
    return True


def fiber_at(pencil: RittPencil, mu):
    """Specialize w = mu; returns the fiber system in the original ring."""
    try:
        mu = Fraction(mu)
    except ZeroDivisionError:
        raise ValueError("fiber value %s has a zero denominator" % (mu,))
    except OverflowError:  # an infinite float
        raise ValueError("fiber value %s is not finite" % (mu,)) from None
    except ValueError:
        # a well-formed value fails only on the interpreter's digit limit
        if not isinstance(mu, str) or not _well_formed(mu):
            raise
        raise digit_limit("fiber value of %s" % digits_size(sum(map(str.isdigit, mu)))) from None
    fib = pencil.coseparant + pencil.separant * mu
    return (fib,) + pencil.carried
