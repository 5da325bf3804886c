"""Seeded generators for the benchmark's inputs, written as system-file text.

Each generator returns `Case`s: the text the program parses plus the
benchmark's own copy of the polynomials (and, for nonlinear systems, the
known solution), so that results can be checked without the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from algebra import NEG, PRIME, add, const, det_degree, mul, scale, system_text, var

NAMES = ("x", "y", "z", "u", "v", "w", "p", "q", "s")


@dataclass
class Case:
    label: str
    names: tuple
    polys: list  # the benchmark's own representation
    text: str
    ranking: object = None  # None = orderly, else blocks of var indices, lowest first
    solution: list = None  # per variable, coefficients of a polynomial in t
    t0: int = 0  # where the solution is evaluated (modulo algebra.PRIME)


def _coef(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _unit(rng):
    return rng.choice((-1, 1))


def _linear_case(rng, label, n, cells, max_lower, coef):
    """cells[i] = {var: top order}; lower-order terms and constants at random."""
    names = NAMES[:n]
    polys = []
    for row in cells:
        terms = []
        for v, top in row.items():
            terms.append(scale(var(v, top), coef(rng)))
            for _ in range(rng.randint(0, max_lower)):
                if top:
                    terms.append(scale(var(v, rng.randrange(top)), coef(rng)))
        if rng.random() < 0.3:
            terms.append(const(_coef(rng)))
        polys.append(add(*terms))
    return Case(label, names, polys, system_text(names, polys))


def linear_dense(rng, n, max_order):
    """Every variable in every equation; det P(D) != 0 so the result is
    non-degenerate and the dimension oracle applies."""
    while True:
        cells = [{v: rng.randint(0, max_order) for v in range(n)} for _ in range(n)]
        case = _linear_case(rng, "dense n=%d" % n, n, cells, 1, _coef)
        if det_degree(case.polys, n) != NEG:
            return case


def linear_banded(rng, n, max_order):
    """Equation i holds x_i and x_(i+1 mod n), sometimes x_(i+2 mod n): every
    column is shared by at least two equations.  One term per variable, with
    coefficient +-1: the separants the divisions multiply by stay +-1, so the
    work lies in the tropical layer rather than in coefficient growth."""
    while True:
        cells = []
        for i in range(n):
            vs = {i, (i + 1) % n}
            if rng.random() < 0.3:
                vs.add((i + 2) % n)
            cells.append({v: rng.randint(0, max_order) for v in sorted(vs)})
        case = _linear_case(rng, "banded n=%d" % n, n, cells, 0, _unit)
        if det_degree(case.polys, n) != NEG:
            return case


def linear_cyclic(rng, n, diag, upper):
    """Equation i is +-x_i^(diag) +- x_(i+1 mod n)^(upper), perhaps plus a
    constant: one fixed order matrix, so that every seed gives a system of
    the same tropical cost."""
    while True:
        cells = [{i: diag, (i + 1) % n: upper} for i in range(n)]
        case = _linear_case(rng, "cyclic n=%d" % n, n, cells, 0, _unit)
        if det_degree(case.polys, n) != NEG:
            return case


def _poly_in(xpoly, coeffs):
    """sum_j coeffs[j] * xpoly^j."""
    out, power = {}, const(1)
    for c in coeffs:
        out = add(out, scale(power, Fraction(c)))
        power = mul(power, xpoly)
    return out


def nonlinear(rng, n, ranking, mult_order, mult_degree, sol_degree=2, pairs=None):
    """Square nonlinear system vanishing on a seeded polynomial solution,
    under `ranking`: None for the orderly ranking, else blocks of variable
    indices, lowest first.

    x = a*t + b, the other variables polynomials of degree sol_degree in t.
    With t = (x - b)/a, the atoms x' - a, y - Y(t), z - Z(t) and their first
    derivatives vanish on the solution; each equation is a sum of two atoms
    times random monomials, so the whole system does too.  `pairs` fixes the
    two atoms of each equation (indices in that order), else they are drawn.

    The ranking, the atom pairs and the solution's degree are fixed rather
    than drawn where they change the cost by an order of magnitude, so that
    the share of costly systems does not vary with the seed: under the
    elimination ranking y < x a system costs 20-35 ms when its two equations
    use different atom pairs and 2-8 ms when they use the same pair or the
    solution's degree drops; under x < y about 1.2 ms.
    """
    names = NAMES[:n]
    a, b = rng.choice((1, 2, -1)), rng.randint(-2, 2)
    sol = [[b, a]] + [[rng.randint(-3, 3) for _ in range(sol_degree)] + [_coef(rng)] for _ in range(n - 1)]
    t = scale(add(var(0), const(-b)), Fraction(1, a))
    atoms = [add(var(0, 1), const(-a))]
    for v in range(1, n):
        cs = sol[v]
        atoms.append(add(var(v), scale(_poly_in(t, cs), -1)))
        # derivative: y' - Y'(t) * x' / a
        dcs = [cs[j] * j for j in range(1, len(cs))]
        atoms.append(add(var(v, 1), scale(mul(_poly_in(t, dcs), var(0, 1)), Fraction(-1, a))))
    polys = []
    while len(polys) < n:
        picks = pairs[len(polys)] if pairs else rng.sample(range(len(atoms)), 2)
        p = {}
        for j in picks:
            m = const(_coef(rng))
            for _ in range(rng.randint(0, mult_degree)):
                m = mul(m, var(rng.randrange(n), rng.randint(0, mult_order)))
            p = add(p, mul(m, atoms[j]))
        if p and p not in polys and any(m for m in p):
            polys.append(p)
    if ranking is None:
        label = "nonlinear n=%d orderly" % n
    else:
        label = "nonlinear n=%d elimination %s" % (n, " < ".join(",".join(names[v] for v in b) for b in ranking))
    t0 = rng.randrange(1, PRIME)
    return Case(label, names, polys, system_text(names, polys), ranking, sol, t0)


def distinct(make, count, rng):
    """`count` cases from `make(rng)` with pairwise distinct texts."""
    seen, out = set(), []
    while len(out) < count:
        case = make(rng)
        if case.text not in seen:
            seen.add(case.text)
            out.append(case)
    return out


def seeded(seed, workload):
    return random.Random("%s:%d" % (workload, seed))
