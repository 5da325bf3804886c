"""Seeded random inputs shared by the tests and the scripts: order matrices
and square linear systems.  Each draws from the `random.Random` it is given,
so a seed fixes its output."""

from __future__ import annotations

from .diffpoly import NEG_INF


def rand_matrix(rng, n, lo=0, hi=9, p_inf=0.2, finite_col0=False):
    """n x n order matrix: each entry is -inf with probability p_inf (never
    in column 1 when finite_col0), else a uniform integer in [lo, hi]."""
    return tuple(
        tuple(
            (NEG_INF if (rng.random() < p_inf and not (finite_col0 and j == 0)) else rng.randint(lo, hi))
            for j in range(n)
        )
        for i in range(n)
    )


def rand_linear_system(rng, ring, max_order=5, extra_terms=3):
    """Square linear system with a guaranteed diagonal entry per equation."""
    n = ring.nvars
    out = []
    for i in range(n):
        p = ring.var(i, rng.randint(0, max_order)) * rng.choice([-2, -1, 1, 2])
        for _ in range(rng.randint(0, extra_terms)):
            v = rng.randrange(n)
            p = p + ring.var(v, rng.randint(0, max_order)) * rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.3:
            p = p + ring.const(rng.randint(-3, 3))
        out.append(p)
    return out
