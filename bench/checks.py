"""Independent checks of the program's results.

Every check recomputes what it needs with `algebra` from the benchmark's
own copy of the inputs; none compares against a stored output.  A check
returns a list of problems, empty when the result is right.
"""

from __future__ import annotations

from algebra import (
    NEG,
    Point,
    autoreduced_problems,
    certificate_holds,
    det_degree,
    leader,
    max_transversal,
    order_in,
    order_matrix,
)

INF = float("inf")


def linear_result(case, res, point):
    """res: dict with degenerate, diff_dim, abs_dim_bound, j_initial, j_seq
    (strong), steps [(kind, var index, s, {k: q}, remainder)]."""
    out = []
    n = len(case.names)
    j_own = max_transversal(order_matrix(case.polys, n, "strong"))
    if res["j_initial"] != j_own:
        out.append("J_initial %s != own max transversal %s" % (res["j_initial"], j_own))
    seq = res["j_seq"]
    if any(b > a for a, b in zip(seq, seq[1:])):
        out.append("strong J-sequence increases: %s" % (seq,))
    if seq and seq[0] != j_own:
        out.append("J-sequence starts at %s, own J is %s" % (seq[0], j_own))
    if not res["degenerate"]:
        deg = det_degree(case.polys, n)
        if res["abs_dim_bound"] != deg:
            out.append("abs_dim_bound %s != deg det P(D) = %s" % (res["abs_dim_bound"], deg))
        if res["abs_dim_bound"] > j_own:
            out.append("abs_dim_bound %s > J_initial %s" % (res["abs_dim_bound"], j_own))
        if res["diff_dim"] != 0:
            out.append("diff_dim %s != 0" % res["diff_dim"])
    if res.get("steps") is not None:
        out += _replay_steps(case.polys, res["steps"], point)
    return out


def _replay_steps(polys, steps, point):
    """Track the active equations through peels and divisions: every division
    certificate must hold for a (dividend, divisor) pair among them.  When
    several pairs fit, each is followed until one explains the whole trace."""

    def replay(current, pos):
        if pos == len(steps):
            return None
        kind, v, s, quots, r = steps[pos]
        if kind == "peel":
            holders = [i for i, p in enumerate(current) if order_in(p, v) != NEG]
            if len(holders) != 1:
                return "step %d: peeled variable held by %d equations" % (pos, len(holders))
            return replay(current[: holders[0]] + current[holders[0] + 1 :], pos + 1)
        first_error = "step %d: certificate s*f = Q(g) + r fails for every pair" % pos
        for gi, g in enumerate(current):
            for fi, f in enumerate(current):
                if fi != gi and certificate_holds(point, f, [g], s, [quots], r):
                    nxt = [p for p in current[:fi] + [r] + current[fi + 1 :] if p]
                    err = replay(nxt, pos + 1)
                    if err is None:
                        return None
                    first_error = err
        return first_error

    err = replay(list(polys), 0)
    return [] if err is None else [err]


def charset_result(case, elements, diff_dim, bound):
    out = autoreduced_problems(elements, case.ranking)
    if case.solution is not None:
        pt = Point(case.solution, case.t0)
        for i, p in enumerate(elements):
            if pt.eval(p):
                out.append("charset element %d does not vanish on the known solution" % i)
    n = len(case.names)
    if diff_dim != n - len(elements):
        out.append("diff_dim %s != %d - %d" % (diff_dim, n, len(elements)))
    if not out:
        want = sum(leader(p, case.ranking)[1] for p in elements) if len(elements) == n else INF
        if bound != want:
            out.append("abs_dim_bound %s != sum of leader orders %s" % (bound, want))
    return out


def forms(a):
    """Ritt's three form hypotheses, from their definitions."""
    n = len(a)
    if n < 2:
        return {"first": False, "second": False, "third": False}
    t = max_transversal(a)
    diag = sum(a[i][i] for i in range(n))
    first = t == diag and a[0][0] != NEG and a[1][0] >= a[0][0]
    col0max = max(a[i][0] for i in range(n))

    def minor(r, c):
        return [[a[i][j] for j in range(n) if j != c] for i in range(n) if i != r]

    pattern2 = a[0][n - 1] + sum(a[i][i] for i in range(1, n - 1)) + a[n - 1][0]
    inner2 = sum(a[i][i] for i in range(n - 1))
    second = (
        t == pattern2
        and inner2 != NEG
        and max_transversal(minor(n - 1, n - 1)) == inner2
        and a[n - 1][0] == col0max
    )
    pattern3 = a[n - 1][0] + sum(a[i][i + 1] for i in range(n - 1))
    inner3 = a[0][0] + sum(a[i][i + 1] for i in range(1, n - 1))
    third = (
        t == pattern3
        and inner3 != NEG
        and max_transversal(minor(n - 1, 1)) == inner3
        and a[n - 1][0] == col0max
    )
    return {"first": first, "second": second, "third": third}
