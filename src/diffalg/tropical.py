"""Order matrices, their tropical determinant, and Ritt's three forms.

Entries live in Z>=0 together with -inf (float("-inf")); addition saturates
and max ignores -inf, so plain Python arithmetic does the right thing.  The
tropical determinant tdet(A) is the maximum transversal sum over all
permutations.  It is computed one way only: Kuhn's Hungarian method on
integers (tdet_assignment), with -inf cells forbidden.  Its dual potentials
u, v (Jacobi's canon offsets) make u_i + v_j >= a_ij everywhere, with
equality on the tight graph, whose perfect matchings are exactly the
maximizing transversals.  matching.perfect_matchings lists those in
lexicographic order with polynomial delay: witness lists take all, the
normalizer's questions (does one avoid the column-1 maximum? which is
lexicographically least?) the first.  Optimal duals also answer two
questions without a solve: the weak tdet when they cover every -inf cell
(duals_cover_weak), and a minor's Assignment when the dropped column has a
single finite entry (peel_assignment).  Only tdet_brute, for the tests,
enumerates the n! permutations.

Matrices are tuples of row tuples (OrderMatrix.entries), never an
OrderMatrix; the solvers, detectors, normalize, the Ritt ordering, permute,
minor, transversal_value and cyclic_sum raise ValueError on a ragged or
empty one.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .diffpoly import NEG_INF, jsonable
from .errors import InternalInvariantViolation, ResourceLimit
from .matching import perfect_matchings


class HypothesisFailure(Exception):
    """The matrix does not satisfy the hypotheses of the requested form."""


# -- matrices ---------------------------------------------------------------


def _shape(entries):
    """(rows, columns) of a matrix; ValueError when it is ragged or empty."""
    n = len(entries)
    m = len(entries[0]) if n else 0
    for row in entries:
        if len(row) != m:
            raise ValueError("ragged matrix")
    if not m:
        raise ValueError("empty matrix")
    return n, m


def _as_entries(rows):
    out = tuple(tuple(row) for row in rows)
    _shape(out)
    return out


class OrderMatrix(namedtuple("OrderMatrix", "entries convention col_names")):
    """Orders as a tuple of row tuples, the "weak" or "strong" convention, and column names."""

    __slots__ = ()

    def __new__(cls, entries, convention="strong", col_names=()):
        entries = _as_entries(entries)
        if convention not in ("weak", "strong"):
            raise ValueError("unknown convention %r" % convention)
        if convention == "weak":
            for row in entries:
                if NEG_INF in row:
                    raise ValueError("weak matrices have no -inf entries")
        return super().__new__(cls, entries, convention, col_names)

    def to_json(self):
        return {
            "entries": [[jsonable(e) for e in row] for row in self.entries],
            "convention": self.convention,
            "cols": list(self.col_names),
        }


def weak_entries(entries):
    """The weak convention's entries from the strong ones: an absent
    variable's order -inf is read as 0."""
    return tuple(tuple(0 if e == NEG_INF else e for e in row) for row in entries)


def order_matrix(polys, var_order=None, convention="strong") -> OrderMatrix:
    """Row per polynomial, column per variable, entry = order of the variable."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ring = polys[0].ring
    if var_order is None:
        var_order = list(range(ring.nvars))
    cols = [ring.var_index(v) for v in var_order]
    ents = tuple(tuple(p.order_in(j) for j in cols) for p in polys)
    if convention == "weak":
        ents = weak_entries(ents)
    return OrderMatrix(ents, convention, tuple(ring.names[j] for j in cols))


def render_grid(entries) -> str:
    cells = [[("·" if e == NEG_INF else str(int(e))) for e in row] for row in entries]
    w = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(w) for c in row) for row in cells)


def minor(entries, drop_row, drop_col):
    _shape(entries)
    return tuple(
        tuple(e for j, e in enumerate(row) if j != drop_col)
        for i, row in enumerate(entries)
        if i != drop_row
    )


# -- permutations (tuples p with p[i] = image of i; compose right-to-left) --


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """(p o q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def transposition(n, i, j):
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


# -- tropical determinant ---------------------------------------------------


def transversal_value(entries, rho):
    _shape(entries)
    if sorted(rho) != list(range(len(entries))):
        raise ValueError("not a permutation: %r" % (rho,))
    return sum(entries[i][rho[i]] for i in range(len(entries)))


def cyclic_sum(entries, cycle):
    """a_{i1,i2} + a_{i2,i3} + ... + a_{is,i1} for a genuine cycle (length >= 2)."""
    n, m = _shape(entries)
    if m != n:
        raise ValueError("cyclic sums need a square matrix")
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        raise ValueError("not a cycle: %r" % (cycle,))
    if any(not 0 <= i < n for i in cycle):
        raise ValueError("cycle index out of range")
    return sum(entries[cycle[k]][cycle[(k + 1) % len(cycle)]] for k in range(len(cycle)))


def tdet_brute(entries):
    """(value, all maximizing permutations); factorial, for n <= 8.  The
    independent oracle of the tests; the program itself never calls it, and
    the benchmark's tracer (bench/tracer.py) wraps it by name."""
    n, m = _shape(entries)
    if m != n:
        raise ValueError("tdet needs a square matrix")
    if n > 8:
        raise ValueError("brute force capped at n = 8")
    best, wits = NEG_INF, []
    for rho in itertools.permutations(range(n)):
        v = sum(entries[i][rho[i]] for i in range(n))
        if v > best:
            best, wits = v, [rho]
        elif v == best and v != NEG_INF:
            wits.append(rho)
    if best == NEG_INF:
        wits = []
    return best, tuple(wits)


class Assignment(namedtuple("Assignment", "value u v", defaults=(None, None))):
    """An optimal solution of the assignment problem behind tdet.

    u[i] + v[j] >= a_{i,j} for every finite entry, with equality on every
    maximizing transversal, so value = sum(u) + sum(v).  Without a finite
    transversal, value is -inf and u, v are None."""

    __slots__ = ()


def tdet_assignment(entries):
    """Tropical determinant by Kuhn's Hungarian method, O(n^3) on integers.

    -inf entries are forbidden cells, never padded.  Returns the Assignment:
    the value and the potentials, which are Jacobi's canon offsets (Pryce's
    Sigma-method offsets)."""
    n, m = _shape(entries)
    if m != n:
        raise ValueError("tdet needs a square matrix")
    # Rows enter one at a time; each entry grows a shortest-augmenting-path
    # tree from the virtual column n.  slack(i, j) = u[i] + v[j] - a[i][j]
    # stays >= 0 for the rows entered so far.
    inf = float("inf")
    u = [0] * n
    v = [0] * (n + 1)
    owner = [-1] * (n + 1)  # owner[j]: the row matched to column j
    for i in range(n):
        owner[n] = i
        j0 = n
        minv = [inf] * n
        way = [n] * n
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            row, ui0 = entries[i0], u[i0]
            delta, j1 = inf, -1
            for j in range(n):
                if not used[j]:
                    e = row[j]
                    if e != NEG_INF:
                        cur = ui0 + v[j] - e
                        if cur < minv[j]:
                            minv[j] = cur
                            way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if j1 < 0:  # no alternating path to a free column: Hall fails
                return Assignment(NEG_INF)
            for j in range(n):
                if used[j]:
                    u[owner[j]] -= delta
                    v[j] += delta
                else:
                    minv[j] -= delta
            u[owner[n]] -= delta
            j0 = j1
            if owner[j0] < 0:
                break
        while j0 != n:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    rho = [0] * n
    for j in range(n):
        rho[owner[j]] = j
    value = sum(entries[i][rho[i]] for i in range(n))
    return Assignment(value, tuple(u), tuple(v[:n]))


def duals_cover_weak(entries, sol):
    """Whether the strong matrix's optimal duals also solve its weak matrix:
    sol.value is finite and u_i + v_j >= 0 on every -inf cell, which the weak
    convention reads as 0.  The duals are then feasible for the weak matrix,
    whose entries are at least the strong ones, so weak J = strong J."""
    if sol.value == NEG_INF:
        return False
    u, v = sol.u, sol.v
    return all(u[i] + v[j] >= 0 for i, row in enumerate(entries) for j, e in enumerate(row) if e == NEG_INF)


def peel_assignment(entries, sol, r, c):
    """The Assignment of minor(entries, r, c), read off sol = the matrix's
    Assignment when (r, c) is column c's only finite entry.  Every finite
    transversal then uses (r, c), so it is tight; without u_r and v_c the
    duals stay feasible on the minor and tight on the rest of the optimal
    matching, and the minor's value is sol.value - a[r][c]."""
    if sol.value == NEG_INF:
        raise ValueError("no finite transversal to peel")
    if entries[r][c] == NEG_INF or any(row[c] != NEG_INF for i, row in enumerate(entries) if i != r):
        raise ValueError("(%d, %d) is not the only finite entry of its column" % (r, c))
    return Assignment(sol.value - entries[r][c], sol.u[:r] + sol.u[r + 1 :], sol.v[:c] + sol.v[c + 1 :])


WITNESS_LIMIT = 40320  # 8!: every witness list the factorial route produced


def _tight_graph(entries, sol):
    """Adjacency lists of {(i, j) : u_i + v_j = a_ij}; its perfect matchings
    are exactly the maximizing transversals."""
    u, v = sol.u, sol.v
    return [[j for j, e in enumerate(row) if u[i] + v[j] == e] for i, row in enumerate(entries)]


def tdet(entries, witnesses=False):
    """Tropical determinant; with witnesses=True also every maximizing
    permutation, in lexicographic order, up to WITNESS_LIMIT of them."""
    sol = tdet_assignment(entries)
    if not witnesses:
        return sol.value
    if sol.value == NEG_INF:
        return NEG_INF, ()
    wits = []
    for rho in perfect_matchings(_tight_graph(entries, sol)):
        if len(wits) == WITNESS_LIMIT:
            raise ResourceLimit(
                "more than %d maximizing transversals; tdet = %s" % (WITNESS_LIMIT, sol.value)
            )
        wits.append(rho)
    return sol.value, tuple(wits)


def permute(entries, sigma, tau):
    """b_{i,j} = a_{sigma(i), tau(j)}."""
    n, m = _shape(entries)
    if sorted(sigma) != list(range(n)) or sorted(tau) != list(range(m)):
        raise ValueError("bad permutation")
    return tuple(tuple(entries[sigma[i]][tau[j]] for j in range(m)) for i in range(n))


# -- Ritt's ordering on order matrices --------------------------------------

LESS, GREATER, EQUAL = "less", "greater", "equal"


def ritt_key(entries):
    """Per column the sorted entry vector; columns compared left to right."""
    n, m = _shape(entries)
    return tuple(tuple(sorted(entries[i][j] for i in range(n))) for j in range(m))


def ritt_compare(a, b) -> str:
    if _shape(a) != _shape(b):
        raise ValueError("shape mismatch")
    ka, kb = ritt_key(a), ritt_key(b)
    if ka < kb:
        return LESS
    if ka > kb:
        return GREATER
    return EQUAL


# -- Ritt's three forms ------------------------------------------------------


def detect_first_form(entries, value=None) -> bool:
    """Diagonal is a maximizing transversal, a21 >= a11 != -inf.  `value`,
    when given, is the known tdet of the matrix."""
    n, m = _shape(entries)
    if n < 2 or m != n:
        return False
    if entries[0][0] == NEG_INF or entries[1][0] < entries[0][0]:
        return False
    diag = sum(entries[i][i] for i in range(n))
    return (tdet(entries) if value is None else value) == diag


def _pattern_form(entries, pattern, inner, drop_col, value, minor_value):
    # the test shared by the second and third forms: the corner a_{n,1} is a
    # column-1 maximum, the pattern transversal is maximizing, and the inner
    # transversal is finite and maximizing in the minor without the last row
    # and column drop_col
    n = len(entries)
    if inner == NEG_INF or entries[n - 1][0] != max(row[0] for row in entries):
        return False
    if (tdet(entries) if value is None else value) != pattern:
        return False
    if minor_value is None:
        minor_value = tdet(minor(entries, n - 1, drop_col))
    return minor_value == inner


def detect_second_form(entries, value=None, minor_value=None) -> bool:
    """Max transversal on the broken antidiagonal pattern, with the corner
    a_{n,1} a column maximum and the inner diagonal maximal in the minor.
    `value` and `minor_value`, when given, are the known tdet of the matrix
    and of the minor without its last row and column."""
    n, m = _shape(entries)
    if n < 2 or m != n:
        return False
    pattern = entries[0][n - 1] + sum(entries[i][i] for i in range(1, n - 1)) + entries[n - 1][0]
    inner = sum(entries[i][i] for i in range(n - 1))
    return _pattern_form(entries, pattern, inner, n - 1, value, minor_value)


def detect_third_form(entries) -> bool:
    """Column-cycled image of the second form."""
    n, m = _shape(entries)
    if n < 2 or m != n:
        return False
    pattern = entries[n - 1][0] + sum(entries[i][i + 1] for i in range(n - 1))
    inner = entries[0][0] + sum(entries[i][i + 1] for i in range(1, n - 1))
    return _pattern_form(entries, pattern, inner, 1, None, None)


class FormCertificate(namedtuple("FormCertificate", "row_perm col_perm form index", defaults=(0,))):
    """Row/column permutations carrying a matrix into the named form.  index
    is the search index i chosen by the second-form argument (it shadows
    tuple.index)."""

    __slots__ = ()

    def apply(self, entries):
        return permute(entries, self.row_perm, self.col_perm)

    def to_json(self):
        return {
            "rows": list(self.row_perm),
            "cols": list(self.col_perm),
            "form": self.form,
            "index": self.index,
        }


def normalize(entries, sol=None):
    """Ritt's first form if its hypothesis holds, else the second: returns the
    FormCertificate and the permuted matrix, checked by that form's detector.
    `sol`, when given, is tdet_assignment(entries).  Column 1 is never moved.

    First-form hypothesis: some maximizing transversal meets column 1
    strictly below its (finite) maximum.  The certificate diagonalizes the
    lex-least such transversal, then keeps row 2 if its column-1 entry is at
    least row 1's, else moves there the one of rows 2..n with the largest
    (the first on ties).  Otherwise every maximizing transversal meets column 1 at
    its maximum; with rho the lex-least one and r = rho^-1(0), the
    second-form search takes the first row i != r whose inner transversal
    (rho with row i moved to column 1) is finite and maximal in the minor
    without row r and column rho(i); index is i's place among the rows other
    than r, plus 1.  HypothesisFailure: no finite transversal, or fewer than
    two finite entries in column 1, where neither form applies."""
    n, m = _shape(entries)
    if n < 2 or m != n:
        raise ValueError("need a square matrix, n >= 2")
    if sol is None:
        sol = tdet_assignment(entries)
    value = sol.value
    if value == NEG_INF:
        raise HypothesisFailure("no finite transversal")
    col0 = [row[0] for row in entries]
    if sum(1 for e in col0 if e != NEG_INF) < 2:
        raise HypothesisFailure("column 1 has fewer than two finite entries")
    colmax = max(col0)
    tight = _tight_graph(entries, sol)
    # the perfect matchings of below meet column 1 strictly below its maximum
    below = [[j for j in adj if j or col0[i] < colmax] for i, adj in enumerate(tight)]
    rho = next(perfect_matchings(below), None)
    if rho is not None:
        # rows sigma diagonalize the transversal; column 1 then reads a[sigma(k)][0]
        sigma = inverse(rho)
        col = [col0[s] for s in sigma]
        if col[1] >= col[0]:
            i = 1
        else:
            i = max(range(1, n), key=lambda r: (col[r], -r))
        sw = transposition(n, 1, i)
        cert = FormCertificate(compose(sigma, sw), sw, "first")
        out = cert.apply(entries)
        if not detect_first_form(out, value):
            raise InternalInvariantViolation("first-form construction failed: %r" % (entries,))
        return cert, out
    rho = next(perfect_matchings(tight), None)
    if rho is None:
        raise InternalInvariantViolation("tight graph of %r has no perfect matching" % (entries,))
    r = rho.index(0)
    others = [k for k in range(n) if k != r]
    for idx, i in enumerate(others):
        inner = value - entries[r][0] - entries[i][rho[i]] + entries[i][0]
        if inner == NEG_INF or tdet(minor(entries, r, rho[i])) != inner:
            continue
        rows = list(others)
        rows[0], rows[idx] = i, rows[0]
        cert = FormCertificate(
            tuple(rows) + (r,), (0,) + tuple(rho[k] for k in rows[1:]) + (rho[i],), "second", idx + 1
        )
        out = cert.apply(entries)
        # the rows end in r and the columns in rho(i), so the output's minor
        # permutes the one just solved and inner may stand for its tdet
        if not detect_second_form(out, value, inner):
            raise InternalInvariantViolation(
                "second-form certificate %r fails on %r" % (cert, entries)
            )
        return cert, out
    raise InternalInvariantViolation(
        "second-form search exhausted without a valid index: %r" % (entries,)
    )


def to_first_form(entries) -> FormCertificate:
    """normalize's certificate if it is the first form, else HypothesisFailure."""
    cert, _ = normalize(entries)
    if cert.form != "first":
        raise HypothesisFailure("every maximizing transversal meets column 1 at its maximum")
    return cert


def to_second_form(entries) -> FormCertificate:
    """normalize's certificate if it is the second form, else HypothesisFailure."""
    cert, _ = normalize(entries)
    if cert.form != "second":
        raise HypothesisFailure("some maximizing transversal avoids the column-1 maximum")
    return cert
