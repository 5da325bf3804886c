"""Order matrices, their tropical determinant, and Ritt's three forms.

Entries live in Z>=0 together with -inf (float("-inf")); addition saturates
and max ignores -inf, so plain Python arithmetic does the right thing.  The
tropical determinant tdet(A) is the maximum transversal sum over all
permutations.  It is computed one way only: Kuhn's Hungarian method on
integers (tdet_assignment), with -inf cells forbidden.  It starts from the
row maxima as duals and each row matched to a free column where it reaches
its maximum (the row-reduction start of Jonker and Volgenant, 1987); only
the rows left free enter by one shortest augmenting path each, O(n^3) in
all (a quarter of the rows in a seed-1 linear-wide round of the benchmark,
2,015 of 8,231).  Its dual potentials u, v (Jacobi's canon offsets) make
u_i + v_j >= a_ij everywhere, with equality on the tight graph, whose
perfect matchings are exactly the maximizing transversals.  matching.perfect_matchings lists those
in lexicographic order with polynomial delay: witness lists take all, the
normalizer's questions (does one avoid the column-1 maximum? which is
lexicographically least?) the first.  Optimal duals also answer two
questions without a solve: the weak tdet when they cover every -inf cell
(weak_tdet) and, by one shortest-path pass over the reduced costs
u_i + v_j - a_ij, the tdet of every minor the second-form search asks about;
the engine reads a peeled minor's Assignment off them too.  Only
tdet_brute, for the tests, enumerates the n! permutations.

Matrices are tuples of row tuples (OrderMatrix.entries), never an
OrderMatrix; the solvers, detectors, normalize, the Ritt ordering, permute
and minor raise ValueError on a ragged or empty one.
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
    """Row per polynomial, column per variable, entry = order of the variable.
    The polynomials share one ring: ValueError("mixed rings: ...") otherwise."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ring = polys[0].ring
    for p in polys:
        polys[0]._coerce(p)  # equal rings pass, mixed rings raise
    if var_order is None:
        var_order = list(range(ring.nvars))
    cols = [ring.var_index(v) for v in var_order]
    if len(set(cols)) != len(cols):  # as indices: "x" and 0 name one variable
        dup = next(j for j in cols if cols.count(j) > 1)
        raise ValueError("var_order repeats variable %r" % ring.names[dup])
    ents = tuple(tuple(p.order_in(j) for j in cols) for p in polys)
    if convention == "weak":
        ents = weak_entries(ents)
    return OrderMatrix(ents, convention, tuple(ring.names[j] for j in cols))


def render_grid(entries) -> str:
    cells = [[("·" if e == NEG_INF else str(int(e))) for e in row] for row in entries]
    w = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(w) for c in row) for row in cells)


def minor(entries, drop_row, drop_col):
    n, m = _shape(entries)
    if not (0 <= drop_row < n and 0 <= drop_col < m):
        raise ValueError("row or column to drop out of range")
    return tuple([row[:drop_col] + row[drop_col + 1 :] for i, row in enumerate(entries) if i != drop_row])


# -- permutations (tuples p with p[i] = image of i; compose right-to-left) --


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


class Assignment(namedtuple("Assignment", "value u v rho", defaults=(None, None, None))):
    """An optimal solution of the assignment problem behind tdet: the dual
    potentials u, v and the primal transversal rho (rho[i] = row i's column).

    u[i] + v[j] >= a_{i,j} for every finite entry, with equality on every
    maximizing transversal, rho among them, so value = sum(u) + sum(v).
    Without a finite transversal, value is -inf and u, v, rho are None."""

    __slots__ = ()


def tdet_assignment(entries):
    """Tropical determinant by Kuhn's Hungarian method on integers.

    -inf entries are forbidden cells, never padded.  Returns the Assignment:
    the value, the potentials, which are Jacobi's canon offsets (Pryce's
    Sigma-method offsets), and the transversal matched.  The duals start at
    u = the row maxima, v = 0, and each row takes the first free column
    where it reaches its maximum; a row without a finite entry ends the
    solve at once.  The rows left free enter the matching one at a time,
    each by one shortest augmenting path, O(n^2): O(n^3) in all."""
    n, m = _shape(entries)
    if m != n:
        raise ValueError("tdet needs a square matrix")
    # feasible duals, tight at every row's maxima
    u, v = [max(row) for row in entries], [0] * n
    if NEG_INF in u:  # a row without a finite entry
        return Assignment(NEG_INF)
    owner = [-1] * (n + 1)  # owner[j]: the row matched to column j
    free = []
    for i, row in enumerate(entries):
        top = u[i]
        for j, e in enumerate(row):
            if e == top and owner[j] < 0:
                owner[j] = i
                break
        else:
            free.append(i)
    # Each free row grows a shortest-augmenting-path tree from the virtual
    # column n.  slack(i, j) = u[i] + v[j] - a[i][j] stays >= 0 throughout.
    inf = float("inf")
    for i in free:
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
    return Assignment(value, tuple(u), tuple(v), tuple(rho))


def weak_tdet(entries, sol):
    """tdet(weak_entries(entries)) from sol, the strong matrix's Assignment.
    The weak entries are the strong ones with -inf read as 0, so when no -inf
    cell has u_i + v_j < 0 the duals stay feasible on the weak matrix and
    tight on sol.rho: weak J = strong J, and no weak matrix is built.  Else
    (and when sol.value is -inf) the weak matrix is solved cold."""
    if sol.value == NEG_INF:
        return tdet_assignment(weak_entries(entries)).value
    u, v = sol.u, sol.v
    if len(entries) != len(u):
        raise ValueError("sol is the Assignment of another shape")
    for i, row in enumerate(entries):
        if len(row) != len(v):
            raise ValueError("sol is the Assignment of another shape")
        t = -u[i]
        for vj, e in zip(v, row):
            if vj < t and e == NEG_INF:
                return tdet_assignment(weak_entries(entries)).value
    return sol.value


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
    return tuple([tuple([entries[i][j] for j in tau]) for i in sigma])


# -- Ritt's ordering on order matrices --------------------------------------

LESS, GREATER, EQUAL = "less", "greater", "equal"


def ritt_compare(a, b) -> str:
    """Ritt's ordering: compares the columns of a and b left to right, each
    as its sorted entry vector, stopping at the first pair that differs; a
    column whose entries are equal as they stand is passed over unsorted."""
    shape = _shape(a)
    if _shape(b) != shape:
        raise ValueError("shape mismatch")
    for ca, cb in zip(zip(*a), zip(*b)):
        if ca != cb:
            ca, cb = sorted(ca), sorted(cb)
            if ca != cb:
                return LESS if ca < cb else GREATER
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


def _alternating_distances(entries, sol, rho, r):
    """dist[k] for every row k != r: the least sum of reduced costs
    s(k', j) = u_k' + v_j - a_k'j over an alternating path from row k to
    column 0 = rho(r), where a finite cell leads from a row to a column and
    rho leads from a column back to its row (+inf without such a path).  One
    dense Dijkstra from column 0 over the reversed edges, O(n^2): s >= 0,
    and s = 0 on rho.

    rho is a maximizing transversal and sol optimal duals, so every
    transversal of minor(entries, r, rho(i)) sums to value - u_r - v_rho(i)
    minus its reduced costs; a least one is rho without (r, 0) and
    (i, rho(i)), switched along a shortest path from row i to column 0,
    which never meets column rho(i) since that would lead back to row i."""
    n = len(entries)
    u, v = sol.u, sol.v
    inf = float("inf")
    dist = [inf] * n
    done = [False] * n
    done[r] = True
    j, d = 0, 0  # the column last settled, and its distance
    while True:
        best, k1 = inf, -1
        for k in range(n):
            if not done[k]:
                e = entries[k][j]
                if e != NEG_INF:
                    c = d + u[k] + v[j] - e
                    if c < dist[k]:
                        dist[k] = c
                if dist[k] < best:
                    best, k1 = dist[k], k
        if k1 < 0:
            return dist
        done[k1] = True
        j, d = rho[k1], best


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
    than r, plus 1.  Every candidate's minor is read off one shortest-path
    pass over the reduced costs (_alternating_distances), so given `sol`
    normalize runs no solver, and O(n^2) work besides the matching search.
    HypothesisFailure: no finite transversal, or fewer than two finite
    entries in column 1, where neither form applies."""
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
    dist = _alternating_distances(entries, sol, rho, r)
    u, v = sol.u, sol.v
    for idx, i in enumerate(others):
        # tdet(minor(entries, r, rho[i])) = value - u_r - v_rho(i) - dist[i],
        # which equals inner exactly when dist[i] is the reduced cost of (i, 0)
        if entries[i][0] == NEG_INF or dist[i] != u[i] + v[0] - entries[i][0]:
            continue
        inner = value - entries[r][0] - entries[i][rho[i]] + entries[i][0]
        rows = list(others)
        rows[0], rows[idx] = i, rows[0]
        cert = FormCertificate(
            tuple(rows) + (r,), (0,) + tuple(rho[k] for k in rows[1:]) + (rho[i],), "second", idx + 1
        )
        out = cert.apply(entries)
        # the rows end in r and the columns in rho(i), so the output's minor
        # permutes minor(entries, r, rho[i]), whose tdet is inner
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
