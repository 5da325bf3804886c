"""Order matrices, their tropical determinant, and Ritt's three forms.

Entries live in Z>=0 together with -inf (float("-inf")); addition saturates
and max ignores -inf, so plain Python arithmetic does the right thing.  The
tropical determinant tdet(A) is the maximum transversal sum over all
permutations.  It is computed one way only: Kuhn's Hungarian method on
integers (tdet_assignment), with -inf cells forbidden.  Its dual potentials
u, v (Jacobi's canon offsets) make u_i + v_j >= a_ij everywhere, with
equality on the tight graph, whose perfect matchings are exactly the
maximizing transversals.  Witness lists and the normalizers' questions
(does some maximizing transversal avoid the column-1 maximum? which one is
lexicographically least?) are answered by matchings of that graph, never by
enumerating the n! permutations; tdet_brute does that for the tests only.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .diffpoly import NEG_INF, jsonable
from .errors import InternalInvariantViolation, ResourceLimit
from .matching import lex_least_perfect_matching, perfect_matchings


class HypothesisFailure(Exception):
    """The matrix does not satisfy the hypotheses of the requested form."""


# -- matrices ---------------------------------------------------------------


def _as_entries(rows):
    out = []
    width = None
    for row in rows:
        r = []
        for e in row:
            if e == NEG_INF or e is None or e == "-inf":
                r.append(NEG_INF)
            else:
                r.append(int(e))
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        out.append(tuple(r))
    if not out or width == 0:
        raise ValueError("empty matrix")
    return tuple(out)


class OrderMatrix:
    __slots__ = ("entries", "convention", "col_names")

    def __init__(self, entries, convention="strong", col_names=()):
        entries = _as_entries(entries)
        if convention not in ("weak", "strong"):
            raise ValueError("unknown convention %r" % convention)
        if convention == "weak":
            for row in entries:
                if NEG_INF in row:
                    raise ValueError("weak matrices have no -inf entries")
        self.entries = entries
        self.convention = convention
        self.col_names = col_names

    def __eq__(self, other):
        if type(other) is not OrderMatrix:
            return NotImplemented
        return (self.entries, self.convention, self.col_names) == (
            other.entries, other.convention, other.col_names)

    def __hash__(self):
        return hash((self.entries, self.convention, self.col_names))

    def __repr__(self):
        return "OrderMatrix(entries=%r, convention=%r, col_names=%r)" % (
            self.entries, self.convention, self.col_names)

    @property
    def n(self):
        return len(self.entries)

    @property
    def m(self):
        return len(self.entries[0])

    def to_json(self):
        return {
            "entries": [[jsonable(e) for e in row] for row in self.entries],
            "convention": self.convention,
            "cols": list(self.col_names),
        }


def order_matrix(polys, var_order=None, convention="strong") -> OrderMatrix:
    """Row per polynomial, column per variable, entry = order of the variable."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty system")
    ring = polys[0].ring
    if var_order is None:
        var_order = list(range(ring.nvars))
    cols = [ring.index[v] if isinstance(v, str) else v for v in var_order]
    ents = tuple(tuple(p.order_in(j, convention) for j in cols) for p in polys)
    return OrderMatrix(ents, convention, tuple(ring.names[j] for j in cols))


def render_grid(entries) -> str:
    cells = [[("·" if e == NEG_INF else str(int(e))) for e in row] for row in entries]
    w = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(w) for c in row) for row in cells)


def minor(entries, drop_row, drop_col):
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


def cycle_decompose(perm):
    """(cycles, fixed points); cycles in orbit order from their least element."""
    seen = set()
    cycles, fixed = [], []
    for start in range(len(perm)):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        if len(orbit) == 1:
            fixed.append(start)
        else:
            cycles.append(tuple(orbit))
    return cycles, fixed


# -- tropical determinant ---------------------------------------------------


def transversal_value(entries, rho):
    if sorted(rho) != list(range(len(entries))):
        raise ValueError("not a permutation: %r" % (rho,))
    return sum(entries[i][rho[i]] for i in range(len(entries)))


def cyclic_sum(entries, cycle):
    """a_{i1,i2} + a_{i2,i3} + ... + a_{is,i1} for a genuine cycle (length >= 2)."""
    n = len(entries)
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        raise ValueError("not a cycle: %r" % (cycle,))
    if any(not 0 <= i < n for i in cycle):
        raise ValueError("cycle index out of range")
    return sum(entries[cycle[k]][cycle[(k + 1) % len(cycle)]] for k in range(len(cycle)))


def tdet_brute(entries):
    """(value, all maximizing permutations); factorial, for n <= 8.  The
    independent oracle of the tests; the program itself never calls it."""
    n = len(entries)
    if len(entries[0]) != n:
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


def tdet_assignment(entries, potentials=False):
    """Tropical determinant by Kuhn's Hungarian method, O(n^3) on integers.

    -inf entries are forbidden cells, never padded.  Returns the value, or
    with potentials=True the whole Assignment, whose potentials are Jacobi's
    canon offsets (Pryce's Sigma-method offsets)."""
    n = len(entries)
    if len(entries[0]) != n:
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
                return Assignment(NEG_INF) if potentials else NEG_INF
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
    if not potentials:
        return value
    return Assignment(value, tuple(u), tuple(v[:n]))


WITNESS_LIMIT = 40320  # 8!: every witness list the factorial route produced


def _tight_graph(entries, sol):
    """Adjacency lists of {(i, j) : u_i + v_j = a_ij}; its perfect matchings
    are exactly the maximizing transversals."""
    u, v = sol.u, sol.v
    return [[j for j, e in enumerate(row) if u[i] + v[j] == e] for i, row in enumerate(entries)]


def tdet(entries, witnesses=False):
    """Tropical determinant; with witnesses=True also every maximizing
    permutation, in lexicographic order, up to WITNESS_LIMIT of them."""
    if isinstance(entries, OrderMatrix):
        entries = entries.entries
    if not witnesses:
        return tdet_assignment(entries)
    sol = tdet_assignment(entries, potentials=True)
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
    n = len(entries)
    if sorted(sigma) != list(range(n)) or sorted(tau) != list(range(len(entries[0]))):
        raise ValueError("bad permutation")
    return tuple(tuple(entries[sigma[i]][tau[j]] for j in range(len(entries[0]))) for i in range(n))


# -- Ritt's ordering on order matrices --------------------------------------

LESS, GREATER, EQUAL = "less", "greater", "equal"


def ritt_key(entries):
    """Per column the sorted entry vector; columns compared left to right."""
    n = len(entries)
    return tuple(tuple(sorted(entries[i][j] for i in range(n))) for j in range(len(entries[0])))


def ritt_compare(a, b) -> str:
    if isinstance(a, OrderMatrix):
        a = a.entries
    if isinstance(b, OrderMatrix):
        b = b.entries
    if len(a) != len(b) or len(a[0]) != len(b[0]):
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
    if isinstance(entries, OrderMatrix):
        entries = entries.entries
    n = len(entries)
    if n < 2 or len(entries[0]) != n:
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
    if isinstance(entries, OrderMatrix):
        entries = entries.entries
    n = len(entries)
    if n < 2 or len(entries[0]) != n:
        return False
    pattern = entries[0][n - 1] + sum(entries[i][i] for i in range(1, n - 1)) + entries[n - 1][0]
    inner = sum(entries[i][i] for i in range(n - 1))
    return _pattern_form(entries, pattern, inner, n - 1, value, minor_value)


def detect_third_form(entries) -> bool:
    """Column-cycled image of the second form."""
    if isinstance(entries, OrderMatrix):
        entries = entries.entries
    n = len(entries)
    if n < 2 or len(entries[0]) != n:
        return False
    pattern = entries[n - 1][0] + sum(entries[i][i + 1] for i in range(n - 1))
    inner = entries[0][0] + sum(entries[i][i + 1] for i in range(1, n - 1))
    return _pattern_form(entries, pattern, inner, 1, None, None)


def _cols_cycle(n):
    # second -> third: new col 1 is old col n-1, cols 2..n-1 shift right
    rho = [0] * n
    if n >= 2:
        rho[1] = n - 1
    for j in range(2, n):
        rho[j] = j - 1
    return tuple(rho)


def third_from_second(entries):
    if not detect_second_form(entries):
        raise ValueError("input is not in second form")
    out = permute(entries, identity_perm(len(entries)), _cols_cycle(len(entries)))
    if not detect_third_form(out):
        raise InternalInvariantViolation("column cycle of %r is not in third form" % (entries,))
    return out


def second_from_third(entries):
    if not detect_third_form(entries):
        raise ValueError("input is not in third form")
    out = permute(entries, identity_perm(len(entries)), inverse(_cols_cycle(len(entries))))
    if not detect_second_form(out):
        raise InternalInvariantViolation("column cycle of %r is not in second form" % (entries,))
    return out


class FormCertificate:
    """Row/column permutations carrying a matrix into the named form."""

    __slots__ = ("row_perm", "col_perm", "form", "index")

    def __init__(self, row_perm, col_perm, form, index=0):
        self.row_perm = row_perm
        self.col_perm = col_perm
        self.form = form
        self.index = index  # the search index i chosen by the second-form argument

    def __eq__(self, other):
        if type(other) is not FormCertificate:
            return NotImplemented
        return (self.row_perm, self.col_perm, self.form, self.index) == (
            other.row_perm, other.col_perm, other.form, other.index)

    def __hash__(self):
        return hash((self.row_perm, self.col_perm, self.form, self.index))

    def __repr__(self):
        return "FormCertificate(row_perm=%r, col_perm=%r, form=%r, index=%r)" % (
            self.row_perm, self.col_perm, self.form, self.index)

    def apply(self, entries):
        if isinstance(entries, OrderMatrix):
            entries = entries.entries
        return permute(entries, self.row_perm, self.col_perm)

    def to_json(self):
        return {
            "rows": list(self.row_perm),
            "cols": list(self.col_perm),
            "form": self.form,
            "index": self.index,
        }


def _normalizer_input(entries, sol):
    """Shared set-up of the normalizers: the solved matrix, its tight graph,
    and the tight graph without the column-1 edges at the column maximum
    (whose perfect matchings are the maximizing transversals meeting
    column 1 strictly below its maximum)."""
    if isinstance(entries, OrderMatrix):
        entries = entries.entries
    n = len(entries)
    if n < 2 or len(entries[0]) != n:
        raise ValueError("need a square matrix, n >= 2")
    if sol is None:
        sol = tdet_assignment(entries, potentials=True)
    if sol.value == NEG_INF:
        raise HypothesisFailure("no finite transversal")
    col0 = [row[0] for row in entries]
    if sum(1 for e in col0 if e != NEG_INF) < 2:
        raise HypothesisFailure("column 1 has fewer than two finite entries")
    colmax = max(col0)
    tight = _tight_graph(entries, sol)
    below = [[j for j in adj if j or col0[i] < colmax] for i, adj in enumerate(tight)]
    return entries, sol, colmax, tight, below


def to_first_form(entries, sol=None) -> FormCertificate:
    """Hypothesis: some maximizing transversal meets column 1 strictly below
    its (finite) maximum.  Column 1 is never moved.  `sol`, when given, is
    tdet_assignment(entries, potentials=True)."""
    entries, sol, _, _, below = _normalizer_input(entries, sol)
    n = len(entries)
    rho = lex_least_perfect_matching(below)
    if rho is None:
        raise HypothesisFailure(
            "every maximizing transversal meets column 1 at its maximum"
        )
    sigma = inverse(rho)  # diagonalize: b_{i,i} = a_{rho^{-1}(i), i} on the transversal
    b = permute(entries, sigma, identity_perm(n))
    if b[1][0] >= b[0][0]:
        i = 1
    else:
        i = max(range(1, n), key=lambda r: (b[r][0], -r))
    sw = transposition(n, 1, i)
    cert = FormCertificate(compose(sigma, sw), sw, "first")
    if not detect_first_form(cert.apply(entries), sol.value):
        raise InternalInvariantViolation("first-form construction failed: %r" % (entries,))
    return cert


def to_second_form(entries, sol=None) -> FormCertificate:
    """Hypothesis: every maximizing transversal meets column 1 at its finite
    maximum and column 1 has another finite entry.  Column 1 is never moved.
    `sol`, when given, is tdet_assignment(entries, potentials=True)."""
    entries, sol, colmax, tight, below = _normalizer_input(entries, sol)
    n, value = len(entries), sol.value
    if lex_least_perfect_matching(below) is not None:
        raise HypothesisFailure(
            "some maximizing transversal avoids the column-1 maximum"
        )
    rho = lex_least_perfect_matching(tight)
    if rho is None:
        raise InternalInvariantViolation("tight graph of %r has no perfect matching" % (entries,))
    r = inverse(rho)[0]
    remaining = [i for i in range(n) if i != r]
    sigma0 = tuple(remaining + [r])
    tau0 = tuple([0] + [rho[i] for i in remaining])
    a1 = permute(entries, sigma0, tau0)
    if a1[n - 1][0] != colmax or a1[n - 1][0] + sum(a1[i][i + 1] for i in range(n - 1)) != value:
        raise InternalInvariantViolation(
            "transversal %r of %r is not a third-form pattern at the column-1 maximum" % (rho, entries)
        )
    # The swaps keep the corner and the pattern's value, so each candidate
    # is in third form iff its inner transversal is maximal in its minor.
    inv_cycle = inverse(_cols_cycle(n))
    for idx in range(n - 1):
        sw_r = transposition(n, 0, idx)
        sw_c = transposition(n, 1, idx + 1)
        d = permute(a1, sw_r, sw_c)
        inner = d[0][0] + sum(d[i][i + 1] for i in range(1, n - 1))
        if inner == NEG_INF or tdet(minor(d, n - 1, 1)) != inner:
            continue
        cert = FormCertificate(
            compose(sigma0, sw_r), compose(compose(tau0, sw_c), inv_cycle), "second", idx + 1
        )
        out = cert.apply(entries)
        # out's minor is a column permutation of d's, with the same tdet
        if out != permute(d, identity_perm(n), inv_cycle) or not detect_second_form(out, value, inner):
            raise InternalInvariantViolation(
                "second-form certificate %r fails on %r" % (cert, entries)
            )
        return cert
    raise InternalInvariantViolation(
        "second-form search exhausted without a valid index: %r" % (entries,)
    )
