"""Reduction engine: form-preserving division steps, scripted division
traces, and the linear elimination loop.

Form steps (first form: divide equation 2 by equation 1; second form: divide
equation n by equation 1; both in the first variable) use full-mode division
so that a step always makes progress, and assert the two facts the theory
guarantees: the entrywise division bound
    b_{d,j} <= max(a_{d,j}, a_{g,j} + a_{d,1} - a_{g,1})
and non-increase of the strong Jacobi number, plus strict decrease of the
matrix in Ritt's ordering whenever the matrix changed.  Scripted steps use
partial (∂-)division and make no monotonicity claims; they exist to watch J
move.  Each division calls ritt_divide with its mode; ritt_divide itself
takes its linear kernel on linear operands in full mode (linear_reduce's).

Every entry point carries the active system from step to step as one
_Solved record: its strong order matrix's `entries` and column `names`, its
strong and weak Jacobi numbers `j` and `weak`, and `sol`, an optimal
Assignment whose duals u, v and transversal rho index the matrix's rows and
columns.  Each J is held in one place, and an OrderMatrix is built only for
a step's report.  A matrix not met before is solved once, cold
(tdet_assignment), and its weak matrix only when the strong duals leave one
of its -inf cells uncovered (weak_tdet).  A peel needs no solve: its minor
keeps the carried duals without the peeled row and column (_peel), the only
reader of duals.  A normalized record keeps both J and carries no
Assignment (sol is None), since a form step divides it at once.

Small systems keep producing the same order matrices, so the answers are
kept across calls in one process-wide memo, _ANSWERS, keyed by a strong
order matrix's entries: its Assignment, its weak Jacobi number and, once
linear_reduce has normalized it, normalize's certificate and permuted matrix
(_Answers).  A matrix met again costs a lookup in place of a solve,
weak_tdet and a normalization.  In a seed-1 linear-deep round of the
benchmark, 56% of the matrices asked for (3,344 of 6,000) and 45% of the
normalizations (1,749 of 3,850) meet a matrix seen before; of the 2,656
misses, 221 are peeled minors read off the carried duals, and the rest run
2,464 Hungarian solves, 29 of them weak.  The memo is cleared whole past
ANSWERS_BOUND entries and takes no lock: two threads may compute one answer
at once, and each stores an equally valid one.  A CLI call reduces one
system, so the memo gives it nothing.

The memo is exact because everything the engine reads of these answers is a
function of the matrix alone.  The strong and weak Jacobi numbers are.  So
are normalize's certificate and matrix: under any optimal duals the tight
graph's perfect matchings are exactly the maximizing transversals
(complementary slackness; Kuhn 1955), so the lexicographically least
transversals and each second-form minor's tdet do not depend on which
optimal Assignment normalize is given.  Every per-step check still runs on
every step (the division bound, J non-increase, the drop in Ritt's ordering
and each division's certificate check); a stored normalization passed
normalize's detector check when it was made."""

from __future__ import annotations

from collections import namedtuple

from .diffpoly import NEG_INF, POS_INF, _is_linear, elimination, jsonable, orderly, render, separant
from .errors import InternalInvariantViolation, ResourceLimit
from .reduction import (
    AutoreducedSet,
    InconsistentSystem,
    autoreduce_loop,
    dimensions,
    membership,
    ritt_divide,
)
from .tropical import (
    LESS,
    Assignment,
    OrderMatrix,
    detect_first_form,
    detect_second_form,
    minor,
    normalize,
    order_matrix,
    render_grid,
    ritt_compare,
    tdet_assignment,
    weak_entries,
    weak_tdet,
)


class DegenerateSituation(Exception):
    """The pivot separant vanishes on the component: a pencil is called for."""

    def __init__(self, system, pivot_index, var):
        self.system = tuple(system)
        self.pivot_index = pivot_index
        self.var = var
        super().__init__("degenerate pivot %d in variable %r" % (pivot_index, var))


class ReductionStep(namedtuple("ReductionStep", "kind dividend divisor var j_before j_after j_before_strong "
                               "j_after_strong certificate matrix_after_strong", defaults=(None, None))):
    """One step of a trace.  Its J values and matrix_after_strong describe
    the system it acted on; in linear_reduce a form step acts on the active
    system left after the peels (see linear_reduce for the totals).

    kind is "first-form", "second-form", "scripted" or "peel"; j_before and
    j_after are in the weak convention; certificate is a DivisionCertificate."""

    __slots__ = ()

    @property
    def matrix_after(self):
        """The weak OrderMatrix after the step, derived from the strong one."""
        m = self.matrix_after_strong
        return None if m is None else OrderMatrix(weak_entries(m.entries), "weak", m.col_names)

    def to_json(self):
        out = {
            "kind": self.kind,
            "dividend": self.dividend,
            "divisor": self.divisor,
            "var": self.var,
            "J_before": jsonable(self.j_before),
            "J_after": jsonable(self.j_after),
            "J_before_strong": jsonable(self.j_before_strong),
            "J_after_strong": jsonable(self.j_after_strong),
        }
        weak = self.matrix_after
        if weak is not None:
            out["matrix_after"] = weak.to_json()
            out["matrix_after_strong"] = self.matrix_after_strong.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


class Trace(namedtuple("Trace", "steps j_sequence j_sequence_strong")):
    """The steps of a run and its Jacobi numbers, starting with the initial
    J; j_sequence is in the weak convention."""

    __slots__ = ()

    def to_json(self):
        return {
            "steps": [s.to_json() for s in self.steps],
            "J_sequence": [jsonable(v) for v in self.j_sequence],
            "J_sequence_strong": [jsonable(v) for v in self.j_sequence_strong],
        }


def _assert_division_bound(a, b, drow, grow, vcol):
    d, g = a[drow], a[grow]
    shift = d[vcol] - g[vcol]
    for j, z in enumerate(b[drow]):
        if z > d[j] and z > g[j] + shift:  # z > max(d[j], g[j] + shift)
            raise InternalInvariantViolation(
                "division bound violated at column %d: %s > %s\nbefore:\n%s\nafter:\n%s"
                % (j, z, max(d[j], g[j] + shift), render_grid(a), render_grid(b))
            )


def _check_pivot_separant(system, pivot_index, var, charset):
    s = separant(system[pivot_index], var)
    if s.is_constant():
        return
    if charset is not None and not membership(s, charset):
        return
    raise DegenerateSituation(system, pivot_index, var)


_Solved = namedtuple("_Solved", "entries names j weak sol")  # see the module docstring

# A seed-1 linear-deep round of the benchmark (800 systems) meets 2,656
# distinct matrices and normalizes 2,101; past the bound the memo is cleared whole.
ANSWERS_BOUND = 1 << 12
_ANSWERS = {}  # strong order matrix entries -> its _Answers, for every caller


class _Answers:
    """What the engine reads of one strong order matrix (module docstring): an
    optimal Assignment `sol`, the weak Jacobi number `weak`, and `normal`,
    normalize's (FormCertificate, permuted matrix) once linear_reduce has."""

    __slots__ = ("sol", "weak", "normal")

    def __init__(self, sol, weak):
        self.sol, self.weak, self.normal = sol, weak, None


def _remember(entries, sol, weak):
    if len(_ANSWERS) >= ANSWERS_BOUND:
        _ANSWERS.clear()
    ans = _ANSWERS[entries] = _Answers(sol, weak)
    return ans


def _solve(entries, names):
    """The _Solved record of a strong order matrix, its answers read from
    _ANSWERS when the matrix was met before, else solved cold."""
    ans = _ANSWERS.get(entries)
    if ans is None:
        sol = tdet_assignment(entries)
        ans = _remember(entries, sol, weak_tdet(entries, sol))
    return _Solved(entries, names, ans.sol.value, ans.weak, ans.sol)


def _peel(st, r, c):
    """The _Solved record of st's matrix without row r and column c, where
    column c is finite only in row r: every finite transversal uses (r, c),
    so st's duals without u_r and v_c stay feasible, and tight on its rho
    without row r, and are optimal for the minor, of value J - a_rc.  Read
    from _ANSWERS when the minor was met before; else only its weak matrix
    may be solved (weak_tdet)."""
    a, sol = st.entries, st.sol
    if sol.rho[r] != c:
        raise InternalInvariantViolation(
            "transversal %r misses the peeled cell (%d, %d) of\n%s" % (sol.rho, r, c, render_grid(a))
        )
    b = minor(a, r, c)
    ans = _ANSWERS.get(b)
    if ans is None:
        u, v = sol.u[:r] + sol.u[r + 1 :], sol.v[:c] + sol.v[c + 1 :]
        rho = tuple([j - (j > c) for j in sol.rho[:r] + sol.rho[r + 1 :]])
        sub = Assignment(st.j - a[r][c], u, v, rho)
        ans = _remember(b, sub, weak_tdet(b, sub))
    return _Solved(b, st.names[:c] + st.names[c + 1 :], ans.sol.value, ans.weak, ans.sol)


def _normal_form(st):
    """(FormCertificate, permuted matrix) of normalize on st's matrix, read
    from _ANSWERS when the matrix was normalized before."""
    ans = _ANSWERS.get(st.entries)
    if ans is None:
        ans = _remember(st.entries, st.sol, st.weak)
    if ans.normal is None:
        ans.normal = normalize(st.entries, st.sol)
    return ans.normal


def _divide_step(system, di, gi, var, kind, st, mode):
    """Divide equation di by equation gi in the variable named var, in
    ritt_divide's `mode`: partial for a scripted step, full for a form step.
    st is the system's _Solved record; only row di changes, so only its
    orders are read again.
    Returns the new system, the step, and the record after the step."""
    cert = ritt_divide(system[di], [system[gi]], mode, var=var)
    r = cert.remainder
    out = list(system)
    out[di] = r
    a, names = st.entries, st.names
    index = r.ring.index
    b = a[:di] + (tuple([r.order_in(index[name]) for name in names]),) + a[di + 1 :]
    _assert_division_bound(a, b, di, gi, names.index(var))
    after = _solve(b, names)
    # b is a's rows with row di replaced by one of as many entries: no check to repeat
    matrix = OrderMatrix._make((b, "strong", names))
    step = ReductionStep(kind, di, gi, var, st.weak, after.weak, st.j, after.j, cert, matrix)
    return out, step, after


def _form_step(system, kind, st):
    """The full division of a form step on a system whose order matrix is
    known to be in `kind` form: equation 2 (first form) or n (second form) by
    equation 1 in the first column's variable.  The Jacobi number must not
    rise, and a changed matrix must drop in Ritt's ordering."""
    dividend = 1 if kind == "first-form" else len(system) - 1
    out, step, after = _divide_step(system, dividend, 0, st.names[0], kind, st, "full")
    a, b = st.entries, after.entries
    if after.j > st.j:
        raise InternalInvariantViolation("J increased: %s -> %s\n%s" % (st.j, after.j, render_grid(b)))
    if b != a and ritt_compare(b, a) != LESS:
        raise InternalInvariantViolation(
            "matrix did not drop in Ritt's ordering:\n%s\n->\n%s" % (render_grid(a), render_grid(b))
        )
    return out, step, after


def _detected_form_step(system, var_order, kind, charset):
    system = list(system)
    m = order_matrix(system, var_order)
    st = _solve(m.entries, m.col_names)
    detect = detect_first_form if kind == "first-form" else detect_second_form
    if not detect(st.entries, st.j):
        raise ValueError("system is not in %s" % kind.replace("-", " "))
    # only here: on linear_reduce's linear systems every pivot separant is constant
    _check_pivot_separant(system, 0, system[0].ring.var_index(st.names[0]), charset)
    return _form_step(system, kind, st)[:2]


def step_first_form(system, var_order=None, charset=None):
    """Divide equation 2 by equation 1 in the first variable."""
    return _detected_form_step(system, var_order, "first-form", charset)


def step_second_form(system, var_order=None, charset=None):
    """Divide the last equation by equation 1 in the first variable."""
    return _detected_form_step(system, var_order, "second-form", charset)


def scripted_divide(system, script, var_order=None):
    """Run a list of (dividend, divisor, var) partial divisions, recording
    the order matrices and Jacobi numbers after each; no monotonicity is
    claimed, only the division bound and the certificate identity."""
    system = list(system)
    ring = system[0].ring
    m = order_matrix(system, var_order)
    st = _solve(m.entries, m.col_names)
    jw0, js0 = st.weak, st.j
    steps = []
    for pos, (di, gi, var) in enumerate(script):
        v = ring.var_index(var)
        if not (0 <= di < len(system) and 0 <= gi < len(system)) or di == gi:
            raise ValueError("script entry %d: bad equation indices" % pos)
        og = system[gi].order_in(v)
        if og == NEG_INF:
            raise ValueError("script entry %d: divisor does not involve %s" % (pos, ring.names[v]))
        if system[di].order_in(v) < og:
            raise ValueError("script entry %d: dividend has lower order in %s" % (pos, ring.names[v]))
        system, step, st = _divide_step(system, di, gi, ring.names[v], "scripted", st, "partial")
        steps.append(step)
    jw_seq = (jw0, *(s.j_after for s in steps))
    js_seq = (js0, *(s.j_after_strong for s in steps))
    return system, Trace(tuple(steps), jw_seq, js_seq)


def parse_script(text):
    """'0/2@x;1/2@x' -> [(0, 2, 'x'), (1, 2, 'x')]."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pair, var = chunk.split("@")
            di, gi = pair.split("/")
            out.append((int(di), int(gi), var.strip()))
        except ValueError:
            raise ValueError("bad script entry %r (want d/g@var)" % chunk)
    return out


class LinearReduceResult(namedtuple("LinearReduceResult", "trace charset diff_dim abs_dim_bound j_initial "
                                     "degenerate peel_orders")):
    """charset is an AutoreducedSet, None when nothing remains;
    abs_dim_bound is an int or +inf; j_initial is in the strong convention."""

    __slots__ = ()


STEP_BUDGET_FACTOR = 10


def linear_reduce(system) -> LinearReduceResult:
    """Eliminate a square linear system by form-preserving steps.

    Loop: peel variables that occur in a single equation; otherwise move a
    shared column to the front, normalize to first (preferably) or second
    form, and perform one division step.  Each step strictly lowers the
    active matrix in Ritt's ordering, so the run ends within the step budget
    STEP_BUDGET_FACTOR * n * (1 + max initial order).  The peeled equations
    back-substitute into an autoreduced set whose leaders are the peeled
    derivatives; the absolute dimension bound is the sum of the peeled orders
    and never exceeds the initial strong Jacobi number.  Each element is a
    full remainder against the earlier ones, so AutoreducedSet._increasing
    builds the set.  Each row is tested for a nonzero constant once, in the
    pass after it enters: the input rows, then each row a form step divided
    (peels only delete rows, normalizations only permute them).
    Rank-deficient or underdetermined situations fall back to the general
    autoreduction loop and report an infinite bound.

    The trace's J-sequences are totals: after step k they hold the orders
    peeled so far plus the active system's Jacobi number.  A form step's own
    J_before/J_after and matrix_after* describe only the active system, so
    j_sequence_strong[k + 1] is the peeled orders plus steps[k].j_after_strong.
    A peel step's J values are the totals before and after it: the strong
    total never moves on a peel, but the weak one can drop."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    ring = system[0].ring
    n = ring.nvars
    if len(system) != n:
        raise ValueError("need a square system (%d equations, %d variables)" % (len(system), n))
    for i, p in enumerate(system):
        if not _is_linear(p):
            raise ValueError("equation %d is not linear" % i)

    # The active system's _Solved record is carried from one iteration to
    # the next (see the module docstring); its Assignment serves the next
    # normalization or peel.
    m = order_matrix(system, None)
    st = _solve(m.entries, m.col_names)
    j_init = st.j
    max_ord = max((e for row in st.entries for e in row if e != NEG_INF), default=0)
    budget = STEP_BUDGET_FACTOR * n * (1 + max_ord)
    eqs = list(system)
    solved, peeled = [], 0  # (equation, var, order) in peel order, and the sum of the orders
    steps = []
    # reported J: sum of peeled orders plus J of the active submatrix
    jw_seq, js_seq = [st.weak], [j_init]
    degenerate = False
    used = 0
    fresh = eqs  # the rows not yet tested for a nonzero constant

    def report():
        js_seq.append(peeled + (st.j if eqs else 0))
        jw_seq.append(peeled + (st.weak if eqs else 0))

    while eqs:
        for p in fresh:
            if p and p.is_constant():
                raise InconsistentSystem(p)
        fresh = ()
        # a zero equation leaves a row of -inf, so it is caught here too
        if st.j == NEG_INF:
            degenerate = True
            break
        a, names = st.entries, st.names
        singleton, live = None, len(a) - 1
        for c, col in enumerate(zip(*a)):
            if col.count(NEG_INF) == live:
                singleton = ([e != NEG_INF for e in col].index(True), c)
                break
        if singleton is not None:
            r, c = singleton
            o = int(a[r][c])
            solved.append((eqs[r], ring.var_index(names[c]), o))
            peeled += o
            del eqs[r]
            if eqs:
                st = _peel(st, r, c)
            report()
            steps.append(ReductionStep("peel", r, -1, names[c], jw_seq[-2], jw_seq[-1], js_seq[-2], js_seq[-1]))
            continue
        # every live column is shared: normalize with the first column in
        # front, to the first form when its hypothesis holds, else the second;
        # the permuted record keeps both J and, divided at once, no Assignment
        fc, b = _normal_form(st)
        st = _Solved(b, tuple(names[j] for j in fc.col_perm), st.j, st.weak, None)
        eqs, step, st = _form_step([eqs[i] for i in fc.row_perm], fc.form + "-form", st)
        fresh = (step.certificate.remainder,)
        steps.append(step)
        report()
        used += 1
        if used > budget:
            raise ResourceLimit("linear reduction exceeded its step budget (%d)" % budget)

    if degenerate:
        gens = [p for p, _, _ in solved] + [p for p in eqs if p]
        if gens:
            charset = autoreduce_loop(gens, orderly()).charset
            diff_dim, bound = dimensions(charset, n)
        else:
            charset, diff_dim, bound = None, n, POS_INF
    else:
        blocks = [[var] for _, var, _ in reversed(solved)]
        rk = elimination(blocks)
        els = []
        for p, var, o in reversed(solved):
            if els:
                p = ritt_divide(p, els, "full", rk).remainder
            if not p or p.is_constant():
                raise InternalInvariantViolation(
                    "back-substitution left %s in place of the %s-equation"
                    % ("zero" if not p else "a constant", ring.names[var])
                )
            els.append(p)
        charset = AutoreducedSet._increasing(els, rk, "back-substituted set")
        diff_dim, bound = dimensions(charset, n)
        if diff_dim != 0 or bound != peeled or (j_init != NEG_INF and bound > j_init):
            raise InternalInvariantViolation(
                "non-degenerate reduction gave diffDim %s and bound %s (peeled orders %s, initial J %s)\n%s"
                % (diff_dim, bound, peeled, j_init, "\n".join(render(p) for p in system))
            )

    trace = Trace(tuple(steps), tuple(jw_seq), tuple(js_seq))
    return LinearReduceResult(trace, charset, diff_dim, bound, j_init, degenerate, tuple(o for _, _, o in solved))
