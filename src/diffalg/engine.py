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
move."""

from __future__ import annotations

from collections import namedtuple

from .diffpoly import NEG_INF, POS_INF, DiffPoly, _mono_degree, elimination, jsonable, orderly, render, separant
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
    OrderMatrix,
    detect_first_form,
    detect_second_form,
    minor,
    normalize,
    order_matrix,
    render_grid,
    ritt_compare,
    tdet,
    tdet_assignment,
    weak_entries,
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
    shift = a[drow][vcol] - a[grow][vcol]
    for j in range(len(a[0])):
        bound = max(a[drow][j], a[grow][j] + shift)
        if b[drow][j] > bound:
            raise InternalInvariantViolation(
                "division bound violated at column %d: %s > %s\nbefore:\n%s\nafter:\n%s"
                % (j, b[drow][j], bound, render_grid(a), render_grid(b))
            )


def _check_pivot_separant(system, pivot_index, var, charset):
    s = separant(system[pivot_index], var)
    if s.is_constant():
        return
    if charset is not None and not membership(s, charset):
        return
    raise DegenerateSituation(system, pivot_index, var)


def _solve(strong):
    """The one solve of a new strong order matrix: its Assignment and the
    weak Jacobi number, read off the strong matrix."""
    return tdet_assignment(strong.entries), tdet(weak_entries(strong.entries))


def _start(system, var_order):
    """What every entry point carries from step to step: the system's strong
    order matrix, its Assignment, and the weak Jacobi number."""
    strong = order_matrix(system, var_order)
    return (strong,) + _solve(strong)


def _divide_step(system, di, gi, var, kind, strong, jw, js):
    """Divide equation di by equation gi in the variable named var: partial
    division for a scripted step, full division for a form step.  strong is
    the system's strong order matrix and jw, js its weak and strong Jacobi
    numbers; only row di changes, so only it is recomputed, and the new
    matrix is solved once.  Returns the new system, the step, and the
    Assignment of the strong matrix after the step."""
    cert = ritt_divide(system[di], [system[gi]], "partial" if kind == "scripted" else "full", var=var)
    out = list(system)
    out[di] = cert.remainder
    row = tuple(cert.remainder.order_in(name) for name in strong.col_names)
    strong_a = OrderMatrix(strong.entries[:di] + (row,) + strong.entries[di + 1 :], "strong", strong.col_names)
    _assert_division_bound(strong.entries, strong_a.entries, di, gi, strong.col_names.index(var))
    sol, jw_a = _solve(strong_a)
    step = ReductionStep(kind, di, gi, var, jw, jw_a, js, sol.value, cert, strong_a)
    return out, step, sol


def _form_step(system, kind, strong, jw, js):
    """The division of a form step, on a system whose order matrix is known
    to be in `kind` form: equation 2 (first form) or n (second form)
    by equation 1 in the first column's variable.  The Jacobi number must not
    rise, and a changed matrix must drop in Ritt's ordering."""
    dividend = 1 if kind == "first-form" else len(system) - 1
    out, step, sol = _divide_step(system, dividend, 0, strong.col_names[0], kind, strong, jw, js)
    strong_a = step.matrix_after_strong
    if sol.value > js:
        raise InternalInvariantViolation(
            "J increased: %s -> %s\n%s" % (js, sol.value, render_grid(strong_a.entries))
        )
    if strong_a.entries != strong.entries and ritt_compare(strong_a.entries, strong.entries) != LESS:
        raise InternalInvariantViolation(
            "matrix did not drop in Ritt's ordering:\n%s\n->\n%s"
            % (render_grid(strong.entries), render_grid(strong_a.entries))
        )
    return out, step, sol


def _detected_form_step(system, var_order, kind, charset):
    system = list(system)
    strong, sol, jw = _start(system, var_order)
    detect = detect_first_form if kind == "first-form" else detect_second_form
    if not detect(strong.entries, sol.value):
        raise ValueError("system is not in %s" % kind.replace("-", " "))
    # only here: on linear_reduce's linear systems every pivot separant is constant
    _check_pivot_separant(system, 0, system[0].ring.var_index(strong.col_names[0]), charset)
    out, step, _ = _form_step(system, kind, strong, jw, sol.value)
    return out, step


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
    strong, sol, jw = _start(system, var_order)
    jw_seq, js_seq = [jw], [sol.value]
    steps = []
    for pos, (di, gi, var) in enumerate(script):
        v = ring.var_index(var)
        if not (0 <= di < len(system) and 0 <= gi < len(system)) or di == gi:
            raise ValueError("script entry %d: bad equation indices" % pos)
        g = system[gi]
        og = system[gi].order_in(v)
        if og == NEG_INF:
            raise ValueError("script entry %d: divisor does not involve %s" % (pos, ring.names[v]))
        if system[di].order_in(v) < og:
            raise ValueError("script entry %d: dividend has lower order in %s" % (pos, ring.names[v]))
        system, step, _ = _divide_step(system, di, gi, ring.names[v], "scripted", strong, jw_seq[-1], js_seq[-1])
        steps.append(step)
        strong = step.matrix_after_strong
        jw_seq.append(step.j_after)
        js_seq.append(step.j_after_strong)
    return system, Trace(tuple(steps), tuple(jw_seq), tuple(js_seq))


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


def _is_linear(p: DiffPoly) -> bool:
    return all(_mono_degree(m) <= 1 for m in p._packed)


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
    and never exceeds the initial strong Jacobi number.  Rank-deficient or
    underdetermined situations fall back to the general autoreduction loop
    and report an infinite bound.

    The trace's J-sequences are totals: after step k they hold the orders
    peeled so far plus the active system's Jacobi number.  A form step's own
    J_before/J_after and matrix_after* describe only the active system, so
    j_sequence_strong[k + 1] is the peeled orders plus steps[k].j_after_strong;
    a peel step's J values are the unchanged total."""
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

    # The active system's strong order matrix and Jacobi numbers are carried
    # from one iteration to the next: a peel takes a minor, a form step
    # recomputes one row, and each new matrix is solved once, its Assignment
    # serving both the J-sequence and the next normalization.
    strong, sol, jw = _start(system, None)
    j_init = sol.value
    max_ord = max((e for row in strong.entries for e in row if e != NEG_INF), default=0)
    budget = STEP_BUDGET_FACTOR * n * (1 + max_ord)
    eqs = list(system)
    solved = []  # (equation, var, order) in peel order
    steps = []
    # reported J: sum of peeled orders plus J of the active submatrix
    jw_seq, js_seq = [jw], [j_init]
    degenerate = False
    used = 0

    def report():
        off = sum(o for _, _, o in solved)
        js_seq.append(off + (sol.value if eqs else 0))
        jw_seq.append(off + (jw if eqs else 0))

    while eqs:
        for p in eqs:
            if p and p.is_constant():
                raise InconsistentSystem(p)
        # a zero equation leaves a row of -inf, so it is caught here too
        if sol.value == NEG_INF:
            degenerate = True
            break
        a = strong.entries
        singleton = None
        for c in range(len(a[0])):
            rows = [i for i in range(len(eqs)) if a[i][c] != NEG_INF]
            if len(rows) == 1:
                singleton = (rows[0], c)
                break
        if singleton is not None:
            r, c = singleton
            o = int(a[r][c])
            name = strong.col_names[c]
            solved.append((eqs[r], ring.var_index(name), o))
            jw0, js0 = jw_seq[-1], js_seq[-1]  # a peel leaves J as it is
            steps.append(ReductionStep("peel", r, -1, name, jw0, jw0, js0, js0))
            del eqs[r]
            if eqs:
                names = strong.col_names[:c] + strong.col_names[c + 1 :]
                strong = OrderMatrix(minor(a, r, c), "strong", names)
                sol, jw = _solve(strong)
            report()
            continue
        # every live column is shared: normalize with the first column in
        # front, to the first form when its hypothesis holds, else the second
        fc, b = normalize(a, sol)
        eqs = [eqs[fc.row_perm[i]] for i in range(len(eqs))]
        names = tuple(strong.col_names[j] for j in fc.col_perm)
        eqs, step, sol = _form_step(eqs, fc.form + "-form", OrderMatrix(b, "strong", names), jw, sol.value)
        strong, jw = step.matrix_after_strong, step.j_after
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
        charset = AutoreducedSet(tuple(els), rk)
        diff_dim, bound = dimensions(charset, n)
        peeled = sum(o for _, _, o in solved)
        if diff_dim != 0 or bound != peeled or (j_init != NEG_INF and bound > j_init):
            raise InternalInvariantViolation(
                "non-degenerate reduction gave diffDim %s and bound %s (peeled orders %s, initial J %s)\n%s"
                % (diff_dim, bound, peeled, j_init, "\n".join(render(p) for p in system))
            )

    trace = Trace(tuple(steps), tuple(jw_seq), tuple(js_seq))
    return LinearReduceResult(trace, charset, diff_dim, bound, j_init, degenerate, tuple(o for _, _, o in solved))
