import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import diffalg.engine as engine_mod
from diffalg import reduction
from diffalg import (
    AutoreducedSet,
    DiffPoly,
    DegenerateSituation,
    HypothesisFailure,
    InconsistentSystem,
    NEG_INF,
    POS_INF,
    ResourceLimit,
    Trace,
    autoreduce_loop,
    linear_reduce,
    membership,
    normalize,
    order_matrix,
    orderly,
    parse_poly,
    parse_script,
    parse_system,
    render,
    ritt_compare,
    ritt_divide,
    scripted_divide,
    step_first_form,
    step_second_form,
    tdet,
    tdet_assignment,
    tdet_brute,
)
from diffalg.tropical import minor, weak_entries
from diffalg.generators import rand_linear_system
from helpers import assert_optimal, bareiss_det, rand_constant_coefficient_system, rand_unit_separant_system, ring_of

R2 = ring_of(2)
R3 = ring_of(3)


def P(text, ring=R2):
    return parse_poly(text, ring)


# -- form steps ---------------------------------------------------------------


def test_step_first_form():
    sys_ = [P("x' - x"), P("x'' - y")]
    out, step = step_first_form(sys_)
    assert out[0] == sys_[0]
    assert out[1] == P("x - y")
    assert step.kind == "first-form" and step.var == "x"
    assert step.j_after_strong <= step.j_before_strong
    assert step.certificate.verify(sys_[1], [sys_[0]])
    after = order_matrix(out, None, "strong")
    before = order_matrix(sys_, None, "strong")
    assert ritt_compare(after.entries, before.entries) == "less"


def test_step_first_form_requires_form():
    with pytest.raises(ValueError):
        step_first_form([P("x - y"), P("x'' - y")])  # a21 > a11 fails? no: not diagonal-max
    with pytest.raises(ValueError):
        step_second_form([P("x' - x"), P("x'' - y")])


def test_step_second_form():
    sys_ = [parse_poly(s, R3) for s in ("x'' + y + z'''", "x' + y' + z'", "x''' + y' + z'")]
    before = order_matrix(sys_, None, "strong")
    assert before.entries == ((2, 0, 3), (1, 1, 1), (3, 1, 1))
    out, step = step_second_form(sys_)
    assert out[2] == parse_poly("z' - z^(4)", R3)
    assert step.j_after_strong <= step.j_before_strong == 7
    assert ritt_compare(order_matrix(out, None, "strong").entries, before.entries) == "less"


def test_step_degenerate_pivot():
    sys_ = [P("x'^2 - y"), P("x'' - y'")]
    with pytest.raises(DegenerateSituation) as exc:
        step_first_form(sys_)
    assert exc.value.pivot_index == 0
    # a characteristic set on which the separant does not vanish unblocks it
    cs = AutoreducedSet((P("x'^2 - y"),), orderly())
    out, step = step_first_form(sys_, charset=cs)
    assert step.j_after_strong <= step.j_before_strong
    # one on which it does vanish (the separant 2x' on x' = 0) still blocks it
    with pytest.raises(DegenerateSituation):
        step_first_form(sys_, charset=AutoreducedSet((P("x'"),), orderly()))


# -- scripted divisions ----------------------------------------------------------


def test_parse_script():
    assert parse_script("0/2@x;1/2@x") == [(0, 2, "x"), (1, 2, "x")]
    assert parse_script(" 2/0@zz ; ") == [(2, 0, "zz")]
    with pytest.raises(ValueError):
        parse_script("0-2@x")


def test_scripted_trace_j_increasing():
    ring, sys_ = parse_system("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    final, trace = scripted_divide(sys_, [(0, 2, "x"), (1, 2, "x")])
    assert trace.j_sequence == (101, 150, 101)
    assert trace.j_sequence_strong == (101, 101, 101)
    assert final[0] == parse_poly("y' + z' - y^(100)", ring)
    assert final[1] == parse_poly("y + z - y^(50)", ring)
    data = trace.to_json()
    assert data["J_sequence"] == [101, 150, 101]
    assert len(data["steps"]) == 2
    assert data["steps"][0]["matrix_after"]["entries"][0] == [0, 100, 1]


def test_scripted_validation():
    ring, sys_ = parse_system("vars: x, y\nx' - x\ny' - y\n")
    with pytest.raises(ValueError):
        scripted_divide(sys_, [(0, 0, "x")])
    with pytest.raises(ValueError):
        scripted_divide(sys_, [(0, 1, "x")])  # divisor has no x
    with pytest.raises(ValueError):
        scripted_divide(sys_, [(1, 0, "x")])  # dividend below divisor order? no x at all
    with pytest.raises(ValueError):
        scripted_divide(sys_, [(0, 5, "x")])


def _valid_moves(system, ring):
    return [
        (di, gi, name)
        for di, f in enumerate(system)
        for gi, g in enumerate(system)
        for name in ring.names
        if di != gi and g.order_in(name) != NEG_INF and f.order_in(name) >= g.order_in(name)
    ]


def test_scripted_steps_carry_the_recomputed_matrices():
    # a step recomputes only the dividend's row of the matrices it carries;
    # they must equal the order matrices of the system after the step
    rng = random.Random(23)
    steps = 0
    for trial in range(120):
        n = rng.randint(2, 3)
        if trial % 2:
            ring, system = rand_unit_separant_system(rng, n, max_order=3)
        else:
            ring = ring_of(n)
            system = rand_linear_system(rng, ring, max_order=4)
        var_order = rng.sample(ring.names, n)
        script, cur = [], system
        for _ in range(rng.randint(1, 3)):
            moves = _valid_moves(cur, ring)
            if not moves:
                break
            script.append(rng.choice(moves))
            cur, _ = scripted_divide(cur, script[-1:], var_order)
        final, trace = scripted_divide(system, script, var_order)
        assert final == cur
        cur = list(system)
        for step in trace.steps:
            cur[step.dividend] = step.certificate.remainder
            weak, strong = order_matrix(cur, var_order, "weak"), order_matrix(cur, var_order, "strong")
            assert step.matrix_after == weak and step.matrix_after_strong == strong
            assert (step.j_after, step.j_after_strong) == (tdet(weak.entries), tdet(strong.entries))
            steps += 1
    assert steps > 150


# -- linear reduction ----------------------------------------------------------------


def test_linear_reduce_j_increasing():
    ring, sys_ = parse_system("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    res = linear_reduce(sys_)
    assert not res.degenerate
    assert res.diff_dim == 0
    assert res.j_initial == 101
    assert res.abs_dim_bound <= 101
    seq = res.trace.j_sequence_strong
    assert all(a >= b for a, b in zip(seq, seq[1:]))
    assert seq[0] == 101 and seq[-1] == res.abs_dim_bound


def test_linear_reduce_diagonal():
    ring, sys_ = parse_system("vars: x, y\nx'' - x\ny' - x\n")
    res = linear_reduce(sys_)
    assert res.diff_dim == 0 and res.abs_dim_bound == 3
    assert res.charset is not None
    assert not res.degenerate


def test_linear_reduce_degenerate():
    ring, sys_ = parse_system("vars: x, y\nx' - x\nx'' - x'\n")
    res = linear_reduce(sys_)
    assert res.degenerate
    assert res.diff_dim == 1 and res.abs_dim_bound == POS_INF
    assert res.charset.elements == (parse_poly("x' - x", ring),)


def test_linear_reduce_all_zero_system():
    # nothing is peeled and nothing remains: no charset, every variable free
    ring, sys_ = parse_system("vars: x, y\n0\n0\n")
    res = linear_reduce(sys_)
    assert res.charset is None and res.degenerate
    assert res.diff_dim == 2 and res.abs_dim_bound == POS_INF
    assert res.trace == Trace((), (0,), (NEG_INF,))


def test_linear_reduce_inconsistent():
    ring, sys_ = parse_system("vars: x, y\nx - 1\nx - 2\n")
    with pytest.raises(InconsistentSystem):
        linear_reduce(sys_)


def _record_form_steps(monkeypatch):
    """Each form step's (rows of its system, kind, remainder), as linear_reduce takes it."""
    steps = []
    form_step = engine_mod._form_step

    def recording(system, kind, st):
        out = form_step(system, kind, st)
        steps.append((len(system), kind, out[1].certificate.remainder))
        return out

    monkeypatch.setattr(engine_mod, "_form_step", recording)
    return steps


def test_a_constant_input_row_is_inconsistent_before_any_step(monkeypatch):
    # the input rows are tested first, before the degenerate test its -inf
    # row would trip and before any peel
    steps = _record_form_steps(monkeypatch)
    monkeypatch.setattr(engine_mod, "minor", lambda *a: pytest.fail("a peel was taken"))
    _, sys_ = parse_system("vars: x, y, z\nx' + y\n3\nx + z'\n")
    with pytest.raises(InconsistentSystem) as e:
        linear_reduce(sys_)
    assert str(e.value) == "nonzero constant remainder 3" and steps == []


def test_a_constant_form_step_remainder_after_a_peel_is_inconsistent(monkeypatch):
    # z is peeled, then the second-form step on the two rows left divides
    # x' + y + 1 by x' + y: its remainder is the constant, tested in the
    # next pass as the one row that entered
    steps = _record_form_steps(monkeypatch)
    _, sys_ = parse_system("vars: x, y, z\nx' + y\nx' + y + 1\nz' + x\n")
    with pytest.raises(InconsistentSystem) as e:
        linear_reduce(sys_)
    assert str(e.value) == "nonzero constant remainder -1"
    assert [(n, kind, render(r)) for n, kind, r in steps] == [(2, "second-form", "-1")]


def test_linear_reduce_tests_each_row_once(monkeypatch):
    # peels delete rows and normalizations permute them, so each row is
    # tested for a nonzero constant in the pass after it enters: the input
    # rows, each nonzero remainder of a form step, and the back-substituted
    # set's elements
    calls = []
    is_constant = DiffPoly.is_constant

    def counting(p):
        if sys._getframe(1).f_code is engine_mod.linear_reduce.__code__:
            calls.append(p)
        return is_constant(p)

    monkeypatch.setattr(DiffPoly, "is_constant", counting)
    rng = random.Random(33)
    kinds = set()
    for _ in range(60):
        ring = ring_of(rng.randint(2, 4))
        sys_ = rand_linear_system(rng, ring, max_order=3)
        calls.clear()
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem:
            continue
        forms = [s for s in res.trace.steps if s.kind != "peel"]
        kinds.update(s.kind for s in res.trace.steps)
        expected = sum(1 for p in sys_ if p) + sum(1 for s in forms if s.certificate.remainder)
        expected += 0 if res.degenerate else ring.nvars
        assert len(calls) == expected
    assert {"peel", "first-form", "second-form"} <= kinds


def test_linear_reduce_rejects_nonlinear_and_nonsquare():
    with pytest.raises(ValueError):
        linear_reduce([P("x'^2 - y"), P("y' - x")])
    with pytest.raises(ValueError):
        linear_reduce([P("x' - y")])


def test_linear_reduce_random_smoke():
    rng = random.Random(77)
    for _ in range(15):
        ring = ring_of(rng.randint(1, 3))
        sys_ = rand_linear_system(rng, ring, max_order=4)
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem:
            continue
        seq = res.trace.j_sequence_strong
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        if not res.degenerate:
            assert res.abs_dim_bound <= res.j_initial


def test_linear_reduce_evaluates_no_separant(monkeypatch):
    # On linear systems every pivot separant is a nonzero constant, so the
    # degenerate-pivot test belongs to step_first_form/step_second_form only.
    def forbidden(*args, **kw):
        raise AssertionError("linear_reduce evaluated a separant")

    monkeypatch.setattr(engine_mod, "separant", forbidden)
    _, sys_ = parse_system("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    kinds = [s.kind for s in linear_reduce(sys_).trace.steps]
    rng = random.Random(14)
    for _ in range(40):
        try:
            res = linear_reduce(rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4))
        except InconsistentSystem:
            continue
        kinds += [s.kind for s in res.trace.steps]
    assert "first-form" in kinds and "second-form" in kinds


def test_ritt_divide_picks_the_linear_kernel(monkeypatch):
    # every full-mode division of linear operands takes the linear kernel,
    # whichever entry point makes it; partial mode and nonlinear operands
    # take the general loop
    calls, kernel = [], reduction._linear_divide
    monkeypatch.setattr(reduction, "_linear_divide", lambda *args: calls.append(1) or kernel(*args))

    def kernel_calls(run):
        del calls[:]
        run()
        return len(calls)

    lin = [P("x' - x"), P("x'' - y")]
    aset = AutoreducedSet((P("x' - x"), P("y' - x")), orderly())
    second = [P(s, R3) for s in ("x'' + y + z'''", "x' + y' + z'", "x''' + y' + z'")]
    sys3 = [P("-x' - 1", R3), P("-z'' - 3*y' - 2*x", R3), P("-2*y' - z + 2*x", R3)]
    res = linear_reduce(sys3)
    forms = sum(s.kind.endswith("-form") for s in res.trace.steps)
    assert forms
    for run, n in (
        (lambda: ritt_divide(lin[1], [lin[0]], "full", var="x"), 1),
        (lambda: ritt_divide(P("y'' + x''"), aset.elements, "full", orderly()), 1),
        (lambda: membership(P("y'' - x'"), aset), 1),
        (lambda: autoreduce_loop([P("x' - x"), P("y' - x"), P("y'' - x'")]), 1),
        (lambda: step_first_form(lin), 1),
        (lambda: step_second_form(second), 1),
        (lambda: linear_reduce(sys3), forms + len(res.charset.elements) - 1),
        (lambda: ritt_divide(lin[1], [lin[0]], "partial", var="x"), 0),
        (lambda: scripted_divide(lin, [(1, 0, "x")]), 0),
        (lambda: ritt_divide(P("x''*y"), [lin[0]], "full", var="x"), 0),
        (lambda: ritt_divide(lin[1], [P("x'*y - x")], "full", var="x"), 0),
        (lambda: step_first_form([P("x' - x^2"), P("x'' - y")]), 0),
    ):
        assert kernel_calls(run) == n


def test_linear_reduce_j_sequence_adds_the_peeled_orders():
    # A form step's J values belong to the active system left after the
    # peels; the J-sequence reports totals, which add the orders peeled so
    # far.  A peel leaves the strong total as it is.
    rng = random.Random(3)
    mixed = 0
    for _ in range(150):
        sys_ = rand_linear_system(rng, R3, max_order=4)
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem:
            continue
        tr, peels = res.trace, iter(res.peel_orders)
        peeled = 0
        for k, step in enumerate(tr.steps):
            if step.kind == "peel":
                peeled += next(peels)
                assert tr.j_sequence_strong[k + 1] == step.j_after_strong
            else:
                assert tr.j_sequence_strong[k + 1] == peeled + step.j_after_strong
                assert tr.j_sequence[k + 1] == peeled + step.j_after
                mixed += peeled > 0
    assert mixed > 20  # form steps after a peel occur in this corpus


def test_peel_steps_report_the_totals_before_and_after():
    # peeling y leaves -x alone: the strong total stays 1, the weak one drops
    # from 3, where 2*x''' still counted, to 1
    ring, sys_ = parse_system("vars: x, y\n-x\n2*x''' + 2*y'\n")
    tr = linear_reduce(sys_).trace
    assert tr.j_sequence == (3, 1, 1) and tr.j_sequence_strong == (1, 1, 1)
    got = [(s.kind, s.var, s.j_before, s.j_after, s.j_before_strong, s.j_after_strong) for s in tr.steps]
    assert got == [("peel", "y", 3, 1, 1, 1), ("peel", "x", 1, 1, 1, 1)]


def test_traces_agree_with_their_j_sequences():
    # seeded linear systems of 2-6 variables, those of 5 or 6 in the wide
    # shape (order <= 2): a peel step's J values are the totals around it,
    # a step's j_after* is the Jacobi number of its matrix_after*, and a
    # scripted trace's J-sequence continues with each step's j_after*
    rng = random.Random(41)
    peels = forms = scripted = 0
    for _ in range(500):
        ring = ring_of(rng.randint(2, 6))
        sys_ = rand_linear_system(rng, ring, max_order=2 if ring.nvars >= 5 else 4)
        script, cur = [], sys_
        for _ in range(2):
            moves = _valid_moves(cur, ring)
            if not moves:
                break
            script.append(rng.choice(moves))
            cur, _ = scripted_divide(cur, script[-1:])
        _, tr = scripted_divide(sys_, script)
        for k, step in enumerate(tr.steps):
            assert (tr.j_sequence[k + 1], tr.j_sequence_strong[k + 1]) == (step.j_after, step.j_after_strong)
            assert step.j_after_strong == tdet(step.matrix_after_strong.entries)
            scripted += 1
        try:
            tr = linear_reduce(sys_).trace
        except InconsistentSystem:
            continue
        for k, step in enumerate(tr.steps):
            weak, strong = tr.j_sequence[k : k + 2], tr.j_sequence_strong[k : k + 2]
            if step.kind == "peel":
                assert (step.j_before, step.j_after) == weak
                assert (step.j_before_strong, step.j_after_strong) == strong
                peels += 1
            else:
                assert step.j_after_strong == tdet(step.matrix_after_strong.entries)
                # the peeled orders are the same on both sides of a form step
                assert weak[1] - step.j_after == weak[0] - step.j_before
                forms += 1
    assert peels > 1500 and forms > 600 and scripted > 800


# -- past the old n <= 8 cap, solve counts, step budget ------------------------------


def test_bareiss_det_small_cases():
    D = (0, 1)
    assert bareiss_det([[(1, 1)]]) == (1, 1)
    # [[D, 1], [1, D]]: D^2 - 1, and a zero pivot that needs a row swap
    assert bareiss_det([[D, (1,)], [(1,), D]]) == (-1, 0, 1)
    assert bareiss_det([[(), (1,)], [(1,), D]]) == (-1,)
    assert bareiss_det([[D, D], [(2,), (2,)]]) == ()


def test_linear_reduce_bound_is_deg_det_constant_coefficients():
    # independent oracle: for a constant-coefficient system with det P(D) != 0
    # the absolute dimension bound is deg_D det P(D), with P(D) taken from the
    # integer coefficients before the system is rendered and parsed
    rng = random.Random(2027)
    checked = 0
    for n, max_order, count in ((2, 3, 90), (3, 2, 70), (4, 1, 30)):
        while count:
            matrix, text = rand_constant_coefficient_system(rng, n, max_order)
            det = bareiss_det(matrix)
            if not det:
                continue
            count -= 1
            res = linear_reduce(parse_system(text)[1])
            assert not res.degenerate, text
            assert res.abs_dim_bound == len(det) - 1, (text, det)
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("n", [9, 10])
def test_linear_reduce_cyclic_past_eight(n):
    names = ["x%d" % i for i in range(n)]
    text = "vars: %s\n" % ", ".join(names) + "".join(
        "%s' + %s\n" % (names[i], names[(i + 1) % n]) for i in range(n)
    )
    _, sys_ = parse_system(text)
    res = linear_reduce(sys_)
    assert not res.degenerate
    assert res.j_initial == n and res.abs_dim_bound == n and res.diff_dim == 0


def test_linear_reduce_solve_count(monkeypatch):
    import diffalg.tropical as tropical_mod

    calls = []
    solve = tropical_mod.tdet_assignment

    def counted(*args, **kw):
        calls.append(len(args[0]))
        return solve(*args, **kw)

    monkeypatch.setattr(tropical_mod, "tdet_assignment", counted)
    monkeypatch.setattr(engine_mod, "tdet_assignment", counted)
    sys_ = [P("-x' - 1", R3), P("-z'' - 3*y' - 2*x", R3), P("-2*y' - z + 2*x", R3)]
    res = linear_reduce(sys_)
    kinds = [s.kind for s in res.trace.steps]
    forms = sum(k.endswith("-form") for k in kinds)
    assert "first-form" in kinds and "second-form" in kinds and "peel" in kinds
    assert not res.degenerate
    assert len(calls) <= 2 + 3 * forms + 2 * kinds.count("peel")


def _banded_system(rng, n, max_order=2):
    # equation i holds x_i and x_(i+1 mod n), sometimes x_(i+2 mod n), each
    # once with coefficient +-1: every column starts shared by two equations
    ring = ring_of(n)
    out = []
    for i in range(n):
        vs = {i, (i + 1) % n} | ({(i + 2) % n} if rng.random() < 0.3 else set())
        p = ring.const(rng.randint(-3, 3)) if rng.random() < 0.3 else ring.zero()
        for v in sorted(vs):
            p = p + ring.var(v, rng.randint(0, max_order)) * rng.choice([-1, 1])
        out.append(p)
    return out


def test_linear_reduce_solves_each_matrix_once(monkeypatch):
    # Every engine._solve that misses the memo (an initial matrix, or one a
    # division step left) runs one cold Hungarian solve of its matrix, and
    # one of the weak matrix exactly when the strong duals leave a -inf cell
    # uncovered (u_i + v_j < 0).  Every engine._peel that misses runs no
    # strong solve: it carries the parent's Assignment without the peeled row
    # and column, and runs the weak solve under the same rule.  A hit runs
    # none; and each J either reports is the factorial oracle's.  Each entry
    # point runs twice: on an emptied memo, then on the memo that run filled,
    # where every lookup hits.  linear_reduce and scripted_divide solve
    # nowhere else.
    import diffalg.tropical as tropical_mod

    hungarian, solve, peel = tropical_mod.tdet_assignment, engine_mod._solve, engine_mod._peel
    calls, inside = [], []
    seen = dict.fromkeys(("miss", "hit", "weak solved", "peel miss", "peel hit", "peel weak", "first", "second"), 0)

    def counted(a):
        calls.append(a)
        return hungarian(a)

    def uncovered(a, sol):
        return sol.value == NEG_INF or any(
            sol.u[i] + sol.v[j] < 0 for i, row in enumerate(a) for j, e in enumerate(row) if e == NEG_INF
        )

    def looked_up(a, call):
        # the record call() returns for matrix a, the Hungarian solves it
        # ran, and whether the memo held a's answers
        hit, start = a in engine_mod._ANSWERS, len(calls)
        st = call()
        got = calls[start:]
        inside.extend(got)
        assert st.entries == a
        assert (st.sol.value, st.weak) == (tdet_brute(a)[0], tdet_brute(weak_entries(a))[0]), a
        if hit:
            assert got == [], (a, got)
        return st, got, hit

    def checked_solve(a, names):
        st, got, hit = looked_up(a, lambda: solve(a, names))
        if not hit:
            weak = uncovered(a, hungarian(a))
            assert got == ([a, weak_entries(a)] if weak else [a]), (a, got)
            seen["weak solved"] += weak
        seen["hit" if hit else "miss"] += 1
        return st

    def checked_peel(st, r, c):
        a = minor(st.entries, r, c)
        out, got, hit = looked_up(a, lambda: peel(st, r, c))
        if not hit:
            sol = st.sol
            assert sol.rho[r] == c
            assert out.sol == (
                sol.value - st.entries[r][c],
                sol.u[:r] + sol.u[r + 1 :],
                sol.v[:c] + sol.v[c + 1 :],
                tuple(j - (j > c) for j in sol.rho[:r] + sol.rho[r + 1 :]),
            )
            assert_optimal(a, out.sol)
            weak = uncovered(a, out.sol)
            assert got == ([weak_entries(a)] if weak else []), (a, got)
            seen["peel weak"] += weak
        seen["peel hit" if hit else "peel miss"] += 1
        return out

    def run_twice(call, only_in_solve):
        engine_mod._ANSWERS.clear()
        for filled in (False, True):
            del calls[:], inside[:]
            misses = seen["miss"] + seen["peel miss"]
            try:
                call()
            except InconsistentSystem:
                pass
            assert not filled or seen["miss"] + seen["peel miss"] == misses
            assert not only_in_solve or calls == inside

    monkeypatch.setattr(tropical_mod, "tdet_assignment", counted)
    monkeypatch.setattr(engine_mod, "tdet_assignment", counted)
    monkeypatch.setattr(engine_mod, "_solve", checked_solve)
    monkeypatch.setattr(engine_mod, "_peel", checked_peel)
    rng = random.Random(18)
    for k in range(120):
        if k % 3 == 2:
            sys_ = _banded_system(rng, rng.randint(5, 6))
        else:
            sys_ = rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4)
        run_twice(lambda: linear_reduce(sys_), True)
        moves = _valid_moves(sys_, sys_[0].ring)
        if moves:
            script = [rng.choice(moves)]
            run_twice(lambda: scripted_divide(sys_, script), True)
        try:
            cert, _ = normalize(order_matrix(sys_).entries)
        except HypothesisFailure:
            continue
        step = step_first_form if cert.form == "first" else step_second_form
        run_twice(lambda: step([sys_[i] for i in cert.row_perm], list(cert.col_perm)), False)
        seen[cert.form] += 1
    assert min(seen.values()) >= 10, seen


def test_peel_read_off_is_optimal_for_the_minor():
    # a matrix with a column finite in one row only: every finite transversal
    # uses that cell, and the cold Assignment without its row and column is
    # an optimal one of the minor, whose tdet is J minus the cell
    rng = random.Random(38)
    peeled = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        a = [[NEG_INF if rng.random() < 0.3 else rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        r, c = rng.randrange(n), rng.randrange(n)
        for i in range(n):
            a[i][c] = rng.randint(0, 5) if i == r else NEG_INF
        a = tuple(map(tuple, a))
        st = engine_mod._Solved(a, tuple("x%d" % j for j in range(n)), tdet_assignment(a), None)
        if st.sol.value == NEG_INF:
            continue
        engine_mod._ANSWERS.clear()
        out = engine_mod._peel(st, r, c)
        b = minor(a, r, c)
        assert out.entries == b and out.names == st.names[:c] + st.names[c + 1 :]
        assert_optimal(b, out.sol)
        assert out.sol.value == tdet_brute(b)[0] == st.sol.value - a[r][c]
        assert out.weak == tdet_brute(weak_entries(b))[0]
        peeled += 1
    assert peeled >= 100, peeled
    # a carried transversal that misses the peeled cell is the program's fault
    from diffalg.errors import InternalInvariantViolation
    from diffalg.tropical import Assignment

    a = ((1, NEG_INF), (2, 3))
    wrong = engine_mod._Solved(a, ("x", "y"), Assignment(4, (1, 3), (0, 0), (1, 0)), 4)
    with pytest.raises(InternalInvariantViolation, match=r"misses the peeled cell \(1, 1\)"):
        engine_mod._peel(wrong, 1, 1)


def test_form_steps_carry_the_duals_of_their_own_matrix(monkeypatch):
    # after normalize the record holds the permuted matrix with its duals
    # permuted alike, so before and after each form step the duals are
    # feasible for the record's matrix and sum to its tropical determinant
    form_step = engine_mod._form_step
    kinds = []

    def check(st):
        a, sol = st.entries, st.sol
        assert all(sol.u[i] + sol.v[j] >= e for i, row in enumerate(a) for j, e in enumerate(row) if e != NEG_INF)
        assert sum(sol.u) + sum(sol.v) == sol.value == tdet(a)
        assert st.weak == tdet(tuple(tuple(0 if e == NEG_INF else e for e in row) for row in a))

    def checked_form_step(system, kind, st):
        check(st)
        out, step, after = form_step(system, kind, st)
        if after.sol.value != NEG_INF:
            check(after)
        kinds.append(kind)
        return out, step, after

    monkeypatch.setattr(engine_mod, "_form_step", checked_form_step)
    rng = random.Random(21)
    systems = [_banded_system(rng, rng.randint(5, 6)) for _ in range(20)]
    systems += [rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4) for _ in range(20)]
    for sys_ in systems:
        try:
            linear_reduce(sys_)
        except InconsistentSystem:
            continue
    assert kinds.count("first-form") >= 10 and kinds.count("second-form") >= 10, kinds


def test_linear_reduce_normalizes_once_per_form_step(monkeypatch):
    # one normalize call per form step whose matrix the memo (cleared per
    # system) has not normalized before, which permutes the matrix once
    import diffalg.tropical as tropical_mod

    calls = {"normalize": 0, "apply": 0}
    normalize, apply = engine_mod.normalize, tropical_mod.FormCertificate.apply
    normal_form, hits = engine_mod._normal_form, []

    def counted_normal_form(st):
        ans = engine_mod._ANSWERS.get(st.entries)
        hits.append(ans is not None and ans.normal is not None)
        return normal_form(st)

    def counted_normalize(*args, **kw):
        calls["normalize"] += 1
        return normalize(*args, **kw)

    def counted_apply(*args, **kw):
        calls["apply"] += 1
        return apply(*args, **kw)

    monkeypatch.setattr(engine_mod, "normalize", counted_normalize)
    monkeypatch.setattr(engine_mod, "_normal_form", counted_normal_form)
    monkeypatch.setattr(tropical_mod.FormCertificate, "apply", counted_apply)
    _, sys_ = parse_system("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    systems = [sys_]
    rng = random.Random(15)
    systems += [rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4) for _ in range(30)]
    kinds = []
    for sys_ in systems:
        calls.update(normalize=0, apply=0)
        engine_mod._ANSWERS.clear()
        del hits[:]
        try:
            steps = linear_reduce(sys_).trace.steps
        except InconsistentSystem:
            continue
        forms = sum(s.kind != "peel" for s in steps)
        assert len(hits) == forms
        assert calls == {"normalize": hits.count(False), "apply": hits.count(False)}
        kinds += [s.kind for s in steps]
    assert "first-form" in kinds and "second-form" in kinds


def test_answers_memo_keeps_every_output_cold_warm_and_reversed(monkeypatch):
    # the same corpus reduced with the memo empty, then again, then in
    # reverse order: identical results, while the warm passes solve and
    # normalize nothing and still run every per-step check
    import diffalg.tropical as tropical_mod

    def record(sys_):
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem as e:
            return str(e)
        charset = None if res.charset is None else [render(p) for p in res.charset.elements]
        return json.dumps(
            [res.trace.to_json(), charset, str(res.diff_dim), str(res.abs_dim_bound), str(res.j_initial),
             res.degenerate, res.peel_orders]
        )

    calls = []

    def counted(mod, name):
        f = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, **kw: calls.append(name) or f(*a, **kw))

    checks = ("_assert_division_bound", "ritt_compare", "ritt_divide")
    for name in ("normalize", "tdet_assignment") + checks:
        counted(engine_mod, name)
    counted(tropical_mod, "tdet_assignment")
    rng = random.Random(33)
    systems = [rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4) for _ in range(60)]
    cold = [record(s) for s in systems]
    cold_calls = calls[:]
    del calls[:]
    warm = [record(s) for s in systems]
    warm_calls = calls[:]
    del calls[:]
    backwards = [record(s) for s in reversed(systems)][::-1]
    assert cold == warm == backwards
    assert cold_calls.count("normalize") >= 30 and cold_calls.count("tdet_assignment") >= 60
    for name in checks:
        assert warm_calls.count(name) == calls.count(name) == cold_calls.count(name) > 0, name
    assert set(warm_calls) == set(calls) == set(checks)
    kinds = [step["kind"] for r in cold if r.startswith("[") for step in json.loads(r)[0]["steps"]]
    assert {"first-form", "second-form", "peel"} <= set(kinds)


def test_answers_memo_evicts_past_its_bound(monkeypatch):
    # past ANSWERS_BOUND entries _remember clears the memo: with the bound
    # lowered to 2 it clears again and again, never holds more than 2
    # answers, and the outputs are those under the default bound
    rng = random.Random(35)
    systems = [rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4) for _ in range(40)]
    default = [_reduce_record(s) for s in systems]
    engine_mod._ANSWERS.clear()
    monkeypatch.setattr(engine_mod, "ANSWERS_BOUND", 2)
    sizes = []
    remember = engine_mod._remember

    def counted(*args):
        ans = remember(*args)
        sizes.append(len(engine_mod._ANSWERS))
        return ans

    monkeypatch.setattr(engine_mod, "_remember", counted)
    assert [_reduce_record(s) for s in systems] == default
    assert max(sizes) <= 2 and len(engine_mod._ANSWERS) <= 2
    assert sum(a == 2 and b == 1 for a, b in zip(sizes, sizes[1:])) > 10  # the clears ran


def test_back_substituted_set_is_checked_in_rank_under_python_O():
    # linear_reduce builds its charset without the pairwise tests, after one
    # pass over the ranks; an elimination ranking with its blocks reversed
    # breaks that order, and the check names the set with asserts stripped
    code = textwrap.dedent(
        """
        from diffalg import engine, linear_reduce, parse_system
        from diffalg.diffpoly import elimination
        from diffalg.errors import InternalInvariantViolation

        assert False, "asserts must be stripped"
        _, sys_ = parse_system("vars: x, y\\nx' - 1\\ny'' - 2\\n")
        print(linear_reduce(sys_).abs_dim_bound)
        engine.elimination = lambda blocks: elimination(blocks[::-1])
        try:
            linear_reduce(sys_)
        except InternalInvariantViolation as e:
            print(e)
        """
    )
    src = str(Path(engine_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "3",
        "back-substituted set does not strictly increase in rank: [\"y'' - 2\", \"x' - 1\"]",
    ]


def test_linear_reduce_step_budget_is_a_resource_limit(monkeypatch):
    monkeypatch.setattr(engine_mod, "STEP_BUDGET_FACTOR", 0)
    sys_ = [P("x' - y"), P("x'' - y'")]
    with pytest.raises(ResourceLimit):
        linear_reduce(sys_)


# -- pinned outputs ------------------------------------------------------------------


def _reduce_record(sys_):
    """linear_reduce's result on sys_ as a JSON-ready list: its trace with
    certificates, charset, bound, diffDim and degenerate flag."""
    try:
        res = linear_reduce(sys_)
    except InconsistentSystem as e:
        return ["inconsistent", e.text]
    return [
        res.trace.to_json(),
        [render(p) for p in res.charset.elements] if res.charset else None,
        str(res.abs_dim_bound),
        res.diff_dim,
        res.degenerate,
    ]


def _linear_reduce_digest(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = ring_of(rng.randint(2, 3))
        out.append(_reduce_record(rand_linear_system(rng, ring, max_order=4)))
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_linear_reduce_traces_pinned():
    # traces with certificates, charsets and bounds of a seeded corpus; a
    # change to the arithmetic must reproduce them exactly
    assert _linear_reduce_digest(2027, 120) == "14ace7bce6d341b92956d4161aded5f7cd66860030e3ceefbcbe190010967477"


def _rational_digest(seed, count):
    # linear_reduce with rational coefficients: each term of a seeded linear
    # system scaled by its own seeded fraction, and most equations given a
    # rational constant, so divisors and dividends carry denominators
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = ring_of(rng.randint(2, 3))
        sys_ = []
        for p in rand_linear_system(rng, ring, max_order=4):
            terms = {m: c * Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6)) for m, c in p.terms.items()}
            p = DiffPoly(ring, terms)
            if rng.random() < 0.6:
                p = p + ring.const(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
            sys_.append(p)
        out.append(_reduce_record(sys_))
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_rational_linear_reduce_traces_pinned():
    # the same record on rational coefficients and constants
    assert _rational_digest(2029, 120) == "cb4e23566f72c5b47d22f33d9d3a7fcfc57f67d479ab82f2cc4273e23ba11da4"


def _wide_digest(seed, count):
    # the linear-wide shape: 5-6 variables of order <= 2, one linear_reduce
    # and one two-step scripted_divide per system
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = ring_of(rng.randint(5, 6))
        sys_ = rand_linear_system(rng, ring, max_order=2)
        script = [rng.choice(_valid_moves(sys_, ring))]
        cur, _ = scripted_divide(sys_, script)
        moves = _valid_moves(cur, ring)
        if moves:
            script.append(rng.choice(moves))
        final, trace = scripted_divide(sys_, script)
        out.append([script, trace.to_json(), [render(p) for p in final]])
        out.append(_reduce_record(sys_))
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_wide_traces_pinned():
    # weak and strong matrices and J-sequences of wide systems, from
    # linear_reduce and from scripted divisions, exactly as recorded
    assert _wide_digest(2031, 120) == "347205efb3b9ead1b8f76e0eebbf042dbe0531f71628c0eac97c0f5f7b5f6059"
