import hashlib
import json
import random

import pytest

import diffalg.engine as engine_mod
from diffalg import (
    AutoreducedSet,
    DegenerateSituation,
    InconsistentSystem,
    NEG_INF,
    POS_INF,
    ResourceLimit,
    linear_reduce,
    order_matrix,
    orderly,
    parse_poly,
    parse_script,
    parse_system,
    render,
    ritt_compare,
    scripted_divide,
    step_first_form,
    step_second_form,
    tdet,
)
from diffalg.generators import rand_linear_system
from helpers import bareiss_det, rand_constant_coefficient_system, rand_unit_separant_system, ring_of

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


def test_linear_reduce_inconsistent():
    ring, sys_ = parse_system("vars: x, y\nx - 1\nx - 2\n")
    with pytest.raises(InconsistentSystem):
        linear_reduce(sys_)


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


def test_linear_reduce_j_sequence_adds_the_peeled_orders():
    # A form step's J values belong to the active system left after the
    # peels; the J-sequence reports totals, which add the orders peeled so
    # far.  A peel leaves the total as it is.
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


def test_linear_reduce_normalizes_once_per_form_step(monkeypatch):
    # one normalize call per form step, which permutes the matrix once
    import diffalg.tropical as tropical_mod

    calls = {"normalize": 0, "apply": 0}
    normalize, apply = engine_mod.normalize, tropical_mod.FormCertificate.apply

    def counted_normalize(*args, **kw):
        calls["normalize"] += 1
        return normalize(*args, **kw)

    def counted_apply(*args, **kw):
        calls["apply"] += 1
        return apply(*args, **kw)

    monkeypatch.setattr(engine_mod, "normalize", counted_normalize)
    monkeypatch.setattr(tropical_mod.FormCertificate, "apply", counted_apply)
    _, sys_ = parse_system("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    systems = [sys_]
    rng = random.Random(15)
    systems += [rand_linear_system(rng, ring_of(rng.randint(2, 3)), max_order=4) for _ in range(30)]
    kinds = []
    for sys_ in systems:
        calls.update(normalize=0, apply=0)
        try:
            steps = linear_reduce(sys_).trace.steps
        except InconsistentSystem:
            continue
        forms = sum(s.kind != "peel" for s in steps)
        assert calls == {"normalize": forms, "apply": forms}
        kinds += [s.kind for s in steps]
    assert "first-form" in kinds and "second-form" in kinds


def test_linear_reduce_step_budget_is_a_resource_limit(monkeypatch):
    monkeypatch.setattr(engine_mod, "STEP_BUDGET_FACTOR", 0)
    sys_ = [P("x' - y"), P("x'' - y'")]
    with pytest.raises(ResourceLimit):
        linear_reduce(sys_)


# -- pinned outputs ------------------------------------------------------------------


def _linear_reduce_digest(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ring = ring_of(rng.randint(2, 3))
        sys_ = rand_linear_system(rng, ring, max_order=4)
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem as e:
            out.append(["inconsistent", e.text])
            continue
        out.append([
            res.trace.to_json(),
            [render(p) for p in res.charset.elements] if res.charset else None,
            str(res.abs_dim_bound),
            res.diff_dim,
            res.degenerate,
        ])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_linear_reduce_traces_pinned():
    # traces with certificates, charsets and bounds of a seeded corpus; a
    # change to the arithmetic must reproduce them exactly
    assert _linear_reduce_digest(2027, 120) == "cd95d9a6ffa4f31660db24a50f6663d5d1d29338c63b0353041fb9aeb72ec304"


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
        try:
            res = linear_reduce(sys_)
        except InconsistentSystem as e:
            out.append(["inconsistent", e.text])
            continue
        out.append([
            res.trace.to_json(),
            [render(p) for p in res.charset.elements] if res.charset else None,
            str(res.abs_dim_bound),
            res.diff_dim,
            res.degenerate,
        ])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_wide_traces_pinned():
    # weak and strong matrices and J-sequences of wide systems, from
    # linear_reduce and from scripted divisions, exactly as recorded
    assert _wide_digest(2031, 120) == "721a3d31f9eedcf61de5ffc67e0fe102aa9bb79fd599d6172d9f5ed3066a15d5"
