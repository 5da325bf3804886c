import itertools
import random

import pytest

from diffalg import (
    FormCertificate,
    HypothesisFailure,
    NEG_INF,
    OrderMatrix,
    ResourceLimit,
    detect_first_form,
    detect_second_form,
    detect_third_form,
    normalize,
    order_matrix,
    parse_system,
    permute,
    ritt_compare,
    tdet,
    tdet_assignment,
    tdet_brute,
    to_first_form,
    to_second_form,
)
from diffalg.tropical import (
    Assignment,
    _alternating_distances,
    compose,
    inverse,
    minor,
    render_grid,
    weak_entries,
    weak_tdet,
)
from diffalg.generators import rand_matrix
from helpers import (
    all_cycles,
    assert_optimal,
    cyclic_sum,
    first_form_brute,
    identity_perm,
    ritt_key,
    second_form_brute,
    second_form_per_candidate,
    transversal_value,
)

INF = NEG_INF


# -- order matrices -----------------------------------------------------------


def test_order_matrix_conventions():
    ring, sys_ = parse_system("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    assert order_matrix(sys_, None, "weak").entries == ((1, 18), (0, 1))
    assert order_matrix(sys_, None, "strong").entries == ((1, 18), (INF, 1))
    with pytest.raises(ValueError, match="weak matrices have no -inf entries"):
        OrderMatrix(((1, INF),), "weak")
    with pytest.raises(ValueError, match="unknown convention 'both'"):
        OrderMatrix(((1,),), "both")
    with pytest.raises(ValueError, match="ragged"):
        OrderMatrix([[1, 2], [3]])


def test_order_matrix_is_a_normalized_value():
    m = OrderMatrix(entries=[[1, INF], [INF, 2]])
    assert (m.entries, m.convention, m.col_names) == (((1, INF), (INF, 2)), "strong", ())
    assert m == OrderMatrix(((1, INF), (INF, 2)), "strong", ()) and hash(m) == hash(OrderMatrix(m.entries))
    assert m != OrderMatrix(m.entries, col_names=("x", "y")) and m != m.entries
    assert OrderMatrix(((1, 0),), "weak") != OrderMatrix(((1, 0),), "strong")
    assert repr(OrderMatrix(((0,),), "weak", ("x",))) == (
        "OrderMatrix(entries=((0,),), convention='weak', col_names=('x',))"
    )


def test_form_certificate_and_assignment_values():
    c = FormCertificate(row_perm=(1, 0), col_perm=(0, 1), form="first")
    assert c.index == 0 and c == FormCertificate((1, 0), (0, 1), "first", 0)
    assert hash(c) == hash(FormCertificate((1, 0), (0, 1), "first"))
    assert c != FormCertificate((1, 0), (0, 1), "first", 1) and c != FormCertificate((1, 0), (0, 1), "second")
    assert repr(c) == "FormCertificate(row_perm=(1, 0), col_perm=(0, 1), form='first', index=0)"
    assert Assignment(INF) == (INF, None, None, None) and Assignment(value=3, v=(1,)).u is None
    assert repr(Assignment(3, (1,), (2,), (0,))) == "Assignment(value=3, u=(1,), v=(2,), rho=(0,))"


def test_result_records_are_immutable_values():
    import diffalg

    # per record: its fields in order, and the defaults of the trailing ones
    records = {
        "ReductionStep": ("kind dividend divisor var j_before j_after j_before_strong j_after_strong certificate "
                          "matrix_after_strong", {"certificate": None, "matrix_after_strong": None}),
        "Trace": ("steps j_sequence j_sequence_strong", {}),
        "LinearReduceResult": ("trace charset diff_dim abs_dim_bound j_initial degenerate peel_orders", {}),
        "CharSetResult": ("charset converged rounds multipliers", {"multipliers": ()}),
        "Matching": ("pairs", {}),
        "HallViolation": ("left_set neighborhood", {}),
        "RittPencil": ("ring ext_ring pivot_index var leader degree separant coseparant generator carried fresh", {}),
        "FormCertificate": ("row_perm col_perm form index", {"index": 0}),
    }
    for name, (fields, defaults) in records.items():
        cls = getattr(diffalg, name)
        fields = fields.split()
        values = {f: (i, f) for i, f in enumerate(fields)}
        a, b = cls(*values.values()), cls(**values)
        assert a == b and hash(a) == hash(b) and a is not b, name
        assert a != cls(**dict(values, **{fields[0]: "other"})), name
        assert [getattr(a, f) for f in fields] == list(values.values()), name
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, None)
        required = {f: v for f, v in values.items() if f not in defaults}
        assert {f: getattr(cls(**required), f) for f in defaults} == defaults, name


def test_validated_records_are_immutable_values(monkeypatch):
    import diffalg
    import diffalg.reduction as reduction
    from diffalg import AutoreducedSet, BipartiteMultigraph, Derivative, LinOp, Ranking, elimination, orderly

    ring = diffalg.DiffRing(["x", "y"])

    def P(text):
        return diffalg.parse_poly(text, ring)

    # per record: positional fields, and a value differing in the last field
    records = {
        Ranking: (("elim", ((1,), (0,))), ((0,), (1,))),
        BipartiteMultigraph: ((2, 3, ((1, 2), (1, 2))), ((1, 2),)),
        AutoreducedSet: (((P("x' - x"), P("y' - x")), orderly()), elimination([[0, 1]])),
        LinOp: ((ring, {0: P("x"), 1: ring.one()}), {0: P("x")}),
    }
    for cls, (args, other) in records.items():
        assert issubclass(cls, tuple) and cls.__slots__ == (), cls
        assert not {"__init__", "__eq__", "__hash__"} & set(vars(cls)), cls
        assert ("__repr__" in vars(cls)) == (cls is LinOp), cls
        a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
        assert a == b and a is not b and a != cls(*args[:-1], other), cls
        if cls is LinOp:  # coeffs is a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), cls
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(a, f, None)

    assert repr(Ranking("orderly")) == "Ranking(kind='orderly', blocks=())"
    assert repr(BipartiteMultigraph(2, 3, ((1, 2),))) == "BipartiteMultigraph(left=2, right=3, edges=((1, 2),))"
    assert repr(LinOp(ring, {1: ring.one(), 0: P("x"), 2: ring.zero()})) == "LinOp((1)*D + (x)*1)"
    assert LinOp(ring, {3: ring.zero()}).coeffs == {} and repr(LinOp(ring, {})) == "LinOp(0)"
    with pytest.raises(ValueError, match="unknown ranking kind 'lex'"):
        Ranking("lex")
    with pytest.raises(ValueError, match="variable repeated across blocks"):
        Ranking("elim", ((0,), (1, 0)))
    with pytest.raises(ValueError, match="variable 1 not covered by blocks"):
        Ranking("elim", ((0,),)).key(Derivative(1, 2))
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range"):
        BipartiteMultigraph(2, 3, ((0, 0), (0, 3)))
    with pytest.raises(ValueError, match="element 1 is not reduced w.r.t. element 0"):
        AutoreducedSet((P("x' - x"), P("x'' - x")), orderly())
    # no ranking lets two reduced elements share a leading variable, so the
    # check is reached only with the reduction test switched off
    monkeypatch.setattr(reduction, "is_reduced_wrt", lambda *args: True)
    with pytest.raises(diffalg.InternalInvariantViolation, match="share a leading variable"):
        AutoreducedSet((P("x' - x"), P("x'' - x")), orderly())


def test_column_order_follows_var_order():
    ring, sys_ = parse_system("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    assert order_matrix(sys_, ["y", "x"], "weak").entries == ((18, 1), (1, 0))


def test_render_grid():
    assert render_grid(((1, INF), (10, 2))) == " 1  ·\n10  2"


# -- tdet ---------------------------------------------------------------------


def test_tdet_paper_values():
    assert tdet(((1, 18), (0, 1))) == 18
    assert tdet(((1, 18), (INF, 1))) == 2
    assert tdet(((1, 2, 3), (1, 1, 1), (2, 1, 1))) == 6
    assert tdet(((1, 2, 3), (1, 1, 1), (1, 3, 4))) == 7


def test_tdet_witnesses():
    value, wits = tdet(((1, 0), (0, 1)), witnesses=True)
    assert value == 2 and wits == ((0, 1),)
    value, wits = tdet(((1, 1), (1, 1)), witnesses=True)
    assert value == 2 and set(wits) == {(0, 1), (1, 0)}
    value, wits = tdet(((INF, INF), (INF, INF)), witnesses=True)
    assert value == INF and wits == ()


def test_tdet_routes_agree_sampled():
    rng = random.Random(5)
    for _ in range(80):
        a = rand_matrix(rng, rng.randint(1, 6), p_inf=0.3)
        v, _ = tdet_brute(a)
        assert v == tdet_assignment(a).value
    assert tdet_assignment(((INF, 3), (INF, 1))).value == INF  # no finite transversal


def test_ragged_or_empty_matrices_raise():
    ragged = ((1, 2), (3, 4, 5))
    calls = [
        tdet,
        lambda m: tdet(m, witnesses=True),
        tdet_assignment,
        tdet_brute,
        normalize,
        detect_first_form,
        detect_second_form,
        detect_third_form,
        lambda m: ritt_compare(m, ((1, 2), (3, 4))),
        lambda m: ritt_compare(((1, 2), (3, 4)), m),
        lambda m: permute(m, (0, 1), (0, 1)),
        lambda m: minor(m, 0, 0),
        ritt_key,
        lambda m: transversal_value(m, (1, 0)),
        lambda m: cyclic_sum(m, (0, 1)),
    ]
    for bad, text in ((ragged, "ragged matrix"), ((), "empty matrix"), (((), ()), "empty matrix")):
        for call in calls:
            with pytest.raises(ValueError, match=text):
                call(bad)
    # a well-formed rectangular matrix keeps its answers
    assert not detect_first_form(((1, 2, 3), (4, 5, 6)))
    assert ritt_compare(((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (4, 5, 6))) == "equal"
    with pytest.raises(ValueError, match="square"):
        tdet(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError, match="square"):
        cyclic_sum(((1, 2, 3), (4, 5, 6)), (0, 1))
    assert permute(((1, 2, 3), (4, 5, 6)), (1, 0), (2, 0, 1)) == ((6, 4, 5), (3, 1, 2))
    assert minor(((1, 2, 3), (4, 5, 6)), 0, 1) == ((4, 6),)
    assert ritt_key(((1, 2, 3), (4, 0, 6))) == ((1, 4), (0, 2), (3, 6))


# -- transversals, cycles, permutations -----------------------------------------


def test_transversal_and_cycles():
    a = ((1, 2, 3), (1, 1, 1), (2, 1, 1))
    assert transversal_value(a, (2, 1, 0)) == 6
    assert cyclic_sum(a, (0, 2)) == 3 + 2
    # transversal value = cyclic sums + fixed diagonal entries
    assert cyclic_sum(a, (0, 2)) + a[1][1] == 6
    with pytest.raises(ValueError):
        cyclic_sum(a, (0,))
    with pytest.raises(ValueError):
        cyclic_sum(a, (0, 0))


def test_transversal_value_rejects_a_non_permutation():
    with pytest.raises(ValueError) as e:
        transversal_value(((1, 2), (3, 4)), (0, 0))
    assert str(e.value) == "not a permutation: (0, 0)"


def test_cyclic_sum_rejects_an_index_out_of_range():
    with pytest.raises(ValueError) as e:
        cyclic_sum(((1, 2), (3, 4)), (0, 2))
    assert str(e.value) == "cycle index out of range"


def test_compose_left_action():
    # (12)(13) = (132) in cycle notation, acting on the left
    t12, t13 = (1, 0, 2), (2, 1, 0)
    assert compose(t12, t13) == (2, 0, 1)


def test_permute_witness_law_exhaustive_n3():
    rng = random.Random(9)
    for _ in range(5):
        a = rand_matrix(rng, 3, p_inf=0.2)
        for sigma in itertools.permutations(range(3)):
            for tau in itertools.permutations(range(3)):
                b = permute(a, sigma, tau)
                for rho in itertools.permutations(range(3)):
                    moved = compose(inverse(tau), compose(rho, sigma))
                    assert transversal_value(b, moved) == transversal_value(a, rho)


# -- Ritt's ordering -------------------------------------------------------------


def test_ritt_compare():
    a = ((2, 0), (1, 3))
    b = ((1, 0), (2, 3))
    assert ritt_compare(a, b) == "equal"  # same sorted columns
    assert ritt_compare(((0, 0), (1, 3)), a) == "less"
    assert ritt_compare(a, ((0, 0), (1, 3))) == "greater"
    assert ritt_compare(((INF, 5), (0, 5)), ((0, 5), (0, 5))) == "less"
    with pytest.raises(ValueError):
        ritt_compare(a, ((1, 2, 3),))


def test_ritt_compare_agrees_with_ritt_key():
    # ritt_compare sorts only the columns that differ as they stand; its answer
    # is still the comparison of the two ritt_keys, in both directions
    rng = random.Random(61)
    flip = {"less": "greater", "greater": "less", "equal": "equal"}
    seen = {"one row": 0, "equal": 0, "reordered": 0, "other": 0, "-inf": 0}
    for _ in range(1500):
        n = rng.randint(1, 5)
        p_inf = rng.choice([0.0, 0.2, 0.5])
        a = rand_matrix(rng, n, hi=rng.choice([2, 9]), p_inf=p_inf)
        kind = rng.choice(list(seen)[:4])
        if kind == "one row":  # a form step replaces the divided row only
            i = rng.randrange(n)
            b = a[:i] + rand_matrix(rng, n, hi=9, p_inf=p_inf)[:1] + a[i + 1 :]
        elif kind == "equal":
            b = tuple(a)
        elif kind == "reordered":  # unequal columns, equal once sorted
            b = tuple(rng.sample(a, n))
        else:
            b = rand_matrix(rng, n, hi=9, p_inf=p_inf)
        ka, kb = ritt_key(a), ritt_key(b)
        want = "less" if ka < kb else "greater" if ka > kb else "equal"
        assert ritt_compare(a, b) == want and ritt_compare(b, a) == flip[want], (a, b)
        seen[kind] += 1
        seen["-inf"] += any(INF in row for row in a + b)
    assert min(seen.values()) >= 200, seen


# -- form detection ----------------------------------------------------------------


def test_detect_first_form():
    assert detect_first_form(((1, 0), (2, 1)))
    assert not detect_first_form(((5,),))  # n >= 2
    # the second-form J-increasing example is not in first form
    assert not detect_first_form(((1, 2, 3), (1, 1, 1), (2, 1, 1)))
    assert not detect_first_form(((INF, 0), (2, 1)))


def test_detect_second_form():
    assert detect_second_form(((2, 1, 3), (1, 1, 1), (3, 1, 1)))
    # the J-increasing example misses the inner-minor condition: its minor
    # has tdet 3 while the partial diagonal only sums to 2, which is exactly
    # why division was able to push J from 6 to 7
    assert not detect_second_form(((1, 2, 3), (1, 1, 1), (2, 1, 1)))
    assert not detect_second_form(((1, 0), (2, 5)))


def test_detect_third_form():
    # the column-cycled image of the second-form example above
    assert detect_third_form(((2, 3, 1), (1, 1, 1), (3, 1, 1)))
    # the second-form matrix itself is not: its third-form pattern
    # a31 + a12 + a23 = 5 falls short of tdet = 7
    assert not detect_third_form(((2, 1, 3), (1, 1, 1), (3, 1, 1)))
    assert not detect_third_form(((5,),))


# -- normalization ------------------------------------------------------------------


def test_to_first_form_simple():
    # max transversal 3+2 on the antidiagonal; its column-1 entry 2 sits
    # strictly below the column maximum 4
    a = ((4, 3), (2, 1))
    cert = to_first_form(a)
    out = cert.apply(a)
    assert detect_first_form(out)
    assert cert.col_perm[0] == 0  # column 1 never moves


def test_to_first_form_hypothesis_failure():
    # unique maximizing transversal hits the column-1 maximum: second-form case
    with pytest.raises(HypothesisFailure):
        to_first_form(((1, 3), (2, 1)))
    with pytest.raises(HypothesisFailure):
        to_first_form(((INF, 3), (2, 1)))  # single finite entry in column 1


def test_to_second_form_n2():
    cert = to_second_form(((2, 1), (2, 1)))
    assert cert.apply(((2, 1), (2, 1))) == ((2, 1), (2, 1))
    assert detect_second_form(cert.apply(((2, 1), (2, 1))))


def test_to_second_form_example():
    a = ((1, 3), (2, 1))
    cert = to_second_form(a)
    assert detect_second_form(cert.apply(a))
    assert cert.col_perm[0] == 0


def test_to_second_form_hypothesis_failure():
    with pytest.raises(HypothesisFailure):
        to_second_form(((4, 3), (2, 1)))  # first-form case


def test_forms_mutually_exclusive_on_normalization():
    rng = random.Random(21)
    hits = {"first": 0, "second": 0}
    for _ in range(150):
        n = rng.randint(2, 4)
        a = rand_matrix(rng, n, p_inf=0.15)
        if tdet(a) == INF or sum(1 for r in a if r[0] != INF) < 2:
            continue
        try:
            cert = to_first_form(a)
            hits["first"] += 1
            assert detect_first_form(cert.apply(a))
        except HypothesisFailure:
            cert = to_second_form(a)
            hits["second"] += 1
            assert detect_second_form(cert.apply(a))
    assert hits["first"] > 0 and hits["second"] > 0


def test_cycle_trick_sampled():
    # diagonal-maximal matrices bound every cyclic sum by the diagonal
    rng = random.Random(33)
    done = 0
    while done < 40:
        n = rng.randint(2, 5)
        a = rand_matrix(rng, n, p_inf=0.15)
        value, wits = tdet_brute(a)
        if value == INF:
            continue
        d = permute(a, inverse(wits[0]), identity_perm(n))
        assert sum(d[i][i] for i in range(n)) == value
        for cyc in all_cycles(n):
            assert cyclic_sum(d, cyc) <= sum(d[i][i] for i in cyc)
        done += 1


# -- duals, witnesses and normalizers against the brute-force oracle --------------


def test_assignment_potentials_are_optimal_duals():
    rng = random.Random(1102)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n, p_inf=rng.choice([0.0, 0.3]))
        sol = tdet_assignment(a)
        if sol.value == INF:
            assert sol.u is None and sol.v is None
            continue
        for i in range(n):
            for j in range(n):
                if a[i][j] != INF:
                    assert sol.u[i] + sol.v[j] >= a[i][j]
        assert sum(sol.u) + sum(sol.v) == sol.value


def test_row_maximum_start_cases():
    # tdet_assignment starts from u = the row maxima, v = 0, each row matched
    # to the first free column where it reaches its maximum; only the rows
    # left free augment.  Every case against the oracle, with its duals.
    cases = {
        "n = 1": ((4,),),
        "n = 1, no finite entry": ((INF,),),
        "a row of -inf": ((1, 2, 0), (INF, INF, INF), (0, 3, 1)),
        "all matched greedily": ((5, 1, INF), (0, 2, 1), (INF, 0, 7)),
        "ties in a row's maximum": ((3, 3, 1), (3, 3, 0), (2, 3, 3)),
        "all rows tied": ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
        "Hall fails, row maxima finite": ((1, INF, INF), (4, INF, INF), (0, 2, 5)),
        "Hall fails after augmenting": ((1, 2, INF), (3, 0, INF), (2, 1, INF)),
    }
    no_transversal = {
        "n = 1, no finite entry", "a row of -inf", "Hall fails, row maxima finite", "Hall fails after augmenting"
    }
    for name, a in cases.items():
        sol = tdet_assignment(a)
        assert_optimal(a, sol)
        assert (sol.value == INF) == (name in no_transversal), name
    # with every row's first maximum in a column of its own no row augments:
    # the starting duals and matching are the answer
    sol = tdet_assignment(cases["all matched greedily"])
    assert sol == Assignment(14, (5, 2, 7), (0, 0, 0), (0, 1, 2))
    # a tie sends row 1 past its first maximum, taken by row 0
    assert tdet_assignment(((3, 3, 1), (3, 3, 0), (0, 0, 2))).rho == (0, 1, 2)


def test_dual_certificates_match_brute():
    # The strong duals give the weak J (weak_tdet), and Assignment.take
    # hands a permuted matrix its optimal Assignment, against the factorial
    # oracle; take refuses a minor, a column out of range and a matrix
    # without a finite transversal.
    rng = random.Random(1106)
    seen = {"weak = strong": 0, "weak > strong": 0, "permuted": 0, "refused": 0}
    for p_inf in (0.0, 0.3, 0.6):
        for n in range(1, 9):
            for _ in range(2 if n >= 7 else 25):
                a = rand_matrix(rng, n, hi=rng.choice([1, 2, 9]), p_inf=p_inf)
                sol = tdet_assignment(a)
                weak = tdet_brute(weak_entries(a))[0]
                assert weak_tdet(a, sol) == weak, a
                seen["weak = strong" if weak == sol.value else "weak > strong"] += 1
                sigma, tau = rng.sample(range(n), n), rng.sample(range(n), n)
                refused = [(range(n), range(n))]
                if sol.value != INF:
                    assert_optimal(permute(a, sigma, tau), sol.take(sigma, tau))
                    seen["permuted"] += 1
                    refused = [(sigma[1:], tau[1:]), (sigma, tau[:-1] + [n])]
                for rows, cols in refused:
                    with pytest.raises(ValueError, match="take needs a permutation of the rows and one of the columns"):
                        sol.take(rows, cols)
                    seen["refused"] += 1
    assert min(seen.values()) >= 50, seen


def test_second_form_minors_from_one_pass(monkeypatch):
    # every candidate minor's tdet read off the alternating distances, and
    # normalize's second-form certificate equal to the per-candidate search's
    import diffalg.tropical as tropical_mod

    rng = random.Random(1108)
    seen = {"candidates": 0, "finite minors": 0, "second": 0, "index >= 2": 0}
    solved = []
    hungarian = tropical_mod.tdet_assignment

    def counted(*args):
        solved.append(args)
        return hungarian(*args)

    for p_inf in (0.0, 0.3, 0.6):
        for n in range(2, 9):
            for _ in range(2 if n >= 7 else 25):
                a = rand_matrix(rng, n, hi=rng.choice([2, 5, 9]), p_inf=p_inf)
                sol = hungarian(a)
                if sol.value == INF:
                    continue
                r = sol.rho.index(0)
                dist = _alternating_distances(a, sol, sol.rho, r)
                for i in range(n):
                    if i == r:
                        continue
                    j = sol.rho[i]
                    got = sol.value - sol.u[r] - sol.v[j] - dist[i] if dist[i] != float("inf") else INF
                    assert got == tdet_brute(minor(a, r, j))[0], (a, i)
                    seen["candidates"] += 1
                    seen["finite minors"] += got != INF
                monkeypatch.setattr(tropical_mod, "tdet_assignment", counted)
                try:
                    cert, _ = normalize(a, sol)
                except HypothesisFailure:
                    continue
                finally:
                    monkeypatch.setattr(tropical_mod, "tdet_assignment", hungarian)
                assert solved == [], (a, solved)
                if cert.form == "second":
                    assert cert == second_form_per_candidate(a), a
                    seen["second"] += 1
                    seen["index >= 2"] += cert.index >= 2
    assert min(seen.values()) >= 10, seen


def test_tdet_witnesses_match_brute_in_order():
    rng = random.Random(1103)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n, hi=rng.choice([1, 2, 9]), p_inf=rng.choice([0.0, 0.2, 0.5]))
        assert tdet(a, witnesses=True) == tdet_brute(a)


def test_witness_limit():
    value, wits = tdet(tuple((0,) * 8 for _ in range(8)), witnesses=True)
    assert value == 0 and len(wits) == 40320 and wits[0] == tuple(range(8))
    with pytest.raises(ResourceLimit):
        tdet(tuple((0,) * 9 for _ in range(9)), witnesses=True)
    # past n = 8 without a witness explosion: the cyclic system's matrix
    cyc = tuple(tuple(1 if j == i else (0 if j == (i + 1) % 9 else INF) for j in range(9)) for i in range(9))
    assert tdet(cyc, witnesses=True) == (9, (tuple(range(9)),))


def test_normalizers_match_brute_reference():
    rng = random.Random(1104)
    seen = {"first": 0, "second": 0, "failure": 0, "second index >= 2": 0}
    for trial in range(600):
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n, hi=rng.choice([2, 5, 9]), p_inf=rng.choice([0.0, 0.15, 0.3, 0.5]))
        if trial % 3 == 0:
            c = rng.randint(0, 5)
            a = tuple((c,) + row[1:] for row in a)
        for fast, slow in ((to_first_form, first_form_brute), (to_second_form, second_form_brute)):
            try:
                expected = slow(a)
            except HypothesisFailure as e:
                with pytest.raises(HypothesisFailure) as got:
                    fast(a)
                assert str(got.value) == str(e)
                seen["failure"] += 1
                continue
            assert fast(a) == expected, a
            seen[expected.form] += 1
            if expected.form == "second" and expected.index >= 2:
                seen["second index >= 2"] += 1  # a candidate was skipped
    assert min(seen.values()) >= 50, seen


def test_normalize_matches_brute_reference():
    # the first form when its brute oracle succeeds, else the second form's
    rng = random.Random(1105)
    seen = {"first": 0, "second": 0, "failure": 0, "n >= 7": 0}
    detectors = {"first": detect_first_form, "second": detect_second_form}
    for trial in range(300):
        n = rng.randint(7, 8) if trial % 30 == 0 else rng.randint(2, 6)
        a = rand_matrix(rng, n, hi=rng.choice([2, 5, 9]), p_inf=rng.choice([0.0, 0.15, 0.3, 0.5]))
        if trial % 3 == 0:
            c = rng.randint(0, 5)
            a = tuple((c,) + row[1:] for row in a)
        try:
            try:
                expected = first_form_brute(a)
            except HypothesisFailure:
                expected = second_form_brute(a)
        except HypothesisFailure as e:
            with pytest.raises(HypothesisFailure) as got:
                normalize(a)
            assert str(got.value) == str(e)
            seen["failure"] += 1
            continue
        cert, out = normalize(a)
        assert cert == expected, a
        assert out == cert.apply(a) and detectors[cert.form](out)
        seen[cert.form] += 1
        seen["n >= 7"] += n >= 7
    assert min(seen.values()) >= 5, seen


def test_normalize_reads_the_same_answer_off_any_optimal_assignment():
    # the memo keeps whichever optimal Assignment a matrix was first solved
    # to, so normalize's certificate and matrix must not depend on the duals.
    # A cold solve's v is the least nonnegative optimal one in any row and
    # column order, so a permuted copy alone gives the same duals back; its
    # columns raised by c_j keep the maximizing transversals and move the
    # duals.  Compare a cold solve with such a copy's, taken back by take
    # and its v lowered by c.
    rng = random.Random(31)
    forms, other_duals = [], 0
    for _ in range(600):
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n, hi=4, p_inf=0.3, finite_col0=rng.random() < 0.5)
        cold = tdet_assignment(a)
        if cold.rho is None:
            continue
        sigma, tau, c = rng.sample(range(n), n), rng.sample(range(n), n), [rng.randint(0, 4) for _ in range(n)]
        raised = permute(tuple(tuple(e + cj for e, cj in zip(row, c)) for row in a), sigma, tau)
        back = tdet_assignment(raised).take(inverse(sigma), inverse(tau))
        taken = Assignment(cold.value, back.u, tuple(vj - cj for vj, cj in zip(back.v, c)), back.rho)
        assert_optimal(a, taken)
        other = (taken.u, taken.v) != (cold.u, cold.v)
        other_duals += other
        try:
            got = normalize(a, cold)
        except HypothesisFailure:
            with pytest.raises(HypothesisFailure):
                normalize(a, taken)
            continue
        assert normalize(a, taken) == got, a
        forms.append((got[0].form, other))
    assert other_duals >= 300 and forms.count(("first", True)) >= 100 and forms.count(("second", True)) >= 200, forms
