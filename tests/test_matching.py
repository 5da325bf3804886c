import itertools
import random

import pytest

from diffalg import (
    BipartiteMultigraph,
    HallViolation,
    Matching,
    decompose_regular,
    find_directed_cycle,
    hall_matching,
)
from diffalg.matching import lex_least_perfect_matching, perfect_matchings


def test_perfect_matching_found():
    g = BipartiteMultigraph(3, 3, ((0, 0), (0, 1), (1, 1), (2, 2)))
    m = hall_matching(g)
    assert isinstance(m, Matching)
    assert {l for l, _ in m.pairs} == {0, 1, 2}
    assert len({r for _, r in m.pairs}) == 3


def test_graph_rejects_edges_out_of_range():
    g = BipartiteMultigraph(left=2, right=3, edges=((1, 2),))
    assert (g.left, g.right, g.edges) == (2, 3, ((1, 2),))
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range"):
        BipartiteMultigraph(2, 3, ((0, 0), (0, 3)))
    with pytest.raises(ValueError, match=r"edge \(2, 0\) out of range"):
        BipartiteMultigraph(2, 3, ((2, 0),))


def test_hall_violation_certificate():
    # lefts 0,1,2 all crowd into rights {0,1}
    g = BipartiteMultigraph(3, 3, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)))
    m = hall_matching(g)
    assert isinstance(m, HallViolation)
    assert len(m.neighborhood) < len(m.left_set)
    adj = g.adjacency()
    nbhd = set()
    for l in m.left_set:
        nbhd |= adj[l]
    assert nbhd == set(m.neighborhood)


def test_violation_on_random_graphs():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        edges = tuple(
            (l, rng.randrange(n)) for l in range(n) for _ in range(rng.randint(0, 2))
        )
        m = hall_matching(BipartiteMultigraph(n, n, edges))
        if isinstance(m, HallViolation):
            adj = BipartiteMultigraph(n, n, edges).adjacency()
            nbhd = set()
            for l in m.left_set:
                nbhd |= adj[l]
            assert len(nbhd) < len(m.left_set)
        else:
            assert len(m.pairs) == n


def test_decompose_regular():
    # union of two permutations of 0..3 is 2-regular
    edges = tuple((i, i) for i in range(4)) + tuple((i, (i + 1) % 4) for i in range(4))
    parts = decompose_regular(BipartiteMultigraph(4, 4, edges), 2)
    assert len(parts) == 2
    from collections import Counter

    assert Counter(e for m in parts for e in m.pairs) == Counter(edges)
    for m in parts:
        assert len(m.pairs) == 4


def test_decompose_regular_rejects_irregular():
    with pytest.raises(ValueError):
        decompose_regular(BipartiteMultigraph(2, 2, ((0, 0), (0, 1), (1, 0))), 2)


def test_find_directed_cycle():
    assert find_directed_cycle([1, 2, 0]) == (0, 1, 2)
    assert find_directed_cycle([1, 0, 1]) == (0, 1)
    # tail 0 -> 1 leading into the loop 1 <-> 2
    assert find_directed_cycle([1, 2, 1]) == (1, 2)
    with pytest.raises(ValueError):
        find_directed_cycle([0, 1])
    with pytest.raises(ValueError):
        find_directed_cycle([5, 0])


def test_random_functional_graphs():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 9)
        succ = [rng.choice([v for v in range(n) if v != i]) for i in range(n)]
        cyc = find_directed_cycle(succ)
        assert len(cyc) >= 2 and len(set(cyc)) == len(cyc)
        for k, v in enumerate(cyc):
            assert succ[v] == cyc[(k + 1) % len(cyc)]


def _brute_perfect_matchings(adj):
    n = len(adj)
    return [rho for rho in itertools.permutations(range(n)) if all(rho[i] in adj[i] for i in range(n))]


def test_lex_least_and_all_perfect_matchings():
    rng = random.Random(77)
    empty = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        adj = [sorted(j for j in range(n) if rng.random() < 0.45) for _ in range(n)]
        brute = _brute_perfect_matchings(adj)
        assert list(perfect_matchings(adj)) == brute
        assert lex_least_perfect_matching(adj) == (brute[0] if brute else None)
        empty += not brute
    assert 0 < empty < 300
