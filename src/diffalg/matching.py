"""Bipartite matching with Hall certificates, and one search for the
perfect matchings of a square graph (lexicographic enumeration with
polynomial delay; its first element answers the tropical layer's lex-least
questions, the whole list its witness questions).  The tropical layer calls
perfect_matchings; hall_matching has no caller in the program: the tests
and the benchmark's tracer (bench/tracer.py) read it.  The paper's
regular decomposition and directed-cycle construction live with the tests
(tests/helpers.py)."""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalInvariantViolation


class BipartiteMultigraph(namedtuple("BipartiteMultigraph", "left right edges")):
    """Left vertices 0..left-1, right vertices 0..right-1, edges a multiset
    ((l, r), ...) with repetitions allowed."""

    __slots__ = ()

    def __new__(cls, left, right, edges):
        for l, r in edges:
            if not (0 <= l < left and 0 <= r < right):
                raise ValueError("edge (%d, %d) out of range" % (l, r))
        return super().__new__(cls, left, right, edges)

    def adjacency(self):
        adj = [set() for _ in range(self.left)]
        for l, r in self.edges:
            adj[l].add(r)
        return adj


class Matching(namedtuple("Matching", "pairs")):
    """pairs is ((l, r), ...), left-saturating, sorted by l."""

    __slots__ = ()


class HallViolation(namedtuple("HallViolation", "left_set neighborhood")):
    """A left set S with |N(S)| < |S|, witnessing that no matching exists."""

    __slots__ = ()


def _augment(adj, match_r, u, seen):
    for v in adj[u]:
        if v in seen:
            continue
        seen.add(v)
        if match_r[v] is None or _augment(adj, match_r, match_r[v], seen):
            match_r[v] = u
            return True
    return False


def hall_matching(graph: BipartiteMultigraph):
    """A left-saturating matching, or the violating set certificate.

    Kuhn augmenting paths; on failure from vertex u the left vertices
    reachable by alternating paths form the Hall violator."""
    adj = graph.adjacency()
    match_r = [None] * graph.right
    for u in range(graph.left):
        seen = set()
        if not _augment(adj, match_r, u, seen):
            # alternating tree from u: lefts matched into `seen`, plus u
            left_set = {u} | {match_r[v] for v in seen}
            nbhd = set()
            for l in left_set:
                nbhd |= adj[l]
            if len(nbhd) >= len(left_set):
                raise InternalInvariantViolation(
                    "alternating tree %r is no Hall violator in %r" % (sorted(left_set), graph)
                )
            return HallViolation(tuple(sorted(left_set)), tuple(sorted(nbhd)))
    pairs = tuple(sorted((u, v) for v, u in enumerate(match_r) if u is not None))
    return Matching(pairs)


def perfect_matchings(adj):
    """Every perfect matching of a square bipartite graph, as rho tuples with
    rho[i] the right vertex of left vertex i, in lexicographic order; the
    first is the lexicographically least.  adj[i] lists the right neighbours
    of i in increasing order.

    From one Kuhn perfect matching, rows are fixed in turn, each trying its
    neighbours in increasing order.  Fixing row i to j takes j from the row
    k that held it; one augmenting-path search from k, with the fixed
    columns blocked, decides whether the fix can be completed.  A fix that
    passes always leads to a matching, so the delay between two matchings
    is polynomial (Uno's enumeration)."""
    n = len(adj)
    match_r = [None] * n
    for u in range(n):
        if not _augment(adj, match_r, u, set()):
            return
    if not n:
        yield ()
        return
    rho = [0] * n
    fixed = set()
    # stack[i]: row i's untried neighbours and a perfect matching that gives
    # rows < i their columns rho[:i], the set fixed while row i is on top
    stack = [(iter(adj[0]), match_r)]
    fresh = True  # the top row was just pushed, so its own column must pass
    while stack:
        i = len(stack) - 1
        cands, match_r = stack[-1]
        for j in cands:
            if j in fixed:
                continue
            k = match_r[j]
            m = match_r
            if k != i:
                m = match_r[:]
                m[j], m[match_r.index(i)] = i, None
                if not _augment(adj, m, k, fixed | {j}):
                    continue
            break
        else:
            if fresh:
                raise InternalInvariantViolation("row %d lost its column in %r" % (i, adj))
            stack.pop()
            if i:
                fixed.remove(rho[i - 1])
            continue
        rho[i] = j
        fresh = i + 1 < n
        if fresh:
            fixed.add(j)
            stack.append((iter(adj[i + 1]), m))
        else:
            yield tuple(rho)
