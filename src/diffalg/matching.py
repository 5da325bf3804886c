"""Bipartite matching with Hall certificates, regular decompositions, the
lexicographically least perfect matching and the enumeration of all perfect
matchings of a square graph (the tropical layer's witness questions), and
the paper's directed-cycle construction, which no other module calls."""

from __future__ import annotations

from collections import Counter, namedtuple

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

    def degrees(self):
        dl = [0] * self.left
        dr = [0] * self.right
        for l, r in self.edges:
            dl[l] += 1
            dr[r] += 1
        return dl, dr


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


def decompose_regular(graph: BipartiteMultigraph, k: int):
    """Split a k-regular bipartite multigraph into k perfect matchings."""
    dl, dr = graph.degrees()
    for side, degs in (("left", dl), ("right", dr)):
        for v, d in enumerate(degs):
            if d != k:
                raise ValueError("%s vertex %d has degree %d, expected %d" % (side, v, d, k))
    if graph.left != graph.right:
        raise ValueError("regularity forces equal sides")
    remaining = Counter(graph.edges)
    out = []
    for _ in range(k):
        sub = BipartiteMultigraph(graph.left, graph.right, tuple(remaining.elements()))
        m = hall_matching(sub)
        if isinstance(m, HallViolation):
            raise InternalInvariantViolation("regular graph lost a perfect matching: %r in %r" % (m, graph))
        out.append(m)
        for e in m.pairs:
            remaining[e] -= 1
    if sum(remaining.values()):
        raise InternalInvariantViolation("edges left after %d matchings of %r" % (k, graph))
    return out


def lex_least_perfect_matching(adj):
    """The lexicographically least perfect matching of a square bipartite
    graph, as rho with rho[i] the right vertex of left vertex i; None when
    there is none.  adj[i] lists the right neighbours of i in increasing
    order.

    Rows are fixed greedily: row i takes its least neighbour j such that the
    remaining rows can still be matched.  With a perfect matching at hand,
    that check is one augmenting-path search from the row that held j, with
    the columns already fixed blocked."""
    n = len(adj)
    match_r = [None] * n
    for u in range(n):
        if not _augment(adj, match_r, u, set()):
            return None
    col = [0] * n
    for v, u in enumerate(match_r):
        col[u] = v
    fixed = set()
    for i in range(n):
        for j in adj[i]:
            if j in fixed:
                continue
            k = match_r[j]
            if k == i:
                break
            c0 = col[i]
            match_r[j], match_r[c0] = i, None
            if _augment(adj, match_r, k, fixed | {j}):
                break
            match_r[j], match_r[c0] = k, i
        else:
            raise InternalInvariantViolation("row %d lost its column in %r" % (i, adj))
        fixed.add(j)
        for v, u in enumerate(match_r):
            col[u] = v
    return tuple(col)


def perfect_matchings(adj):
    """Every perfect matching of a square bipartite graph (adjacency lists in
    increasing order), as rho tuples in lexicographic order.

    Depth-first over rows; a set of used right vertices from which the
    remaining rows cannot be completed is remembered, so dead ends are
    explored once."""
    n = len(adj)
    rho = [0] * n
    dead = set()

    def walk(i, used):
        if i == n:
            yield tuple(rho)
            return
        if used in dead:
            return
        found = False
        for j in adj[i]:
            bit = 1 << j
            if not used & bit:
                rho[i] = j
                for m in walk(i + 1, used | bit):
                    found = True
                    yield m
        if not found:
            dead.add(used)

    return walk(0, 0)


def find_directed_cycle(successor):
    """A directed cycle in an out-degree-one digraph without self-loops.

    `successor` is a sequence with successor[i] the unique out-neighbour of
    i.  Walk from the smallest vertex; the first repeat closes the cycle.
    The paper's directed-cycle construction, kept as such."""
    n = len(successor)
    for i, s in enumerate(successor):
        if not 0 <= s < n:
            raise ValueError("successor of %d out of range" % i)
        if s == i:
            raise ValueError("self-loop at %d" % i)
    walk = [0]
    pos = {0: 0}
    while True:
        nxt = successor[walk[-1]]
        if nxt in pos:
            return tuple(walk[pos[nxt]:])
        pos[nxt] = len(walk)
        walk.append(nxt)
