"""Ritt division with exact certificates, autoreduced sets, characteristic
set iteration, and the dimension bookkeeping on top of them.

Two division modes:
  partial: reduce until ord(r, v) <= ord(g, v); only separants are inverted.
  full:    reduce until ord(r, v) < ord(g, v), or equal order with strictly
           smaller leader degree; separants and initials are inverted.
Every division returns a certificate for the identity s*f = sum Q_i(g_i) + r.
After every step the remainder is divided by its positive rational content
(primitive remainders, as in Collins's and Brown's primitive remainder
sequences), so its coefficients stay coprime integers instead of growing
step by step.

A step replaces r by the primitive part of mult*r - co*G, summed in one
accumulator: G is the divisor or one of its derivatives, mult its separant
or initial, and co the degree-e slice of r in the eliminated derivative,
lowered by one power (separant) or by the divisor's leader degree (initial).
Each step logs its divisor, its order k, den*co and mult, where den is the
product of the contents divided out so far; after the last step one pass
back over the log forms S and the Q_i of S*f = sum Q_i(g_i) + den*r, which
are integral for integral f and g_i.  s = S/den and the quotients Q_i/den
are formed only when read.  Every division checks its certificate exactly:
S*f - sum_ik Q_ik * g_i^(k) - den*r is summed in one accumulator over exact
rationals and must be zero.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .diffpoly import (
    NEG_INF,
    POS_INF,
    Derivative,
    DiffPoly,
    LinOp,
    Ranking,
    _INT,
    _addmul,
    _canon,
    _integral,
    _poly,
    describe,
    orderly,
    render,
)
from .errors import InternalInvariantViolation, ResourceLimit


class InconsistentSystem(Exception):
    """A nonzero constant turned up as a remainder: the system has no zeros."""

    def __init__(self, constant):
        self.constant = constant
        self.text = describe(constant)
        super().__init__("nonzero constant remainder %s" % self.text)


class DivisionCertificate:
    """s*f = sum Q_i(g_i) + r for a division of f by the divisors g_i.

    s is a nonzero rational multiple of the product of the step multipliers
    (separants and initials of the divisors); after at least one step the
    remainder r is primitive (coprime integer coefficients).

    The certificate holds S*f = sum Q_i(g_i) + den*r, formed by ritt_divide
    from its step log: S is the product of the multipliers, and Q_i at D^k
    sums den*co of each step at (i, k) times the multipliers of the steps
    after it, den being the product of the contents divided out before the
    step.  S and the Q_i are integral for integral f and g_i.  s = S/den and
    the quotients Q_i/den are formed once, when first read; they equal
    dividing s and the quotients by every content as it arises.  verify
    checks the identity of S, the Q_i and den itself, with no denominators
    to clear: it sums S*f - sum Q_i(g_i) - den*r in one accumulator over
    exact rationals and tests it for zero.
    """

    def __init__(self, S, Q, remainder, den, mode, multipliers=()):
        self.S = S
        self.Q = Q  # one LinOp per divisor
        self.remainder = remainder
        self.den = den  # a positive int, or a Fraction for rational f or g_i
        self.mode = mode
        self.multipliers = multipliers  # the individual step multipliers, in step order

    @cached_property
    def s(self):
        return self.S if self.den == 1 else self.S * Fraction(1, self.den)

    @cached_property
    def quotients(self):
        if self.den == 1:
            return self.Q
        inv = Fraction(1, self.den)
        return tuple(LinOp(q.ring, {k: c * inv for k, c in q.coeffs.items()}) for q in self.Q)

    def verify(self, f: DiffPoly, divisors) -> bool:
        """Whether S*f - sum_ik Q_ik * g_i^(k) - den*r is zero, summed exactly
        in one accumulator."""
        return _identity_holds(self.S, self.Q, self.den, self.remainder, f, [[g] for g in divisors])

    def to_json(self):
        return {
            "s": render(self.s),
            "quotients": [
                sorted(((k, render(c)) for k, c in q.coeffs.items()), reverse=True)
                for q in self.quotients
            ],
            "remainder": render(self.remainder),
            "mode": self.mode,
        }


def _identity_holds(S, Q, den, r, f, chains):
    """Whether S*f - sum_ik Q_ik * g_i^(k) - den*r is zero, summed exactly in
    one accumulator.  chains[i] starts g_i, g_i', ...; it is extended in
    place as far as the Q_i need."""
    acc = _addmul({}, S, f)
    for q, chain in zip(Q, chains):
        for k, c in q.coeffs.items():
            while len(chain) <= k:
                chain.append(chain[-1].derive())
            _addmul(acc, c, chain[k], negate=True)
    _addmul(acc, r, f.ring.const(den), negate=True)
    return not any(acc.values())


def _primitive(p: DiffPoly):
    """(content, p / content).  The content is positive and rational: the gcd
    of the numerators over the lcm of the denominators, so p / content has
    coprime integer coefficients.  The zero polynomial has content 1."""
    t = p._packed
    vals = t.values()
    if _INT.issuperset(map(type, vals)):
        num, den = math.gcd(*vals), 1
    else:
        num = math.gcd(*(c.numerator for c in vals))
        den = math.lcm(*(c.denominator for c in vals))
    if num in (0, 1) and den == 1:
        return 1, p
    if den == 1:
        return num, _poly(p.ring, {m: c // num for m, c in t.items()})
    content = Fraction(num, den)
    return content, _poly(p.ring, {m: _integral(c / content) for m, c in t.items()})


def _violates(r, v, vg, dg, mode):
    rv = r.order_in(v)
    if rv == NEG_INF or rv < vg:
        return None
    if rv > vg:
        return int(rv)
    if mode == "partial":
        return None
    if r.deg_in(Derivative(v, vg)) >= dg:
        return vg
    return None


def ritt_divide(f: DiffPoly, divisors, mode="full", ranking: Ranking = None, var=None):
    """Divide f by one or several differential polynomials.

    With `var` given there must be exactly one divisor and reduction happens
    in that variable.  Otherwise each divisor reduces in the variable of its
    ranking leader; leading variables must be pairwise distinct.  Always the
    highest unreduced occurrence is eliminated next; the (occurrence, degree)
    measure must strictly drop at each step, and the certificate must verify,
    or InternalInvariantViolation is raised.
    """
    if mode not in ("partial", "full"):
        raise ValueError("unknown mode %r" % mode)
    divisors = list(divisors)
    if not divisors:
        raise ValueError("no divisors")
    for g in divisors:
        if not g or g.is_constant():
            raise ValueError("divisor must be non-constant")
    ring = f.ring
    if var is not None:
        if len(divisors) != 1:
            raise ValueError("explicit variable needs exactly one divisor")
        leads = [divisors[0].leader_in(var)]
        if leads[0] is None:
            raise ValueError("divisor does not involve the division variable")
    else:
        if ranking is None:
            ranking = orderly()
        # the ranking's leader is the top derivative of its own variable
        leads = [ranking.leader_degree(g) for g in divisors]
        if len({lg.var for lg, _ in leads}) != len(leads):
            raise ValueError("divisors must have distinct leading variables")

    info = []  # per divisor: g, its variable, order, leader degree, separant, initial
    for g, (lg, dg) in zip(divisors, leads):
        info.append((g, lg.var, lg.order, dg, g.partial(lg), g._lowered(lg, dg, dg)))

    chains = [[g] for g in divisors]  # g, g', g'', ... as far as a step needed
    log = []  # per step: divisor index, order k, den*co, multiplier
    den = 1
    r = f
    last_measure = None
    while True:
        best = None
        for i, (g, v, vg, dg, _, _) in enumerate(info):
            rv = _violates(r, v, vg, dg, mode)
            if rv is None:
                continue
            occ = Derivative(v, rv)
            key = ranking.key(occ) if ranking is not None else (rv,)
            if best is None or key > best[0]:
                best = (key, i, occ)
        if best is None:
            break
        key, i, occ = best
        g, v, vg, dg, separant, initial = info[i]
        e = r.deg_in(occ)
        measure = (key, e)
        if last_measure is not None and not measure < last_measure:
            raise InternalInvariantViolation(
                "division measure did not drop (%r after %r) dividing %s by %s at remainder %s"
                % (measure, last_measure, describe(f), [describe(d) for d in divisors], describe(r))
            )
        last_measure = measure
        # mult*r - co*G cancels the terms a*occ^e of r: G = g^(k) has the part
        # mult*occ in occ (separant, k > 0) or mult*occ^dg (initial, k = 0),
        # and co = a*occ^(e-1) or a*occ^(e-dg) is read off r's degree-e slice
        if occ.order > vg:
            k = occ.order - vg
            mult = separant
            co = r._lowered(occ, e, 1)
            chain = chains[i]
            while len(chain) <= k:
                chain.append(chain[-1].derive())
            G = chain[k]
        else:
            k = 0
            mult = initial
            co = r._lowered(occ, e, dg)
            G = g
        log.append((i, k, co if den == 1 else co * den, mult))
        # making r primitive moves its content c into den
        c, r = _primitive(_poly(ring, _canon(_addmul(_addmul({}, mult, r), co, G, negate=True))))
        den = den * c

    # S*f = sum Q_i(g_i) + den*r for S the product of the multipliers and Q_i
    # at D^k the sum, over the steps at (i, k), of den*co times the multipliers
    # of the later steps: one pass from the last step back forms both
    S = ring.one()
    quots = [{} for _ in divisors]
    for i, k, t, mult in reversed(log):
        q = quots[i]
        q[k] = q[k] + S * t if k in q else S * t
        S = mult * S
    cert = DivisionCertificate(S, tuple(LinOp(ring, q) for q in quots), r, den, mode, tuple(m for *_, m in log))
    # the check reads the derivatives the division already formed
    if not _identity_holds(S, cert.Q, den, r, f, chains):
        raise InternalInvariantViolation(
            "division identity s*f = sum Q_i(g_i) + r failed dividing %s by %s (%s mode): s = %s, r = %s"
            % (describe(f), [describe(d) for d in divisors], mode, describe(cert.s), describe(r))
        )
    return cert


def is_reduced_wrt(f: DiffPoly, g: DiffPoly, mode="full", ranking: Ranking = None) -> bool:
    """Whether f is already a valid remainder against g in g's leading variable."""
    if ranking is None:
        ranking = orderly()
    if not g or g.is_constant():
        raise ValueError("reference polynomial must be non-constant")
    ld, dg = ranking.leader_degree(g)
    return _violates(f, ld.var, ld.order, dg, mode) is None


class AutoreducedSet(namedtuple("AutoreducedSet", "elements ranking")):
    """Nonempty tuple of pairwise fully-reduced polynomials, strictly
    increasing in rank (leader key, leader degree) under the ranking."""

    __slots__ = ()

    def __new__(cls, elements, ranking):
        if not elements:
            raise ValueError("autoreduced set must be nonempty")
        for p in elements:
            if not p or p.is_constant():
                raise ValueError("autoreduced sets contain non-constants only")
        ranks = [ranking.rank(p) for p in elements]
        for a, b in zip(ranks, ranks[1:]):
            if not a < b:
                raise ValueError("elements must strictly increase in rank")
        for i, p in enumerate(elements):
            for j, q in enumerate(elements):
                if i != j and not is_reduced_wrt(p, q, "full", ranking):
                    raise ValueError("element %d is not reduced w.r.t. element %d" % (i, j))
        lvars = [ranking.leader(p).var for p in elements]
        if len(set(lvars)) != len(lvars):
            raise InternalInvariantViolation(
                "reduced elements share a leading variable: %s" % [describe(p) for p in elements]
            )
        return super().__new__(cls, elements, ranking)

    def leaders(self):
        return tuple(self.ranking.leader(p) for p in self.elements)

    def rank_vector(self):
        return tuple(self.ranking.rank(p) for p in self.elements)


def compare_autoreduced(a: AutoreducedSet, b: AutoreducedSet) -> int:
    """-1, 0, or 1 in the induced ordering.

    Lower rank at the first differing slot wins; with one rank vector a
    proper prefix of the other, the longer set is the lower one.
    """
    ra, rb = a.rank_vector(), b.rank_vector()
    for x, y in zip(ra, rb):
        if x < y:
            return -1
        if x > y:
            return 1
    if len(ra) > len(rb):
        return -1
    if len(ra) < len(rb):
        return 1
    return 0


def _minimal_autoreduced(basis, ranking):
    # order by (rank, render(p)), rendering only to break ties of rank; a tie
    # with a polynomial too long to render keeps basis order (sorts are stable)
    ranked = sorted(((ranking.rank(p), p) for p in basis), key=lambda rp: rp[0])
    ordered = []
    for _, group in itertools.groupby(ranked, key=lambda rp: rp[0]):
        group = [p for _, p in group]
        if len(group) > 1:
            try:
                group = sorted(group, key=render)
            except ResourceLimit:
                pass
        ordered.extend(group)
    # Each chosen q ranks no higher than p, so only p needs testing: a lower
    # leader puts every derivative of q below p's leader and its proper
    # derivatives, so q is reduced with respect to p; with equal leaders
    # p is not reduced with respect to q.
    chosen = []
    for p in ordered:
        if all(is_reduced_wrt(p, q, "full", ranking) for q in chosen):
            chosen.append(p)
    return chosen


class CharSetResult(namedtuple("CharSetResult", "charset converged rounds multipliers", defaults=((),))):
    """charset is an AutoreducedSet; converged is always true, since
    autoreduce_loop raises ResourceLimit at its round cap."""

    __slots__ = ()


MAX_ROUNDS = 64


def autoreduce_loop(generators, ranking: Ranking = None) -> CharSetResult:
    """Ritt-Wu style characteristic set iteration without case splitting.

    Each round: take a minimal autoreduced subset of the basis, fully reduce
    the rest against it, adjoin nonzero remainders.  A nonzero constant
    remainder (or generator) raises InconsistentSystem.  The chosen
    autoreduced set must strictly decrease in the induced ordering whenever
    the basis changes.  A run still adjoining remainders after MAX_ROUNDS
    rounds raises ResourceLimit naming the last chosen set, so converged is
    always true in a returned result.
    """
    if ranking is None:
        ranking = orderly()
    basis = [g for g in generators if g]
    if not basis:
        raise ValueError("no nonzero generators")
    for g in basis:
        if g.is_constant():
            raise InconsistentSystem(g)

    mults = []
    prev = None
    for rounds in range(1, MAX_ROUNDS + 1):
        chosen = _minimal_autoreduced(basis, ranking)
        aset = AutoreducedSet(tuple(chosen), ranking)
        if prev is not None and not compare_autoreduced(aset, prev) < 0:
            raise InternalInvariantViolation(
                "induced ordering did not drop in round %d: %s after %s"
                % (rounds, [describe(p) for p in chosen], [describe(p) for p in prev.elements])
            )
        rest = [p for p in basis if not any(p is q for q in chosen)]
        new = []
        for p in rest:
            cert = ritt_divide(p, chosen, "full", ranking)
            for m in cert.multipliers:
                if not m.is_constant() and m not in mults:
                    mults.append(m)
            r = cert.remainder
            if not r:
                continue
            if r.is_constant():
                raise InconsistentSystem(r)
            new.append(r)
        if not new:
            return CharSetResult(aset, True, rounds, tuple(mults))
        basis = chosen + new
        prev = aset
    raise ResourceLimit(
        "characteristic set iteration did not converge in %d rounds; last chosen set %s"
        % (MAX_ROUNDS, [describe(p) for p in aset.elements])
    )


def membership(f: DiffPoly, charset: AutoreducedSet) -> bool:
    """Zero full remainder against the characteristic set."""
    if not f:
        return True
    return not ritt_divide(f, charset.elements, "full", charset.ranking).remainder


def dimensions(charset: AutoreducedSet, nvars=None):
    """(differential dimension, absolute dimension bound).

    diff dim = n - s for s elements over n variables; the order bound is the
    sum of the leader orders when s = n, and +inf otherwise.
    """
    n = charset.elements[0].ring.nvars if nvars is None else nvars
    s = len(charset.elements)
    if s > n:
        raise ValueError("more elements than variables")
    diff_dim = n - s
    if s == n:
        bound = sum(ld.order for ld in charset.leaders())
    else:
        bound = POS_INF
    return diff_dim, bound


def elimination_project(charset: AutoreducedSet, keep) -> AutoreducedSet:
    """Restrict to the polynomials supported entirely on the kept block.

    The ranking must be a block elimination ranking whose lowest block is
    exactly the kept variables; the kept polynomials must form a prefix.
    """
    ring = charset.elements[0].ring
    keep_idx = tuple(ring.var_index(v) for v in keep)
    rk = charset.ranking
    if rk.kind != "elim" or set(rk.blocks[0]) != set(keep_idx):
        raise ValueError("ranking's lowest block must equal the kept variables")
    inside = [all(v in keep_idx for v in p.variables()) for p in charset.elements]
    cut = sum(inside)
    if not all(inside[:cut]) or any(inside[cut:]):
        raise ValueError("kept polynomials do not form a prefix")
    if cut == 0:
        raise ValueError("no polynomial lies in the kept block")
    return AutoreducedSet(charset.elements[:cut], rk)
