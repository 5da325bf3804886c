"""Ritt division with certificates, autoreduced sets, characteristic
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

Every step has one form.  It eliminates the degree-e terms of r in the
highest unreduced derivative x_v^(o) against the divisor g of order og in v:
with k = o - og, it replaces r by the primitive part of mult*r - co*g^(k),
where g^(k) is read off g's derivative chain g, g', g'', ... (grown as far
as a step needs, and kept on g for the next division by it), mult is g's
separant for k > 0 and its initial for k = 0, and co is r's degree-e slice
lowered by one power (k > 0) or by g's leader degree d (k = 0).  Two of
its products cancel term for term: mult times that slice, and co times the
leading part lead of g^(k), mult*x_v^(o) for k > 0 and mult*x_v^(o)^d for
k = 0.  So the step sums mult*(r - slice) - co*(g^(k) - lead) in one
accumulator: one pass over r gives co and the rest of r, and g^(k) - lead
is kept on g beside its multipliers.  Each step logs its divisor, k,
den*co and mult, where den is the product of the contents divided out so
far.  The certificate is S*f = sum Q_i(g_i) + den*r: S is the product of
the multipliers, and Q_i at D^k sums, over the steps at (i, k), den*co
times the multipliers of the later steps.  S and the Q_i are integral for integral f and g_i.

Every division checks its step log by a replay modulo the prime 2^61 - 1:
f, r, each g_i^(k) and multiplier, and each step's den*co are evaluated at
one fixed point (diffpoly._residue), each value read from the polynomial's
own cache once computed, so a divisor's chain entries and multipliers, kept
on the divisor, are evaluated once across all divisions by it; the pass from
the last step back sums the Q_ik * g_i^(k) on those values, and
S*f - sum Q_ik * g_i^(k) - den*r must vanish.  A false identity made
without regard to the point passes with probability at most its degree over
the prime (Schwartz 1980; Zippel 1979), unless the prime divides all its
coefficients.  S and the Q_i are formed only when read, by the same
backward pass on polynomials, one accumulator per (i, k); forming them
checks the identity exactly, summing
S*f - sum_ik Q_ik * g_i^(k) - den*r over exact rationals in one accumulator,
applying each Q_i to the division's own chains, and it must be zero.  A
division whose values cannot be read mod the prime (den or a denominator
that is 0 mod 2^61 - 1) forms them at once.  s = S/den and the quotients
Q_i/den are formed from them when read.

A full-mode division of a linear f by linear divisors goes through a kernel
of its own, _linear_divide, which ritt_divide picks from its operands, so no
caller names it; it takes exactly the steps above and returns the same
certificate.  A polynomial of total degree at most 1 has constant
coefficients, and its packed term dict is its row over Q[D]: the monomial of
x_v^(k) holds that coefficient, the monomial 0 the constant, and D^k g is g
with every derivative moved k orders up and its constant dropped (k > 0).
A divisor's separant and initial are both its leading coefficient
lc, a number, so a step is r <- prim(lc*r - a*D^k g) on term dicts, with a
the coefficient of the eliminated derivative, and no derivative chain is
formed.  S and the Q_ik are then numbers, so the kernel checks
S*f - sum_ik Q_ik * D^k g_i - den*r = 0 exactly on the term dicts, at the
cost of numbers times shifted rows, in place of the probabilistic replay.
Its one step log holds each den*a as a number, which that check reads, and
the divisor's leading coefficient as one constant polynomial per divisor
that takes a step.
The certificate forms the constants of the den*a, S and the Q_i as
polynomials, and checks them on the divisors' derivative chains, only when
S or the Q_i are read.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .diffpoly import (
    FIELD_BITS,
    POS_INF,
    PRIME,
    Derivative,
    DiffPoly,
    LinOp,
    Ranking,
    _addmul,
    _apply,
    _canon,
    _is_linear,
    _linear_at,
    _linear_poly,
    _linear_step,
    _linear_terms,
    _linear_word,
    _nth,
    _pairs,
    _poly,
    _primitive,
    _ratmod,
    _render_cmp,
    _renderable,
    _residue,
    _submul,
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

    The certificate holds S*f = sum Q_i(g_i) + den*r.  Its one constructor,
    DivisionCertificate(f, chains, log, remainder, den, mode), called by
    ritt_divide, keeps f, the derivative chains and the step log instead of S
    and the Q_i; ritt_divide checks the log by the replay of the module
    docstring.  S and the Q_i are formed from the log when first read, and
    checked exactly, and then f, the chains and the log are dropped.
    s = S/den and the quotients Q_i/den are formed once, when first read;
    they equal dividing s and the quotients by every content as it arises.
    verify checks the identity of S, the Q_i and den itself, with no
    denominators to clear.
    """

    def __init__(self, f, chains, log, remainder, den, mode):
        self._f, self._chains, self._log = f, chains, log
        self.remainder = remainder
        self.den = den  # a positive int, or a Fraction for rational f or g_i
        self.mode = mode
        self.multipliers = tuple([step[3] for step in log])  # the step multipliers, in step order

    @cached_property
    def _formed(self):
        """(S, Q) by one pass from the last logged step back (module
        docstring), adding S*den*co into the accumulator of the step's (i, k),
        then the exact check on the chains the division formed."""
        f, chains, den, r = self._f, self._chains, self.den, self.remainder
        ring = f.ring
        S = ring.one()
        accs = [{} for _ in chains]
        for i, k, t, mult in reversed(self._log):
            if not isinstance(t, DiffPoly):  # a number, logged by the linear kernel
                t = ring.const(t)
            _addmul(accs[i].setdefault(k, {}), S, t)
            S = mult * S
        Q = tuple(LinOp(ring, {k: _poly(ring, _canon(a)) for k, a in q.items()}) for q in accs)
        if not _identity_holds(S, Q, den, r, f, chains):
            raise _violation(f, chains, self.mode, "s = %s, r = %s" % (describe(S * Fraction(1, den)), describe(r)))
        del self._f, self._chains, self._log
        return S, Q

    @property
    def S(self):
        return self._formed[0]

    @property
    def Q(self):
        return self._formed[1]

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
        """Whether S*f = sum Q_i(g_i) + den*r holds exactly (see _identity_holds)."""
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


def _violation(f, chains, mode, detail):
    return InternalInvariantViolation(
        "division identity s*f = sum Q_i(g_i) + r failed dividing %s by %s (%s mode): %s"
        % (describe(f), [describe(c[0]) for c in chains], mode, detail)
    )


def _identity_holds(S, Q, den, r, f, chains):
    """Whether S*f - sum_ik Q_ik * g_i^(k) - den*r is zero, summed exactly in
    one accumulator.  chains[i] starts g_i, g_i', ...; it is extended in
    place as far as the Q_i need."""
    acc = _addmul({}, S, f)
    for q, chain in zip(Q, chains):
        _apply(acc, q.coeffs, chain, negate=True)
    _addmul(acc, r, f.ring.const(den), negate=True)
    return not any(acc.values())


def _replay_holds(f, chains, log, r, den):
    """Whether S*f - sum_ik Q_ik * g_i^(k) - den*r is 0 mod PRIME at the point
    of diffpoly._residue: the backward pass over the log on values, each
    polynomial's value read from its cache after the first.  Raises
    ZeroDivisionError when den or a denominator is 0 mod PRIME."""
    S, total = 1, 0
    for i, k, t, mult in reversed(log):
        total = (total + S * _residue(t) * _residue(chains[i][k])) % PRIME
        S = S * _residue(mult) % PRIME
    dv = _ratmod(den)
    if not dv:
        raise ZeroDivisionError("den is 0 mod PRIME")
    return (S * _residue(f) - total - dv * _residue(r)) % PRIME == 0


def _violates(r, v, vg, dg, mode):
    """(order, degree) of r's top derivative in v when it is not reduced
    against a divisor of order vg and leader degree dg in v, else None."""
    top = r._top(v)
    if top is None or top[0] < vg:
        return None
    if top[0] > vg or mode != "partial" and top[1] >= dg:
        return top
    return None


def _leads(f, divisors, ranking, var):
    """(divisors as a list, [(leader, degree) per divisor], [key prefix per
    divisor]) of a division of f: with var given, the one divisor's top
    derivative in var and prefix None, so a candidate x_v^(o) compares as
    (o,); otherwise each divisor's leader under the ranking (orderly when
    None) and its variable's Ranking._prefix pre, so x_v^(o) compares as
    pre + (o, v), its Ranking.key.  ValueError for what ritt_divide refuses,
    a divisor of another ring than f's among it."""
    divisors = list(divisors)
    if not divisors:
        raise ValueError("no divisors")
    for g in divisors:
        f._coerce(g)  # equal rings pass, mixed rings raise
        if not g or g.is_constant():
            raise ValueError("divisor must be non-constant")
    if var is not None:
        if len(divisors) != 1:
            raise ValueError("explicit variable needs exactly one divisor")
        leads = [divisors[0].leader_in(var)]
        if leads[0] is None:
            raise ValueError("divisor does not involve the division variable")
        return divisors, leads, [None]
    if ranking is None:
        ranking = orderly()
    leads = [ranking.leader_degree(g) for g in divisors]
    if len({lg.var for lg, _ in leads}) != len(leads):
        raise ValueError("divisors must have distinct leading variables")
    return divisors, leads, [ranking._prefix(lg.var) for lg, _ in leads]


def _no_drop(measure, last, f, divisors, r):
    return InternalInvariantViolation(
        "division measure did not drop (%r after %r) dividing %s by %s at remainder %s"
        % (measure, last, describe(f), [describe(d) for d in divisors], describe(r))
    )


# Term pairs the steps of one division may form in all (mult*rest and
# co*tail; the linear kernel keeps no tally).  The largest division of a
# charset-nonlinear round forms 825 at seed 1 (2,420 at seed 7, 3,264 at
# seed 97); that of a prototype of ROADMAP's membership gate 1.13 M, 3.7
# times below this.  The swelling division in CI forms 11.9 M before its
# remainder passes MAX_TERMS.
MAX_DIVISION_PAIRS = 1 << 22


def ritt_divide(f: DiffPoly, divisors, mode="full", ranking: Ranking = None, var=None):
    """Divide f by one or several differential polynomials.

    With `var` given there must be exactly one divisor and reduction happens
    in that variable.  Otherwise each divisor reduces in the variable of its
    ranking leader; leading variables must be pairwise distinct.  Always the
    highest unreduced occurrence is eliminated next; the (occurrence, degree)
    measure must strictly drop at each step, and the replay of the step log
    must hold (module docstring), or InternalInvariantViolation is raised.
    A step whose remainder passes MAX_TERMS terms, or whose products would
    bring the term pairs formed by the division's steps past
    MAX_DIVISION_PAIRS, raises ResourceLimit.  In full mode, linear f and
    divisors divide by the linear kernel, whose steps cannot swell.
    """
    if mode not in ("partial", "full"):
        raise ValueError("unknown mode %r" % mode)
    divisors, leads, pres = _leads(f, divisors, ranking, var)
    if mode == "full" and all(map(_is_linear, divisors)) and _is_linear(f):
        return _linear_divide(f, divisors, leads, pres)
    ring = f.ring

    # per divisor: its key prefix, variable, order, leader degree, separant,
    # initial, and chain entries without their leading parts (DiffPoly._leading)
    info = [(pre, lg.var, lg.order, dg, *g._leading(lg)) for g, (lg, dg), pre in zip(divisors, leads, pres)]

    # g, g', g'', ... as far as a step needed: the division's own lists,
    # started from each divisor's cached chain
    chains = [[g, *g._chain] for g in divisors]
    log = []  # per step: divisor index, order k, den*co, multiplier
    den = 1
    r = f
    last_measure = None
    pairs = 0  # term pairs formed by the steps' products so far
    while True:
        best = None
        for i, (pre, v, vg, dg, _, _, _) in enumerate(info):
            top = _violates(r, v, vg, dg, mode)
            if top is not None:
                key = pre + (top[0], v) if pre is not None else (top[0],)
                if best is None or key > best[0]:
                    best = (key, i, top)
        if best is None:
            break
        key, i, (o, e) = best
        _, v, vg, dg, separant, initial, tails = info[i]
        occ = Derivative(v, o)
        measure = (key, e)
        if last_measure is not None and not measure < last_measure:
            raise _no_drop(measure, last_measure, f, divisors, r)
        last_measure = measure
        # mult*r - co*G cancels the terms a*occ^e of r: G = g^(k) has the
        # leading part lead = mult*occ^low, low = 1 for the separant (k > 0)
        # and dg for the initial (k = 0), and co = a*occ^(e-low) comes off
        # r's degree-e slice in the pass that leaves the rest of r; as
        # mult*slice = co*lead, the step forms mult*rest - co*(G - lead)
        k = o - vg
        mult, low = (separant, 1) if k else (initial, dg)
        co, rest = r._split(occ, e, low)
        G = _nth(chains[i], k)  # the replay reads it too
        tail = tails.get(k)
        if tail is None:
            tail = tails[k] = G._split(occ, low, low)[1]
        pairs += _pairs(mult, rest) + _pairs(co, tail)
        if pairs > MAX_DIVISION_PAIRS:
            raise ResourceLimit(
                "division passes the cap MAX_DIVISION_PAIRS = %d term pairs in step %d"
                % (MAX_DIVISION_PAIRS, len(log) + 1)
            )
        log.append((i, k, co if den == 1 else co * den, mult))
        # making r primitive moves its content c into den
        c, t = _primitive(_canon(_addmul(_addmul({}, mult, rest), co, tail, negate=True)))
        r = _poly(ring, t)
        den = den * c

    for g, chain in zip(divisors, chains):
        if len(chain) > len(g._chain) + 1:
            g._chain = tuple(chain[1:])  # replaced whole: a concurrent division reads the old one or this
    cert = DivisionCertificate(f, chains, log, r, den, mode)
    if log:
        try:
            if not _replay_holds(f, chains, log, r, den):
                raise _violation(f, chains, mode, "modulo 2^61 - 1, r = %s" % describe(r))
        except ZeroDivisionError:  # no value to read mod PRIME: forming S checks exactly
            cert.S
    return cert


def _linear_divide(f: DiffPoly, divisors, leads, pres):
    """ritt_divide's full mode for linear f and divisors, whose coefficients
    are then constants, on their packed term dicts (module docstring): the
    same steps, remainder, den and certificate.  divisors, leads and pres are
    as _leads returns them.  Each iteration takes the remainder's support
    word once (diffpoly._linear_word, with its MAX_ORDER guard) and reads off
    it the top orders of the divisors' variables only, each at its shift
    v*FIELD_BITS under the ring's mask `low` and compared by its divisor's
    key prefix as in ritt_divide.  Each step logs (i, k, den*a, mult): den*a
    a number, which the exact check reads, and mult the divisor's leading
    coefficient as its one constant polynomial, built at its first step.  The
    remainder of a division that took a step keeps the top orders of every
    variable, read once off the last word (diffpoly._linear_poly).  The
    measure must drop at every step and the certificate identity must hold
    exactly, or InternalInvariantViolation is raised."""
    ring = f.ring
    ft = _linear_terms(f)
    # per divisor: its key prefix, its leader's variable v, shift v*FIELD_BITS
    # and order, its terms, and its leading coefficient; mults[i] is that
    # coefficient as a polynomial, once divisor i has taken a step
    rows = []
    for g, (ld, _), pre in zip(divisors, leads, pres):
        gt = _linear_terms(g)
        rows.append((pre, ld.var, ld.var * FIELD_BITS, ld.order, gt, _linear_at(ring, gt, ld.var, ld.order)))
    mults = [None] * len(rows)
    low, up = ring._masks.low, ring.nvars * FIELD_BITS
    r, den, log, last = ft, 1, [], None
    while True:
        # the highest unreduced derivative, as _violates finds it in full mode
        w = _linear_word(ring, r)
        best = None
        for i, (pre, v, sv, og, _, _) in enumerate(rows):
            o = (((w >> sv) & low).bit_length() - 1) // up
            if o >= og:
                key = pre + (o, v) if pre is not None else (o,)
                if best is None or key > best[0]:
                    best = (key, i, o)
        if best is None:
            break
        key, i, o = best
        if last is not None and not key < last:
            raise _no_drop(key, last, f, divisors, _poly(ring, r))
        last = key
        # lc*r - a*D^k g cancels the term a*x_v^(o) of r
        _, v, _, og, gt, lc = rows[i]
        mult = mults[i]
        if mult is None:
            mult = mults[i] = _poly(ring, {0: lc})
        a, t = _linear_step(ring, r, lc, v, o, gt, o - og)
        log.append((i, o - og, a * den, mult))
        c, r = _primitive(t)
        den = den * c
    chains = [[g, *g._chain] for g in divisors]
    if not log:
        return DivisionCertificate(f, chains, log, f, den, "full")
    rem = _linear_poly(ring, r, w)  # w is r's word: the last pass took no step
    # S*f - sum_ik Q_ik * D^k g_i - den*r, exactly: S and the Q_ik are numbers
    S, Q = 1, {}
    for i, k, t, _ in reversed(log):
        Q[i, k] = Q.get((i, k), 0) + S * t
        S = S * rows[i][5]
    acc = _submul({m: S * b for m, b in ft.items()}, den, r, 0, ring)
    for (i, k), q in Q.items():
        _submul(acc, q, rows[i][4], k, ring)
    if any(acc.values()):
        raise _violation(f, chains, "full", "exactly, r = %s" % describe(rem))
    return DivisionCertificate(f, chains, log, rem, den, "full")


def is_reduced_wrt(f: DiffPoly, g: DiffPoly, mode="full", ranking: Ranking = None) -> bool:
    """Whether f is already a valid remainder against g in g's leading variable."""
    if mode not in ("partial", "full"):
        raise ValueError("unknown mode %r" % mode)
    f._coerce(g)  # equal rings pass, mixed rings raise
    if ranking is None:
        ranking = orderly()
    if not g or g.is_constant():
        raise ValueError("reference polynomial must be non-constant")
    ld, dg = ranking.leader_degree(g)
    return _violates(f, ld.var, ld.order, dg, mode) is None


class AutoreducedSet(namedtuple("AutoreducedSet", "elements ranking")):
    """Nonempty tuple of pairwise fully-reduced polynomials, strictly
    increasing in rank (leader key, leader degree) under the ranking.

    When ranks strictly increase, each element is reduced with respect to
    every later one: if its leader ranks lower, every derivative in it ranks
    below the later leader and that leader's proper derivatives; if the
    leaders are equal, it has the lower degree in that leader.  So only an element
    against an earlier one needs testing, and the constructor tests those
    pairs only.  A set whose elements were each reduced with respect to the
    earlier ones is autoreduced by construction; _increasing builds them all.
    """

    __slots__ = ()

    def __new__(cls, elements, ranking):
        elements = tuple(elements)
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
            for j in range(i):
                if not is_reduced_wrt(p, elements[j], "full", ranking):
                    raise ValueError("element %d is not reduced w.r.t. element %d" % (i, j))
        lvars = [ranking.leader(p).var for p in elements]
        if len(set(lvars)) != len(lvars):
            raise InternalInvariantViolation(
                "reduced elements share a leading variable: %s" % [describe(p) for p in elements]
            )
        return super().__new__(cls, elements, ranking)

    @classmethod
    def _increasing(cls, elements, ranking, name, where=""):
        """The set of elements, each reduced with respect to the earlier ones, once one pass
        finds their ranks strictly increasing; else InternalInvariantViolation naming it."""
        ranks = [ranking.rank(p) for p in elements]
        if not all(a < b for a, b in zip(ranks, ranks[1:])):
            msg = "%s does not strictly increase in rank%s: %s" % (name, where, [describe(p) for p in elements])
            raise InternalInvariantViolation(msg)
        return cls._make((tuple(elements), ranking))

    def leaders(self):
        return tuple(self.ranking.leader(p) for p in self.elements)

    def rank_vector(self):
        return tuple(self.ranking.rank(p) for p in self.elements)


def compare_autoreduced(a: AutoreducedSet, b: AutoreducedSet) -> int:
    """-1, 0, or 1 in the induced ordering.

    Lower rank at the first differing slot wins; with one rank vector a
    proper prefix of the other, the longer set is the lower one.  Sets under
    different rankings do not compare: ValueError.
    """
    if a.ranking != b.ranking:
        raise ValueError("autoreduced sets under different rankings")
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
    # order by (rank, render(p)); a tie of rank compares rendered terms one at
    # a time and stops at the first that differs (_render_cmp), and a tie
    # with a coefficient too long to render, told from the coefficients'
    # sizes, keeps basis order (sorts are stable)
    ranked = sorted(((ranking.rank(p), p) for p in basis), key=lambda rp: rp[0])
    ordered = []
    for _, group in itertools.groupby(ranked, key=lambda rp: rp[0]):
        group = [p for _, p in group]
        if len(group) > 1 and all(map(_renderable, group)):
            group.sort(key=cmp_to_key(_render_cmp))
        ordered.extend(group)
    # each chosen q ranks no higher than p, so only p against q needs testing
    # (the argument is in AutoreducedSet's docstring); a p that ties q in rank
    # is not reduced with respect to it, so the chosen ranks strictly increase
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
        # the selection tested each element against the earlier ones
        aset = AutoreducedSet._increasing(chosen, ranking, "chosen set", " in round %d" % rounds)
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
