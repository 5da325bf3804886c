"""The cli-commands workload: invocations of `python -m diffalg.cli` and the
independent checks of their output.

Each invocation runs with and without --json.  A text-mode result is checked
on its own where the text carries enough, and must agree with the checked
JSON result of the same invocation.  Two invocations fail on every run
because of known faults; they are marked `fault` and counted as failed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

import checks
import corpus
from algebra import (
    NEG,
    Point,
    add,
    autoreduced_problems,
    certificate_holds,
    det_degree,
    max_transversal,
    maximizing_perms,
    mul,
    order_in,
    order_matrix,
    parse_rendered,
    partial,
    random_point,
    read_system,
    scale,
    var,
)

# reduce-linear renders a coefficient of more than 4300 decimal digits
FAULT_RENDER = """\
vars: x, y, z
-y^(4) + z''' + 2*x''' + 3*x'' - x' + z
-2*y^(6) - 2*x^(6) + z^(5) - 3*z' - 3*y' + 3*x' - x + 3
z^(5) - 3*z'' + x'' + z' + 3*x
"""

# nine variables: the brute-force tropical determinant is capped at n = 8
FAULT_NINE = "vars: x, y, z, u, v, w, p, q, s\n" + "\n".join(
    "%s' + %s" % (a, b) for a, b in zip("xyzuvwpqs", "yzuvwpqsx")
) + "\n"

SHIPPED = ("j_increasing.sys", "j_increasing_second_form.sys", "weak_strong.sys")
COMMANDS = ("jacobi", "matrix", "divide", "autoreduce", "dims", "forms", "reduce-linear", "trace", "pencil", "examples")


@dataclass
class Invocation:
    command: str
    file: str  # key into the file table, or "" for examples
    extra: tuple = ()
    json: bool = False
    fault: str = ""  # expected error text for a known fault

    @property
    def key(self):
        return (self.command, self.file, self.extra)

    def argv(self, paths):
        out = [self.command] + ([paths[self.file]] if self.file else []) + list(self.extra)
        return out + (["--json"] if self.json else [])


@dataclass
class SysFile:
    names: tuple
    polys: list
    text: str
    solution: list = None
    t0: int = 0


def _pick_division(sf):
    """(dividend, divisor, var name) with a valid partial division."""
    n = len(sf.names)
    for gi in range(len(sf.polys)):
        for v in range(n):
            og = order_in(sf.polys[gi], v)
            if og == NEG:
                continue
            for fi in range(len(sf.polys)):
                if fi != gi and order_in(sf.polys[fi], v) > og:
                    return fi, gi, sf.names[v]
    return None


def _divisible(make):
    """Cases from `make` that admit a partial division (for divide and trace)."""

    def gen(rng):
        while True:
            c = make(rng)
            if _pick_division(SysFile(c.names, c.polys, c.text)):
                return c

    return gen


def build(seed, shipped_texts, rounds):
    """(files: name -> SysFile, invocations) for `rounds` rounds."""
    rng = corpus.seeded(seed, "cli-commands")
    files = {}
    for name, text in shipped_texts.items():
        names, polys = read_system(text)
        files[name] = SysFile(names, polys, text)
    for name, text in (("fault_render.sys", FAULT_RENDER), ("fault_nine.sys", FAULT_NINE)):
        names, polys = read_system(text)
        files[name] = SysFile(names, polys, text)
    invs = []
    for r in range(rounds):
        lin, non = [], []
        for i, c in enumerate(corpus.distinct(_divisible(lambda g: corpus.linear_dense(g, g.choice((2, 3)), 3)), 4, rng)):
            files["r%d_lin%d.sys" % (r, i)] = SysFile(c.names, c.polys, c.text)
            lin.append("r%d_lin%d.sys" % (r, i))
        for i, c in enumerate(corpus.distinct(_divisible(lambda g: corpus.nonlinear(g, 2, None, 1, 1)), 4, rng)):
            files["r%d_non%d.sys" % (r, i)] = SysFile(c.names, c.polys, c.text, c.solution, c.t0)
            non.append("r%d_non%d.sys" % (r, i))
        s1, s2, s3 = SHIPPED
        plan = []
        for f in (s1, s2, s3) + tuple(lin):
            plan += [("jacobi", f, ()), ("matrix", f, ()), ("forms", f, ())]
        plan.append(("forms", s2, ("--to", "second")))
        for f in (s1, s2) + tuple(lin):
            plan += [("dims", f, ()), ("reduce-linear", f, ())]
        for f in (s1, s2) + tuple(non):
            plan.append(("autoreduce", f, ()))
        plan.append(("trace", s1, ("--script", "0/2@x;1/2@x")))
        for f in lin:
            fi, gi, v = _pick_division(files[f])
            plan.append(("trace", f, ("--script", "%d/%d@%s" % (fi, gi, v))))
        plan.append(("divide", s1, ("--dividend", "0", "--divisor", "2", "--var", "x")))
        for f in non:
            fi, gi, v = _pick_division(files[f])
            plan.append(("divide", f, ("--dividend", str(fi), "--divisor", str(gi), "--var", v)))
        plan.append(("pencil", s3, ("--pivot", "1", "--var", "y", "--fibers", "0,1,1/2")))
        for f in non:
            sf = files[f]
            v = next(v for v in range(len(sf.names)) if order_in(sf.polys[0], v) != NEG)
            plan.append(("pencil", f, ("--pivot", "0", "--var", sf.names[v], "--fibers", "0,2,-1/3")))
        if r == 0:
            plan.append(("examples", "", ()))
        for cmd, f, extra in plan:
            if r and f in SHIPPED:
                continue  # shipped files are the same in every round
            invs.append(Invocation(cmd, f, extra, json=True))
            invs.append(Invocation(cmd, f, extra, json=False))
        if r == 0:
            invs.append(Invocation("reduce-linear", "fault_render.sys", (), True, "Exceeds the limit"))
            invs.append(Invocation("jacobi", "fault_nine.sys", (), False, "brute force capped at n = 8"))
    return files, invs


# -- checks ------------------------------------------------------------------


def _bump(x):
    return x + 1 if isinstance(x, int) else 0


# one corruption of each command's JSON output, for the self-test
CORRUPT = {
    "jacobi": lambda d: d.update(J_strong=_bump(d["J_strong"])),
    "matrix": lambda d: d["entries"][0].__setitem__(0, _bump(d["entries"][0][0])),
    "forms": lambda d: d.update(first=not d["first"]),
    "dims": lambda d: d.update(diff_dim=d["diff_dim"] + 1),
    "reduce-linear": lambda d: d.update(abs_dim_bound=_bump(d["abs_dim_bound"])),
    "autoreduce": lambda d: d["charset"].__setitem__(0, d["charset"][0] + " + 7"),
    "trace": lambda d: d["J_sequence"].__setitem__(-1, _bump(d["J_sequence"][-1])),
    "divide": lambda d: d.update(remainder=d["remainder"] + " + 7"),
    "pencil": lambda d: d.update(generator=d["generator"] + " + 7"),
    "examples": lambda d: d["checks"][0].update({"pass": False}),
}

_NUM = {"-inf": NEG, "inf": float("inf")}


def _num(v):
    return _NUM.get(v, v) if isinstance(v, str) else v


class Checker:
    """Checks one invocation's output; JSON results are kept by invocation
    key so the text-mode run of the same invocation can be compared."""

    def __init__(self, files, seed):
        self.files = files
        self.seed = seed
        self.json_facts = {}

    def point(self, sf):
        rng = corpus.seeded(self.seed, "certificate-point")
        return random_point(rng, len(sf.names), 24)

    def check(self, inv, stdout):
        sf = self.files.get(inv.file)
        handler = getattr(self, "_" + inv.command.replace("-", "_"))
        facts, problems = handler(inv, sf, stdout)
        if inv.json:
            self.json_facts[inv.key] = facts
        elif inv.key in self.json_facts and facts is not None and self.json_facts[inv.key] != facts:
            problems.append("text output %r disagrees with the JSON output %r" % (facts, self.json_facts[inv.key]))
        return problems

    def wants_selftest(self, inv):
        """First JSON invocation per command; one with a known solution where
        the check relies on it."""
        needs_solution = inv.command in ("autoreduce", "divide")
        return inv.json and (not needs_solution or self.files[inv.file].solution is not None)

    def selftest(self, inv, stdout):
        d = json.loads(stdout)
        CORRUPT[inv.command](d)
        handler = getattr(self, "_" + inv.command.replace("-", "_"))
        try:
            _, problems = handler(inv, self.files.get(inv.file), json.dumps(d))
        except (ValueError, KeyError, IndexError, AttributeError, TypeError):
            problems = ["unreadable"]
        return [] if problems else ["self-test: corrupted %s output passed its check" % inv.command]

    # each handler returns (facts shared by text and JSON modes, problems)

    def _jacobi(self, inv, sf, out):
        n = len(sf.names)
        own = tuple(max_transversal(order_matrix(sf.polys, n, conv)) for conv in ("weak", "strong"))
        if inv.json:
            d = json.loads(out)
            got = (_num(d["J_weak"]), _num(d["J_strong"]))
            probs = []
            for conv in ("weak", "strong"):
                _, perms = maximizing_perms(order_matrix(sf.polys, n, conv))
                if sorted(map(tuple, d["witnesses_" + conv])) != sorted(perms):
                    probs.append("%s witnesses differ from the maximizing permutations" % conv)
        else:
            m = re.fullmatch(r"J\(weak\)=(\S+) J\(strong\)=(\S+)", out.strip())
            got = tuple(_num(int(x) if x.lstrip("-").isdigit() else x) for x in m.groups()) if m else None
            probs = []
        if got != own:
            probs.append("J (weak, strong) %s != own %s" % (got, own))
        return got, probs

    def _matrix(self, inv, sf, out):
        own = order_matrix(sf.polys, len(sf.names), "strong")
        if inv.json:
            d = json.loads(out)
            got = [[_num(e) for e in row] for row in d["entries"]]
            probs = [] if d["cols"] == list(sf.names) else ["columns %s" % d["cols"]]
        else:
            got = [[NEG if e == "·" else int(e) for e in line.split()] for line in out.strip().splitlines()]
            probs = []
        if got != own:
            probs.append("matrix %s != own %s" % (got, own))
        return got, probs

    def _forms(self, inv, sf, out):
        a = order_matrix(sf.polys, len(sf.names), "strong")
        if inv.extra:  # --to second
            if inv.json:
                d = json.loads(out)
                rows, cols = d["rows"], d["cols"]
                grid = [[_num(e) for e in row] for row in d["matrix"]]
            else:
                m = re.match(r"rows=\(([\d, ]*)\) cols=\(([\d, ]*)\)\n(.*)", out, re.S)
                rows, cols = ([int(x) for x in g.split(",") if x.strip()] for g in m.groups()[:2])
                grid = [[NEG if e == "·" else int(e) for e in ln.split()] for ln in m.group(3).strip().splitlines()]
            want = [[a[rows[i]][cols[j]] for j in range(len(a))] for i in range(len(a))]
            probs = []
            if sorted(rows) != list(range(len(a))) or sorted(cols) != list(range(len(a))):
                probs.append("row/column maps are not permutations")
            elif grid != want:
                probs.append("printed matrix is not the permuted order matrix")
            elif not checks.forms(grid)["second"]:
                probs.append("result is not in second form")
            if cols and cols[0] != 0:
                probs.append("column 1 moved")
            return (tuple(rows), tuple(cols), grid), probs
        own = checks.forms(a)
        if inv.json:
            got = json.loads(out)
        else:
            got = {k: v == "True" for k, v in (kv.split("=") for kv in out.split())}
        return got, ([] if got == own else ["forms %s != own %s" % (got, own)])

    def _dims(self, inv, sf, out):
        if inv.json:
            d = json.loads(out)
            got = (d["diff_dim"], _num(d["abs_dim_bound"]))
        else:
            m = re.fullmatch(r"diffDim=(\d+) absDimBound=(\S+)", out.strip())
            got = (int(m.group(1)), _num(m.group(2)) if m.group(2) == "inf" else int(m.group(2)))
        want = (0, det_degree(sf.polys, len(sf.names)))
        return got, ([] if got == want else ["dims %s != (0, deg det P(D)) %s" % (got, want)])

    def _reduce_linear(self, inv, sf, out):
        names = sf.names
        if inv.json:
            d = json.loads(out)
            steps = []
            for st in d["trace"]["steps"]:
                v = names.index(st["var"])
                if st["kind"] == "peel":
                    steps.append(("peel", v, None, None, None))
                    continue
                c = st["certificate"]
                (q,) = c["quotients"]
                quots = {k: parse_rendered(t, names) for k, t in q}
                steps.append(
                    (st["kind"], v, parse_rendered(c["s"], names), quots, parse_rendered(c["remainder"], names))
                )
            res = {
                "degenerate": d["degenerate"],
                "diff_dim": d["diff_dim"],
                "abs_dim_bound": _num(d["abs_dim_bound"]),
                "j_initial": _num(d["J_initial"]),
                "j_seq": [_num(j) for j in d["trace"]["J_sequence_strong"]],
                "steps": steps,
            }
        else:
            m = re.match(r"J-sequence: (\S+)\ndiffDim=(\d+) absDimBound=(\S+)", out)
            seq = [int(j) for j in m.group(1).split(",")]
            res = {
                "degenerate": False,
                "diff_dim": int(m.group(2)),
                "abs_dim_bound": _num(m.group(3)) if m.group(3) == "inf" else int(m.group(3)),
                "j_initial": seq[0],
                "j_seq": seq,
                "steps": None,
            }
        case = corpus.Case("cli", names, sf.polys, sf.text)
        probs = checks.linear_result(case, res, self.point(sf))
        return (res["diff_dim"], res["abs_dim_bound"], tuple(res["j_seq"])), probs

    def _charset_lines(self, sf, lines):
        els = [parse_rendered(ln, sf.names) for ln in lines]
        probs = autoreduced_problems(els, None)
        if sf.solution is not None:
            pt = Point(sf.solution, sf.t0)
            probs += ["charset element %d does not vanish on the known solution" % i for i, p in enumerate(els) if pt.eval(p)]
        return probs

    def _autoreduce(self, inv, sf, out):
        if inv.json:
            d = json.loads(out)
            lines = d["charset"]
            extra = [] if d["converged"] else ["did not converge"]
        else:
            lines = [ln for ln in out.strip().splitlines()]
            extra = [] if not lines[-1].startswith("(not converged") else ["did not converge"]
        return tuple(lines), self._charset_lines(sf, lines) + extra

    def _trace(self, inv, sf, out):
        n = len(sf.names)
        script = [(int(a), int(b), sf.names.index(v)) for a, b, v in re.findall(r"(\d+)/(\d+)@(\w+)", inv.extra[1])]
        j0 = max_transversal(order_matrix(sf.polys, n, "weak"))
        if not inv.json:
            seq = [int(j) for j in out.strip().split(": ")[1].split(",")]
            probs = [] if seq[0] == j0 and len(seq) == len(script) + 1 else ["J-sequence %s (own J %s)" % (seq, j0)]
            return tuple(seq), probs
        d = json.loads(out)
        system, probs, seq = list(sf.polys), [], [j0]
        pt = self.point(sf)
        for (di, gi, v), st in zip(script, d["steps"]):
            c = st["certificate"]
            (q,) = c["quotients"]
            quots = {k: parse_rendered(t, sf.names) for k, t in q}
            r = parse_rendered(c["remainder"], sf.names)
            if not certificate_holds(pt, system[di], [system[gi]], parse_rendered(c["s"], sf.names), [quots], r):
                probs.append("step certificate fails")
            if order_in(r, v) > order_in(system[gi], v):
                probs.append("remainder not partially reduced")
            system[di] = r
            seq.append(max_transversal(order_matrix(system, n, "weak")))
        if [_num(j) for j in d["J_sequence"]] != seq:
            probs.append("J-sequence %s != own %s" % (d["J_sequence"], seq))
        return tuple(seq), probs

    def _divide(self, inv, sf, out):
        fi, gi = int(inv.extra[1]), int(inv.extra[3])
        v = sf.names.index(inv.extra[5])
        f, g = sf.polys[fi], sf.polys[gi]
        if inv.json:
            d = json.loads(out)
            s, r = parse_rendered(d["s"], sf.names), parse_rendered(d["remainder"], sf.names)
            (q,) = d["quotients"]
            quots = {k: parse_rendered(t, sf.names) for k, t in q}
            probs = [] if certificate_holds(self.point(sf), f, [g], s, [quots], r) else ["certificate fails"]
            got = (d["s"], d["remainder"])
        else:
            m = re.fullmatch(r"s = (.*)\nremainder = (.*)", out.strip())
            got = m.groups()
            r = parse_rendered(got[1], sf.names)
            probs = []
        if order_in(r, v) > order_in(g, v):
            probs.append("remainder not partially reduced")
        if sf.solution is not None and Point(sf.solution, sf.t0).eval(r):
            probs.append("remainder does not vanish on the known solution")
        return got, probs

    def _pencil(self, inv, sf, out):
        pivot, v = int(inv.extra[1]), sf.names.index(inv.extra[3])
        fibers = inv.extra[5].split(",")
        u = sf.polys[pivot]
        ld = (v, order_in(u, v))
        d_ = max(dict(m).get(ld, 0) for m in u)
        s1 = partial(u, ld)
        t1 = add(scale(u, d_), scale(mul(var(*ld), s1), -1))
        ext = sf.names + ("w",)
        gen = add(t1, mul(var(len(sf.names)), s1))
        if not inv.json:
            got = parse_rendered(out.strip().split(": ", 1)[1], ext)
            return None, ([] if got == gen else ["generator differs from t1 + w*s1"])
        dd = json.loads(out)
        probs = []
        if parse_rendered(dd["separant"], sf.names) != s1:
            probs.append("separant differs")
        if parse_rendered(dd["coseparant"], sf.names) != t1:
            probs.append("coseparant differs from d*u - leader*separant")
        if parse_rendered(dd["generator"], ext) != gen:
            probs.append("generator differs from t1 + w*s1")
        carried = [p for i, p in enumerate(sf.polys) if i != pivot]
        if [parse_rendered(c, sf.names) for c in dd["carried"]] != carried:
            probs.append("carried equations differ")
        for mu in fibers:
            fib = [parse_rendered(t, sf.names) for t in dd["fibers"][mu]]
            if fib != [add(t1, scale(s1, Fraction(mu)))] + carried:
                probs.append("fiber at %s differs" % mu)
        return None, probs

    def _examples(self, inv, sf, out):
        if inv.json:
            d = json.loads(out)
            ok = d["pass"] and all(r["pass"] for r in d["checks"])
            got = len(d["checks"])
        else:
            lines = out.strip().splitlines()
            ok = all(ln.startswith("PASS ") for ln in lines)
            got = len(lines)
        return got, ([] if ok and got else ["examples not all PASS"])
