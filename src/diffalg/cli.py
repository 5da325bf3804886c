"""Command-line front end.

Exit codes: 0 success, 1 user or data error (a rejected command line
included), 2 internal invariant violation, 3 resource limit (more maximizing
transversals than `jacobi` lists, the step budget of `reduce-linear`
exhausted, a characteristic-set iteration of `autoreduce`, `dims` or
`reduce-linear` past 64 rounds, an order, exponent or power size over the
caps of the packed monomials, or an integer longer than the interpreter's
limit on integer-to-string conversion).
With --json every report (including errors) is a single JSON document."""

from __future__ import annotations

import argparse
import sys

from . import corpus
from .diffpoly import elimination, jsonable, orderly, render
from .engine import linear_reduce, parse_script, scripted_divide
from .errors import ResourceLimit
from .pencil import build_pencil, fiber_at
from .reduction import InconsistentSystem, autoreduce_loop, dimensions, ritt_divide
from .textio import parse_system
from .tropical import (
    HypothesisFailure,
    detect_first_form,
    detect_second_form,
    detect_third_form,
    order_matrix,
    render_grid,
    tdet,
    to_first_form,
    to_second_form,
)


class UserError(Exception):
    pass


class UsageError(UserError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # no abbreviated flags: main tells a rejected --json by its full name
    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _load(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        raise UserError(str(e))
    names = None if args.vars is None else [s.strip() for s in args.vars.split(",") if s.strip()]  # as a vars: line
    if names == []:
        raise UserError("--vars %r names no variable" % args.vars)
    ring, polys = parse_system(text, names)
    if not polys:
        raise UserError("empty system: %s" % args.file)
    return ring, polys


def _ranking(args, ring):
    spec = args.ranking or "orderly"
    if spec == "orderly":
        return orderly()
    if spec.startswith("elim:"):
        blocks = []
        for blk in spec[5:].split(";"):
            names = [s.strip() for s in blk.split(",") if s.strip()]
            try:
                blocks.append([ring.index[nm] for nm in names])
            except KeyError as e:
                raise UserError("unknown variable in ranking: %s" % e)
        covered = {v for b in blocks for v in b}
        if covered != set(range(ring.nvars)):
            raise UserError("ranking blocks must cover all variables")
        return elimination(blocks)
    raise UserError("bad --ranking %r (want orderly or elim:b1;b2)" % spec)


def _json(data, **kw):
    """data as a JSON document.  json is imported here, on first use, so that
    a text-mode command never loads it."""
    import json

    return json.dumps(data, **kw)


def _emit(args, data, text):
    if args.json:
        print(_json(data, indent=2))
    else:
        print(text)


def cmd_jacobi(args):
    ring, polys = _load(args)
    out = {}
    for conv in ("weak", "strong"):
        m = order_matrix(polys, None, conv)
        # the text report prints no witnesses, so it does not list them
        value, wits = tdet(m.entries, witnesses=True) if args.json else (tdet(m.entries), ())
        out["J_%s" % conv] = jsonable(value)
        if args.json:
            out["witnesses_%s" % conv] = [list(w) for w in wits]
    _emit(args, out, "J(weak)=%s J(strong)=%s" % (out["J_weak"], out["J_strong"]))


def cmd_matrix(args):
    ring, polys = _load(args)
    m = order_matrix(polys, None, args.convention)
    _emit(args, m.to_json(), render_grid(m.entries))


def cmd_divide(args):
    _, polys = _load(args)
    if not (0 <= args.dividend < len(polys) and 0 <= args.divisor < len(polys)):
        raise UserError("equation index out of range")
    cert = ritt_divide(polys[args.dividend], [polys[args.divisor]], args.mode, var=args.var)
    text = "s = %s\nremainder = %s" % (render(cert.s), render(cert.remainder))
    _emit(args, cert.to_json(), text)


def _charset(args):
    """(ring, autoreduce_loop result), the result None once an inconsistent system is reported."""
    ring, polys = _load(args)
    try:
        return ring, autoreduce_loop(polys, _ranking(args, ring))
    except InconsistentSystem as e:
        _emit(args, {"inconsistent": True, "constant": e.text}, "inconsistent system (%s)" % e)
        return ring, None


def cmd_autoreduce(args):
    _, res = _charset(args)
    if res is None:
        return
    data = {
        "charset": [render(p) for p in res.charset.elements],
        "converged": res.converged,
        "rounds": res.rounds,
        "multipliers": [render(m) for m in res.multipliers],
    }
    text = "\n".join(render(p) for p in res.charset.elements)
    _emit(args, data, text)


def cmd_dims(args):
    ring, res = _charset(args)
    if res is None:
        return
    dd, bound = dimensions(res.charset, ring.nvars)
    data = {"diff_dim": dd, "abs_dim_bound": jsonable(bound), "converged": res.converged}
    _emit(args, data, "diffDim=%d absDimBound=%s" % (dd, jsonable(bound)))


def cmd_forms(args):
    ring, polys = _load(args)
    m = order_matrix(polys, None, args.convention)
    if args.to is None:
        data = {
            "first": detect_first_form(m.entries),
            "second": detect_second_form(m.entries),
            "third": detect_third_form(m.entries),
        }
        _emit(args, data, " ".join("%s=%s" % kv for kv in sorted(data.items())))
        return
    cert = to_first_form(m.entries) if args.to == "first" else to_second_form(m.entries)
    out = cert.apply(m.entries)
    data = dict(cert.to_json(), matrix=[[jsonable(e) for e in row] for row in out])
    _emit(args, data, "rows=%s cols=%s\n%s" % (cert.row_perm, cert.col_perm, render_grid(out)))


def cmd_reduce_linear(args):
    ring, polys = _load(args)
    res = linear_reduce(polys)
    data = {
        "trace": res.trace.to_json(),
        "charset": [render(p) for p in res.charset.elements] if res.charset else None,
        "diff_dim": res.diff_dim,
        "abs_dim_bound": jsonable(res.abs_dim_bound),
        "J_initial": jsonable(res.j_initial),
        "degenerate": res.degenerate,
    }
    text = "J-sequence: %s\ndiffDim=%d absDimBound=%s" % (
        ",".join(str(jsonable(v)) for v in res.trace.j_sequence_strong),
        res.diff_dim,
        jsonable(res.abs_dim_bound),
    )
    if res.charset:
        text += "\ncharset:\n" + "\n".join("  " + render(p) for p in res.charset.elements)
    _emit(args, data, text)


def cmd_trace(args):
    _, polys = _load(args)
    final, trace = scripted_divide(polys, parse_script(args.script))
    data = trace.to_json()
    data["final_system"] = [render(p) for p in final]
    text = "J-sequence: %s" % ",".join(str(jsonable(v)) for v in trace.j_sequence)
    _emit(args, data, text)


def cmd_pencil(args):
    _, polys = _load(args)
    pen = build_pencil(polys, args.pivot, args.var, args.fresh)
    data = pen.to_json()
    if args.fibers:
        data["fibers"] = {}
        for mu in args.fibers.split(","):
            fib = fiber_at(pen, mu.strip())
            data["fibers"][mu.strip()] = [render(p) for p in fib]
    text = "generator: %s" % render(pen.generator)
    _emit(args, data, text)


def cmd_examples(args):
    rows = []
    ok = True
    for label, expected, actual in corpus.run_golden_checks():
        good = expected == actual
        ok = ok and good
        rows.append({"check": label, "pass": good, "expected": str(expected), "actual": str(actual)})
    if args.json:
        print(_json({"checks": rows, "pass": ok}, indent=2))
    else:
        for r in rows:
            print("%s %s" % ("PASS" if r["pass"] else "FAIL", r["check"]))
    return 0 if ok else 1


def build_parser():
    ap = _Parser(prog="diffalg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system file")
        p.add_argument("--json", action="store_true")
        p.add_argument("--vars", help="comma-separated variable/column order")

    p = sub.add_parser("jacobi", help="Jacobi number and witnesses, both conventions")
    common(p)
    p.set_defaults(func=cmd_jacobi)
    p = sub.add_parser("matrix", help="order matrix")
    common(p)
    p.add_argument("--convention", choices=["weak", "strong"], default="strong")
    p.set_defaults(func=cmd_matrix)
    p = sub.add_parser("divide", help="one division with certificate")
    common(p)
    p.add_argument("--dividend", type=int, required=True)
    p.add_argument("--divisor", type=int, required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--mode", choices=["partial", "full"], default="partial")
    p.set_defaults(func=cmd_divide)
    p = sub.add_parser("autoreduce", help="characteristic set iteration")
    common(p)
    p.add_argument("--ranking", default="orderly", help="orderly or elim:b1;b2 (lowest block first)")
    p.set_defaults(func=cmd_autoreduce)
    p = sub.add_parser("dims", help="differential dimension and order bound")
    common(p)
    p.add_argument("--ranking", default="orderly", help="orderly or elim:b1;b2 (lowest block first)")
    p.set_defaults(func=cmd_dims)
    p = sub.add_parser("forms", help="detect or normalize Ritt forms")
    common(p)
    p.add_argument("--convention", choices=["weak", "strong"], default="strong")
    p.add_argument("--to", choices=["first", "second"])
    p.set_defaults(func=cmd_forms)
    p = sub.add_parser("reduce-linear", help="linear elimination with full trace")
    common(p)
    p.set_defaults(func=cmd_reduce_linear)
    p = sub.add_parser("trace", help="scripted divisions, J-sequence")
    common(p)
    p.add_argument("--script", required=True, help='e.g. "0/2@x;1/2@x"')
    p.set_defaults(func=cmd_trace)
    p = sub.add_parser("pencil", help="build the pencil at a pivot")
    common(p)
    p.add_argument("--pivot", type=int, required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--fresh", default="w")
    p.add_argument("--fibers", help="comma-separated rational values of the parameter")
    p.set_defaults(func=cmd_pencil)
    p = sub.add_parser("examples", help="run the embedded corpus against golden values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a rejected command line has no parsed --json flag to read
    as_json = "--json" in argv
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        rc = args.func(args)
        return 0 if rc is None else rc
    except (UserError, ValueError, OSError, InconsistentSystem, HypothesisFailure) as e:
        kind = "usage" if isinstance(e, UsageError) else type(e).__name__
        print(_json({"error": str(e), "kind": kind}) if as_json else "error: %s" % e, file=sys.stderr)
        return 1
    except AssertionError as e:  # InternalInvariantViolation included
        msg = {"error": str(e), "kind": "internal-invariant-violation"}
        print(_json(msg) if as_json else "internal invariant violation: %s" % e, file=sys.stderr)
        return 2
    except ResourceLimit as e:
        msg = {"error": str(e), "kind": "resource-limit"}
        print(_json(msg) if as_json else "resource limit: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
