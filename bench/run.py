#!/usr/bin/env python3
"""Seeded end-to-end benchmark of diffalg, with an optional traced run.

    python3 bench/run.py --workload linear-deep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1          # the four in turn
    python3 bench/run.py --workload linear-wide --seed 1 --trace 1

The program is imported from ../src next to this directory.  Inputs are
generated from --seed as system-file text and reach the program only through
textio.parse_system (or the CLI's file argument).  A run times one whole
corpus; --seconds sets how many rounds of the workload's corpus it holds
(one round is 6-16 s of scaled operation time, depending on the workload).
Every result is checked against the benchmark's own computations.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import algebra  # noqa: E402
import checks  # noqa: E402
import clicmds  # noqa: E402
import corpus  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROUND_SECONDS = 12
SETUP_REPEATS = 5  # at least; more while the set-ups total under SETUP_MIN_S
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 50
REF_NOMINAL_S = 0.001  # the reference computation's time on the reference machine
CLI_REF_NOMINAL_S = 0.015  # the same for cli-commands' reference

class SetupError(Exception):
    """The checkout does not hold a program to benchmark."""


# -- the program -------------------------------------------------------------


def compile_program():
    if not (SRC / "diffalg" / "__init__.py").is_file():
        raise SetupError("no diffalg sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "diffalg"), quiet=1)


def import_program():
    """Fresh import of every diffalg module, from already compiled bytecode."""
    for name in [m for m in sys.modules if m == "diffalg" or m.startswith("diffalg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("diffalg")
    if Path(pkg.__file__).resolve().parent != SRC / "diffalg":
        raise SetupError("imported diffalg from %s, not from %s" % (pkg.__file__, SRC))
    return {m: importlib.import_module("diffalg." + m) for m in ("textio", "diffpoly", "engine", "reduction")}


# -- reference computation ----------------------------------------------------

_REF_MATRIX = [[(7 * i + 3 * j) % 5 for j in range(6)] for i in range(6)]


def reference_time():
    """Time of a fixed computation in the benchmark's own code, which no
    change to the program can make faster or slower: three brute-force
    maximum transversals of a 6x6 matrix, about 1 ms of interpreted loops
    over tuples and small integers.  Of the candidates timed next to every
    operation of the same runs (this one, products of polynomials with
    ~1500-bit rational coefficients, and the two together) it tracked the
    workloads' speed best or as well."""
    t = perf_counter()
    for _ in range(3):
        best = -1
        for perm in itertools.permutations(range(6)):
            s = 0
            for i, j in enumerate(perm):
                s += _REF_MATRIX[i][j]
            if s > best:
                best = s
    return perf_counter() - t


# -- workloads ---------------------------------------------------------------
#
# A round is a stratified corpus: the same number of systems of each shape,
# so that any seed gives the same mix.  Costs differ by an order of magnitude
# between shapes, so the counts also place the median and the 90th
# percentile inside a large shape rather than on the border between two
# (linear-deep: the median in the middle of the dense 3-variable order-3
# systems; linear-wide: both inside the 150 six-variable systems, whose cost
# dominates the run, while the rare n = 7 and 8 systems keep the largest
# determinants in the corpus; charset-nonlinear: the 90th percentile inside
# the 150 two-variable systems under the costly elimination ranking y < x,
# 50 for each pair of different atom pairs).


class InProcess:
    """Workload whose operation is one call into the program per system."""

    def __init__(self, name, shapes):
        self.name = name
        self.shapes = shapes

    def cases(self, seed, rounds):
        rng = corpus.seeded(seed, self.name)
        out = [c for _ in range(rounds) for make, count in self.shapes for c in corpus.distinct(make, count, rng)]
        if len({c.text for c in out}) != len(out):  # distinct across rounds as well
            raise SetupError("duplicate input in %s corpus" % self.name)
        return out

    def prepare(self, mods, cases):
        return [mods["textio"].parse_system(c.text)[1] for c in cases]


class LinearWorkload(InProcess):
    def op(self, mods, polys):
        return mods["engine"].linear_reduce(polys)

    def convert(self, case, res):
        steps = []
        for st in res.trace.steps:
            v = case.names.index(st.var)
            if st.kind == "peel":
                steps.append(("peel", v, None, None, None))
            else:
                c = st.certificate
                (q,) = c.quotients
                quots = {k: algebra.from_program(p) for k, p in q.coeffs.items()}
                steps.append((st.kind, v, algebra.from_program(c.s), quots, algebra.from_program(c.remainder)))
        return {
            "degenerate": res.degenerate,
            "diff_dim": res.diff_dim,
            "abs_dim_bound": res.abs_dim_bound,
            "j_initial": res.j_initial,
            "j_seq": list(res.trace.j_sequence_strong),
            "steps": steps,
        }

    def check(self, case, got, point):
        return checks.linear_result(case, got, point)

    def corruptions(self, got):
        yield dict(got, abs_dim_bound=got["abs_dim_bound"] + 1)
        yield dict(got, j_initial=got["j_initial"] + 1)
        yield dict(got, j_seq=got["j_seq"] + [got["j_seq"][-1] + 1])
        yield dict(got, diff_dim=1)
        steps = list(got["steps"])
        for i, (kind, v, s, q, r) in enumerate(steps):
            if kind != "peel":
                steps[i] = (kind, v, s, q, algebra.add(r, algebra.const(1)))
                yield dict(got, steps=steps)
                break


class CharsetWorkload(InProcess):
    def prepare(self, mods, cases):
        dp = mods["diffpoly"]
        out = []
        for c in cases:
            rk = dp.orderly() if c.ranking is None else dp.elimination(c.ranking)
            out.append((mods["textio"].parse_system(c.text)[1], rk, len(c.names)))
        return out

    def op(self, mods, prepared):
        polys, rk, n = prepared
        red = mods["reduction"]
        res = red.autoreduce_loop(polys, rk)
        return res, red.dimensions(res.charset, n)

    def convert(self, case, out):
        res, (diff_dim, bound) = out
        els = [algebra.from_program(p) for p in res.charset.elements]
        return {"converged": res.converged, "elements": els, "diff_dim": diff_dim, "bound": bound}

    def check(self, case, got, point):
        problems = [] if got["converged"] else ["autoreduce_loop did not converge"]
        return problems + checks.charset_result(case, got["elements"], got["diff_dim"], got["bound"])

    def corruptions(self, got):
        els = got["elements"]
        yield dict(got, elements=els[:-1] + [algebra.add(els[-1], algebra.const(1))])
        yield dict(got, elements=els[::-1]) if len(els) > 1 else dict(got, converged=False)
        yield dict(got, diff_dim=got["diff_dim"] + 1)
        yield dict(got, bound=0 if got["bound"] == checks.INF else got["bound"] + 1)


def _dense(n, order):
    return lambda rng: corpus.linear_dense(rng, n, order)


def _banded(n, order):
    return lambda rng: corpus.linear_banded(rng, n, order)


def _cyclic(n, diag, upper):
    return lambda rng: corpus.linear_cyclic(rng, n, diag, upper)


def _nonlinear(n, ranking, mult_order, mult_degree, sol_degree, pairs=None):
    return lambda rng: corpus.nonlinear(rng, n, ranking, mult_order, mult_degree, sol_degree, pairs)


class CliWorkload:
    """Sequential `python -m diffalg.cli` subprocesses, one at a time."""

    name = "cli-commands"

    def __init__(self):
        self.dir = OUT / ("cli-inputs-%d" % os.getpid())

    def cases(self, seed, rounds):
        shipped = {f: (ROOT / "systems" / f).read_text() for f in clicmds.SHIPPED}
        self.files, invs = clicmds.build(seed, shipped, rounds)
        return invs

    def prepare(self, mods, invs):
        """Write the input files and parse each once, as the CLI will."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, sf in self.files.items():
            path = self.dir / name
            path.write_text(sf.text)
            self.paths[name] = str(path)
            mods["textio"].parse_system(sf.text)
        return [inv.argv(self.paths) for inv in invs]

    def start(self):
        """Start the launcher that runs this workload's subprocesses."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        self.rss_kb = 0

    def stop(self):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=30)
        self.launcher.stdout.close()

    def _launch(self, cmd):
        self.launcher.stdin.write(json.dumps(cmd) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        return json.loads(line)

    def op(self, mods, argv, traced_out=None):
        if traced_out is None:
            cmd = [sys.executable, "-m", "diffalg.cli"] + argv
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), traced_out] + argv
        res = self._launch(cmd)
        self.rss_kb = res["rss_kb"]
        return res["rc"], res["out"], res["err"]

    def reference_time(self):
        """Round trip of a bare interpreter (`python -S -c pass`) through the
        launcher.  Process start-up reacts to the machine's neighbours
        unlike interpreted loops: next to the same invocations, medians of
        15 invocations scaled by it spread 0.033, scaled by the in-process
        reference 0.096, raw 0.103."""
        t = perf_counter()
        self._launch([sys.executable, "-S", "-c", "pass"])
        return perf_counter() - t

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "linear-deep": LinearWorkload("linear-deep", [(_dense(2, 4), 250), (_dense(3, 3), 300), (_dense(3, 4), 250)]),
    "linear-wide": LinearWorkload(
        "linear-wide", [(_banded(5, 2), 90), (_banded(6, 2), 150), (_banded(7, 2), 8), (_cyclic(8, 2, 1), 1)]
    ),
    "charset-nonlinear": CharsetWorkload(
        "charset-nonlinear",
        [
            (_nonlinear(2, None, 1, 2, 2), 300),
            (_nonlinear(2, ((0,), (1,)), 1, 0, 2), 100),
            (_nonlinear(2, ((1,), (0,)), 1, 0, 2, ((0, 1), (0, 2))), 50),
            (_nonlinear(2, ((1,), (0,)), 1, 0, 2, ((0, 1), (1, 2))), 50),
            (_nonlinear(2, ((1,), (0,)), 1, 0, 2, ((0, 2), (1, 2))), 50),
            (_nonlinear(3, None, 0, 1, 1), 225),
            (_nonlinear(3, None, 1, 0, 2), 225),
        ],
    ),
    "cli-commands": CliWorkload(),
}


# -- measurement -------------------------------------------------------------

class Scaled:
    """Measured times scaled to the reference machine's speed.

    The machine this benchmark was built on changes speed by up to 2x from
    one second to the next, because its hardware is shared, so a raw time
    reflects the neighbours as much as the program.  The reference
    computation is timed before the first operation and after every
    operation, and each operation's time is multiplied by
    REF_NOMINAL_S / (geometric mean of the two reference timings around
    it).  A factor per run, or per half second of operations, follows the
    changes too slowly: in the same runs it left up to 3.5 times the spread.
    """

    def __init__(self, reference=reference_time, nominal=REF_NOMINAL_S):
        self.reference = reference
        self.nominal = nominal
        self.refs = [reference()]
        self.raw = []
        self.times = []

    def add(self, dt):
        before, after = self.refs[-1], self.reference()
        self.refs.append(after)
        self.raw.append(dt)
        self.times.append(dt * self.nominal / math.sqrt(before * after))

    def factor(self):
        """Median reference-machine seconds per measured second, for the log."""
        return self.nominal / statistics.median(self.refs)


def setup(workload, seed, rounds):
    """Import, generate and parse SETUP_REPEATS times or more, until the
    set-ups total SETUP_MIN_S; returns the median scaled time."""
    times = Scaled()
    while len(times.raw) < SETUP_MAX_REPEATS and (len(times.raw) < SETUP_REPEATS or sum(times.raw) < SETUP_MIN_S):
        gc.collect()
        t = perf_counter()
        mods = import_program()
        cases = workload.cases(seed, rounds)
        prepared = workload.prepare(mods, cases)
        times.add(perf_counter() - t)
    return statistics.median(times.times), mods, cases, prepared


def run_pass(workload, mods, cases, prepared, seed, traced_dir=None):
    """Time every operation once, checking each result outside the timed region.
    Returns (Scaled times, failures, problems)."""
    is_cli = isinstance(workload, CliWorkload)
    if is_cli:
        workload.start()
        try:
            return _run_pass(workload, mods, cases, prepared, seed, traced_dir)
        finally:
            workload.stop()
    return _run_pass(workload, mods, cases, prepared, seed, traced_dir)


def _run_pass(workload, mods, cases, prepared, seed, traced_dir):
    is_cli = isinstance(workload, CliWorkload)
    lat = Scaled(workload.reference_time, CLI_REF_NOMINAL_S) if is_cli else Scaled()
    failures, problems = [], []
    checker = clicmds.Checker(workload.files, seed) if is_cli else None
    point_rng = corpus.seeded(seed, "certificate-point")
    corrupted, selftested = False, set()
    # the corpus and everything else alive now is never garbage: keep the
    # collector from walking it in the middle of timed operations
    gc.collect()
    gc.freeze()
    for i, (case, prep) in enumerate(zip(cases, prepared)):
        extra = () if traced_dir is None else (str(traced_dir / ("%d.json" % i)),)
        t = perf_counter()
        try:
            res = workload.op(mods, prep, *extra)
            err = None
        except Exception as e:  # an operation that raises is a failed operation
            res, err = None, "%s: %s" % (type(e).__name__, e)
        lat.add(perf_counter() - t)
        if err is not None:
            failures.append("%s: %s" % (getattr(case, "label", " ".join(prep)), err))
            continue
        if is_cli:
            rc, out, errtext = res
            if rc != 0:
                failures.append("%s: exit %d %s" % (" ".join(prep[:1] + prep[2:]), rc, errtext.strip()[-160:]))
                if case.fault and case.fault not in errtext:
                    problems.append("known-fault invocation failed differently: %s" % errtext.strip()[-160:])
                continue
            try:
                found = checker.check(case, out)
            except (ValueError, KeyError, IndexError, AttributeError, TypeError) as e:
                found = ["unreadable output (%s): %r" % (e, out[:200])]
            problems += ["%s: %s" % (" ".join(prep[:1] + prep[2:]), p) for p in found]
            if case.command not in selftested and checker.wants_selftest(case):
                selftested.add(case.command)
                problems += checker.selftest(case, out)
            continue
        point = algebra.random_point(point_rng, len(case.names), 24)
        got = workload.convert(case, res)
        problems += ["%s: %s" % (case.label, p) for p in workload.check(case, got, point)]
        if not corrupted:
            corrupted = True
            problems += selftest(workload.check, case, workload.corruptions(got), point)
    if is_cli and selftested != set(clicmds.COMMANDS):
        problems.append("self-test did not reach %s" % sorted(set(clicmds.COMMANDS) - selftested))
    gc.unfreeze()
    return lat, failures, problems


def selftest(check, case, corruptions, point):
    """Every check must reject a corrupted copy of a result it accepted."""
    return [
        "self-test: corruption %d of a %s result passed the checks" % (i, case.label)
        for i, bad in enumerate(corruptions)
        if not check(case, bad, point)
    ]


def quantile(values, q, half_width=0.05):
    """Mean of the sorted values between the q - half_width and q + half_width
    quantiles.  Operation costs come in clusters (whole division steps, n!
    transversals), and a plain order statistic jumps between clusters when
    one sits at q; the window average moves smoothly instead."""
    v = sorted(values)
    lo = int((q - half_width) * len(v))
    hi = max(lo + 1, int(round((q + half_width) * len(v))))
    return statistics.fmean(v[lo:hi])


def end_to_end(scaled, failed, setup_s, rss_kb):
    lat = scaled.times
    done = len(lat) - failed
    return {
        "ops_per_s": done / sum(lat),
        "latency_p50_ms": quantile(lat, 0.5) * 1000,
        "latency_p90_ms": quantile(lat, 0.9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def cli_import_ms():
    """Median wall time of importing diffalg.cli minus a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(code):
        ts = []
        for _ in range(7):
            t = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT), check=True)
            ts.append(perf_counter() - t)
        return statistics.median(ts)

    return (wall("import diffalg.cli") - wall("pass")) * 1000


def per_layer(workload, mods, cases, prepared, seed, base_lat):
    """Traced pass: per-layer metrics plus the tracing overhead."""
    tag = "%s-seed%d" % (workload.name, seed)
    is_cli = isinstance(workload, CliWorkload)
    summaries = []
    if is_cli:
        tdir = OUT / ("trace-" + tag)
        shutil.rmtree(tdir, ignore_errors=True)
        tdir.mkdir(parents=True)
        lat, failures, problems = run_pass(workload, mods, cases, prepared, seed, traced_dir=tdir)
        for f in sorted(tdir.glob("*.json")):
            summaries.append(json.loads(f.read_text())["summary"])
        spans = sum(s["spans"] for s in summaries)
    else:
        # parsing is traced apart, so that the shares below are of operation time
        parse_tr, tr = Tracer(), Tracer()
        parse_tr.install()
        try:
            prepared = workload.prepare(mods, cases)
        finally:
            parse_tr.restore()
        tr.install()
        try:
            lat, failures, problems = run_pass(workload, mods, cases, prepared, seed)
        finally:
            tr.restore()
        summaries += [tr.summary(), parse_tr.summary()]
        spans = len(tr.spans) + len(parse_tr.spans)
        tr.dump(OUT / ("trace-%s.json" % tag))
    m = layer_metrics(summaries)
    ops = m if is_cli else layer_metrics(summaries[:1])
    traced = sum(lat.raw)
    m["trace.spans"] = spans
    m["trace.overhead_pct"] = (sum(lat.times) / sum(base_lat.times) - 1) * 100
    trop = sum(ops[k] for k in ("tropical.tdet_s", "tropical.normalize_s", "tropical.detect_s", "tropical.order_matrix_s"))
    red = sum(ops[k] for k in ("reduction.divide_s", "reduction.verify_s", "reduction.autoreduce_s"))
    poly = sum(ops[k] for k in ("diffpoly.mul_s", "diffpoly.derive_s", "diffpoly.coeffs_in_s", "diffpoly.render_s"))
    m["share.tropical_pct"] = trop / traced * 100
    m["share.reduction_diffpoly_pct"] = (red + poly) / traced * 100
    for cmd in clicmds.COMMANDS:
        m["cli.%s_ms" % cmd] = 0.0
    m["cli.import_ms"] = 0.0
    if is_cli:
        by_cmd = {}
        for argv, t in zip(prepared, base_lat.raw):
            by_cmd.setdefault(argv[0], []).append(t * 1000)
        for cmd, ts in by_cmd.items():
            m["cli.%s_ms" % cmd] = statistics.median(ts)
        m["cli.import_ms"] = cli_import_ms()
    return m, failures, problems


def run_workload(workload, seed, seconds, trace):
    rounds = max(1, round(seconds / ROUND_SECONDS))
    setup_s, mods, cases, prepared = setup(workload, seed, rounds)
    try:
        lat, failures, problems = run_pass(workload, mods, cases, prepared, seed)
        if isinstance(workload, CliWorkload):
            rss = workload.rss_kb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            OUT.mkdir(exist_ok=True)
            metrics, tfail, tprob = per_layer(workload, mods, cases, prepared, seed, lat)
            problems += tprob
            if len(tfail) != len(failures):
                problems.append("traced pass failed %d operations, untraced %d" % (len(tfail), len(failures)))
        else:
            metrics = end_to_end(lat, len(failures), setup_s, rss)
    finally:
        if isinstance(workload, CliWorkload):
            workload.cleanup()
    for f in failures:
        print("failed: %s" % f, file=sys.stderr)
    for p in problems:
        print("WRONG: %s" % p, file=sys.stderr)
    print(
        "%s: %d operations, %.2f s measured, median speed factor %.3f (reference %.2f ms, nominal %.2f ms)"
        % (workload.name, len(lat.raw), sum(lat.raw), lat.factor(), lat.nominal / lat.factor() * 1000, lat.nominal * 1000)
    )
    return {"correct": not problems, "attempted": len(lat.raw), "failed": len(failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        compile_program()
    except SetupError as e:
        print("benchmark: %s" % e, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # one CPU for this process and every child, so that the reference timings
    # are taken on the CPU that runs the operations
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        if set(res["metrics"]) != set(units):
            print("benchmark: metrics differ from BENCHMARK.json: %s" % sorted(set(res["metrics"]) ^ set(units)), file=sys.stderr)
            return 2
        results[name] = res
        print("%s: attempted=%d failed=%d correct=%s" % (name, res["attempted"], res["failed"], res["correct"]))
        for k, v in res["metrics"].items():
            print("  %-34s %14.4f %s" % (k, v, units[k]))
    prefix = (lambda w, k: k) if len(names) == 1 else (lambda w, k: "%s.%s" % (w, k))
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefix(w, k): {"value": v, "unit": units[k]} for w, r in results.items() for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
