"""Run the linear elimination engine on random square linear systems and
report how the Jacobi number bounds the absolute dimension.  Every trace is
checked against its own J-sequences, weak and strong: a peel step's J values
are the totals before and after it, and a form step moves the total by as
much as it moves its own J.  A contradiction prints the system to stderr and
exits 1, also under -O.

Run:  python3 scripts/linear_reduction_demo.py --count 200 --seed 11
"""

import argparse
import random
import sys

from diffalg import DiffRing, InconsistentSystem, linear_reduce, render
from diffalg.generators import rand_linear_system


def contradiction(trace):
    """The first step whose J values contradict the trace's J-sequences, as
    text, or None."""
    for k, step in enumerate(trace.steps):
        for conv, seq, before, after in (
            ("weak", trace.j_sequence, step.j_before, step.j_after),
            ("strong", trace.j_sequence_strong, step.j_before_strong, step.j_after_strong),
        ):
            total = seq[k : k + 2]
            if (step.kind == "peel" and (before, after) != total) or total[1] != total[0] - before + after:
                return "step %d (%s): %s J %s -> %s, J-sequence %s -> %s" % (
                    k, step.kind, conv, before, after, total[0], total[1])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--max-order", type=int, default=5)
    ap.add_argument("--show", type=int, default=3, help="print this many full traces")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    names = ("x", "y", "z", "t")
    stats = {"solved": 0, "degenerate": 0, "inconsistent": 0, "tight": 0, "checked": 0}
    shown = 0
    for _ in range(args.count):
        ring = DiffRing(names[: rng.randint(1, 4)])
        system = rand_linear_system(rng, ring, args.max_order)
        try:
            res = linear_reduce(system)
        except InconsistentSystem:
            stats["inconsistent"] += 1
            continue
        bad = contradiction(res.trace)
        if bad:
            print("%s contradicts its J-sequence on\n%s" % (bad, "\n".join(map(render, system))), file=sys.stderr)
            sys.exit(1)
        stats["checked"] += len(res.trace.steps)
        if res.degenerate:
            stats["degenerate"] += 1
            continue
        stats["solved"] += 1
        if res.abs_dim_bound == res.j_initial:
            stats["tight"] += 1
        if shown < args.show:
            shown += 1
            print("system:")
            for p in system:
                print("  " + render(p))
            print("J-sequence (strong): %s" % ",".join(map(str, res.trace.j_sequence_strong)))
            print("absDimBound=%s  J_initial=%s" % (res.abs_dim_bound, res.j_initial))
            # long charset elements are cut to their leading terms
            shown_cs = "; ".join(
                s if len(s) <= 60 else s[:57] + "..." for s in map(render, res.charset.elements)
            )
            print("charset: %s\n" % shown_cs)
    print("solved=%(solved)d degenerate=%(degenerate)d inconsistent=%(inconsistent)d" % stats)
    print("bound met J exactly in %d of %d solved runs" % (stats["tight"], stats["solved"]))
    print("every trace agreed with its J-sequences: %d steps checked in both conventions" % stats["checked"])


if __name__ == "__main__":
    main()
