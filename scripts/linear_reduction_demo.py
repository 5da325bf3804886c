"""Run the linear elimination engine on random square linear systems and
report how the Jacobi number bounds the absolute dimension.

Run:  python3 scripts/linear_reduction_demo.py --count 200 --seed 11
"""

import argparse
import random

from diffalg import DiffRing, InconsistentSystem, linear_reduce, render
from diffalg.generators import rand_linear_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--max-order", type=int, default=5)
    ap.add_argument("--show", type=int, default=3, help="print this many full traces")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    names = ("x", "y", "z", "t")
    stats = {"solved": 0, "degenerate": 0, "inconsistent": 0, "tight": 0}
    shown = 0
    for _ in range(args.count):
        ring = DiffRing(names[: rng.randint(1, 4)])
        system = rand_linear_system(rng, ring, args.max_order)
        try:
            res = linear_reduce(system)
        except InconsistentSystem:
            stats["inconsistent"] += 1
            continue
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


if __name__ == "__main__":
    main()
