"""Walk the J-increasing system through its scripted divisions.

Prints the order matrix, the Jacobi number under both conventions, and the
per-step matrices of the trace.  Run:  python3 scripts/jacobi_trace_demo.py
"""

import argparse
from pathlib import Path

from diffalg import (
    order_matrix,
    parse_script,
    parse_system,
    render,
    render_grid,
    scripted_divide,
    tdet,
)
from diffalg.corpus import J_INCREASING


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--system", help="system file (default: the embedded J-increasing example)")
    ap.add_argument("--script", default="0/2@x;1/2@x", help="divisions, e.g. 0/2@x;1/2@x")
    args = ap.parse_args()

    text = Path(args.system).read_text() if args.system else J_INCREASING
    ring, system = parse_system(text)
    for conv in ("weak", "strong"):
        m = order_matrix(system, None, conv)
        print("%s order matrix (J=%s):" % (conv, tdet(m.entries)))
        print(render_grid(m.entries))
    final, trace = scripted_divide(system, parse_script(args.script))
    print("\nJ-sequence (weak):  %s" % ",".join(map(str, trace.j_sequence)))
    print("J-sequence (strong): %s" % ",".join(map(str, trace.j_sequence_strong)))
    for i, step in enumerate(trace.steps):
        print("\nafter step %d (divide eq %d by eq %d in %s):" % (i + 1, step.dividend, step.divisor, step.var))
        print(render_grid(step.matrix_after.entries))
    print("\nfinal system:")
    for p in final:
        print("  " + render(p))


if __name__ == "__main__":
    main()
