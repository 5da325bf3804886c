"""Survey random order matrices: how often do the first- and second-form
hypotheses fire, and does every normalization pass its form's detector?

Run:  python3 scripts/forms_survey.py --count 2000 --seed 7
"""

import argparse
import random
import sys

from diffalg import (
    HypothesisFailure,
    NEG_INF,
    detect_first_form,
    detect_second_form,
    normalize,
    render_grid,
    tdet,
)
from diffalg.generators import rand_matrix

DETECTORS = {"first": detect_first_form, "second": detect_second_form}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    tally = {"first": 0, "second": 0, "neither": 0, "singular": 0}
    for _ in range(args.count):
        n = rng.randint(2, args.max_n)
        a = rand_matrix(rng, n, p_inf=rng.choice([0.0, 0.15, 0.35]))
        if tdet(a) == NEG_INF:
            tally["singular"] += 1
            continue
        try:
            cert, _ = normalize(a)
        except HypothesisFailure:
            tally["neither"] += 1
            continue
        # checked by the detector of the form it names, also under -O
        if not DETECTORS[cert.form](cert.apply(a)):
            print("%s-form certificate %r fails its detector on\n%s" % (cert.form, cert, render_grid(a)), file=sys.stderr)
            sys.exit(1)
        tally[cert.form] += 1
    total = args.count
    for key in ("first", "second", "neither", "singular"):
        print("%-9s %6d  (%.1f%%)" % (key, tally[key], 100.0 * tally[key] / total))
    print("every successful normalization passed its detector")


if __name__ == "__main__":
    main()
