"""Runs the cli-commands workload's subprocesses, one at a time.

Reads one JSON list (an argv) per line on standard input, runs it, and
answers with one JSON line: exit code, output, and the largest resident set
of any child so far.  A child's peak-RSS figure starts at its parent's peak
(the child shares the parent's memory until it execs), so the children are
started from this small process rather than from the benchmark itself.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        p = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=170)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"rc": p.returncode, "out": p.stdout, "err": p.stderr, "rss_kb": rss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
