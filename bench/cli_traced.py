"""Run one diffalg CLI command under the tracer.

    python3 bench/cli_traced.py OUT.json COMMAND [ARGS...]

Imports diffalg.cli from ../src, wraps its layers, runs the command as
`python -m diffalg.cli` would, writes the spans and their summary to OUT.json
and exits with the command's exit code.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import diffalg.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.install()
    try:
        rc = diffalg.cli.main(argv)
    except SystemExit as e:  # argparse errors
        rc = e.code
    finally:
        tr.restore()
        tr.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
