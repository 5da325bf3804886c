"""Error classes shared by several layers.

InternalInvariantViolation marks a fact the theory guarantees that failed to
hold (a bug, exit code 2 in the CLI); ResourceLimit marks a computation
stopped at an explicit implementation limit (exit code 3).  Neither is a
user or data error."""

import sys


class InternalInvariantViolation(AssertionError):
    """A step the theory guarantees has failed; the message carries the inputs."""


class ResourceLimit(RuntimeError):
    """A computation exceeded an explicit limit (witness count, step budget,
    the characteristic-set round cap, the order, exponent, power, product and
    division-remainder size caps, the interpreter's limit on integer-string
    conversion)."""


def digit_limit(what, where=""):
    """ResourceLimit for `what`, a number and its size, past the interpreter's
    limit on converting integers to and from decimal text."""
    limit = sys.get_int_max_str_digits()
    return ResourceLimit("%s exceeds the interpreter's limit of %d digits for integer-string conversion%s"
                         % (what, limit, where))


def digits_size(digits):
    return "%d digits (about %d bits)" % (digits, round(digits * 3.321928))  # log2(10) bits a digit
