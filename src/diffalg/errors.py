"""Error classes shared by several layers.

InternalInvariantViolation marks a fact the theory guarantees that failed to
hold (a bug, exit code 2 in the CLI); ResourceLimit marks a computation
stopped at an explicit implementation limit (exit code 3).  Neither is a
user or data error."""


class InternalInvariantViolation(AssertionError):
    """A step the theory guarantees has failed; the message carries the inputs."""


class ResourceLimit(RuntimeError):
    """A computation exceeded an explicit limit (witness count, step budget,
    the order and exponent caps of packed monomials)."""
