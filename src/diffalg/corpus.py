"""Embedded worked examples with golden values for the `examples` command."""

from __future__ import annotations

from .diffpoly import NEG_INF
from .engine import scripted_divide
from .textio import parse_system
from .tropical import order_matrix, tdet

J_INCREASING = """\
vars: x, y, z
x^(100) + y' + z'
x^(50) + y + z
x' + y' + 1
"""

J_INCREASING_SECOND_FORM = """\
vars: x, y, z
x + x' + y'' + z'''
x' + y' + z'
x'' + y' + z'
"""

WEAK_STRONG = """\
vars: x, y
x' + y^(18)
(y')^2 + y
"""


def run_golden_checks():
    """Yields (label, expected, actual) triples; all must agree exactly."""
    ring, sys1 = parse_system(J_INCREASING)
    yield "j_increasing J weak", 101, tdet(order_matrix(sys1, None, "weak").entries)
    yield "j_increasing J strong", 101, tdet(order_matrix(sys1, None, "strong").entries)
    _, trace = scripted_divide(sys1, [(0, 2, "x"), (1, 2, "x")])
    yield "j_increasing trace J-sequence", (101, 150, 101), trace.j_sequence

    ring2, sys2 = parse_system(J_INCREASING_SECOND_FORM)
    before = order_matrix(sys2, None, "strong")
    yield "second-form example matrix", ((1, 2, 3), (1, 1, 1), (2, 1, 1)), before.entries
    yield "second-form example J before", 6, tdet(before.entries)
    after_sys, trace2 = scripted_divide(sys2, [(2, 0, "x")])
    after = order_matrix(after_sys, None, "strong")
    yield "second-form example matrix after", ((1, 2, 3), (1, 1, 1), (1, 3, 4)), after.entries
    yield "second-form example J after", 7, tdet(after.entries)

    ring3, sys3 = parse_system(WEAK_STRONG)
    yield "weak/strong matrix weak", ((1, 18), (0, 1)), order_matrix(sys3, None, "weak").entries
    yield "weak/strong matrix strong", ((1, 18), (NEG_INF, 1)), order_matrix(sys3, None, "strong").entries
    yield "weak/strong J weak", 18, tdet(order_matrix(sys3, None, "weak").entries)
    yield "weak/strong J strong", 2, tdet(order_matrix(sys3, None, "strong").entries)
