"""Differential polynomial arithmetic, Ritt reduction, and tropical
order-matrix tools."""

from .diffpoly import (
    NEG_INF,
    POS_INF,
    Derivative,
    DiffPoly,
    DiffRing,
    LinOp,
    Ranking,
    elimination,
    initial,
    is_lower_than,
    orderly,
    render,
    separant,
)
from .engine import (
    DegenerateSituation,
    LinearReduceResult,
    ReductionStep,
    Trace,
    linear_reduce,
    parse_script,
    scripted_divide,
    step_first_form,
    step_second_form,
)
from .errors import InternalInvariantViolation, ResourceLimit
from .matching import (
    BipartiteMultigraph,
    HallViolation,
    Matching,
    decompose_regular,
    find_directed_cycle,
    hall_matching,
)
from .pencil import RittPencil, build_pencil, coseparant, fiber_at
from .reduction import (
    AutoreducedSet,
    CharSetResult,
    DivisionCertificate,
    InconsistentSystem,
    autoreduce_loop,
    compare_autoreduced,
    dimensions,
    elimination_project,
    is_reduced_wrt,
    membership,
    ritt_divide,
)
from .textio import ParseError, parse_poly, parse_system
from .tropical import (
    FormCertificate,
    HypothesisFailure,
    OrderMatrix,
    cyclic_sum,
    detect_first_form,
    detect_second_form,
    detect_third_form,
    normalize,
    order_matrix,
    permute,
    render_grid,
    ritt_compare,
    tdet,
    tdet_assignment,
    tdet_brute,
    to_first_form,
    to_second_form,
    transversal_value,
)
