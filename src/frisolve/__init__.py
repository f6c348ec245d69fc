"""Feasibility, minimal-solution structure, and exact monotone-objective
optimization for systems of inequalities max_j max(a_ij + x_j - 1, 0) >= b_i
over the unit cube.

The feasible region of such a system is a finite union of boxes whose
bottom corners are computable exactly; a monotone objective therefore
attains its global minimum at one of finitely many candidate points. One
module, solver, holds the search. solve reaches every minimal solution by
a covered-row walk, depth-first over the rows, skipping rows the partial
point already satisfies, and keeps the leaves that pass a per-point row
test (each nonzero coordinate is the only one meeting some row, at its
threshold), which on the walk's leaves is exactly minimality;
solve_unpruned walks the same tree with the objective as a lower bound
and returns the optimizer alone; enumerate_candidates still streams the
paper's full selector product. Each of the three is bounded by an integer work cap of at least
1 (DEFAULT_CAP unless given), and each candidate carries its selector as a
tuple of one column per row, None at a vacuous row. A column j reaches
row i's threshold at x_j = t_ij = 1 + (b_i - epsilon) - a_ij. The
report's cells, one box [x, ones] per minimal solution x, are derived from
the minimal set where the report is rendered. brute_force is the
independent exhaustive oracle whose pass, on the instance's integers, the
verify command runs against the solver. All lattice arithmetic is exact
rational arithmetic; floats appear only in objective values and
serialized output.
"""

from .core import (
    Instance,
    Point,
    as_grade,
    as_point,
    compose,
    is_member,
    ones,
    zeros,
)
from .feasibility import IndexSets, InfeasibleSystemError, compute_index_sets
from .objective import (
    OBJECTIVES,
    Objective,
    coordinate_sum,
    log_sum_exp,
    max_coordinate,
)
from .solver import (
    DEFAULT_CAP,
    Candidate,
    CapExceededError,
    SolveReport,
    enumerate_candidates,
    selector_count,
    solve,
    solve_unpruned,
)
from .oracle import GridTooLargeError, brute_force
from .files import (
    InstanceFormatError,
    load_instance,
    parse_instance_text,
    serialize_instance,
)
from .generate import generate_instance

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Point",
    "as_grade",
    "as_point",
    "compose",
    "is_member",
    "ones",
    "zeros",
    "IndexSets",
    "InfeasibleSystemError",
    "compute_index_sets",
    "DEFAULT_CAP",
    "Candidate",
    "CapExceededError",
    "enumerate_candidates",
    "selector_count",
    "OBJECTIVES",
    "Objective",
    "coordinate_sum",
    "log_sum_exp",
    "max_coordinate",
    "SolveReport",
    "solve",
    "solve_unpruned",
    "GridTooLargeError",
    "brute_force",
    "InstanceFormatError",
    "load_instance",
    "parse_instance_text",
    "serialize_instance",
    "generate_instance",
    "__version__",
]
