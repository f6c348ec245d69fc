"""Feasibility, minimal-solution structure, and exact monotone-objective
optimization for systems of inequalities max_j max(a_ij + x_j - 1, 0) >= b_i
over the unit cube.

The feasible region of such a system is a finite union of boxes whose
bottom corners are computable exactly; a monotone objective therefore
attains its global minimum at one of finitely many candidate points. The
solver reaches every minimal solution by a covered-row search, a
depth-first walk over the rows that skips rows the partial point already
satisfies, and prunes the leaves by dominance; enumerate_candidates still
streams the paper's full selector product. A column j reaches row i's
threshold at x_j = t_ij = 1 + (b_i - epsilon) - a_ij. All lattice
arithmetic is exact rational arithmetic; floats appear only in objective
values and serialized output.
"""

from .core import (
    Instance,
    Point,
    as_grade,
    as_point,
    compose,
    compose_row,
    is_member,
    luk_tnorm,
    ones,
    zeros,
)
from .feasibility import (
    FeasibilityVerdict,
    IndexSets,
    InfeasibleSystemError,
    check_feasibility,
    compute_index_sets,
)
from .structure import (
    DEFAULT_CAP,
    Candidate,
    CapExceededError,
    Selector,
    candidate_from_selector,
    cell_decomposition,
    enumerate_candidates,
    prune_to_minimal,
    row_minimal,
    search_candidates,
    selector_count,
)
from .objective import (
    OBJECTIVES,
    Objective,
    coordinate_sum,
    log_sum_exp,
    max_coordinate,
    monotone_on_pairs,
)
from .solver import SolveReport, SolverOptions, solve, solve_unpruned
from .oracle import (
    GridTooLargeError,
    LatticeGrid,
    brute_force_minimal,
    brute_force_optimum,
    build_grid,
)
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
    "compose_row",
    "is_member",
    "luk_tnorm",
    "ones",
    "zeros",
    "FeasibilityVerdict",
    "IndexSets",
    "InfeasibleSystemError",
    "check_feasibility",
    "compute_index_sets",
    "DEFAULT_CAP",
    "Candidate",
    "CapExceededError",
    "Selector",
    "candidate_from_selector",
    "cell_decomposition",
    "enumerate_candidates",
    "prune_to_minimal",
    "row_minimal",
    "search_candidates",
    "selector_count",
    "OBJECTIVES",
    "Objective",
    "coordinate_sum",
    "log_sum_exp",
    "max_coordinate",
    "monotone_on_pairs",
    "SolveReport",
    "SolverOptions",
    "solve",
    "solve_unpruned",
    "GridTooLargeError",
    "LatticeGrid",
    "brute_force_minimal",
    "brute_force_optimum",
    "build_grid",
    "InstanceFormatError",
    "load_instance",
    "parse_instance_text",
    "serialize_instance",
    "generate_instance",
    "__version__",
]
