"""Disjoint bipartite matchings: solvers, reductions, and certificates."""

from .graph import (
    BipartiteGraph,
    DmInstance,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    is_matching,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_spair,
)
from .matching import max_matching
from .flow import gf_factor
from .coloring import konig_color
from .lebensold import LebensoldVerdict, lebensold_condition
from .solve import (
    BudgetExhausted,
    Method,
    SolveOutcome,
    count_spairs_exact,
    solve,
    solve_exact,
    solve_poly_large_s,
)
from .reductions import (
    CnfFormula,
    decode_spair_to_assignment,
    encode_assignment_to_spair,
    extend_spair_to_dm,
    parse_dimacs_cnf,
    project_dm_to_spair,
    reduce_3sat_to_sdm,
    reduce_sdm_to_dm,
    true_false_pairs,
)

__version__ = "0.1.0"
