"""Maximum-leaf out-branchings: local search, path decompositions, an
FPT dynamic program, exact oracles and a verification harness."""

from .branching import Classification, OutBranching, OutTree, classify, leaf_count, validate
from .decomposition import (
    DecomposeOutcome,
    PathDecomposition,
    decompose_acyclic,
    decompose_strong,
    ordering_to_decomposition,
    validate_pd,
)
from .digraph import (
    Digraph,
    Graph,
    StrongComponentIndex,
    has_out_branching,
    in_class_L,
    parse,
    reachable_subdigraph,
    serialize,
    strong_components,
    underlying_graph,
)
from .fpt import Decision, decide_k_dmlob, decide_k_dmlot
from .generators import InstanceSpec, gen_ht, generate
from .local_search import (
    Certificate,
    ExchangeMove,
    best_of_restarts,
    check_structural_conditions,
    improve_to_1ae,
    is_1ae_optimal,
)
from .oracles import (
    BudgetExhausted,
    VertexOrdering,
    exact_max_leaf_branching,
    exact_max_leaf_tree,
    exact_vertex_separation,
)

__version__ = "0.1.0"
