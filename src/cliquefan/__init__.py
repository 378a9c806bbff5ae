"""Odd-clique-fan search in dense graphs, with exact desk-scale oracles."""

from .finder import (
    HypothesisViolation,
    SearchCertificate,
    SearchInvariantError,
    check_violation,
    extend_clique,
    find_odd_fan,
    peel_dense_subgraph,
    replay_certificate,
    rotate_clique,
    search_thresholds,
    verify_certificate,
)
from .generators import (
    FanShape,
    TupleShape,
    fan_graph,
    generalized_fan,
    gnp_random,
    rt_lower_construction,
    triangle_free_process,
    turan_graph,
)
from .graphs import (
    Graph,
    is_clique,
    is_independent,
)
from .invariants import (
    BudgetExceeded,
    IndependentSet,
    max_independent_set,
    max_matching,
)
from .witness import (
    FanEmbedding,
    GeneralizedFanEmbedding,
    find_fan,
    verify_fan,
    verify_generalized_fan,
)

__version__ = "0.1.0"
