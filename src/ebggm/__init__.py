"""Empirical Bayes structure selection for decomposable Gaussian graphical models."""

from .errors import (
    ChecksumError,
    DegenerateStatsError,
    DomainError,
    EbggmError,
    MismatchedModelError,
    NonFiniteError,
    NotDecomposableError,
    NotSPDError,
    ParseError,
    SingularScatterError,
    TooLargeError,
    ZeroVarianceError,
)
from .graphs import (
    Graph,
    bench9_graph,
    count_decomposable,
    edge_index,
    edge_pair,
    enumerate_decomposable,
    graph_from_cliques,
    is_decomposable,
    legal_additions,
    legal_deletions,
    n_candidate_edges,
    named_graph,
    perfect_sequence,
    random_decomposable_graph,
    to_dot,
)
from .hiw import (
    DatasetStats,
    Hyperparams,
    PosteriorScorer,
    log_graph_prior,
    log_hiw_constant,
    log_iw_constant,
    log_marginal_likelihood,
    log_multivariate_gamma,
    log_posterior_score,
    sample_hiw,
    sample_hiw_inverse_trace,
    simulate_dataset,
)
from .sampler import (
    ChainLog,
    ChainState,
    KernelConfig,
    MoveCache,
    edge_weights,
    run_chain,
    sample_graph_and_sigma,
    weight_tables,
)
from .saem import (
    SaemConfig,
    SaemResult,
    compute_suff_stats,
    draw_suff_stats,
    init_graph_backward,
    m_step,
    run_saem,
    step_size,
)
from .exact import (
    ExactComparison,
    MarginalSurface,
    PosteriorTable,
    chain_vs_exact,
    exact_marginal_mle,
    exact_posterior,
)
from .dataio import ingest_csv

__version__ = "0.1.0"
