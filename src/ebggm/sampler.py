"""Metropolis-Hastings kernels over the space of decomposable graphs.

Every kernel is the add-delete step (mh_step): pick a direction with
probability 1/2, then a legal move in it.  The uniform kernel picks the
move uniformly; the data-driven kernel weights additions toward edges with
large empirical partial covariance |K_ij| (K the inverse empirical
covariance) and deletions toward small ones.  A third mode alternates the
two by step parity.  A direction with no legal move is a null proposal and
counts as a rejected step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import exp, log
from operator import ne

import numpy as np

from .errors import SingularScatterError
from .graphs import Graph, edge_pair, iter_bits, nth_bit
from .hiw import DatasetStats, Hyperparams, PosteriorScorer, phi_matrix, sample_hiw

KERNEL_MODES = ("add_delete", "data_driven", "alternate")


@dataclass(frozen=True)
class KernelConfig:
    mode: str = "add_delete"
    weight_floor: float = 1e-12

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ValueError(f"kernel mode must be one of {KERNEL_MODES}, "
                             f"got {self.mode!r}")
        if not 0.0 < self.weight_floor <= 1.0:
            raise ValueError("weight_floor must lie in (0, 1]")


def auto_kernel_mode(stats: DatasetStats):
    """alternate when the empirical covariance is invertible, else add_delete.

    The data-driven half of alternate needs the inverse empirical covariance.
    """
    try:
        stats.inv_empirical
    except SingularScatterError:
        return "add_delete"
    return "alternate"


class MoveCache:
    """One Graph per distinct graph, so that a graph the chain revisits
    brings the perfect sequence and move masks it built before."""

    def __init__(self):
        self._memo = {}

    def moves(self, g: Graph):
        """The memo's Graph equal to g, which is g itself the first time."""
        return self._memo.setdefault(g, g)


@dataclass(frozen=True)
class ChainState:
    """Where a chain stands: its graph, that graph's score, and the move
    memo the chain has filled so far (outside equality and repr)."""

    graph: Graph
    log_score: float
    step_index: int = 0
    accept_count: int = 0
    moves: MoveCache = field(default_factory=MoveCache, compare=False, repr=False)


def edge_weights(stats: DatasetStats, cfg: KernelConfig):
    """Clamped |K_ij| per edge slot and its reciprocal for deletions.

    All weights land in [weight_floor, 1/weight_floor]; if every entry hits
    the floor the kernel degrades to uniform selection by construction.
    """
    k_mat = stats.inv_empirical
    p = stats.p
    lo, hi = cfg.weight_floor, 1.0 / cfg.weight_floor
    add_w = []
    for i in range(p):
        for j in range(i + 1, p):
            add_w.append(min(max(abs(float(k_mat[i, j])), lo), hi))
    del_w = [1.0 / w for w in add_w]
    return tuple(add_w), tuple(del_w)


def _weight_total(weights, mask):
    total = 0.0
    for k in iter_bits(mask):
        total += weights[k]
    return total


def _propose(g: Graph, moves: MoveCache, weights, do_delete, rng):
    """Add-delete move from g in the chosen direction.

    weights=None picks a legal move uniformly; otherwise weights is the
    (addition, deletion) pair from edge_weights, summed over candidate edges
    in ascending edge order.  Returns (proposal, (i, j), log q-ratio), the
    proposal being the memo's Graph, or None when the direction has no legal
    move.  The log q-ratio is log q(reverse move) - log q(forward move).
    """
    cand = g.deletions if do_delete else g.additions
    if not cand:
        return None
    if weights is None:
        k = nth_bit(cand, int(rng.integers(cand.bit_count())))
    else:
        w_rev, w_fwd = weights if do_delete else weights[::-1]
        total_fwd = _weight_total(w_fwd, cand)
        target = rng.random() * total_fwd
        acc = 0.0
        k = cand.bit_length() - 1
        for kk in iter_bits(cand):
            acc += w_fwd[kk]
            if acc >= target:
                k = kk
                break
    gp = moves.moves(Graph(g.p, g.edges ^ (1 << k)))
    reverse = gp.additions if do_delete else gp.deletions
    if weights is None:
        log_q_ratio = log(cand.bit_count()) - log(reverse.bit_count())
    else:
        log_q_fwd = log(w_fwd[k]) - log(total_fwd)
        log_q_rev = log(w_rev[k]) - log(_weight_total(w_rev, reverse))
        log_q_ratio = log_q_rev - log_q_fwd
    return gp, edge_pair(g.p, k), log_q_ratio


def mh_step(state: ChainState, rng, *, scorer: PosteriorScorer, weights=None):
    """One add-delete Metropolis-Hastings step.

    The direction is add or delete with probability 1/2 each; weights=None
    proposes uniformly among the legal moves, edge_weights output biases the
    proposal toward large (additions) or small (deletions) |K_ij|.  A
    direction with no legal move is a null proposal and counts as a
    rejected step.  Only the proposal is looked up in the state's move memo,
    which the next state carries on; the current graph keeps its own moves.
    """
    do_delete = rng.random() < 0.5
    moves = state.moves
    proposal = _propose(state.graph, moves, weights, do_delete, rng)
    step = state.step_index + 1
    if proposal is not None:
        gp, _, log_q_ratio = proposal
        score = scorer.score(gp)
        log_alpha = score - state.log_score + log_q_ratio
        if rng.random() < (1.0 if log_alpha >= 0.0 else exp(log_alpha)):
            return ChainState(gp, score, step, state.accept_count + 1, moves)
    return ChainState(state.graph, state.log_score, step, state.accept_count, moves)


@dataclass
class ChainLog:
    """Per-step visit record of one chain run: graph IDs and log scores.

    start_step and start_id are the step index and graph ID before the
    first logged step.  Every proposal flips one edge, so a step was
    accepted exactly when its graph differs from the one before it.
    """

    p: int
    start_step: int
    start_id: int
    graph_ids: list
    log_scores: list

    def __len__(self):
        return len(self.graph_ids)

    @property
    def steps(self):
        return np.arange(self.start_step + 1, self.start_step + len(self) + 1)

    @property
    def accepted(self):
        before = [self.start_id] + self.graph_ids
        return np.fromiter(map(ne, self.graph_ids, before), dtype=bool,
                           count=len(self))

    def running_acceptance(self):
        return np.cumsum(self.accepted) / np.arange(1, len(self) + 1)

    def acceptance_rate(self):
        return float(np.mean(self.accepted)) if len(self) else 0.0


def run_chain(init, n_steps, stats: DatasetStats, hp: Hyperparams,
              cfg: KernelConfig, rng):
    """Run the configured kernel for n_steps and log every visited state.

    init may be a Graph, which starts a fresh move memo, or a ChainState,
    whose memo, step parity and acceptance count carry on.  Either way the
    start graph is scored under hp, so a state reached under other
    hyperparameters resumes correctly.  Under alternate an even step_index
    proposes uniformly and an odd one uses the edge_weights of stats.
    Returns (final ChainState, ChainLog).
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    scorer = PosteriorScorer(stats, hp)
    if isinstance(init, Graph):
        moves = MoveCache()
        init = ChainState(moves.moves(init), 0.0, moves=moves)
    state = replace(init, log_score=scorer.score(init.graph))
    if cfg.mode == "add_delete":
        by_parity = (None, None)
    else:
        weights = edge_weights(stats, cfg)
        by_parity = (None, weights) if cfg.mode == "alternate" else (weights, weights)
    log = ChainLog(stats.p, state.step_index, state.graph.edges, [], [])
    for _ in range(n_steps):
        state = mh_step(state, rng, scorer=scorer,
                        weights=by_parity[state.step_index % 2])
        log.graph_ids.append(state.graph.edges)
        log.log_scores.append(state.log_score)
    return state, log


def sample_graph_and_sigma(state, stats: DatasetStats, hp: Hyperparams,
                           M, rng, cfg: KernelConfig | None = None):
    """Advance the graph chain M steps from state (a Graph or a ChainState,
    as for run_chain), then draw a covariance from its conjugate posterior
    on the final graph.

    Returns (new ChainState, sigma).  The drawn sigma follows the
    graph-constrained law with degrees delta + n and scale Phi + scatter.
    """
    state, _ = run_chain(state, M, stats, hp, cfg or KernelConfig(), rng)
    post_scale = phi_matrix(hp, stats) + stats.scatter
    return state, sample_hiw(state.graph, hp.delta + stats.n, post_scale, rng)
