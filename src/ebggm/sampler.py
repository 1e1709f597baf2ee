"""Metropolis-Hastings kernels over the space of decomposable graphs.

Every kernel is the add-delete step of one chain loop: pick a direction with
probability 1/2, then a legal move in it.  The uniform kernel picks the
move uniformly; the data-driven kernel weights additions toward edges with
large empirical partial covariance |K_ij| (K the inverse empirical
covariance) and deletions toward small ones.  A third mode alternates the
two by step parity.  A direction with no legal move is a null proposal and
counts as a rejected step.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from math import exp, log
from operator import getitem, ne

import numpy as np

from .errors import SingularScatterError
from .graphs import Graph, clique_edge_mask, nth_bit, pair_table
from .hiw import DatasetStats, Hyperparams, PosteriorScorer, phi_matrix, sample_hiw

KERNEL_MODES = ("add_delete", "data_driven", "alternate")
# relative slack on the pre-test's bound on log alpha; it covers the rounding
# of a local score change against a difference of two full scores
BOUND_SLACK = 1e-9
# lower clamp of |K_ij|, so that every legal move keeps a positive, finite weight
WEIGHT_FLOOR = 1e-12
_TABLES = weakref.WeakKeyDictionary()  # weight_tables per DatasetStats


@dataclass(frozen=True)
class KernelConfig:
    mode: str = "add_delete"

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ValueError(f"kernel mode must be one of {KERNEL_MODES}, "
                             f"got {self.mode!r}")


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
    brings the cliques, separators and move masks it built before."""

    def __init__(self):
        self._memo = {}

    def moves(self, g: Graph):
        """The memo's Graph equal to g, which is g itself the first time."""
        return self._memo.setdefault(g, g)

    def __contains__(self, g: Graph):
        return g in self._memo


@dataclass(frozen=True)
class ChainState:
    """Where a chain stands between runs: its graph, that graph's score,
    the step index, the acceptance count and the move memo the chain has
    filled so far (outside equality and repr).  run_chain, the one chain
    loop, keeps these in locals and builds one ChainState when a run ends;
    run_chain(state, 1, ...) is one step."""

    graph: Graph
    log_score: float
    step_index: int = 0
    accept_count: int = 0
    moves: MoveCache = field(default_factory=MoveCache, compare=False, repr=False)


def edge_weights(stats: DatasetStats):
    """Clamped |K_ij| per edge slot and its reciprocal for deletions.

    All weights land in [WEIGHT_FLOOR, 1/WEIGHT_FLOOR]; if every entry hits
    the floor the kernel degrades to uniform selection by construction.
    Returns the (addition, deletion) pair as float arrays indexed by slot.
    """
    upper = stats.inv_empirical[np.triu_indices(stats.p, 1)]  # row-major = slot order
    add_w = np.clip(np.abs(upper), WEIGHT_FLOOR, 1.0 / WEIGHT_FLOOR)
    return add_w, 1.0 / add_w


class WeightSums:
    """Exact sums of one direction's edge weights over any edge bitmask.

    Every weight w_k is a finite positive double, so w_k * 2^shift is an
    exact int for one shift.  rows[b][v] is the int sum over the set bits
    of the value v of byte b of an edge bitmask (slots 8b to 8b+7), so the
    sum over a mask is one table entry per byte.  It is exact, and dividing
    it by 2^shift rounds it correctly, whatever the order of its terms.
    """

    def __init__(self, weights):
        self.weights = [float(w) for w in weights]
        self.log_weights = [log(w) for w in self.weights]
        ratios = [w.as_integer_ratio() for w in self.weights]  # den = 2^d
        shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
        ints = [num << shift + 1 - den.bit_length() for num, den in ratios]
        self.scale = 1 << shift
        self.rows = []
        for lo in range(0, len(ints), 8):
            part = ints[lo:lo + 8]
            row = [0] * (1 << len(part))
            for v in range(1, len(row)):
                low = v & -v
                row[v] = row[v ^ low] + part[low.bit_length() - 1]
            self.rows.append(row)

    def _bytes(self, mask):
        return mask.to_bytes(len(self.rows), "little")

    def scaled_sum(self, mask):
        """The sum of the weights over the set bits of mask, times scale."""
        return sum(map(getitem, self.rows, self._bytes(mask)))

    def log_q(self, k, mask, total=None):
        """log of w_k over the total weight of mask; total, when given, is
        scaled_sum(mask)."""
        if total is None:
            total = sum(map(getitem, self.rows, mask.to_bytes(len(self.rows), "little")))
        try:
            return self.log_weights[k] - log(total / self.scale)
        except OverflowError:  # weights near the largest double can sum past it
            return self.log_weights[k] - (log(total) - log(self.scale))

    def draw(self, mask, u):
        """The first slot of mask, lowest first, whose running weight
        reaches u times the total weight of mask (the last slot if none
        does), and log_q of that slot."""
        data = self._bytes(mask)
        sums = list(accumulate(map(getitem, self.rows, data)))
        total = sums[-1]
        num, den = u.as_integer_ratio()
        # ceil(u * total); every slot adds at least 1, so 0 picks the first
        target = max(1, -(-num * total // den))
        b = bisect_left(sums, target)
        if b == len(sums):
            k = mask.bit_length() - 1
        else:
            row, rest = self.rows[b], data[b]
            base, seen = sums[b] - row[rest], 0
            while True:
                low = rest & -rest
                seen |= low
                if base + row[seen] >= target:
                    break
                rest ^= low
            k = 8 * b + low.bit_length() - 1
        return k, self.log_q(k, mask, total)


def weight_tables(stats: DatasetStats):
    """The (addition, deletion) WeightSums of the edge_weights of stats, built
    once per dataset, so the chains of one fit share them."""
    if stats not in _TABLES:
        _TABLES[stats] = tuple(map(WeightSums, edge_weights(stats)))
    return _TABLES[stats]


def _draw_move(g: Graph, weights, do_delete, rng):
    """Forward half of an add-delete proposal from g in the chosen direction.

    weights=None picks a legal move uniformly; otherwise weights is the
    (addition, deletion) pair from weight_tables, and the move is the first
    candidate, in ascending edge order, whose running weight reaches a
    uniform fraction of the total.  Returns (edge slot k, log q(forward
    move)), or None when the direction has no legal move.
    """
    cand = g.deletions if do_delete else g.additions
    if not cand:
        return None
    if weights is None:
        n = cand.bit_count()
        return nth_bit(cand, int(rng.integers(n))), -log(n)
    return weights[1 if do_delete else 0].draw(cand, rng.random())


def _propose(g: Graph, moves: MoveCache, weights, do_delete, k):
    """Exact half of the proposal that flips slot k of g: the memo's Graph
    equal to g.flip(k) and log q(reverse move) from its legal-move mask.  A
    proposal new to the memo keeps the adjacency flip derived from g's, so
    its decomposition does not rebuild it from the edges."""
    gp = moves.moves(g.flip(k))
    reverse = gp.additions if do_delete else gp.deletions
    if weights is None:
        return gp, -log(reverse.bit_count())
    return gp, weights[0 if do_delete else 1].log_q(k, reverse)


def _log_alpha_bound(g: Graph, k, do_delete, weights, scorer: PosteriorScorer):
    """Upper bound on log alpha + log q(forward move) for flipping slot
    k = (x, y) of g, read off g alone: scorer.flip_change plus log q(reverse
    move) over a subset of the reverse moves that holds slot k.  After a
    deletion every legal addition of g away from x and y stays legal (its
    common neighbours stay, and no components join); after an addition
    every legal deletion of g outside the one new clique N(x) & N(y) + x + y
    does (a clique that it absorbs holds only edges of the new clique).
    """
    x, y = pair_table(g.p)[k]
    if do_delete:
        lower = g.additions & clique_edge_mask(g.p, ((1 << g.p) - 1) ^ (1 << x | 1 << y)) | 1 << k
    else:
        adj = g.adjacency
        lower = g.deletions & ~clique_edge_mask(g.p, adj[x] & adj[y] | 1 << x | 1 << y) | 1 << k
    change = scorer._flip_change(g, k, x, y)
    if weights is None:
        return change - log(lower.bit_count())
    return change + weights[0 if do_delete else 1].log_q(k, lower)


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
    """Run the configured kernel for n_steps and log every visited state;
    one step is run_chain(state, 1, ...).  Returns (final ChainState, ChainLog).

    init may be a Graph, which starts a fresh move memo, or a ChainState,
    whose memo, step parity and acceptance count carry on.  Either way the
    start graph is scored under hp, so a state reached under other
    hyperparameters resumes correctly; a start on another p than stats is
    a MismatchedModelError, raised before any draw.

    Each step picks add or delete with probability 1/2, then a legal move
    in that direction: uniformly (add_delete; even step_index under
    alternate) or by the weight_tables of stats, toward large (additions)
    or small (deletions) |K_ij|.  A direction with no legal move is a null
    proposal and a rejected step.  The accept test's uniform u is drawn
    right after the move.  A bound on log alpha from the current graph
    alone (_log_alpha_bound) rejects most proposals before the proposal
    graph is built; the rest are looked up in the move memo and scored
    exactly against the same u.  The chain lives in plain locals until the
    run ends, and each step appends its graph ID and log score to the log.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    scorer = PosteriorScorer(stats, hp)
    if isinstance(init, Graph):
        init = ChainState(init, 0.0, moves=MoveCache())
    g, moves = init.graph, init.moves
    if g not in moves:  # a fresh or hand-built start
        g = moves.moves(g)
    log_score = scorer.score(g)
    step, accepts = init.step_index, init.accept_count
    if cfg.mode == "add_delete":
        by_parity = (None, None)
    else:
        weights = weight_tables(stats)
        by_parity = (None, weights) if cfg.mode == "alternate" else (weights, weights)
    log = ChainLog(stats.p, step, g.edges, [], [])
    score, random = scorer.score, rng.random
    log_id, log_score_of = log.graph_ids.append, log.log_scores.append
    for _ in range(n_steps):
        weights = by_parity[step % 2]
        step += 1
        do_delete = random() < 0.5
        drawn = _draw_move(g, weights, do_delete, rng)
        if drawn is not None:
            k, log_q_fwd = drawn
            u = random()
            bound = (_log_alpha_bound(g, k, do_delete, weights, scorer) - log_q_fwd
                     + BOUND_SLACK * (1.0 + abs(log_score)))
            if bound >= 0.0 or u < exp(bound):
                gp, log_q_rev = _propose(g, moves, weights, do_delete, k)
                score_p = score(gp)
                log_alpha = score_p - log_score + (log_q_rev - log_q_fwd)
                if u < (1.0 if log_alpha >= 0.0 else exp(log_alpha)):
                    g, log_score = gp, score_p
                    accepts += 1
        log_id(g.edges)
        log_score_of(log_score)
    return ChainState(g, log_score, step, accepts, moves), log


def sample_graph_and_sigma(state, stats: DatasetStats, hp: Hyperparams,
                           M, rng, cfg: KernelConfig):
    """Advance the graph chain M steps from state (a Graph or a ChainState,
    as for run_chain), then draw a covariance from its conjugate posterior
    on the final graph.

    Returns (new ChainState, sigma).  The drawn sigma follows the
    graph-constrained law with degrees delta + n and scale Phi + scatter.
    """
    state, _ = run_chain(state, M, stats, hp, cfg, rng)
    post_scale = phi_matrix(hp, stats) + stats.scatter
    return state, sample_hiw(state.graph, hp.delta + stats.n, post_scale, rng)
