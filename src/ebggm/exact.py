"""Exhaustive reference computations for small vertex counts.

These routines enumerate every decomposable graph and evaluate the model in
closed form, giving ground truth that the Monte Carlo machinery is tested
against: exact posteriors over graphs, the exact profile of the marginal
likelihood over the hyperparameter grid, and total-variation comparisons
between chain visit frequencies and the exact posterior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from operator import index

import numpy as np

from .errors import MismatchedModelError, TooLargeError
from .graphs import Graph, elimination_families, id_width, n_candidate_edges
from .graphs import enumerate_decomposable  # noqa: F401, perfbench/spans.py wraps it here
from .hiw import DatasetStats, Hyperparams, PosteriorScorer
from .sampler import ChainLog

_CAP_P = 7  # most vertices the exact posterior and marginal MLE enumerate


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis (all of a when None).

    The maximal terms are taken out of the sum, so that
    log sum exp(a) = a_max + log(count) + log1p(s / count), where count is the
    number of terms equal to a_max and s sums exp(a - a_max) over the rest
    (Blanchard, Higham and Higham 2021, IMA J. Numer. Anal. 41(4)); this is
    the form scipy.special.logsumexp takes.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    count = np.sum(top, axis=axis, keepdims=True, dtype=float)
    rest = np.sum(np.exp(np.where(top, -np.inf, a - a_max)), axis=axis, keepdims=True)
    out = np.log1p(rest / count) + np.log(count) + a_max
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def _decomposable_families(p):
    """(ids, fams, edge counts) of every decomposable graph on p vertices,
    ascending ids; fams[v] holds each graph's M_v (elimination_families)."""
    ids, fams = zip(*elimination_families(p))
    ids = np.concatenate(ids)
    return ids, np.concatenate(fams, axis=1), np.bitwise_count(ids).astype(np.intp)


def _family_log_liks(scorer, fams):
    """PosteriorScorer.log_lik of every graph: the marginal likelihood factorises
    over the families of a perfect elimination order as over cliques and
    separators, so it is the sum over v of t(M_v + v) - t(M_v), t(empty) = 0.
    The vertices are added in order, one pass over the graphs each."""
    terms = np.array([0.0] + [scorer.term(s) for s in range(1, 1 << len(fams))])
    out = np.zeros(fams.shape[1])
    for v, mv in enumerate(fams):
        out += terms[mv | 1 << v] - terms[mv]
    return out


@dataclass(frozen=True)
class PosteriorTable:
    """Exact graph posterior, sorted by decreasing probability."""

    p: int
    hp: Hyperparams
    graph_ids: tuple
    probs: np.ndarray
    log_scores: np.ndarray
    log_norm: float

    @cached_property
    def _rank(self):
        return {gid: i for i, gid in enumerate(self.graph_ids)}

    def prob(self, g):
        """Probability of a Graph or an integer graph id, 0.0 for one the table lacks.

        Raises MismatchedModelError for a Graph whose p is not the table's.
        """
        if isinstance(g, Graph):
            if g.p != self.p:
                raise MismatchedModelError(f"graph has p={g.p}, table has p={self.p}")
            g = g.edges
        i = self._rank.get(index(g))
        return 0.0 if i is None else float(self.probs[i])

    def lookup(self):
        return {gid: float(pr) for gid, pr in zip(self.graph_ids, self.probs)}

    def top(self, k):
        """The k most probable graphs and their probabilities; k is an integer."""
        if index(k) < 0:
            raise ValueError(f"k must be nonnegative, got k={k}")
        return [(Graph(self.p, gid), float(pr))
                for gid, pr in zip(self.graph_ids[:k], self.probs[:k])]


def exact_posterior(stats: DatasetStats, hp: Hyperparams):
    """Exact posterior over all decomposable graphs; p is capped at 7."""
    p = stats.p
    if p > _CAP_P:
        raise TooLargeError(f"exact posterior capped at p={_CAP_P}, got {p}")
    scorer = PosteriorScorer(stats, hp)
    ids, fams, k_edges = _decomposable_families(p)
    log_priors = np.array([scorer.log_prior(k) for k in range(n_candidate_edges(p) + 1)])
    scores = _family_log_liks(scorer, fams) + log_priors[k_edges]
    log_norm = _logsumexp(scores)
    probs = np.exp(scores - log_norm)
    order = np.argsort(-probs, kind="stable")
    return PosteriorTable(
        p=p,
        hp=hp,
        graph_ids=tuple(ids[order].tolist()),
        probs=probs[order],
        log_scores=scores[order],
        log_norm=log_norm,
    )


@dataclass(frozen=True)
class MarginalSurface:
    """Gridded log marginal likelihood profile over (tau, r)."""

    tau_grid: np.ndarray
    r_grid: np.ndarray
    log_lik: np.ndarray  # shape (len(tau_grid), len(r_grid)), 2 pi factor dropped
    tau_hat: float
    r_hat: float
    argmax: tuple


def default_tau_grid():
    return np.geomspace(1e-3, 1e2, 60)


def default_r_grid():
    return np.linspace(0.02, 0.98, 49)


def _checked_grid(name, grid, ok, want):
    """grid as a float array, or ValueError naming its first value outside want."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence, got shape {grid.shape}")
    bad = np.flatnonzero(~ok(grid))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {grid[bad[0]]} is not {want}")
    return grid


def exact_marginal_mle(stats: DatasetStats, delta, tau_grid=None, r_grid=None):
    """Exact grid maximizer of the marginal likelihood summed over graphs.

    Uses the bernoulli edge prior in its raw product form, which depends on
    a graph only through its edge count k.  So each tau takes one logsumexp
    of the graphs' log likelihoods per k, and each r adds
    k log r + (m - k) log(1 - r) to those m + 1 sums before the logsumexp
    over k.  The sum runs over every decomposable graph, so p is capped at 7.
    """
    p = stats.p
    if p > _CAP_P:
        raise TooLargeError(f"exact marginal MLE capped at p={_CAP_P}, got {p}")
    tau_grid = _checked_grid("tau_grid", default_tau_grid() if tau_grid is None else tau_grid,
                             lambda t: np.isfinite(t) & (t > 0), "finite and > 0")
    r_grid = _checked_grid("r_grid", default_r_grid() if r_grid is None else r_grid,
                           lambda r: (r > 0) & (r < 1), "strictly inside (0, 1)")
    _, fams, k_edges = _decomposable_families(p)
    order = np.argsort(k_edges, kind="stable")
    fams, k_edges = fams[:, order], k_edges[order]
    starts = np.flatnonzero(np.diff(k_edges, prepend=-1))  # first graph of each k
    sizes = np.diff(starts, append=len(k_edges))
    ks = k_edges[starts][:, None]
    prior = ks * np.log(r_grid) + (n_candidate_edges(p) - ks) * np.log1p(-r_grid)
    hp0 = Hyperparams(delta=delta, tau=1.0, graph_prior="bernoulli", r=0.5)
    surface = np.empty((len(tau_grid), len(r_grid)))
    for a, tau in enumerate(tau_grid):
        liks = _family_log_liks(PosteriorScorer(stats, replace(hp0, tau=float(tau))), fams)
        top = np.maximum.reduceat(liks, starts)
        by_k = top + np.log(np.add.reduceat(np.exp(liks - np.repeat(top, sizes)), starts))
        surface[a] = _logsumexp(by_k[:, None] + prior, axis=0)
    a_best, b_best = np.unravel_index(np.argmax(surface), surface.shape)
    return MarginalSurface(
        tau_grid=tau_grid,
        r_grid=r_grid,
        log_lik=surface,
        tau_hat=float(tau_grid[a_best]),
        r_hat=float(r_grid[b_best]),
        argmax=(int(a_best), int(b_best)),
    )


@dataclass(frozen=True)
class ExactComparison:
    """Chain frequencies against the exact posterior."""

    tv_distance: float
    rel_errors: dict
    n_steps: int


def chain_vs_exact(log: ChainLog, table: PosteriorTable, threshold=0.001):
    """Total variation and per-graph relative errors of chain frequencies.

    rel_errors covers graphs with exact probability >= threshold.  Raises
    MismatchedModelError when the log visits a graph the table does not
    contain (wrong p or a non-decomposable state).
    """
    if log.p != table.p:
        raise MismatchedModelError(f"chain has p={log.p}, table has p={table.p}")
    n = len(log)
    if n == 0:
        raise ValueError("empty chain log")
    counts = Counter(log.graph_ids)
    exact = table.lookup()
    tv = 0.0
    for gid, pr in exact.items():
        tv += abs(counts.get(gid, 0) / n - pr)
    extra = [gid for gid in counts if gid not in exact]
    if extra:
        raise MismatchedModelError(
            f"chain visited graph {extra[0]:0{id_width(log.p)}x} absent from the exact table")
    rel = {}
    for gid, pr in exact.items():
        if pr >= threshold:
            rel[gid] = abs(counts.get(gid, 0) / n - pr) / pr
    return ExactComparison(tv_distance=0.5 * tv, rel_errors=rel, n_steps=n)
