"""Stochastic approximation EM for the prior scale tau and edge frequency r.

Each iteration runs the graph chain for a while at the current
hyperparameters, draws a covariance from its conjugate posterior, turns the
pair into sufficient statistics, folds them into a Robbins-Monro average,
and re-maximizes.  The statistics read the covariance only through
tr(Sigma^-1), which comes off the draw's clique blocks, so no covariance
matrix is formed.  The step size stays at 1 for the first plateau of
iterations (pure stochastic EM) and then decays as 1/(k - plateau), which
averages the remaining iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .errors import DegenerateStatsError, NonFiniteError
from .graphs import Graph, iter_bits
from .hiw import DatasetStats, Hyperparams, PosteriorScorer, phi_matrix, sample_hiw_inverse_trace
from .sampler import ChainState, KernelConfig, auto_kernel_mode, run_chain

TRACE_COLUMNS = ("iter", "tau", "r", "s1", "s2", "s3", "accept_rate")


@dataclass(frozen=True)
class SaemConfig:
    n_iter: int = 300      # total iterations (K)
    n_unit: int = 100      # iterations with unit step size (K1)
    m_first: int = 500     # chain steps per iteration while warming up
    m_rest: int = 10       # chain steps per iteration afterwards
    n_warm: int = 5        # iterations that use m_first
    init_tau: float = 1e-3
    init_r: float = 0.5

    def __post_init__(self):
        if self.n_iter < 0 or not 0 <= self.n_unit < max(self.n_iter, 1):
            raise ValueError(f"need 0 <= n_unit < n_iter, got n_unit={self.n_unit}, "
                             f"n_iter={self.n_iter} (n_unit defaults to {SaemConfig.n_unit}, "
                             f"so a fit of {SaemConfig.n_unit} or fewer iterations needs "
                             "a lower --n-unit)")
        for name in ("m_first", "m_rest"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_warm < 0:
            raise ValueError(f"n_warm must be nonnegative, got {self.n_warm}")
        if not self.init_tau > 0:
            raise ValueError(f"init_tau must be positive, got {self.init_tau}")
        if not isfinite(self.init_tau):
            raise ValueError(f"init_tau must be finite, got {self.init_tau}")
        if not 0.0 < self.init_r < 1.0:
            raise ValueError(f"init_r must lie in (0, 1), got {self.init_r}")


def step_size(k, n_unit):
    """Robbins-Monro schedule: 1 through iteration n_unit, then 1/(k - n_unit)."""
    if k < 1:
        raise ValueError(f"iterations are 1-based, got {k}")
    return 1.0 if k <= n_unit else 1.0 / (k - n_unit)


def compute_suff_stats(g: Graph, sigma):
    """Sufficient statistics of one (graph, covariance) draw, as the array
    [s1, s2, s3]: s1 = sum |C|^2 - sum |S|^2 over the perfect sequence,
    s2 = tr(sigma^-1), s3 = number of edges k.  For a decomposable graph
    s1 = p + 2k: eliminating v with its remaining neighbours M_v in a perfect
    elimination order adds (|M_v| + 1)^2 - |M_v|^2, and the |M_v| sum to k.

    run_saem takes its statistics from draw_suff_stats, which never forms
    sigma; this form, from a whole covariance by a p x p Cholesky factor,
    is its reference.
    """
    k = g.edge_count
    lo = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    half = np.linalg.inv(lo)
    return np.array([g.p + 2 * k, np.sum(half * half), k], dtype=float)


def draw_suff_stats(g: Graph, stats: DatasetStats, hp: Hyperparams, rng):
    """compute_suff_stats of g and a covariance drawn from its conjugate
    posterior, HIW with delta + n degrees and scale Phi + scatter, to
    rounding: s2 = tr(Sigma^-1) is read off the draw's clique blocks
    (sample_hiw_inverse_trace), with the random calls of sample_hiw."""
    k = g.edge_count
    s2 = sample_hiw_inverse_trace(g, hp.delta + stats.n,
                                  phi_matrix(hp, stats) + stats.scatter, rng)
    return np.array([g.p + 2 * k, s2, k], dtype=float)


def m_step(s, delta, p, m):
    """Closed-form maximizers given averaged statistics s = [s1, s2, s3].

    tau = ((delta - 1) p + s1) / s2 and r = s3 / m, with r clamped to
    [1/(10 m), 1 - 1/(10 m)] so the bernoulli prior never degenerates.
    Both come back as Python floats.
    """
    s1, s2, s3 = s.tolist()
    if not s2 > 0:
        raise DegenerateStatsError(f"need s2 > 0, got {s2}")
    tau = ((delta - 1.0) * p + s1) / s2
    if not tau > 0:
        raise DegenerateStatsError(f"maximizer tau={tau} is not positive")
    lo = 1.0 / (10.0 * m)
    r = min(max(s3 / m, lo), 1.0 - lo)
    return tau, r


def init_graph_backward(stats: DatasetStats, hp: Hyperparams):
    """Greedy backward selection from the complete graph, which starts the
    SAEM chain: remove the legal edge whose removal most raises the score
    (PosteriorScorer.flip_change; ties go to the largest edge slot) until no
    removal raises it."""
    scorer = PosteriorScorer(stats, hp)
    g = Graph.complete(stats.p)
    while g.deletions:
        gain, k = max((scorer.flip_change(g, j), j) for j in iter_bits(g.deletions))
        if gain <= 0:
            break
        g = g.flip(k)
    return g


@dataclass
class SaemResult:
    tau: float
    r: float
    trace: np.ndarray  # columns TRACE_COLUMNS, one row per iteration
    final_state: ChainState
    init_graph: Graph


def run_saem(stats: DatasetStats, cfg: SaemConfig, hp_base: Hyperparams, rng,
             kernel: KernelConfig | None = None):
    """Fit (tau, r) by stochastic approximation EM.

    hp_base gives delta, phi_mode (scaled_identity only) and graph_prior; its
    tau is never read, and its r only under a non-bernoulli prior, which
    does not use r.  The fit starts from cfg.init_tau and cfg.init_r; under
    the bernoulli prior both move, under the others only tau.  The default
    kernel alternates uniform and data-driven proposals when the empirical
    covariance is invertible and falls back to pure add-delete otherwise.

    Each iteration runs the chain (run_chain) and then draws the statistics
    on its graph (draw_suff_stats) from the same generator, so a draw takes
    the random calls that sample_hiw would, and no p x p covariance is
    formed or factored.
    """
    if hp_base.phi_mode != "scaled_identity":
        raise ValueError("the EM drives tau, so phi_mode must be scaled_identity")
    p = stats.p
    if p < 2:
        raise ValueError(f"SAEM needs at least 2 variables, got p={p}")
    if kernel is None:
        kernel = KernelConfig(mode=auto_kernel_mode(stats))
    estimate_r = hp_base.graph_prior == "bernoulli"
    m = Graph(p).m
    tau, r = cfg.init_tau, cfg.init_r
    hp = replace(hp_base, tau=tau, **({"r": r} if estimate_r else {}))
    g0 = init_graph_backward(stats, hp)
    state, accepted = g0, 0
    s = np.zeros(3)
    trace = np.empty((cfg.n_iter, len(TRACE_COLUMNS)))
    for k in range(1, cfg.n_iter + 1):
        n_chain = cfg.m_first if k <= cfg.n_warm else cfg.m_rest
        state, _ = run_chain(state, n_chain, stats, hp, kernel, rng)
        s = s + step_size(k, cfg.n_unit) * (draw_suff_stats(state.graph, stats, hp, rng) - s)
        tau, r_new = m_step(s, hp_base.delta, p, m)
        if estimate_r:
            r = r_new
        if not all(map(isfinite, (tau, r, *s))):
            raise NonFiniteError(f"estimate left the finite range at iteration {k}")
        accept_rate = (state.accept_count - accepted) / n_chain
        accepted = state.accept_count
        trace[k - 1] = (k, tau, r, *s, accept_rate)
        hp = replace(hp_base, tau=tau, **({"r": r} if estimate_r else {}))
    # Zero steps: the chain's state scored under the fitted (tau, r).
    state, _ = run_chain(state, 0, stats, hp, kernel, rng)
    return SaemResult(tau=tau, r=r, trace=trace, final_state=state, init_graph=g0)
