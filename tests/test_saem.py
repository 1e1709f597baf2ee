"""Tests for the stochastic approximation EM over (tau, r)."""

import math

import numpy as np
import pytest

from ebggm import (
    DatasetStats,
    DegenerateStatsError,
    Graph,
    Hyperparams,
    KernelConfig,
    PosteriorScorer,
    SaemConfig,
    bench9_graph,
    compute_suff_stats,
    enumerate_decomposable,
    init_graph_backward,
    legal_deletions,
    m_step,
    perfect_sequence,
    run_saem,
    sample_hiw,
    simulate_dataset,
    step_size,
)
from conftest import vertex_sets
from ebggm.graphs import nth_bit
from ebggm.saem import TRACE_COLUMNS


def make_stats(p, n=60, seed=0):
    rng = np.random.default_rng(seed)
    g = Graph.from_edge_list(p, [(i, i + 1) for i in range(p - 1)])
    raw, _ = simulate_dataset(g, tau=1.0, delta=3.0, n=n, rng=rng)
    return DatasetStats.from_data(raw, center=True, standardize=True)


def test_step_size_schedule():
    assert step_size(1, 3) == 1.0
    assert step_size(3, 3) == 1.0
    assert step_size(4, 3) == 1.0
    assert step_size(5, 3) == 0.5
    assert step_size(13, 3) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        step_size(0, 3)


def test_saem_config_validation():
    SaemConfig(n_iter=0, n_unit=0)
    with pytest.raises(ValueError):
        SaemConfig(n_iter=10, n_unit=10)
    with pytest.raises(ValueError):
        SaemConfig(m_first=0)
    with pytest.raises(ValueError):
        SaemConfig(m_rest=0)
    with pytest.raises(ValueError):
        SaemConfig(init_tau=0.0)
    with pytest.raises(ValueError):
        SaemConfig(init_r=1.0)


def test_suff_stats_on_known_graph():
    g = bench9_graph()
    s1, s2, s3 = compute_suff_stats(g, np.eye(9))
    # Clique sizes 3,4,3,3,4 and separator sizes 2,2,2,2.
    assert s1 == 9 + 16 + 9 + 9 + 16 - 4 * 4
    assert s1 == 43.0
    assert s2 == pytest.approx(9.0, rel=1e-12)
    assert s3 == 17.0

    d = np.array([1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 16.0, 20.0, 25.0])
    _, s2, _ = compute_suff_stats(g, np.diag(d))
    assert s2 == pytest.approx(float(np.sum(1.0 / d)), rel=1e-12)


def test_suff_stats_s1_is_the_clique_separator_sum():
    # s1 = p + 2|E| equals sum |C|^2 - sum |S|^2 over the perfect sequence.
    def by_sequence(g):
        return (sum(c.bit_count() ** 2 for c in g.cliques)
                - sum(s.bit_count() ** 2 for s in g.separators))

    graphs = [g for p in range(1, 7) for g in enumerate_decomposable(p)]
    # every 10th graph of an add-leaning walk at p=32, from 0 to ~370 edges
    rng = np.random.default_rng(32)
    g = Graph(32)
    for step in range(2000):
        cand = g.additions if rng.random() < 0.6 else g.deletions
        if cand:
            g = Graph(32, g.edges ^ 1 << nth_bit(cand, int(rng.integers(cand.bit_count()))))
        if step % 10 == 9:
            graphs.append(g)
    for g in graphs:
        s1 = compute_suff_stats(g, np.eye(g.p))[0]
        assert s1 == by_sequence(g), g


def test_suff_stats_trace_identity_on_hiw_draw():
    # For a covariance that is Markov with respect to a decomposable graph,
    # the trace of the inverse decomposes over cliques minus separators.
    g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    rng = np.random.default_rng(99)
    sigma = sample_hiw(g, 3.0, 0.7 * np.eye(5), rng)
    s2 = compute_suff_stats(g, sigma)[1]
    assert s2 == pytest.approx(float(np.trace(np.linalg.inv(sigma))), rel=1e-10)
    cliques, separators = map(vertex_sets, perfect_sequence(g))
    clique_sum = sum(
        float(np.trace(np.linalg.inv(sigma[np.ix_(sorted(c), sorted(c))])))
        for c in cliques)
    sep_sum = sum(
        float(np.trace(np.linalg.inv(sigma[np.ix_(sorted(sset), sorted(sset))])))
        for sset in separators if sset)
    assert s2 == pytest.approx(clique_sum - sep_sum, rel=1e-10)


def test_run_saem_trace_is_robbins_monro_average(monkeypatch):
    # With the draws' statistics fixed, the trace's s1-s3 columns must be
    # the running average s_k = s_{k-1} + gamma_k (x_k - s_{k-1}), s_0 = 0,
    # with gamma_k = 1 through n_unit and 1/(k - n_unit) after, exactly.
    import ebggm.saem as saem_mod

    rng = np.random.default_rng(31)
    draws = [np.array([rng.uniform(5.0, 20.0), rng.uniform(1.0, 9.0),
                       float(rng.integers(0, 7))]) for _ in range(12)]
    given = iter(draws)
    monkeypatch.setattr(saem_mod, "draw_suff_stats", lambda g, stats, hp, rng: next(given))
    stats = make_stats(4, n=80, seed=11)
    cfg = SaemConfig(n_iter=12, n_unit=4, m_first=20, m_rest=5, n_warm=2)
    res = run_saem(stats, cfg, Hyperparams(delta=1.0, tau=1.0), np.random.default_rng(3))
    s = [0.0, 0.0, 0.0]
    for k, x in enumerate(draws, start=1):
        gamma = 1.0 if k <= 4 else 1.0 / (k - 4)
        s = [a + gamma * (b - a) for a, b in zip(s, x.tolist())]
        assert res.trace[k - 1, 3:6].tolist() == s
        assert (res.trace[k - 1, 1], res.trace[k - 1, 2]) == m_step(np.array(s), 1.0, 4, 6)


def test_m_step_closed_form_and_clamping():
    tau, r = m_step(np.array([10.0, 8.0, 3.0]), delta=2.0, p=4, m=6)
    assert tau == pytest.approx(1.75)
    assert r == pytest.approx(0.5)
    assert type(tau) is float and type(r) is float

    # r is clamped away from 0 and 1.
    _, r = m_step(np.array([10.0, 8.0, 0.0]), delta=2.0, p=4, m=6)
    assert r == pytest.approx(1.0 / 60.0)
    _, r = m_step(np.array([10.0, 8.0, 6.0]), delta=2.0, p=4, m=6)
    assert r == pytest.approx(1.0 - 1.0 / 60.0)

    with pytest.raises(DegenerateStatsError):
        m_step(np.array([10.0, 0.0, 3.0]), delta=2.0, p=4, m=6)
    with pytest.raises(DegenerateStatsError):
        m_step(np.array([-5.0, 8.0, 3.0]), delta=1.0, p=4, m=6)


def test_m_step_maximizes_complete_data_objective():
    # tau maximizes a log tau - tau b / 2 with a = ((delta-1)p + s1)/2, and
    # r maximizes the bernoulli log likelihood s3 log r + (m - s3) log(1-r).
    s1, s2, s3 = 12.5, 7.25, 4.0
    delta, p, m = 1.5, 5, 10
    tau_hat, r_hat = m_step(np.array([s1, s2, s3]), delta, p, m)

    def q_tau(tau):
        return 0.5 * ((delta - 1.0) * p + s1) * math.log(tau) - 0.5 * tau * s2

    def q_r(r):
        return s3 * math.log(r) + (m - s3) * math.log(1.0 - r)

    best_tau = q_tau(tau_hat)
    best_r = q_r(r_hat)
    for tau in np.geomspace(tau_hat / 20.0, tau_hat * 20.0, 400):
        assert q_tau(float(tau)) <= best_tau + 1e-12
    for r in np.linspace(0.005, 0.995, 400):
        assert q_r(float(r)) <= best_r + 1e-12


def test_init_graph_backward_is_local_optimum():
    stats = make_stats(5, n=120, seed=3)
    hp = Hyperparams(delta=1.0, tau=0.5, graph_prior="bernoulli", r=0.3)
    g = init_graph_backward(stats, hp)
    scorer = PosteriorScorer(stats, hp)
    assert g.p == 5
    score = scorer.score(g)
    assert score >= scorer.score(Graph.complete(5))
    for i, j in legal_deletions(g):
        assert scorer.score(g.remove_edge(i, j)) <= score


def test_init_graph_backward_searches_each_graph_once(monkeypatch, figure1_stats):
    # Candidates are scored from the current graph, so the greedy start
    # makes no full score and searches only the graphs it moves through:
    # the complete graph, then one per edge it removes.
    import ebggm.graphs as graphs_mod

    calls, scored = [], []
    orig_mcs, orig_score = graphs_mod.perfect_sequence, PosteriorScorer.score

    def spy_mcs(g, *args, **kwargs):
        calls.append(g.edges)
        return orig_mcs(g, *args, **kwargs)

    def spy_score(self, g):
        scored.append(g.edges)
        return orig_score(self, g)

    monkeypatch.setattr(graphs_mod, "perfect_sequence", spy_mcs)
    monkeypatch.setattr(PosteriorScorer, "score", spy_score)
    g = init_graph_backward(figure1_stats, Hyperparams(delta=1.0, tau=1e-3))
    n_steps = Graph.complete(9).edge_count - g.edge_count
    assert n_steps > 0
    assert scored == []
    assert len(calls) == len(set(calls)) == 1 + n_steps
    assert calls[0] == Graph.complete(9).edges and calls[-1] == g.edges


def ref_init_graph_backward(stats, hp):
    """The greedy start before it scored candidates from the current graph:
    each legal deletion is built as a Graph of its own and scored in full."""
    scorer = PosteriorScorer(stats, hp)
    g = Graph.complete(stats.p)
    best = scorer.score(g)
    while True:
        candidates = [g.remove_edge(i, j) for i, j in legal_deletions(g)]
        if not candidates:
            return g
        top, t = max((scorer.score(h), t) for t, h in enumerate(candidates))
        if top <= best:
            return g
        g, best = candidates[t], top


@pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0])
def test_init_graph_backward_matches_full_scoring_on_figure1(figure1_stats, tau):
    hp = Hyperparams(delta=1.0, tau=tau)
    g = init_graph_backward(figure1_stats, hp)
    assert g == ref_init_graph_backward(figure1_stats, hp)
    assert 0 < g.edge_count < Graph.complete(9).edge_count


@pytest.mark.parametrize("p", [12, 16])
def test_init_graph_backward_matches_full_scoring_on_correlated_data(p):
    rng = np.random.default_rng([21, p])
    mix = np.eye(p) + (rng.random((p, p)) < 0.2) * rng.standard_normal((p, p))
    stats = DatasetStats.from_data(rng.standard_normal((3 * p, p)) @ mix)
    for hp in (Hyperparams(delta=1.0, tau=1e-3), Hyperparams(delta=2.0, tau=0.3, r=0.3)):
        g = init_graph_backward(stats, hp)
        assert g == ref_init_graph_backward(stats, hp)
        assert 0 < g.edge_count < Graph.complete(p).edge_count


def test_run_saem_zero_iterations():
    stats = make_stats(3, n=40, seed=5)
    cfg = SaemConfig(n_iter=0, n_unit=0, init_tau=0.02, init_r=0.4)
    hp = Hyperparams(delta=1.0, tau=1.0)
    res = run_saem(stats, cfg, hp, np.random.default_rng(0))
    assert res.tau == 0.02
    assert res.r == 0.4
    assert res.trace.shape == (0, len(TRACE_COLUMNS))
    assert res.final_state.graph == res.init_graph


def test_run_saem_requires_scaled_identity():
    stats = make_stats(3, n=40, seed=5)
    cfg = SaemConfig(n_iter=5, n_unit=2)
    hp = Hyperparams(delta=1.0, phi_mode="empirical_gprior", tau=1.0)
    with pytest.raises(ValueError):
        run_saem(stats, cfg, hp, np.random.default_rng(0))


def test_run_saem_deterministic_and_well_formed():
    stats = make_stats(4, n=80, seed=11)
    cfg = SaemConfig(n_iter=40, n_unit=15, m_first=50, m_rest=10, n_warm=2)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    results = [run_saem(stats, cfg, hp, np.random.default_rng(202)) for _ in range(2)]
    a, b = results
    assert a.tau == b.tau and a.r == b.r
    assert np.array_equal(a.trace, b.trace)
    assert a.final_state == b.final_state

    trace = a.trace
    assert trace.shape == (40, len(TRACE_COLUMNS))
    assert np.array_equal(trace[:, 0], np.arange(1, 41))
    assert np.all(trace[:, 1] > 0)            # tau
    assert np.all((trace[:, 2] > 0) & (trace[:, 2] < 1))  # r
    m = Graph(4).m
    assert np.all((trace[:, 5] >= 0) & (trace[:, 5] <= m))  # averaged s3
    assert np.all((trace[:, 6] >= 0) & (trace[:, 6] <= 1))  # accept rate
    # The last row reproduces the returned estimates.
    assert trace[-1, 1] == a.tau
    assert trace[-1, 2] == a.r


def test_run_saem_fixes_r_outside_bernoulli():
    stats = make_stats(3, n=50, seed=7)
    cfg = SaemConfig(n_iter=20, n_unit=8, m_first=30, m_rest=5, n_warm=2,
                     init_r=0.37)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="uniform")
    res = run_saem(stats, cfg, hp, np.random.default_rng(9))
    assert res.r == 0.37
    assert np.all(res.trace[:, 2] == 0.37)
    assert res.tau > 0


def test_run_saem_recovers_scale_roughly():
    # Strong-signal smoke test: data simulated with tau = 2 at moderate n
    # should pull the estimate well away from the tiny initial value.
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    rng = np.random.default_rng(123)
    raw, _ = simulate_dataset(g, tau=2.0, delta=1.0, n=150, rng=rng)
    stats = DatasetStats.from_data(raw, center=True, standardize=False)
    cfg = SaemConfig(n_iter=150, n_unit=50, m_first=200, m_rest=10, n_warm=3)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    res = run_saem(stats, cfg, hp, np.random.default_rng(321))
    assert 0.05 < res.tau < 50.0
    assert res.tau > 10 * cfg.init_tau


def test_run_saem_accepts_explicit_kernel():
    stats = make_stats(3, n=40, seed=13)
    cfg = SaemConfig(n_iter=10, n_unit=4, m_first=20, m_rest=5, n_warm=1)
    hp = Hyperparams(delta=1.0, tau=1.0)
    res = run_saem(stats, cfg, hp, np.random.default_rng(14),
                   kernel=KernelConfig(mode="add_delete"))
    assert res.trace.shape[0] == 10
