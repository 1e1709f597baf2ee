"""Tests for exhaustive enumeration, exact posteriors, and chain comparison."""

import numpy as np
import pytest
from scipy.special import logsumexp

from ebggm import (
    ChainLog,
    DatasetStats,
    Graph,
    Hyperparams,
    MismatchedModelError,
    PosteriorScorer,
    TooLargeError,
    chain_vs_exact,
    enumerate_decomposable,
    exact_marginal_mle,
    exact_posterior,
    is_decomposable,
    log_graph_prior,
    log_marginal_likelihood,
    n_candidate_edges,
    simulate_dataset,
)
import ebggm.hiw as hiw_mod
from ebggm.exact import _decomposable_families, _family_log_liks, _logsumexp
from ebggm.graphs import clique_edge_mask


def make_stats(p, n=50, seed=0, standardize=True):
    rng = np.random.default_rng(seed)
    g = Graph.from_edge_list(p, [(i, i + 1) for i in range(p - 1)]) if p > 1 else Graph(1, 0)
    raw, _ = simulate_dataset(g, tau=1.0, delta=3.0, n=n, rng=rng)
    return DatasetStats.from_data(raw, center=True, standardize=standardize)


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(8)
    cases = [np.array([3.5]),
             np.array([-2.0, 7.25, 7.25, 1.0, 7.25]),  # ties at the maximum
             np.full(6, -40.0),
             rng.uniform(-500.0, 500.0, 200),  # a spread of 1e3
             -rng.exponential(300.0, 1000)]
    for a in cases:
        got = _logsumexp(a)
        assert isinstance(got, float)
        np.testing.assert_allclose(got, logsumexp(a), rtol=1e-14)
    b = rng.uniform(-500.0, 500.0, (300, 7))
    b[:4, 2] = b[:, 2].max()
    got = _logsumexp(b, axis=0)
    assert got.shape == (7,)
    np.testing.assert_allclose(got, logsumexp(b, axis=0), rtol=1e-14)


def test_enumeration_counts_and_order():
    counts = {2: 2, 3: 8, 4: 61, 5: 822}
    for p, want in counts.items():
        graphs = list(enumerate_decomposable(p))
        assert len(graphs) == want
        ids = [g.edges for g in graphs]
        assert ids == sorted(ids)
        assert ids[0] == 0
        assert ids[-1] == (1 << n_candidate_edges(p)) - 1
        assert all(is_decomposable(g) for g in graphs)
    with pytest.raises(TooLargeError):
        next(enumerate_decomposable(9))


def test_family_sum_matches_clique_separator_sum(monkeypatch):
    """The elimination-family sum that exact_posterior and exact_marginal_mle
    score with equals PosteriorScorer.log_lik, a clique and separator sum
    over the maximum cardinality search's sequence, on every decomposable
    graph with p <= 6; each family is a clique of its graph."""
    fallback = []
    chol = hiw_mod.log_iw_constant

    def spy(*args):
        fallback.append(1)
        return chol(*args)

    monkeypatch.setattr(hiw_mod, "log_iw_constant", spy)
    hps = (Hyperparams(delta=1.0, tau=0.4, graph_prior="bernoulli", r=0.3),
           Hyperparams(delta=2.5, tau=1.7, graph_prior="beta_binomial"),
           Hyperparams(delta=1.0, phi_mode="empirical_gprior", graph_prior="uniform"))
    for p in range(1, 7):
        ids, fams, k_edges = _decomposable_families(p)
        graphs = [Graph(p, e) for e in ids.tolist()]
        assert k_edges.tolist() == [g.edge_count for g in graphs]
        for a, g in enumerate(graphs):
            for v in range(p):
                assert not fams[v, a] >> v & 1
                assert clique_edge_mask(p, int(fams[v, a]) | 1 << v) & ~g.edges == 0, g
        # columns scaled over six decades: the Cholesky fallback scores them
        raw, _ = simulate_dataset(Graph.complete(p), tau=1.0, delta=3.0, n=40,
                                  rng=np.random.default_rng(p))
        badly_scaled = DatasetStats.from_data(raw * 10.0 ** np.arange(p),
                                              standardize=False)
        cases = [(make_stats(p, n=30, seed=p), hp) for hp in hps]
        cases.append((badly_scaled, Hyperparams(tau=1e-3)))
        for stats, hp in cases:
            scorer = PosteriorScorer(stats, hp)
            got = _family_log_liks(scorer, fams)
            want = np.array([scorer.log_lik(g) for g in graphs])
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (p, hp)
    assert fallback


def test_exact_posterior_normalization_and_sorting():
    stats = make_stats(4, n=40, seed=1)
    hp = Hyperparams(delta=1.0, tau=0.7, graph_prior="bernoulli", r=0.4)
    table = exact_posterior(stats, hp)
    assert table.p == 4
    assert len(table.graph_ids) == 61
    assert abs(float(table.probs.sum()) - 1.0) < 1e-12
    assert np.all(np.diff(table.probs) <= 1e-15)
    assert np.allclose(np.exp(table.log_scores - table.log_norm), table.probs,
                       rtol=1e-12)


def test_exact_posterior_matches_direct_aggregation():
    # Independent route: raw marginal likelihood plus prior per graph,
    # normalized with logsumexp, bypassing the scorer cache.
    stats = make_stats(3, n=35, seed=2)
    hp = Hyperparams(delta=1.5, tau=0.9, graph_prior="bernoulli", r=0.3)
    table = exact_posterior(stats, hp)
    graphs = list(enumerate_decomposable(3))
    scores = np.array([
        log_marginal_likelihood(g, stats, hp) + log_graph_prior(g, hp)
        for g in graphs
    ])
    probs = np.exp(scores - logsumexp(scores))
    want = {g.edges: pr for g, pr in zip(graphs, probs)}
    for gid, pr in table.lookup().items():
        assert pr == pytest.approx(want[gid], rel=1e-10)


def test_exact_posterior_with_no_data_reduces_to_prior():
    # Zero observations: the marginal likelihood term vanishes, so the
    # posterior over the 8 decomposable p=3 graphs is the bernoulli prior,
    # which sums to one over all 2^3 edge subsets.
    stats = DatasetStats(data=np.empty((0, 3)), scatter=np.zeros((3, 3)))
    r = 0.35
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=r)
    table = exact_posterior(stats, hp)
    for gid, pr in table.lookup().items():
        k = bin(gid).count("1")
        assert pr == pytest.approx(r ** k * (1 - r) ** (3 - k), rel=1e-12)


def test_exact_posterior_permutation_equivariance():
    stats = make_stats(4, n=45, seed=3)
    hp = Hyperparams(delta=1.0, tau=0.8, graph_prior="bernoulli", r=0.5)
    table = exact_posterior(stats, hp)
    perm = [2, 0, 3, 1]
    permuted = DatasetStats.from_data(stats.data[:, perm],
                                      center=False, standardize=False)
    table_perm = exact_posterior(permuted, hp)
    # Column j of the permuted data is column perm[j] of the original, so
    # original vertex v maps to position perm.index(v).
    inv = {v: j for j, v in enumerate(perm)}
    for gid, pr in table.lookup().items():
        g = Graph(4, gid)
        mapped = Graph.from_edge_list(4, [(inv[i], inv[j]) for i, j in g.edge_list()])
        assert table_perm.prob(mapped) == pytest.approx(pr, rel=1e-9)


def test_posterior_table_helpers():
    stats = make_stats(3, n=30, seed=4)
    hp = Hyperparams(delta=1.0, tau=1.0)
    table = exact_posterior(stats, hp)
    top = table.top(3)
    assert len(top) == 3
    assert [g.edges for g, _ in top] == list(table.graph_ids[:3])
    assert top[0][1] == pytest.approx(float(table.probs[0]))
    g0 = Graph(3, table.graph_ids[0])
    assert table.prob(g0) == table.prob(table.graph_ids[0])
    assert table.prob(10 ** 9) == 0.0
    lk = table.lookup()
    assert set(lk) == set(table.graph_ids)
    assert sum(lk.values()) == pytest.approx(1.0, abs=1e-12)


def test_posterior_table_prob_reads_the_rank_of_every_graph():
    table = exact_posterior(make_stats(5, n=40, seed=6), Hyperparams(delta=1.0, tau=1.0))
    assert len(table.graph_ids) == 822
    for i, gid in enumerate(table.graph_ids):
        assert table.prob(gid) == table.prob(Graph(5, gid)) == float(table.probs[i])
    non_chordal = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert table.prob(non_chordal) == table.prob(non_chordal.edges) == 0.0


def test_posterior_table_prob_rejects_a_graph_on_another_p():
    table = exact_posterior(make_stats(4, n=40, seed=6), Hyperparams(delta=1.0, tau=1.0))
    top_id = table.graph_ids[0]
    for g in (Graph(5, top_id), Graph(3, 1)):
        with pytest.raises(MismatchedModelError, match=f"graph has p={g.p}, table has p=4"):
            table.prob(g)
    assert table.prob(Graph(4, top_id)) == table.prob(top_id) == float(table.probs[0])
    assert table.prob(Graph(4, 1)) == table.prob(1) > 0.0


def test_posterior_table_reads_ids_and_k_as_integers():
    table = exact_posterior(make_stats(4, n=40, seed=6), Hyperparams(delta=1.0, tau=1.0))
    assert len(table.graph_ids) == 61
    gid = table.graph_ids[0]
    for bad in (gid + 0.7, float(gid), np.float64(gid)):
        with pytest.raises(TypeError):
            table.prob(bad)
    assert table.prob(np.uint32(gid)) == table.prob(np.int64(gid)) == float(table.probs[0])
    for k in (-1, -61, np.int64(-2)):
        with pytest.raises(ValueError, match=f"k must be nonnegative, got k={k}"):
            table.top(k)
    for bad in (2.0, 1.5, np.float64(3)):
        with pytest.raises(TypeError):
            table.top(bad)
    assert table.top(0) == []
    assert table.top(np.int64(2)) == table.top(2) and len(table.top(2)) == 2
    assert len(table.top(100)) == 61


def test_exact_posterior_cap():
    stats = make_stats(8, n=60, seed=5)
    with pytest.raises(TooLargeError):
        exact_posterior(stats, Hyperparams(delta=1.0, tau=1.0))


def test_exact_posterior_p7():
    stats = make_stats(7, n=60, seed=5)
    hp = Hyperparams(delta=1.0, tau=0.5, graph_prior="bernoulli", r=0.3)
    table = exact_posterior(stats, hp)
    assert len(table.graph_ids) == len(table.probs) == 617675
    assert abs(float(table.probs.sum()) - 1.0) <= 1e-12
    scorer = PosteriorScorer(stats, hp)
    for gid, got in zip(table.graph_ids[:5], table.log_scores[:5]):
        want = scorer.score(Graph(7, gid))
        assert abs(got - want) <= 1e-12 * abs(want), gid


def test_family_log_liks_vertex_pass_matches_matrix_sum():
    """Adding the vertices' differences one pass at a time gives the bits of
    the (p, graphs) matrix summed over its rows."""
    for p in range(1, 8):
        _, fams, _ = _decomposable_families(p)
        scorer = PosteriorScorer(make_stats(p, n=30, seed=20 + p), Hyperparams(tau=0.4))
        terms = np.array([0.0] + [scorer.term(s) for s in range(1, 1 << p)])
        own = (1 << np.arange(p, dtype=np.uint8))[:, None]
        want = (terms[fams | own] - terms[fams]).sum(axis=0)
        assert np.array_equal(_family_log_liks(scorer, fams), want), p


def test_marginal_mle_p1_matches_direct_profile():
    stats = make_stats(1, n=25, seed=6, standardize=False)
    tau_grid = np.geomspace(0.01, 10.0, 40)
    surface = exact_marginal_mle(stats, delta=1.0, tau_grid=tau_grid)
    assert surface.log_lik.shape == (40, len(surface.r_grid))
    # One vertex means no edges, so the profile cannot depend on r.
    assert float(np.ptp(surface.log_lik, axis=1).max()) < 1e-12
    g = Graph(1, 0)
    # The surface drops the (n p / 2) log 2 pi constant; add it back here.
    const = stats.n * stats.p / 2.0 * np.log(2.0 * np.pi)
    direct = np.array([
        log_marginal_likelihood(g, stats, Hyperparams(delta=1.0, tau=float(t)))
        for t in tau_grid
    ]) + const
    assert np.allclose(surface.log_lik[:, 0], direct, rtol=1e-12)
    assert surface.tau_hat == tau_grid[int(np.argmax(direct))]
    assert surface.argmax[0] == int(np.argmax(direct))


def test_marginal_mle_p2_matches_direct_sum():
    stats = make_stats(2, n=30, seed=7)
    tau_grid = np.geomspace(0.05, 5.0, 15)
    r_grid = np.linspace(0.1, 0.9, 9)
    surface = exact_marginal_mle(stats, delta=1.0, tau_grid=tau_grid, r_grid=r_grid)
    empty, full = Graph(2, 0), Graph(2, 1)
    const = stats.n * stats.p / 2.0 * np.log(2.0 * np.pi)
    for a, tau in enumerate(tau_grid):
        hp = Hyperparams(delta=1.0, tau=float(tau))
        l_empty = log_marginal_likelihood(empty, stats, hp) + const
        l_full = log_marginal_likelihood(full, stats, hp) + const
        for b, r in enumerate(r_grid):
            want = logsumexp([l_empty + np.log1p(-r), l_full + np.log(r)])
            assert surface.log_lik[a, b] == pytest.approx(want, rel=1e-12)
    flat = int(np.argmax(surface.log_lik))
    a_best, b_best = np.unravel_index(flat, surface.log_lik.shape)
    assert surface.tau_hat == tau_grid[a_best]
    assert surface.r_hat == r_grid[b_best]


def test_marginal_mle_p4_matches_per_graph_sum():
    stats = make_stats(4, n=30, seed=12)
    tau_grid = np.array([0.02, 0.3, 1.0, 7.5])
    r_grid = np.array([0.05, 0.5, 0.9])
    surface = exact_marginal_mle(stats, delta=2.0, tau_grid=tau_grid, r_grid=r_grid)
    graphs = [g for g in (Graph(4, e) for e in range(1 << 6)) if is_decomposable(g)]
    k = np.array([g.edge_count for g in graphs])
    for a, tau in enumerate(tau_grid):
        scorer = PosteriorScorer(stats, Hyperparams(delta=2.0, tau=float(tau)))
        liks = np.array([scorer.log_lik(g) for g in graphs])
        for b, r in enumerate(r_grid):
            want = logsumexp(liks + k * np.log(r) + (6 - k) * np.log1p(-r))
            assert surface.log_lik[a, b] == pytest.approx(want, rel=1e-12, abs=0)


def test_marginal_mle_default_grids_and_cap():
    stats = make_stats(3, n=40, seed=8)
    surface = exact_marginal_mle(stats, delta=1.0)
    assert surface.log_lik.shape == (60, 49)
    assert np.all(np.isfinite(surface.log_lik))
    assert surface.tau_grid[0] == pytest.approx(1e-3)
    assert surface.r_grid[-1] == pytest.approx(0.98)
    big = make_stats(8, n=60, seed=9)
    with pytest.raises(TooLargeError):
        exact_marginal_mle(big, delta=1.0)


def stacked_surface(stats, delta, tau_grid, r_grid):
    """The (tau, r) surface as a logsumexp over a graphs x r matrix per tau."""
    p = stats.p
    _, fams, k = _decomposable_families(p)
    m = n_candidate_edges(p)
    out = np.empty((len(tau_grid), len(r_grid)))
    for a, tau in enumerate(tau_grid):
        hp = Hyperparams(delta=delta, tau=float(tau), graph_prior="bernoulli", r=0.5)
        liks = _family_log_liks(PosteriorScorer(stats, hp), fams)
        out[a] = _logsumexp(liks[:, None] + np.outer(k, np.log(r_grid))
                            + np.outer(m - k, np.log1p(-r_grid)), axis=0)
    return out


def assert_matches_stacked(stats, delta, tau_grid=None, r_grid=None):
    surface = exact_marginal_mle(stats, delta, tau_grid=tau_grid, r_grid=r_grid)
    want = stacked_surface(stats, delta, surface.tau_grid, surface.r_grid)
    err = np.abs(surface.log_lik - want) / np.abs(want)
    assert err.max() <= 1e-14, (stats.p, delta, err.max())
    assert surface.argmax == np.unravel_index(np.argmax(want), want.shape)


def test_marginal_mle_by_edge_count_matches_stacked_sum():
    for p in range(1, 7):
        assert_matches_stacked(make_stats(p, n=40, seed=30 + p), delta=1.0)
    tau_grid = np.geomspace(0.01, 30.0, 17)
    r_grid = np.linspace(0.05, 0.95, 11)
    for p, delta in ((4, 2.5), (5, 0.5), (6, 3.0)):
        assert_matches_stacked(make_stats(p, n=35, seed=40 + p), delta, tau_grid, r_grid)


def test_marginal_mle_p7_matches_stacked_sum():
    assert_matches_stacked(make_stats(7, n=60, seed=50), delta=1.0,
                           tau_grid=[0.05, 0.4, 3.0], r_grid=[0.1, 0.3, 0.5, 0.7, 0.9])


@pytest.mark.parametrize("grids, match", [
    ({"r_grid": [0.5, 1.0]}, r"r_grid\[1\] = 1.0 is not strictly inside \(0, 1\)"),
    ({"r_grid": [0.0, 0.5]}, r"r_grid\[0\] = 0.0 is not strictly inside \(0, 1\)"),
    ({"r_grid": [0.5, np.nan]}, r"r_grid\[1\] = nan is not strictly inside"),
    ({"tau_grid": []}, r"tau_grid must be a non-empty 1-d sequence, got shape \(0,\)"),
    ({"r_grid": []}, r"r_grid must be a non-empty 1-d sequence, got shape \(0,\)"),
    ({"tau_grid": [[0.1, 1.0]]}, r"tau_grid must be a non-empty 1-d sequence, got shape \(1, 2\)"),
    ({"tau_grid": [0.1, 0.0]}, r"tau_grid\[1\] = 0.0 is not finite and > 0"),
    ({"tau_grid": [-1.0]}, r"tau_grid\[0\] = -1.0 is not finite and > 0"),
    ({"tau_grid": [1.0, np.inf]}, r"tau_grid\[1\] = inf is not finite and > 0"),
], ids=["r_one", "r_zero", "r_nan", "tau_empty", "r_empty", "tau_2d",
        "tau_zero", "tau_negative", "tau_inf"])
def test_marginal_mle_rejects_bad_grid(grids, match):
    with pytest.raises(ValueError, match=match):
        exact_marginal_mle(make_stats(3, n=30, seed=15), delta=1.0, **grids)


def fake_log(p, graph_ids):
    return ChainLog(p=p, start_step=0, start_id=0, graph_ids=list(graph_ids),
                    log_scores=[0.0] * len(graph_ids))


def test_chain_vs_exact_multinomial_self_test():
    stats = make_stats(3, n=40, seed=10)
    hp = Hyperparams(delta=1.0, tau=1.0)
    table = exact_posterior(stats, hp)
    rng = np.random.default_rng(11)
    n = 50000
    draws = rng.multinomial(n, table.probs)
    ids = []
    for gid, count in zip(table.graph_ids, draws):
        ids.extend([gid] * int(count))
    comp = chain_vs_exact(fake_log(3, ids), table, threshold=0.01)
    assert comp.n_steps == n
    assert comp.tv_distance < 0.02
    want_keys = {gid for gid, pr in table.lookup().items() if pr >= 0.01}
    assert set(comp.rel_errors) == want_keys
    for err in comp.rel_errors.values():
        assert err < 0.2


def test_chain_vs_exact_perfect_frequencies_give_zero_tv():
    stats = make_stats(3, n=40, seed=12)
    table = exact_posterior(stats, Hyperparams(delta=1.0, tau=1.0))
    top = table.graph_ids[0]
    comp = chain_vs_exact(fake_log(3, [top] * 100), table)
    assert comp.tv_distance == pytest.approx(1.0 - table.prob(top), abs=1e-12)


def test_chain_vs_exact_error_paths():
    stats = make_stats(3, n=40, seed=13)
    table = exact_posterior(stats, Hyperparams(delta=1.0, tau=1.0))
    with pytest.raises(MismatchedModelError):
        chain_vs_exact(fake_log(4, [0, 0]), table)
    with pytest.raises(ValueError):
        chain_vs_exact(fake_log(3, []), table)
    stats4 = make_stats(4, n=40, seed=14)
    table4 = exact_posterior(stats4, Hyperparams(delta=1.0, tau=1.0))
    four_cycle = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_decomposable(four_cycle)
    with pytest.raises(MismatchedModelError):
        chain_vs_exact(fake_log(4, [0, four_cycle.edges]), table4)


def test_chain_vs_exact_names_an_unknown_graph_by_its_id():
    # The zero-padded ID that every artifact writes, not the bare hex.
    table = exact_posterior(make_stats(5, n=40, seed=14), Hyperparams(delta=1.0, tau=1.0))
    four_cycle = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert four_cycle.id_hex == "095"
    with pytest.raises(MismatchedModelError,
                       match="^chain visited graph 095 absent from the exact table$"):
        chain_vs_exact(fake_log(5, [0, four_cycle.edges]), table)
