"""Normalizing constants, marginal likelihood, scoring, and HIW sampling."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from conftest import vertex_sets
from ebggm.errors import (
    DomainError,
    MismatchedModelError,
    NotSPDError,
    SingularScatterError,
    ZeroVarianceError,
)
from ebggm.graphs import Graph, bench9_graph, graph_from_cliques, iter_bits, \
    perfect_sequence, random_decomposable_graph
from ebggm.hiw import (
    GRAPH_PRIORS,
    DatasetStats,
    Hyperparams,
    PosteriorScorer,
    log_graph_prior,
    log_hiw_constant,
    log_iw_constant,
    log_marginal_likelihood,
    log_multivariate_gamma,
    log_posterior_score,
    phi_matrix,
    sample_hiw,
    simulate_dataset,
)


def make_stats(data):
    data = np.asarray(data, dtype=float)
    return DatasetStats(data=data, scatter=data.T @ data)


def test_log_multivariate_gamma_reduces_to_gammaln():
    for a in (0.5, 1.0, 2.7, 10.0):
        assert log_multivariate_gamma(1, a) == pytest.approx(gammaln(a), rel=1e-15)


def test_log_multivariate_gamma_recurrence():
    # Gamma_q(a) = pi^((q-1)/2) Gamma(a) Gamma_{q-1}(a - 1/2)
    for q in (2, 3, 4):
        for a in (2.0, 3.5, 7.25):
            lhs = log_multivariate_gamma(q, a)
            rhs = (0.5 * (q - 1) * math.log(math.pi) + gammaln(a)
                   + log_multivariate_gamma(q - 1, a - 0.5))
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_log_multivariate_gamma_domain():
    with pytest.raises(DomainError):
        log_multivariate_gamma(3, 1.0)
    assert log_multivariate_gamma(0, 2.0) == 0.0


def test_log_iw_constant_matches_direct_formula():
    rng = np.random.default_rng(0)
    for q in (1, 2, 4):
        a = rng.standard_normal((q, q))
        phi = a @ a.T + q * np.eye(q)
        delta = 2.5
        nu = delta + q - 1
        sign, logdet = np.linalg.slogdet(phi / 2)
        expected = 0.5 * nu * logdet - log_multivariate_gamma(q, nu / 2)
        assert log_iw_constant(phi, delta) == pytest.approx(expected, rel=1e-12)


def test_log_iw_constant_rejects_non_spd():
    with pytest.raises(NotSPDError):
        log_iw_constant(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


def test_hiw_constant_complete_graph_is_plain_iw():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    phi = a @ a.T + 4 * np.eye(4)
    g = Graph.complete(4)
    assert log_hiw_constant(g, 2.0, phi) == pytest.approx(
        log_iw_constant(phi, 2.0), rel=1e-12)


def test_hiw_constant_decomposes_over_components():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    phi = a @ a.T + 5 * np.eye(5)
    g = graph_from_cliques(5, [(0, 1, 2), (3, 4)])
    part1 = log_iw_constant(phi[np.ix_([0, 1, 2], [0, 1, 2])], 1.5)
    part2 = log_iw_constant(phi[np.ix_([3, 4], [3, 4])], 1.5)
    assert log_hiw_constant(g, 1.5, phi) == pytest.approx(part1 + part2, rel=1e-12)


def quad_marginal_1d(y, delta, tau):
    """1-d marginal density of y under variance ~ the q=1 prior block.

    Density of sigma2 is InvGamma(delta/2, tau/2); integrate the normal
    likelihood over it with high-precision quadrature.
    """
    mpmath = pytest.importorskip("mpmath")
    y = np.asarray(y, dtype=float)
    n = len(y)
    ss = float(y @ y)
    a, b = delta / 2, tau / 2
    with mpmath.workdps(40):
        # integrate over u = log(sigma2) for numerical stability
        def integrand(u):
            s2 = mpmath.e ** u
            loglik = -n * mpmath.log(2 * mpmath.pi * s2) / 2 - ss / (2 * s2)
            logpri = (a * mpmath.log(b) - mpmath.loggamma(a)
                      - (a + 1) * mpmath.log(s2) - b / s2)
            return mpmath.e ** (loglik + logpri + u)

        val = mpmath.quad(integrand, [-60, 0, 60])
        return float(mpmath.log(val))


def test_marginal_likelihood_p1_vs_quadrature():
    rng = np.random.default_rng(3)
    for delta, tau, n in [(1.0, 0.5, 6), (3.0, 2.0, 12), (0.7, 5.0, 4)]:
        y = rng.standard_normal((n, 1)) * 1.4
        stats_ = make_stats(y)
        hp = Hyperparams(delta=delta, tau=tau)
        got = log_marginal_likelihood(Graph(1), stats_, hp)
        want = quad_marginal_1d(y[:, 0], delta, tau)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_marginal_likelihood_p2_vs_monte_carlo():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((8, 2))
    stats_ = make_stats(y)
    hp = Hyperparams(delta=3.0, tau=1.5)
    g = Graph.complete(2)
    draws = 60_000
    mc_rng = np.random.default_rng(5)
    logliks = np.empty(draws)
    for t in range(draws):
        sigma = sample_hiw(g, 3.0, 1.5 * np.eye(2), mc_rng)
        logliks[t] = stats.multivariate_normal.logpdf(y, mean=None, cov=sigma).sum()
    shifted = logliks - logliks.max()
    est = math.log(np.mean(np.exp(shifted))) + logliks.max()
    se = float(np.std(np.exp(shifted), ddof=1) / math.sqrt(draws)
               / np.mean(np.exp(shifted)))
    got = log_marginal_likelihood(g, stats_, hp)
    assert abs(got - est) < 3 * se


def test_marginal_likelihood_empty_data_is_zero():
    stats_ = DatasetStats(data=np.zeros((0, 3)), scatter=np.zeros((3, 3)))
    hp = Hyperparams(delta=2.0, tau=1.0)
    for g in (Graph(3), Graph.complete(3)):
        assert log_marginal_likelihood(g, stats_, hp) == pytest.approx(0.0, abs=1e-12)


def test_marginal_likelihood_order_invariance():
    rng = np.random.default_rng(6)
    g = graph_from_cliques(6, [(0, 1, 2), (2, 3, 4), (4, 5)])
    y = rng.standard_normal((15, 6))
    hp = Hyperparams(delta=1.0, tau=0.8)
    base = log_marginal_likelihood(g, make_stats(y), hp)
    vals = []
    for _ in range(10):
        perm = rng.permutation(6)
        gp = Graph.from_edge_list(6, [(min(perm[i], perm[j]), max(perm[i], perm[j]))
                                      for i, j in g.edge_list()])
        vals.append(log_marginal_likelihood(gp, make_stats(y[:, np.argsort(perm)]), hp))
    assert np.max(np.abs(np.asarray(vals) - base)) < 1e-10


def test_marginal_decomposes_over_disconnected_blocks():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((10, 4))
    hp = Hyperparams(delta=2.0, tau=1.3)
    g = graph_from_cliques(4, [(0, 1), (2, 3)])
    whole = log_marginal_likelihood(g, make_stats(y), hp)
    left = log_marginal_likelihood(Graph.complete(2), make_stats(y[:, :2]), hp)
    right = log_marginal_likelihood(Graph.complete(2), make_stats(y[:, 2:]), hp)
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_graph_prior_values():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])  # k=3, m=6
    hp_b = Hyperparams(graph_prior="bernoulli", r=0.3)
    assert log_graph_prior(g, hp_b) == pytest.approx(
        3 * math.log(0.3) + 3 * math.log(0.7), rel=1e-14)
    hp_bb = Hyperparams(graph_prior="beta_binomial")
    assert log_graph_prior(g, hp_bb) == pytest.approx(-math.log(math.comb(6, 3)),
                                                      rel=1e-14)
    hp_u = Hyperparams(graph_prior="uniform")
    assert log_graph_prior(g, hp_u) == 0.0


def test_scorer_matches_slow_path():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((12, 5))
    stats_ = DatasetStats.from_data(y)
    for hp in (Hyperparams(delta=1.0, tau=0.6, graph_prior="bernoulli", r=0.4),
               Hyperparams(delta=2.0, phi_mode="empirical_gprior",
                           graph_prior="beta_binomial")):
        scorer = PosteriorScorer(stats_, hp)
        for _ in range(25):
            g = random_decomposable_graph(5, rng)
            assert scorer.score(g) == pytest.approx(
                log_posterior_score(g, stats_, hp), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["standardized", "raw", "n_below_p"])
@pytest.mark.parametrize("p", [1, 2, 5, 9, 16, 32])
def test_spectral_scorer_matches_cholesky_path(p, kind):
    # Unconditioned random mixing.  "raw" scales the columns by 1e-3..1e3, as
    # --no-standardize leaves them, and "n_below_p" has a rank-deficient
    # scatter.  One DatasetStats is scored under several taus, so the later
    # scorers read the spectra cached by the first.
    for seed in range(4):
        rng = np.random.default_rng([p, seed])
        mix = rng.standard_normal((p, p))
        scales = 10.0 ** rng.uniform(-3.0, 3.0, p)
        if kind == "n_below_p":
            y = rng.standard_normal((max(1, p // 2), p)) @ mix * scales
            stats_ = DatasetStats(data=y, scatter=y.T @ y)
        elif kind == "raw":
            y = rng.standard_normal((p + 10, p)) @ mix * scales
            stats_ = DatasetStats.from_data(y, standardize=False)
        else:
            stats_ = DatasetStats.from_data(rng.standard_normal((p + 10, p)) @ mix)
        graphs = [Graph(p), Graph.complete(p)] + [
            random_decomposable_graph(p, rng, walk_steps=8 * p) for _ in range(2)]
        prior = GRAPH_PRIORS[seed % len(GRAPH_PRIORS)]
        hps = [Hyperparams(tau=tau, graph_prior=prior, r=0.3)
               for tau in 10.0 ** rng.uniform(-4.0, 2.0, 3)]
        if kind != "n_below_p":
            hps.append(Hyperparams(delta=1.5, phi_mode="empirical_gprior",
                                   graph_prior=prior, r=0.3))
        for hp in hps:
            scorer = PosteriorScorer(stats_, hp)
            for g in graphs:
                assert scorer.score(g) == pytest.approx(
                    log_posterior_score(g, stats_, hp), rel=1e-10)


def test_scorer_rejects_a_graph_of_another_p(figure1_stats):
    # A p=5 graph's cliques are valid vertex masks of p=9 data, so without
    # the check it scored (-272.2 here) as if vertices 5..8 were left out.
    scorer = PosteriorScorer(figure1_stats, Hyperparams(tau=0.25, r=0.4))
    for g in (Graph(5, 3), Graph(12), Graph.complete(10)):
        for read in (scorer.score, scorer.log_lik):
            with pytest.raises(MismatchedModelError, match=f"graph has p={g.p}, data have p=9"):
                read(g)
    assert scorer.score(Graph(9, 3)) == scorer.log_lik(Graph(9, 3)) + scorer.log_prior(2)


def test_scorer_rejects_singular_gprior():
    # n < p: scatter / n is singular, so the g-prior has no SPD Phi.
    rng = np.random.default_rng(21)
    for n, p in ((3, 5), (8, 9)):
        stats_ = DatasetStats.from_data(rng.standard_normal((n, p)))
        with pytest.raises(NotSPDError):
            PosteriorScorer(stats_, Hyperparams(phi_mode="empirical_gprior"))
    # The same data are fine under a scaled identity Phi.
    PosteriorScorer(stats_, Hyperparams(tau=1e-4))


def test_scorer_gprior_needs_no_tau():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((9, 3))
    stats_ = DatasetStats.from_data(y)
    hp1 = Hyperparams(delta=1.0, phi_mode="empirical_gprior", tau=1.0)
    hp2 = Hyperparams(delta=1.0, phi_mode="empirical_gprior", tau=99.0)
    g = graph_from_cliques(3, [(0, 1), (1, 2)])
    assert log_marginal_likelihood(g, stats_, hp1) == pytest.approx(
        log_marginal_likelihood(g, stats_, hp2), rel=1e-14)


def test_phi_matrix_modes():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((20, 3))
    stats_ = DatasetStats.from_data(y, standardize=False)
    np.testing.assert_allclose(
        phi_matrix(Hyperparams(tau=2.5), stats_), 2.5 * np.eye(3))
    np.testing.assert_allclose(
        phi_matrix(Hyperparams(phi_mode="empirical_gprior"), stats_),
        stats_.scatter / stats_.n)


def test_dataset_stats_processing():
    raw = np.array([[1.0, 10.0], [3.0, 14.0], [5.0, 12.0]])
    st = DatasetStats.from_data(raw, center=True, standardize=False)
    np.testing.assert_allclose(st.data.mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(st.scatter, st.data.T @ st.data)
    st2 = DatasetStats.from_data(raw)
    np.testing.assert_allclose(st2.data.std(axis=0, ddof=1), 1, atol=1e-10)
    assert st2.n == 3 and st2.p == 2


def test_dataset_stats_errors():
    with pytest.raises(ZeroVarianceError):
        DatasetStats.from_data(np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(ValueError):
        DatasetStats.from_data(np.array([[1.0, 2.0]]))  # one row
    with pytest.raises(ValueError):
        DatasetStats.from_data(np.array([[np.inf, 1.0], [0.0, 2.0]]))
    singular = DatasetStats(data=np.zeros((4, 2)), scatter=np.zeros((2, 2)))
    with pytest.raises(SingularScatterError):
        singular.inv_empirical


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(delta=0.0)
    with pytest.raises(ValueError):
        Hyperparams(tau=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(graph_prior="bernoulli", r=1.0)
    with pytest.raises(ValueError):
        Hyperparams(phi_mode="other")


def test_invwishart_mean():
    # mean of IW(df, scale) entries is scale / (df - q - 1)
    rng = np.random.default_rng(11)
    q, df = 3, 10.0
    a = rng.standard_normal((q, q))
    scale = a @ a.T + q * np.eye(q)
    draws = np.stack([sample_hiw(Graph.complete(q), df - q + 1, scale, rng)
                      for _ in range(8000)])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    np.testing.assert_array_less(np.abs(mean - scale / (df - q - 1)), 4 * se + 1e-12)


def test_invwishart_matches_scipy_distribution():
    rng = np.random.default_rng(12)
    df, scale = 7.0, np.array([[2.0, 0.4], [0.4, 1.0]])
    draws = [sample_hiw(Graph.complete(2), df - 2 + 1, scale, rng) for _ in range(4000)]
    tr = np.array([d[0, 0] for d in draws])
    # diagonal entry of a q=2 IW(df, scale) is InvGamma((df - q + 1)/2, scale_ii/2)
    marg = stats.invgamma(a=(df - 2 + 1) / 2, scale=scale[0, 0] / 2)
    res = stats.kstest(tr, marg.cdf)
    assert res.pvalue > 1e-3


def test_hiw_p1_is_invgamma_with_documented_mode():
    rng = np.random.default_rng(13)
    delta, tau = 3.0, 2.0
    g = Graph(1)
    draws = np.array([sample_hiw(g, delta, np.array([[tau]]), rng)[0, 0]
                      for _ in range(4000)])
    marg = stats.invgamma(a=delta / 2, scale=tau / 2)
    assert stats.kstest(draws, marg.cdf).pvalue > 1e-3
    # the variance prior peaks at tau / (delta + 2)
    mode = tau / (delta + 2)
    eps = 1e-5
    assert marg.pdf(mode) > marg.pdf(mode + eps)
    assert marg.pdf(mode) > marg.pdf(mode - eps)


def test_hiw_precision_zeros_outside_graph():
    rng = np.random.default_rng(14)
    for _ in range(100):
        g = random_decomposable_graph(6, rng)
        phi = 1.2 * np.eye(6)
        sigma = sample_hiw(g, 1.0, phi, rng)
        kmat = np.linalg.inv(sigma)
        scale = np.sqrt(np.outer(np.diag(kmat), np.diag(kmat)))
        for i in range(6):
            for j in range(i + 1, 6):
                if not g.has_edge(i, j):
                    assert abs(kmat[i, j]) / scale[i, j] < 1e-8


def test_hiw_rejects_a_phi_of_another_shape():
    # A larger Phi used to give a 5 x 5 draw from its top-left block.
    rng = np.random.default_rng(0)
    for phi in (np.eye(9), np.eye(4), np.ones(5), np.eye(5)[:, :4]):
        with pytest.raises(ValueError, match=r"Phi must be 5 x 5"):
            sample_hiw(Graph(5, 3), 1.0, phi, rng)
    assert sample_hiw(Graph(5, 3), 1.0, np.eye(5), rng).shape == (5, 5)


def test_hiw_clique_inverse_moments():
    # for any clique C, Sigma_C ~ IW(delta + |C| - 1, Phi_C), whose inverse
    # has mean (delta + |C| - 1) Phi_C^{-1}; separators likewise
    rng = np.random.default_rng(15)
    g = graph_from_cliques(5, [(0, 1, 2), (2, 3), (3, 4)])
    delta = 1.0
    a = rng.standard_normal((5, 5))
    phi = a @ a.T + 5 * np.eye(5)
    cliques, separators = map(vertex_sets, perfect_sequence(g))
    draws = 6000
    sums = {tuple(c): 0.0 for c in cliques}
    sums.update({tuple(s): 0.0 for s in separators})
    for _ in range(draws):
        sigma = sample_hiw(g, delta, phi, rng)
        for block in list(sums):
            idx = np.ix_(block, block)
            sums[block] = sums[block] + np.linalg.inv(sigma[idx])
    for block, total in sums.items():
        idx = np.ix_(block, block)
        q = len(block)
        want = (delta + q - 1) * np.linalg.inv(phi[idx])
        got = total / draws
        np.testing.assert_allclose(got, want, rtol=0.08, atol=0.05)


@pytest.mark.parametrize("g", [Graph(1), graph_from_cliques(4, [(0, 1), (1, 2), (2, 3)]),
                               bench9_graph(),
                               random_decomposable_graph(12, np.random.default_rng([3, 12]))],
                         ids=["p1", "path4", "bench9", "random12"])
def test_hiw_draw_inverse_trace_mean(g):
    # The law of the whole assembled matrix, not only of its blocks: Sigma^-1
    # is the sum of its padded clique inverses less its padded separator
    # inverses, each inverse Wishart Sigma_B ~ IW(delta + |B| - 1, Phi_B)
    # (Dawid & Lauritzen 1993), so E tr Sigma^-1 = sum_C (delta + |C| - 1)
    # tr Phi_C^-1 - sum_S (delta + |S| - 1) tr Phi_S^-1.
    rng = np.random.default_rng([25, g.p])
    delta, draws = 2.5, 4000
    a = rng.standard_normal((g.p, g.p))
    phi = a @ a.T + g.p * np.eye(g.p)
    cliques, separators = map(vertex_sets, perfect_sequence(g))

    def moment(blocks):
        return sum((delta + len(b) - 1) * np.trace(np.linalg.inv(phi[np.ix_(b, b)]))
                   for b in map(sorted, blocks) if b)

    want = moment(cliques) - moment(separators)
    traces = np.empty(draws)
    for t in range(draws):
        # Cholesky raises unless the draw is positive definite, as every
        # draw of the law is; tr Sigma^-1 is the squared norm of L^-1
        half = np.linalg.inv(np.linalg.cholesky(sample_hiw(g, delta, phi, rng)))
        traces[t] = np.sum(half * half)
    z = (traces.mean() - want) / (traces.std(ddof=1) / math.sqrt(draws))
    assert abs(z) <= 4.0, z


def _scipy_lower_solve(lo, b):
    return solve_triangular(lo, b, lower=True)


def _reference_invwishart(df, scale, rng, lower_solve):
    """Reference inverse-Wishart draw: one scalar RNG call per Bartlett entry;
    lower_solve(lo, b) solves lo x = b for a lower triangular lo."""
    q = scale.shape[0]
    lo = np.linalg.cholesky(scale)
    bart = np.zeros((q, q))
    for i in range(q):
        bart[i, i] = np.sqrt(rng.chisquare(df - i))
        for j in range(i):
            bart[i, j] = rng.standard_normal()
    half = lower_solve(bart, lo.T).T
    return half @ half.T


def _reference_hiw(g, delta, phi, rng, lower_solve):
    """Reference sample_hiw: np.ix_ blocks, a sorted list of placed vertices
    and the first clique drawn on its own."""
    cliques, separators = perfect_sequence(g)
    sigma = np.zeros((g.p, g.p))
    first = list(iter_bits(cliques[0]))
    sigma[np.ix_(first, first)] = _reference_invwishart(
        delta + len(first) - 1, phi[np.ix_(first, first)], rng, lower_solve)
    placed = list(first)
    for cm, sm in zip(cliques[1:], separators):
        res = list(iter_bits(cm & ~sm))
        df = delta + cm.bit_count() - 1
        if not sm:
            sigma[np.ix_(res, res)] = _reference_invwishart(
                df, phi[np.ix_(res, res)], rng, lower_solve)
            placed.extend(res)
            placed.sort()
            continue
        sv = list(iter_bits(sm))
        pss = phi[np.ix_(sv, sv)]
        psr = phi[np.ix_(sv, res)]
        prr = phi[np.ix_(res, res)]
        lss = np.linalg.cholesky(pss)
        m_reg = np.linalg.solve(pss, psr)
        prr_s = prr - psr.T @ m_reg
        prr_s = (prr_s + prr_s.T) / 2.0
        u_blk = _reference_invwishart(df, prr_s, rng, lower_solve)
        a_half = lower_solve(lss, np.eye(len(sv))).T
        c_half = np.linalg.cholesky(u_blk)
        b_reg = m_reg + a_half @ rng.standard_normal((len(sv), len(res))) @ c_half.T
        cross = b_reg.T @ sigma[np.ix_(sv, placed)]
        sigma[np.ix_(res, placed)] = cross
        sigma[np.ix_(placed, res)] = cross.T
        sigma[np.ix_(res, res)] = u_blk + b_reg.T @ sigma[np.ix_(sv, sv)] @ b_reg
        placed.extend(res)
        placed.sort()
    return sigma


def test_hiw_draw_is_bit_identical_to_reference():
    # The reference solves its triangular systems with np.linalg.solve, as
    # sample_hiw does, and must match bit for bit; with scipy's
    # solve_triangular it must match to rounding.
    grng = np.random.default_rng(22)
    cases = [Graph(1), bench9_graph(), random_decomposable_graph(25, grng),
             graph_from_cliques(8, [(0, 1, 2), (3, 4), (5,), (6, 7)])]
    # sample_hiw stacks the blocks of each shape (|S|, |R|): six 1 x 1 blocks
    # on empty separators, one block, random graphs, three (2, 1) blocks
    # beside two (1, 1) blocks, which share |R| but not |S|, and a band
    # graph at p=32 whose 27 blocks after the first are all (4, 1)
    fan = graph_from_cliques(8, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (5, 6), (6, 7)])
    shapes = [(s.bit_count(), (c & ~s).bit_count())
              for c, s in zip(fan.cliques, (0, *fan.separators))]
    assert shapes.count((2, 1)) >= 3 and (1, 1) in shapes
    more = np.random.default_rng(24)
    cases += [Graph(6), Graph.complete(12), fan,
              random_decomposable_graph(16, more), random_decomposable_graph(32, more),
              graph_from_cliques(32, [range(i, i + 5) for i in range(28)])]
    for g in cases:
        a = grng.standard_normal((g.p + 2, g.p))
        for delta, phi in ((1.0, 0.03 * np.eye(g.p)), (40.5, a.T @ a + np.eye(g.p))):
            rng, ref_rng, tri_rng = (np.random.default_rng(23) for _ in range(3))
            for _ in range(3):
                got = sample_hiw(g, delta, phi, rng)
                want = _reference_hiw(g, delta, phi, ref_rng, np.linalg.solve)
                assert np.array_equal(got, want)
                tri = _reference_hiw(g, delta, phi, tri_rng, _scipy_lower_solve)
                assert np.max(np.abs(got - tri)) <= 1e-12 * np.max(np.abs(tri))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_hiw_errors_on_the_stacked_path():
    rng = np.random.default_rng(25)
    path = graph_from_cliques(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for delta in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="delta > 0"):
            sample_hiw(path, delta, np.eye(6), rng)
    # Phi is SPD on every block but the clique {3, 4}, one of a stack of
    # four (1, 1) blocks; Phi on {0, 1}, the first clique, fails likewise
    for i, j in ((3, 4), (0, 1)):
        phi = np.eye(6)
        phi[i, j] = phi[j, i] = 2.0
        with pytest.raises(NotSPDError, match="not SPD on a clique"):
            sample_hiw(path, 1.0, phi, rng)


def test_simulate_dataset_deterministic_and_consistent():
    g = graph_from_cliques(4, [(0, 1, 2), (2, 3)])
    d1, st1 = simulate_dataset(g, 0.5, 1.0, 40, np.random.default_rng(17))
    d2, st2 = simulate_dataset(g, 0.5, 1.0, 40, np.random.default_rng(17))
    np.testing.assert_array_equal(d1, d2)
    assert d1.shape == (40, 4)
    np.testing.assert_allclose(st1.scatter, d1.T @ d1, rtol=1e-12)
    np.testing.assert_allclose(st1.scatter, st1.scatter.T)


def test_simulate_dataset_rejects_bad_n():
    with pytest.raises(ValueError):
        simulate_dataset(Graph(2), 1.0, 1.0, 0, np.random.default_rng(0))
