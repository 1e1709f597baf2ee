"""Acceptance gate: one test per stated criterion, one verdict line each.

Run with -v for the per-criterion PASSED/FAILED lines; every test also
prints a "criterion N: PASS/FAIL - details" summary (shown with -rA or on
failure).  The p=8 enumeration check only runs when EBGGM_RUN_SLOW=1, and
the classic-dataset checks only run when the user drops the corresponding
CSV files into tests/data/.
"""

import filecmp
import glob
import os
import time

import mpmath
import numpy as np
import pytest

from conftest import classic_csv, relabeled
from ebggm import (
    DatasetStats,
    Graph,
    Hyperparams,
    KernelConfig,
    SaemConfig,
    bench9_graph,
    chain_vs_exact,
    count_decomposable,
    edge_pair,
    enumerate_decomposable,
    exact_marginal_mle,
    exact_posterior,
    graph_from_cliques,
    ingest_csv,
    is_decomposable,
    legal_additions,
    legal_deletions,
    log_marginal_likelihood,
    random_decomposable_graph,
    run_chain,
    run_saem,
    sample_hiw,
    simulate_dataset,
)
from ebggm.cli import main as cli_main
from ebggm.dataio import sha256_of
from ebggm.graphs import elimination_families

RUN_SLOW = os.environ.get("EBGGM_RUN_SLOW", "") == "1"


def verdict(name, ok, details):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"{name}: {details}"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_decomposable_counts():
    t0 = time.time()
    c4 = count_decomposable(4)
    t4 = time.time() - t0
    e4 = sum(1 for _ in enumerate_decomposable(4))
    t0 = time.time()
    c6 = count_decomposable(6)
    t6 = time.time() - t0
    parts = [f"count(4)={c4} in {t4:.2f}s", f"enum(4)={e4}",
             f"count(6)={c6} in {t6:.1f}s"]
    ok = c4 == 61 and e4 == 61 and c6 == 18154 and t4 < 1.0 and t6 < 120.0
    if RUN_SLOW:
        t0 = time.time()
        c8 = count_decomposable(8)
        parts.append(f"count(8)={c8} in {time.time() - t0:.0f}s")
        ok = ok and c8 == 30888596
    else:
        parts.append("p=8 check skipped (set EBGGM_RUN_SLOW=1 to enable)")
    verdict("criterion 1", ok, ", ".join(parts))


# --------------------------------------------------------------- criterion 2


def oracle_mismatches(g):
    """Edges where legal-move sets disagree with flip-then-recheck."""
    p = g.p
    adds = set(legal_additions(g))
    dels = set(legal_deletions(g))
    bad = 0
    for k in range(g.m):
        i, j = edge_pair(p, k)
        flipped = Graph(p, g.edges ^ (1 << k))
        stays = is_decomposable(flipped)
        listed = (i, j) in (dels if (g.edges >> k) & 1 else adds)
        bad += stays != listed
    return bad


def test_criterion_2_move_legality_oracle():
    t0 = time.time()
    bad6 = sum(oracle_mismatches(g) for g in enumerate_decomposable(6))
    t6 = time.time() - t0
    rng = np.random.default_rng(20240902)
    t0 = time.time()
    bad10 = sum(oracle_mismatches(random_decomposable_graph(10, rng))
                for _ in range(1000))
    t10 = time.time() - t0
    ok = bad6 == 0 and bad10 == 0
    verdict("criterion 2", ok,
            f"p=6: 18154 graphs x 15 edges, {bad6} mismatches in {t6:.1f}s; "
            f"p=10: 1000 graphs x 45 edges, {bad10} mismatches in {t10:.1f}s")


def test_move_masks_match_enumerated_neighbours():
    """Legality oracle that shares no code with the maximum cardinality
    search or the move masks: a flip is legal exactly when the flipped edge
    set is one of the decomposable graphs the elimination pass enumerates."""
    t0 = time.time()
    checked = 0
    for p in range(1, 7):
        chordal = set(np.concatenate([ids for ids, _ in elimination_families(p)]).tolist())
        for edges in sorted(chordal):
            g = Graph(p, edges)
            legal = g.additions | g.deletions
            for k in range(g.m):
                assert bool(legal >> k & 1) == (edges ^ 1 << k in chordal), (g, k)
            checked += 1
    verdict("enumerated-neighbour legality", checked == 19048,
            f"{checked} graphs with p <= 6, every slot, in {time.time() - t0:.1f}s")


# --------------------------------------------------------------- criterion 3


def quad_log_marginal_1d(values, delta, tau):
    """40-digit quadrature of the one-variable marginal likelihood."""
    with mpmath.workdps(40):
        d, t = mpmath.mpf(delta), mpmath.mpf(tau)
        ys = [mpmath.mpf(float(v)) for v in values]
        n = len(ys)
        ss = sum(y * y for y in ys)
        a, b = d / 2, t / 2
        log_c = a * mpmath.log(b) - mpmath.loggamma(a)

        def integrand(u):
            v = mpmath.e ** u
            logp = (log_c - (a + 1) * u - b / v + u
                    - n * mpmath.log(2 * mpmath.pi * v) / 2 - ss / (2 * v))
            return mpmath.e ** logp

        return float(mpmath.log(mpmath.quad(integrand, [-60, 0, 60])))


def test_criterion_3_marginal_likelihood_oracles():
    worst_quad = 0.0
    for delta, tau, n, seed in ((1.0, 0.5, 6, 31), (3.0, 2.0, 12, 32),
                                (0.7, 5.0, 4, 33)):
        raw = np.random.default_rng(seed).standard_normal((n, 1)) * 1.3
        stats = DatasetStats.from_data(raw, center=False, standardize=False)
        closed = log_marginal_likelihood(Graph(1, 0), stats,
                                         Hyperparams(delta=delta, tau=tau))
        oracle = quad_log_marginal_1d(raw[:, 0], delta, tau)
        worst_quad = max(worst_quad, abs(closed - oracle) / abs(oracle))

    # p=2 Monte Carlo: average the Gaussian likelihood over prior draws.
    raw = np.random.default_rng(34).standard_normal((8, 2)) @ \
        np.array([[1.0, 0.4], [0.0, 0.9]])
    stats = DatasetStats.from_data(raw, center=False, standardize=False)
    g2 = Graph(2, 1)
    closed = log_marginal_likelihood(g2, stats, Hyperparams(delta=2.0, tau=0.8))
    draws = 60000
    rng = np.random.default_rng(35)
    logw = np.empty(draws)
    const = -stats.n * stats.p / 2.0 * np.log(2 * np.pi)
    for t in range(draws):
        sigma = sample_hiw(g2, 2.0, 0.8 * np.eye(2), rng)
        _, logdet = np.linalg.slogdet(sigma)
        prec = np.linalg.inv(sigma)
        logw[t] = const - stats.n / 2.0 * logdet \
            - 0.5 * float(np.sum(stats.scatter * prec))
    hi = logw.max()
    w = np.exp(logw - hi)
    mc_est = hi + np.log(w.mean())
    mc_se = w.std(ddof=1) / (w.mean() * np.sqrt(draws))
    mc_sigmas = abs(closed - mc_est) / mc_se

    # Order invariance: 20 relabelings, whose perfect orders mapped back to
    # g's labels are not all the default one.
    g = Graph.from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                 (3, 5), (4, 5)])
    raw, stats = simulate_dataset(g, tau=1.0, delta=3.0, n=40,
                                  rng=np.random.default_rng(36))
    hp = Hyperparams(delta=1.0, tau=0.9)
    vals = [log_marginal_likelihood(g, stats, hp)]
    orders = {g.cliques}
    for perm_rng in (np.random.default_rng(37), np.random.default_rng(38)):
        for _ in range(10):
            perm = perm_rng.permutation(6)
            stats_p = DatasetStats.from_data(stats.data[:, perm],
                                             center=False, standardize=False)
            g_p, back = relabeled(g, perm)
            vals.append(log_marginal_likelihood(g_p, stats_p, hp))
            orders.add(tuple(map(back, g_p.cliques)))
    spread = float(np.ptp(vals)) / abs(float(np.mean(vals)))

    ok = (worst_quad < 1e-6 and mc_sigmas < 3.0 and spread < 1e-10
          and len(orders) > 1)
    verdict("criterion 3", ok,
            f"p=1 quadrature worst rel err={worst_quad:.2e} (<1e-6); "
            f"p=2 MC deviation={mc_sigmas:.2f} SE (<3); "
            f"order-invariance spread={spread:.2e} (<1e-10) "
            f"over {len(orders)} distinct perfect orders (>1)")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_sampler_tv_vs_exact():
    g_true = graph_from_cliques(4, [(0, 1, 2), (2, 3)])
    raw, _ = simulate_dataset(g_true, tau=0.5, delta=1.0, n=30,
                              rng=np.random.default_rng(20240901))
    stats = DatasetStats.from_data(raw, center=True, standardize=True)
    hp = Hyperparams(delta=1.0, tau=0.5, graph_prior="bernoulli", r=0.5)
    table = exact_posterior(stats, hp)
    parts = []
    ok = True
    for mode, seed in (("add_delete", 7), ("data_driven", 8), ("alternate", 9)):
        cfg = KernelConfig(mode=mode)
        rng = np.random.default_rng(seed)
        t0 = time.time()
        state, _ = run_chain(Graph(4, 0), 10000, stats, hp, cfg, rng)
        _, log = run_chain(state, 200000, stats, hp, cfg, rng)
        elapsed = time.time() - t0
        tv = chain_vs_exact(log, table).tv_distance
        parts.append(f"{mode} TV={tv:.4f} in {elapsed:.1f}s")
        ok = ok and tv < 0.02 and elapsed < 60.0
    verdict("criterion 4", ok, "; ".join(parts) + " (bound 0.02, 60s each)")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_hiw_sampler():
    rng = np.random.default_rng(20240928)
    g4 = Graph.complete(4)
    acc = np.zeros((4, 4))
    for _ in range(10000):
        acc += sample_hiw(g4, 3.0, np.eye(4), rng)
    mean_dev = float(np.max(np.abs(acc / 10000 - np.eye(4))))

    rng = np.random.default_rng(20240906)
    worst = 0.0
    for _ in range(100):
        g = random_decomposable_graph(6, rng)
        sigma = sample_hiw(g, 3.0, np.eye(6), rng)
        prec = np.linalg.inv(sigma)
        scale = np.max(np.abs(prec))
        for i in range(6):
            for j in range(i + 1, 6):
                if not g.has_edge(i, j):
                    worst = max(worst, abs(prec[i, j]) / scale)

    ok = mean_dev <= 0.05 and worst < 1e-8
    verdict("criterion 5", ok,
            f"complete-graph mean dev={mean_dev:.4f} (<=0.05 of identity); "
            f"worst scaled non-edge precision={worst:.2e} (<1e-8, "
            f"100 random p=6 graphs)")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_saem_vs_brute_force():
    g_true = graph_from_cliques(4, [(0, 1, 2), (2, 3)])
    raw, _ = simulate_dataset(g_true, tau=0.5, delta=1.0, n=30,
                              rng=np.random.default_rng(20240901))
    stats = DatasetStats.from_data(raw, center=True, standardize=True)
    surface = exact_marginal_mle(stats, delta=1.0)
    ratio = float(surface.tau_grid[1] / surface.tau_grid[0])
    dr = float(surface.r_grid[1] - surface.r_grid[0])

    cfg = SaemConfig(n_iter=4000, n_unit=1000, m_first=500, m_rest=20, n_warm=5)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    t0 = time.time()
    parts = [f"grid max tau*={surface.tau_hat:.4f} r*={surface.r_hat:.3f}"]
    ok = True
    for seed in (601, 602, 603):
        res = run_saem(stats, cfg, hp, np.random.default_rng(seed))
        in_tau = surface.tau_hat / ratio <= res.tau <= surface.tau_hat * ratio
        in_r = abs(res.r - surface.r_hat) <= dr + 1e-12
        parts.append(f"seed {seed}: tau={res.tau:.4f} r={res.r:.3f} "
                     f"in-cell={in_tau and in_r}")
        ok = ok and in_tau and in_r
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    verdict("criterion 6", ok, "; ".join(parts) + f"; total {elapsed:.0f}s (<120s)")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_simulated_study():
    g = bench9_graph()
    cfg = SaemConfig(n_iter=300, n_unit=100, m_first=500, m_rest=10, n_warm=5)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    taus = []
    all_finite = True
    all_r_ok = True
    t0 = time.time()
    for i in range(10):
        _, stats = simulate_dataset(g, tau=0.03, delta=1.0, n=100,
                                    rng=np.random.default_rng(7000 + i))
        res = run_saem(stats, cfg, hp, np.random.default_rng(8000 + i))
        taus.append(res.tau)
        all_finite = all_finite and bool(np.all(np.isfinite(res.trace)))
        all_r_ok = all_r_ok and 0.0 < res.r < 1.0
    elapsed = time.time() - t0
    taus = np.asarray(taus)
    rel_rmse = float(np.sqrt(np.mean((taus - 0.03) ** 2)) / 0.03)
    ok = 0.15 <= rel_rmse <= 0.50 and all_finite and all_r_ok
    verdict("criterion 7", ok,
            f"10 datasets p=9, rel RMSE(tau)={rel_rmse:.3f} (band [0.15, 0.50]), "
            f"traces finite={all_finite}, r in (0,1)={all_r_ok}, {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_head_measurements():
    path = classic_csv("frets_heads.csv")
    if path is None:
        pytest.skip("criterion 8 (head measurements) needs user-supplied data: "
                    "place the classic 25x4 CSV at tests/data/frets_heads.csv")
    print(f"frets_heads.csv sha256={sha256_of(path)}")
    stats, _ = ingest_csv(path, center=True, standardize=True)
    hp = Hyperparams(delta=1.0, tau=0.3925, graph_prior="bernoulli", r=0.6052)
    table = exact_posterior(stats, hp)
    targets = (0.28613, 0.18219, 0.1264)
    top3 = [float(pr) for pr in table.probs[:3]]
    top_ok = all(abs(got - want) <= 0.005
                 for got, want in zip(top3, targets))

    cfg = SaemConfig(n_iter=300, n_unit=100, m_first=500, m_rest=10, n_warm=5)
    hp_base = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    saem_ok = True
    ests = []
    for seed in range(9000, 9005):
        res = run_saem(stats, cfg, hp_base, np.random.default_rng(seed))
        ests.append((res.tau, res.r))
        saem_ok = saem_ok and abs(res.tau - 0.3925) <= 0.08 \
            and abs(res.r - 0.6052) <= 0.10
    verdict("criterion 8 (head data)", top_ok and saem_ok,
            f"top3={top3} vs {targets} +-0.005 -> {top_ok}; "
            f"SAEM 5 seeds {ests} vs (0.3925+-0.08, 0.6052+-0.10) -> {saem_ok}")


def test_criterion_8_bone_measurements():
    path = classic_csv("fowl_bones.csv")
    if path is None:
        pytest.skip("criterion 8 (bone measurements) needs user-supplied data: "
                    "place the classic 276x6 CSV at tests/data/fowl_bones.csv")
    print(f"fowl_bones.csv sha256={sha256_of(path)}")
    stats, _ = ingest_csv(path, center=True, standardize=True)
    hp = Hyperparams(delta=1.0, tau=0.674, graph_prior="bernoulli", r=0.69)
    table = exact_posterior(stats, hp)

    results = {}
    for mode in ("add_delete", "alternate", "data_driven"):
        rng = np.random.default_rng(424243)
        state, _ = run_chain(Graph(6, 0), 10000, stats, hp, KernelConfig(), rng)
        _, log = run_chain(state, 100000, stats, hp, KernelConfig(mode=mode), rng)
        comp = chain_vs_exact(log, table, threshold=0.001)
        errs = sorted(comp.rel_errors.values())
        results[mode] = (log.acceptance_rate(), errs[len(errs) // 2])
    base_acc, base_med = results["add_delete"]
    ok = all(results[mode][0] > base_acc and results[mode][1] < base_med
             for mode in ("alternate", "data_driven"))
    verdict("criterion 8 (bone data)", ok,
            f"acceptance/median-rel-error by kernel: {results} "
            f"(informed kernels must beat add_delete on both)")


# --------------------------------------------------------------- criterion 9


def rerun_matches(tmp_path, label, args):
    out_a = str(tmp_path / (label + "_a"))
    out_b = str(tmp_path / (label + "_b"))
    assert cli_main(args + ["--out-dir", out_a]) == 0
    assert cli_main(["rerun", os.path.join(out_a, "manifest.txt"),
                     "--out-dir", out_b]) == 0
    checked = 0
    for path_a in sorted(glob.glob(os.path.join(out_a, "*"))):
        name = os.path.basename(path_a)
        if name == "manifest.txt":
            continue
        if not filecmp.cmp(path_a, os.path.join(out_b, name), shallow=False):
            return checked, name
        checked += 1
    return checked, None


def test_criterion_9_manifest_determinism(tmp_path):
    sim = str(tmp_path / "gen")
    assert cli_main(["simulate", "--graph", "complete", "--p", "3",
                     "--n", "40", "--seed", "11", "--out-dir", sim]) == 0
    data = os.path.join(sim, "data.csv")
    runs = [
        ("count", ["count", "--p", "4"]),
        ("simulate", ["simulate", "--graph", "figure1", "--n", "40",
                      "--tau", "0.03", "--seed", "17"]),
        ("exact", ["exact", "--data", data, "--tau", "0.5", "--top-k", "5"]),
        ("sample", ["sample", "--data", data, "--n-steps", "5000",
                    "--n-burn", "500", "--kernel", "alternate", "--seed", "3"]),
        ("fit", ["fit", "--data", data, "--n-iter", "40", "--n-unit", "10",
                 "--m-first", "50", "--m-rest", "5", "--n-warm", "2",
                 "--seed", "4"]),
    ]
    parts = []
    ok = True
    for label, args in runs:
        checked, mismatch = rerun_matches(tmp_path, label, args)
        parts.append(f"{label}: {checked} artifacts"
                     + (f", MISMATCH {mismatch}" if mismatch else ""))
        ok = ok and mismatch is None and checked > 0
    # report reruns on the exact command's stored posterior table
    table = str(tmp_path / "exact_a" / "posterior.csv")
    checked, mismatch = rerun_matches(
        tmp_path, "report", ["report", "--table", table, "--p", "3"])
    parts.append(f"report: {checked} artifacts"
                 + (f", MISMATCH {mismatch}" if mismatch else ""))
    ok = ok and mismatch is None and checked > 0
    verdict("criterion 9", ok, "; ".join(parts))
