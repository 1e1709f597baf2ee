"""The MH pre-test: its bound on log alpha, and chains that match the
step without it draw for draw."""

from fractions import Fraction
from math import exp, fsum, log

import numpy as np
import pytest

from conftest import ScriptedRng, search_addition_mask
from ebggm import (
    ChainState,
    DatasetStats,
    Graph,
    Hyperparams,
    KernelConfig,
    MoveCache,
    PosteriorScorer,
    edge_weights,
    enumerate_decomposable,
    log_posterior_score,
    random_decomposable_graph,
    run_chain,
    sample_hiw,
)
from ebggm.graphs import edge_pair, nth_bit
from ebggm.sampler import _draw_move, _log_alpha_bound, _propose, weight_tables


# --------------------------------------------------------------- reference
# The step before the pre-test: select, look up, score, then draw u.  It
# walks the candidate bits one at a time; a total is math.fsum of the
# weights, and the move is the first candidate whose exact running weight
# (fractions.Fraction) reaches u times the exact total.

def ref_iter_bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def ref_weight_total(weights, mask):
    return fsum(weights[k] for k in ref_iter_bits(mask))


def ref_select(weights, mask, u):
    target = Fraction(u) * sum(Fraction(weights[k]) for k in ref_iter_bits(mask))
    acc = Fraction(0)
    for k in ref_iter_bits(mask):
        acc += Fraction(weights[k])
        if acc >= target:
            return k
    return mask.bit_length() - 1


def ref_propose(g, moves, weights, do_delete, rng):
    cand = g.deletions if do_delete else g.additions
    if not cand:
        return None
    if weights is None:
        k = nth_bit(cand, int(rng.integers(cand.bit_count())))
    else:
        w_rev, w_fwd = weights if do_delete else weights[::-1]
        k = ref_select(w_fwd, cand, rng.random())
    gp = moves.moves(Graph(g.p, g.edges ^ (1 << k)))
    reverse = gp.additions if do_delete else gp.deletions
    if weights is None:
        log_q_ratio = log(cand.bit_count()) - log(reverse.bit_count())
    else:
        log_q_fwd = log(w_fwd[k]) - log(ref_weight_total(w_fwd, cand))
        log_q_rev = log(w_rev[k]) - log(ref_weight_total(w_rev, reverse))
        log_q_ratio = log_q_rev - log_q_fwd
    return gp, edge_pair(g.p, k), log_q_ratio


def ref_mh_step(state, rng, *, scorer, weights=None):
    do_delete = rng.random() < 0.5
    moves = state.moves
    proposal = ref_propose(state.graph, moves, weights, do_delete, rng)
    step = state.step_index + 1
    if proposal is not None:
        gp, _, log_q_ratio = proposal
        score = scorer.score(gp)
        log_alpha = score - state.log_score + log_q_ratio
        if rng.random() < (1.0 if log_alpha >= 0.0 else exp(log_alpha)):
            return ChainState(gp, score, step, state.accept_count + 1, moves)
    return ChainState(state.graph, state.log_score, step, state.accept_count, moves)


def ref_chain(stats, hp, mode, n_steps, seed):
    scorer = PosteriorScorer(stats, hp)
    weights = None
    if mode != "add_delete":
        weights = tuple(tuple(w.tolist()) for w in edge_weights(stats))
    by_parity = {"add_delete": (None, None), "data_driven": (weights, weights),
                 "alternate": (None, weights)}[mode]
    rng = np.random.default_rng(seed)
    g = Graph(stats.p)
    state = ChainState(g, scorer.score(g))
    ids, scores = [], []
    for _ in range(n_steps):
        state = ref_mh_step(state, rng, scorer=scorer,
                            weights=by_parity[state.step_index % 2])
        ids.append(state.graph.edges)
        scores.append(state.log_score)
    return ids, scores, state.accept_count, rng.bit_generator.state


def model_stats(p, n, seed):
    """n rows drawn around the covariance of a random decomposable graph."""
    rng = np.random.default_rng([seed, p])
    g = random_decomposable_graph(p, rng)
    sigma = sample_hiw(g, 1.0, 0.03 * np.eye(p), rng)
    rows = rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
    return DatasetStats.from_data(rows, center=True, standardize=True)


@pytest.fixture(scope="module")
def stats_by_p(figure1_stats):
    return {5: model_stats(5, 100, 3), 9: figure1_stats, 25: model_stats(25, 200, 1),
            32: model_stats(32, 200, 1)}


@pytest.mark.parametrize("mode", ["add_delete", "data_driven", "alternate"])
@pytest.mark.parametrize("p,tau,r", [(5, 0.5, 0.5), (9, 0.25, 0.4), (25, 0.5, 0.2),
                                     (32, 0.5, 0.2)])
def test_chain_matches_reference_step(stats_by_p, p, tau, r, mode):
    stats = stats_by_p[p]
    hp = Hyperparams(delta=1.0, tau=tau, r=r)
    want_ids, want_scores, want_accepts, want_rng = ref_chain(stats, hp, mode, 3000, 7)
    rng = np.random.default_rng(7)
    state, log_ = run_chain(Graph(p), 3000, stats, hp, KernelConfig(mode), rng)
    assert log_.graph_ids == want_ids
    assert log_.log_scores == want_scores
    assert state.accept_count == want_accepts
    assert rng.bit_generator.state == want_rng


# ------------------------------------------------------------ bound oracle

def plain_weight_total(weights, mask):
    total = 0.0
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            total += float(weights[k])
    return total


def plain_log_q(weights, k, mask):
    if weights is None:
        return -log(mask.bit_count())
    return log(weights[k]) - log(plain_weight_total(weights, mask))


HYPERPARAMS = (
    Hyperparams(delta=1.0, phi_mode="scaled_identity", tau=0.4, graph_prior="bernoulli",
                r=0.3),
    Hyperparams(delta=2.0, tau=1.5, graph_prior="beta_binomial"),
    Hyperparams(delta=1.0, phi_mode="empirical_gprior", graph_prior="uniform"),
)


def max_bound_excess(graphs, flips, stats, hps=HYPERPARAMS):
    """Largest exact log alpha minus the bound (both net of the forward
    log q), in units of 1 + |score|, over the given flips of each graph,
    both kernels and every hyperparameter set in hps; and the number of
    flips times kernels times hyperparameter sets.  Along the way each
    flip's PosteriorScorer.flip_change must equal the difference of the
    two functional scores within 1e-9 (1 + |score|)."""
    add_w, del_w = edge_weights(stats)
    kernels = (None, weight_tables(stats))
    worst, n = -np.inf, 0
    for hp in hps:
        scorer = PosteriorScorer(stats, hp)
        exact = {}

        def score(edges):
            if edges not in exact:
                exact[edges] = log_posterior_score(Graph(stats.p, edges), stats, hp)
            return exact[edges]

        for g in graphs:
            fresh = Graph(g.p, g.edges)
            for do_delete, k in flips(fresh):
                gp = Graph(g.p, g.edges ^ (1 << k))
                cand = fresh.deletions if do_delete else fresh.additions
                reverse = gp.additions if do_delete else gp.deletions
                change = score(gp.edges) - score(g.edges)
                scale = 1.0 + abs(score(g.edges))
                assert abs(scorer.flip_change(g, k) - change) <= 1e-9 * scale
                for weights in kernels:
                    w_fwd = w_rev = None
                    if weights is not None:
                        w_fwd, w_rev = (del_w, add_w) if do_delete else (add_w, del_w)
                    log_q_fwd = plain_log_q(w_fwd, k, cand)
                    want = change + plain_log_q(w_rev, k, reverse) - log_q_fwd
                    bound = _log_alpha_bound(g, k, do_delete, weights, scorer) - log_q_fwd
                    worst = max(worst, (want - bound) / scale)
                    n += 1
    return worst, n


def all_flips(g):
    for do_delete, mask in ((False, g.additions), (True, g.deletions)):
        for k in range(mask.bit_length()):
            if mask >> k & 1:
                yield do_delete, k


@pytest.mark.parametrize("p", [3, 4, 5])
def test_bound_holds_for_every_flip_of_every_small_graph(p):
    stats = model_stats(p, 40, 11)
    worst, n = max_bound_excess(list(enumerate_decomposable(p)), all_flips, stats)
    assert n > 0
    assert worst <= 1e-9


@pytest.mark.parametrize("p", [25, 32])
def test_bound_holds_on_random_large_graphs(p):
    # The functional score takes tens of milliseconds at p=32, so each graph
    # gets one hyperparameter set, in turn, and three flips per direction.
    stats = model_stats(p, 80, 12)
    rng = np.random.default_rng([12, p])
    graphs = [random_decomposable_graph(p, rng, walk_steps=p * (p - 1) // 2)
              for _ in range(30)]

    def some_flips(g):
        for do_delete, mask in ((False, g.additions), (True, g.deletions)):
            for _ in range(min(3, mask.bit_count())):
                yield do_delete, nth_bit(mask, int(rng.integers(mask.bit_count())))

    found = [max_bound_excess(graphs[i::3], some_flips, stats, (hp,))
             for i, hp in enumerate(HYPERPARAMS)]
    assert sum(n for _, n in found) > 30 * 2 * 3
    assert max(worst for worst, _ in found) <= 1e-9


# ------------------------------------------------ the pre-test's slack

def move_draws(g, k, do_delete, weights):
    """(randoms, ints) for which _draw_move picks slot k of g: the slot's
    rank among the candidates, or a uniform at the middle of its share of
    the running weight, for which WeightSums.draw returns k."""
    cand = g.deletions if do_delete else g.additions
    below = cand & ((1 << k) - 1)
    if weights is None:
        return [], [below.bit_count()]
    table = weights[1 if do_delete else 0]
    before = table.scaled_sum(below)
    through = before + table.scaled_sum(1 << k)
    return [float(Fraction(before + through, 2 * table.scaled_sum(cand)))], []


def tight_flips_accept(stats, hp, mode):
    """Run one step of run_chain for every tight flip of every decomposable
    graph on the vertices of stats: a flip whose bound without slack
    (_log_alpha_bound minus log q(forward)) lies within 1e-12 (1 + |score|)
    of the exact log alpha, with u the largest double below min(1, alpha).
    Returns the number of tight flips, how many of them have a raw bound
    below the exact log alpha, and the flips that the step rejected."""
    scorer = PosteriorScorer(stats, hp)
    weights = weight_tables(stats) if mode == "data_driven" else None
    tight = below = 0
    rejected = []
    for g in enumerate_decomposable(stats.p):
        score = scorer.score(g)
        for do_delete, k in all_flips(g):
            randoms, ints = move_draws(g, k, do_delete, weights)
            drawn, log_q_fwd = _draw_move(g, weights, do_delete, ScriptedRng(randoms, ints))
            assert drawn == k
            gp, log_q_rev = _propose(g, MoveCache(), weights, do_delete, k)
            log_alpha = scorer.score(gp) - score + (log_q_rev - log_q_fwd)
            raw = _log_alpha_bound(g, k, do_delete, weights, scorer) - log_q_fwd
            if abs(raw - log_alpha) > 1e-12 * (1.0 + abs(score)):
                continue
            tight += 1
            below += raw < log_alpha
            u = float(np.nextafter(min(1.0, exp(log_alpha)), 0.0))
            rng = ScriptedRng([0.25 if do_delete else 0.75, *randoms, u], ints)
            state, _ = run_chain(g, 1, stats, hp, KernelConfig(mode), rng)
            assert not rng.randoms and not rng.ints
            if state.accept_count != 1:
                rejected.append((g.edges, do_delete, k, raw - log_alpha))
    return tight, below, rejected


@pytest.mark.parametrize("tau", [0.5, 0.03])
def test_pretest_accepts_tight_flips_at_the_edge_of_alpha(tau):
    # A proposal whose bound is tight to rounding must still reach the exact
    # test: with u just below alpha the step accepts.  A zero or negative
    # BOUND_SLACK rejects some of them, which no seeded chain shows.
    counts = {"tight": 0, "below": 0}
    for p in (3, 4, 5):
        stats = model_stats(p, 100, 3) if p == 5 else model_stats(p, 40, 11)
        for mode in ("add_delete", "data_driven"):
            tight, below, rejected = tight_flips_accept(
                stats, Hyperparams(delta=1.0, tau=tau, r=0.5), mode)
            assert not rejected, (p, mode, len(rejected), rejected[:3])
            counts["tight"] += tight
            counts["below"] += below
    assert counts["tight"] >= 500 and counts["below"] >= 20, counts


# ---------------------------------------------------------- start and memo

@pytest.mark.parametrize("start", ["graph", "state"])
def test_chain_start_searches_once_per_memo_entry(monkeypatch, start):
    # A hand-built state's graph joins its memo, so a return to the start
    # finds the graph searched before.
    import ebggm.graphs as graphs_mod

    calls = []
    orig = graphs_mod.perfect_sequence

    def spy(g, *args, **kwargs):
        calls.append(g.edges)
        return orig(g, *args, **kwargs)

    monkeypatch.setattr(graphs_mod, "perfect_sequence", spy)
    stats = DatasetStats.from_data(np.random.default_rng(4).standard_normal((60, 5)))
    init = Graph(5) if start == "graph" else ChainState(Graph(5), 0.0)
    state, _ = run_chain(init, 2000, stats, Hyperparams(tau=0.5), KernelConfig(),
                         np.random.default_rng(1))
    assert len(calls) == len(state.moves._memo) > 1
    assert Graph(5) in state.moves


def test_memo_holds_looked_up_graphs_only(figure1_stats):
    state, log_ = run_chain(Graph(9), 30000, figure1_stats,
                            Hyperparams(tau=0.25, r=0.4), KernelConfig("alternate"),
                            np.random.default_rng(3))
    assert len(set(log_.graph_ids)) == 3232
    assert state.accept_count == 6782
    assert len(state.moves._memo) <= 3531


@pytest.mark.parametrize("mode", ["add_delete", "data_driven", "alternate"])
@pytest.mark.parametrize("p,tau,r", [(9, 0.25, 0.4), (25, 0.5, 0.2), (32, 0.5, 0.2)])
def test_memo_graphs_match_fresh_graphs(monkeypatch, stats_by_p, p, tau, r, mode):
    # Every proposal new to the memo takes its adjacency from the current
    # graph, so only the start builds one from its edges; the rest of each
    # decomposition follows from it as from a fresh Graph's.  The memo holds
    # every graph the chain visits, and each addition mask, built from the
    # clique sequence, also equals the one found by searching G - S.
    import ebggm.graphs as graphs_mod

    built = []
    orig = graphs_mod._adjacency

    def spy(p_, edges):
        built.append(edges)
        return orig(p_, edges)

    monkeypatch.setattr(graphs_mod, "_adjacency", spy)
    state, log_ = run_chain(Graph(p), 2000, stats_by_p[p], Hyperparams(tau=tau, r=r),
                            KernelConfig(mode), np.random.default_rng(5))
    assert built == [0]
    assert len(state.moves._memo) > 100
    assert all(Graph(p, e) in state.moves for e in log_.graph_ids)
    for g in state.moves._memo:
        fresh = Graph(p, g.edges)
        assert g.adjacency == orig(p, g.edges)
        assert (g.cliques, g.separators) == (fresh.cliques, fresh.separators)
        assert (g.additions, g.deletions) == (fresh.additions, fresh.deletions)
        assert g.additions == search_addition_mask(fresh)


def test_flip_change_rejects_a_slot_out_of_range(figure1_stats):
    # the chain's pre-test reads the pair table without a range check; the
    # public flip_change keeps one, so a negative slot does not wrap round
    scorer = PosteriorScorer(figure1_stats, Hyperparams(tau=0.25, r=0.4))
    g = Graph.from_edge_list(9, [(0, 1), (1, 2)])
    for k in (-1, -2, -g.m, g.m, g.m + 3):
        with pytest.raises(ValueError, match=f"edge index {k} out of range for p=9"):
            scorer.flip_change(g, k)
    for k in (0, 8, g.m - 1):
        assert scorer.flip_change(g, k) == scorer._flip_change(g, k, *edge_pair(9, k))


def test_move_cache_membership():
    moves = MoveCache()
    g = Graph(4, 5)
    assert g not in moves
    assert moves.moves(g) is g
    assert Graph(4, 5) in moves
