"""Tests for the Metropolis-Hastings graph kernels and chain runner."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRng
from ebggm import (
    ChainLog,
    ChainState,
    DatasetStats,
    Graph,
    Hyperparams,
    KernelConfig,
    MoveCache,
    PosteriorScorer,
    SaemConfig,
    bench9_graph,
    edge_index,
    edge_weights,
    enumerate_decomposable,
    legal_additions,
    legal_deletions,
    run_chain,
    run_saem,
    sample_graph_and_sigma,
    simulate_dataset,
    weight_tables,
)
from ebggm.errors import MismatchedModelError, NotDecomposableError
from ebggm.graphs import edge_pair
from ebggm.sampler import WEIGHT_FLOOR, WeightSums, _draw_move, _propose


def move_triples(p, mask):
    """(i, j, edge_index) triples of the set bits of an edge mask, ascending."""
    return tuple((i, j, edge_index(p, i, j)) for i in range(p) for j in range(i + 1, p)
                 if mask >> edge_index(p, i, j) & 1)


def cached_triples(moves, g):
    """(additions, deletions) of g from the cache, as triples."""
    kept = moves.moves(g)
    return move_triples(g.p, kept.additions), move_triples(g.p, kept.deletions)


def make_stats(p, n=40, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
    return DatasetStats.from_data(raw, center=True, standardize=True)


def test_kernel_config_validation():
    KernelConfig(mode="alternate")
    with pytest.raises(ValueError):
        KernelConfig(mode="swap")


def test_uniform_proposal_ratio_from_empty():
    # Empty p=3 graph: 3 legal additions; any single-edge graph has exactly
    # one legal deletion, so the log proposal ratio is log 3 - log 1.
    g = Graph(3, 0)
    moves = MoveCache()
    rng = ScriptedRng(ints=[1])
    k, log_q_fwd = _draw_move(g, None, False, rng)
    gp, log_q_rev = _propose(g, moves, None, False, k)
    i, j = edge_pair(3, k)
    assert gp.edge_count == 1
    assert gp.has_edge(i, j)
    assert (i, j) == (0, 2)  # the second of the three additions
    assert gp is moves.moves(Graph(3, gp.edges))
    assert log_q_rev - log_q_fwd == pytest.approx(math.log(3.0), abs=1e-15)


def test_uniform_proposal_none_without_moves():
    empty, full = Graph(3, 0), Graph.complete(3)
    assert _draw_move(empty, None, True, ScriptedRng()) is None
    assert _draw_move(full, None, False, ScriptedRng()) is None


def test_null_step_counts_as_rejection():
    stats = make_stats(3)
    hp = Hyperparams(delta=1.0, tau=1.0)
    scorer = PosteriorScorer(stats, hp)
    g = Graph(3, 0)
    state = ChainState(g, scorer.score(g))
    # random() = 0.4 forces the delete direction, which is empty here.
    out, _ = run_chain(state, 1, stats, hp, KernelConfig(), ScriptedRng(randoms=[0.4]))
    assert out.graph == g
    assert out.step_index == state.step_index + 1
    assert out.accept_count == state.accept_count

    full = Graph.complete(3)
    state = ChainState(full, scorer.score(full))
    out, _ = run_chain(state, 1, stats, hp, KernelConfig(), ScriptedRng(randoms=[0.6]))
    assert out.graph == full
    assert out.accept_count == state.accept_count


def test_move_cache_matches_fresh_computation():
    rng = np.random.default_rng(3)
    cache = MoveCache()
    for p in (3, 4, 6):
        checked = 0
        for _ in range(20):
            edges = int.from_bytes(rng.bytes(8), "little") & ((1 << (p * (p - 1) // 2)) - 1)
            g = Graph(p, edges)
            try:
                adds, dels = cached_triples(cache, g)
            except NotDecomposableError:
                continue
            checked += 1
            want_adds = tuple((i, j, edge_index(p, i, j)) for i, j in legal_additions(g))
            want_dels = tuple((i, j, edge_index(p, i, j)) for i, j in legal_deletions(g))
            assert adds == want_adds
            assert sorted(dels) == sorted(want_dels)
            # Second lookup hits the memo and returns the identical object.
            assert cache.moves(g) is cache.moves(Graph(p, edges))
        assert checked > 0


def test_graph_builds_its_sequence_once(monkeypatch):
    # Scoring, the HIW draw, its inverse trace, the SAEM statistics and both
    # move masks of one Graph share a single maximum cardinality search; the
    # exhaustive layer runs none, since it scores elimination families, and
    # a memo hit is the graph built before.
    import ebggm.graphs as graphs_mod
    from ebggm import compute_suff_stats, exact_posterior, sample_hiw, sample_hiw_inverse_trace
    from ebggm.graphs import addition_mask, deletion_mask

    calls = []
    orig = graphs_mod.perfect_sequence

    def spy(g, *args, **kwargs):
        calls.append(g.edges)
        return orig(g, *args, **kwargs)

    monkeypatch.setattr(graphs_mod, "perfect_sequence", spy)
    stats = make_stats(4, n=60, seed=3)
    hp = Hyperparams(delta=1.0, tau=0.5)
    scorer = PosteriorScorer(stats, hp)
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
    score = scorer.score(g)
    sigma = sample_hiw(g, 3.0, np.eye(4), np.random.default_rng(4))
    suff = compute_suff_stats(g, sigma)
    s2 = sample_hiw_inverse_trace(g, 3.0, np.eye(4), np.random.default_rng(4))
    assert s2 == pytest.approx(suff[1], rel=1e-12)
    adds, dels = g.additions, g.deletions
    assert calls == [g.edges]
    fresh = Graph(4, g.edges)
    assert (adds, dels) == (addition_mask(fresh), deletion_mask(fresh))
    assert score == scorer.score(fresh)
    assert np.array_equal(suff, compute_suff_stats(fresh, sigma))

    calls.clear()
    table = exact_posterior(stats, hp)
    assert calls == []
    assert len(table.graph_ids) == 61

    moves = MoveCache()
    first = moves.moves(Graph(4, g.edges))
    first.cliques
    calls.clear()
    assert moves.moves(Graph(4, g.edges)) is first
    assert moves.moves(first) is first
    moves.moves(Graph(4, g.edges)).separators
    assert calls == []


def test_move_cache_asked_once_per_proposal_and_start(monkeypatch, move_lookups):
    # The chain state's graph keeps its own moves, so the cache is asked
    # once per chain start and once per proposal the pre-test passes on.
    import ebggm.sampler as sampler_mod
    from ebggm import SaemConfig, run_saem

    monkeypatch.setattr(sampler_mod, "MoveCache", move_lookups.cache)
    made = move_lookups.made
    stats = make_stats(3, n=40, seed=2)
    hp = Hyperparams(delta=1.0, tau=0.5)
    rng = np.random.default_rng(9)
    cfg = KernelConfig(mode="alternate")
    state, _ = run_chain(Graph(3, 0), 300, stats, hp, cfg, rng)
    moves, = move_lookups.caches
    assert state.moves is moves
    assert len(made) == 300 and not all(made)  # p=3 chains hit null proposals
    assert moves.calls == 1 + move_lookups.looked_up
    # A chain resumed from a state, and the HIW draw after it, ask nothing more
    # and keep the state's cache.
    made.clear()
    moves.calls = move_lookups.looked_up = 0
    state, _ = run_chain(state, 50, stats, hp, cfg, rng)
    state, _ = sample_graph_and_sigma(state, stats, hp, 40, rng, cfg)
    assert len(made) == 90
    assert moves.calls == move_lookups.looked_up
    assert state.moves is moves and len(move_lookups.caches) == 1
    # SAEM: one start for the whole fit.
    made.clear()
    move_lookups.looked_up = 0
    run_saem(stats, SaemConfig(n_iter=12, n_unit=4, m_first=20, m_rest=5, n_warm=2),
             Hyperparams(delta=1.0, tau=1.0), rng, kernel=cfg)
    assert len(made) == 2 * 20 + 10 * 5
    assert len(move_lookups.caches) == 2
    assert move_lookups.caches[-1].calls == 1 + move_lookups.looked_up


def test_pretest_rejects_before_the_lookup(monkeypatch, move_lookups, figure1_stats):
    # Most proposals are rejected from the current graph alone, so the
    # cache sees fewer lookups than there are non-null proposals.
    import ebggm.sampler as sampler_mod

    monkeypatch.setattr(sampler_mod, "MoveCache", move_lookups.cache)
    state, _ = run_chain(Graph(9), 2000, figure1_stats, Hyperparams(tau=0.25, r=0.4),
                         KernelConfig(mode="alternate"), np.random.default_rng(4))
    assert len(move_lookups.made) == 2000
    assert state.moves.calls == 1 + move_lookups.looked_up
    assert state.moves.calls < sum(move_lookups.made)


def test_edge_weights_values_and_clamping():
    stats = make_stats(4, n=60, seed=5)
    add_w, del_w = edge_weights(stats)
    k_mat = stats.inv_empirical
    slot = 0
    for i in range(4):
        for j in range(i + 1, 4):
            assert add_w[slot] == pytest.approx(abs(k_mat[i, j]), rel=1e-15)
            assert del_w[slot] == pytest.approx(1.0 / add_w[slot], rel=1e-15)
            slot += 1

    # Bit for bit the per-pair loop in slot order.  K scaled by 1e-14 has
    # every off-diagonal |K_ij| below the floor and K scaled by 1e14 every
    # one above its reciprocal, so weights reach both bounds.
    rng = np.random.default_rng(17)
    bounds = (WEIGHT_FLOOR, 1.0 / WEIGHT_FLOOR)
    for p in (2, 9, 32):
        bounds_hit = set()
        for scale in (1e-14, 1.0, 1e14):
            mags = 10.0 ** rng.uniform(-2.0, 2.0, (p, p))
            off = np.triu(mags * rng.choice([-1.0, 1.0], (p, p)), 1)
            k_want = scale * (off + off.T + np.diag(np.abs(off + off.T).sum(axis=1) + 1.0))
            stats_ = DatasetStats(data=np.zeros((1, p)), scatter=np.linalg.inv(k_want))
            k_mat = stats_.inv_empirical
            add_w, del_w = edge_weights(stats_)
            want = [min(max(abs(float(k_mat[i, j])), bounds[0]), bounds[1])
                    for i in range(p) for j in range(i + 1, p)]
            assert add_w.tolist() == want
            assert del_w.tolist() == [1.0 / w for w in want]
            bounds_hit.update(w for w in want if w in bounds)
        assert bounds_hit == set(bounds)


def set_bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 9, 25, 32]),
       floor=st.floats(min_value=1e-300, max_value=1.0))
def test_weight_sums_are_exact_and_correctly_rounded(data, p, floor):
    # Clamped as edge_weights clamps, with slot 0 at the floor and slot 1
    # at its reciprocal whenever there are two slots.
    m = p * (p - 1) // 2
    raw = data.draw(st.lists(st.floats(min_value=0.0, max_value=1e308),
                             min_size=m, max_size=m))
    raw[:2] = [0.0, np.inf][:m]
    add_w = np.clip(np.array(raw), floor, 1.0 / floor)
    for w in (add_w, 1.0 / add_w):
        table = WeightSums(w)
        for _ in range(5):
            mask = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
            terms = [float(w[k]) for k in set_bits(mask)]
            got = table.scaled_sum(mask)
            assert Fraction(got, table.scale) == sum(map(Fraction, terms))
            assert got / table.scale == math.fsum(terms)


def first_reaching(weights, mask, u):
    """The first slot of mask whose exact running weight reaches u times
    the exact total, or the last slot."""
    slots = set_bits(mask)
    target = Fraction(u) * sum(Fraction(float(weights[k])) for k in slots)
    acc = Fraction(0)
    for k in slots:
        acc += Fraction(float(weights[k]))
        if acc >= target:
            return k
    return slots[-1]


def test_weight_sums_draw_the_first_slot_whose_exact_prefix_reaches_the_target():
    rng = np.random.default_rng(23)
    below_one = float(np.nextafter(1.0, 0.0))
    for p in (2, 3, 9, 25, 32):
        m = p * (p - 1) // 2
        add_w = np.clip(10.0 ** rng.uniform(-9.0, 9.0, m), 1e-6, 1e6)
        # Equal weights put running sums at whole units, where a target
        # rounded down instead of up would pick a slot too early.
        for w in (add_w, 1.0 / add_w, np.ones(m)):
            table = WeightSums(w)
            for _ in range(10):
                dense, *more = (int.from_bytes(rng.bytes(m // 8 + 1), "little")
                                & (1 << m) - 1 for _ in range(3))
                for mask in (dense, dense & more[0] & more[1]):
                    if not mask:
                        continue
                    terms = [float(w[k]) for k in set_bits(mask)]
                    for u in (0.0, below_one, 1.0, 1.5, *rng.random(4).tolist()):
                        k, log_q = table.draw(mask, u)
                        assert k == first_reaching(w, mask, u)
                        assert log_q == math.log(w[k]) - math.log(math.fsum(terms))
                        assert log_q == table.log_q(k, mask)
            # u = 0 takes the lowest slot, whatever its weight.
            assert table.draw((1 << m) - 1, 0.0)[0] == 0


def test_weight_sums_log_q_past_the_float_range():
    # Eight weights near the largest double sum past it; the share of each
    # is still finite.
    table = WeightSums([1e308] * 8)
    assert table.log_q(3, 0xFF) == pytest.approx(-math.log(8.0), rel=1e-15)
    assert table.draw(0xFF, 0.5) == (3, table.log_q(3, 0xFF))


def test_fit_builds_the_weight_tables_once(monkeypatch):
    # One run_saem runs n_iter + 1 chains on the same stats; the weights
    # behind their proposals are computed once.
    import ebggm.saem as saem_mod
    import ebggm.sampler as sampler_mod

    built, chains = [], []
    orig_weights, orig_chain = sampler_mod.edge_weights, sampler_mod.run_chain

    def spy_weights(stats):
        built.append(stats)
        return orig_weights(stats)

    def spy_chain(*args, **kwargs):
        chains.append(args[1])
        return orig_chain(*args, **kwargs)

    monkeypatch.setattr(sampler_mod, "edge_weights", spy_weights)
    monkeypatch.setattr(sampler_mod, "run_chain", spy_chain)
    monkeypatch.setattr(saem_mod, "run_chain", spy_chain)
    stats = make_stats(5, n=60, seed=31)
    run_saem(stats, SaemConfig(), Hyperparams(), np.random.default_rng(2))
    assert len(chains) == SaemConfig().n_iter + 1 == 301
    assert built == [stats]
    assert weight_tables(stats) is weight_tables(stats)
    assert built == [stats]


def exact_transition_matrix(graphs, scorer, moves, kernel, weights):
    """Exact one-step transition matrix of the kernel over all p=3 graphs."""
    index = {g.edges: t for t, g in enumerate(graphs)}
    n = len(graphs)
    mat = np.zeros((n, n))
    for t, g in enumerate(graphs):
        adds, dels = cached_triples(moves, g)
        for do_delete, cand in ((False, adds), (True, dels)):
            if not cand:
                continue
            if kernel == "uniform":
                sel = [1.0 / len(cand)] * len(cand)
            else:
                add_w, del_w = weights
                w_fwd = del_w if do_delete else add_w
                total = sum(w_fwd[k] for _, _, k in cand)
                sel = [w_fwd[k] / total for _, _, k in cand]
            for (i, j, k), q_sel in zip(cand, sel):
                gp = Graph(g.p, g.edges ^ (1 << k))
                padds, pdels = cached_triples(moves, gp)
                reverse = padds if do_delete else pdels
                if kernel == "uniform":
                    log_q = math.log(len(cand)) - math.log(len(reverse))
                else:
                    add_w, del_w = weights
                    w_fwd = del_w if do_delete else add_w
                    w_rev = add_w if do_delete else del_w
                    total_fwd = sum(w_fwd[kk] for _, _, kk in cand)
                    total_rev = sum(w_rev[kk] for _, _, kk in reverse)
                    log_q = (math.log(w_rev[k]) - math.log(total_rev)
                             - math.log(w_fwd[k]) + math.log(total_fwd))
                log_alpha = scorer.score(gp) - scorer.score(g) + log_q
                alpha = min(1.0, math.exp(min(log_alpha, 0.0)) if log_alpha < 0 else 1.0)
                mat[t, index[gp.edges]] += 0.5 * q_sel * alpha
        mat[t, t] = 1.0 - mat[t].sum() + mat[t, t]
    return mat


@pytest.mark.parametrize("kernel", ["uniform", "weighted"])
def test_detailed_balance_exact_p3(kernel):
    stats = make_stats(3, n=50, seed=11)
    # The same data with vertex 2 cut off from 0 and 1 in the scatter: K_02
    # and K_12 are 0, so the floor is the weight of both their additions.
    cut = stats.scatter.copy()
    cut[:2, 2] = cut[2, :2] = 0.0
    floored = DatasetStats(data=stats.data, scatter=cut)
    assert edge_weights(floored)[0].tolist()[1:] == [WEIGHT_FLOOR] * 2
    hp = Hyperparams(delta=1.0, tau=0.8, graph_prior="bernoulli", r=0.4)
    graphs = list(enumerate_decomposable(3))
    assert len(graphs) == 8
    for data in (stats, floored):
        scorer = PosteriorScorer(data, hp)
        scores = np.array([scorer.score(g) for g in graphs])
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        moves = MoveCache()
        weights = edge_weights(data)
        mat = exact_transition_matrix(graphs, scorer, moves, kernel, weights)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-14)
        flux = probs[:, None] * mat
        assert np.max(np.abs(flux - flux.T)) < 1e-15
        # Stationarity follows from detailed balance but check it directly too.
        assert np.max(np.abs(probs @ mat - probs)) < 1e-15
    # The floor keeps every graph reachable from every other.
    assert np.all(np.linalg.matrix_power(mat, 8) > 0)


def test_weighted_proposal_log_ratio_matches_hand_computation():
    stats = make_stats(3, n=50, seed=2)
    weights = weight_tables(stats)
    add_w, del_w = edge_weights(stats)
    g = Graph(3, 0)
    moves = MoveCache()
    # Force the first candidate whose cumulative weight exceeds the target.
    rng = ScriptedRng(randoms=[0.0])
    k, log_q_fwd = _draw_move(g, weights, False, rng)
    gp, log_q_rev = _propose(g, moves, weights, False, k)
    log_q = log_q_rev - log_q_fwd
    assert gp is moves.moves(Graph(3, gp.edges))
    assert k == 0
    total_fwd = sum(add_w)
    # From a one-edge graph the only deletion is that edge.
    want = (math.log(del_w[k]) - math.log(del_w[k])
            - math.log(add_w[k]) + math.log(total_fwd))
    assert log_q == pytest.approx(want, rel=1e-14)


def test_run_chain_is_deterministic():
    stats = make_stats(4, n=45, seed=7)
    hp = Hyperparams(delta=1.0, tau=0.5)
    cfg = KernelConfig(mode="alternate")
    out = []
    for _ in range(2):
        rng = np.random.default_rng(12345)
        state, log = run_chain(Graph(4, 0), 400, stats, hp, cfg, rng)
        out.append((state, log))
    (s1, l1), (s2, l2) = out
    assert s1 == s2
    assert l1.graph_ids == l2.graph_ids
    assert np.array_equal(l1.accepted, l2.accepted)
    assert [g.bit_count() for g in l1.graph_ids] == [g.bit_count() for g in l2.graph_ids]
    assert np.allclose(l1.log_scores, l2.log_scores, rtol=0, atol=0)


def test_run_chain_log_shapes_and_consistency():
    stats = make_stats(3, n=30, seed=9)
    hp = Hyperparams(delta=1.0, tau=1.0)
    rng = np.random.default_rng(0)
    state, log = run_chain(Graph(3, 0), 250, stats, hp, KernelConfig(), rng)
    assert len(log) == 250
    assert log.p == 3
    assert state.step_index == 250
    assert log.steps[-1] == 250
    assert log.graph_ids[-1] == state.graph.edges
    assert state.accept_count == int(log.accepted.sum())
    # Every logged state change coincides with an accepted step.
    ids = np.array(log.graph_ids)
    changed = ids[1:] != ids[:-1]
    assert np.all(log.accepted[1:][changed])
    scorer = PosteriorScorer(stats, hp)
    for t in (0, 100, 249):
        assert log.log_scores[t] == pytest.approx(
            scorer.score(Graph(3, log.graph_ids[t])), rel=1e-12)


def test_run_chain_resumes_from_state():
    stats = make_stats(3, n=30, seed=4)
    hp = Hyperparams(delta=1.0, tau=1.0)
    cfg = KernelConfig()
    rng = np.random.default_rng(5)
    state, _ = run_chain(Graph(3, 0), 50, stats, hp, cfg, rng)
    resumed, log = run_chain(state, 25, stats, hp, cfg, rng)
    assert resumed.step_index == 75
    assert len(log) == 25
    assert resumed.accept_count >= state.accept_count


def test_resumed_chain_scores_its_start_under_new_hyperparameters(figure1_stats):
    # A state reached under one tau and resumed under another behaves as if
    # its score had been recomputed first; its memo, parity and counts carry on.
    stats = figure1_stats
    cfg = KernelConfig(mode="alternate")
    state, _ = run_chain(Graph(9), 2000, stats, Hyperparams(delta=1.0, tau=0.25), cfg,
                         np.random.default_rng(1))
    hp_new = Hyperparams(delta=1.0, tau=0.01)
    rescored = replace(state, log_score=PosteriorScorer(stats, hp_new).score(state.graph))
    assert rescored.log_score != state.log_score
    resumed, log = run_chain(state, 3000, stats, hp_new, cfg, np.random.default_rng(2))
    _, want = run_chain(rescored, 3000, stats, hp_new, cfg, np.random.default_rng(2))
    assert log.graph_ids == want.graph_ids
    assert log.log_scores == want.log_scores
    assert resumed.moves is state.moves
    assert resumed.step_index == 5000
    assert resumed.accept_count == state.accept_count + int(log.accepted.sum())
    # A zero-step run only rescores.
    same, empty = run_chain(state, 0, stats, hp_new, cfg, np.random.default_rng(3))
    assert same == rescored and len(empty) == 0


def test_chain_log_acceptance_helpers():
    log = ChainLog(p=2, start_step=0, start_id=0, graph_ids=[1, 1, 0, 1],
                   log_scores=[0.0] * 4)
    assert np.array_equal(log.accepted, [True, False, True, True])
    assert np.allclose(log.running_acceptance(), [1.0, 0.5, 2.0 / 3.0, 0.75])
    assert log.acceptance_rate() == pytest.approx(0.75)
    empty = ChainLog(p=2, start_step=0, start_id=0, graph_ids=[], log_scores=[])
    assert empty.acceptance_rate() == 0.0


def test_alternate_kernel_switches_by_parity():
    # A run of 300 steps is 300 one-step runs under each kernel, and under
    # alternate it is also a hand loop of one-step runs that proposes
    # uniformly (add_delete) from an even step_index and by the weight
    # tables (data_driven) from an odd one: the same graphs, scores,
    # accepts, memo and generator state, whether the chain starts at an
    # even or an odd step.
    stats = make_stats(4, n=40, seed=1)
    hp = Hyperparams(delta=1.0, tau=0.5)
    g = Graph(4, 0)
    by_parity = (KernelConfig("add_delete"), KernelConfig("data_driven"))
    loops = [(mode, lambda i, mode=mode: KernelConfig(mode))
             for mode in ("add_delete", "data_driven", "alternate")]
    loops.append(("alternate", lambda i: by_parity[i % 2]))
    for mode, kernel_at in loops:
        for step_index in (0, 1):
            rng = np.random.default_rng(2)
            state, ids, scores = ChainState(g, 0.0, step_index=step_index), [], []
            for _ in range(300):
                state, log = run_chain(state, 1, stats, hp,
                                       kernel_at(state.step_index), rng)
                ids += log.graph_ids
                scores += log.log_scores
            chain_rng = np.random.default_rng(2)
            got, log = run_chain(ChainState(g, 0.0, step_index=step_index), 300,
                                 stats, hp, KernelConfig(mode), chain_rng)
            assert log.graph_ids == ids and log.log_scores == scores
            assert got.step_index == state.step_index == step_index + 300
            assert got.accept_count == state.accept_count > 0
            assert len(got.moves._memo) == len(state.moves._memo)
            assert chain_rng.bit_generator.state == rng.bit_generator.state


def test_chain_rejects_a_graph_of_another_p(figure1_stats):
    # Both used to fail deep in the step with a bare IndexError.
    hp = Hyperparams(tau=0.25, r=0.4)
    for p in (5, 12):
        with pytest.raises(MismatchedModelError, match=f"p={p}, data have p=9"):
            run_chain(Graph(p), 200, figure1_stats, hp, KernelConfig("alternate"),
                      np.random.default_rng(0))
        rng = np.random.default_rng(0)
        state = ChainState(Graph(p), 0.0)
        with pytest.raises(MismatchedModelError, match=f"p={p}, data have p=9"):
            run_chain(state, 1, figure1_stats, hp, KernelConfig(), rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    # A resumed memo stays clean: the start is scored, and refused, before
    # it could join the memo.
    filled, _ = run_chain(bench9_graph(), 10, figure1_stats, hp, KernelConfig("alternate"),
                          np.random.default_rng(1))
    before = len(filled.moves._memo)
    assert before > 1
    with pytest.raises(MismatchedModelError, match="p=5, data have p=9"):
        run_chain(ChainState(Graph(5), 0.0, moves=filled.moves), 10, figure1_stats, hp,
                  KernelConfig("alternate"), np.random.default_rng(2))
    assert len(filled.moves._memo) == before
    assert Graph(5) not in filled.moves


def test_move_memo_keeps_two_bounded_generations(monkeypatch, figure1_stats):
    import ebggm.sampler as sampler_mod

    hp, cfg = Hyperparams(tau=0.25, r=0.4), KernelConfig("alternate")
    want_rng = np.random.default_rng(5)
    want, want_log = run_chain(Graph(9), 3000, figure1_stats, hp, cfg, want_rng)
    assert len(want.moves._memo) > 128
    monkeypatch.setattr(sampler_mod, "MOVE_MEMO_SIZE", 64)
    moves = MoveCache()
    first = [moves.moves(Graph(9, e)) for e in range(65)]  # the 65th turns it over
    assert len(moves._memo) == 1 and len(moves._old) == 64
    assert moves.moves(Graph(9, 0)) is first[0] and Graph(9, 0) not in moves._old
    for e in range(100, 163):
        moves.moves(Graph(9, e))
    assert Graph(9, 1) not in moves and moves.moves(Graph(9, 1)) is not first[1]
    # A chain cannot tell a dropped graph from one it kept: ten resumes at
    # a bound of 64 match the one run above at the default bound.
    rng, state, ids, scores = np.random.default_rng(5), Graph(9), [], []
    for _ in range(10):
        state, log = run_chain(state, 300, figure1_stats, hp, cfg, rng)
        ids += log.graph_ids
        scores += log.log_scores
        assert len(state.moves._memo) <= 64
        assert len(state.moves._memo) + len(state.moves._old) <= 128
    assert ids == want_log.graph_ids and scores == want_log.log_scores
    assert state.accept_count == want.accept_count
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_data_driven_step_runs_and_moves():
    stats = make_stats(4, n=60, seed=8)
    hp = Hyperparams(delta=1.0, tau=0.5)
    scorer = PosteriorScorer(stats, hp)
    g = Graph(4, 0)
    state = ChainState(g, scorer.score(g))
    rng = np.random.default_rng(17)
    seen = {g.edges}
    for _ in range(200):
        state, _ = run_chain(state, 1, stats, hp, KernelConfig("data_driven"), rng)
        seen.add(state.graph.edges)
    assert state.step_index == 200
    assert len(seen) > 1


def test_chain_matches_exact_posterior_smoke():
    from ebggm import exact_posterior

    stats = make_stats(3, n=40, seed=21)
    hp = Hyperparams(delta=1.0, tau=1.0, graph_prior="bernoulli", r=0.5)
    table = exact_posterior(stats, hp)
    rng = np.random.default_rng(100)
    _, log = run_chain(Graph(3, 0), 40000, stats, hp, KernelConfig(), rng)
    counts = {}
    for gid in log.graph_ids[2000:]:
        counts[gid] = counts.get(gid, 0) + 1
    total = sum(counts.values())
    tv = 0.0
    for gid, prob in zip(table.graph_ids, table.probs):
        tv += abs(counts.get(gid, 0) / total - prob)
    assert 0.5 * tv < 0.03


def test_sample_graph_and_sigma_advances_and_respects_graph():
    stats = make_stats(4, n=80, seed=30)
    hp = Hyperparams(delta=1.0, tau=1.0)
    scorer = PosteriorScorer(stats, hp)
    g = Graph.from_edge_list(4, [(0, 1), (1, 2)])
    state = ChainState(g, scorer.score(g))
    rng = np.random.default_rng(41)
    new_state, sigma = sample_graph_and_sigma(state, stats, hp, 30, rng,
                                              KernelConfig())
    assert new_state.step_index == 30
    assert sigma.shape == (4, 4)
    assert np.allclose(sigma, sigma.T)
    assert np.all(np.linalg.eigvalsh(sigma) > 0)
    # Zero M leaves the graph alone; the draw obeys that graph's zeros.
    rng = np.random.default_rng(42)
    same_state, sigma = sample_graph_and_sigma(state, stats, hp, 0, rng,
                                               KernelConfig())
    assert same_state.graph == g
    prec = np.linalg.inv(sigma)
    scale = np.max(np.abs(prec))
    for i in range(4):
        for j in range(i + 1, 4):
            if not g.has_edge(i, j):
                assert abs(prec[i, j]) / scale < 1e-8


def test_sample_graph_and_sigma_deterministic():
    stats = make_stats(3, n=50, seed=6)
    hp = Hyperparams(delta=2.0, tau=0.7)
    scorer = PosteriorScorer(stats, hp)
    g = Graph(3, 0)
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        state = ChainState(g, scorer.score(g))
        state, sigma = sample_graph_and_sigma(state, stats, hp, 20, rng,
                                              KernelConfig())
        draws.append((state.graph.edges, sigma))
    assert draws[0][0] == draws[1][0]
    assert np.array_equal(draws[0][1], draws[1][1])


def test_simulated_dataset_round_trip_through_kernel():
    # End-to-end smoke: simulate from a known graph, run the alternate
    # kernel, and confirm the chain concentrates on decent-scoring graphs.
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    rng = np.random.default_rng(55)
    raw, _ = simulate_dataset(g, tau=1.0, delta=3.0, n=200, rng=rng)
    stats = DatasetStats.from_data(raw, center=True, standardize=True)
    hp = Hyperparams(delta=1.0, tau=0.5)
    state, log = run_chain(Graph(4, 0), 5000, stats, hp,
                           KernelConfig(mode="alternate"),
                           np.random.default_rng(56))
    scorer = PosteriorScorer(stats, hp)
    assert log.acceptance_rate() > 0.01
    assert state.log_score >= scorer.score(Graph(4, 0))
