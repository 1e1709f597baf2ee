"""Shared fixtures: deterministic datasets and optional classic-data paths."""

import os

import numpy as np
import pytest

from ebggm.hiw import DatasetStats
from ebggm.sampler import MoveCache

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Published correlation structure of a classic 6-variable bone-measurement
# study (n=276); used to synthesize a surrogate dataset with this exact
# sample correlation matrix.  The surrogate is NOT the classic raw data.
BONES_CORR = np.array([
    [1.000, 0.505, 0.569, 0.602, 0.621, 0.603],
    [0.505, 1.000, 0.422, 0.467, 0.482, 0.450],
    [0.569, 0.422, 1.000, 0.926, 0.877, 0.878],
    [0.602, 0.467, 0.926, 1.000, 0.874, 0.894],
    [0.621, 0.482, 0.877, 0.874, 1.000, 0.937],
    [0.603, 0.450, 0.878, 0.894, 0.937, 1.000],
])
BONES_N = 276


def synth_with_scatter(scatter, n, rng):
    """Data matrix with zero column means and exactly this scatter.

    Orthonormalize a random centered matrix and recolor it, so that
    X'X = scatter and each column sums to zero.
    """
    scatter = np.asarray(scatter, dtype=float)
    p = scatter.shape[0]
    left = np.linalg.cholesky(scatter)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q @ left.T


@pytest.fixture(scope="session")
def bones_surrogate():
    """276 x 6 surrogate with the published correlation matrix, exactly."""
    data = synth_with_scatter((BONES_N - 1) * BONES_CORR, BONES_N,
                              np.random.default_rng(20240908))
    return DatasetStats.from_data(data, center=True, standardize=True)


@pytest.fixture(scope="session")
def figure1_stats():
    """The benchmark's figure1 dataset (seed 5, index 0): 100 rows drawn
    around a bench9 covariance, built as perfbench/inputs.py builds it."""
    from ebggm.graphs import bench9_graph
    from ebggm.hiw import sample_hiw

    sigma = sample_hiw(bench9_graph(), 1.0, 0.03 * np.eye(9),
                       np.random.default_rng([0, 0]))
    rows = np.random.default_rng([0, 1, 5, 0]).standard_normal((100, 9))
    return DatasetStats.from_data(rows @ np.linalg.cholesky(sigma).T,
                                  center=True, standardize=True)


def vertex_sets(masks):
    """The vertex sets of a tuple of bitmasks, such as a graph's cliques or
    separators, as frozensets."""
    from ebggm.graphs import iter_bits

    return tuple(frozenset(iter_bits(m)) for m in masks)


def relabeled(g, perm):
    """g with vertex perm[k] renamed k, and the map of a vertex mask of that
    graph back to g's labels."""
    from ebggm.graphs import Graph, iter_bits

    inv = {int(v): k for k, v in enumerate(perm)}
    g_p = Graph.from_edge_list(g.p, [(inv[i], inv[j]) for i, j in g.edge_list()])
    return g_p, lambda mask: sum(1 << int(perm[k]) for k in iter_bits(mask))


def reordered(g, perms, rng):
    """Stand-ins for g that hold its cliques and separators in other orders:
    the perfect sequence of g relabeled by each of perms, mapped back to g's
    labels, then g's own sequence shuffled by rng.  Each stand-in has the p,
    cliques, separators and edge_count that a score and addition_mask read."""
    from types import SimpleNamespace

    orders = []
    for perm in perms:
        g_p, back = relabeled(g, perm)
        orders.append((tuple(map(back, g_p.cliques)), tuple(map(back, g_p.separators))))
    orders.append((tuple(rng.permutation(g.cliques).tolist()),
                   tuple(rng.permutation(g.separators).tolist())))
    return [SimpleNamespace(p=g.p, cliques=cliques, separators=separators,
                            edge_count=g.edge_count) for cliques, separators in orders]


def chain_graphs(p, count):
    """(stats, graphs): 200 rows drawn around a band of overlapping
    6-cliques on p vertices, and count graphs evenly spaced over those that
    a 12,000-step add_delete chain from the empty graph looks up on them
    (tau 0.5, r 0.2)."""
    from ebggm.graphs import Graph, graph_from_cliques
    from ebggm.hiw import Hyperparams, simulate_dataset
    from ebggm.sampler import KernelConfig, run_chain

    rng = np.random.default_rng([29, p])
    model = graph_from_cliques(p, [range(i, min(i + 6, p)) for i in range(0, p - 3, 3)])
    data, _ = simulate_dataset(model, 0.03, 3.0, 200, rng)
    stats = DatasetStats.from_data(data)
    state, _ = run_chain(Graph(p), 12000, stats, Hyperparams(tau=0.5, r=0.2),
                         KernelConfig(), rng)
    looked_up = list(state.moves._memo)
    assert len(looked_up) >= count
    return stats, looked_up[::len(looked_up) // count][:count]


def loop_clique_edge_mask(p, vertices):
    """Reference edge mask of a vertex set, by the loop that
    graphs.clique_edge_mask runs on a cache miss: one row of partner edges
    per vertex of the set."""
    from ebggm.graphs import _row_offsets

    off = _row_offsets(p)
    e = 0
    rest = vertices
    while rest:
        b = rest & -rest
        x = b.bit_length() - 1
        e |= (vertices >> (x + 1)) << off[x]
        rest ^= b
    return e


def search_addition_mask(g):
    """Reference addition mask by search: for each distinct separator S, the
    components of G - S by breadth-first search over the adjacency, and
    every pair of vertices x, y in different components with S + x and
    S + y complete (x in C - S for a clique C holding S)."""
    from ebggm.graphs import _row_offsets

    p, adj, cliques = g.p, g.adjacency, g.cliques
    partner = [0] * p
    for s in set(g.separators):
        joinable = 0
        for c in cliques:
            if c & s == s:
                joinable |= c ^ s
        rest = joinable
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    nxt |= adj[b.bit_length() - 1]
                    frontier ^= b
                frontier = nxt & ~(comp | s)
                comp |= frontier
            rest &= ~comp
            part = joinable & comp
            others = joinable ^ part
            while part:
                b = part & -part
                partner[b.bit_length() - 1] |= others
                part ^= b
    off = _row_offsets(p)
    mask = 0
    for x in range(p - 1):
        if partner[x]:
            mask |= (partner[x] >> (x + 1)) << off[x]
    return mask


class ScriptedRng:
    """Deterministic stand-in for a Generator: pops pre-set draws."""

    def __init__(self, randoms=(), ints=()):
        self.randoms = list(randoms)
        self.ints = list(ints)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, n):
        value = self.ints.pop(0)
        assert 0 <= value < n
        return value


def classic_csv(name):
    """Path of a user-supplied classic dataset, or None if not provided."""
    path = os.path.join(DATA_DIR, name)
    return path if os.path.exists(path) else None


class CountingMoveCache(MoveCache):
    """MoveCache that counts its lookups."""

    calls = 0

    def moves(self, g):
        self.calls += 1
        return super().moves(g)


class MoveLookups:
    """The counting caches made through cache(); per drawn proposal whether
    it was non-null (made), and how many proposals the pre-test passed on
    to the exact test (looked_up), each of which asks the cache once."""

    def __init__(self):
        self.made = []
        self.looked_up = 0
        self.caches = []

    def cache(self):
        self.caches.append(CountingMoveCache())
        return self.caches[-1]


@pytest.fixture()
def move_lookups(monkeypatch):
    """MoveLookups fed by spies on sampler._draw_move (made) and on the
    exact path, sampler._propose (looked_up)."""
    import ebggm.sampler as sampler_mod

    got = MoveLookups()
    draw, propose = sampler_mod._draw_move, sampler_mod._propose

    def spy_draw(*args):
        out = draw(*args)
        got.made.append(out is not None)
        return out

    def spy_propose(*args):
        got.looked_up += 1
        return propose(*args)

    monkeypatch.setattr(sampler_mod, "_draw_move", spy_draw)
    monkeypatch.setattr(sampler_mod, "_propose", spy_propose)
    return got
