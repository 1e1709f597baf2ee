"""Graph representation, chordality, cliques and separators, and legal moves."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_graphs, loop_clique_edge_mask, relabeled, reordered, \
    search_addition_mask, vertex_sets
import ebggm.graphs as graphs_mod
from ebggm.errors import NotDecomposableError, TooLargeError
from ebggm.graphs import (
    BENCH9_CLIQUES,
    Graph,
    addition_mask,
    bench9_graph,
    clique_edge_mask,
    count_decomposable,
    deletion_mask,
    edge_index,
    edge_pair,
    enumerate_decomposable,
    graph_from_cliques,
    is_decomposable,
    legal_additions,
    legal_deletions,
    n_candidate_edges,
    named_graph,
    nth_bit,
    perfect_sequence,
    random_decomposable_graph,
    to_dot,
)


def all_graphs(p):
    for edges in range(1 << n_candidate_edges(p)):
        yield Graph(p, edges)


def test_edge_index_pair_roundtrip():
    for p in (2, 3, 5, 9, 12):
        seen = set()
        for i in range(p):
            for j in range(i + 1, p):
                k = edge_index(p, i, j)
                assert edge_pair(p, k) == (i, j)
                seen.add(k)
        assert seen == set(range(n_candidate_edges(p)))


def test_edge_index_is_lexicographic():
    # (0,1) is slot 0, then (0,2), ..., (0,p-1), (1,2), ...
    assert edge_index(4, 0, 1) == 0
    assert edge_index(4, 0, 2) == 1
    assert edge_index(4, 0, 3) == 2
    assert edge_index(4, 1, 2) == 3
    assert edge_index(4, 2, 3) == 5


def test_edge_index_reads_a_vertex_pair_in_either_order_as_integers():
    for p in (2, 5, 9):
        for i in range(p):
            for j in range(i + 1, p):
                k = edge_index(p, i, j)
                assert edge_index(p, j, i) == edge_index(p, np.int64(j), np.uint8(i)) == k
                assert type(edge_index(p, np.int64(j), i)) is int
    for args in [(5, 0.5, 1), (5, 1, 2.0), (5, np.float64(3), 0)]:
        with pytest.raises(TypeError):
            edge_index(*args)
    for args, pair in [((5, 0, 5), "(0, 5)"), ((5, 2, -1), "(-1, 2)"), ((5, 3, 3), "(3, 3)")]:
        with pytest.raises(ValueError, match=re.escape(f"two distinct vertices in 0..4, got {pair}")):
            edge_index(*args)


def test_graph_vertex_pairs_are_read_by_edge_index():
    g = Graph(4).add_edge(3, 0).add_edge(np.int64(2), 1)
    assert g == Graph.from_edge_list(4, [(0, 3), (1, 2)]) == Graph.from_edge_list(4, [(3, 0), (2, 1)])
    assert g.has_edge(0, 3) and g.has_edge(3, 0) and g.has_edge(np.uint8(1), 2)
    assert g.remove_edge(3, 0) == Graph.from_edge_list(4, [(1, 2)])
    for h in (Graph(4), g, Graph.complete(4)):
        assert not any(h.has_edge(v, v) for v in range(4))
        for v, w in [(40, 40), (-1, -1), (4, 4), (-1, 3), (0, 4)]:
            with pytest.raises(ValueError, match=re.escape(f"got {(min(v, w), max(v, w))}")):
                h.has_edge(v, w)
    for call in (g.has_edge, g.add_edge, g.remove_edge):
        with pytest.raises(TypeError):
            call(0.5, 1)
    for call in (g.add_edge, g.remove_edge):
        with pytest.raises(ValueError, match=r"got \(2, 2\)"):
            call(2, 2)
    with pytest.raises(TypeError) as info:
        Graph.from_edge_list(5, [(0.5, 1)])
    assert info.traceback[-1].name == "edge_index"


def test_clique_edge_mask():
    rng = np.random.default_rng(6)
    for p in (1, 2, 5, 32):
        for _ in range(10):
            vertices = int(rng.integers(1 << p))
            want = 0
            for i in range(p):
                for j in range(i + 1, p):
                    if vertices >> i & vertices >> j & 1:
                        want |= 1 << edge_index(p, i, j)
            assert clique_edge_mask(p, vertices) == want


def test_cached_clique_edge_mask_matches_the_loop():
    # every vertex set at p <= 10, then at p=32 once the bounded cache has
    # dropped more sets than it holds
    for p in range(1, 11):
        for vertices in range(1 << p):
            assert clique_edge_mask(p, vertices) == loop_clique_edge_mask(p, vertices)
    size = graphs_mod.EDGE_MASK_CACHE_SIZE
    first = [0x9E3779B9 * v & 0xFFFFFFFF for v in range(1, 2 * size + 2)]
    assert len(set(first)) == len(first)
    for vertices in first:
        assert clique_edge_mask(32, vertices) == loop_clique_edge_mask(32, vertices)
    info = clique_edge_mask.cache_info()
    assert info.maxsize == size and info.currsize == size
    rng = np.random.default_rng(22)
    for vertices in [*first[:size], *rng.integers(1 << 32, size=2000).tolist()]:
        assert clique_edge_mask(32, vertices) == loop_clique_edge_mask(32, vertices)
    assert clique_edge_mask.cache_info().currsize == size


def test_graph_id_hex_roundtrip():
    rng = np.random.default_rng(1)
    for p in (2, 4, 5, 9, 12):
        m = n_candidate_edges(p)
        for _ in range(20):
            edges = int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)
            g = Graph(p, edges)
            assert len(g.id_hex) == (g.m + 3) // 4
            assert Graph.from_id(p, g.id_hex) == g


def test_graph_edge_ops():
    g = Graph(4).add_edge(0, 1).add_edge(2, 3)
    assert g.has_edge(0, 1) and g.has_edge(2, 3) and not g.has_edge(0, 2)
    assert g.edge_count == 2
    assert sorted(g.edge_list()) == [(0, 1), (2, 3)]
    assert g.remove_edge(2, 3).edge_list() == [(0, 1)]
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)
    assert g.adjacency[0] == 0b10


def test_graph_takes_integers_only():
    # a float is refused, not truncated; numpy integers become plain ints
    for args in [(3.7,), (4, 2.9), (4, 2.0), (32, float(2**100 + 1)), (np.float64(4),)]:
        with pytest.raises(TypeError):
            Graph(*args)
    g = Graph(np.int64(9), np.uint32(5))
    assert (type(g.p), type(g.edges)) == (int, int) and g == Graph(9, 5)


@pytest.mark.parametrize("p,n_flips,seed", [(9, 2000, 47), (25, 2000, 48), (32, 10_000, 49)])
def test_flip_replay_matches_fresh_graphs(p, n_flips, seed):
    # A walk of random legal flips, each graph made by flip from the one
    # before, so its adjacency is inherited and never built from the edges.
    rng = np.random.default_rng(seed)
    g = Graph(p)
    for _ in range(n_flips):
        cand = g.additions if rng.random() < 0.5 else g.deletions
        if not cand:
            continue
        k = nth_bit(cand, int(rng.integers(cand.bit_count())))
        i, j = edge_pair(p, k)
        gp, fresh = g.flip(k), Graph(p, g.edges ^ 1 << k)
        assert gp == fresh and gp.adjacency == fresh.adjacency
        assert (gp.cliques, gp.separators) == (fresh.cliques, fresh.separators)
        assert (gp.additions, gp.deletions) == (fresh.additions, fresh.deletions)
        back = gp.flip(k)
        assert back == g and back.adjacency == g.adjacency
        edit = g.remove_edge if g.edges >> k & 1 else g.add_edge
        for h in (edit(i, j), edit(j, i)):
            assert h == gp and h.adjacency == gp.adjacency
        g = gp
    assert g.edge_count > 0


def test_flip_takes_a_numpy_slot():
    # 1 << np.int64(k) shifts in 64 bits: 0 for k >= 64, and an overflow
    # against an edge bitset past 2**63
    g = Graph.complete(32)
    for k in (0, 63, 64, 70, 495):
        for slot in (np.int64(k), np.uint16(k)):
            h = g.flip(slot)
            assert h == g.flip(k) and type(h.edges) is int
            assert h.adjacency == Graph(32, h.edges).adjacency


@pytest.mark.parametrize("p", [1, 2, 9, 32])
def test_flip_rejects_a_slot_out_of_range(p):
    m = n_candidate_edges(p)
    for k in (-1, -2, -m - 1, m, m + 3):
        with pytest.raises(ValueError, match=f"edge index {k} out of range for p={p}"):
            Graph.complete(p).flip(k)


def test_graph_keeps_decomposition_outside_identity():
    import copy
    import dataclasses
    import pickle

    g = bench9_graph()
    fresh = Graph(9, g.edges)
    for built in (False, True):
        if built:
            assert (g.cliques, g.separators, g.additions, g.deletions) == (
                *perfect_sequence(fresh), addition_mask(fresh), deletion_mask(fresh))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g
            assert (twin.cliques, twin.separators) == perfect_sequence(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = 0
    cycle = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for name in ("cliques", "separators", "additions", "deletions"):
        with pytest.raises(NotDecomposableError):
            getattr(cycle, name)


DERIVED = ("adjacency", "cliques", "separators", "additions", "deletions")


def test_derived_slots_are_filled_on_first_read_and_kept(monkeypatch):
    # Each is a plain slot, not a property; one __getattr__ fills it on the
    # first read, calling the module's builder as bound at that moment.
    for name in DERIVED:
        assert type(Graph.__dict__[name]).__name__ == "member_descriptor"
    searched = []
    search = graphs_mod.perfect_sequence
    monkeypatch.setattr(graphs_mod, "perfect_sequence",
                        lambda g: searched.append(g) or search(g))
    g = bench9_graph()
    for name in DERIVED:
        with pytest.raises(AttributeError):
            object.__getattribute__(g, name)
    first = [getattr(g, name) for name in DERIVED]
    assert all(getattr(g, name) is built for name, built in zip(DERIVED, first))
    assert searched == [g]
    adjacency = tuple(sum(1 << u for u in range(9) if g.has_edge(u, v)) for v in range(9))
    assert first == [adjacency, *search(g), addition_mask(g), deletion_mask(g)]
    assert not hasattr(g, "nope")
    with pytest.raises(AttributeError, match="nope"):
        g.nope


@pytest.mark.parametrize("first", ["cliques", "separators", "is_decomposable"])
def test_cliques_and_separators_share_one_search(monkeypatch, first):
    # Whichever is read first, one search fills both slots, and the search
    # is_decomposable runs is the one the graph keeps.
    searched = []
    search = graphs_mod.perfect_sequence
    monkeypatch.setattr(graphs_mod, "perfect_sequence",
                        lambda g: searched.append(g) or search(g))
    g = bench9_graph()
    if first == "is_decomposable":
        assert is_decomposable(g)
    else:
        getattr(g, first)
    assert (g.cliques, g.separators) == search(Graph(9, g.edges))
    assert is_decomposable(g)
    assert searched == [g]


def test_non_chordal_graph_raises_on_every_read():
    cycle = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cycle.adjacency == (0b1010, 0b0101, 0b1010, 0b0101)
    for _ in range(2):
        assert not is_decomposable(cycle)
        for name in DERIVED[1:]:
            with pytest.raises(NotDecomposableError):
                getattr(cycle, name)
            with pytest.raises(AttributeError):
                object.__getattribute__(cycle, name)


def test_copies_rebuild_derived_slots_on_read():
    import copy
    import pickle

    g = bench9_graph()
    built = [getattr(g, name) for name in DERIVED]
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin is not g
        for name in DERIVED:
            with pytest.raises(AttributeError):
                object.__getattribute__(twin, name)
        assert [getattr(twin, name) for name in DERIVED] == built


def test_complete_and_empty():
    assert Graph.complete(5).edge_count == 10
    assert Graph(5).edge_count == 0
    assert is_decomposable(Graph.complete(6))
    assert is_decomposable(Graph(6))


def test_chordality_known_cases():
    square = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_decomposable(square)
    assert is_decomposable(square.add_edge(0, 2))
    five_cycle = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert not is_decomposable(five_cycle)
    triangle_plus_isolated = graph_from_cliques(5, [(0, 1, 2)])
    assert is_decomposable(triangle_plus_isolated)


def test_every_p3_graph_is_decomposable():
    assert all(is_decomposable(g) for g in all_graphs(3))


def test_graph_from_cliques():
    g = graph_from_cliques(4, [(0, 1, 2), (2, 3)])
    assert sorted(g.edge_list()) == [(0, 1), (0, 2), (1, 2), (2, 3)]


@pytest.mark.parametrize("p, cliques", [
    (9, BENCH9_CLIQUES),
    (6, [(2, 0, 2, 1), (3,), (4, 4), (5, 3, 5), ()]),
    (5, [(0,), (1,), (4,)]),
    (32, [tuple(range(0, 32, 3)), (31, 30, 31), (7,)]),
])
def test_graph_from_cliques_is_the_pairwise_union(p, cliques):
    edges = 0
    for c in cliques:
        for i in set(c):
            for j in set(c):
                if i < j:
                    edges |= 1 << edge_index(p, i, j)
    assert graph_from_cliques(p, cliques) == Graph(p, edges)


def test_graph_from_cliques_reads_each_vertex_as_an_index():
    cliques = [np.arange(28, 32), np.array([0, 5, 9], np.uint8), (np.int32(3), 4)]
    g = graph_from_cliques(32, cliques)
    assert g == graph_from_cliques(32, [[int(v) for v in c] for c in cliques])
    assert g.edge_count == 6 + 3 + 1 and type(g.edges) is int
    assert graph_from_cliques(np.int64(5), [np.arange(5)]) == Graph.complete(5)
    # a rejected call caches no mask, not even one of a clique before the bad one
    clique_edge_mask.cache_clear()
    for cliques, error, match in [
        ([(0, 1), (2, 32)], ValueError, "clique vertex 32 out of range for p=32"),
        ([(0, 1), (np.int64(40),)], ValueError, "clique vertex 40 out of range for p=32"),
        ([(0, -1)], ValueError, "clique vertex -1 out of range for p=32"),
        ([(0, 1), (0, 1.0)], TypeError, "float"),
        ([(0, np.float64(2))], TypeError, "float"),
    ]:
        with pytest.raises(error, match=match):
            graph_from_cliques(32, cliques)
    assert clique_edge_mask.cache_info().currsize == 0


def test_bench9_structure():
    g = bench9_graph()
    assert g.p == 9
    assert g.edge_count == 17
    cliques, separators = map(vertex_sets, perfect_sequence(g))
    assert sorted(tuple(sorted(c)) for c in cliques) == \
        [(0, 1, 2), (1, 2, 4, 5), (1, 3, 4), (4, 5, 6), (5, 6, 7, 8)]
    seps = sorted(tuple(sorted(s)) for s in separators)
    assert seps == [(1, 2), (1, 4), (4, 5), (5, 6)]
    sizes_c = sum(len(c) for c in cliques)
    sizes_s = sum(len(s) for s in separators)
    assert sizes_c - sizes_s == g.p
    s1 = sum(len(c) ** 2 for c in cliques) - sum(len(s) ** 2 for s in separators)
    assert s1 == 43


def test_perfect_sequence_rejects_nonchordal():
    square = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotDecomposableError):
        perfect_sequence(square)


def test_perfect_sequence_masks_are_maximal_cliques_and_running_separators():
    # Checked against the graph's edges alone: each clique mask is complete
    # and maximal, and each separator is the clique's meet with the union of
    # the cliques before it.
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_decomposable_graph(6, rng)
        nbrs = [sum(1 << u for u in range(g.p) if g.has_edge(u, v)) for v in range(g.p)]
        cliques, separators = perfect_sequence(g)
        assert len(separators) == len(cliques) - 1
        earlier = 0
        for idx, clique in enumerate(cliques):
            inside = [v for v in range(g.p) if clique >> v & 1]
            assert all(clique & ~nbrs[v] == 1 << v for v in inside)
            assert all(clique & ~nbrs[v] for v in range(g.p) if v not in inside)
            if idx:
                assert separators[idx - 1] == clique & earlier
            earlier |= clique
        assert earlier == (1 << g.p) - 1


def test_clique_sizes_telescope_to_p():
    for p in (2, 3, 4, 5):
        for g in all_graphs(p):
            if not is_decomposable(g):
                continue
            assert (sum(c.bit_count() for c in g.cliques)
                    - sum(s.bit_count() for s in g.separators)) == p


def test_separator_multiset_invariant_under_tie_breaking():
    # A relabeling changes which tied vertex the search takes first, so
    # mapped back its cliques are another perfect order of g: the same
    # cliques, running separators, and the same separator multiset.
    rng = np.random.default_rng(11)
    varied = 0
    for _ in range(40):
        g = random_decomposable_graph(7, rng)
        orders = {g.cliques}
        for _ in range(5):
            g_p, back = relabeled(g, rng.permutation(7))
            cliques, separators = tuple(map(back, g_p.cliques)), tuple(map(back, g_p.separators))
            assert sorted(cliques) == sorted(g.cliques)
            assert sorted(separators) == sorted(g.separators)
            seen = cliques[0]
            for c, sep in zip(cliques[1:], separators):
                assert sep == c & seen
                seen |= c
            orders.add(cliques)
        varied += len(orders) > 1
    assert varied > 20, varied


def test_histories_contain_separators():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_decomposable_graph(7, rng)
        # Running intersection: each separator lies in one earlier clique.
        for i, sep_mask in enumerate(g.separators, start=1):
            assert any(sep_mask & ~c == 0 for c in g.cliques[:i])


def oracle_additions(g):
    out = []
    for i in range(g.p):
        for j in range(i + 1, g.p):
            if not g.has_edge(i, j) and is_decomposable(g.add_edge(i, j)):
                out.append((i, j))
    return out


def oracle_deletions(g):
    return [(i, j) for i, j in g.edge_list()
            if is_decomposable(g.remove_edge(i, j))]


def test_legal_moves_match_oracle_exhaustive_p4():
    for g in all_graphs(4):
        if not is_decomposable(g):
            continue
        assert sorted(legal_additions(g)) == oracle_additions(g)
        assert sorted(legal_deletions(g)) == oracle_deletions(g)


@pytest.mark.parametrize("p,n_graphs,seed", [(5, 80, 21), (6, 80, 22), (10, 40, 23)])
def test_legal_moves_match_oracle_random(p, n_graphs, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_graphs):
        g = random_decomposable_graph(p, rng)
        assert sorted(legal_additions(g)) == oracle_additions(g)
        assert sorted(legal_deletions(g)) == oracle_deletions(g)


def networkx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.p))
    h.add_edges_from(g.edge_list())
    return h


def oracle_graphs(p, seed, n_graphs):
    """Empty, complete (p <= 16), and seeded random decomposable graphs."""
    rng = np.random.default_rng(seed)
    yield Graph(p)
    if p <= 16:
        yield Graph.complete(p)
    for _ in range(n_graphs):
        yield random_decomposable_graph(p, rng)


# These oracles go through networkx alone, so they share no code with the
# maximum cardinality search and separator logic they check.
@pytest.mark.parametrize("p,n_graphs,seed", [(9, 12, 31), (16, 6, 32), (25, 4, 33), (32, 3, 34)])
def test_move_masks_match_networkx_chordality(p, n_graphs, seed):
    nx = pytest.importorskip("networkx")
    for g in oracle_graphs(p, seed, n_graphs):
        h = networkx_graph(nx, g)
        assert nx.is_chordal(h)
        adds, dels = addition_mask(g), deletion_mask(g)
        for k in range(g.m):
            i, j = edge_pair(p, k)
            present = bool(g.edges >> k & 1)
            if present:
                h.remove_edge(i, j)
            else:
                h.add_edge(i, j)
            legal = nx.is_chordal(h)
            if present:
                h.add_edge(i, j)
                assert legal == bool(dels >> k & 1), (g, i, j)
            else:
                h.remove_edge(i, j)
                assert legal == bool(adds >> k & 1), (g, i, j)


@pytest.mark.parametrize("p,n_graphs,seed", [(9, 12, 41), (16, 6, 42), (25, 4, 43), (32, 3, 44)])
def test_perfect_sequence_cliques_match_networkx(p, n_graphs, seed):
    nx = pytest.importorskip("networkx")
    for g in oracle_graphs(p, seed, n_graphs):
        cliques, separators = map(vertex_sets, perfect_sequence(g))
        want = {frozenset(c) for c in nx.chordal_graph_cliques(networkx_graph(nx, g))}
        assert set(cliques) == want
        assert len(cliques) == len(want)
        seen = set()
        for idx, clique in enumerate(cliques):
            if idx:
                assert separators[idx - 1] == clique & seen
            seen |= clique


def test_deletions_are_single_clique_edges():
    g = graph_from_cliques(4, [(0, 1, 2), (1, 2, 3)])
    dels = legal_deletions(g)
    # (1,2) is in both maximal cliques, every other edge in exactly one
    assert (1, 2) not in dels
    assert sorted(dels) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def clique_count_deletion_mask(g):
    """Reference: the edges that lie in exactly one maximal clique."""
    once = twice = 0
    for c in g.cliques:
        e = clique_edge_mask(g.p, c)
        twice |= once & e
        once |= e
    return once & ~twice


def test_deletion_mask_matches_clique_counting():
    for p in range(1, 7):
        for g in enumerate_decomposable(p):
            assert deletion_mask(g) == clique_count_deletion_mask(g), g
    rng = np.random.default_rng(45)
    for p in (25, 32):
        for _ in range(30):
            g = random_decomposable_graph(p, rng)
            assert deletion_mask(g) == clique_count_deletion_mask(g), g


def test_additions_connect_components():
    g = graph_from_cliques(6, [(0, 1, 2), (3, 4)])
    adds = set(legal_additions(g))
    # joining two components through a single edge is always legal
    assert (0, 3) in adds and (2, 5) in adds and (4, 5) in adds


# addition_mask groups the cliques that hold each separator S by shared
# vertices outside S, in no order; the reference finds the components of
# G - S by search instead.
def test_addition_mask_matches_search_every_graph_to_p6():
    n = 0
    for p in range(1, 7):
        for g in enumerate_decomposable(p):
            assert addition_mask(g) == search_addition_mask(g), g
            n += 1
    assert n == 19048


def test_addition_mask_reads_the_clique_and_separator_sets_only():
    # In a perfect order a clique meets the earlier ones inside one clique,
    # so it overlaps at most one group; a shuffled order also brings a
    # clique after two of its group that no clique has joined yet.
    rng = np.random.default_rng(29)
    n = 0
    for p in range(1, 7):
        perms = [np.arange(p)[::-1], np.roll(np.arange(p), 1), rng.permutation(p)]
        for g in enumerate_decomposable(p):
            for stand_in in reordered(g, perms, rng):
                assert addition_mask(stand_in) == g.additions, g
            n += 1
    assert n == 19048


@pytest.mark.parametrize("p", [16, 25, 32])
def test_addition_mask_matches_search_on_chain_graphs(p):
    _, graphs = chain_graphs(p, 300)
    assert max(g.edge_count for g in graphs) > p  # not only forests
    for g in graphs:
        assert addition_mask(g) == search_addition_mask(g), g


def add_leaning_walk(p, rng, steps, every):
    """Every every-th graph of a uniform-move walk that adds with
    probability 0.7, so it runs up to near-complete graphs."""
    g = Graph(p)
    for step in range(1, steps + 1):
        cand = g.additions if rng.random() < 0.7 else g.deletions
        if cand:
            g = Graph(p, g.edges ^ 1 << nth_bit(cand, int(rng.integers(cand.bit_count()))))
        if step % every == 0:
            yield g


def test_addition_mask_matches_search_on_an_add_leaning_walk():
    graphs = list(add_leaning_walk(32, np.random.default_rng(46), 1500, 15))
    assert max(g.edge_count for g in graphs) > 450
    for g in graphs:
        assert addition_mask(g) == search_addition_mask(g), g


@pytest.mark.parametrize("p", [17, 25, 32])
def test_addition_mask_of_complete_and_empty_graphs(p):
    for g in (Graph.complete(p), Graph(p)):
        assert addition_mask(g) == search_addition_mask(g)
    assert addition_mask(Graph.complete(p)) == 0
    assert addition_mask(Graph(p)) == (1 << n_candidate_edges(p)) - 1


def test_random_decomposable_graph_is_decomposable():
    rng = np.random.default_rng(5)
    ps = rng.integers(2, 13, size=60)
    for p in ps:
        assert is_decomposable(random_decomposable_graph(int(p), rng))


def list_walk(p, rng, walk_steps):
    """The add/delete walk as it was written over the legal-move lists."""
    g = Graph(p)
    for _ in range(walk_steps):
        if rng.random() < 0.5:
            moves = legal_additions(g)
            if moves:
                g = g.add_edge(*moves[int(rng.integers(len(moves)))])
        else:
            moves = legal_deletions(g)
            if moves:
                g = g.remove_edge(*moves[int(rng.integers(len(moves)))])
    return g


@pytest.mark.parametrize("p,seed,walk_steps", [
    (1, 0, 4), (2, 1, 4), (5, 2, None), (9, 3, None), (9, 4, None), (25, 5, None),
    (32, 6, 256)])
def test_random_walk_matches_list_walk(p, seed, walk_steps):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        steps = 4 * n_candidate_edges(p) if walk_steps is None else walk_steps
        assert random_decomposable_graph(p, rng, walk_steps) == list_walk(p, ref, steps)
    assert rng.bit_generator.state == ref.bit_generator.state


def loop_nth_bit(mask, r):
    """Reference: clear the r lowest set bits one at a time."""
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


# Masks up to m=496 bits (p=32): dense ones as plain integers, and sparse
# ones from a few positions, which leave whole 64-bit words empty.
MASKS = st.one_of(
    st.integers(min_value=1, max_value=(1 << 496) - 1),
    st.sets(st.integers(min_value=0, max_value=495), min_size=1, max_size=12).map(
        lambda ks: sum(1 << k for k in ks)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mask=MASKS)
def test_nth_bit_matches_bit_clearing_loop(data, mask):
    r = data.draw(st.integers(min_value=0, max_value=mask.bit_count() - 1))
    assert nth_bit(mask, r) == loop_nth_bit(mask, r)
    for r in (0, mask.bit_count() - 1):
        assert nth_bit(mask, r) == loop_nth_bit(mask, r)


def test_nth_bit_rejects_a_rank_outside_the_set_bits():
    for mask, r in ((0b1011, -1), (0b1011, 3), (0, 0), ((1 << 496) - 1, 496),
                    (1 << 300, 1)):
        with pytest.raises(ValueError):
            nth_bit(mask, r)
    assert nth_bit(1 << 300, 0) == 300


def test_count_small_p():
    assert count_decomposable(2) == 2
    assert count_decomposable(3) == 8
    assert count_decomposable(4) == 61
    assert count_decomposable(5) == 822


def test_count_p6():
    assert count_decomposable(6) == 18154


def test_counts_match_oeis_a058862():
    # labeled chordal graphs on p nodes, OEIS A058862
    want = (1, 2, 8, 61, 822, 18154, 617675)
    assert tuple(count_decomposable(p) for p in range(1, 8)) == want


def test_enumeration_matches_networkx_chordality():
    nx = pytest.importorskip("networkx")
    for p in range(1, 6):
        want = [g.edges for g in all_graphs(p) if nx.is_chordal(networkx_graph(nx, g))]
        assert [g.edges for g in enumerate_decomposable(p)] == want


def test_count_rejects_large_p():
    with pytest.raises(TooLargeError):
        count_decomposable(9)


def test_named_graph_tokens():
    assert named_graph("figure1") == bench9_graph()
    assert named_graph("bench9") == bench9_graph()
    assert named_graph("empty", 4) == Graph(4)
    assert named_graph("complete", 3) == Graph.complete(3)
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assert named_graph(g.id_hex, 4) == g
    with pytest.raises(ValueError):
        named_graph("empty")
    with pytest.raises(ValueError):
        named_graph("zz", 4)


def test_named_graph_reads_hex_digits_only():
    # int(text, 16) takes a sign, a 0x prefix and _ between digits, and
    # read each of these as graph 1f.
    assert named_graph("1F", 4) == named_graph("1f", 4) == Graph(4, 0x1F)
    for token in ("0x1f", "+1f", "1_f", "1 f", "-1f", "", "\u0661f"):
        with pytest.raises(ValueError, match="cannot parse graph token"):
            named_graph(token, 4)


def test_to_dot_mentions_all_edges():
    g = Graph.from_edge_list(3, [(0, 2), (1, 2)])
    text = to_dot(g, name="X")
    assert text.startswith("graph X {")
    assert "1 -- 3" in text and "2 -- 3" in text
    assert text.rstrip().endswith("}")
