"""Decomposable (chordal) graph machinery on edge bitsets.

Graphs live on vertices 0..p-1 with p <= 32.  The edge set is packed into a
single integer: candidate edges (i, j) with i < j are numbered
lexicographically, so bit 0 is edge (0, 1), bit 1 is edge (0, 2), ..., and
bit m-1 is edge (p-2, p-1), where m = p*(p-1)/2.  The hex form of that
integer is the canonical graph identifier used in logs and on the command
line.

Decomposability is detected with maximum cardinality search: the reverse of
an MCS visit order is a perfect elimination order exactly when the graph is
chordal, which for undirected Gaussian models is the same as decomposable.
One search also yields the cliques and separators of a perfect sequence, and
the legal add and delete moves follow from them as edge bitmasks.  A Graph
builds its adjacency, cliques, separators and move masks on first use and
keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from .errors import NotDecomposableError, TooLargeError

MAX_P = 32  # most vertices a Graph takes
# vertex sets whose edge masks clique_edge_mask keeps, the least recently
# used dropped first; a chain asks again and again for the few hundred
# separators and pre-test cliques of the graphs it visits
EDGE_MASK_CACHE_SIZE = 4096


def n_candidate_edges(p):
    return p * (p - 1) // 2


def id_width(p):
    """Hex digits of a p-vertex graph ID as Graph.id_hex writes it."""
    return max((n_candidate_edges(p) + 3) // 4, 1)


def hex_value(text):
    """int(text, 16) of a string of hex digits only: a sign, a 0x prefix, a _
    or a space, which int takes, is a ValueError."""
    if not text or any(c not in "0123456789abcdefABCDEF" for c in text):
        raise ValueError(f"{text!r} is not a string of hex digits")
    return int(text, 16)


def edge_index(p, i, j, loop=None):
    """Bit position of edge {i, j}, its ends in either order, in the
    lexicographic layout.  Each end is an integer (a numpy one will do, a
    float is a TypeError) in 0..p-1, and i != j unless a loop value is given
    to return for i == j; else a ValueError names the pair."""
    i, j = sorted((index(i), index(j)))
    if i < 0 or j >= p or i == j and loop is None:
        raise ValueError(f"need two distinct vertices in 0..{p - 1}, got ({i}, {j})")
    return loop if i == j else (i * (2 * p - i - 1)) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def pair_table(p):
    """Tuple mapping bit position -> vertex pair (i, j); edge_pair reads it
    with a range check, the chain's inner loop without one."""
    return tuple((i, j) for i in range(p) for j in range(i + 1, p))


def edge_pair(p, k):
    """Vertex pair (i, j) sitting at bit position k."""
    table = pair_table(p)
    if not 0 <= k < len(table):
        raise ValueError(f"edge index {k} out of range for p={p}")
    return table[k]


def _adjacency(p, edges):
    adj = [0] * p
    table = pair_table(p)
    e = edges
    while e:
        b = e & -e
        i, j = table[b.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        e ^= b
    return tuple(adj)


def iter_bits(mask):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected graph on vertices 0..p-1 with bitset edges.

    Its slots adjacency (per-vertex neighbour bitmasks), cliques and
    separators (vertex bitmasks of a perfect sequence, from one maximum
    cardinality search), additions and deletions (edge bitmasks of the moves
    that keep it decomposable) are outside equality and unset until their
    first read, when __getattr__ builds and keeps them, so a Graph is cheap
    to make.  (A graph made by flip comes with its adjacency already set,
    from the graph whose edge it flips.)  On a non-chordal graph the last
    four raise NotDecomposableError on every read.
    """

    p: int
    edges: int = 0
    adjacency: tuple = field(init=False, repr=False, compare=False)
    cliques: tuple = field(init=False, repr=False, compare=False)
    separators: tuple = field(init=False, repr=False, compare=False)
    additions: int = field(init=False, repr=False, compare=False)
    deletions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # plain ints for the bit tricks: a numpy integer converts, a float is a TypeError
        object.__setattr__(self, "p", index(self.p))
        object.__setattr__(self, "edges", index(self.edges))
        if not 1 <= self.p <= MAX_P:
            raise ValueError(f"p must be in 1..{MAX_P}, got {self.p}")
        if not 0 <= self.edges < (1 << n_candidate_edges(self.p)):
            raise ValueError("edge bitset out of range for p")

    @property
    def m(self):
        """Number of candidate edges p*(p-1)/2."""
        return n_candidate_edges(self.p)

    def __getattr__(self, name):
        # Runs only while a slot is unset; a later read is a plain slot read.
        if name == "adjacency":
            value = _adjacency(self.p, self.edges)
        elif name == "cliques" or name == "separators":
            cliques, separators = perfect_sequence(self)
            object.__setattr__(self, "cliques", cliques)
            object.__setattr__(self, "separators", separators)
            return cliques if name == "cliques" else separators
        elif name == "additions":
            value = addition_mask(self)
        elif name == "deletions":
            value = deletion_mask(self)
        else:
            raise AttributeError(f"'Graph' object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def edge_count(self):
        return self.edges.bit_count()

    def has_edge(self, i, j):
        k = edge_index(self.p, i, j, loop=-1)  # a loop (v, v) is never an edge
        return k >= 0 and bool(self.edges >> k & 1)

    def flip(self, k):
        """This graph with edge slot k (0 <= k < m, else ValueError) toggled,
        taking this graph's adjacency with the two bits of slot k toggled."""
        x, y = edge_pair(self.p, k)
        g = Graph(self.p, self.edges ^ 1 << index(k))  # a numpy k would shift in 64 bits
        adj = list(self.adjacency)
        adj[x] ^= 1 << y
        adj[y] ^= 1 << x
        object.__setattr__(g, "adjacency", tuple(adj))
        return g

    def add_edge(self, i, j):
        k = edge_index(self.p, i, j)
        if self.edges >> k & 1:
            raise ValueError(f"edge ({i}, {j}) already present")
        return self.flip(k)

    def remove_edge(self, i, j):
        k = edge_index(self.p, i, j)
        if not self.edges >> k & 1:
            raise ValueError(f"edge ({i}, {j}) not present")
        return self.flip(k)

    def edge_list(self):
        return _pairs(self.p, self.edges)

    @property
    def id_hex(self):
        """Zero-padded lowercase hex of the edge bitset (bit 0 = edge (0, 1))."""
        return format(self.edges, f"0{id_width(self.p)}x")

    @classmethod
    def from_id(cls, p, hex_id):
        return cls(p, hex_value(hex_id))

    @classmethod
    def from_edge_list(cls, p, pairs):
        edges = 0
        for i, j in pairs:
            edges |= 1 << edge_index(p, i, j)
        return cls(p, edges)

    @classmethod
    def complete(cls, p):
        return cls(p, (1 << n_candidate_edges(p)) - 1)

    def __repr__(self):
        return f"Graph(p={self.p}, id={self.id_hex!r})"

    def __reduce__(self):  # copies carry the edges; the rest is rebuilt on use
        return Graph, (self.p, self.edges)


def graph_from_cliques(p, cliques):
    """Graph whose edge set is the union of all within-clique pairs; each
    vertex is an integer (a numpy one will do) in 0..p-1."""
    p = Graph(p).p  # checks p, and a numpy integer becomes an int
    cliques = [[index(v) for v in c] for c in cliques]
    bad = [v for c in cliques for v in c if not 0 <= v < p]
    if bad:
        raise ValueError(f"clique vertex {bad[0]} out of range for p={p}")
    edges = 0
    for c in cliques:
        edges |= clique_edge_mask(p, sum(1 << v for v in set(c)))
    return Graph(p, edges)


# 9-vertex benchmark graph used by the simulation study driver; its maximal
# cliques are {0,1,2}, {1,2,4,5}, {1,3,4}, {4,5,6}, {5,6,7,8}.
BENCH9_CLIQUES = ((0, 1, 2), (1, 2, 4, 5), (1, 3, 4), (4, 5, 6), (5, 6, 7, 8))


def bench9_graph():
    return graph_from_cliques(9, BENCH9_CLIQUES)


def named_graph(token, p=None):
    """Resolve a command-line graph token: a builtin name or a hex graph ID."""
    name = token.strip().lower()
    if name in ("bench9", "figure1"):
        return bench9_graph()
    if name in ("empty", "complete"):
        if p is None:
            raise ValueError(f"graph {name!r} needs an explicit p")
        return Graph(p) if name == "empty" else Graph.complete(p)
    if p is None:
        raise ValueError("a hex graph ID needs an explicit p")
    try:
        return Graph.from_id(p, name)
    except ValueError as exc:
        raise ValueError(f"cannot parse graph token {token!r}") from exc


def is_decomposable(g: Graph):
    """True iff the graph is chordal, hence supports a perfect clique order."""
    try:
        g.cliques
    except NotDecomposableError:
        return False
    return True


def perfect_sequence(g: Graph):
    """(cliques, separators) of a decomposable graph as vertex bitmasks.

    The cliques are maximal and in perfect order: for i >= 1, separators[i-1]
    = cliques[i] & (cliques[0] | ... | cliques[i-1]).  They come from one
    maximum cardinality search, with unvisited vertices kept in one bitmask
    per weight and ties broken toward the lowest vertex.  Raises
    NotDecomposableError when the graph is not chordal.

    The reverse visit order is a perfect elimination order exactly when the
    graph is chordal; by Tarjan and Yannakakis it suffices to check that the
    visited neighbours of each vertex, less their most recently visited
    member u, lie in N(u).  The visited neighbours plus the vertex form a
    clique, which is maximal unless the next vertex's visited neighbours are
    all of it; a vertex that does not extend it starts the next clique, and
    its visited neighbours are that clique's separator.
    """
    p, adj = g.p, g.adjacency
    level = [0] * (p + 1)  # level[w]: unvisited vertices of weight w
    level[0] = (1 << p) - 1
    weight = [0] * p
    last = [-1] * p  # most recently visited neighbor of each vertex
    cliques, separators = [], []
    clique = numbered = top = 0
    for _ in range(p):
        while not level[top]:
            top -= 1
        b = level[top] & -level[top]
        v = b.bit_length() - 1
        e = adj[v] & numbered
        u = last[v]
        if e and e & ~adj[u] != 1 << u:
            raise NotDecomposableError(f"graph {g.id_hex} (p={g.p}) is not decomposable")
        if e != clique:
            cliques.append(clique)
            separators.append(e)
        clique = e | b
        numbered |= b
        level[top] ^= b
        rest = adj[v] & ~numbered
        while rest:
            c = rest & -rest
            w = c.bit_length() - 1
            k = weight[w]
            level[k] ^= c
            level[k + 1] |= c
            weight[w] = k + 1
            last[w] = v
            rest ^= c
        if level[top + 1]:
            top += 1
    cliques.append(clique)
    return tuple(cliques), tuple(separators)


@lru_cache(maxsize=None)
def _row_offsets(p):
    """Bit position of edge (x, x+1) for each x.

    Edges (x, y), y > x, are consecutive from there, so (partners >> (x+1))
    << offset turns a vertex mask of partners of x into their edge mask.
    """
    return tuple(x * (2 * p - x - 1) // 2 for x in range(p))


def _pairs(p, mask):
    table = pair_table(p)
    return [table[k] for k in iter_bits(mask)]


@lru_cache(maxsize=EDGE_MASK_CACHE_SIZE)
def clique_edge_mask(p, vertices):
    """Edge bitmask of every pair inside the vertex set given as a bitmask,
    kept for the EDGE_MASK_CACHE_SIZE sets last asked for."""
    off = _row_offsets(p)
    e = 0
    rest = vertices
    while rest:
        b = rest & -rest
        x = b.bit_length() - 1
        e |= (vertices >> (x + 1)) << off[x]
        rest ^= b
    return e


def deletion_mask(g: Graph):
    """Edge bitmask of the removals that keep the graph decomposable.

    An edge is removable exactly when it lies in a single maximal clique.
    An edge in two cliques lies in a separator of the perfect sequence (the
    later clique meets the earlier ones in its separator), and an edge in a
    separator lies in its clique and in an earlier one that holds it; so
    the removable edges are those inside no separator.
    """
    shared = 0
    for s in set(g.separators):
        if s & (s - 1):  # two or more vertices
            shared |= clique_edge_mask(g.p, s)
    return g.edges & ~shared


def addition_mask(g: Graph):
    """Edge bitmask of the insertions that keep the graph decomposable.

    Adding (x, y) to a chordal graph keeps it chordal iff x and y lie in
    cliques adjacent in some junction tree (Giudici and Green 1999); their
    separator S = N(x) & N(y) is then one of the sequence's separators (the
    empty one when g is disconnected).  The sequence is a junction tree: by
    running intersection, clique C_i meets the earlier ones in its link S_i
    (empty for the first), which lies in one earlier clique.  Walking the
    cliques that hold S in order, one whose link strictly holds S shares
    S_i - S with that earlier clique's group and joins it; any other is cut
    off from the earlier cliques by S and starts a group.  Less S, the
    groups are the joinable parts of the components of G - S, and every
    pair across two groups is a legal addition.
    """
    linked = tuple(zip(g.cliques, (0,) + g.separators))
    partner = [0] * g.p
    for s in set(g.separators):
        groups, joinable = [], 0
        for c, link in linked:
            if c & s == s:
                joinable |= c ^ s
                if link & s == s and link != s:
                    for k, group in enumerate(groups):
                        if group & (link ^ s):
                            groups[k] = group | (c ^ s)
                            break
                else:
                    groups.append(c ^ s)
        if len(groups) > 1:
            for group in groups:
                others = joinable ^ group
                while group:
                    b = group & -group
                    partner[b.bit_length() - 1] |= others
                    group ^= b
    off = _row_offsets(g.p)
    mask = 0
    for x, partners in enumerate(partner):
        mask |= (partners >> (x + 1)) << off[x]
    return mask


def legal_deletions(g: Graph):
    """Edges (i, j) whose removal keeps the graph decomposable, in edge order."""
    return _pairs(g.p, g.deletions)


def legal_additions(g: Graph):
    """Non-edges (i, j) whose insertion keeps the graph decomposable, in edge order."""
    return _pairs(g.p, g.additions)


def nth_bit(mask, r):
    """Position of the r-th lowest set bit of mask, counting from 0.

    Skips whole 64-bit words by their bit counts, then clears the r lowest
    set bits of the word that holds the answer.  Raises ValueError unless
    0 <= r < mask.bit_count().
    """
    if not 0 <= r < mask.bit_count():
        raise ValueError(f"need 0 <= r < {mask.bit_count()} set bits, got r={r}")
    base = 0
    while True:
        word = mask >> base & 0xFFFFFFFFFFFFFFFF
        n = word.bit_count()
        if r < n:
            break
        r -= n
        base += 64
    for _ in range(r):
        word &= word - 1
    return base + (word & -word).bit_length() - 1


def random_decomposable_graph(p, rng, walk_steps=None):
    """Random decomposable graph from a uniform-move add/delete walk.

    Each step picks a direction with probability 1/2 and flips the
    rng.integers(n)-th of its n legal edges in edge order, if any.
    """
    g = Graph(p)
    if walk_steps is None:
        walk_steps = 4 * n_candidate_edges(p)
    for _ in range(walk_steps):
        cand = g.additions if rng.random() < 0.5 else g.deletions
        if cand:
            k = nth_bit(cand, int(rng.integers(cand.bit_count())))
            g = g.flip(k)
    return g


def elimination_families(p):
    """Every decomposable graph on p vertices with a perfect elimination order.

    Yields (ids, fams) per block of 2^20 edge bitsets, ascending: ids
    (uint32) are the block's chordal bitsets, and fams[v] (uint8, shape
    (p, len(ids))) is the mask M_v of the neighbours of v left when v was
    eliminated.  A graph is chordal exactly when removing simplicial
    vertices, whose neighbours are pairwise adjacent, in any order empties
    it (Fulkerson and Gross 1965).  Each of up to p rounds visits v =
    0..p-1 and removes v from every bitset of the block where it is left
    and simplicial, as one lookup of the edge mask of its live neighbours
    decides.  Capped at p=8: the p=8 count takes about 50 s and 104 MB.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if p > 8:  # edge bitsets fit in uint32 and vertex masks in uint8
        raise TooLargeError(f"decomposable-graph enumeration capped at p=8, got {p}")
    em = np.array([clique_edge_mask(p, s) for s in range(1 << p)], dtype=np.uint32)
    size = min(1 << n_candidate_edges(p), 1 << 20)
    low = np.arange(size, dtype=np.uint32)
    low_adj = np.zeros((p, size), np.uint8)  # adjacency of the low edge bits
    for k, (i, j) in enumerate(pair_table(p)[:size.bit_length() - 1]):
        bit = (low >> k & 1).astype(np.uint8)
        low_adj[i] |= bit << j
        low_adj[j] |= bit << i
    for base in range(0, 1 << n_candidate_edges(p), size):
        ids = low + base
        adj = low_adj | np.array(_adjacency(p, base), np.uint8)[:, None]
        alive = np.full(size, (1 << p) - 1, np.uint8)
        fams = np.zeros((p, size), np.uint8)
        for _ in range(p):
            before = alive.copy()
            for v in range(p):
                mv = adj[v] & alive
                e = em.take(mv)
                ok = ((ids & e) == e) & (alive >> v & 1).astype(bool)
                np.copyto(fams[v], mv, where=ok)
                alive ^= ok.astype(np.uint8) << v
            if np.array_equal(alive, before):
                break
        yield ids[alive == 0], fams[:, alive == 0]


def enumerate_decomposable(p):
    """Yield every decomposable graph on p vertices in ascending ID order."""
    for ids, _ in elimination_families(p):
        yield from (Graph(p, edges) for edges in ids.tolist())


def count_decomposable(p):
    """Count decomposable graphs on p labeled vertices by exhaustive elimination."""
    return sum(ids.size for ids, _ in elimination_families(p))


def to_dot(g: Graph, name="G"):
    """GraphViz DOT text; vertices rendered with 1-based labels."""
    lines = [f"graph {name} {{"]
    for v in range(g.p):
        lines.append(f"  {v + 1};")
    for i, j in g.edge_list():
        lines.append(f"  {i + 1} -- {j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
