"""Graphs, random graph models, and the common-neighbor auxiliary construction.

Vertices are always 0..n-1 and adjacency is stored as one bitmask per vertex,
so membership tests are O(1) and set algebra on neighborhoods is cheap.
All samplers are pure functions of (parameters, seed): edge draws are consumed
in lexicographic pair order (u < v), and vertex-retention models consume their
full draw streams regardless of which vertices survive, so a seed always maps
to the same graph byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import FormatError, ParameterError
from .rng import Rng, bernoulli_threshold


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on 0..n-1; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ParameterError("adjacency length must equal n")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in lexicographic order with u < v."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def isolated(self) -> list[int]:
        return [v for v in range(self.n) if self.adj[v] == 0]

    def validate(self) -> None:
        for v, a in enumerate(self.adj):
            if a >> v & 1:
                raise ParameterError(f"self-loop at vertex {v}")
            if a >> self.n:
                raise ParameterError(f"vertex {v} has out-of-range neighbors")
            for w in _bits(a):
                if not self.adj[w] >> v & 1:
                    raise ParameterError(f"asymmetric edge ({v}, {w})")

    def adjacency_matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for v, a in enumerate(self.adj):
            for w in _bits(a):
                out[v, w] = 1.0
        return out


@dataclass(frozen=True)
class BipartitionedGraph:
    """A graph with two marked disjoint vertex sets A and B.

    `source_ids[v]` is the label vertex v carried before dense relabeling;
    samplers that drop vertices record the survivor map here.
    """

    graph: Graph
    part_a: frozenset[int]
    part_b: frozenset[int]
    source_ids: Optional[tuple[int, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.part_a & self.part_b:
            raise ParameterError("parts A and B must be disjoint")
        ground = self.part_a | self.part_b
        for u, v in self.graph.edges():
            if u not in ground or v not in ground:
                raise ParameterError(f"edge ({u},{v}) leaves the partitioned ground set")

    def a_mask(self) -> int:
        return _mask(self.part_a)

    def b_mask(self) -> int:
        return _mask(self.part_b)

    def crossing_edge_count(self) -> int:
        mb = self.b_mask()
        return sum((self.graph.adj[a] & mb).bit_count() for a in self.part_a)


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {p}")


def _include_vector(rng: Rng, count: int, p: float) -> np.ndarray:
    """Boolean inclusion vector for `count` Bernoulli(p) draws (stream consumed)."""
    draws = rng.u64_block(count)
    thr = bernoulli_threshold(p)
    if thr >= 1 << 64:
        return np.ones(count, dtype=bool)
    return draws < np.uint64(thr)


def _adj_from_pairs(n_new: int, new_u: np.ndarray, new_v: np.ndarray) -> tuple[int, ...]:
    adj = [0] * n_new
    for u, v in zip(new_u.tolist(), new_v.tolist()):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n,2) edges present independently."""
    if n <= 0:
        raise ParameterError("n must be positive")
    _check_prob("p", p)
    rng = Rng(seed)
    include = _include_vector(rng, _pair_count(n), p)
    us, vs = np.triu_indices(n, k=1)
    keep = np.flatnonzero(include)
    return Graph(n, _adj_from_pairs(n, us[keep], vs[keep]))


def sample_two_param(n: int, p0: float, p1: float, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """Two-parameter model: keep each vertex w.p. p0, then each edge between
    surviving vertices w.p. p1.

    Survivors are relabeled densely; the second return value maps new -> original
    id.  Full draw streams are consumed regardless of retention.
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    _check_prob("p0", p0)
    _check_prob("p1", p1)
    rng = Rng(seed)
    kept_mask = _include_vector(rng, n, p0)
    edraw = _include_vector(rng, _pair_count(n), p1)
    us, vs = np.triu_indices(n, k=1)
    keep_pair = np.flatnonzero(edraw & kept_mask[us] & kept_mask[vs])
    new_id = np.cumsum(kept_mask) - 1
    n_new = int(kept_mask.sum())
    g = Graph(n_new, _adj_from_pairs(n_new, new_id[us[keep_pair]], new_id[vs[keep_pair]]))
    return g, tuple(int(v) for v in np.flatnonzero(kept_mask))


def sample_h(
    n: int,
    p_a: float,
    p_b: float,
    p_ea: float,
    p_eb: float,
    p_eab: float,
    seed: int,
) -> BipartitionedGraph:
    """Two-community model: each vertex joins A w.p. p_a, B w.p. p_b, else is
    dropped; edges appear w.p. p_ea inside A, p_eb inside B, p_eab across.

    Survivors are relabeled densely (original ids kept in source_ids).
    """
    if n <= 0:
        raise ParameterError("n must be positive")
    for name, p in (("p_a", p_a), ("p_b", p_b), ("p_ea", p_ea), ("p_eb", p_eb), ("p_eab", p_eab)):
        _check_prob(name, p)
    if p_a + p_b > 1.0 + 1e-15:
        raise ParameterError(f"p_a + p_b must be at most 1, got {p_a + p_b}")
    rng = Rng(seed)
    thr_a = bernoulli_threshold(p_a)
    thr_b = bernoulli_threshold(p_b)
    vdraws = rng.u64_block(n)
    # side: 0 = A, 1 = B, 2 = dropped
    side = np.full(n, 2, dtype=np.int64)
    for v in range(n):
        d = int(vdraws[v])
        if d < thr_a:
            side[v] = 0
        elif d < thr_a + thr_b:
            side[v] = 1
    draws = rng.u64_block(_pair_count(n))
    us, vs = np.triu_indices(n, k=1)
    su, sv = side[us], side[vs]
    both_kept = (su != 2) & (sv != 2)
    kind = np.where(su != sv, 2, su)  # 2 = crossing when both kept
    include = np.zeros(draws.shape, dtype=bool)
    for kind_value, p in ((0, p_ea), (1, p_eb), (2, p_eab)):
        sel = both_kept & (kind == kind_value)
        thr = bernoulli_threshold(p)
        if thr >= 1 << 64:
            include[sel] = True
        else:
            include[sel] = draws[sel] < np.uint64(thr)
    kept_mask = side != 2
    new_id = np.cumsum(kept_mask) - 1
    n_new = int(kept_mask.sum())
    keep_pair = np.flatnonzero(include)
    g = Graph(n_new, _adj_from_pairs(n_new, new_id[us[keep_pair]], new_id[vs[keep_pair]]))
    part_a = frozenset(int(new_id[v]) for v in np.flatnonzero(side == 0))
    part_b = frozenset(int(new_id[v]) for v in np.flatnonzero(side == 1))
    return BipartitionedGraph(g, part_a, part_b, tuple(int(v) for v in np.flatnonzero(kept_mask)))


def sample_h_q(n: int, p_a: float, p_b: float, q: float, seed: int) -> BipartitionedGraph:
    """Shorthand H(n, p_a, p_b, q) = H(n, p_a, p_b, q, q, 1 - q)."""
    return sample_h(n, p_a, p_b, q, q, 1.0 - q, seed)


def complement(g: Graph) -> Graph:
    """Edge set is exactly the non-edges of g on the same vertex set."""
    full = (1 << g.n) - 1
    adj = tuple((~a & full) & ~(1 << v) for v, a in enumerate(g.adj))
    return Graph(g.n, adj)


def common_neighbor_graph(
    g: Graph, plus: Iterable[int], minus: Iterable[int]
) -> BipartitionedGraph:
    """Bipartitioned graph induced on the common neighbors of two vertex sets.

    A = common neighbors of every vertex in `plus`, excluding `minus` and all
    neighbors of `minus`; B symmetrically.  Edges inside A and inside B are
    copied from g; an A-B pair is connected exactly when it is NOT an edge of g.
    """
    plus = sorted(set(plus))
    minus = sorted(set(minus))
    if set(plus) & set(minus):
        raise ParameterError("plus and minus must be disjoint")
    for v in plus + minus:
        if not 0 <= v < g.n:
            raise ParameterError(f"vertex {v} out of range")
    full = (1 << g.n) - 1
    common_plus = full
    for v in plus:
        common_plus &= g.adj[v]
    common_minus = full
    for v in minus:
        common_minus &= g.adj[v]
    closed_plus = _mask(plus)
    for v in plus:
        closed_plus |= g.adj[v]
    closed_minus = _mask(minus)
    for v in minus:
        closed_minus |= g.adj[v]
    a_mask = common_plus & ~closed_minus & ~_mask(plus) & full
    b_mask = common_minus & ~closed_plus & ~_mask(minus) & full
    kept = _bits(a_mask | b_mask)
    relabel = {orig: i for i, orig in enumerate(kept)}
    adj = [0] * len(kept)
    for i, u in enumerate(kept):
        for v in kept[i + 1 :]:
            same_side = bool(a_mask >> u & 1) == bool(a_mask >> v & 1)
            edge = g.has_edge(u, v) if same_side else not g.has_edge(u, v)
            if edge:
                ru, rv = relabel[u], relabel[v]
                adj[ru] |= 1 << rv
                adj[rv] |= 1 << ru
    part_a = frozenset(relabel[v] for v in _bits(a_mask))
    part_b = frozenset(relabel[v] for v in _bits(b_mask))
    return BipartitionedGraph(Graph(len(kept), tuple(adj)), part_a, part_b, tuple(kept))


def components(g: Graph) -> int:
    """Connected-component count by union-find (independent of spectral code)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(g.n)})


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    mask_a = (1 << a) - 1
    mask_b = ((1 << (a + b)) - 1) ^ mask_a
    adj = tuple(mask_b if v < a else mask_a for v in range(a + b))
    return Graph(a + b, adj)


def cycle_graph(n: int) -> Graph:
    adj = [0] * n
    for v in range(n):
        adj[v] |= 1 << ((v + 1) % n)
        adj[(v + 1) % n] |= 1 << v
    return Graph(n, tuple(adj))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def write_graph(g: Graph, out: TextIO) -> None:
    """Text format: "n m" then one "u v" line per edge, lexicographic, u < v."""
    out.write(f"{g.n} {g.m}\n")
    for u, v in g.edges():
        out.write(f"{u} {v}\n")


def read_graph(inp: TextIO) -> Graph:
    header = inp.readline().split()
    if len(header) != 2:
        raise FormatError("graph header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError("graph header must contain two integers") from exc
    if n < 0 or m < 0:
        raise FormatError("graph header values must be nonnegative")
    adj = [0] * n
    seen = set()
    for _ in range(m):
        parts = inp.readline().split()
        if len(parts) != 2:
            raise FormatError("each edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError("each edge line must hold two integers") from exc
        if not (0 <= u < v < n):
            raise FormatError(f"edge ({u},{v}) must satisfy 0 <= u < v < n")
        if (u, v) in seen:
            raise FormatError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))
