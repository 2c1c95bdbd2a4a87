"""Pure-Python bitset kernels for face enumeration, and the bitsliced
construction-equivalence sweep.

The per-graph kernels are the hot inner loops of the package: clique
enumeration, the odd-triangle face rule, separated-deleted-join pair
enumeration and the one-graph equivalence check.  `flagtwin._speedups` is a
compiled twin of them with identical semantics; `flagtwin.kernels` picks the
backend at import time.  Masks are plain ints (bit v = vertex v), so this
backend works for any n.  Enumeration order is depth-first over ascending
vertex ids, which yields faces in lexicographic order of their sorted vertex
tuples within each size.

The exhaustive sweep over all graphs on n <= 8 vertices has no compiled twin:
it is bitsliced with numpy, so each face predicate is a few AND/OR/XOR
operations over packed bitmaps holding one bit per graph, and the per-graph
enumerators above serve as its independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def _closed_neighborhood(adj, mask: int) -> int:
    closed = mask
    m = mask
    while m:
        low = m & -m
        closed |= adj[low.bit_length() - 1]
        m ^= low
    return closed


def is_clique(adj, mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if adj[v] & mask != mask ^ low:
            return False
        m ^= low
    return True


def _extend_cliques(adj, mask: int, size: int, cand: int, max_size: int, by_size) -> None:
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nmask = mask | low
        by_size[size + 1].append(nmask)
        if size + 1 < max_size:
            ncand = cand & adj[v] & -(low << 1)
            if ncand:
                _extend_cliques(adj, nmask, size + 1, ncand, max_size, by_size)


def clique_masks_within(adj, allowed: int, max_size: int) -> list[list[int]]:
    """Cliques with all vertices inside `allowed`, grouped by size (0..max_size)."""
    by_size = [[] for _ in range(max_size + 1)]
    by_size[0].append(0)
    if max_size >= 1:
        m = allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            by_size[1].append(low)
            if max_size >= 2:
                cand = allowed & adj[v] & -(low << 1)
                if cand:
                    _extend_cliques(adj, low, 1, cand, max_size, by_size)
    return by_size


def clique_masks(adj, n: int, max_size: int) -> list[list[int]]:
    """All cliques grouped by size; index 0 holds the empty clique."""
    return clique_masks_within(adj, (1 << n) - 1, max_size)


def _odd_mask(adj, a: int, b: int) -> int:
    """Vertices w such that {a, b, w} spans an odd number of graph edges.

    May carry junk at bits a, b and above bit n; callers mask it.
    """
    m = adj[a] ^ adj[b]
    if adj[a] >> b & 1:
        m = ~m
    return m


def _extend_odd(adj, verts, mask: int, cand: int, max_card: int, by_card, full: int) -> None:
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nmask = mask | low
        by_card[len(verts) + 1].append(nmask)
        if len(verts) + 1 < max_card:
            ncand = cand & -(low << 1)
            for x in verts:
                ncand &= _odd_mask(adj, x, v)
            ncand &= full
            if ncand:
                _extend_odd(adj, verts + [v], nmask, ncand, max_card, by_card, full)


def odd_face_masks(adj, n: int, max_card: int) -> list[list[int]]:
    """Faces of the odd-triangle complex grouped by cardinality (1..max_card).

    The 1-skeleton is complete; a triple is a face iff it spans an odd number
    (1 or 3) of graph edges; larger sets are faces iff all their triples are.
    """
    by_card = [[] for _ in range(max_card + 1)]
    full = (1 << n) - 1
    if max_card >= 1:
        for v in range(n):
            by_card[1].append(1 << v)
    if max_card >= 2:
        for a in range(n):
            for b in range(a + 1, n):
                pair = (1 << a) | (1 << b)
                by_card[2].append(pair)
                if max_card >= 3:
                    cand = _odd_mask(adj, a, b) & -(1 << (b + 1)) & full
                    if cand:
                        _extend_odd(adj, [a, b], pair, cand, max_card, by_card, full)
    return by_card


def sdj_pair_masks(adj, n: int, max_card: int) -> list[list[tuple[int, int]]]:
    """Separated-deleted-join faces as (minus clique, plus clique) mask pairs.

    Pairs are disjoint cliques with no graph edge across; grouped by total
    cardinality 1..max_card.  Either side may be empty (not both).
    """
    by_card = [[] for _ in range(max_card + 1)]
    full = (1 << n) - 1
    sigmas = clique_masks(adj, n, max_card)
    for s_size, side in enumerate(sigmas):
        for sigma in side:
            allowed = full & ~_closed_neighborhood(adj, sigma)
            taus = clique_masks_within(adj, allowed, max_card - s_size)
            for t_size, tside in enumerate(taus):
                if s_size + t_size == 0:
                    continue
                bucket = by_card[s_size + t_size]
                for tau in tside:
                    bucket.append((sigma, tau))
    return by_card


def _count_cliques_within(adj, allowed: int, max_size: int) -> list[int]:
    counts = [0] * (max_size + 1)
    counts[0] = 1

    def rec(size: int, cand: int) -> None:
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            counts[size + 1] += 1
            if size + 1 < max_size:
                ncand = cand & adj[v] & -(low << 1)
                if ncand:
                    rec(size + 1, ncand)

    if max_size >= 1:
        rec(0, allowed)
    return counts


def sdj_face_counts(adj, n: int, max_card: int) -> list[int]:
    """Face counts of the separated deleted join per cardinality 1..max_card."""
    counts = [0] * (max_card + 1)
    full = (1 << n) - 1
    sigmas = clique_masks(adj, n, max_card)
    for s_size, side in enumerate(sigmas):
        for sigma in side:
            allowed = full & ~_closed_neighborhood(adj, sigma)
            tcounts = _count_cliques_within(adj, allowed, max_card - s_size)
            for t_size, c in enumerate(tcounts):
                if s_size + t_size > 0:
                    counts[s_size + t_size] += c
    return counts[1:]


def splits_into_two_cliques(adj, mask: int) -> bool:
    """True iff the vertex set splits into two disjoint cliques with no edge across."""
    if mask == 0:
        return True
    a_low = mask & -mask
    rest = mask ^ a_low
    sub = rest
    while True:
        sigma = a_low | sub
        tau = mask ^ sigma
        if is_clique(adj, sigma) and is_clique(adj, tau):
            crossing = False
            m = sigma
            while m:
                low = m & -m
                if adj[low.bit_length() - 1] & tau:
                    crossing = True
                    break
                m ^= low
            if not crossing:
                return True
        if sub == 0:
            return False
        sub = (sub - 1) & rest


def equivalence_check(adj, n: int, max_card: int) -> bool:
    """One graph's construction-equivalence check at the mask level.

    Compares the odd-triangle face set with the involution quotient of the
    separated deleted join (the union mask of each clique pair), and
    cross-checks every face by direct two-clique bipartition search.
    """
    direct = set()
    for bucket in odd_face_masks(adj, n, max_card):
        direct.update(bucket)
    quotient = set()
    for bucket in sdj_pair_masks(adj, n, max_card):
        for sigma, tau in bucket:
            if sigma & tau:
                return False
            quotient.add(sigma | tau)
    if direct != quotient:
        return False
    for mask in direct:
        if not splits_into_two_cliques(adj, mask):
            return False
    return True


# ---------------------------------------------------------------- bitsliced sweep
#
# Graph g on n vertices has edge pairs[i] iff bit i of g is set, with pairs in
# lex order (0,1), (0,2), ..., (n-2,n-1).  A bitmap over graphs is a uint64
# array; bit j of word w stands for graph 64*w + j.  A face predicate built
# from edge bitmaps with AND/OR/XOR is thereby evaluated on all graphs at once.

SWEEP_MAX_N = 8
# words per chunk of the graph index space: 131072 graphs, 16 KB per bitmap
_SWEEP_CHUNK_WORDS = 1 << 11
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# bit j of word i is bit i of j: the first six edges vary within a word
_IN_WORD_EDGES = (
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
)


def sweep_words(n: int) -> int:
    """Words in a bitmap over all 2^C(n,2) graphs on n vertices (at least one)."""
    return max(1, (1 << (n * (n - 1) // 2)) >> 6)


def _edge_bitmaps(n: int, start: int, words: int) -> list[list]:
    """E[u][v] (u < v): bitmap of graphs with edge uv, for words start..start+words-1."""
    index = np.arange(start, start + words, dtype=np.uint64)
    edges = [[None] * n for _ in range(n)]
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if i < len(_IN_WORD_EDGES):
                edges[u][v] = np.full(words, _IN_WORD_EDGES[i], dtype=np.uint64)
            else:
                bit = (index >> np.uint64(i - len(_IN_WORD_EDGES))) & np.uint64(1)
                edges[u][v] = np.uint64(0) - bit
            i += 1
    return edges


def _odd_triangle(e_ab, e_ac, e_bc):
    """Graphs in which a triangle spans an odd number (1 or 3) of edges."""
    return e_ab ^ e_ac ^ e_bc


def _odd_bitmaps(n: int, edges) -> dict:
    """odd[S] for |S| >= 3: graphs in which every triple of S is odd.

    Every triple of S misses one of any four vertices of S, so for |S| >= 4
    odd[S] is the AND of odd[S - x] over the four lowest x in S.
    """
    odd = {}
    for s in range(1 << n):
        size = s.bit_count()
        if size < 3:
            continue
        verts = [v for v in range(n) if s >> v & 1]
        if size == 3:
            a, b, c = verts
            odd[s] = _odd_triangle(edges[a][b], edges[a][c], edges[b][c])
        else:
            w, x, y, z = verts[:4]
            acc = odd[s ^ (1 << w)] & odd[s ^ (1 << x)]
            acc &= odd[s ^ (1 << y)]
            acc &= odd[s ^ (1 << z)]
            odd[s] = acc
    return odd


def _neighbour_bitmaps(n: int, edges, ones):
    """full[v][X], none[v][X] for X within vertices 0..v-1: graphs in which v
    is adjacent to every vertex of X, resp. to none of them."""
    full, none = [], []
    for v in range(n):
        f, z = [ones], [ones]
        for x in range(1, 1 << v):
            low = x & -x
            e = edges[low.bit_length() - 1][v]
            f.append(f[x ^ low] & e)
            z.append(z[x ^ low] & ~e)
        full.append(f)
        none.append(z)
    return full, none


def _grow_splits(n: int, full, none, s: int, top: int, parts: dict):
    """Extend S (largest vertex top) by each larger vertex v in depth-first
    order.  parts maps A, with min S in A, to the graphs in which S is two
    cliques A and S - A with no edge across; v joins A when it is adjacent
    to all of A and to none of S - A, and joins S - A the other way round.
    Yields (S + v, its parts) for every extension."""
    for v in range(top + 1, n):
        bit = 1 << v
        grown = {}
        for a, p in parts.items():
            b = s ^ a
            joined = p & full[v][a]
            joined &= none[v][b]
            grown[a | bit] = joined
            apart = p & full[v][b]
            apart &= none[v][a]
            grown[a] = apart
        yield s | bit, grown
        yield from _grow_splits(n, full, none, s | bit, v, grown)


def sweep_face_predicates(n: int, start: int, words: int):
    """Yield (S, odd[S], split[S]) for every vertex set S with |S| >= 3, as
    bitmaps over the graphs of words start..start+words-1.

    odd[S]: every triple of S spans an odd number of edges (the odd-triangle
    face rule).  split[S]: S is two cliques with no edge across (the
    involution quotient of the separated deleted join), the OR over the
    partitions A + B = S with min S in A of clique(A), clique(B) and no edge
    between A and B.
    """
    ones = np.full(words, _ONES, dtype=np.uint64)
    edges = _edge_bitmaps(n, start, words)
    odd = _odd_bitmaps(n, edges)
    full, none = _neighbour_bitmaps(n, edges, ones)
    for m in range(n):
        for s, parts in _grow_splits(n, full, none, 1 << m, m, {1 << m: ones}):
            if s.bit_count() >= 3:
                split = np.zeros(words, dtype=np.uint64)
                for p in parts.values():
                    split |= p
                yield s, odd[s], split


def exhaustive_equivalence(n: int) -> int:
    """Number of graphs on n vertices (all 2^C(n,2)) whose odd-triangle face
    set differs from their two-clique split face set.

    Faces of one or two vertices belong to both sets for every graph, so only
    |S| >= 3 is compared.  The graph index space is walked in chunks of at
    most _SWEEP_CHUNK_WORDS words, so memory grows with the 2^n vertex sets
    but not with the 2^C(n,2) graphs.
    """
    if not 0 <= n <= SWEEP_MAX_N:
        raise ParameterError(f"exhaustive sweep supports 0 <= n <= {SWEEP_MAX_N}, got {n}")
    total = sweep_words(n)
    graphs = 1 << (n * (n - 1) // 2)
    failures = 0
    for start in range(0, total, _SWEEP_CHUNK_WORDS):
        words = min(_SWEEP_CHUNK_WORDS, total - start)
        bad = np.zeros(words, dtype=np.uint64)
        for _, odd, split in sweep_face_predicates(n, start, words):
            bad |= odd ^ split
        if graphs < 64:  # one partial word; its upper bits repeat graphs
            bad &= np.uint64((1 << graphs) - 1)
        failures += int(np.unpackbits(bad.view(np.uint8)).sum())
    return failures
