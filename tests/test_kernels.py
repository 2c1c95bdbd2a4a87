"""Backend agreement: the compiled core must match the pure-Python twin bit
for bit on every kernel, and both must match brute-force enumeration.  The
bitsliced exhaustive sweep is checked graph by graph against the per-graph
enumerators."""

import pytest

from flagtwin import _kernel_py as py
from flagtwin import graphs as gr
from flagtwin import kernels
from flagtwin.errors import ParameterError

import oracles

try:
    from flagtwin import _speedups as c_mod
except ImportError:
    c_mod = None

needs_compiled = pytest.mark.skipif(c_mod is None, reason="compiled core not built")


def _random_adj(n, p, seed):
    return list(gr.sample_gnp(n, p, seed).adj)


@needs_compiled
@pytest.mark.parametrize("seed", range(40))
def test_backends_agree_random(seed):
    n = 3 + seed % 9
    adj = _random_adj(n, 0.45, seed)
    assert py.clique_masks(adj, n, n) == c_mod.clique_masks(adj, n, n)
    assert py.odd_face_masks(adj, n, n) == c_mod.odd_face_masks(adj, n, n)
    assert py.sdj_pair_masks(adj, n, n) == c_mod.sdj_pair_masks(adj, n, n)
    assert py.sdj_face_counts(adj, n, n) == c_mod.sdj_face_counts(adj, n, n)
    assert py.equivalence_check(adj, n, n) == c_mod.equivalence_check(adj, n, n)
    full = (1 << n) - 1
    for mask in range(0, full + 1, 7):
        assert py.splits_into_two_cliques(adj, mask) == c_mod.splits_into_two_cliques(adj, mask)


@needs_compiled
def test_backends_agree_exhaustive_small():
    for n in (1, 2, 3, 4):
        assert py.exhaustive_equivalence(n) == c_mod.exhaustive_equivalence(n) == 0
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for bits in range(1 << 6):
        adj = [0] * 4
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        assert py.odd_face_masks(adj, 4, 4) == c_mod.odd_face_masks(adj, 4, 4)
        assert py.sdj_pair_masks(adj, 4, 4) == c_mod.sdj_pair_masks(adj, 4, 4)


@pytest.mark.parametrize("seed", range(10))
def test_cliques_match_brute_force(seed):
    g = gr.sample_gnp(9, 0.5, seed)
    by_size = kernels.clique_masks(g.adj, g.n, 4)
    got = []
    for size in range(1, 5):
        for mask in by_size[size]:
            got.append(tuple(v for v in range(g.n) if mask >> v & 1))
    assert sorted(got) == sorted(oracles.cliques_brute(g, 4))


@pytest.mark.parametrize("seed", range(10))
def test_odd_faces_match_brute_force(seed):
    g = gr.sample_gnp(8, 0.4, 100 + seed)
    by_card = kernels.odd_face_masks(g.adj, g.n, 5)
    got = set()
    for bucket in by_card[1:]:
        for mask in bucket:
            got.add(tuple(v for v in range(g.n) if mask >> v & 1))
    assert got == oracles.odd_faces_brute(g, 5)


@pytest.mark.parametrize("seed", range(10))
def test_odd_rule_equals_split_rule(seed):
    # the two characterizations of the same face set
    g = gr.sample_gnp(8, 0.5, 200 + seed)
    assert oracles.odd_faces_brute(g, 8) == oracles.split_faces_brute(g, 8)


def test_lex_order_within_each_dimension():
    g = gr.sample_gnp(10, 0.5, 3)
    by_size = kernels.clique_masks(g.adj, g.n, 5)
    for bucket in by_size[1:]:
        faces = [tuple(v for v in range(g.n) if m >> v & 1) for m in bucket]
        assert faces == sorted(faces)


# ---------------------------------------------------------------- bitsliced sweep


def _graph_adj(n, g):
    """Adjacency of graph g on n vertices: edge i (lex order of pairs) iff bit i of g."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i, (u, v) in enumerate(pairs):
        if g >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@pytest.mark.parametrize("n", range(6))
def test_sweep_predicates_match_enumerators_graph_by_graph(n):
    words = py.sweep_words(n)
    preds = {}
    for s, odd, split in py.sweep_face_predicates(n, 0, words):
        assert s not in preds
        preds[s] = (int.from_bytes(odd.tobytes(), "little"),
                    int.from_bytes(split.tobytes(), "little"))
    assert sorted(preds) == [s for s in range(1 << n) if s.bit_count() >= 3]
    for g in range(1 << (n * (n - 1) // 2)):
        adj = _graph_adj(n, g)
        odd_faces = {m for bucket in py.odd_face_masks(adj, n, n) for m in bucket}
        quotient = {a | b for bucket in py.sdj_pair_masks(adj, n, n) for a, b in bucket}
        for s, (odd, split) in preds.items():
            assert bool(odd >> g & 1) == (s in odd_faces), (n, g, s)
            assert bool(split >> g & 1) == (s in quotient), (n, g, s)


@pytest.mark.parametrize("n", range(4))
def test_sweep_small_n_has_no_failures(n):
    # n <= 3 has fewer than 64 graphs: one partial word
    assert kernels.exhaustive_equivalence(n) == 0


@pytest.mark.parametrize("n", [-1, 9])
def test_sweep_rejects_n_out_of_range_before_allocating(n, monkeypatch):
    def no_allocation(*args):
        raise AssertionError("allocated before the range check")

    monkeypatch.setattr(py, "_edge_bitmaps", no_allocation)
    with pytest.raises(ParameterError):
        kernels.exhaustive_equivalence(n)


def test_sweep_counts_failures_of_a_wrong_rule(monkeypatch):
    # the even-triangle rule disagrees with the two-clique split on every
    # graph with a vertex triple, and the partial word counts each graph once
    monkeypatch.setattr(py, "_odd_triangle", lambda ab, ac, bc: ~(ab ^ ac ^ bc))
    assert [kernels.exhaustive_equivalence(n) for n in range(6)] == [0, 0, 0, 8, 64, 1024]


def test_sweep_chunks_agree(monkeypatch):
    # n=6 spans 512 words; chunks of 4 words exercise every chunk offset
    monkeypatch.setattr(py, "_odd_triangle", lambda ab, ac, bc: ab & ~ac)
    whole = kernels.exhaustive_equivalence(6)
    monkeypatch.setattr(py, "_SWEEP_CHUNK_WORDS", 4)
    assert kernels.exhaustive_equivalence(6) == whole > 0
