import io
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagtwin import graphs as gr
from flagtwin import radon as rd
from flagtwin.errors import CertificateError, DimensionError, ParameterError

import oracles


# ---------------------------------------------------------------- hull intersection


def test_single_points():
    assert rd.hulls_intersect([(F(0),)], [(F(0),)]) is not None
    assert rd.hulls_intersect([(F(0),)], [(F(1),)]) is None


def test_crossing_segments_exact_point():
    point, lam, mu = rd.hulls_intersect(
        [(F(0), F(0)), (F(2), F(0))], [(F(1), F(-1)), (F(1), F(1))]
    )
    assert point == (F(1), F(0))
    assert sum(lam) == 1 and sum(mu) == 1


def test_touching_hulls_count_as_intersecting():
    assert rd.hulls_intersect([(F(0),), (F(1),)], [(F(1),), (F(2),)]) is not None


def test_bad_simplex_certificate_raises(monkeypatch):
    # lam = mu = 1 puts the two hulls' points at 0 and 1: not a common point
    monkeypatch.setattr(rd, "_phase1_simplex", lambda rows, b: [F(1), F(1)])
    with pytest.raises(CertificateError):
        rd.hulls_intersect([(F(0),)], [(F(1),)])


def test_bad_simplex_certificate_raises_under_optimize():
    script = (
        "from fractions import Fraction as F\n"
        "from flagtwin import radon as rd\n"
        "from flagtwin.errors import CertificateError\n"
        "rd._phase1_simplex = lambda rows, b: [F(1), F(1)]\n"
        "try:\n"
        "    rd.hulls_intersect([(F(0),)], [(F(1),)])\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    src = str(Path(rd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        rd.hulls_intersect([(F(0), F(0))], [(F(1),)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interval_overlap_oracle_1d(data):
    def pts(name):
        raw = data.draw(
            st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 8)), min_size=1, max_size=4),
            label=name,
        )
        return [(F(a, b),) for a, b in raw]

    p, q = pts("p"), pts("q")
    expect = max(min(p)[0], min(q)[0]) <= min(max(p)[0], max(q)[0])
    assert (rd.hulls_intersect(p, q) is not None) == expect


def test_2d_triangle_containment():
    tri = [(F(0), F(0)), (F(4), F(0)), (F(0), F(4))]
    inside = [(F(1), F(1))]
    outside = [(F(5), F(5))]
    assert rd.hulls_intersect(tri, inside) is not None
    assert rd.hulls_intersect(tri, outside) is None


# ---------------------------------------------------------------- clique pair stream


def _brute_pairs(g, max_size):
    faces = oracles.cliques_brute(g, max_size)
    return {
        (a, b)
        for a in faces
        for b in faces
        if a < b
        and not set(a) & set(b)
        and not any(g.has_edge(u, v) for u in a for v in b)
    }


def test_pairs_k4_empty():
    assert list(rd.nonadjacent_clique_pairs(gr.complete_graph(4), 4)) == []


def test_pairs_edgeless_singletons():
    got = list(rd.nonadjacent_clique_pairs(gr.Graph(3, (0, 0, 0)), 1))
    assert got == [((0,), (1,)), ((0,), (2,)), ((1,), (2,))]


@pytest.mark.parametrize("seed", range(8))
def test_pairs_match_exhaustive_scan(seed):
    n = 10 if seed < 4 else 8
    g = gr.sample_gnp(n, 0.45, 40 + seed)
    got = list(rd.nonadjacent_clique_pairs(g, 3))
    assert set(got) == _brute_pairs(g, 3)
    assert len(got) == len(set(got))


def test_pairs_stream_order():
    g = gr.cycle_graph(5)
    got = list(rd.nonadjacent_clique_pairs(g, 2))
    key = [(len(a) + len(b), a, b) for a, b in got]
    assert key == sorted(key)


# ---------------------------------------------------------------- witnesses


def test_constant_embedding_gives_singleton_witness():
    g = gr.cycle_graph(5)
    emb = rd.Embedding(1, tuple((F(0),) for _ in range(5)))
    w = rd.radon_witness(g, emb, 3)
    assert w is not None and len(w.clique_a) == 1 and len(w.clique_b) == 1
    assert rd.verify_witness(g, emb, w)


def test_complete_graph_has_no_witness():
    g = gr.complete_graph(6)
    emb = rd.sample_embedding(6, 1, 5)
    assert rd.radon_witness(g, emb, 6) is None


def test_witness_reverifies_on_random_instances():
    found = 0
    for seed in range(15):
        g = gr.sample_gnp(25, 25**-0.7, 2200 + seed)
        emb = rd.sample_embedding(25, 1, seed)
        w = rd.radon_witness(g, emb, 4)
        if w is not None:
            found += 1
            assert rd.verify_witness(g, emb, w)
    assert found >= 10


def test_witness_requires_full_embedding():
    g = gr.cycle_graph(5)
    emb = rd.sample_embedding(4, 1, 1)
    with pytest.raises(ParameterError):
        rd.radon_witness(g, emb, 2)


def test_verify_rejects_corrupted_witness():
    g = gr.cycle_graph(5)
    emb = rd.Embedding(1, tuple((F(v),) for v in (0, 2, 1, 3, 4)))
    w = rd.radon_witness(g, emb, 3)
    assert w is not None
    bad = rd.RadonWitness(w.clique_a, w.clique_b, w.point, w.weights_a[:-1] + (F(2),), w.weights_b)
    assert not rd.verify_witness(g, emb, bad)
    adjacent = rd.RadonWitness((0,), (1,), (F(0),), (F(1),), (F(1),))
    assert not rd.verify_witness(g, emb, adjacent)


def test_witness_determinism():
    g = gr.sample_gnp(20, 0.1, 77)
    emb = rd.sample_embedding(20, 1, 8)
    w1 = rd.radon_witness(g, emb, 3)
    w2 = rd.radon_witness(g, emb, 3)
    assert w1 == w2


# ---------------------------------------------------------------- embeddings


def test_embedding_io_roundtrip():
    emb = rd.sample_embedding(12, 2, 31)
    buf = io.StringIO()
    rd.write_embedding(emb, buf)
    buf.seek(0)
    assert rd.read_embedding(buf) == emb


def test_embedding_denominator_bound():
    emb = rd.sample_embedding(30, 1, 2, denominator=100)
    for p in emb.points:
        assert 0 <= p[0] <= 1 and p[0].denominator <= 100


def test_embedding_dimension_consistency():
    with pytest.raises(DimensionError):
        rd.Embedding(2, ((F(0),),))
