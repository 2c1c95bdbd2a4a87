"""Radon-type witnesses: pairs of non-adjacent cliques whose embedded convex
hulls intersect.

Everything here is exact: embeddings are rational points, hull intersection
is a phase-1 simplex over Fractions with Bland's rule (no cycling, no
epsilons), and any returned witness re-verifies by exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, TextIO

from . import kernels
from .errors import CertificateError, DimensionError, FormatError, ParameterError
from .graphs import Graph
from .rng import Rng

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Embedding:
    """One rational point per vertex, all of the same dimension."""

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionError("all points must have the embedding dimension")

    @property
    def n(self) -> int:
        return len(self.points)


def sample_embedding(n: int, dim: int, seed: int, denominator: int = 10**4) -> Embedding:
    """Vertex points with coordinates k/denominator, k uniform in 0..denominator."""
    if denominator <= 0:
        raise ParameterError("denominator must be positive")
    rng = Rng(seed)
    pts = tuple(
        tuple(Fraction(rng.below(denominator + 1), denominator) for _ in range(dim))
        for _ in range(n)
    )
    return Embedding(dim, pts)


def write_embedding(emb: Embedding, out: TextIO) -> None:
    """Text format: "n d" then one line per vertex of d rationals "p/q"."""
    out.write(f"{emb.n} {emb.dim}\n")
    for p in emb.points:
        out.write(" ".join(f"{x.numerator}/{x.denominator}" for x in p) + "\n")


def read_embedding(inp: TextIO) -> Embedding:
    """Inverse of write_embedding; raises FormatError on any malformed input."""
    header = inp.readline().split()
    if len(header) != 2:
        raise FormatError("embedding header must be 'n d'")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError("embedding header must contain two integers") from exc
    if n < 0 or d < 0:
        raise FormatError("embedding header values must be nonnegative")
    pts = []
    for _ in range(n):
        line = inp.readline()
        if not line:  # a point line may be empty (d = 0) but not missing
            raise FormatError(f"expected {n} point lines")
        parts = line.split()
        if len(parts) != d:
            raise FormatError(f"expected {d} rationals per line")
        pts.append(tuple(_rational(tok) for tok in parts))
    return Embedding(d, tuple(pts))


def _rational(tok: str) -> Fraction:
    num, slash, den = tok.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {tok!r}; expected p or p/q with q != 0") from exc


# ---------------------------------------------------------------- clique pairs


def nonadjacent_clique_pairs(g: Graph, max_size: int) -> Iterator[tuple[tuple, tuple]]:
    """Unordered pairs of disjoint cliques (each of size <= max_size) with no
    edge between them, streamed lazily in lexicographic order of
    (|A|+|B|, A, B) with A the lex-smaller clique."""
    if max_size < 1:
        raise ParameterError("max_size must be at least 1")
    by_size = kernels.clique_masks(g.adj, g.n, max_size)
    cliques = []  # (face tuple, mask)
    for size in range(1, max_size + 1):
        for mask in by_size[size]:
            face = _mask_face(mask)
            cliques.append((face, mask))
    cliques.sort(key=lambda t: t[0])
    closed = {}
    for face, mask in cliques:
        cn = mask
        for v in face:
            cn |= g.adj[v]
        closed[mask] = cn
    for total in range(2, 2 * max_size + 1):
        for a_face, a_mask in cliques:
            want = total - len(a_face)
            if want < 1 or want > max_size:
                continue
            blocked = closed[a_mask]
            for b_face, b_mask in cliques:
                if len(b_face) != want or b_face <= a_face:
                    continue
                if b_mask & blocked:
                    continue
                yield (a_face, b_face)


# ---------------------------------------------------------------- exact LP


def _phase1_simplex(a_rows: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b, x >= 0 by phase-1 simplex with Bland's rule.

    Returns a feasible x or None.  All arithmetic exact over Fractions.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    # make b nonnegative
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in a_rows[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(a_rows[i]))
            rhs.append(b[i])
    # tableau with artificial variables n..n+m-1
    width = n + m
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # minimize the sum of artificials: with the artificial basis, the reduced
    # cost of original column j is -(column sum) and of each artificial is 0
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(n):
            cost[j] -= tab[i][j]
        cost[width] -= tab[i][width]
    while True:
        enter = -1
        for j in range(width):  # Bland: first improving column
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return None  # unbounded phase-1 cannot happen, defensive
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave] + [])]
        basis[leave] = enter
    objective = -cost[width]
    if objective != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][width]
    return x


def hulls_intersect(
    p_points: Sequence[Point], q_points: Sequence[Point]
) -> Optional[tuple[Point, tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Exact convex-hull intersection test.

    Feasibility of  sum(lam_i p_i) = sum(mu_j q_j), sum lam = sum mu = 1,
    lam, mu >= 0, solved in rational arithmetic.  Returns (common point,
    lam, mu) or None.
    """
    if not p_points or not q_points:
        raise ParameterError("point lists must be nonempty")
    d = len(p_points[0])
    for pt in list(p_points) + list(q_points):
        if len(pt) != d:
            raise DimensionError("dimension mismatch between points")
    np_, nq = len(p_points), len(q_points)
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k in range(d):
        rows.append(
            [Fraction(p[k]) for p in p_points] + [-Fraction(q[k]) for q in q_points]
        )
        b.append(Fraction(0))
    rows.append([Fraction(1)] * np_ + [Fraction(0)] * nq)
    b.append(Fraction(1))
    rows.append([Fraction(0)] * np_ + [Fraction(1)] * nq)
    b.append(Fraction(1))
    x = _phase1_simplex(rows, b)
    if x is None:
        return None
    lam = tuple(x[:np_])
    mu = tuple(x[np_:])
    point = tuple(
        sum((lam[i] * p_points[i][k] for i in range(np_)), Fraction(0)) for k in range(d)
    )
    # exact re-verification of the certificate; a raise, not an assert, so
    # that it also runs under python -O
    other = tuple(
        sum((mu[j] * q_points[j][k] for j in range(nq)), Fraction(0)) for k in range(d)
    )
    if not (point == other and sum(lam) == 1 and sum(mu) == 1
            and all(w >= 0 for w in lam) and all(w >= 0 for w in mu)):
        raise CertificateError("simplex solution fails exact re-verification")
    return point, lam, mu


# ---------------------------------------------------------------- witness search


@dataclass(frozen=True)
class RadonWitness:
    clique_a: tuple[int, ...]
    clique_b: tuple[int, ...]
    point: Point
    weights_a: tuple[Fraction, ...]
    weights_b: tuple[Fraction, ...]


def radon_witness(g: Graph, emb: Embedding, max_clique_size: int) -> Optional[RadonWitness]:
    """First non-adjacent clique pair (in stream order) whose embedded hulls
    intersect; None after exhausting all pairs up to max_clique_size."""
    if emb.n != g.n:
        raise ParameterError("embedding must cover the vertex set")
    for a_face, b_face in nonadjacent_clique_pairs(g, max_clique_size):
        hit = hulls_intersect(
            [emb.points[v] for v in a_face], [emb.points[v] for v in b_face]
        )
        if hit is not None:
            point, lam, mu = hit
            return RadonWitness(a_face, b_face, point, lam, mu)
    return None


def verify_witness(g: Graph, emb: Embedding, w: RadonWitness) -> bool:
    """Exact re-verification: cliqueness, disjointness, non-adjacency, convex
    weights, and coordinatewise equality of the two combinations."""
    a, b = w.clique_a, w.clique_b
    if set(a) & set(b):
        return False
    for verts in (a, b):
        for i, u in enumerate(verts):
            for x in verts[i + 1 :]:
                if not g.has_edge(u, x):
                    return False
    for u in a:
        for x in b:
            if g.has_edge(u, x):
                return False
    if len(w.weights_a) != len(a) or len(w.weights_b) != len(b):
        return False
    if sum(w.weights_a) != 1 or sum(w.weights_b) != 1:
        return False
    if any(x < 0 for x in w.weights_a) or any(x < 0 for x in w.weights_b):
        return False
    d = emb.dim
    for k in range(d):
        pa = sum((w.weights_a[i] * emb.points[a[i]][k] for i in range(len(a))), Fraction(0))
        pb = sum((w.weights_b[j] * emb.points[b[j]][k] for j in range(len(b))), Fraction(0))
        if pa != pb or pa != w.point[k]:
            return False
    return True


def _mask_face(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
