"""Simplicial complexes built from graphs and the double-cover machinery.

A Complex stores faces grouped by dimension as sorted vertex tuples, unique
and lexicographically ordered within each dimension, so face indices are
stable and boundary matrices deterministic.  Every constructor takes a
mandatory max_dim cutoff: homology in degree k only needs faces up to k+1,
and the cutoff keeps memory bounded.

Signed complexes (produced by separated_deleted_join) live on 2n ground
vertices with the fixed encoding  minus copy of b -> 2b,  plus copy -> 2b+1,
so the sign-swapping involution is x -> x XOR 1 and the involution quotient
maps x -> x // 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Optional, TextIO

from . import kernels
from .errors import (
    DimensionError,
    FaceNotFoundError,
    FormatError,
    ParameterError,
    QuotientError,
)
from .graphs import Graph

Face = tuple[int, ...]


def _mask_to_face(mask: int) -> Face:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _face_to_mask(face: Iterable[int]) -> int:
    m = 0
    for v in face:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Complex:
    """Faces grouped by dimension; faces_by_dim[k] is a lex-sorted tuple of k-faces."""

    n: int
    max_dim: int
    faces_by_dim: tuple[tuple[Face, ...], ...]
    signed: bool = False

    @cached_property
    def _face_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(faces) for faces in self.faces_by_dim)

    @cached_property
    def _indices(self) -> tuple[dict, ...]:
        return tuple({f: i for i, f in enumerate(faces)} for faces in self.faces_by_dim)

    def faces(self, k: int) -> tuple[Face, ...]:
        if 0 <= k < len(self.faces_by_dim):
            return self.faces_by_dim[k]
        return ()

    def face_count(self, k: int) -> int:
        return len(self.faces(k))

    def total_faces(self) -> int:
        return sum(len(fs) for fs in self.faces_by_dim)

    def has_face(self, face: Face) -> bool:
        k = len(face) - 1
        return 0 <= k < len(self.faces_by_dim) and face in self._face_sets[k]

    def face_index(self, face: Face) -> int:
        k = len(face) - 1
        try:
            return self._indices[k][face]
        except (IndexError, KeyError):
            raise FaceNotFoundError(face) from None

    @property
    def dim(self) -> int:
        """Dimension of the largest stored face (-1 for the empty complex)."""
        for k in range(len(self.faces_by_dim) - 1, -1, -1):
            if self.faces_by_dim[k]:
                return k
        return -1

    def all_faces(self) -> Iterable[Face]:
        for faces in self.faces_by_dim:
            yield from faces


def _from_face_iter(n: int, faces: Iterable[Face], max_dim: int, signed: bool) -> Complex:
    by_dim: list[set[Face]] = [set() for _ in range(max_dim + 1)]
    for f in faces:
        k = len(f) - 1
        if 0 <= k <= max_dim:
            by_dim[k].add(tuple(f))
    return Complex(n, max_dim, tuple(tuple(sorted(s)) for s in by_dim), signed)


def _from_mask_lists(n: int, by_card: list[list[int]], max_dim: int, signed: bool) -> Complex:
    dims: list[tuple[Face, ...]] = []
    for card in range(1, max_dim + 2):
        masks = by_card[card] if card < len(by_card) else []
        dims.append(tuple(sorted(_mask_to_face(m) for m in masks)))
    return Complex(n, max_dim, tuple(dims), signed)


def validate_closure(c: Complex) -> None:
    """Raise FormatError unless every (k-1)-subface of a stored face is stored."""
    for k in range(1, len(c.faces_by_dim)):
        lower = c._face_sets[k - 1]
        for f in c.faces_by_dim[k]:
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                if sub not in lower:
                    raise FormatError(f"face {f} present but subface {sub} missing")


def close_downward(faces: Iterable[Face]) -> set[Face]:
    """All nonempty subsets of the given faces."""
    out: set[Face] = set()
    for f in faces:
        f = tuple(sorted(f))
        m = (1 << len(f)) - 1
        while m:
            out.add(tuple(f[i] for i in range(len(f)) if m >> i & 1))
            m -= 1
    return out


# ---------------------------------------------------------------- constructors


def flag_complex(g: Graph, max_dim: int) -> Complex:
    """Clique complex of g: k-faces are exactly the (k+1)-cliques, k <= max_dim."""
    if max_dim < 0:
        raise DimensionError("max_dim must be nonnegative")
    by_size = kernels.clique_masks(g.adj, g.n, max_dim + 1)
    return _from_mask_lists(g.n, by_size, max_dim, signed=False)


def two_clique_complex(g: Graph, max_dim: int) -> Complex:
    """Complex with complete 1-skeleton whose triangles span an odd number of
    g-edges; higher faces are present iff all their triangles are.

    Equivalently: faces are the vertex sets that split into two disjoint
    cliques of g with no edge between them.
    """
    if max_dim < 0:
        raise DimensionError("max_dim must be nonnegative")
    by_card = kernels.odd_face_masks(g.adj, g.n, max_dim + 1)
    return _from_mask_lists(g.n, by_card, max_dim, signed=False)


@dataclass(frozen=True)
class Involution:
    """Fixed-point-free simplicial involution given as a vertex permutation."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = self.mapping
        for v, w in enumerate(m):
            if not 0 <= w < len(m) or m[w] != v:
                raise ParameterError("mapping must be a self-inverse permutation")
            if w == v:
                raise ParameterError(f"involution fixes vertex {v}")

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def apply(self, face: Face) -> Face:
        return tuple(sorted(self.mapping[v] for v in face))


def sign_swap_involution(n_pairs: int) -> Involution:
    """The involution swapping minus/plus copies under the 2b / 2b+1 encoding."""
    return Involution(tuple(x ^ 1 for x in range(2 * n_pairs)))


def separated_deleted_join(g: Graph, max_dim: int) -> tuple[Complex, Involution]:
    """Join of two signed copies of the clique complex of g, keeping sigma*tau
    only when the cliques are disjoint and have no g-edge between them.

    Returns the complex on 2n signed vertices and its sign-swapping involution.
    """
    if max_dim < 0:
        raise DimensionError("max_dim must be nonnegative")
    by_card = kernels.sdj_pair_masks(g.adj, g.n, max_dim + 1)
    dims: list[tuple[Face, ...]] = []
    for card in range(1, max_dim + 2):
        faces = []
        for sigma, tau in by_card[card] if card < len(by_card) else []:
            face = [2 * v for v in _mask_to_face(sigma)]
            face += [2 * v + 1 for v in _mask_to_face(tau)]
            faces.append(tuple(sorted(face)))
        dims.append(tuple(sorted(faces)))
    cx = Complex(2 * g.n, max_dim, tuple(dims), signed=True)
    return cx, sign_swap_involution(g.n)


def minus_count(face: Face) -> int:
    """Number of minus (even-encoded) vertices of a signed face."""
    return sum(1 for v in face if v % 2 == 0)


def plus_count(face: Face) -> int:
    return sum(1 for v in face if v % 2 == 1)


def quotient_by_free_involution(c: Complex, inv: Involution) -> Complex:
    """Collapse each involution orbit to a vertex and map faces through.

    Requires the involution to be simplicial on c, fixed-point free, and to
    keep every vertex at combinatorial distance >= 3 from its image in the
    1-skeleton; all three are verified, and the per-dimension face counts of
    the result are checked to be exactly half the input's.
    """
    if len(inv.mapping) != c.n:
        raise ParameterError("involution ground set does not match complex")
    for faces in c.faces_by_dim:
        for f in faces:
            if not c.has_face(inv.apply(f)):
                raise QuotientError(f"involution is not simplicial: image of {f} missing")
    adj = [0] * c.n
    for u, v in c.faces(1):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for v in range(c.n):
        w = inv(v)
        if adj[v] >> w & 1:
            raise QuotientError(f"vertices {v} and {w} are at distance 1 under the involution")
        if adj[v] & adj[w]:
            raise QuotientError(f"vertices {v} and {w} are at distance 2 under the involution")
    reps = sorted({min(v, inv(v)) for v in range(c.n)})
    orbit_id = {}
    for i, r in enumerate(reps):
        orbit_id[r] = i
        orbit_id[inv(r)] = i
    dims: list[tuple[Face, ...]] = []
    for k, faces in enumerate(c.faces_by_dim):
        images = {tuple(sorted(orbit_id[v] for v in f)) for f in faces}
        for f in images:
            if len(f) != k + 1 or len(set(f)) != k + 1:
                raise QuotientError(f"face image {f} collapsed a dimension")
        if 2 * len(images) != len(faces):
            raise QuotientError(
                f"dimension {k}: {len(faces)} faces quotient to {len(images)}, not half"
            )
        dims.append(tuple(sorted(images)))
    return Complex(len(reps), c.max_dim, tuple(dims), signed=False)


def check_construction_equivalence(g: Graph, max_dim: Optional[int] = None) -> bool:
    """True iff the involution quotient of the separated deleted join and the
    odd-triangle complex have identical face sets up to max_dim, with every
    face additionally certified by a direct two-clique bipartition search.
    """
    if max_dim is None:
        max_dim = max(g.n - 1, 0)
    return kernels.equivalence_check(g.adj, g.n, max_dim + 1)


# ---------------------------------------------------------------- derived complexes


def link(c: Complex, face: Face) -> Complex:
    """Link of a face: all faces disjoint from it whose union with it is a face."""
    face = tuple(sorted(face))
    if not c.has_face(face):
        raise FaceNotFoundError(face)
    fset = set(face)
    new_max = c.max_dim - len(face)
    result: list[Face] = []
    for k in range(len(face), len(c.faces_by_dim)):
        for g in c.faces_by_dim[k]:
            if fset.issubset(g):
                rest = tuple(v for v in g if v not in fset)
                if rest:
                    result.append(rest)
    return _from_face_iter(c.n, result, max(new_max, 0), c.signed)


def bidegree_subcomplex(c: Complex, k: int, l: int) -> Complex:
    """Downward closure of all faces with exactly k minus and l plus vertices."""
    if not c.signed:
        raise ParameterError("complex carries no sign labels")
    if k < 0 or l < 0:
        raise ParameterError("sign counts must be nonnegative")
    card = k + l
    if card == 0 or card - 1 > c.max_dim:
        return Complex(c.n, max(card - 1, 0), tuple(() for _ in range(max(card, 1))), True)
    generators = [f for f in c.faces(card - 1) if minus_count(f) == k]
    closure = close_downward(generators)
    return _from_face_iter(c.n, closure, card - 1, True)


def f_vector(c: Complex) -> tuple[tuple[int, ...], int]:
    """Face counts per dimension and the (unreduced) Euler characteristic.

    The empty face is not counted; euler = sum of (-1)^i f_i.
    """
    counts = tuple(len(faces) for faces in c.faces_by_dim)
    euler = sum((-1) ** i * f for i, f in enumerate(counts))
    return counts, euler


def expected_face_count(n: int, p: float, i: int) -> Fraction:
    """Expected i-face count of the separated deleted join of a G(n, p) clique
    complex, evaluated exactly as the unordered-pair sum

        sum over k <= l, k+l = i+1 of  2 C(n,k) C(n-k,l) p^(C(k,2)+C(l,2)) (1-p)^(k l).

    Evaluated in exact rational arithmetic on the binary value of p.  The
    leading factor 2 is kept on the symmetric k = l terms as printed; the
    Monte Carlo `fvector` experiment surfaces the resulting factor-2 excess on
    those terms rather than correcting it here.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    if i < 0:
        raise DimensionError("face dimension must be nonnegative")
    pf = Fraction(p)
    s = i + 1
    total = Fraction(0)
    for k in range(0, s // 2 + 1):
        l = s - k
        if l < k:
            continue
        total += (
            2
            * comb(n, k)
            * comb(n - k, l)
            * pf ** (comb(k, 2) + comb(l, 2))
            * (1 - pf) ** (k * l)
        )
    return total


# ---------------------------------------------------------------- text format


def write_complex(c: Complex, out: TextIO) -> None:
    """Text format: "n maxDim", then per dimension a "dim k count" line followed
    by one face per line as space-separated sorted vertex ids."""
    out.write(f"{c.n} {c.max_dim}\n")
    for k in range(c.max_dim + 1):
        faces = c.faces(k)
        out.write(f"dim {k} {len(faces)}\n")
        for f in faces:
            out.write(" ".join(str(v) for v in f) + "\n")


def read_complex(inp: TextIO) -> Complex:
    """Inverse of write_complex; validates sortedness, uniqueness, ranges, and
    downward closure.  Sign labels are not part of the text format, so a
    signed complex round-trips with signed=False."""
    header = inp.readline().split()
    if len(header) != 2:
        raise FormatError("complex header must be 'n maxDim'")
    n, max_dim = _ints(header, "complex header must contain two integers")
    if n < 0 or max_dim < 0:
        raise FormatError("complex header values must be nonnegative")
    dims: list[tuple[Face, ...]] = []
    for k in range(max_dim + 1):
        parts = inp.readline().split()
        if len(parts) != 3 or parts[0] != "dim":
            raise FormatError(f"expected 'dim {k} count' line")
        dim, count = _ints(parts[1:], f"expected 'dim {k} count' line")
        if dim != k or count < 0:
            raise FormatError(f"expected 'dim {k} count' line")
        faces = []
        for _ in range(count):
            face = _ints(inp.readline().split(), "face lines must hold integers")
            if len(face) != k + 1:
                raise FormatError(f"face {face} has wrong cardinality for dimension {k}")
            if list(face) != sorted(set(face)):
                raise FormatError(f"face {face} must be strictly increasing")
            if face and not (0 <= face[0] and face[-1] < n):
                raise FormatError(f"face {face} out of range")
            faces.append(face)
        if sorted(faces) != faces or len(set(faces)) != len(faces):
            raise FormatError(f"faces of dimension {k} must be unique and sorted")
        dims.append(tuple(faces))
    c = Complex(n, max_dim, tuple(dims))
    validate_closure(c)
    return c


def _ints(tokens: list[str], message: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in tokens)
    except ValueError as exc:
        raise FormatError(message) from exc
