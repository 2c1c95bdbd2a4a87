"""Kernel backend selection: compiled core when available, pure Python otherwise.

The compiled core (`flagtwin._speedups`, Cython) handles ground sets of at
most 63 vertices with machine-word masks; anything larger, or any build
without the extension, runs on the pure-Python twin in `_kernel_py`.
`BACKEND` reports what was selected at import; `bench_kernels.py` in
benchmarks/ times the two against each other and checks they agree.

`exhaustive_equivalence` runs the numpy bitsliced sweep of `_kernel_py` on
every backend: it checks all graphs on n vertices at once and outruns the
compiled core's one-check-per-graph loop.
"""

from __future__ import annotations

import os

from . import _kernel_py as _py

if os.environ.get("FLAGTWIN_PURE_PYTHON"):
    _c = None
else:
    try:
        from . import _speedups as _c  # type: ignore[attr-defined]
    except ImportError:
        _c = None

BACKEND = "compiled" if _c is not None else "python"

_C_LIMIT = 63


def _use_c(n: int) -> bool:
    return _c is not None and n <= _C_LIMIT


def clique_masks(adj, n, max_size):
    if _use_c(n):
        return _c.clique_masks(list(adj), n, max_size)
    return _py.clique_masks(adj, n, max_size)


def odd_face_masks(adj, n, max_card):
    if _use_c(n):
        return _c.odd_face_masks(list(adj), n, max_card)
    return _py.odd_face_masks(adj, n, max_card)


def sdj_pair_masks(adj, n, max_card):
    if _use_c(n):
        return _c.sdj_pair_masks(list(adj), n, max_card)
    return _py.sdj_pair_masks(adj, n, max_card)


def sdj_face_counts(adj, n, max_card):
    if _use_c(n):
        return _c.sdj_face_counts(list(adj), n, max_card)
    return _py.sdj_face_counts(adj, n, max_card)


def splits_into_two_cliques(adj, mask):
    n = len(adj)
    if _use_c(n):
        return _c.splits_into_two_cliques(list(adj), mask)
    return _py.splits_into_two_cliques(adj, mask)


def equivalence_check(adj, n, max_card):
    # the compiled check uses a 2^n scratch table, so it caps n lower
    if _c is not None and n <= 20:
        return _c.equivalence_check(list(adj), n, max_card)
    return _py.equivalence_check(adj, n, max_card)


def exhaustive_equivalence(n):
    return _py.exhaustive_equivalence(n)
