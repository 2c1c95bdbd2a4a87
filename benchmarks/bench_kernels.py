#!/usr/bin/env python3
"""Benchmark the compiled enumeration core against the pure-Python twin.

Runs each kernel on representative workloads, checks the two backends return
identical results, and prints wall times plus speedups.  Without the compiled
core it times the pure-Python backend alone.  Usage:

    python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import sys
import time

from flagtwin import _kernel_py as py_kernel
from flagtwin import graphs as gr

try:
    from flagtwin import _speedups as c_kernel
except ImportError:
    c_kernel = None


def _time(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _norm(value):
    if isinstance(value, list) and value and isinstance(value[0], list):
        return [sorted(v) for v in value]
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    dense = gr.sample_gnp(40, 0.5, 1)
    sparse = gr.sample_gnp(24, 24**-0.7, 2)
    mid = gr.sample_gnp(30, 0.4, 3)

    workloads = [
        ("cliques G(40,.5) size<=5", lambda k: k.clique_masks(list(dense.adj), 40, 5)),
        ("odd faces G(24,sparse) card<=5", lambda k: k.odd_face_masks(list(sparse.adj), 24, 5)),
        ("join pairs G(24,sparse) card<=5", lambda k: k.sdj_pair_masks(list(sparse.adj), 24, 5)),
        ("join counts G(30,.4) card<=4", lambda k: k.sdj_face_counts(list(mid.adj), 30, 4)),
        ("equivalence G(12,.5)", lambda k: k.equivalence_check(list(gr.sample_gnp(12, 0.5, 4).adj), 12, 12)),
        ("exhaustive equivalence n=6", lambda k: k.exhaustive_equivalence(6)),
    ]

    if c_kernel is None:
        print("compiled core not built; timing the pure-Python backend alone")
        print(f"{'workload':38} {'python':>10}")
        for name, fn in workloads:
            t_py, _ = _time(lambda: fn(py_kernel), args.repeat)
            print(f"{name:38} {t_py * 1e3:9.2f}ms")
        return 0

    print(f"{'workload':38} {'python':>10} {'compiled':>10} {'speedup':>9}")
    for name, fn in workloads:
        t_py, r_py = _time(lambda: fn(py_kernel), args.repeat)
        t_c, r_c = _time(lambda: fn(c_kernel), args.repeat)
        if _norm(r_py) != _norm(r_c):
            print(f"{name:38} BACKEND MISMATCH")
            return 1
        print(f"{name:38} {t_py * 1e3:9.2f}ms {t_c * 1e3:9.2f}ms {t_py / t_c:8.1f}x")
    print("all outputs identical across backends")
    return 0


if __name__ == "__main__":
    sys.exit(main())
