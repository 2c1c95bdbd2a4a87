#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds ``result-*.json`` files written by run.py (it writes
them to ``.perfbench/``; copy them aside between commits).  For every
workload, trace mode and metric it prints each side's median and quartiles
over its runs and the change of the median, and the median speed of the
machine's fixed reference loop on each side, so that a change of the machine
can be told from a change of the library.  It refuses, with exit code 2, to
compare results taken with different kernel backends or run lengths.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("result-*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    if not base or not head:
        print("compare: no result-*.json files on one side", file=sys.stderr)
        return 2
    for key in ("backend", "seconds"):
        seen = {r["env"]["backend"] if key == "backend" else r["seconds"] for r in base + head}
        if len(seen) > 1:
            print(f"compare: refusing to compare results with different {key}: {sorted(seen)}",
                  file=sys.stderr)
            return 2
    groups = sorted({(r["workload"], r["trace"]) for r in base + head})
    for workload, trace in groups:
        sides = [[r for r in rs if (r["workload"], r["trace"]) == (workload, trace)]
                 for rs in (base, head)]
        print(f"{workload} trace={trace}: {len(sides[0])} base runs, {len(sides[1])} head runs, "
              f"failed {sum(r['failed'] for r in sides[0])} / {sum(r['failed'] for r in sides[1])}")
        if not all(sides):
            continue
        loops = [statistics.median(r["machine"]["loop_per_s"] for r in rs) for rs in sides]
        print(f"  {'machine loop_per_s':34} base {loops[0]:.6g}  head {loops[1]:.6g}  "
              f"{(loops[1] - loops[0]) / loops[0]:+.1%}")
        for name in sides[0][0]["metrics"]:
            stats = [quartiles([r["metrics"][name]["value"] for r in rs]) for rs in sides]
            (b1, b2, b3), (h1, h2, h3) = stats
            change = f"{(h2 - b2) / b2:+.1%}" if b2 else "n/a"
            print(f"  {name:34} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"head {h2:.6g} [{h1:.6g}, {h3:.6g}]  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
