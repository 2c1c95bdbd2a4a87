#!/usr/bin/env python3
"""Regenerate references.json: the digest of every corpus trial's
measured_signature, as the library in this checkout produces it.

Run only when the corpus or a workload's configuration changes, never to make
a failing run pass:

    python3 perfbench/make_refs.py

It spreads the trials over one worker process per CPU.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform

import workloads as wl

REFS = wl.ROOT / "perfbench" / "references.json"


def _digests(key: str, seeds: range) -> list[str]:
    flagtwin = wl.import_flagtwin()
    cfg, n = wl.make_configs(flagtwin.experiments)[key]
    out = []
    for seed in seeds:
        rec = flagtwin.experiments.run_trial(cfg, n, seed)
        if rec.flags.get("aborted"):
            raise RuntimeError(f"{key} trial {seed} aborted: {rec.flags}")
        out.append(wl.digest(rec.measured_signature()))
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    flagtwin = wl.import_flagtwin()
    chunk = 64
    tasks = [
        (key, range(lo, min(lo + chunk, corpus)))
        for key, (_, _, corpus) in wl.LAB.items()
        for lo in range(0, corpus, chunk)
    ]
    with multiprocessing.get_context("spawn").Pool() as pool:
        parts = pool.starmap(_digests, tasks)
    experiments = {}
    for key, (fields, n, _) in sorted(wl.LAB.items()):
        digests = [d for (k, _), part in zip(tasks, parts) if k == key for d in part]
        experiments[key] = {"config": fields, "n": n, "digests": digests}
    payload = {
        "digest": "sha256(TrialRecord.measured_signature())[:16], one per trial seed 0..corpus-1",
        "made_with": {
            "backend": flagtwin.KERNEL_BACKEND,
            "flagtwin": flagtwin.__version__,
            "python": platform.python_version(),
        },
        "experiments": experiments,
    }
    REFS.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
