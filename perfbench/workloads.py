"""The benchmark's workloads: which lab trials make up an op, and what each
workload is expected to exercise.

A lab op is one seeded ``experiments.run_trial`` followed by the record's
``measured_signature``.  Every lab experiment draws its trials from a fixed
corpus of trial seeds ``0 .. corpus - 1``; ``references.json`` holds a digest
of each corpus trial's signature, so every op of every run is checked against
output the library produced when the references were made.  A workload that
mixes two experiments alternates them: op ``i`` runs experiment ``i % 2`` on
trial seed ``(workload_seed + i // 2) % corpus``, so each experiment's trial
seeds count up from the workload seed.

The ``sweep`` workload has no seeded input: its op is the exhaustive
equivalence check over every labelled graph on ``SWEEP_N`` vertices.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP_N = 6

# lab experiment key -> (ExperimentConfig fields, n passed to run_trial, corpus size)
LAB = {
    "radon": (dict(experiment="radon", alpha=0.7, d=1, max_clique_size=4), 60, 1024),
    "h1-torsion": (dict(experiment="h1-torsion", alpha=0.7, d=1), 60, 2048),
    "top-homology": (dict(experiment="top-homology", alpha=0.7, d=1), 60, 2048),
    "vanish-above": (dict(experiment="vanish-above", alpha=0.7, d=1), 20, 2048),
    # n is drawn per trial from n_range, so the n passed here is unused
    "garland": (dict(experiment="garland", d=2, n_range=(30, 50), p_range=(0.5, 0.9)), 30, 2048),
}


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]  # keys of LAB, alternated; empty for sweep
    # fixed tail percentile, chosen so that a run at the parent commit has at
    # least ten ops beyond it; it stays fixed so tails compare across commits
    tail_pct: float
    # sizing on 2 cores, pure-Python kernels; sets the traced run's op count
    nominal_op_s: float
    # spans that must record calls on this workload (see tracing.SPANS)
    spans: tuple[str, ...]


_LAB_SPANS = ("graphs.sample", "kernels.enumerate", "experiments.trial", "experiments.record")

# Why each workload was chosen, and what it bypasses: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("radon", ("radon",), 75.0, 0.56,
                 ("radon.hull", "radon.pairs") + _LAB_SPANS),
        Workload("homology", ("h1-torsion", "top-homology"), 90.0, 0.13,
                 ("homology.snf", "homology.rank", "homology.boundary", "complexes.build")
                 + _LAB_SPANS),
        Workload("local", ("vanish-above", "garland"), 90.0, 0.14,
                 ("collapse.greedy", "spectral.garland", "spectral.eig", "homology.rank",
                  "homology.boundary", "complexes.build") + _LAB_SPANS),
        Workload("sweep", (), 100.0, 4.6, ("kernels.sweep",)),
    )
}


def trial_of(workload: Workload, seed: int, i: int) -> tuple[str, int]:
    """(lab experiment key, trial seed) of op i of a lab workload."""
    key = workload.experiments[i % len(workload.experiments)]
    corpus = LAB[key][2]
    return key, (seed + i // len(workload.experiments)) % corpus


def digest(signature: str) -> str:
    """Short digest of a record's measured_signature, as stored in references.json."""
    return hashlib.sha256(signature.encode()).hexdigest()[:16]


def make_configs(flagtwin_experiments) -> dict:
    """Lab key -> (ExperimentConfig, n), built with the library's own config class."""
    return {
        key: (flagtwin_experiments.ExperimentConfig(**fields), n)
        for key, (fields, n, _) in LAB.items()
    }


def import_flagtwin():
    """Import the library from this checkout's ``src`` with BLAS pinned to one
    thread; exits 2 when the checkout holds no library."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flagtwin
        import flagtwin.experiments
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flagtwin from {src}: {exc}")
    if not Path(flagtwin.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: flagtwin imported from {flagtwin.__file__}, not from {src}")
    return flagtwin
