"""Seeded Monte Carlo campaigns over the constructions in this package.

Every experiment maps (config, seed) to one TrialRecord deterministically:
trial i uses seed base_seed + i, sub-streams (embeddings, tie-breaking) use
seeds derived from the trial seed by name, and records serialize with sorted
keys, so any record can be replayed byte for byte from its config and seed.

Per-trial resource caps (face count, boundary nonzeros, wall time) flag and
abort the trial, never the campaign.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional

from . import collapse as collapse_mod
from . import complexes as cx
from . import graphs as gr
from . import homology as hm
from . import kernels
from . import radon as rd
from . import spectral as sp
from .errors import ParameterError, ResourceCapError
from .rng import Rng, derive_seed


OUTPUT_FORMATS = ("csv", "records")


@dataclass
class ExperimentConfig:
    experiment: str
    ns: tuple[int, ...] = (14,)
    alpha: Optional[float] = None
    p: Optional[float] = None
    d: int = 1
    trials: int = 100
    base_seed: int = 0
    max_dim: Optional[int] = None
    max_clique_size: int = 4
    tol: float = 1e-9
    c_consts: tuple[float, ...] = (1.0,)
    n_range: Optional[tuple[int, int]] = None
    p_range: Optional[tuple[float, float]] = None
    embed_denominator: int = 10**4
    max_faces: int = 2_000_000
    max_nnz: int = 10_000_000
    trial_timeout: float = 600.0
    out: Optional[str] = None
    fmt: str = "records"

    def p_of(self, n: int) -> float:
        if self.p is not None:
            return self.p
        if self.alpha is not None:
            return float(n) ** (-self.alpha)
        raise ParameterError("config needs either p or alpha")


@dataclass
class TrialRecord:
    experiment: str
    seed: int
    inputs: dict
    measured: dict
    passed: dict
    flags: dict
    wall_time: float

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "seed": self.seed,
            "inputs": _jsonable(self.inputs),
            "measured": _jsonable(self.measured),
            "passed": _jsonable(self.passed),
            "flags": _jsonable(self.flags),
            "wall_time": self.wall_time,
        }
        return json.dumps(payload, sort_keys=True)

    def measured_signature(self) -> str:
        """Canonical bytes of the measured quantities (replay identity)."""
        return json.dumps(_jsonable(self.measured), sort_keys=True)


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _guard_faces(cfg: ExperimentConfig, c: cx.Complex) -> cx.Complex:
    if c.total_faces() > cfg.max_faces:
        raise ResourceCapError(f"face count {c.total_faces()} exceeds cap {cfg.max_faces}")
    worst_nnz = max(
        ((k + 1) * c.face_count(k) for k in range(1, c.max_dim + 1)), default=0
    )
    if worst_nnz > cfg.max_nnz:
        raise ResourceCapError(f"boundary nonzeros {worst_nnz} exceed cap {cfg.max_nnz}")
    return c


# ---------------------------------------------------------------- experiments


def _exp_h1_torsion(cfg, n, seed):
    p = cfg.p_of(n)
    g = gr.sample_gnp(n, p, seed)
    z = _guard_faces(cfg, cx.two_clique_complex(g, 2))
    h1 = hm.integer_homology(z, 1)
    fv, euler = cx.f_vector(z)
    is_z2 = h1.betti == 0 and h1.torsion == (2,)
    measured = {"f": list(fv), "euler": euler, "betti1": h1.betti, "torsion1": list(h1.torsion)}
    passed = {"h1_is_z2": is_z2, "torsion_is_z2": h1.torsion == (2,)}
    return {"n": n, "p": p}, measured, passed


def _exp_top_homology(cfg, n, seed):
    p = cfg.p_of(n)
    d = cfg.d
    top = 2 * d + 1
    g = gr.sample_gnp(n, p, seed)
    z = _guard_faces(cfg, cx.two_clique_complex(g, top + 1))
    fv, _ = cx.f_vector(z)
    beta_top = hm.betti_q(z, top)
    f_top = fv[top] if top < len(fv) else 0
    f_up = fv[top + 1] if top + 1 < len(fv) else 0
    f_down = fv[top - 1] if top - 1 < len(fv) else 0
    bound = f_top - f_up - f_down
    measured = {"f": list(fv), "beta_top": beta_top, "count_lower_bound": bound}
    passed = {
        "beta_top_positive": beta_top > 0,
        "count_lower_bound_holds": beta_top >= bound,
    }
    return {"n": n, "p": p, "d": d}, measured, passed


def _exp_vanish_above(cfg, n, seed):
    p = cfg.p_of(n)
    d = cfg.d
    cap = cfg.max_dim if cfg.max_dim is not None else 2 * d + 6
    g = gr.sample_gnp(n, p, seed)
    sdj, _ = cx.separated_deleted_join(g, cap)
    _guard_faces(cfg, sdj)
    residual, trace = collapse_mod.collapse_greedy(sdj, d + 1, derive_seed(seed, "collapse"))
    betti_above = {}
    all_zero = True
    for k in range(2 * d + 2, trace.final_dim + 1):
        b = hm.betti_q(residual, k, allow_truncated=(k == residual.max_dim))
        betti_above[str(k)] = b
        all_zero = all_zero and b == 0
    measured = {
        "residual_dim": trace.final_dim,
        "betti_above": betti_above,
        "possibly_truncated": sdj.face_count(cap) > 0,
    }
    return {"n": n, "p": p, "d": d}, measured, {"vanishing_above": all_zero}


def _exp_double_cover(cfg, n, seed):
    p = cfg.p_of(n)
    cap = cfg.max_dim if cfg.max_dim is not None else min(n - 1, 8)
    g = gr.sample_gnp(n, p, seed)
    sdj, inv = cx.separated_deleted_join(g, cap)
    _guard_faces(cfg, sdj)
    quotient = cx.quotient_by_free_involution(sdj, inv)
    f_sdj, _ = cx.f_vector(sdj)
    f_quot, _ = cx.f_vector(quotient)
    halving = all(a == 2 * b for a, b in zip(f_sdj, f_quot))
    measured = {"f_cover": list(f_sdj), "f_quotient": list(f_quot)}
    return {"n": n, "p": p}, measured, {"face_halving": halving}


def _exp_z_equiv(cfg, n, seed):
    p = cfg.p_of(n)
    g = gr.sample_gnp(n, p, seed)
    ok = cx.check_construction_equivalence(g)
    agree = ok
    if n <= 12:
        sdj, inv = cx.separated_deleted_join(g, n - 1)
        quotient = cx.quotient_by_free_involution(sdj, inv)
        direct = cx.two_clique_complex(g, n - 1)
        pipeline_ok = quotient.faces_by_dim == direct.faces_by_dim
        agree = ok and pipeline_ok
    return {"n": n, "p": p}, {"kernel_check": ok}, {"equivalent": agree}


def _exp_garland(cfg, n, seed):
    rng = Rng(derive_seed(seed, "params"))
    n_lo, n_hi = cfg.n_range if cfg.n_range else (n, n)
    p_lo, p_hi = cfg.p_range if cfg.p_range else (0.5, 0.9)
    n_trial = n_lo + rng.below(n_hi - n_lo + 1) if n_hi > n_lo else n_lo
    p_trial = p_lo + rng.random() * (p_hi - p_lo)
    d = cfg.d
    g = gr.sample_gnp(n_trial, p_trial, derive_seed(seed, "graph"))
    fc = _guard_faces(cfg, cx.flag_complex(g, d))
    cert = sp.garland_check(fc, d, cfg.tol)
    betti = None
    if cert.verdict:
        betti = hm.betti_q(fc, d - 1)
    gaps = [r.gap for r in cert.link_reports]
    measured = {
        "n": n_trial,
        "p": p_trial,
        "verdict": cert.verdict,
        "pure": cert.pure,
        "min_link_gap": min(gaps) if gaps else None,
        "betti_below_top": betti,
    }
    sound = (not cert.verdict) or betti == 0
    return {"d": d}, measured, {"sound": sound, "verdict": cert.verdict}


def _exp_gap_concentration(cfg, n, seed):
    alpha = cfg.alpha if cfg.alpha is not None else 0.7
    d = cfg.d
    q = float(n) ** (-alpha)
    p_side = q**d * (1.0 - q) ** d
    bg = gr.sample_h(n, p_side, p_side, 0.0, 0.0, 1.0 - q, seed)
    g = bg.graph
    non_isolated = g.n - len(g.isolated())
    if non_isolated >= 2:
        rep = sp.spectral_report(g, cfg.tol)
        gap = rep.gap
        connected = rep.connected and len(g.isolated()) == 0 and gr.components(g) == 1
    else:
        gap = 0.0
        connected = False
    measured = {
        "size_a": len(bg.part_a),
        "size_b": len(bg.part_b),
        "gap": gap,
        "connected": connected,
    }
    passed = {"gap_above_0.8": gap > 0.8}
    # sweep the caller-supplied constants of the degree-statistics lower bound
    # at the probed discrepancy; the bound must never exceed the measured gap
    if connected and bg.part_a and bg.part_b:
        eps_hat = max(sp.discrepancy_probe(bg, 200, derive_seed(seed, "probe")), 1e-9)
        bounds = {}
        sound = True
        for c_const in cfg.c_consts:
            b = sp.bipartite_gap_lower_bound(bg, eps_hat, c_const)
            bounds[f"{c_const:g}"] = b
            sound = sound and b <= gap + cfg.tol
        measured["eps_probe"] = eps_hat
        measured["gap_bound_at_c"] = bounds
        passed["bound_below_gap"] = sound
    return {"n": n, "alpha": alpha, "d": d}, measured, passed


def _exp_link_connectivity(cfg, n, seed):
    alpha = cfg.alpha if cfg.alpha is not None else 0.7
    d = cfg.d
    q = float(n) ** (-alpha)
    measured = {}
    passed = {}
    all_nonempty = True
    all_connected = True
    for k in range(0, 2 * d + 2):
        l = 2 * d + 1 - k
        bg = gr.sample_h_q(
            n - (2 * d + 1),
            q**k * (1 - q) ** l,
            q**l * (1 - q) ** k,
            q,
            derive_seed(seed, f"ne-{k}-{l}"),
        )
        nonempty = bg.graph.n > 0
        measured[f"size_{k}_{l}"] = bg.graph.n
        passed[f"nonempty_{k}_{l}"] = nonempty
        all_nonempty = all_nonempty and nonempty
    for k in range(0, 2 * d + 1):
        l = 2 * d - k
        bg = gr.sample_h_q(
            n - 2 * d,
            q**k * (1 - q) ** l,
            q**l * (1 - q) ** k,
            q,
            derive_seed(seed, f"conn-{k}-{l}"),
        )
        g = bg.graph
        connected = g.n > 0 and gr.components(g) == 1
        passed[f"connected_{k}_{l}"] = connected
        all_connected = all_connected and connected
    passed["all_nonempty"] = all_nonempty
    passed["all_connected"] = all_connected
    return {"n": n, "alpha": alpha, "d": d}, measured, passed


def _exp_radon(cfg, n, seed):
    p = cfg.p_of(n)
    d = cfg.d
    g = gr.sample_gnp(n, p, seed)
    emb = rd.sample_embedding(n, d, derive_seed(seed, "embed"), cfg.embed_denominator)
    w = rd.radon_witness(g, emb, cfg.max_clique_size)
    found = w is not None
    verified = bool(w and rd.verify_witness(g, emb, w))
    measured = {
        "found": found,
        "verified": verified,
        "clique_a": list(w.clique_a) if w else None,
        "clique_b": list(w.clique_b) if w else None,
        "point": [str(x) for x in w.point] if w else None,
    }
    passed = {"verified_if_found": (not found) or verified, "found": found}
    return {"n": n, "p": p, "d": d}, measured, passed


def _exp_fvector(cfg, n, seed):
    p = cfg.p_of(n)
    i_max = cfg.max_dim if cfg.max_dim is not None else 3
    g = gr.sample_gnp(n, p, seed)
    counts = kernels.sdj_face_counts(g.adj, g.n, i_max + 1)
    measured = {f"f_{i}": counts[i] for i in range(i_max + 1)}
    return {"n": n, "p": p}, measured, {}


def _exp_collapse(cfg, n, seed):
    p = cfg.p_of(n)
    d = cfg.d
    cap = cfg.max_dim if cfg.max_dim is not None else 2 * d + 6
    g = gr.sample_gnp(n, p, seed)
    sdj, _ = cx.separated_deleted_join(g, cap)
    _guard_faces(cfg, sdj)
    residual, trace = collapse_mod.collapse_greedy(sdj, d + 1, derive_seed(seed, "collapse"))
    measured = {
        "residual_dim": trace.final_dim,
        "steps": len(trace.steps),
        "stuck": trace.stuck,
        "residual_faces": residual.total_faces(),
    }
    return {"n": n, "p": p, "d": d}, measured, {"residual_dim_bounded": trace.final_dim <= 2 * d + 1}


EXPERIMENTS: dict[str, Callable] = {
    "h1-torsion": _exp_h1_torsion,
    "top-homology": _exp_top_homology,
    "vanish-above": _exp_vanish_above,
    "double-cover": _exp_double_cover,
    "z-equiv": _exp_z_equiv,
    "garland": _exp_garland,
    "gap-concentration": _exp_gap_concentration,
    "link-connectivity": _exp_link_connectivity,
    "radon": _exp_radon,
    "fvector": _exp_fvector,
    "collapse": _exp_collapse,
}


def run_trial(cfg: ExperimentConfig, n: int, seed: int) -> TrialRecord:
    """One seeded trial; resource-cap breaches yield a flagged record."""
    fn = EXPERIMENTS.get(cfg.experiment)
    if fn is None:
        raise ParameterError(f"unknown experiment {cfg.experiment!r}")
    start = time.perf_counter()
    flags: dict = {"aborted": False}
    try:
        inputs, measured, passed = fn(cfg, n, seed)
    except ResourceCapError as exc:
        wall = time.perf_counter() - start
        return TrialRecord(
            cfg.experiment, seed, {"n": n}, {}, {}, {"aborted": True, "reason": str(exc)}, wall
        )
    wall = time.perf_counter() - start
    if wall > cfg.trial_timeout:
        flags["timeout"] = True
    return TrialRecord(cfg.experiment, seed, inputs, measured, passed, flags, wall)


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """All trials over cfg.ns with seeds base_seed .. base_seed + trials - 1."""
    if cfg.trials < 0:
        raise ParameterError("trials must be nonnegative")
    records = []
    for n in cfg.ns:
        for t in range(cfg.trials):
            records.append(run_trial(cfg, n, cfg.base_seed + t))
    records.sort(key=lambda r: (r.inputs.get("n", 0), r.seed))
    return records


def replay_trial(cfg: ExperimentConfig, n: int, seed: int) -> TrialRecord:
    """Re-run a single (config, n, seed) trial; identical code path to run."""
    return run_trial(cfg, n, seed)


# ---------------------------------------------------------------- summaries


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class Summary:
    experiment: str
    count: int
    aborted: int
    pass_rates: dict
    numeric: dict
    outlier_seeds: list

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}", f"records: {self.count}  aborted: {self.aborted}"]
        for key in sorted(self.pass_rates):
            s = self.pass_rates[key]
            lines.append(
                f"  pass {key}: {s['successes']}/{s['total']} = {s['rate']:.4f}"
                f"  wilson95 [{s['wilson'][0]:.4f}, {s['wilson'][1]:.4f}]"
            )
        for key in sorted(self.numeric):
            s = self.numeric[key]
            lines.append(
                f"  {key}: mean {s['mean']:.6g}  sd {s['sd']:.6g}"
                f"  min {s['min']:.6g}  max {s['max']:.6g}"
            )
        if self.outlier_seeds:
            lines.append(f"  failing/aborted seeds: {self.outlier_seeds}")
        return "\n".join(lines)


def summarize(records: list[TrialRecord]) -> Summary:
    """Pass-rate frequencies with Wilson intervals, numeric moments, and the
    seeds of failing trials for replay.  Order-insensitive."""
    if not records:
        return Summary("", 0, 0, {}, {}, [])
    names = {r.experiment for r in records}
    if len(names) > 1:
        raise ParameterError(f"mixed experiments in one summary: {sorted(names)}")
    aborted = sum(1 for r in records if r.flags.get("aborted"))
    pass_rates: dict = {}
    keys = sorted({k for r in records for k in r.passed})
    for key in keys:
        relevant = [r for r in records if key in r.passed]
        succ = sum(1 for r in relevant if r.passed[key])
        pass_rates[key] = {
            "successes": succ,
            "total": len(relevant),
            "rate": succ / len(relevant) if relevant else 0.0,
            "wilson": wilson_interval(succ, len(relevant)),
        }
    numeric: dict = {}
    nkeys = sorted(
        {
            k
            for r in records
            for k, v in r.measured.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    )
    for key in nkeys:
        vals = sorted(
            r.measured[key]
            for r in records
            if isinstance(r.measured.get(key), (int, float))
            and not isinstance(r.measured.get(key), bool)
        )  # sorted so the summary is exactly permutation-invariant
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        numeric[key] = {"mean": mean, "sd": math.sqrt(var), "min": min(vals), "max": max(vals)}
    outliers = sorted(
        {r.seed for r in records if r.flags.get("aborted") or any(not v for v in r.passed.values())}
    )[:20]
    return Summary(records[0].experiment, len(records), aborted, pass_rates, numeric, outliers)


# ---------------------------------------------------------------- record files


def write_records(records: list[TrialRecord], out) -> None:
    for r in records:
        out.write(r.to_json() + "\n")


def read_records(inp) -> list[TrialRecord]:
    records = []
    for line in inp:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(
            TrialRecord(
                obj["experiment"],
                obj["seed"],
                obj.get("inputs", {}),
                obj.get("measured", {}),
                obj.get("passed", {}),
                obj.get("flags", {}),
                obj.get("wall_time", 0.0),
            )
        )
    return records


def _flatten(record: TrialRecord) -> dict:
    flat = {"experiment": record.experiment, "seed": record.seed, "wall_time": record.wall_time}
    for group, data in (
        ("inputs", record.inputs),
        ("measured", record.measured),
        ("passed", record.passed),
        ("flags", record.flags),
    ):
        for k, v in data.items():
            v = _jsonable(v)
            flat[f"{group}.{k}"] = json.dumps(v) if isinstance(v, (list, dict)) else v
    return flat


def write_csv(records: list[TrialRecord], out) -> None:
    rows = [_flatten(r) for r in records]
    cols = sorted({k for row in rows for k in row})
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(row.get(c)) for c in cols) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from flat key/value data (file format or CLI merge)."""
    kwargs: dict = {}
    valid = {f.name for f in fields(ExperimentConfig)}
    for key, value in data.items():
        key = key.replace("-", "_")
        if key == "seed":
            key = "base_seed"
        if key == "n":
            key = "ns"
        if key == "format":
            key = "fmt"
        if key not in valid:
            raise ParameterError(f"unknown config key {key!r}")
        kwargs[key] = value
    if kwargs.get("fmt", "records") not in OUTPUT_FORMATS:
        raise ParameterError(f"format must be one of {OUTPUT_FORMATS}, got {kwargs['fmt']!r}")
    if "ns" in kwargs and isinstance(kwargs["ns"], (int, str)):
        kwargs["ns"] = _parse_ints(kwargs["ns"])
    for tup_key, caster in (("n_range", int), ("p_range", float), ("c_consts", float)):
        if tup_key in kwargs and isinstance(kwargs[tup_key], str):
            kwargs[tup_key] = tuple(caster(x) for x in kwargs[tup_key].replace(":", ",").split(","))
    for num_key in ("alpha", "p", "tol", "trial_timeout"):
        if num_key in kwargs and isinstance(kwargs[num_key], str):
            kwargs[num_key] = float(kwargs[num_key])
    for int_key in ("d", "trials", "base_seed", "max_dim", "max_clique_size",
                    "embed_denominator", "max_faces", "max_nnz"):
        if int_key in kwargs and isinstance(kwargs[int_key], str):
            kwargs[int_key] = int(kwargs[int_key])
    return ExperimentConfig(**kwargs)


def _parse_ints(value) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(x) for x in str(value).split(",") if x)


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys match CLI flags."""
    data: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            data[key.strip()] = value.strip()
    return data
