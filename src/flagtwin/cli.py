"""Command-line front end.

Subcommands: gen, homology, garland, collapse, radon, mc <experiment>,
replay <seed>, summarize.  Exit codes: 0 success, 2 parameter error,
3 resource-cap abort of a whole campaign.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import collapse as collapse_mod
from . import complexes as cx
from . import experiments as ex
from . import graphs as gr
from . import homology as hm
from . import radon as rd
from . import spectral as sp
from .errors import (
    DimensionError,
    FormatError,
    ParameterError,
    ResourceCapError,
    TruncatedComplexError,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", help="vertex count, or comma list for campaigns")
    parser.add_argument("--alpha", type=float, help="edge probability exponent: p = n^-alpha")
    parser.add_argument("--p", type=float, help="explicit edge probability (wins over alpha)")
    parser.add_argument("--d", type=int, help="target dimension parameter")
    parser.add_argument("--trials", type=int, help="number of seeded trials")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--max-dim", type=int, dest="max_dim", help="complex construction cutoff")
    parser.add_argument("--tol", type=float, help="numerical tolerance")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=ex.OUTPUT_FORMATS, help="output format")


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _load_graph(path: str) -> gr.Graph:
    with open(path) as fh:
        return gr.read_graph(fh)


def _load_complex(path: str) -> cx.Complex:
    with open(path) as fh:
        return cx.read_complex(fh)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="flagtwin", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit graph or complex files")
    gen.add_argument("kind", choices=["graph", "flag", "two-clique", "sdj"])
    gen.add_argument("--model", choices=["gnp", "two-param"], default="gnp")
    gen.add_argument("--graph", help="read this graph file instead of sampling")
    gen.add_argument("--p0", type=float, help="vertex probability (two-param)")
    gen.add_argument("--p1", type=float, help="edge probability (two-param)")
    _add_common(gen)

    homology = sub.add_parser("homology", help="betti numbers and torsion of a complex file")
    homology.add_argument("--complex", required=True, dest="complex_path")
    homology.add_argument("--max-k", type=int, dest="max_k", required=True)
    homology.add_argument("--reduced", action="store_true")
    homology.add_argument("--export-matrix", dest="export_matrix", type=int, default=None,
                          help="also write the boundary matrix of this dimension")
    _add_common(homology)

    garland = sub.add_parser("garland", help="local-expansion certificate for a complex file")
    garland.add_argument("--complex", required=True, dest="complex_path")
    _add_common(garland)

    col = sub.add_parser("collapse", help="greedy collapse of a complex file")
    col.add_argument("--complex", required=True, dest="complex_path")
    col.add_argument("--max-free-dim", type=int, dest="max_free_dim", default=1)
    col.add_argument("--trace", help="write the collapse trace to this path")
    _add_common(col)

    radon = sub.add_parser("radon", help="search a Radon witness for a graph + embedding")
    radon.add_argument("--graph", required=True)
    radon.add_argument("--embedding", help="embedding file; omit to sample one")
    radon.add_argument("--embed-dim", type=int, dest="embed_dim", default=1)
    radon.add_argument("--max-clique-size", type=int, dest="max_clique_size", default=4)
    _add_common(radon)

    mc = sub.add_parser("mc", help="run a seeded Monte Carlo campaign")
    mc.add_argument("experiment", choices=sorted(ex.EXPERIMENTS))
    mc.add_argument("--config", help="flat key=value config file (flags win)")
    mc.add_argument("--summary", action="store_true", help="print a summary after the records")
    _add_common(mc)

    rep = sub.add_parser("replay", help="replay one trial record or a collapse trace")
    rep.add_argument("seed", nargs="?", type=int)
    rep.add_argument("--experiment", choices=sorted(ex.EXPERIMENTS))
    rep.add_argument("--config", help="flat key=value config file (flags win)")
    rep.add_argument("--trace", help="collapse trace file to replay")
    rep.add_argument("--complex", dest="complex_path", help="complex file for trace replay")
    _add_common(rep)

    summ = sub.add_parser("summarize", help="summarize a records file")
    summ.add_argument("records")
    _add_common(summ)
    return top


def _merged_config(args, experiment: str) -> ex.ExperimentConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data.update(ex.parse_config_file(args.config))
    for key in ("n", "alpha", "p", "d", "trials", "seed", "max_dim", "tol", "out", "fmt"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    data["experiment"] = experiment
    return ex.config_from_dict(data)


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.graph:
        g = _load_graph(args.graph)
    else:
        n = int(args.n) if args.n else 10
        if args.model == "two-param":
            g, _ = gr.sample_two_param(n, args.p0 if args.p0 is not None else 1.0,
                                       args.p1 if args.p1 is not None else 0.5, seed)
        else:
            p = args.p if args.p is not None else (
                float(n) ** (-args.alpha) if args.alpha is not None else 0.5
            )
            g = gr.sample_gnp(n, p, seed)
    out = _open_out(args.out)
    try:
        if args.kind == "graph":
            gr.write_graph(g, out)
            return 0
        max_dim = args.max_dim if args.max_dim is not None else min(g.n - 1, 6)
        if args.kind == "flag":
            c = cx.flag_complex(g, max_dim)
        elif args.kind == "two-clique":
            c = cx.two_clique_complex(g, max_dim)
        else:
            c, _ = cx.separated_deleted_join(g, max_dim)
        cx.write_complex(c, out)
        return 0
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_homology(args) -> int:
    c = _load_complex(args.complex_path)
    max_k = args.max_k
    profile = hm.betti_profile(c, max_k, reduced=args.reduced)
    fv, euler = cx.f_vector(c)
    print(f"f-vector: {list(fv)}  euler: {euler}")
    for g, bound in zip(profile.groups, profile.morse_lower_bounds):
        print(
            f"H_{g.dim}: betti {g.betti} torsion {list(g.torsion)}"
            f"{'  [truncated]' if g.truncated else ''}  count-bound {bound}"
        )
    verdict = ("n/a (profile stops below the complex dimension)"
               if profile.euler_consistent is None else profile.euler_consistent)
    print(f"euler check: faces {profile.euler_from_faces} betti {profile.euler_from_betti} "
          f"consistent {verdict}")
    if args.export_matrix is not None:
        out = _open_out(args.out)
        try:
            hm.write_matrix(hm.boundary_matrix(c, args.export_matrix), out)
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


def _cmd_garland(args) -> int:
    c = _load_complex(args.complex_path)
    d = args.d if args.d is not None else 2
    tol = args.tol if args.tol is not None else 1e-9
    cert = sp.garland_check(c, d, tol)
    print(json.dumps({
        "target_dim": cert.target_dim,
        "pure": cert.pure,
        "purity_witness": list(cert.purity_witness) if cert.purity_witness else None,
        "links": len(cert.link_reports),
        "min_gap": min((r.gap for r in cert.link_reports), default=None),
        "threshold": cert.threshold,
        "verdict": cert.verdict,
    }, sort_keys=True))
    return 0


def _cmd_collapse(args) -> int:
    c = _load_complex(args.complex_path)
    seed = args.seed if args.seed is not None else 0
    residual, trace = collapse_mod.collapse_greedy(c, args.max_free_dim, seed)
    print(f"steps: {len(trace.steps)}  final_dim: {trace.final_dim}  stuck: {trace.stuck}")
    if args.trace:
        with open(args.trace, "w") as fh:
            for face, coface in trace.steps:
                fh.write(json.dumps({"free": list(face), "coface": list(coface)}) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            cx.write_complex(residual, fh)
    return 0


def _cmd_radon(args) -> int:
    g = _load_graph(args.graph)
    if args.embedding:
        with open(args.embedding) as fh:
            emb = rd.read_embedding(fh)
    else:
        emb = rd.sample_embedding(g.n, args.embed_dim, args.seed if args.seed is not None else 0)
    w = rd.radon_witness(g, emb, args.max_clique_size)
    if w is None:
        print(json.dumps({"found": False}))
        return 0
    print(json.dumps({
        "found": True,
        "clique_a": list(w.clique_a),
        "clique_b": list(w.clique_b),
        "point": [str(x) for x in w.point],
        "verified": rd.verify_witness(g, emb, w),
    }, sort_keys=True))
    return 0


def _cmd_mc(args) -> int:
    cfg = _merged_config(args, args.experiment)
    records = ex.run_experiment(cfg)
    out = _open_out(cfg.out)
    try:
        if cfg.fmt == "csv":
            ex.write_csv(records, out)
        else:
            ex.write_records(records, out)
    finally:
        if out is not sys.stdout:
            out.close()
    if args.summary and records:
        print(ex.summarize(records).to_text(), file=sys.stderr)
    if records and all(r.flags.get("aborted") for r in records):
        print("all trials hit resource caps; campaign aborted", file=sys.stderr)
        return 3
    return 0


def _cmd_replay(args) -> int:
    if args.trace:
        if not args.complex_path:
            raise ParameterError("trace replay needs --complex")
        c = _load_complex(args.complex_path)
        steps = []
        with open(args.trace) as fh:
            for line in fh:
                obj = json.loads(line)
                steps.append((tuple(obj["free"]), tuple(obj["coface"])))
        residual = collapse_mod.replay_trace(c, tuple(steps))
        fv, euler = cx.f_vector(residual)
        print(f"replayed {len(steps)} steps  f-vector {list(fv)}  euler {euler}")
        return 0
    if args.seed is None or not args.experiment:
        raise ParameterError("replay needs a seed and --experiment (or --trace)")
    cfg = _merged_config(args, args.experiment)
    for n in cfg.ns:
        record = ex.replay_trial(cfg, n, args.seed)
        print(record.to_json())
    return 0


def _cmd_summarize(args) -> int:
    with open(args.records) as fh:
        records = ex.read_records(fh)
    print(ex.summarize(records).to_text())
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "homology": _cmd_homology,
    "garland": _cmd_garland,
    "collapse": _cmd_collapse,
    "radon": _cmd_radon,
    "mc": _cmd_mc,
    "replay": _cmd_replay,
    "summarize": _cmd_summarize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, FormatError, DimensionError, TruncatedComplexError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
