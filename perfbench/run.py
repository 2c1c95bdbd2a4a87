#!/usr/bin/env python3
"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload {radon,homology,local,sweep} \\
        --seed N --seconds S --trace {0,1}

One process, one client, closed loop: the next op starts when the previous one
returns.  Every op's output is checked (see ``check``).  With ``--trace 0``
the run measures the end-to-end metrics for about S seconds; with
``--trace 1`` it runs a fixed op list twice, untraced and then with span
wrappers installed, and reports the per-layer metrics, the tracing slowdown
and whether both passes produced the same outputs.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics for a reader.  Each
run also writes its result, with the environment it ran in, to
``.perfbench/`` at the checkout root, and a traced run writes its spans there.

Exit codes: 0 when the run completed (even if outputs were wrong: then
``correct`` is false), 1 when the library cannot be imported, 2 when the
references are missing or stale, 3 when a span this workload must reach
recorded no calls or the layer spans cover less than MIN_COVERAGE of the
traced op time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

import tracing
import workloads as wl

OUT_DIR = wl.ROOT / ".perfbench"
REFS = wl.ROOT / "perfbench" / "references.json"
SETUP_PROBES = 7
# least share of traced op wall time that the layer spans must account for
MIN_COVERAGE = 0.9


@dataclass
class OpResult:
    index: int
    seconds: float
    cpu_seconds: float  # thread CPU time: every layer runs on the calling thread
    output: object  # (record, signature digest) for lab ops, failing-graph count for sweep
    error: str | None


def _output(r: OpResult):
    """What an op produced, without the record object: digest or count."""
    return r.error or (r.output[1] if isinstance(r.output, tuple) else r.output)


def setup():
    """Everything a run pays before its first op: import and configs."""
    flagtwin = wl.import_flagtwin()
    return flagtwin, wl.make_configs(flagtwin.experiments)


def setup_probe(workload: str) -> float:
    """Wall time from spawning a fresh interpreter to the end of its setup."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode} after {line!r}")
    return seconds


def make_op(flagtwin, configs, workload: wl.Workload, seed: int):
    if not workload.experiments:
        return lambda i: flagtwin.kernels.exhaustive_equivalence(wl.SWEEP_N)
    experiments = flagtwin.experiments

    def op(i):
        key, trial_seed = wl.trial_of(workload, seed, i)
        cfg, n = configs[key]
        record = experiments.run_trial(cfg, n, trial_seed)
        return record, record.measured_signature()

    return op


def run_ops(op, count: int | None = None, seconds: float | None = None, pause=None):
    """Run ops 0, 1, ... one at a time: `count` of them, or until about
    `seconds` have passed (no op starts if it would, on the mean so far, end
    more than half an op past the limit).  `pause`, given with `seconds`, is
    called SETUP_PROBES times between ops, spread evenly over the phase, so
    that it samples the machine over the whole run; its time counts in no op
    and not in the phase.  Returns (results, phase wall)."""
    results: list[OpResult] = []
    start, paused, pauses = perf_counter(), 0.0, 0
    while count is None or len(results) < count:
        elapsed = perf_counter() - start - paused
        due = pause is not None and pauses < SETUP_PROBES
        if due and elapsed >= pauses * seconds / SETUP_PROBES:
            t0 = perf_counter()
            pause()
            paused += perf_counter() - t0
            pauses += 1
            continue
        if seconds is not None and results and elapsed + 0.5 * elapsed / len(results) > seconds:
            break
        t0, c0 = perf_counter(), thread_time()
        try:
            out, err = op(len(results)), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = perf_counter(), thread_time()
        if isinstance(out, tuple):
            out = (out[0], wl.digest(out[1]))
        results.append(OpResult(len(results), t1 - t0, c1 - c0, out, err))
    wall = perf_counter() - start - paused
    while pause is not None and pauses < SETUP_PROBES:
        pause()
        pauses += 1
    return results, wall


# ---------------------------------------------------------------- correctness


def load_references(path, workload: wl.Workload) -> dict:
    """Lab key -> digest list; exits 2 if missing or made for another config."""
    if not workload.experiments:
        return {}
    try:
        stored = json.loads(path.read_text())["experiments"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read references {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    refs = {}
    for key in workload.experiments:
        fields, n, corpus = wl.LAB[key]
        entry = stored.get(key, {})
        if (entry.get("config") != json.loads(json.dumps(fields)) or entry.get("n") != n
                or len(entry.get("digests", ())) != corpus):
            print(f"perfbench: references for {key} do not match its configuration; "
                  "run perfbench/make_refs.py", file=sys.stderr)
            sys.exit(2)
        refs[key] = entry["digests"]
    return refs


def check(workload, seed, refs, results) -> list[str]:
    """One line per failed op: it raised, its record was aborted, its digest
    differs from the reference, a radon witness found by the trial failed the
    trial's own verify_witness call, or the sweep reported failing graphs."""
    failures = []
    for r in results:
        why = r.error
        if why is None and not workload.experiments:
            why = f"{r.output} failing graphs" if r.output != 0 else None
        elif why is None:
            key, trial_seed = wl.trial_of(workload, seed, r.index)
            record, dig = r.output
            if record.flags.get("aborted"):
                why = f"aborted: {record.flags}"
            elif dig != refs[key][trial_seed]:
                why = f"digest {dig} != reference {refs[key][trial_seed]}"
            elif key == "radon" and record.measured["found"] and not record.measured["verified"]:
                why = "witness fails verify_witness"
        if why is not None:
            failures.append(f"op {r.index}: {why}")
    return failures


# ---------------------------------------------------------------- metrics


def tail(durations: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs since boot (the steal column of /proc/stat), or None
    where the system does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def loop_speed() -> float:
    """Median iterations per second, over five probes, of a fixed pure-Python
    loop that calls no library code: how fast the machine runs Python now."""
    speeds = []
    for _ in range(5):
        t0, acc = perf_counter(), 0
        for i in range(100_000):
            acc += i * i % 7
        speeds.append(100_000 / (perf_counter() - t0))
    return statistics.median(speeds)


def machine(results, before: tuple, after: tuple) -> dict:
    """What the machine did to the timed ops: the hypervisor's steal over
    the phase; the ops' thread CPU time against their wall time (near 1
    means time lost to a slower CPU, not to waiting for one); and the speed
    of a fixed loop before and after the phase, which moves with the machine
    and not with the library."""
    (steal0, loop0), (steal1, loop1) = before, after
    wall = sum(r.seconds for r in results)
    return {
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loop_per_s": (loop0 + loop1) / 2,
        "op_cpu_s_p50": statistics.median(r.cpu_seconds for r in results),
        "cpu_over_wall": sum(r.cpu_seconds for r in results) / wall if wall else None,
    }


def git_revision() -> str:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(flagtwin) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "backend": flagtwin.KERNEL_BACKEND,
        "flagtwin": flagtwin.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git": git_revision(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, results, wall, setup_times) -> tuple[dict, dict]:
    durations = [r.seconds for r in results]
    tail_s, beyond = tail(durations, workload.tail_pct)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(results) / wall, "1/s"),
        "op_s_p50": _metric(statistics.median(durations), "s"),
        "op_s_tail": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh-interpreter probes spread over the run",
        "op_s_tail": f"p{workload.tail_pct:g} of {len(durations)} ops, {beyond} beyond it"
                     + ("" if beyond >= 10 else " (fewer than 10: under-sampled)"),
    }
    return metrics, notes


def trace_ops(workload: wl.Workload, seconds: float) -> int:
    """Op count of each pass of a traced run: fixed by workload and --seconds,
    so that a seed's counters repeat exactly; both passes fit in about
    `seconds` at nominal speed.  Mixed workloads get equal shares."""
    width = max(1, len(workload.experiments))
    per_pass = max(1, int(seconds / 2 / workload.nominal_op_s))
    return max(width, per_pass - per_pass % width)


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:34} {m['value']:.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", default=str(REFS), help="reference digests (default: %(default)s)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    flagtwin, configs = setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    refs = load_references(Path(args.refs), workload)
    env = environment(flagtwin)
    op = make_op(flagtwin, configs, workload, args.seed)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    notes: dict = {}
    exit_code = 0

    if args.trace == 0:
        setup_times: list[float] = []
        before = steal_seconds(), loop_speed()
        results, wall = run_ops(op, seconds=args.seconds,
                                pause=lambda: setup_times.append(setup_probe(workload.name)))
        after = steal_seconds(), loop_speed()
        failures = check(workload, args.seed, refs, results)
        metrics, notes = end_to_end(workload, results, wall, setup_times)
        attempted = len(results)
    else:
        ops = trace_ops(workload, args.seconds)
        before = steal_seconds(), loop_speed()
        untraced, untraced_wall = run_ops(op, count=ops)
        tracer = tracing.Tracer()

        def traced_op(i):
            tracer.op = i
            return op(i)

        with tracer.installed():
            traced, traced_wall = run_ops(traced_op, count=ops)
        after = steal_seconds(), loop_speed()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
        failures = check(workload, args.seed, refs, untraced + traced)
        failures += [f"op {u.index}: traced output differs from untraced"
                     for u, t in zip(untraced, traced) if _output(u) != _output(t)]
        summary = tracer.summary()
        metrics = tracing.per_layer_metrics(summary, ops)
        metrics["trace.slowdown"] = _metric(traced_wall / untraced_wall, "ratio")
        coverage = summary["layer_s"] / sum(r.seconds for r in traced)
        metrics["trace.coverage"] = _metric(coverage, "ratio")
        metrics["trace.ops_per_s"] = _metric(ops / traced_wall, "1/s")
        metrics["trace.untraced_ops_per_s"] = _metric(ops / untraced_wall, "1/s")
        attempted = ops
        missing = [s for s in workload.spans if summary["spans"].get(s, {}).get("calls", 0) == 0]
        if missing:
            print(f"perfbench: spans recorded no calls on {workload.name}: {missing}; "
                  "a wrapper was routed around", file=sys.stderr)
            exit_code = 3
        if coverage < MIN_COVERAGE:
            print(f"perfbench: layer spans cover {coverage:.1%} of op time on {workload.name}, "
                  f"under {MIN_COVERAGE:.0%}; work moved out of the wrapped functions",
                  file=sys.stderr)
            exit_code = 3

    timed = results if args.trace == 0 else traced
    diagnostics = machine(timed, before, after)
    failed = len({f.split(":", 1)[0] for f in failures})
    result = {"correct": not failures and exit_code == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {**result, "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "notes": notes, "machine": diagnostics,
         "failures": failures[:50], "op_seconds": [r.seconds for r in timed],
         "op_cpu_seconds": [r.cpu_seconds for r in timed]},
        indent=1))

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in failures[:20]:
        print(f"  FAIL {line}")
    print(f"  ops {attempted} attempted, {failed} failed; check "
          + ("PASS" if result["correct"] else "FAIL"))
    print(f"  {'failed_frac':34} {failed / attempted:.6g} ratio")
    print("  machine: " + " ".join(
        f"{k}={'n/a' if v is None else format(v, '.4g')}" for k, v in diagnostics.items()))
    _print_metrics(metrics, notes)
    print(json.dumps(result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
