"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py -q"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def test_corrupted_reference_is_reported_as_failure(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    for key in wl.WORKLOADS["homology"].experiments:
        refs["experiments"][key]["digests"][:50] = ["0" * 16] * 50
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    code, result = _run("--workload", "homology", "--seconds", "1", "--refs", str(bad))
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_clean_run_reports_every_end_to_end_metric():
    code, result = _run("--workload", "homology", "--seconds", "1")
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    code, result = _run("--workload", "homology", "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["homology.snf.busy_s"]["value"] > 0
    assert result["metrics"]["radon.hull.calls"]["value"] == 0


def test_span_without_calls_fails_loudly(monkeypatch, capsys):
    homology = wl.WORKLOADS["homology"]
    widened = dataclasses.replace(homology, spans=homology.spans + ("radon.hull",))
    monkeypatch.setitem(wl.WORKLOADS, "homology", widened)
    assert run.main(["--workload", "homology", "--seconds", "1", "--trace", "1"]) == 3
    assert "radon.hull" in capsys.readouterr().err


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    for w in wl.WORKLOADS.values():
        assert set(w.spans) <= set(tracing.SPANS)


def test_coverage_leaves_out_run_trial_self_time():
    tracer = tracing.Tracer()
    for name, parent, start, end in (("experiments.trial", -1, 0.0, 10.0),
                                     ("graphs.sample", 0, 1.0, 2.0),
                                     ("complexes.build", 0, 2.0, 6.0),
                                     ("kernels.enumerate", 2, 3.0, 5.0),
                                     ("experiments.record", -1, 10.0, 11.0)):
        span = tracing.Span(name, 0, parent)
        span.start, span.end = start, end
        tracer.spans.append(span)
    summary = tracer.summary()
    assert summary["layer_s"] == 6.0
    assert summary["spans"]["experiments.trial"]["self"] == 5.0
    assert summary["spans"]["complexes.build"]["self"] == 2.0


def test_tail_is_nearest_rank_with_count_beyond():
    durations = [float(x) for x in range(1, 41)]
    assert run.tail(durations, 75.0) == (30.0, 10)
    assert run.tail(durations[:3], 100.0) == (3.0, 0)
