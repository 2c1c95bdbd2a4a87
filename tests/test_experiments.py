import io
import json

import pytest

from flagtwin import experiments as ex
from flagtwin.errors import ParameterError


def _run(name, **kw):
    cfg = ex.ExperimentConfig(name, **kw)
    return cfg, ex.run_experiment(cfg)


def test_zero_trials_gives_empty_valid_summary():
    cfg, recs = _run("h1-torsion", ns=(8,), p=0.3, trials=0)
    assert recs == []
    summary = ex.summarize(recs)
    assert summary.count == 0 and summary.pass_rates == {}


def test_unknown_experiment_rejected():
    with pytest.raises(ParameterError):
        ex.run_trial(ex.ExperimentConfig("nope", ns=(5,), p=0.5), 5, 0)


def test_records_replayable_and_deterministic():
    cfg, recs = _run("double-cover", ns=(9,), p=0.4, trials=6, base_seed=50)
    for r in recs:
        again = ex.replay_trial(cfg, r.inputs["n"], r.seed)
        assert again.measured_signature() == r.measured_signature()
        assert again.passed == r.passed


def test_seed_range_and_sorting():
    cfg, recs = _run("fvector", ns=(10, 12), p=0.3, trials=3, base_seed=100)
    assert [r.seed for r in recs] == [100, 101, 102, 100, 101, 102]
    assert [r.inputs["n"] for r in recs] == [10, 10, 10, 12, 12, 12]


def test_summary_wilson_interval_known_value():
    assert ex.wilson_interval(100, 100) == pytest.approx((0.9629, 1.0), abs=5e-4)
    lo, hi = ex.wilson_interval(0, 0)
    assert lo == 0.0 and hi == 1.0


def test_summary_orders_and_outliers():
    cfg, recs = _run("h1-torsion", ns=(10,), alpha=0.7, trials=12, base_seed=0)
    s1 = ex.summarize(recs)
    s2 = ex.summarize(list(reversed(recs)))
    assert s1.pass_rates == s2.pass_rates and s1.numeric == s2.numeric
    failing = {r.seed for r in recs if not all(r.passed.values())}
    assert set(s1.outlier_seeds) <= failing | {r.seed for r in recs if r.flags.get("aborted")}
    if failing:
        assert s1.outlier_seeds


def test_summary_rejects_mixed_experiments():
    _, a = _run("fvector", ns=(8,), p=0.3, trials=1)
    _, b = _run("double-cover", ns=(8,), p=0.3, trials=1)
    with pytest.raises(ParameterError):
        ex.summarize(a + b)


def test_record_json_shape_and_roundtrip():
    cfg, recs = _run("z-equiv", ns=(8,), p=0.5, trials=3, base_seed=7)
    buf = io.StringIO()
    ex.write_records(recs, buf)
    buf.seek(0)
    back = ex.read_records(buf)
    assert [r.measured_signature() for r in back] == [r.measured_signature() for r in recs]
    parsed = json.loads(buf.getvalue().splitlines()[0])
    assert set(parsed) == {"experiment", "seed", "inputs", "measured", "passed", "flags", "wall_time"}


def test_csv_output_has_header_and_rows():
    cfg, recs = _run("fvector", ns=(8,), p=0.4, trials=2)
    buf = io.StringIO()
    ex.write_csv(recs, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("experiment,")
    assert "measured.f_0" in lines[0]


def test_resource_cap_flags_trial_not_campaign():
    cfg = ex.ExperimentConfig("double-cover", ns=(12,), p=0.9, trials=3, max_faces=5)
    recs = ex.run_experiment(cfg)
    assert len(recs) == 3
    assert all(r.flags.get("aborted") for r in recs)
    summary = ex.summarize(recs)
    assert summary.aborted == 3


def test_experiment_coverage_of_cli_names():
    assert set(ex.EXPERIMENTS) == {
        "h1-torsion", "top-homology", "vanish-above", "double-cover", "z-equiv",
        "garland", "gap-concentration", "link-connectivity", "radon", "fvector",
        "collapse",
    }


def test_each_experiment_smoke():
    small = {
        "h1-torsion": dict(ns=(8,), alpha=0.7),
        "top-homology": dict(ns=(8,), alpha=0.7, d=1),
        "vanish-above": dict(ns=(8,), alpha=0.7, d=1),
        "double-cover": dict(ns=(7,), p=0.4),
        "z-equiv": dict(ns=(7,), p=0.5),
        "garland": dict(ns=(12,), d=2, n_range=(10, 14), p_range=(0.6, 0.8)),
        "gap-concentration": dict(ns=(60,), alpha=0.7, d=1),
        "link-connectivity": dict(ns=(40,), alpha=0.7, d=1),
        "radon": dict(ns=(12,), alpha=0.7, d=1),
        "fvector": dict(ns=(10,), p=0.4),
        "collapse": dict(ns=(8,), alpha=0.7, d=1),
    }
    for name, kw in small.items():
        cfg = ex.ExperimentConfig(name, trials=2, base_seed=1, **kw)
        recs = ex.run_experiment(cfg)
        assert len(recs) == 2
        for r in recs:
            assert not r.flags.get("aborted"), (name, r.flags)
            assert r.to_json()


def test_config_from_dict_normalizes_keys():
    cfg = ex.config_from_dict(
        {"experiment": "fvector", "n": "10,20", "seed": "5", "p": "0.4", "trials": "3",
         "format": "csv", "n-range": "10:20", "p-range": "0.5:0.9"}
    )
    assert cfg.ns == (10, 20) and cfg.base_seed == 5 and cfg.p == 0.4
    assert cfg.fmt == "csv" and cfg.n_range == (10, 20) and cfg.p_range == (0.5, 0.9)
    with pytest.raises(ParameterError):
        ex.config_from_dict({"experiment": "fvector", "bogus": 1})


@pytest.mark.parametrize("key", ["format", "fmt"])
def test_config_from_dict_rejects_unknown_format(key):
    assert ex.config_from_dict({"experiment": "fvector", key: "records"}).fmt == "records"
    for bad in ("json", "CSV", ""):
        with pytest.raises(ParameterError):
            ex.config_from_dict({"experiment": "fvector", key: bad})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# campaign\nn = 10\ntrials = 4\np = 0.5  # inline comment\n")
    data = ex.parse_config_file(str(path))
    assert data == {"n": "10", "trials": "4", "p": "0.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ParameterError):
        ex.parse_config_file(str(bad))
