import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagtwin import cli
from flagtwin import complexes as cx
from flagtwin import graphs as gr


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "graph", "--n", "12", "--p", "0.4", "--seed", "9",
                         "--out", str(out))
    assert code == 0
    with open(out) as fh:
        g = gr.read_graph(fh)
    assert g == gr.sample_gnp(12, 0.4, 9)


def test_gen_complex_kinds(tmp_path, capsys):
    for kind in ("flag", "two-clique", "sdj"):
        out = tmp_path / f"{kind}.txt"
        code, _, _ = run_cli(capsys, "gen", kind, "--n", "7", "--p", "0.5", "--seed", "2",
                             "--max-dim", "3", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            c = cx.read_complex(fh)
        assert c.max_dim == 3


def test_gen_two_param_model(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "graph", "--model", "two-param", "--n", "30",
                         "--p0", "0.5", "--p1", "0.4", "--seed", "11", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        g = gr.read_graph(fh)
    expect, _ = gr.sample_two_param(30, 0.5, 0.4, 11)
    assert g == expect


def test_gen_alpha_parameterization(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "graph", "--n", "20", "--alpha", "0.7",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        assert gr.read_graph(fh) == gr.sample_gnp(20, 20**-0.7, 3)


def test_homology_command(tmp_path, capsys):
    path = tmp_path / "c.txt"
    with open(path, "w") as fh:
        cx.write_complex(cx.two_clique_complex(gr.cycle_graph(5), 3), fh)
    code, out, _ = run_cli(capsys, "homology", "--complex", str(path), "--max-k", "2")
    assert code == 0
    assert "f-vector: [5, 10, 5, 0]" in out
    assert "H_1: betti 1 torsion []" in out


def test_garland_command(tmp_path, capsys):
    path = tmp_path / "c.txt"
    with open(path, "w") as fh:
        cx.write_complex(cx.flag_complex(gr.complete_graph(6), 2), fh)
    code, out, _ = run_cli(capsys, "garland", "--complex", str(path), "--d", "2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_collapse_and_trace_replay(tmp_path, capsys):
    cpath = tmp_path / "c.txt"
    with open(cpath, "w") as fh:
        cx.write_complex(cx.flag_complex(gr.complete_graph(5), 4), fh)
    tpath = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "collapse", "--complex", str(cpath), "--max-free-dim", "0",
                           "--seed", "4", "--trace", str(tpath))
    assert code == 0 and "stuck: False" in out
    code, out, _ = run_cli(capsys, "replay", "--trace", str(tpath), "--complex", str(cpath))
    assert code == 0 and "f-vector [1" in out


def test_radon_command(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    with open(gpath, "w") as fh:
        gr.write_graph(gr.sample_gnp(20, 0.1, 6), fh)
    code, out, _ = run_cli(capsys, "radon", "--graph", str(gpath), "--seed", "3",
                           "--max-clique-size", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] in (True, False)
    if payload["found"]:
        assert payload["verified"] is True


def test_mc_records_then_summarize_and_replay(tmp_path, capsys):
    rpath = tmp_path / "rec.jsonl"
    code, _, _ = run_cli(capsys, "mc", "z-equiv", "--n", "8", "--p", "0.5", "--trials", "5",
                         "--seed", "10", "--out", str(rpath))
    assert code == 0
    lines = rpath.read_text().strip().splitlines()
    assert len(lines) == 5
    code, out, _ = run_cli(capsys, "summarize", str(rpath))
    assert code == 0 and "pass equivalent: 5/5" in out
    code, out, _ = run_cli(capsys, "replay", "12", "--experiment", "z-equiv",
                           "--n", "8", "--p", "0.5")
    assert code == 0
    replayed = json.loads(out)
    original = json.loads(lines[2])
    assert replayed["measured"] == original["measured"]
    assert replayed["seed"] == original["seed"] == 12


def test_mc_csv_format(tmp_path, capsys):
    rpath = tmp_path / "rec.csv"
    code, _, _ = run_cli(capsys, "mc", "fvector", "--n", "9", "--p", "0.4", "--trials", "3",
                         "--seed", "0", "--format", "csv", "--out", str(rpath))
    assert code == 0
    lines = rpath.read_text().strip().splitlines()
    assert len(lines) == 4 and lines[0].startswith("experiment,")


def test_mc_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 8\np = 0.5\ntrials = 2\nseed = 3\n")
    rpath = tmp_path / "r.jsonl"
    code, _, _ = run_cli(capsys, "mc", "z-equiv", "--config", str(cfg), "--trials", "4",
                         "--out", str(rpath))
    assert code == 0
    assert len(rpath.read_text().strip().splitlines()) == 4  # flag wins over file


def test_parameter_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gen", "graph", "--n", "10", "--p", "1.5")
    assert code == 2 and "parameter error" in err


def test_campaign_abort_exit_code(tmp_path, capsys):
    rpath = tmp_path / "r.jsonl"
    code, _, err = run_cli(capsys, "mc", "double-cover", "--n", "12", "--p", "0.9",
                           "--trials", "2", "--out", str(rpath))
    assert code == 0
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text("max_faces = 3\n")
    code, _, err = run_cli(capsys, "mc", "double-cover", "--config", str(cfgfile), "--n", "12",
                           "--p", "0.9", "--trials", "2", "--out", str(rpath))
    assert code == 3 and "resource caps" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "homology", "--complex", "/nonexistent", "--max-k", "1")
    assert code == 2


@pytest.mark.parametrize("text", ["3 x\n", "3 0\ndim 0 x\n", "3 0\ndim 0 3\n0\n1\ntwo\n"])
def test_malformed_complex_file_exit_code(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "flagtwin.cli", "homology", "--complex", str(path),
                          "--max-k", "1"], env=env, capture_output=True, text=True)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert "parameter error" in out.stderr


def test_truncated_profile_request_exit_code(tmp_path, capsys):
    path = tmp_path / "c.txt"
    with open(path, "w") as fh:
        cx.write_complex(cx.two_clique_complex(gr.cycle_graph(5), 2), fh)
    code, _, err = run_cli(capsys, "homology", "--complex", str(path), "--max-k", "2")
    assert code == 2 and "parameter error" in err
