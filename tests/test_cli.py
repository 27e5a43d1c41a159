"""End-to-end runs of the command-line front end via main(argv), and
one through ``python -m perclab`` in a subprocess."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perclab
from perclab.cli import build_parser, main
from perclab.pairing import Multigraph, format_multigraph, parse_configuration
from perclab.percolation import parse_outcome


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_writes_configuration(tmp_path, capsys):
    out = tmp_path / "conf.txt"
    code, _, err = run_cli(
        capsys, "sample", "--n", "10", "--d", "3", "--seed", "4", "-o", str(out)
    )
    assert code == 0
    cfg = parse_configuration(out.read_text())
    assert cfg.seq.n == 10
    assert np.array_equal(cfg.seq.degrees, np.full(10, 3))


def test_sample_multigraph_to_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "sample", "--n", "6", "--d", "4", "--seed", "0", "--multigraph"
    )
    assert code == 0
    cfg = parse_configuration(stdout)
    assert cfg.seq.n == 6


def test_sample_impossible_exits_one(capsys):
    # no simple cubic graph on 2 vertices exists
    code, _, err = run_cli(capsys, "sample", "--n", "2", "--d", "3", "--seed", "0")
    assert code == 1
    assert "error" in err


def test_percolate_pipeline(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    outc = tmp_path / "out.txt"
    assert run_cli(capsys, "sample", "--n", "30", "--d", "4", "--seed", "1",
                   "-o", str(conf))[0] == 0
    code, _, _ = run_cli(
        capsys, "percolate", "-i", str(conf), "--alpha", "0.5", "--seed", "2",
        "-o", str(outc),
    )
    assert code == 0
    out = parse_outcome(outc.read_text())
    assert out.original_n == 30
    assert sum(out.census) == 30 - out.r


def test_percolate_requires_exactly_one_rate(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    run_cli(capsys, "sample", "--n", "10", "--d", "3", "--seed", "1", "-o", str(conf))
    with pytest.raises(SystemExit) as exc:
        main(["percolate", "-i", str(conf), "--alpha", "0.5", "--p", "0.1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc2:
        main(["percolate", "-i", str(conf)])
    assert exc2.value.code == 2
    capsys.readouterr()


def test_analyze_accepts_outcome_and_edge_list(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    outc = tmp_path / "out.txt"
    run_cli(capsys, "sample", "--n", "40", "--d", "4", "--seed", "3", "-o", str(conf))
    run_cli(capsys, "percolate", "-i", str(conf), "--alpha", "0.4", "--seed", "5",
            "-o", str(outc))
    code, stdout, _ = run_cli(capsys, "analyze", "-i", str(outc))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["n"] + len(parse_outcome(outc.read_text()).deleted) == 40

    edges = tmp_path / "graph.txt"
    g = Multigraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    edges.write_text(format_multigraph(g))
    code2, stdout2, _ = run_cli(capsys, "analyze", "-i", str(edges))
    assert code2 == 0
    rep2 = json.loads(stdout2)
    assert rep2["two_core_size"] == 4
    assert rep2["giant_size"] == 4


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("definitely not a graph\n")
    code, _, err = run_cli(capsys, "analyze", "-i", str(bad))
    assert code == 1
    assert "error" in err


def test_analyze_rejects_bucket_label_out_of_range(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 1\n3 1 1 1\n")
    code, _, err = run_cli(capsys, "analyze", "-i", str(bad))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def run_python(*argv):
    src = str(Path(perclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )


def run_module(*argv):
    return run_python("-m", "perclab", *argv)


def test_import_leaves_scipy_stats_unloaded():
    # the package needs numpy and scipy.sparse; the sampler self-test's
    # chi-square tail comes from scipy.special inside the battery
    proc = run_python("-c", "import sys, perclab; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "trailer", ["deleted: 5 6 7\ncensus: 0 0 2\n", "deleted: 1\ncensus: 9 9\n"]
)
def test_module_entry_rejects_inconsistent_outcome(tmp_path, trailer):
    # two buckets joined by a double edge, then a bad deleted:/census: trailer
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 2\n1 1 2 1\n1 2 2 2\n" + trailer)
    proc = run_module("analyze", "-i", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text", ["1 2\n1 1 1 1\n", "2 2 2\n1 1 2 1\n1 1 2 2\n"]
)
def test_module_entry_rejects_point_matched_twice(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    proc = run_module("analyze", "-i", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "matched twice" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "expansion"])
def test_module_entry_rejects_negative_vertex_count(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("-3\n")
    proc = run_module(command, "-i", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "n=-3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_expansion_has_no_limit_option(tmp_path):
    # the exact search is capped at 20 vertices; a 40-cycle would need 2^40 subsets
    ring = tmp_path / "ring40.txt"
    ring.write_text(format_multigraph(Multigraph(40, np.array([[i, (i + 1) % 40] for i in range(40)]))))
    proc = run_module("expansion", "-i", str(ring), "--limit", "40")
    assert proc.returncode == 2
    assert "unrecognized arguments: --limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_has_no_K_option(tmp_path):
    # the report never depended on K
    ring = tmp_path / "ring.txt"
    ring.write_text(format_multigraph(Multigraph(3, np.array([[0, 1], [1, 2], [2, 0]]))))
    proc = run_module("analyze", "-i", str(ring), "--K", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --K" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_commands_parse():
    # every perclab line of the first code block under "## Command line"
    readme = Path(perclab.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("perclab ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_expansion_certificate(tmp_path, capsys):
    edges = tmp_path / "k4.txt"
    g = Multigraph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))
    edges.write_text(format_multigraph(g))
    code, stdout, _ = run_cli(capsys, "expansion", "-i", str(edges))
    assert code == 0
    cert = json.loads(stdout)
    assert cert["exact_beta"] == 1.0
    assert cert["witness"] == [1, 2]

    code2, stdout2, _ = run_cli(capsys, "expansion", "-i", str(edges), "--bounds")
    cert2 = json.loads(stdout2)
    assert code2 == 0
    assert cert2["exact_beta"] is None
    assert cert2["lower_bound"] > 0


def test_theory_json(capsys):
    code, stdout, _ = run_cli(
        capsys, "theory", "--n", "100000", "--d", "4", "--alpha", "0.5"
    )
    assert code == 0
    pred = json.loads(stdout)
    assert pred["K"] == 3
    assert pred["regime"] == "c"
    assert pred["mu"][2] == pytest.approx(6.0)


def test_theory_run_length_flag(capsys):
    code, stdout, _ = run_cli(
        capsys, "theory", "--n", "1000", "--d", "3", "--alpha", "0.3",
        "--run-length", "2", "--run-length", "4",
    )
    assert code == 0
    pred = json.loads(stdout)
    assert sorted(pred["deg2_paths"]) == ["2", "4"]  # JSON object keys


def test_experiment_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 300\nd = 4\nalpha = 0.4\ntrials = 2\nbase_seed = 11\nmode = multigraph\n"
    )
    outdir = tmp_path / "results"
    code, stdout, _ = run_cli(
        capsys, "experiment", "--config", str(cfg), "-o", str(outdir)
    )
    assert code == 0
    assert (outdir / "trials.csv").exists()
    assert (outdir / "report.json").exists()
    rep = json.loads((outdir / "report.json").read_text())
    assert len(rep["records"]) == 2
    lines = (outdir / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_experiment_config_without_d_exits_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 5\n")
    proc = run_module("experiment", "--config", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "lacks required key(s): d" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_uniformity_exit_code(capsys):
    code, stdout, _ = run_cli(
        capsys, "uniformity", "--seed", "3", "--matching-samples", "1500"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["passed"]
    assert payload["matching_test"]["samples"] == 1500
    assert payload["conditional_test"]["groups"] == 68 + 114
    assert payload["conditional_test"]["first_failure"] is None


def test_uniformity_with_no_samples_fails(capsys):
    for samples in ("0", "-5"):
        code, stdout, err = run_cli(capsys, "uniformity", "--matching-samples", samples)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "-i", "/nonexistent/path.txt")
    assert code == 1
    assert "error" in err
