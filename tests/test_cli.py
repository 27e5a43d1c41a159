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
from perclab.harness import parse_config_text, run_experiment
from perclab.pairing import (
    DegreeSequence,
    Multigraph,
    canonical_edges,
    format_multigraph,
    is_simple,
    parse_multigraph,
    project,
    sample_configuration,
)
from perclab.percolation import DeletionParams, apply_deletion, choose_deletion_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    code, _, err = run_cli(
        capsys, "sample", "--n", "10", "--d", "3", "--seed", "4", "-o", str(out)
    )
    assert code == 0
    g = parse_multigraph(out.read_text())
    assert g.n == 10
    assert np.array_equal(g.degree, np.full(10, 3))
    assert is_simple(g)


def test_sample_multigraph_to_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "sample", "--n", "6", "--d", "4", "--seed", "0", "--multigraph"
    )
    assert code == 0
    g = parse_multigraph(stdout)
    assert g.n == 6
    assert np.array_equal(g.degree, np.full(6, 4))


def test_sample_impossible_exits_one(capsys):
    # no simple cubic graph on 2 vertices exists
    code, _, err = run_cli(capsys, "sample", "--n", "2", "--d", "3", "--seed", "0")
    assert code == 1
    assert "error" in err


def deleted_line(text):
    """The 1-based labels of percolate's "# deleted:" comment line."""
    (line,) = [ln for ln in text.splitlines() if ln.startswith("# deleted:")]
    return [int(x) for x in line.split()[2:]]


def test_percolate_pipeline(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    outc = tmp_path / "out.txt"
    assert run_cli(capsys, "sample", "--n", "30", "--d", "4", "--seed", "1",
                   "-o", str(graph))[0] == 0
    code, _, _ = run_cli(
        capsys, "percolate", "-i", str(graph), "--alpha", "0.5", "--seed", "2",
        "-o", str(outc),
    )
    assert code == 0
    survivor = parse_multigraph(outc.read_text())
    assert survivor.n + len(deleted_line(outc.read_text())) == 30
    assert survivor.degree.max() <= 4


@pytest.mark.parametrize(
    "mode, seed", [("simple", 1), ("simple", 2), ("multigraph", 3), ("multigraph", 4)]
)
def test_percolate_matches_point_level_deletion(tmp_path, capsys, mode, seed):
    # sample then percolate, against the same draws made in memory: the
    # pairing (a simple graph's comes after the rejections that sample
    # reports), the deletion set D, and apply_deletion at the point level
    n, d, alpha = 40, 3, 0.4
    graph = tmp_path / "graph.txt"
    flags = ["--multigraph"] if mode == "multigraph" else []
    code, _, err = run_cli(capsys, "sample", "--n", str(n), "--d", str(d),
                           "--seed", str(seed), *flags, "-o", str(graph))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "percolate", "-i", str(graph), "--alpha",
                              str(alpha), "--seed", str(seed + 100))
    assert code == 0

    rng = np.random.default_rng(seed)
    draws = 1 if mode == "multigraph" else int(err.split(":")[1]) + 1
    for _ in range(draws):
        cfg = sample_configuration(DegreeSequence.regular(n, d), rng)
    deleted = choose_deletion_set(DeletionParams(n, alpha=alpha, seed=seed + 100))
    want = project(apply_deletion(cfg, deleted).survivor)

    got = parse_multigraph(stdout)
    assert got.n == want.n
    assert np.array_equal(got.edges, canonical_edges(want.edges))
    assert deleted_line(stdout) == (deleted + 1).tolist()


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
    graph = tmp_path / "graph.txt"
    outc = tmp_path / "out.txt"
    run_cli(capsys, "sample", "--n", "40", "--d", "4", "--seed", "3", "-o", str(graph))
    run_cli(capsys, "percolate", "-i", str(graph), "--alpha", "0.4", "--seed", "5",
            "-o", str(outc))
    code, stdout, _ = run_cli(capsys, "analyze", "-i", str(outc))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["n"] + len(deleted_line(outc.read_text())) == 40

    edges = tmp_path / "cycle.txt"
    g = Multigraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    edges.write_text(format_multigraph(g))
    code2, stdout2, _ = run_cli(capsys, "analyze", "-i", str(edges))
    assert code2 == 0
    rep2 = json.loads(stdout2)
    assert rep2["two_core_size"] == 4
    assert rep2["giant_size"] == 4


def test_analyze_lists_every_piece(tmp_path, capsys):
    # the graph of test_classify_mixed: the giant path 0..4, a triangle
    # with a tail (neither tree nor cycle), a 3-cycle and two trees
    edges = tmp_path / "mixed.txt"
    edges.write_text(format_multigraph(Multigraph(15, np.array([
        [0, 1], [1, 2], [2, 3], [3, 4], [5, 6], [6, 7], [7, 5], [5, 8],
        [9, 10], [10, 11], [11, 9], [12, 13],
    ]))))
    code, stdout, _ = run_cli(capsys, "analyze", "-i", str(edges))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["other_components"] == [[6, 7, 8, 9]]
    pieces = rep["isolated_trees"] + rep["isolated_cycles"] + rep["other_components"]
    assert rep["giant_size"] + sum(len(c) for c in pieces) == rep["n"]


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("definitely not a graph\n")
    code, _, err = run_cli(capsys, "analyze", "-i", str(bad))
    assert code == 1
    assert "error" in err


def run_python(*argv, **kwargs):
    src = str(Path(perclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs
    )


def run_module(*argv, **kwargs):
    return run_python("-m", "perclab", *argv, **kwargs)


def test_import_leaves_scipy_stats_unloaded():
    # the package needs numpy and scipy.sparse; the sampler self-test's
    # chi-square tail comes from scipy.special inside the battery
    proc = run_python("-c", "import sys, perclab; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def assert_clean_error(proc, message):
    """Exit 1 with one error: line naming the fault, and no traceback."""
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


# what each command that reads a graph needs besides its input
RATE = {"analyze": [], "expansion": [], "percolate": ["--alpha", "0.5"]}


@pytest.mark.parametrize("command", RATE)
def test_module_entry_rejects_negative_vertex_count(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("-3\n")
    assert_clean_error(run_module(command, "-i", str(bad), *RATE[command]), "n=-3")


@pytest.mark.parametrize("count", ["100000000000000000000", "3000000000"])
def test_module_entry_rejects_vertex_count_past_int32(tmp_path, count):
    # the first is outside int64, the second would size a 22 GiB array
    bad = tmp_path / "bad.txt"
    bad.write_text(count + "\n")
    assert_clean_error(run_module("analyze", "-i", str(bad)), f"n={count}")


def test_module_entry_rejects_edge_endpoint_out_of_range(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 2\n2 4\n")
    for command in RATE:
        proc = run_module(command, "-i", str(bad), *RATE[command])
        assert_clean_error(proc, "endpoint out of range")


@pytest.mark.parametrize("text", ["1\n", "0\n"])
def test_module_entry_rejects_alpha_below_two_vertices(tmp_path, text):
    # n**-alpha is 1 at n = 1 and undefined at n = 0, a probability at neither
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    proc = run_module("percolate", "-i", str(graph), "--alpha", "0.5")
    assert_clean_error(proc, "not a probability")


def test_module_entry_reports_running_out_of_memory(tmp_path):
    # a count inside the int32 bound still sizes 8 GiB arrays; the child
    # alone gets a 2 GiB address-space limit, so the allocation fails
    resource = pytest.importorskip("resource")
    limit = 2 * 1024**3

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    big = tmp_path / "big.txt"
    big.write_text("2147483647\n")
    proc = run_module("analyze", "-i", str(big), preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
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
    assert_clean_error(run_module("experiment", "--config", str(bad)), "lacks required key(s): d")


def test_experiment_when_survivors_differ_in_largest_degree(tmp_path):
    # at n = 12 the survivors' largest degree runs from 0 to 3 across the
    # 40 trials; every core census still has the d + 1 entries N'_0..N'_d
    text = "n = 12\nd = 3\nalpha = 0.3\ntrials = 40\n"
    rep = run_experiment(parse_config_text(text))
    assert all(len(rec.core_census) == 4 for rec in rep.records)
    proc = run_module("experiment", "--config", "-", "-o", str(tmp_path), input=text)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "report.json").read_text())["records"]) == 40


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


def test_verify_rejects_unknown_criterion(capsys):
    code, stdout, err = run_cli(capsys, "verify", "--criteria", "2,99")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and "99" in err and "1..14" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "-i", "/nonexistent/path.txt")
    assert code == 1
    assert "error" in err
