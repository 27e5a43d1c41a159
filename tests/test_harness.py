"""Experiment driver: seed discipline, worker invariance, CSV and
config-file round trips.
"""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from perclab.harness import (
    ExperimentConfig,
    aggregate_records,
    csv_columns,
    parse_config_text,
    read_config,
    run_experiment,
    run_trial,
    write_csv,
)
from perclab.theory import bush_bound_K


def small_config(**overrides) -> ExperimentConfig:
    base = dict(n=400, d=4, alpha=0.4, trials=3, base_seed=7, mode="multigraph")
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, d=4, alpha=0.5, p=0.1, trials=1, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, d=4, trials=1, base_seed=0)  # no rate at all
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, d=4, alpha=0.5, trials=1, base_seed=0, mode="odd")


def test_K_effective_defaults_to_bush_bound():
    cfg = small_config()
    assert cfg.K_effective == bush_bound_K(4, 0.4)
    cfg2 = small_config(eta=0.2)
    assert cfg2.K_effective == bush_bound_K(4, 0.2)


# every key of a config file, each with a value other than its default
CONFIG_TEXT = """\
n = 400
d = 4
alpha = 0.4
eta = 0.3
trials = 3
base_seed = 7
mode = simple
exhaustive_expansion = true
"""


def test_config_text_roundtrip():
    cfg = small_config(eta=0.3, mode="simple", exhaustive_expansion=True)
    assert parse_config_text(CONFIG_TEXT) == cfg
    rate = CONFIG_TEXT.replace("alpha = 0.4\neta = 0.3", "p = 0.25")
    assert parse_config_text(rate) == dataclasses.replace(cfg, alpha=None, eta=None, p=0.25)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    assert read_config(path) == small_config(eta=0.3, mode="simple", exhaustive_expansion=True)


def test_config_text_comments_and_errors():
    text = "n = 100\nd = 3\nalpha = 0.5\ntrials = 2\nbase_seed = 1\n# comment\n"
    cfg = parse_config_text(text)
    assert cfg.n == 100 and cfg.d == 3
    with pytest.raises(ValueError):
        parse_config_text(text + "bogus_key = 1\n")
    # the exact-search cap is fixed at expansion.EXHAUSTIVE_LIMIT
    with pytest.raises(ValueError, match="unknown key 'exhaustive_limit'"):
        parse_config_text(text + "exhaustive_limit = 40\n")
    # K is always derived from eta (else alpha)
    with pytest.raises(ValueError, match="unknown key 'K'"):
        parse_config_text(text + "K = 3\n")
    # n and d have no default
    with pytest.raises(ValueError, match="lacks required key\\(s\\): d$"):
        parse_config_text("n = 5\n")
    with pytest.raises(ValueError, match="lacks required key\\(s\\): n, d$"):
        parse_config_text("alpha = 0.5\n")


# ---------------------------------------------------------------------------
# trials


def test_trial_is_deterministic():
    cfg = small_config()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    da, db = a.__dict__.copy(), b.__dict__.copy()
    da.pop("runtime_ms"), db.pop("runtime_ms")
    assert json.dumps(da, default=str, sort_keys=True) == json.dumps(
        db, default=str, sort_keys=True
    )


def test_trials_differ_across_indices():
    cfg = small_config()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 1)
    assert a.seed == cfg.base_seed and b.seed == cfg.base_seed + 1
    assert a.census != b.census or a.giant_size != b.giant_size


def test_trial_record_consistency():
    cfg = small_config(trials=5)
    for i in range(5):
        rec = run_trial(cfg, i)
        n_surv = rec.n - rec.r
        assert sum(rec.census) == n_surv
        assert rec.giant_size <= n_surv
        assert rec.two_core_size <= n_surv
        assert rec.kernel_size <= rec.two_core_size
        assert rec.max_bush_size <= n_surv
        assert rec.runtime_ms >= 0
        assert len(rec.census) == cfg.d + 1
        assert len(rec.mu) == cfg.d + 1


def test_simple_mode_counts_rejections():
    cfg = small_config(n=20, d=3, mode="simple", trials=1)
    rec = run_trial(cfg, 0)
    assert rec.rejections >= 0


def test_exhaustive_mode_populates_bounds():
    cfg = small_config(n=14, d=3, alpha=0.3, exhaustive_expansion=True, trials=4)
    saw_exact = False
    for i in range(4):
        rec = run_trial(cfg, i)
        assert rec.beta_upper is None or rec.beta_upper > 0
        if rec.beta_exact is not None and np.isfinite(rec.beta_exact):
            saw_exact = True
            if rec.connected:
                assert rec.beta_lower <= rec.beta_exact + 1e-9
    assert saw_exact


# ---------------------------------------------------------------------------
# experiments


def test_single_trial_aggregate_matches_record():
    cfg = small_config(trials=1)
    rep = run_experiment(cfg)
    rec = rep.records[0]
    agg = rep.aggregate
    assert agg["mean_r"] == rec.r
    assert agg["mean_giant_size"] == rec.giant_size
    assert agg["fraction_connected"] == float(rec.connected)


def test_worker_count_does_not_change_results():
    cfg = small_config(trials=4)
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=2)
    a = json.dumps(seq.to_dict(strip_runtime=True), sort_keys=True)
    b = json.dumps(par.to_dict(strip_runtime=True), sort_keys=True)
    assert a == b


def test_report_json_is_loadable():
    rep = run_experiment(small_config(trials=2))
    payload = json.loads(rep.to_json())
    assert payload["config"]["n"] == 400
    assert len(payload["records"]) == 2
    assert "predictions" in payload


def test_aggregate_fractions_in_unit_interval():
    rep = run_experiment(small_config(trials=4))
    for key, val in rep.aggregate.items():
        if key.startswith("fraction_") and val is not None:
            assert 0.0 <= val <= 1.0


def test_aggregate_empty_records():
    agg = aggregate_records([], K=3)
    assert agg["trials"] == 0


# ---------------------------------------------------------------------------
# CSV


def test_csv_columns_shape():
    cols = csv_columns(4)
    assert cols[:4] == ["n", "d", "alpha", "seed"]
    assert "N_0" in cols and "N_4" in cols and "mu_4" in cols
    assert cols[-1] == "runtime_ms"
    assert cols.index("N_4") < cols.index("mu_0")


def test_csv_roundtrip():
    rep = run_experiment(small_config(trials=3, exhaustive_expansion=True))
    # plus a record whose numbers all differ, so a column that reads the
    # wrong field cannot match by a shared value such as 0
    rec = rep.records[0]
    distinct = {}
    for i, (key, val) in enumerate(vars(rec).items()):
        if isinstance(val, tuple):
            distinct[key] = tuple(type(x)(100 * i + j) for j, x in enumerate(val))
        elif not isinstance(val, bool):
            distinct[key] = (type(val) if val is not None else float)(100 * i)
    rep.records.append(dataclasses.replace(rec, **distinct))
    buf = io.StringIO()
    write_csv(rep, buf)
    buf.seek(0)
    header = buf.readline().strip().split(",")
    assert header == csv_columns(4)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert len(rows) == 4
    # every column against the record field it names
    renamed = {"isolated_cycles": "core_cycle_count"}
    for rec, row in zip(rep.records, rows):
        for col in header:
            if col.startswith(("N_", "mu_")):
                field, j = col.split("_")
                val = getattr(rec, "census" if field == "N" else "mu")[int(j)]
            else:
                val = getattr(rec, renamed.get(col, col))
            if val is None:
                assert row[col] == "", col
            elif isinstance(val, bool):
                assert row[col] == str(int(val)), col
            else:
                assert type(val)(row[col]) == val, col


def test_csv_header_only_when_no_trials(tmp_path):
    rep = run_experiment(small_config(trials=0))
    path = tmp_path / "empty.csv"
    write_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == csv_columns(4)


def test_csv_file_roundtrip(tmp_path):
    rep = run_experiment(small_config(trials=2))
    path = tmp_path / "trials.csv"
    write_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["seed"]) for row in rows] == [7, 8]
