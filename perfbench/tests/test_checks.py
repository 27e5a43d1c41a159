"""Every check passes on real trials and fails on a corrupted record or graph."""

import dataclasses

import numpy as np
import pytest
from perclab.harness import ExperimentConfig, run_trial

import checks
import reference as ref

TIGHT = {"n": 3000, "d": 3, "alpha": 0.18, "base_seed": 5}
CERTIFY = {"n": 2000, "d": 4, "alpha": 0.5, "exhaustive_expansion": True, "base_seed": 5}


def trials(config, count):
    out = []
    for i in range(count):
        rec = vars(run_trial(ExperimentConfig(**config), i))
        out.append((rec, checks.rederive(config, rec["seed"])))
    return out


@pytest.fixture(scope="module")
def tight():
    return trials(TIGHT, 6)  # trial 5 has a pure cycle in its core


@pytest.fixture(scope="module")
def certify():
    return trials(CERTIFY, 2)


def failures(rec, trial, **changes):
    return checks.check_trial({**rec, **changes}, trial)[0]


def test_real_trials_pass(tight, certify):
    for config, pairs in ((TIGHT, tight), (CERTIFY, certify)):
        summaries = []
        for rec, trial in pairs:
            fails, summary = checks.check_trial(rec, trial)
            assert fails == []
            summaries.append(summary)
        assert checks.check_run(config, pairs[0][1].p, summaries) == []


def test_tight_trials_exercise_every_structure(tight):
    rec = tight[0][0]
    assert rec["two_core_size"] < rec["n"] - rec["r"]
    assert rec["n_components"] > 1 and rec["longest_deg2_run"] > 1
    assert any(r["core_cycle_count"] > 0 for r, _ in tight)


@pytest.mark.parametrize(
    "field", ["r", "two_core_size", "giant_size", "n_components", "kernel_size",
              "longest_deg2_run", "core_cycle_count"],
)
def test_corrupted_count_is_caught(tight, field):
    rec, trial = tight[0]
    assert any(f": {field} " in f for f in failures(rec, trial, **{field: rec[field] + 1}))


def test_corrupted_census_is_caught(tight):
    rec, trial = tight[0]
    census = list(rec["census"])
    moved = census[:]
    moved[1], moved[2] = moved[1] + 1, moved[2] - 1  # same total, wrong degrees
    assert any("sum j*N_j" in f for f in failures(rec, trial, census=moved))
    grown = census[:]
    grown[3] += 1
    assert any("sum N_j" in f for f in failures(rec, trial, census=grown))


def test_repeat_must_match_first_record():
    config = ExperimentConfig(**TIGHT)
    first, again = vars(run_trial(config, 0)), vars(run_trial(config, 0))
    assert checks.check_repeat(first, again) == []
    assert any(": giant_size " in f for f in checks.check_repeat(first, {**again, "giant_size": 0}))
    nan = {**first, "lambda2": float("nan")}
    assert checks.check_repeat(nan, dict(nan)) == []


def test_corrupted_graph_is_caught(tight):
    rec, trial = tight[0]
    dropped = dataclasses.replace(trial, edges=trial.edges[1:])
    fails = checks.check_trial(rec, dropped)[0]
    assert any("sum j*N_j" in f for f in fails)


def test_corrupted_certificate_is_caught(certify):
    rec, trial = certify[0]
    assert failures(rec, trial) == []
    assert any("outside [0, 2]" in f for f in failures(rec, trial, lambda2=2.5))
    rq = ref.rayleigh_quotient(trial.survivor_n, trial.edges, ref.probe_vector(trial.survivor_n, trial.edges))
    assert rq < 1.9
    assert any("Rayleigh" in f for f in failures(rec, trial, lambda2=rq + 0.05))
    assert any("|N(S)-S|" in f for f in failures(rec, trial, beta_lower=2.5))
    half = rec["beta_lower"] / 2
    assert any("beta_upper" in f for f in failures(rec, trial, beta_upper=half))


@pytest.mark.parametrize("field,shift", [("r", 400), ("lost_one", 2000), ("loops", 40), ("doubles", 40)])
def test_corrupted_run_sums_are_caught(tight, field, shift):
    summaries = [checks.check_trial(rec, trial)[1] for rec, trial in tight]
    first = summaries[0]
    summaries[0] = dataclasses.replace(first, **{field: getattr(first, field) + shift})
    assert checks.check_run(TIGHT, tight[0][1].p, summaries) != []


def test_rederive_follows_run_trial(tight):
    rec, trial = tight[0]
    assert trial.r == rec["r"] and trial.survivor_n == rec["n"] - rec["r"]
    assert np.bincount(ref.degrees(trial.survivor_n, trial.edges)).sum() == trial.survivor_n
