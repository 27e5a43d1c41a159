"""Golden records: 77 trials over 7 configurations, recomputed and
compared with tests/data/golden_records.json.

The file was written by the build whose Lanczos solve stops at a relative
residual of 1e-3 and reports lambda2 = 1 - theta - rho, so this test is
the check that later builds give the same records.  Integer, boolean,
tuple and derived float fields must match exactly; the eigensolver's
outputs (`lambda2`, `beta_lower`) to a relative 1e-9, since their last
bits depend on the BLAS.

A change that means to alter records rewrites the file with

    PYTHONPATH=src python tests/test_golden_records.py

and says so in CHANGES.md.
"""

import json
import os

import pytest

from perclab.harness import ExperimentConfig, finite, run_experiment

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_records.json")

CONFIGS = [
    dict(n=100_000, d=3, alpha=0.18, trials=10),
    dict(n=20_000, d=4, alpha=0.2, trials=10),
    dict(n=3000, d=3, alpha=0.18, base_seed=5, trials=10),
    dict(n=10_000, d=4, alpha=0.5, exhaustive_expansion=True, trials=10),
    dict(n=2000, d=3, alpha=0.3, mode="simple", trials=10),
    dict(n=2000, d=4, alpha=0.5, exhaustive_expansion=True, trials=10),
    dict(n=18, d=3, alpha=0.4, exhaustive_expansion=True, trials=17),
]

EIGENSOLVER_FIELDS = ("lambda2", "beta_lower")


def records(config: dict) -> list[dict]:
    """JSON-ready records of one configuration, without runtime_ms."""
    recs = finite(run_experiment(ExperimentConfig(**config)))["records"]
    for rec in recs:
        del rec["runtime_ms"]
    return recs


def load() -> list[dict]:
    with open(PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_records_match_golden(index):
    golden = load()
    assert [entry["config"] for entry in golden] == CONFIGS
    want = golden[index]["records"]
    got = records(CONFIGS[index])
    assert len(got) == len(want) == CONFIGS[index]["trials"]
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in w:
            where = f"config {index}, trial {w['trial']}, {key}"
            if key in EIGENSOLVER_FIELDS and w[key] is not None:
                assert g[key] == pytest.approx(w[key], rel=1e-9, abs=0), where
            else:
                assert g[key] == w[key], where


if __name__ == "__main__":
    out = [{"config": c, "records": records(c)} for c in CONFIGS]
    with open(PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
