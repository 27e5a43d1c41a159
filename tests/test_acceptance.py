"""Full verification battery.

Each criterion prints one PASS/FAIL line (visible even under capture)
and the test asserts it passed.  The shared context caches the heavy
trial batches so the battery builds each one exactly once.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from perclab.acceptance import (
    CRITERIA,
    UNIFORMITY_LEVEL,
    AcceptanceContext,
    _chisquare,
    deletion_uniformity,
    matching_uniformity,
)
from perclab.pairing import Configuration, DegreeSequence
from perclab.percolation import apply_deletion


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize(
    "idx", range(1, len(CRITERIA) + 1), ids=[f.__name__ for f in CRITERIA]
)
def test_criterion(idx, ctx, capsys):
    res = CRITERIA[idx - 1](ctx)
    with capsys.disabled():
        print(res.line(), flush=True)
    assert res.passed, res.line()


def test_uniformity_checks_pass():
    rng = np.random.default_rng(5)
    mt = matching_uniformity(rng, 3000)
    assert mt["passed"]
    assert mt["observed_categories"] == mt["categories"] == 15
    assert mt["pvalue"] > UNIFORMITY_LEVEL
    assert deletion_uniformity() == {
        "groups": 68 + 114, "failed_groups": 0, "first_failure": None, "passed": True
    }


def test_uniformity_checks_run_on_their_own():
    assert matching_uniformity(1, 1500)["passed"]


def drop_surviving_loops(config, deleted):
    """apply_deletion, then drop every loop of the survivor, which lowers
    its bucket's degree by two."""
    out = apply_deletion(config, deleted)
    s = out.survivor
    bop = s.seq.bucket_of_point
    loop = bop[s.pairs[:, 0]] == bop[s.pairs[:, 1]]
    keep_point = np.ones(s.seq.total_points, dtype=bool)
    keep_point[s.pairs[loop].ravel()] = False
    degrees = s.seq.degrees - 2 * np.bincount(bop[s.pairs[loop, 0]], minlength=s.n)
    new_id = np.cumsum(keep_point) - 1
    survivor = Configuration(DegreeSequence(degrees), new_id[s.pairs[~loop]])
    return dataclasses.replace(out, survivor=survivor)


def rewrite_one_matching(config, deleted):
    """apply_deletion, then turn the survivor matching [[0,1],[2,3]] into
    [[0,2],[1,3]]."""
    out = apply_deletion(config, deleted)
    if out.survivor.pairs.tolist() == [[0, 1], [2, 3]]:
        out.survivor = Configuration(out.survivor.seq, np.array([[0, 2], [1, 3]]))
    return out


@pytest.mark.parametrize(
    "mutant, failed_groups",
    [(drop_surviving_loops, 45 + 56), (rewrite_one_matching, 30 + 38)],
)
def test_deletion_uniformity_catches_biased_deletion(monkeypatch, mutant, failed_groups):
    monkeypatch.setattr("perclab.acceptance.apply_deletion", mutant)
    du = deletion_uniformity()
    assert not du["passed"]
    assert du["failed_groups"] == failed_groups
    f = du["first_failure"]
    assert f["min_count"] < f["max_count"]


def test_chisquare_matches_scipy_stats():
    rng = np.random.default_rng(2)
    for _ in range(200):
        obs = rng.integers(1, 500, size=int(rng.integers(2, 120))).astype(float)
        chi2, pval = stats.chisquare(obs)
        assert _chisquare(obs) == (float(chi2), float(pval))
