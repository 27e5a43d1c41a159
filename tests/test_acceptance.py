"""Full verification battery.

Each criterion prints one PASS/FAIL line (visible even under capture)
and the test asserts it passed.  The shared context caches the heavy
trial batches so the battery builds each one exactly once.
"""

import numpy as np
import pytest
from scipy import stats

from perclab.acceptance import (
    CRITERIA,
    UNIFORMITY_LEVEL,
    AcceptanceContext,
    _chisquare,
    conditional_uniformity,
    matching_uniformity,
)


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
    ct = conditional_uniformity(rng, 12000)
    assert ct["passed"]
    nontrivial = [c for c in ct["cases"] if not c["trivial"]]
    assert nontrivial
    for case in nontrivial:
        assert case["pvalue"] > UNIFORMITY_LEVEL


def test_uniformity_checks_run_on_their_own():
    assert matching_uniformity(1, 1500)["passed"]
    assert conditional_uniformity(1, 8000)["passed"]


def test_chisquare_matches_scipy_stats():
    rng = np.random.default_rng(2)
    for _ in range(200):
        obs = rng.integers(1, 500, size=int(rng.integers(2, 120))).astype(float)
        chi2, pval = stats.chisquare(obs)
        assert _chisquare(obs) == (float(chi2), float(pval))
