"""Closed-form predictions: degree census means, regime boundaries,
bush size bound, and decay exponents.

All constants below are recomputed by hand from the defining formulas:
mu_j = C(d, j) n^(1 - (d-j) alpha), K = floor(2 / ((d-2) eta)) + 1, and
the tree-decay exponent 1 - 2(d-1) alpha.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.theory import (
    ModelParams,
    bush_bound_K,
    core_mu,
    expected_deg2_paths,
    expected_r,
    isolated_edge_mean,
    isolated_tree_decay,
    isolated_vertex_cap,
    mu,
    mu_all,
    predictions,
    regime_classify,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, d=4, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=10, d=2, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=10, d=3, alpha=0.0)
    p = ModelParams(n=10, d=3, alpha=0.4)
    assert p.eta == 0.4  # defaults to alpha
    assert p.p == pytest.approx(10**-0.4)


def test_mu_census_means():
    p = ModelParams(n=10**5, d=4, alpha=0.5)
    # by hand: mu_j = C(4,j) * (10^5)^(1 - (4-j)/2)
    assert mu(0, p) == pytest.approx(1e-5)
    assert mu(1, p) == pytest.approx(4 * 10**-2.5)
    assert mu(2, p) == pytest.approx(6.0)
    assert mu(3, p) == pytest.approx(4 * 10**2.5)
    assert mu(4, p) == pytest.approx(1e5)
    assert mu_all(p) == pytest.approx([1e-5, 4 * 10**-2.5, 6.0, 4 * 10**2.5, 1e5])


def test_mu_index_bounds():
    p = ModelParams(n=100, d=3, alpha=0.5)
    with pytest.raises(ValueError):
        mu(-1, p)
    with pytest.raises(ValueError):
        mu(4, p)


def test_expected_deletions_and_concentration():
    big = ModelParams(n=10**5, d=4, alpha=0.5)
    val, conc = expected_r(big)
    assert val == pytest.approx(10**2.5)
    assert conc  # 316 >> 30
    small = ModelParams(n=100, d=4, alpha=0.9)
    val2, conc2 = expected_r(small)
    assert val2 == pytest.approx(100**0.1)
    assert not conc2


def test_bush_bound_values():
    assert bush_bound_K(4, 0.5) == 3
    assert bush_bound_K(3, 0.2) == 11
    assert bush_bound_K(3, 0.3) == 7
    assert bush_bound_K(5, 1.0) == 1  # floor(2/3) + 1


def test_bush_bound_shrinks_with_eta():
    last = None
    for eta in (0.05, 0.1, 0.2, 0.4, 0.8):
        K = bush_bound_K(3, eta)
        if last is not None:
            assert K <= last
        last = K


def test_regime_boundaries():
    assert regime_classify(4, 0.5) == "c"
    assert regime_classify(3, 0.3) == "b"
    assert regime_classify(3, 0.2) == "a"
    # inclusive conventions at the two boundaries
    assert regime_classify(3, 0.5) == "c"  # eta = 1/(d-1)
    assert regime_classify(4, 1 / 6) == "a"  # eta = 1/(2(d-1))
    assert regime_classify(3, 0.25) == "a"


def test_isolated_tree_decay():
    # d=3, alpha=0.3: exponent 1 - 2*2*0.3 = -0.2
    p = ModelParams(n=10**5, d=3, alpha=0.3)
    assert isolated_tree_decay(p) == pytest.approx(10 ** (5 * -0.2))
    # supercritical alpha decays, subcritical blows up
    assert isolated_tree_decay(ModelParams(n=10**6, d=4, alpha=0.5)) < 1e-6


def test_isolated_edge_mean():
    # n=100, d=3, alpha=1/2: p = 0.1, so 150 * 0.9^2 * 0.1^4 = 0.01215
    p = ModelParams(n=100, d=3, alpha=0.5)
    assert isolated_edge_mean(p) == pytest.approx(0.01215, rel=1e-12)
    pred = predictions(p)
    assert pred["isolated_edge_mean"] == isolated_edge_mean(p)
    # the leading order drops the nd/2 (1-p)^2 factor
    assert pred["isolated_tree_decay"] == pytest.approx(100**-1.0)


def test_isolated_vertex_cap():
    p = ModelParams(n=10**6, d=3, alpha=0.5)
    # n^((d-2)/(2d-2)) = n^(1/4)
    assert isolated_vertex_cap(p) == pytest.approx(10**1.5)


def test_expected_deg2_paths_formula():
    # (t-k)^2/(2m) * ((n2-k)/(2m))^(k-1), zero on degenerate inputs
    val = expected_deg2_paths(1000.0, 2e6, 4000.0, 2)
    want = (998.0**2 / 4e6) * (3998.0 / 4e6)
    assert val == pytest.approx(want)
    assert expected_deg2_paths(0.0, 10.0, 5.0, 1) == 0.0
    assert expected_deg2_paths(3.0, 0.0, 5.0, 1) == 0.0
    assert expected_deg2_paths(2.0, 10.0, 1.0, 2) == 0.0  # n2 < k


def test_core_size_leading_order():
    p = ModelParams(n=10**5, d=4, alpha=0.5)
    cm = core_mu(p)
    # the degree-2 census mean reappears as the core's deg-2 supply
    assert cm["n2"] == pytest.approx(mu(2, p))
    assert cm["t"] <= p.n
    assert cm["t"] == pytest.approx(p.n, rel=0.01)  # nearly everything survives


def test_predictions_bundle():
    p = ModelParams(n=10**5, d=4, alpha=0.5)
    pr = predictions(p, run_lengths=(2, 3))
    assert pr["K"] == 3
    assert pr["regime"] == "c"
    assert pr["r_concentrated"]
    assert list(pr["deg2_paths"]) == ["2", "3"]
    # longer prescribed runs are rarer
    assert pr["deg2_paths"]["2"] > pr["deg2_paths"]["3"]
    assert len(pr["mu"]) == 5


@given(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_bush_bound_sufficiency(d, eta):
    # K is the least integer with (d-2)*eta*K/2 > 1 - eta... in usable
    # form: a tree of size K+1 has vanishing expected count, i.e. the
    # exponent (K+1)(1 - (d-1)alpha) + (d-2)(K+1)/2 * ... reduces to
    # requiring K > 2/((d-2)eta); check minimality directly.
    K = bush_bound_K(d, eta)
    assert K >= 1
    assert (d - 2) * eta * K > 2 or math.isclose((d - 2) * eta * K, 2)
    if K > 1:
        assert (d - 2) * eta * (K - 1) <= 2


@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_mu_matches_binomial_mean_shape(d, j, eta):
    if j > d:
        return
    p = ModelParams(n=10**4, d=d, alpha=eta)
    want = math.comb(d, j) * 10 ** (4 * (1 - (d - j) * eta))
    assert mu(j, p) == pytest.approx(want)
