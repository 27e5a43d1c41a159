"""Vertex deletion on pairing-model configurations.

The three-bucket trace below is worked by hand: deleting the middle
bucket of a triangle leaves one edge between the other two, so the
survivor census is (N_0, N_1, N_2) = (0, 2, 0).
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.pairing import (
    Configuration,
    DegreeSequence,
    enumerate_matchings,
    project,
    sample_configuration,
)
from perclab.percolation import (
    DeletionParams,
    apply_deletion,
    choose_deletion_set,
    format_outcome,
    parse_outcome,
    reinstate,
)

from canonical_form import assert_canonical


def triangle_config() -> Configuration:
    # buckets 0,1,2 of degree 2; points 0,1 | 2,3 | 4,5
    # pairs (0,5), (1,2), (3,4) form the 3-cycle 0-1-2-0
    seq = DegreeSequence.regular(3, 2)
    return Configuration(seq, np.array([[0, 5], [1, 2], [3, 4]]))


def test_triangle_minus_middle_bucket():
    out = apply_deletion(triangle_config(), np.array([1]))
    assert out.survivor.n + out.r == 3
    assert np.array_equal(out.deleted, [1])
    assert out.r == 1
    assert np.array_equal(out.census, [0, 2, 0])
    # survivors keep one pair: the old (5,0) edge between buckets 2 and 0
    assert out.survivor.n == 2
    assert np.array_equal(out.survivor.seq.degrees, [1, 1])
    g = project(out.survivor)
    assert np.array_equal(g.edges, [[0, 1]])


def survivor_by_hand(degrees, pairs, deleted):
    """(survivor degrees, survivor pairs) by plain loops: keep the pairs
    whose two buckets live, renumber the points they use in order."""
    bucket = [b for b, d in enumerate(degrees) for _ in range(d)]
    kept = [(u, v) for u, v in pairs if bucket[u] not in deleted and bucket[v] not in deleted]
    used = sorted(p for pair in kept for p in pair)
    new = {p: i for i, p in enumerate(used)}
    live = [b for b in range(len(degrees)) if b not in deleted]
    return [sum(bucket[p] == b for p in used) for b in live], [[new[u], new[v]] for u, v in kept]


@pytest.mark.parametrize("degrees", [[2, 2, 2], [1, 2, 3, 2], [3, 1, 0, 2, 2]])
def test_deletion_matches_hand_relabelling_exhaustively(degrees):
    # every pairing of the points and every deletion set of the buckets
    seq = DegreeSequence(np.array(degrees))
    n = len(degrees)
    for key in enumerate_matchings(seq.total_points):
        cfg = Configuration(seq, np.array(key).reshape(-1, 2))
        for r in range(n + 1):
            for deleted in combinations(range(n), r):
                out = apply_deletion(cfg, np.array(deleted, dtype=np.int64))
                want_degrees, want_pairs = survivor_by_hand(degrees, key, set(deleted))
                assert out.survivor.seq.degrees.tolist() == want_degrees
                assert out.survivor.pairs.tolist() == want_pairs


def assert_delete_after_project(cfg, deleted):
    """Deleting after projecting, as harness.run_trial does, against
    apply_deletion then project: the same graph row for row, the surviving
    buckets as labels and the census of that graph's degrees.  The
    survivor's pairs must be canonical too."""
    alive = np.ones(cfg.n, dtype=bool)
    alive[deleted] = False
    got, labels = project(cfg).induced(alive)
    out = apply_deletion(cfg, deleted)
    assert_canonical(out.survivor)
    want = project(out.survivor)
    assert got.n == want.n
    assert got.edges.dtype == want.edges.dtype and np.array_equal(got.edges, want.edges)
    assert np.array_equal(labels, np.setdiff1d(np.arange(out.survivor.n + out.r), out.deleted))
    d = int(cfg.seq.degrees.max())
    assert np.array_equal(np.bincount(got.degree, minlength=d + 1), out.census)


@pytest.mark.parametrize("n", [40, 1000, 30_000])
def test_projection_commutes_with_deletion(n):
    rng = np.random.default_rng(n)
    degrees = rng.integers(0, 6, size=n)
    degrees[0] += degrees.sum() % 2
    cfg = sample_configuration(DegreeSequence(degrees), seed=rng)
    for deleted in [[], np.flatnonzero(rng.random(n) < 0.3), np.arange(n)]:
        assert_delete_after_project(cfg, np.asarray(deleted, dtype=np.int64))


@pytest.mark.parametrize("degrees", [(2, 2, 2, 2), (3, 1, 0, 2, 2)])
def test_delete_after_project_on_crit_11_corpora(degrees):
    # every pairing times every deletion set, as acceptance.deletion_uniformity
    seq = DegreeSequence(np.array(degrees))
    for key in enumerate_matchings(seq.total_points):
        cfg = Configuration(seq, np.array(key).reshape(-1, 2))
        for r in range(seq.n + 1):
            for deleted in combinations(range(seq.n), r):
                assert_delete_after_project(cfg, np.array(deleted, dtype=np.int64))


@pytest.mark.parametrize(
    "d, alpha, seed",
    [(4, 0.5, 1), (3, 0.18, 2), (4, 0.5, 3)],
    ids=["headline_1e6", "tight_d3", "certify_1e4"],
)
def test_delete_after_project_at_workload_shapes(d, alpha, seed):
    # n = 10^4 pairings at the benchmark's shapes: no deletion, a draw at
    # the workload's rate, and every bucket deleted
    n = 10_000
    rng = np.random.default_rng(seed)
    cfg = sample_configuration(DegreeSequence.regular(n, d), seed=rng)
    drawn = choose_deletion_set(DeletionParams(n, alpha=alpha, seed=rng))
    for deleted in [np.zeros(0, dtype=np.int64), drawn, np.arange(n)]:
        assert_delete_after_project(cfg, deleted)


def test_delete_nothing_is_identity():
    cfg = sample_configuration(DegreeSequence.regular(20, 3), seed=4)
    out = apply_deletion(cfg, np.zeros(0, dtype=np.int64))
    assert out.r == 0
    assert np.array_equal(out.census, [0, 0, 0, 20])
    assert out.survivor == cfg


def test_delete_everything():
    cfg = sample_configuration(DegreeSequence.regular(8, 3), seed=4)
    out = apply_deletion(cfg, np.arange(8))
    assert out.r == 8
    assert out.survivor.n == 0
    assert np.array_equal(out.census, [0, 0, 0, 0])
    assert out.survivor.seq.n == 0


def test_deletion_params_validation():
    with pytest.raises(ValueError):
        DeletionParams(n=10)  # neither alpha nor p
    with pytest.raises(ValueError):
        DeletionParams(n=10, alpha=0.5, p=0.1)  # both
    assert DeletionParams(n=100, alpha=0.5).prob == pytest.approx(0.1)
    assert DeletionParams(n=100, p=0.25).prob == 0.25


def test_choose_deletion_set_mean():
    # average |R| over many draws should sit near n*p
    n, p, reps = 4000, 0.3, 400
    rng = np.random.default_rng(8)
    total = sum(
        choose_deletion_set(DeletionParams(n=n, p=p, seed=rng)).size
        for _ in range(reps)
    )
    mean = total / reps
    se = math.sqrt(n * p * (1 - p) / reps)
    assert abs(mean - n * p) < 4 * se


def test_deletion_count_concentrates_at_scale():
    # p = n**-1/2 with n = 10**6 gives E|R| = 1000, sd ~ 31.6
    n = 10**6
    params = DeletionParams(n=n, alpha=0.5, seed=77)
    r = choose_deletion_set(params).size
    expect = n**0.5
    sd = math.sqrt(n * params.prob * (1 - params.prob))
    assert abs(r - expect) < 5 * sd


def test_percolate_is_deterministic():
    cfg = sample_configuration(DegreeSequence.regular(50, 4), seed=1)
    a = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=50, p=0.3, seed=9)))
    b = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=50, p=0.3, seed=9)))
    assert np.array_equal(a.deleted, b.deleted)
    assert a.survivor == b.survivor


# ---------------------------------------------------------------------------
# reinstatement


def test_reinstate_all_recovers_original():
    cfg = sample_configuration(DegreeSequence.regular(30, 3), seed=6)
    out = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=30, p=0.4, seed=2)))
    back = reinstate(cfg, out, q=0.0)
    assert back.r == 0
    assert back.survivor == cfg


def test_reinstate_none_is_noop():
    cfg = sample_configuration(DegreeSequence.regular(30, 3), seed=6)
    out = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=30, p=0.4, seed=2)))
    again = reinstate(cfg, out, q=1.0)
    assert np.array_equal(again.deleted, out.deleted)
    assert again.survivor == out.survivor


def test_reinstate_q_extremes():
    cfg = sample_configuration(DegreeSequence.regular(30, 3), seed=6)
    out = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=30, p=0.4, seed=2)))
    keep_all = reinstate(cfg, out, q=1.0, seed=0)
    assert np.array_equal(keep_all.deleted, out.deleted)
    drop_all = reinstate(cfg, out, q=0.0, seed=0)
    assert drop_all.r == 0


def test_reinstate_checks_q_when_nothing_was_deleted():
    cfg = sample_configuration(DegreeSequence.regular(30, 3), seed=6)
    none_deleted = apply_deletion(cfg, [])
    assert reinstate(cfg, none_deleted, q=0.5, seed=0).r == 0
    with pytest.raises(ValueError):
        reinstate(cfg, none_deleted, q=5.0)


def test_two_stage_rate_composes():
    # stage one at p1, keep-deleted q: the surviving deletion set should
    # behave like a single binomial at rate p1*q
    n, p1, q, reps = 3000, 0.4, 0.5, 300
    seq = DegreeSequence.regular(n, 3)
    cfg = sample_configuration(seq, seed=10)
    rng = np.random.default_rng(11)
    total = 0
    for _ in range(reps):
        out = apply_deletion(cfg, choose_deletion_set(DeletionParams(n=n, p=p1, seed=rng)))
        final = reinstate(cfg, out, q=q, seed=rng)
        total += final.r
    mean = total / reps
    p_eff = p1 * q
    se = math.sqrt(n * p_eff * (1 - p_eff) / reps)
    assert abs(mean - n * p_eff) < 4 * se


# ---------------------------------------------------------------------------
# structural invariants

degree_lists = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=14)


@st.composite
def config_and_deletion(draw):
    degs = draw(degree_lists)
    if sum(degs) % 2 == 1:
        degs[0] += 1
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = len(degs)
    deleted = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    return np.array(degs), seed, np.array(deleted, dtype=np.int64)


@given(config_and_deletion())
@settings(max_examples=150, deadline=None)
def test_census_accounting(case):
    degs, seed, deleted = case
    cfg = sample_configuration(DegreeSequence(degs), seed=seed)
    out = apply_deletion(cfg, deleted)
    n = len(degs)
    assert out.census.sum() == n - deleted.size
    # handshake on the survivor graph
    total_deg = int((np.arange(out.census.size) * out.census).sum())
    assert total_deg % 2 == 0
    assert total_deg == 2 * project(out.survivor).m
    # degrees can only shrink; new label i is the i-th surviving bucket
    survivors = np.setdiff1d(np.arange(n), deleted)
    assert out.survivor.n == survivors.size
    assert np.all(out.survivor.seq.degrees <= degs[survivors])


@given(config_and_deletion())
@settings(max_examples=60, deadline=None)
def test_outcome_text_roundtrip(case):
    degs, seed, deleted = case
    cfg = sample_configuration(DegreeSequence(degs), seed=seed)
    out = apply_deletion(cfg, deleted)
    back = parse_outcome(format_outcome(out))
    assert back.survivor.n + back.r == out.survivor.n + out.r
    assert np.array_equal(back.deleted, out.deleted)
    assert np.array_equal(back.census, out.census)
    assert back.survivor == out.survivor


def triangle_outcome_text() -> str:
    text = format_outcome(apply_deletion(triangle_config(), np.array([1])))
    assert text.endswith("deleted: 2\ncensus: 0 2 0\n")
    return text[: -len("deleted: 2\ncensus: 0 2 0\n")]


@pytest.mark.parametrize(
    "trailer, message",
    [
        ("deleted: 5\ncensus: 0 2 0\n", "out of range"),
        ("deleted: 0\ncensus: 0 2 0\n", "out of range"),
        ("deleted: 2 2\ncensus: 0 2 0\n", "twice"),
        ("deleted: 2\ncensus: 9 9\n", "census"),
        ("deleted: 2\ncensus: 0 1 1\n", "census"),
        ("deleted: 2\ncensus: 2\n", "census"),  # shorter than max degree + 1
    ],
)
def test_parse_outcome_rejects_inconsistent_trailer(trailer, message):
    with pytest.raises(ValueError, match=message):
        parse_outcome(triangle_outcome_text() + trailer)
