"""Sampler, projection, and serialization checks for the pairing model.

Small-case oracles are computed by hand or by exhaustive enumeration of
all (2m-1)!! matchings, then frozen as constants below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.pairing import (
    Configuration,
    DegreeSequence,
    InvalidDegreeSequenceError,
    Multigraph,
    SamplingFailureError,
    canonical_edges,
    enumerate_matchings,
    format_configuration,
    format_multigraph,
    is_simple,
    matching_key,
    pair_probability,
    parse_configuration,
    parse_multigraph,
    project,
    sample_configuration,
    sample_simple_regular,
)

from canonical_form import assert_canonical


# ---------------------------------------------------------------------------
# degree sequences


def test_regular_sequence():
    seq = DegreeSequence.regular(5, 4)
    assert seq.n == 5
    assert seq.total_points == 20
    assert np.array_equal(seq.degrees, np.full(5, 4))


def test_negative_degree_rejected():
    with pytest.raises(InvalidDegreeSequenceError):
        DegreeSequence(np.array([2, -1, 3]))


def test_odd_total_rejected():
    with pytest.raises(InvalidDegreeSequenceError):
        DegreeSequence(np.array([1, 1, 1]))


def test_offsets_partition_points():
    seq = DegreeSequence(np.array([2, 0, 3, 1]))
    # bucket i owns the half-open slice [offsets[i], offsets[i+1])
    assert seq.offsets[0] == 0
    assert seq.offsets[-1] == seq.total_points
    assert np.array_equal(np.diff(seq.offsets), seq.degrees)


# ---------------------------------------------------------------------------
# counting oracles


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumeration_count_matches_double_factorial(m):
    # (2m-1)!! = 1 * 3 * ... * (2m-1) perfect matchings of 2m points
    assert len(enumerate_matchings(2 * m)) == math.prod(range(1, 2 * m, 2))


def test_enumeration_keys_are_distinct_involutions():
    seen = set()
    for key in enumerate_matchings(6):
        assert key not in seen
        seen.add(key)
        touched = [p for pair in key for p in pair]
        assert sorted(touched) == list(range(6))
        for p, q in key:
            assert p < q


def test_pair_probability_exact():
    # one prescribed pair among 2m=4 points: 1/(2m-1) = 1/3
    assert pair_probability(2, 1) == pytest.approx(1 / 3)
    # both pairs prescribed: the whole matching, 1/3!! = 1/3 * 1/1
    assert pair_probability(2, 2) == pytest.approx(1 / 3)
    assert pair_probability(3, 3) == pytest.approx(1 / 15)
    assert pair_probability(5, 0) == 1.0
    with pytest.raises(ValueError):
        pair_probability(2, 3)


def test_pair_probability_vs_enumeration():
    # fraction of matchings of 6 points containing the pair (0, 1)
    hits = sum((0, 1) in key for key in enumerate_matchings(6))
    assert hits / 15 == pytest.approx(pair_probability(3, 1))


# ---------------------------------------------------------------------------
# sampler


def test_single_bucket_unique_matching():
    # one bucket of degree 2 has exactly one matching: a loop
    seq = DegreeSequence(np.array([2]))
    cfg = sample_configuration(seq, seed=7)
    assert np.array_equal(cfg.pairs, [[0, 1]])
    g = project(cfg)
    assert g.n == 1 and g.m == 1
    assert np.array_equal(g.degree, [2])


def test_sampled_pairs_are_canonical():
    for seq in (DegreeSequence.regular(30, 3), DegreeSequence(np.array([3, 1, 0, 2, 2]))):
        for seed in range(20):
            assert_canonical(sample_configuration(seq, seed=seed))


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([1, 0, 3, 2, 5, 4], "shape"),  # a mate-style involution
        ([[2, 3], [0, 1], [4, 5]], "canonical"),  # rows not by increasing u
        ([[1, 0], [2, 3], [4, 5]], "canonical"),  # u > v within a row
        ([[0, 1], [1, 2], [3, 4]], "more than once"),  # point 1 twice, 5 never
        ([[0, 1], [2, 3], [4, 6]], "out of range"),
        ([[-1, 0], [2, 3], [4, 5]], "out of range"),
        ([[0, 2], [1, 2], [3, 4]], "more than once"),  # point 2 twice as v, 5 never
        ([[0, 5], [1, 2], [3, 5]], "more than once"),  # point 5 twice as v, 4 never
        ([[0, 3], [1, 2], [3, 4]], "more than once"),  # point 3 as v and as u, 5 never
    ],
)
def test_configuration_rejects_noncanonical_pairs(pairs, message):
    # the constructor trusts its caller, so the tests' check of each
    # producer is what must catch these
    with pytest.raises(AssertionError, match=message):
        assert_canonical(Configuration(DegreeSequence.regular(3, 2), np.array(pairs)))


def test_sampler_determinism_and_generator_passthrough():
    seq = DegreeSequence.regular(50, 4)
    a = sample_configuration(seq, seed=11)
    b = sample_configuration(seq, seed=11)
    c = sample_configuration(seq, seed=np.random.default_rng(11))
    assert np.array_equal(a.pairs, b.pairs)
    assert np.array_equal(a.pairs, c.pairs)


def test_sampler_hits_all_matchings_of_six_points():
    # 3 buckets of degree 2: 15 matchings total.  2000 draws with a fixed
    # seed should see every one, with counts in a generous band around
    # 2000/15 (4-sigma half-width is about 45 here).
    seq = DegreeSequence.regular(3, 2)
    rng = np.random.default_rng(42)
    counts: dict[tuple, int] = {}
    for _ in range(2000):
        cfg = sample_configuration(seq, rng)
        key = matching_key(cfg.pairs)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    expect = 2000 / 15
    sigma = math.sqrt(2000 * (1 / 15) * (14 / 15))
    assert max(counts.values()) < expect + 5 * sigma
    assert min(counts.values()) > expect - 5 * sigma


def test_specific_pair_frequency():
    # P(point 0 pairs with point 1) = 1/(2m-1) = 1/9 for 10 points
    seq = DegreeSequence.regular(5, 2)
    rng = np.random.default_rng(123)
    n_draws = 4000
    hits = 0
    for _ in range(n_draws):
        cfg = sample_configuration(seq, rng)
        hits += cfg.pairs[0, 1] == 1
    p = 1 / 9
    sigma = math.sqrt(p * (1 - p) / n_draws)
    assert abs(hits / n_draws - p) < 4 * sigma


def test_empty_pairing():
    for degs in ([], [0, 0, 0]):
        cfg = sample_configuration(DegreeSequence(np.array(degs, dtype=np.int64)), seed=1)
        assert cfg.pairs.shape == (0, 2)
        assert project(cfg).m == 0


# ---------------------------------------------------------------------------
# projection and simplicity


@pytest.mark.parametrize(
    "degs",
    [[d] * n for d in range(1, 6) for n in (2, 7, 40) if n * d % 2 == 0]
    + [[0, 3, 0, 1, 4, 0], [2, 0, 0, 2], [0, 0, 5, 1], [1, 1, 0], [0], [], [0, 0]],
)
def test_project_matches_point_to_bucket_gather(degs):
    # regular sequences divide point ids by d; the rest gather the table
    seq = DegreeSequence(np.array(degs, dtype=np.int64))
    for seed in range(3):
        cfg = sample_configuration(seq, seed=seed)
        g = project(cfg)
        expect = np.take(seq.bucket_of_point, cfg.pairs)
        assert g.edges.dtype == np.int64 and g.edges.shape == expect.shape
        assert np.array_equal(g.edges, expect)


def test_projection_loop_and_parallel():
    seq = DegreeSequence(np.array([3, 3]))
    # points 0,1,2 belong to bucket 0; 3,4,5 to bucket 1.
    # matching: loops (0,1) and (4,5), plus the cross edge (2,3).
    cfg = Configuration(seq, np.array([[0, 1], [2, 3], [4, 5]]))
    g = project(cfg)
    assert g.n == 2 and g.m == 3
    assert np.array_equal(canonical_edges(g.edges), [[0, 0], [0, 1], [1, 1]])
    assert np.array_equal(g.degree, [3, 3])  # each loop counts twice
    assert not is_simple(g)

    # two buckets of degree 2 wired straight across: parallel edges
    seq2 = DegreeSequence(np.array([2, 2]))
    cfg2 = Configuration(seq2, np.array([[0, 2], [1, 3]]))
    g2 = project(cfg2)
    assert np.array_equal(canonical_edges(g2.edges), [[0, 1], [0, 1]])
    assert not is_simple(g2)


def test_is_simple_cases():
    k4 = Multigraph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))
    assert is_simple(k4)
    assert not is_simple(Multigraph(2, np.array([[0, 0]])))
    assert not is_simple(Multigraph(3, np.array([[0, 1], [1, 0]])))
    assert is_simple(Multigraph(3, np.zeros((0, 2), dtype=np.int64)))


def adjacency_by_argsort(g):
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    eid = np.tile(np.arange(g.m, dtype=np.int64), 2)
    order = np.argsort(src, kind="stable")
    return np.cumsum(np.bincount(src, minlength=g.n)), dst[order], eid[order]


def test_adjacency_is_stable_argsort_incidence():
    rng = np.random.default_rng(3)
    graphs = [Multigraph(0, np.zeros((0, 2))), Multigraph(5, np.zeros((0, 2)))]
    for _ in range(30):
        n = int(rng.integers(1, 30))
        # few vertices, many edges: loops, parallel edges, isolated vertices
        graphs.append(Multigraph(n, rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))))
    for g in graphs:
        indptr, nbr, eid = g.adjacency()
        ref_ends, ref_nbr, ref_eid = adjacency_by_argsort(g)
        assert indptr.dtype == nbr.dtype == eid.dtype == np.int64
        assert indptr[0] == 0 and np.array_equal(indptr[1:], ref_ends)
        assert np.array_equal(nbr, ref_nbr)
        assert np.array_equal(eid, ref_eid)


def test_four_vertices_cubic_is_complete_graph():
    # the only simple cubic graph on 4 vertices is K4, whatever the seed
    want = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    for seed in (0, 1, 2, 17):
        cfg, g, rejections = sample_simple_regular(4, 3, seed=seed)
        assert np.array_equal(canonical_edges(g.edges), want)
        assert rejections >= 0
        assert np.array_equal(project(cfg).edges, g.edges)


def test_two_vertices_cubic_has_no_simple_graph():
    with pytest.raises(SamplingFailureError):
        sample_simple_regular(2, 3, seed=0, retry_cap=50)


def test_rejection_acceptance_rate_cubic():
    # asymptotic simple fraction for d=3 is e^-2; check loosely at n=200
    accepted = 0
    total = 0
    rng = np.random.default_rng(5)
    seq = DegreeSequence.regular(200, 3)
    for _ in range(400):
        cfg = sample_configuration(seq, rng)
        total += 1
        accepted += is_simple(project(cfg))
    rate = accepted / total
    assert 0.06 < rate < 0.25  # e^-2 ~ 0.135, generous 400-draw band


# ---------------------------------------------------------------------------
# hypothesis properties

degree_lists = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12)


@st.composite
def even_sum_degrees(draw):
    degs = draw(degree_lists)
    if sum(degs) % 2 == 1:
        # bump a degree to restore parity
        degs[0] += 1
    return np.array(degs, dtype=np.int64)


@given(even_sum_degrees(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_projection_preserves_degrees(degs, seed):
    seq = DegreeSequence(degs)
    cfg = sample_configuration(seq, seed=seed)
    g = project(cfg)
    assert np.array_equal(g.degree, degs)
    # handshake: edge count is half the total degree
    assert 2 * g.m == int(degs.sum())


@given(even_sum_degrees(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_configuration_text_roundtrip(degs, seed):
    cfg = sample_configuration(DegreeSequence(degs), seed=seed)
    back = parse_configuration(format_configuration(cfg))
    assert back == cfg


# ---------------------------------------------------------------------------
# serialization


def test_configuration_format_is_one_based():
    seq = DegreeSequence(np.array([2]))
    cfg = Configuration(seq, np.array([[0, 1]]))
    text = format_configuration(cfg)
    lines = text.strip().splitlines()
    assert lines[0].split() == ["1", "2"]
    assert lines[1].split() == ["1", "1", "1", "2"]


def test_multigraph_text_roundtrip():
    g = Multigraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [1, 1]]))
    back = parse_multigraph(format_multigraph(g))
    assert back == g
    lines = format_multigraph(back).splitlines()
    assert lines[0] == "4"  # vertex count header
    assert lines[1].split() == ["1", "2"]  # edges 1-based, canonical order


def test_parse_rejects_bucket_label_out_of_range():
    for line in ("3 1 1 1", "1 1 3 1", "0 1 1 1", "-1 1 1 1"):
        with pytest.raises(ValueError, match="bucket label"):
            parse_configuration("2 1 1\n" + line + "\n")


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n1 1 1 1\n",  # a point paired with itself
        "2 2 2\n1 1 2 1\n1 1 2 2\n",  # bucket 1's first point on two lines
    ],
)
def test_parse_rejects_point_matched_twice(text):
    with pytest.raises(ValueError, match="matched twice"):
        parse_configuration(text)


def test_parse_puts_pairs_in_canonical_order():
    cfg = parse_configuration("3 2 2 2\n3 2 1 1\n2 2 1 2\n3 1 2 1\n")
    assert np.array_equal(cfg.pairs, [[0, 5], [1, 3], [2, 4]])


@pytest.mark.parametrize("degs", [[4] * 12, [3, 1, 0, 2, 2]])
def test_parse_of_shuffled_text_is_canonical(degs):
    # pair lines in random order, each with its two points in random order
    rng = np.random.default_rng(5)
    cfg = sample_configuration(DegreeSequence(np.array(degs)), seed=rng)
    header, *body = format_configuration(cfg).splitlines()
    body = [ln.split() for ln in body]
    body = [" ".join(t[2:] + t[:2] if rng.random() < 0.5 else t) for t in body]
    rng.shuffle(body)
    back = parse_configuration("\n".join([header, *body]))
    assert_canonical(back)
    assert back == cfg


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_configuration("3 2 2\n1 1 2 1\n")  # header says n=3 but lists 2 degrees
    with pytest.raises(ValueError):
        parse_multigraph("1 2 3\n")


def test_parse_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="n=-3"):
        parse_multigraph("-3")


@pytest.mark.parametrize("text", ["3\n1 4\n", "3\n0 1\n", "3\n1 2\n3 -2\n", "0\n1 1\n"])
def test_parse_rejects_edge_endpoint_out_of_range(text):
    with pytest.raises(ValueError, match="endpoint out of range"):
        parse_multigraph(text)
