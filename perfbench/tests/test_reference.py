"""reference.py against networkx, subset enumeration and exact enumeration
of pairings, on small multigraphs with loops and parallel edges."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest

import reference as ref


def random_multigraphs(count=150, max_n=9, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(0, 2 * n + 2))
        yield n, rng.integers(0, n, size=(m, 2)).astype(np.int64).reshape(-1, 2)


def nx_graph(n, edges):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    return g


def brute_core(n, edges):
    """Largest vertex set whose induced multigraph has minimum degree >= 2."""
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            g = nx_graph(n, edges).subgraph(subset)
            if all(deg >= 2 for _, deg in g.degree()):
                return set(subset)
    return set()


def brute_runs(n, edges, core):
    """Longest connected set of core degree-2 vertices that is not a whole
    core component, and the number of core components of degree-2 vertices."""
    g = nx_graph(n, edges).subgraph(core)
    two = [v for v, deg in g.degree() if deg == 2]
    comps = [set(c) for c in nx.connected_components(g)]
    cycles = sum(all(g.degree(v) == 2 for v in c) for c in comps)
    best = 0
    for size in range(1, len(two) + 1):
        for subset in itertools.combinations(two, size):
            if nx.is_connected(g.subgraph(subset)) and set(subset) not in comps:
                best = size
    return best, cycles


def test_components_match_networkx():
    for n, edges in random_multigraphs():
        comps = list(nx.connected_components(nx_graph(n, edges)))
        got = ref.components(n, edges)
        assert got.count == len(comps)
        assert got.giant == max(len(c) for c in comps)


def test_peel_matches_subset_enumeration():
    for n, edges in random_multigraphs(max_n=8):
        core = ref.peel(n, edges)
        want = brute_core(n, edges)
        assert set(np.flatnonzero(core.alive).tolist()) == want
        sub = nx_graph(n, edges).subgraph(want)
        assert core.kernel_size == sum(deg >= 3 for _, deg in sub.degree())


def test_deg2_runs_match_subset_enumeration():
    for n, edges in random_multigraphs(max_n=8):
        core = ref.peel(n, edges)
        runs = ref.deg2_runs(n, core)
        longest, cycles = brute_runs(n, edges, set(np.flatnonzero(core.alive).tolist()))
        assert (runs.longest, runs.cycles) == (longest, cycles)
        assert runs.longest_set.size == runs.longest


def test_bfs_and_boundary_match_networkx():
    for n, edges in random_multigraphs():
        g = nx_graph(n, edges)
        dist = ref.bfs_distances(n, edges, 0)
        want = nx.single_source_shortest_path_length(g, 0)
        assert {v: int(d) for v, d in enumerate(dist) if d >= 0} == want
        subset = np.flatnonzero(dist <= 1)
        boundary = nx.node_boundary(g, subset.tolist())
        assert ref.boundary_ratio(n, edges, subset) == len(boundary) / subset.size


def dense_laplacian(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] += 1
        a[v, u] += 1
    deg = a.sum(axis=1)
    scale = 1 / np.sqrt(deg)
    return np.eye(n) - scale[:, None] * a * scale[None, :], deg


def test_rayleigh_quotient_matches_dense_laplacian():
    checked = 0
    for n, edges in random_multigraphs(max_n=12):
        if n < 2 or (ref.degrees(n, edges) == 0).any():
            continue
        lap, deg = dense_laplacian(n, edges)
        y = ref.probe_vector(n, edges)
        x = np.sqrt(deg) * (y - deg @ y / deg.sum())
        if x @ x < 1e-12:
            continue
        rq = ref.rayleigh_quotient(n, edges, y)
        assert rq == pytest.approx(x @ lap @ x / (x @ x))
        assert np.linalg.eigvalsh(lap)[1] <= rq + 1e-9
        checked += 1
    assert checked > 20


def test_pairing_defects_match_networkx():
    for n, edges in random_multigraphs():
        g = nx_graph(n, edges)
        pairs = {tuple(sorted(e)) for e in edges.tolist() if e[0] != e[1]}
        mult = {e: g.number_of_edges(*e) for e in pairs}
        marked = {u for u, v in nx.selfloop_edges(g)}
        marked |= {v for e, k in mult.items() if k > 1 for v in e}
        want = (nx.number_of_selfloops(g), sum(math.comb(k, 2) for k in mult.values()), len(marked))
        assert ref.pairing_defects(n, edges) == want


def all_pairings(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3), (4, 2), (3, 4)])
def test_expected_loops_and_doubles_by_enumeration(n, d):
    loops, doubles, count = 0, 0, 0
    for pairing in all_pairings(list(range(n * d))):
        edges = np.array([(a // d, b // d) for a, b in pairing], dtype=np.int64)
        got = ref.pairing_defects(n, edges)
        loops += got[0]
        doubles += got[1]
        count += 1
    assert loops / count == pytest.approx(ref.expected_loops(n, d))
    assert doubles / count == pytest.approx(ref.expected_doubles(n, d))


def test_lost_one_mean_by_enumeration():
    n, d, p = 5, 4, 0.3  # K5 is 4-regular and simple
    edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    mean = 0.0
    for deleted in itertools.product([0, 1], repeat=n):
        dead = np.array(deleted, dtype=bool)
        keep = edges[~dead[edges[:, 0]] & ~dead[edges[:, 1]]]
        deg = ref.degrees(n, keep)
        weight = p ** dead.sum() * (1 - p) ** (n - dead.sum())
        mean += weight * np.count_nonzero(~dead & (deg == d - 1))
    assert mean == pytest.approx(ref.lost_one_mean(n, d, p))


def test_bands():
    b = ref.binomial_band(10_000, 0.1, 1e-7)
    assert 1000 in b and b.lo > 800 and b.hi < 1200 and 700 not in b
    b = ref.poisson_band(3.0, 1e-7)
    assert 0 in b and 3 in b and 30 not in b
    wide = ref.freedman_band(100.0, 1000, 5, 0.1, 1e-9)
    narrow = ref.freedman_band(100.0, 1000, 5, 0.1, 1e-3)
    assert wide.lo < narrow.lo < 100 < narrow.hi < wide.hi
