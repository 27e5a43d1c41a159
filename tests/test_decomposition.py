"""Peeling, chain suppression, bushes, and component classification.

Oracles here are small graphs whose structure can be verified by hand,
plus a brute-force maximal-subgraph search for graphs up to 16 vertices
(two_core_bruteforce enumerates all vertex subsets).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab.pairing import (
    DegreeSequence,
    Multigraph,
    project,
    sample_configuration,
    sample_simple_regular,
)
from perclab.percolation import DeletionParams, percolate
from perclab.decomposition import (
    CYCLE,
    GIANT,
    OTHER,
    TREE,
    _components,
    bushes,
    classify_components,
    decompose,
    kernel,
    two_core,
    two_core_bruteforce,
)


def cycle(n: int) -> Multigraph:
    return Multigraph(n, np.array([[i, (i + 1) % n] for i in range(n)]))


def path(n: int) -> Multigraph:
    return Multigraph(n, np.array([[i, i + 1] for i in range(n - 1)]))


def k4() -> Multigraph:
    return Multigraph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))


def theta_122() -> Multigraph:
    # two branch vertices 0,1 joined by a direct edge, a path through 2,
    # and a path through 3: internal chain lengths 0, 1, 1
    return Multigraph(4, np.array([[0, 1], [0, 2], [2, 1], [0, 3], [3, 1]]))


def triangle_with_tail() -> Multigraph:
    # triangle 0-1-2, tail 0-3-4, and the isolated vertex 5
    return Multigraph(6, np.array([[0, 1], [1, 2], [2, 0], [0, 3], [3, 4]]))


# ---------------------------------------------------------------------------
# peeling


def test_tree_peels_to_nothing():
    core = two_core(path(7))
    assert core.size == 0
    assert not core.edge_mask.any()


def test_cycle_is_its_own_core():
    core = two_core(cycle(6))
    assert core.size == 6
    assert core.edge_mask.all()


def test_triangle_with_tail_core():
    core = two_core(triangle_with_tail())
    assert sorted(np.flatnonzero(core.alive).tolist()) == [0, 1, 2]
    assert np.count_nonzero(core.edge_mask) == 3
    sub, labels = core.subgraph()
    assert sub.n == 3 and sub.m == 3
    assert np.array_equal(labels, [0, 1, 2])


def test_loop_survives_peeling():
    # a loop provides degree 2 by itself
    g = Multigraph(2, np.array([[0, 0], [0, 1]]))
    core = two_core(g)
    assert np.array_equal(core.alive, [True, False])


def test_peel_commutes_with_relabelling():
    # rounds take the front in label order; a relabelled graph must give
    # the relabelled core
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(3, 40))
        degs = rng.integers(0, 4, size=n)
        if degs.sum() % 2:
            degs[0] += 1
        cfg = sample_configuration(DegreeSequence(degs), seed=int(rng.integers(2**31)))
        g = project(cfg)
        perm = rng.permutation(n)
        a = two_core(g)
        b = two_core(Multigraph(n, perm[g.edges]))
        assert np.array_equal(b.alive[perm], a.alive)
        assert np.array_equal(b.edge_mask, a.edge_mask)
        assert np.array_equal(b.degrees[perm], a.degrees)


def simple_part(g: Multigraph) -> Multigraph:
    """g without its loops, each set of parallel edges merged into one."""
    e = np.sort(g.edges[g.edges[:, 0] != g.edges[:, 1]], axis=1)
    return Multigraph(g.n, np.unique(e, axis=0))


def test_peel_matches_networkx_k_core():
    nx = pytest.importorskip("networkx")
    graphs = []
    for seed, p in [(0, 0.1), (1, 0.2), (2, 0.3)]:
        rng = np.random.default_rng(seed)
        _, g, _ = sample_simple_regular(2000, 3, seed=rng)
        graphs.append(g.induced(rng.random(g.n) >= p)[0])
    # the simple part of percolated pairings in the tightness regime and
    # just below the connectivity threshold
    for seed, (n, d, alpha) in enumerate([(10_000, 3, 0.18), (10_000, 4, 0.2)], start=3):
        cfg = sample_configuration(DegreeSequence.regular(n, d), seed=seed)
        graphs.append(simple_part(project(percolate(cfg, DeletionParams(n, alpha=alpha, seed=seed)).survivor)))
    for survivor in graphs:
        core = two_core(survivor)
        G = nx.Graph()
        G.add_nodes_from(range(survivor.n))
        G.add_edges_from(survivor.edges.tolist())
        assert G.number_of_edges() == survivor.m
        ref = nx.k_core(G, 2)
        alive = np.zeros(survivor.n, dtype=bool)
        alive[list(ref.nodes)] = True
        assert 0 < core.size < survivor.n
        assert np.array_equal(core.alive, alive)
        assert np.array_equal(core.edge_mask, alive[survivor.edges].all(axis=1))
        ref_deg = np.zeros(survivor.n, dtype=np.int64)
        for v, k in ref.degree:
            ref_deg[v] = k
        assert np.array_equal(core.degrees, ref_deg)


def test_long_pendant_path_peels_in_time():
    # a triangle with a 10^5-vertex tail: the peel takes one round per
    # tail vertex
    n = 100_000
    tail = np.column_stack([np.arange(2, n - 1), np.arange(3, n)])
    g = Multigraph(n, np.concatenate([[[0, 1], [1, 2], [2, 0]], tail]))
    t0 = time.perf_counter()
    core = two_core(g)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(np.flatnonzero(core.alive), [0, 1, 2])
    assert np.array_equal(np.flatnonzero(core.edge_mask), [0, 1, 2])
    assert elapsed < 10.0


def test_peel_matches_bruteforce():
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(2, 11))
        degs = rng.integers(0, 4, size=n)
        if degs.sum() % 2:
            degs[0] += 1
        g = project(sample_configuration(DegreeSequence(degs), seed=trial))
        assert np.array_equal(two_core(g).alive, two_core_bruteforce(g))


# ---------------------------------------------------------------------------
# kernel


def test_theta_kernel():
    k = kernel(theta_122())
    assert k.graph.n == 2
    assert k.graph.m == 3
    assert sorted(k.internal.tolist()) == [0, 1, 1]
    assert k.cycles == []
    assert np.array_equal(k.labels, [0, 1])


def test_subdivided_k4_contracts_back():
    # put one extra vertex on every edge of K4: kernel must be K4 again
    base = k4()
    edges = []
    nxt = 4
    for u, v in base.edges:
        edges.append([u, nxt])
        edges.append([nxt, v])
        nxt += 1
    g = Multigraph(nxt, np.array(edges))
    k = kernel(g)
    assert k.graph.n == 4
    assert k.graph.m == 6
    assert np.all(k.internal == 1)
    from perclab.pairing import canonical_edges

    assert np.array_equal(canonical_edges(k.graph.edges), canonical_edges(k4().edges))


def test_pure_cycle_leaves_no_kernel():
    k = kernel(cycle(9))
    assert k.graph.n == 0
    assert k.graph.m == 0
    assert len(k.cycles) == 1
    assert sorted(k.cycles[0].tolist()) == list(range(9))
    assert k.cycle_lengths == [9]


def test_kernel_rejects_degree_one():
    with pytest.raises(ValueError):
        kernel(path(3))


def test_kernel_conservation_random():
    # vertices and edges split exactly into kernel / chain / cycle parts,
    # which the implementation asserts internally; exercise it broadly
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = 2 * int(rng.integers(2, 8))  # even, so a cubic sequence pairs up
        g = project(sample_configuration(DegreeSequence.regular(n, 3), seed=trial))
        core_sub, _ = two_core(g).subgraph()
        if core_sub.n == 0:
            continue
        k = kernel(core_sub)
        assert k.graph.m + int(k.internal.sum()) + sum(k.cycle_lengths) == core_sub.m
        # kernel has min degree 3 unless everything sat on cycles
        if k.graph.n:
            assert int(k.graph.degree.min()) >= 3


@st.composite
def subdivided_multigraph(draw):
    """A multigraph H with min degree >= 3 (loops and parallel edges
    included), each edge e subdivided by k_e new vertices, plus disjoint
    cycles of lengths 1, 2 and L, all relabelled and shuffled.

    Returns (graph, kernel edges with k_e in graph labels, cycle vertex sets).
    """
    h = draw(st.integers(min_value=2, max_value=6))
    degs = draw(st.lists(st.integers(3, 5), min_size=h, max_size=h))
    if sum(degs) % 2:
        degs[0] += 1
    points = np.repeat(np.arange(h), degs)
    perm = draw(st.permutations(range(points.size)))
    base = points[np.array(perm, dtype=np.int64)].reshape(-1, 2).tolist()
    base += [[0, 0], [0, 1], [0, 1]]  # a loop and a parallel pair for sure
    ks = [draw(st.integers(0, 4)) for _ in base]
    ks[-3] = draw(st.integers(1, 4))  # the loop at 0 is a chain from 0 back to 0

    edges, nxt = [], h
    for (u, v), k in zip(base, ks):
        walk = [u] + list(range(nxt, nxt + k)) + [v]
        nxt += k
        edges += list(zip(walk[:-1], walk[1:]))
    L = draw(st.integers(3, 8))
    cycles = []
    for length in (1, 2, L):
        ring = list(range(nxt, nxt + length))
        nxt += length
        edges += list(zip(ring, ring[1:] + ring[:1]))
        cycles.append(ring)

    relabel = np.array(draw(st.permutations(range(nxt))), dtype=np.int64)
    e = relabel[np.array(edges, dtype=np.int64)]
    flip = np.array(draw(st.lists(st.booleans(), min_size=len(e), max_size=len(e))))
    e[flip] = e[flip][:, ::-1]
    e = e[np.array(draw(st.permutations(range(len(e)))), dtype=np.int64)]
    kernel_edges = [(tuple(sorted(relabel[[u, v]].tolist())), k) for (u, v), k in zip(base, ks)]
    cycle_sets = [sorted(relabel[c].tolist()) for c in cycles]
    return Multigraph(nxt, e), kernel_edges, cycle_sets


@given(subdivided_multigraph())
@settings(max_examples=150, deadline=None)
def test_kernel_recovers_subdivided_graph(case):
    g, kernel_edges, cycle_sets = case
    k = kernel(g)
    got = k.labels[k.graph.edges]
    got = sorted((tuple(sorted(map(int, uv))), int(c)) for uv, c in zip(got, k.internal))
    assert got == sorted(kernel_edges)
    assert sorted(k.internal.tolist()) == sorted(c for _, c in kernel_edges)
    assert sorted(k.cycle_lengths.tolist()) == sorted(len(c) for c in cycle_sets)
    assert sorted(sorted(c.tolist()) for c in k.cycles) == sorted(cycle_sets)


# ---------------------------------------------------------------------------
# degree-2 runs


def test_runs_on_theta():
    k = kernel(theta_122())
    assert sorted(k.internal.tolist()) == [0, 1, 1]
    assert k.longest_run == 1
    assert k.runs_at_least(1) == 2
    assert k.runs_at_least(2) == 0
    with pytest.raises(ValueError):
        k.runs_at_least(0)


def test_runs_on_pure_cycle():
    # a cycle of length L counts as a run of L-1
    k = kernel(cycle(6))
    assert k.longest_run == 5
    assert k.runs_at_least(2) == 1
    assert k.runs_at_least(5) == 1
    assert k.runs_at_least(6) == 0


def test_runs_on_k4():
    k = kernel(k4())
    assert k.longest_run == 0
    assert k.runs_at_least(1) == 0


# ---------------------------------------------------------------------------
# bushes


def test_bushes_of_triangle_with_tail():
    out = bushes(triangle_with_tail())
    # the tail hangs off core vertex 0; vertex 5 is a rootless singleton;
    # core vertices 1 and 2 belong to no bush
    assert out.labels.tolist() == [0, -1, -1, 0, 0, 1]
    assert [v.tolist() for v in out.vertices()] == [[0, 3, 4], [5]]
    assert out.roots.tolist() == [0, -1]
    assert out.sizes[out.roots >= 0].tolist() == [3]
    assert len(out) == 2 and out.max_size == 3


def test_bare_core_has_no_bushes():
    for g in (cycle(5), k4()):
        out = bushes(g)
        assert len(out) == 0 and out.max_size == 0
        assert out.vertices() == []
        assert np.all(out.labels == -1) and out.labels.size == g.n


def test_isolated_tree_is_a_rootless_bush():
    out = bushes(path(4))
    assert len(out) == 1
    assert out.roots.tolist() == [-1]
    assert [v.tolist() for v in out.vertices()] == [[0, 1, 2, 3]]


# ---------------------------------------------------------------------------
# component classification


def test_classify_mixed():
    # giant = path on 0..4; then a triangle with a tail (cyclic but not a
    # cycle), a plain 3-cycle, and two trees (a 2-path and a singleton)
    edges = [
        [0, 1], [1, 2], [2, 3], [3, 4],
        [5, 6], [6, 7], [7, 5], [5, 8],
        [9, 10], [10, 11], [11, 9],
        [12, 13],
    ]
    g = Multigraph(15, np.array(edges))
    rep = classify_components(g)
    assert rep.n_components == 5
    assert rep.kinds.tolist() == [GIANT, OTHER, CYCLE, TREE, TREE]
    assert rep.giant_size == 5
    assert not rep.connected
    assert rep.isolated_cycle_count == 1
    assert rep.max_isolated_tree_size == 2
    assert rep.other_count == 1
    assert sorted(rep.other_comps[0].tolist()) == [5, 6, 7, 8]


def test_lone_cycle_is_the_giant():
    # a connected graph has no non-giant components to classify
    g = Multigraph(3, np.array([[0, 1], [1, 2], [2, 0]]))
    rep = classify_components(g)
    assert rep.connected
    assert rep.giant_size == 3
    assert rep.cycle_comps == [] and rep.tree_comps == [] and rep.other_comps == []


def test_giant_tiebreak_is_first_vertex():
    # two components of equal size: the one containing vertex 0 wins
    g = Multigraph(6, np.array([[0, 1], [1, 2], [3, 4], [4, 5]]))
    rep = classify_components(g)
    assert rep.giant_size == 3
    assert rep.labels[0] == rep.giant_label


def test_trees_within_K():
    # giant = 4-cycle; the only leftover is a 3-vertex tree
    g = Multigraph(7, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6]]))
    rep = classify_components(g)
    assert rep.max_isolated_tree_size == 3
    assert rep.isolated_cycle_count == 0 and rep.other_count == 0
    # a stray cycle is no tree, and the bare vertex 4 is a tree of size 1
    g2 = Multigraph(8, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [5, 6], [6, 7], [7, 5]]))
    rep2 = classify_components(g2)
    assert rep2.max_isolated_tree_size == 1
    assert rep2.isolated_cycle_count == 1 and rep2.other_count == 0


def test_prufer_trees_have_many_low_degree_vertices():
    # every tree on k >= 2 vertices has more than k/2 vertices of degree <= 2;
    # random trees from Prufer strings exercise classify at the same time
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        if k == 2:
            edges = np.array([[0, 1]])
        else:
            prufer = rng.integers(0, k, size=k - 2)
            degree = np.ones(k, dtype=np.int64)
            for x in prufer:
                degree[x] += 1
            edges = []
            avail = degree.copy()
            for x in prufer:
                leaf = int(np.flatnonzero(avail == 1).min())
                edges.append([leaf, int(x)])
                avail[leaf] -= 1
                avail[x] -= 1
            last = np.flatnonzero(avail == 1)
            edges.append([int(last[0]), int(last[1])])
            edges = np.array(edges)
        g = Multigraph(k, edges)
        rep = classify_components(g)
        assert rep.connected
        assert rep.giant_size == k and g.m == k - 1
        assert int((g.degree <= 2).sum()) > k / 2


# ---------------------------------------------------------------------------
# networkx oracle on percolated pairings


def assert_components_match_networkx(nx, g: Multigraph) -> dict:
    """classify_components(g) against nx.connected_components; returns the
    non-giant components by kind."""
    G = nx.MultiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges.tolist())
    assert G.number_of_edges() == g.m  # loops and parallel edges kept

    rep = classify_components(g)
    ref = [sorted(c) for c in nx.connected_components(G)]
    assert rep.n_components == len(ref)
    assert len({int(rep.labels[c[0]]) for c in ref}) == len(ref)
    expect = {TREE: [], CYCLE: [], OTHER: []}
    if not ref:
        assert rep.giant_label is None and rep.giant_size == 0
        return expect
    giant = max(ref, key=lambda c: (len(c), -c[0]))
    assert rep.giant_label == rep.labels[giant[0]] and rep.giant_size == len(giant)
    for c in ref:
        label = int(rep.labels[c[0]])
        assert np.all(rep.labels[c] == label) and rep.sizes[label] == len(c)
        if c is giant:
            assert rep.kinds[label] == GIANT
            continue
        edges = G.subgraph(c).number_of_edges()
        if edges == len(c) - 1:
            kind = TREE
        elif edges == len(c) and all(G.degree(v) == 2 for v in c):
            kind = CYCLE
        else:
            kind = OTHER
        assert rep.kinds[label] == kind
        expect[kind].append(c)
    assert [c.tolist() for c in rep.tree_comps] == sorted(expect[TREE])
    assert [c.tolist() for c in rep.cycle_comps] == sorted(expect[CYCLE])
    assert [c.tolist() for c in rep.other_comps] == sorted(expect[OTHER])
    return expect


def assert_bushes_match_networkx(nx, g: Multigraph):
    """bushes(g) against the components of g minus the core's edges, less
    the core vertices that no other edge touches; returns the roots."""
    core = two_core(g)
    out = bushes(g, core)
    H = nx.MultiGraph()
    H.add_nodes_from(range(g.n))
    H.add_edges_from(g.edges[~core.edge_mask].tolist())
    ref_bushes = {}
    for c in nx.connected_components(H):
        c = sorted(c)
        on_core = [v for v in c if core.alive[v]]
        assert len(on_core) <= 1
        if len(c) > 1 or not on_core:
            ref_bushes[tuple(c)] = on_core[0] if on_core else -1
    got = {tuple(v.tolist()): int(r) for v, r in zip(out.vertices(), out.roots)}
    assert got == ref_bushes
    return out.roots


def test_components_and_bushes_match_networkx():
    nx = pytest.importorskip("networkx")
    seen = {"tree": 0, "rooted bush": 0, "free tree": 0}
    for seed, (n, alpha) in enumerate([(2000, 0.18), (2500, 0.22), (3000, 0.25), (3000, 0.3)]):
        cfg = sample_configuration(DegreeSequence.regular(n, 3), seed=seed)
        g = project(percolate(cfg, DeletionParams(n, alpha=alpha, seed=seed)).survivor)
        seen["tree"] += len(assert_components_match_networkx(nx, g)[TREE])
        roots = assert_bushes_match_networkx(nx, g)
        seen["rooted bush"] += int(np.count_nonzero(roots >= 0))
        seen["free tree"] += int(np.count_nonzero(roots < 0))
    assert all(seen.values()), seen


def shuffled(g: Multigraph, rng) -> Multigraph:
    """g with its rows in random order and random rows' ends swapped."""
    e = g.edges[rng.permutation(g.m)]
    swap = rng.random(g.m) < 0.5
    e[swap] = e[swap][:, ::-1]
    return Multigraph(g.n, e)


def test_components_and_bushes_on_unordered_edge_lists():
    """The pipeline's edge lists come sorted by first end; a library caller
    or `perclab analyze` may pass any order, which the component labels
    must not depend on."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(10)
    graphs = [Multigraph(0, []), Multigraph(6, [])]
    for seed, (n, d, alpha) in enumerate([(3000, 3, 0.18), (3000, 3, 0.25), (10_000, 4, 0.3)]):
        cfg = sample_configuration(DegreeSequence.regular(n, d), seed=seed)
        g = project(percolate(cfg, DeletionParams(n, alpha=alpha, seed=seed)).survivor)
        # extra loops, parallel edges, a triangle with a tail and two
        # isolated vertices
        extra = rng.integers(0, g.n, size=(20, 2))
        extra[:5, 1] = extra[:5, 0]
        lollipop = g.n + triangle_with_tail().edges
        edges = np.vstack([g.edges, extra, g.edges[:10], lollipop])
        graphs.append(Multigraph(g.n + 7, edges))
    kinds = set()
    for g in graphs:
        h = shuffled(g, rng)
        expect = assert_components_match_networkx(nx, h)
        kinds.update(k for k, comps in expect.items() if comps)
        assert_bushes_match_networkx(nx, h)
        assert np.array_equal(classify_components(h).labels, classify_components(g).labels)
        assert np.array_equal(bushes(h).labels, bushes(g).labels)
    assert kinds == {TREE, CYCLE, OTHER}
    assert any(np.any(g.edges[:, 0] == g.edges[:, 1]) for g in graphs)


def scipy_components(n: int, edges: np.ndarray):
    """The oracle: scipy's component search on the symmetric adjacency."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    mat = csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    return connected_components(mat, directed=False)


def path_through(order: np.ndarray) -> tuple[int, np.ndarray]:
    return order.size, np.column_stack([order[:-1], order[1:]])


def cycle_through(order: np.ndarray) -> tuple[int, np.ndarray]:
    return order.size, np.column_stack([order, np.roll(order, -1)])


def zigzag(n: int) -> np.ndarray:
    # 0, n-1, 1, n-2, ...
    return np.column_stack([np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)]).ravel()


def binary_tree_reversed(n: int) -> tuple[int, np.ndarray]:
    # vertex i's parent is (i - 1) // 2, then every label v becomes n-1-v
    child = np.arange(1, n)
    return n, n - 1 - np.column_stack([(child - 1) // 2, child])


def percolated(n: int, d: int, alpha: float, seed: int) -> tuple[int, np.ndarray]:
    cfg = sample_configuration(DegreeSequence.regular(n, d), seed=seed)
    g = project(percolate(cfg, DeletionParams(n, alpha=alpha, seed=seed)).survivor)
    return g.n, shuffled(g, np.random.default_rng(seed)).edges


N_PATH = 100_000
COMPONENT_CASES = {
    "path sorted": lambda: path_through(np.arange(N_PATH)),
    "path reversed": lambda: path_through(np.arange(N_PATH)[::-1]),
    "path random": lambda: path_through(np.random.default_rng(0).permutation(N_PATH)),
    "path zigzag": lambda: path_through(zigzag(N_PATH)),
    "cycle random": lambda: cycle_through(np.random.default_rng(1).permutation(5000)),
    "star, centre last": lambda: (1000, np.column_stack([np.arange(999), np.full(999, 999)])),
    "binary tree reversed": lambda: binary_tree_reversed(4095),
    "loops and parallel edges": lambda: (
        7, np.array([[3, 3], [5, 1], [1, 5], [5, 1], [0, 0], [6, 4], [4, 6]])
    ),
    "no edges": lambda: (5, np.zeros((0, 2), dtype=np.int64)),
    "empty": lambda: (0, np.zeros((0, 2), dtype=np.int64)),
    "headline shape": lambda: percolated(10_000, 4, 0.5, 1),
    "tight shape": lambda: percolated(10_000, 3, 0.18, 2),
    "certify shape": lambda: percolated(10_000, 4, 0.5, 3),
}


@pytest.mark.parametrize("case", COMPONENT_CASES)
def test_components_match_scipy(case):
    n, edges = COMPONENT_CASES[case]()
    ncomp, labels, sizes = _components(n, edges)
    ref_count, ref_labels = scipy_components(n, edges)
    assert ncomp == ref_count
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert np.array_equal(sizes, np.bincount(ref_labels, minlength=ref_count))


# ---------------------------------------------------------------------------
# full decomposition


def test_decompose_triangle_with_tail():
    dec = decompose(triangle_with_tail())
    assert dec.two_core_size == 3
    assert dec.kernel_size == 0
    assert dec.longest_deg2_run == 2  # the core is a 3-cycle: run 3-1
    assert [sorted(c.tolist()) for c in dec.core_cycles] == [[0, 1, 2]]
    assert dec.max_bush_size == 3
    rep = dec.report()
    assert rep["n"] == 6
    assert rep["two_core_size"] == 3
    assert rep["giant_size"] == 5
    assert rep["connected"] is False
    assert rep["isolated_cycles"] == []
    assert rep["core_cycles"] == [[1, 2, 3]]  # 1-based lifted labels


def test_decompose_empty_graph():
    g = Multigraph(0, np.zeros((0, 2), dtype=np.int64))
    dec = decompose(g)
    assert dec.two_core_size == 0
    assert dec.report()["giant_size"] == 0


# ---------------------------------------------------------------------------
# hypothesis invariants

degree_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=14)


@st.composite
def random_multigraph(draw):
    degs = draw(degree_lists)
    if sum(degs) % 2 == 1:
        degs[0] += 1
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return project(sample_configuration(DegreeSequence(np.array(degs)), seed=seed))


@given(random_multigraph())
@settings(max_examples=120, deadline=None)
def test_core_minimum_degree(g):
    core = two_core(g)
    sub, labels = core.subgraph()
    if sub.n:
        assert int(sub.degree.min()) >= 2
    # peeled-off edges touch at least one peeled vertex
    acyclic = g.edges[~core.edge_mask]
    if acyclic.size:
        dead = ~core.alive
        assert np.all(dead[acyclic[:, 0]] | dead[acyclic[:, 1]])


@given(random_multigraph())
@settings(max_examples=120, deadline=None)
def test_bush_partition(g):
    core = two_core(g)
    out = bushes(g, core)
    roots = out.roots[out.roots >= 0]
    assert len(roots) == len(set(roots.tolist()))
    assert np.all(core.alive[roots])
    members = out.vertices()
    assert [v.size for v in members] == out.sizes.tolist()
    non_root = []
    for b, (v, r) in enumerate(zip(members, out.roots)):
        assert np.all(out.labels[v] == b)
        non_root.extend(x for x in v.tolist() if x != r)
    # bushes minus their roots are exactly the peeled vertices
    assert sorted(non_root) == np.flatnonzero(~core.alive).tolist()
    # every vertex outside the bushes is a core vertex
    assert np.all(core.alive[out.labels < 0])
    assert np.count_nonzero(out.labels >= 0) == out.sizes.sum()


@given(random_multigraph())
@settings(max_examples=120, deadline=None)
def test_component_sizes_partition(g):
    rep = classify_components(g)
    assert int(rep.sizes.sum()) == g.n
    classified = len(rep.tree_comps) + len(rep.cycle_comps) + len(rep.other_comps)
    # every non-giant component lands in exactly one bucket
    assert classified == max(rep.n_components - 1, 0)
    covered = [v for c in rep.tree_comps + rep.cycle_comps + rep.other_comps for v in c]
    assert len(covered) + rep.giant_size == g.n
