"""Exact expansion constants, spectral lower bounds, and the
reinstatement comparison.

The bitmask enumerator is cross-checked against a direct itertools
subset walk (independent code path, sets instead of masks), and the
spectral bound is checked to never exceed the exact constant.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from perclab import expansion
from perclab.pairing import DegreeSequence, Multigraph, sample_configuration, project
from perclab.decomposition import classify_components, kernel, two_core
from perclab.harness import json_text
from perclab.percolation import DeletionParams, apply_deletion, choose_deletion_set
from perclab.expansion import (
    certify,
    diameter_check,
    distance_matrix,
    exact_edge_expansion,
    exact_vertex_expansion,
    path_upper_bound,
    reinstatement_expansion_check,
    spectral_lower_bound,
)


def cycle(n: int) -> Multigraph:
    return Multigraph(n, np.array([[i, (i + 1) % n] for i in range(n)]))


def k4() -> Multigraph:
    return Multigraph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))


def petersen() -> Multigraph:
    edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0],
             [5, 7], [7, 9], [9, 6], [6, 8], [8, 5],
             [0, 5], [1, 6], [2, 7], [3, 8], [4, 9]]
    return Multigraph(10, np.array(edges))


def brute_vertex_expansion(g: Multigraph):
    """Reference implementation over plain python sets."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].add(int(v))
            nbrs[v].add(int(u))
    best = None
    for k in range(1, g.n // 2 + 1):
        for S in combinations(range(g.n), k):
            out = set()
            for v in S:
                out |= nbrs[v]
            out -= set(S)
            ratio = len(out) / k
            if best is None or ratio < best:
                best = ratio
    return best


# ---------------------------------------------------------------------------
# frozen constants


def test_k4_constants():
    b = exact_vertex_expansion(k4())
    assert b.value == 1.0
    assert b.witness == (0, 1)
    assert (b.numerator, b.denominator) == (2, 2)
    e = exact_edge_expansion(k4())
    assert e.value == pytest.approx(2 / 3)
    assert (e.numerator, e.denominator) == (4, 6)
    s = spectral_lower_bound(k4())
    assert s.connected
    assert s.lambda2 == pytest.approx(4 / 3)
    assert s.value == pytest.approx(2 / 3)


def test_c6_constants():
    b = exact_vertex_expansion(cycle(6))
    assert b.value == pytest.approx(2 / 3)
    assert b.witness == (0, 1, 2)  # lexicographically least minimizer
    e = exact_edge_expansion(cycle(6))
    assert e.value == pytest.approx(1 / 3)
    s = spectral_lower_bound(cycle(6))
    assert s.lambda2 == pytest.approx(0.5)
    assert s.value == pytest.approx(0.25)


def test_petersen_constants():
    b = exact_vertex_expansion(petersen())
    assert b.value == pytest.approx(4 / 5)
    assert spectral_lower_bound(petersen()).lambda2 == pytest.approx(2 / 3)


def test_disconnected_graph_has_zero_expansion():
    g = Multigraph(4, np.array([[0, 1], [2, 3]]))
    b = exact_vertex_expansion(g)
    assert b.value == 0.0
    s = spectral_lower_bound(g)
    assert s.value == 0.0 and not s.connected


def test_tiny_graphs():
    one = Multigraph(1, np.zeros((0, 2), dtype=np.int64))
    b = exact_vertex_expansion(one)
    assert math.isinf(b.value) and b.witness is None


# ---------------------------------------------------------------------------
# brute-force cross-check and bound bracketing


def test_bitmask_matches_set_walk():
    rng = np.random.default_rng(4)
    for trial in range(25):
        n = int(rng.integers(2, 11))
        degs = rng.integers(0, 4, size=n)
        if degs.sum() % 2:
            degs[0] += 1
        g = project(sample_configuration(DegreeSequence(degs), seed=trial))
        got = exact_vertex_expansion(g).value
        want = brute_vertex_expansion(g)
        assert got == pytest.approx(want)


def test_spectral_never_beats_exact():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(40):
        n = 2 * int(rng.integers(3, 8))
        g = project(sample_configuration(DegreeSequence.regular(n, 3), seed=trial))
        b = exact_vertex_expansion(g)
        s = spectral_lower_bound(g)
        assert s.value <= b.value + 1e-9
        checked += 1
    assert checked == 40


def test_edge_vs_vertex_expansion_sandwich():
    # gamma uses the d|S| normalization, so d*gamma bounds the vertex
    # constant from above only through the cut edges; check the cheap
    # direction beta <= d * gamma on regular graphs
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = 2 * int(rng.integers(3, 8))
        g = project(sample_configuration(DegreeSequence.regular(n, 3), seed=trial))
        b = exact_vertex_expansion(g).value
        e = exact_edge_expansion(g).value
        assert b <= 3 * e + 1e-9


# ---------------------------------------------------------------------------
# path upper bound


def test_path_upper_bound_values():
    assert path_upper_bound(5, n=100) == pytest.approx(0.5)
    assert path_upper_bound(3, n=100) == pytest.approx(1.0)
    assert path_upper_bound(1, n=100) is None
    assert path_upper_bound(0, n=100) is None
    assert path_upper_bound(5, n=1) is None  # no vertex fits in half the graph
    # the n//2 cap keeps the bound meaningful when the run is most of the graph
    assert path_upper_bound(9, n=8) == pytest.approx(2 / 4)


def test_path_upper_bound_holds_on_cycles():
    for L in (4, 5, 6, 9, 12):
        g = cycle(L)
        run = kernel(g).longest_run
        assert run == L - 1
        bound = path_upper_bound(run, n=L)
        assert exact_vertex_expansion(g).value <= bound + 1e-9


# ---------------------------------------------------------------------------
# distances and diameter


def test_distance_matrix_on_cycle():
    dist = distance_matrix(cycle(6))
    assert dist[0, 3] == 3
    assert dist[0, 5] == 1
    assert np.all(np.diag(dist) == 0)


def test_diameter_check():
    chk = diameter_check(k4(), beta=1.0)
    assert chk.diameter == 1
    assert chk.passed
    chk2 = diameter_check(cycle(6), beta=2 / 3)
    assert chk2.diameter == 3
    assert chk2.passed
    # disconnected graphs have no finite diameter
    g = Multigraph(4, np.array([[0, 1], [2, 3]]))
    chk3 = diameter_check(g, beta=0.5)
    assert math.isinf(chk3.diameter)
    assert not chk3.passed


# ---------------------------------------------------------------------------
# reinstatement comparison


def test_reinstate_one_vertex_into_cycle():
    # survivor = path on 8 vertices, reinstated vertex closes it into C9
    ghat = cycle(9)
    gprime = Multigraph(8, np.array([[i, i + 1] for i in range(7)]))
    chk = reinstatement_expansion_check(gprime, [8], ghat)
    assert chk.passed and chk.chain_ok
    assert chk.beta_prime == pytest.approx(0.25)
    assert chk.beta_hat == pytest.approx(0.5)


def test_reinstate_rejects_close_vertices():
    # vertices 0 and 2 of C6 sit at distance 2: not spread out enough
    ghat = cycle(6)
    keep = np.ones(6, dtype=bool)
    keep[[0, 2]] = False
    gprime, _ = ghat.induced(keep)
    with pytest.raises(ValueError, match="distance"):
        reinstatement_expansion_check(gprime, [0, 2], ghat)


def test_reinstate_rejects_wrong_survivor():
    ghat = cycle(9)
    wrong = Multigraph(8, np.array([[i, i + 1] for i in range(6)]))
    with pytest.raises(ValueError):
        reinstatement_expansion_check(wrong, [8], ghat)


def test_reinstate_rejects_empty_w():
    with pytest.raises(ValueError):
        reinstatement_expansion_check(cycle(5), [], cycle(5))


def test_reinstate_heavy_subsets_on_regular_graph():
    # a denser case with two reinstated vertices far apart
    rng = np.random.default_rng(21)
    for trial in range(200):
        g = project(sample_configuration(DegreeSequence.regular(12, 3), seed=trial))
        dist = distance_matrix(g)
        if not np.isfinite(dist).all():
            continue
        if np.any(g.edges[:, 0] == g.edges[:, 1]):
            continue
        pairs = [
            (i, j)
            for i in range(12)
            for j in range(i + 1, 12)
            if dist[i, j] >= 3
        ]
        if not pairs:
            continue
        w = list(pairs[0])
        keep = np.ones(12, dtype=bool)
        keep[w] = False
        gprime, _ = g.induced(keep)
        chk = reinstatement_expansion_check(gprime, w, g)
        assert chk.passed and chk.chain_ok
        return
    pytest.skip("no admissible cubic example found")


# ---------------------------------------------------------------------------
# certificates


def test_certify_small_graph():
    cert = certify(k4())
    assert cert.exact_beta == 1.0
    assert cert.lower_bound == pytest.approx(2 / 3)
    assert cert.lower_source == "spectral"
    assert cert.upper_bound is None  # no degree-2 run information given
    assert cert.connected
    bounds_only = certify(k4(), exact=False)
    assert bounds_only.exact_beta is None and bounds_only.diameter is None
    assert bounds_only.lower_bound == cert.lower_bound


def test_certify_with_run_information():
    g = cycle(8)
    cert = certify(g, longest_run=kernel(g).longest_run)
    assert cert.upper_bound == pytest.approx(2 / 4)  # min(k-1, n//2) = 4
    assert cert.upper_source == "degree-2 run"
    assert cert.exact_beta == pytest.approx(0.5)
    assert cert.lower_bound <= cert.exact_beta <= cert.upper_bound + 1e-12


def test_certificate_dict_is_json_friendly():
    import json

    payload = json.loads(json_text(certify(k4()).to_dict()))
    assert payload["witness"] == [1, 2]  # 1-based
    assert payload["n"] == 4
    # one vertex: infinite expansion and no lambda2 are written as null
    payload = json.loads(json_text(certify(Multigraph(1, np.zeros((0, 2)))).to_dict()))
    assert payload["exact_beta"] is None and payload["lambda2"] is None


def test_certify_beyond_exhaustive_limit():
    g = cycle(30)
    cert = certify(g, longest_run=kernel(g).longest_run)
    assert cert.exact_beta is None
    assert cert.lower_bound > 0
    assert cert.upper_bound == pytest.approx(2 / 15)


def test_exact_searches_refuse_more_than_twenty_vertices():
    # 2^21 subsets would still fit in memory; the cap holds regardless
    for search in (exact_vertex_expansion, exact_edge_expansion):
        with pytest.raises(ValueError, match="capped at 20 vertices"):
            search(cycle(21))


# ---------------------------------------------------------------------------
# the Lanczos eigensolver against dense answers


def dense_lambda2(g: Multigraph) -> float:
    """lambda2 of I - D^-1/2 A D^-1/2 by a full dense eigensolve; a loop
    adds 2 to its diagonal entry of A, as it does to the degree."""
    A = np.zeros((g.n, g.n))
    np.add.at(A, (g.edges[:, 0], g.edges[:, 1]), 1.0)
    np.add.at(A, (g.edges[:, 1], g.edges[:, 0]), 1.0)
    s = 1.0 / np.sqrt(A.sum(axis=1))
    return float(np.linalg.eigvalsh(np.eye(g.n) - s[:, None] * A * s[None, :])[1])


def assert_lower_bound(reported: float, g: Multigraph) -> None:
    """The Lanczos lambda2 is a lower bound that gives up little: never
    above the dense answer, and at most 2e-3 below it (the residual at
    LANCZOS_TOL = 1e-3 is at most 1e-3 * theta <= 1e-3)."""
    dense = dense_lambda2(g)
    assert reported <= dense + 1e-12
    assert dense - reported <= 2e-3


def random_pairing_graph(n: int, d: int, seed) -> Multigraph:
    return project(sample_configuration(DegreeSequence.regular(n, d), seed=seed))


def sparse_case(case: int) -> Multigraph:
    rng = np.random.default_rng(1000 + case)
    d = (3, 4, 5)[case % 3]
    n = int(rng.integers(66, 401))
    n += (n * d) % 2
    return random_pairing_graph(n, d, rng)


@pytest.mark.parametrize("case", range(12))
def test_sparse_spectral_matches_dense(case):
    g = sparse_case(case)
    sp = spectral_lower_bound(g, seed=case)
    assert sp.connected
    assert_lower_bound(sp.lambda2, g)
    assert sp.value == pytest.approx(0.5 * sp.lambda2 * g.degree.min() / g.degree.max())


def connected_pairing_graph(n: int, rng) -> Multigraph:
    d = 3 + n % 2  # n * d even
    while True:
        g = random_pairing_graph(n, d, rng)
        if classify_components(g).connected:
            return g


SMALL_GRAPHS = {
    "K4": k4(),
    "petersen": petersen(),
    "double-edge": Multigraph(2, np.array([[0, 1], [0, 1]])),
    **{f"pairing-{n}": connected_pairing_graph(n, np.random.default_rng(n)) for n in range(2, 65)},
}


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_small_spectral_matches_dense(name):
    # Lanczos runs at every size: its Krylov space is invariant within n steps
    g = SMALL_GRAPHS[name]
    assert_lower_bound(spectral_lower_bound(g).lambda2, g)


def test_sparse_spectral_on_complete_graph():
    # lambda2 = n/(n-1) > 1: the eigenvalue the reflection moves must not
    # come back as the answer
    n = 70
    g = Multigraph(n, np.array(list(combinations(range(n), 2))))
    assert spectral_lower_bound(g).lambda2 == pytest.approx(n / (n - 1), abs=1e-9)


def test_sparse_spectral_stops_on_an_invariant_subspace(monkeypatch):
    # on K_70 every Krylov space of the reflected operator lies in span{x, u}:
    # Lanczos must stop after two steps, not go on normalizing rounding noise
    sizes = []

    def recording(alphas, betas, **kw):
        sizes.append(len(alphas))
        return eigh_tridiagonal(alphas, betas, **kw)

    monkeypatch.setattr(expansion, "eigh_tridiagonal", recording)
    n = 70
    g = Multigraph(n, np.array(list(combinations(range(n), 2))))
    assert spectral_lower_bound(g).lambda2 == pytest.approx(n / (n - 1), abs=1e-9)
    assert sizes == [2]


def bottleneck() -> Multigraph:
    left = random_pairing_graph(100, 4, 7)
    right = random_pairing_graph(100, 4, 8)
    return Multigraph(200, np.concatenate([left.edges, right.edges + 100, [[0, 100]]]))


def test_sparse_spectral_on_a_bottleneck():
    g = bottleneck()
    assert 0 < dense_lambda2(g) < 0.01
    assert_lower_bound(spectral_lower_bound(g).lambda2, g)


def test_dropping_the_residual_overstates_lambda2(monkeypatch):
    # the one-sided check has teeth: with rho = 0 the reported 1 - theta
    # lies above the dense lambda2 on some graph of the cases above
    real = expansion._top_eigenvalue
    monkeypatch.setattr(expansion, "_top_eigenvalue", lambda op, v: (real(op, v)[0], 0.0))
    cases = [(sparse_case(case), case) for case in range(12)]
    cases += [(g, 0) for g in SMALL_GRAPHS.values()] + [(bottleneck(), 0)]
    assert any(spectral_lower_bound(g, seed=seed).lambda2 > dense_lambda2(g) + 1e-12 for g, seed in cases)


def test_sparse_spectral_is_deterministic():
    g = random_pairing_graph(300, 4, 11)
    assert spectral_lower_bound(g, seed=5).lambda2 == spectral_lower_bound(g, seed=5).lambda2


@pytest.mark.parametrize("d, alpha, seed, size", [(4, 0.2, 1, 1594), (3, 0.3, 2, 1805)])
def test_sparse_spectral_on_percolated_giants(d, alpha, seed, size):
    # giants with d_min = 1, the first with a loop: the graphs a giant
    # certificate solves on, at a size the dense eigensolver still handles
    rng = np.random.default_rng(seed)
    cfg = sample_configuration(DegreeSequence.regular(2000, d), rng)
    params = DeletionParams(2000, alpha=alpha, seed=rng)
    survivor = project(apply_deletion(cfg, choose_deletion_set(params)).survivor)
    comp = classify_components(survivor)
    giant, _ = survivor.induced(comp.labels == comp.giant_label)
    assert giant.n == size and giant.degree.min() == 1
    sp = spectral_lower_bound(giant, seed=seed)
    assert sp.connected
    assert_lower_bound(sp.lambda2, giant)


def test_sparse_spectral_step_cap(monkeypatch):
    monkeypatch.setattr(expansion, "LANCZOS_MAX_STEPS", 5)
    g = random_pairing_graph(300, 4, 11)
    with pytest.raises(RuntimeError, match=r"n = 300 after 5 steps \(last residual"):
        spectral_lower_bound(g)


def test_sparse_spectral_draws_one_start_vector():
    # the eigensolver takes one standard_normal(n) draw from the trial's
    # stream and nothing else, so later draws do not depend on the solver
    g = random_pairing_graph(300, 4, 11)
    gen, twin = np.random.default_rng(9), np.random.default_rng(9)
    spectral_lower_bound(g, seed=gen)
    twin.standard_normal(g.n)
    assert gen.integers(2**62) == twin.integers(2**62)
