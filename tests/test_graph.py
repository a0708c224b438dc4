"""Graph construction, Laplacian application, and spectral diagnostics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualrk.errors import ConnectivityFailure, DimensionMismatch
from dualrk.graph import (
    ER_RETRY_BUDGET,
    LaplacianGraph,
    Topology,
    build_graph,
    dense_laplacian,
    disjoint_union,
    laplacian_apply,
    _erdos_renyi_neighbors,
)
from dualrk.oracles import sqrt_apply, sqrt_laplacian


def _eig_oracle(graph):
    """Dense eigendecomposition oracle for spectra."""
    return np.sort(np.linalg.eigvalsh(dense_laplacian(graph)))


def test_star_4_spectrum():
    graph = build_graph(Topology("star", 4))
    evals = _eig_oracle(graph)
    assert np.allclose(evals, [0.0, 1.0, 1.0, 4.0], atol=1e-10)
    assert graph.lambda_max == pytest.approx(4.0, rel=1e-8)
    assert graph.lambda_min_pos == pytest.approx(1.0, rel=1e-8)


def test_cycle_4_spectrum_matches_formula():
    graph = build_graph(Topology("cycle", 4))
    expected = np.sort([2.0 - 2.0 * np.cos(2.0 * np.pi * k / 4) for k in range(4)])
    assert np.allclose(_eig_oracle(graph), expected, atol=1e-10)
    assert np.allclose(sorted(expected), [0.0, 2.0, 2.0, 4.0])


def test_cycle_2_is_single_edge():
    graph = build_graph(Topology("cycle", 2))
    assert np.array_equal(dense_laplacian(graph), [[1.0, -1.0], [-1.0, 1.0]])
    assert graph.lambda_max == pytest.approx(2.0)
    assert graph.lambda_min_pos == pytest.approx(2.0)


def test_complete_graph_via_er_p1():
    graph = build_graph(Topology("erdos_renyi", 3, edge_probability=1.0))
    evals = _eig_oracle(graph)
    assert evals[-1] == pytest.approx(3.0, rel=1e-8) and graph.lambda_max == pytest.approx(3.0, rel=1e-8)
    assert evals[1] == pytest.approx(3.0, rel=1e-8) and graph.lambda_min_pos == pytest.approx(3.0, rel=1e-8)


def test_spectral_bounds_against_oracle_random_graphs():
    for seed in range(6):
        graph = build_graph(Topology("erdos_renyi", 12, edge_probability=0.4, rng_seed=seed))
        evals = _eig_oracle(graph)
        assert graph.lambda_max == pytest.approx(evals[-1], rel=1e-8)
        assert graph.lambda_min_pos == pytest.approx(evals[1], rel=1e-8)


def test_laplacian_symmetry_and_row_sums():
    for kind, n in [("star", 7), ("cycle", 5), ("erdos_renyi", 15)]:
        graph = build_graph(Topology(kind, n, edge_probability=0.4, rng_seed=1))
        lap = dense_laplacian(graph)
        assert np.array_equal(lap, lap.T)
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        # lambda_max <= 2 * max degree
        max_deg = max(len(nb) for nb in graph.neighbor_lists)
        assert graph.lambda_max <= 2.0 * max_deg + 1e-9


def test_laplacian_apply_consensus_is_zero():
    graph = build_graph(Topology("erdos_renyi", 9, edge_probability=0.5, rng_seed=2))
    x = np.tile([1.3, -0.7], 9)
    # deg * x differs from the sequential neighbor sum by at most a few ULPs
    assert np.abs(laplacian_apply(graph, x, 2)).max() <= 1e-14


def test_laplacian_apply_edge_graph():
    graph = build_graph(Topology("cycle", 2))
    out = laplacian_apply(graph, np.array([1.0, 0.0]), 1)
    assert np.array_equal(out, [1.0, -1.0])


def test_laplacian_apply_star_hand_example():
    graph = build_graph(Topology("star", 4))
    out = laplacian_apply(graph, np.array([0.0, 1.0, 2.0, 3.0]), 1)
    assert np.array_equal(out, [-6.0, 1.0, 2.0, 3.0])


def test_laplacian_apply_matches_dense_kron():
    rng = np.random.default_rng(7)
    for seed, (n, p) in enumerate([(5, 1), (16, 3), (64, 8)]):
        graph = build_graph(Topology("erdos_renyi", n, edge_probability=0.4, rng_seed=seed))
        dense = np.kron(dense_laplacian(graph), np.eye(p))
        x = rng.normal(size=n * p)
        got = laplacian_apply(graph, x, p)
        want = dense @ x
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def _sorted_neighbor_sum(graph, x, p):
    """Row ``i`` is ``degree(i) * x_i`` minus its neighbors' blocks, added one at a time in sorted order."""
    blocks = x.reshape(*x.shape[:-1], graph.node_count, p)
    out = np.empty_like(blocks)
    for i, nb in enumerate(graph.neighbor_lists):
        total = blocks[..., nb[0], :] if len(nb) else np.zeros_like(blocks[..., i, :])
        for j in nb[1:]:
            total = total + blocks[..., j, :]
        out[..., i, :] = len(nb) * blocks[..., i, :] - total
    return out.reshape(x.shape)


def _fig1_graphs(n, probability):
    parts = [
        build_graph(Topology("star", n)),
        build_graph(Topology("cycle", n)),
        build_graph(Topology("erdos_renyi", n, edge_probability=probability, rng_seed=0)),
    ]
    return parts + [disjoint_union(parts)]


def test_laplacian_apply_bitwise_matches_per_node_sorted_sum():
    rng = np.random.default_rng(12)
    graphs = [
        build_graph(Topology("star", 9)),
        build_graph(Topology("cycle", 2)),
        build_graph(Topology("cycle", 7)),
        build_graph(Topology("erdos_renyi", 20, edge_probability=0.3, rng_seed=5)),
        *_fig1_graphs(20, 0.3),
        *_fig1_graphs(100, 0.1),
    ]
    for graph in graphs:
        for p in (1, 3):
            for shape in ((graph.node_count * p,), (4, graph.node_count * p)):
                x = rng.normal(size=shape)
                assert laplacian_apply(graph, x, p).tobytes() == _sorted_neighbor_sum(graph, x, p).tobytes()


def test_degree_buckets_pad_at_most_twice_their_degree_sum():
    star, cycle, er, union = _fig1_graphs(20, 0.3)
    for graph in (star, cycle, er, union):
        _, _, tables = graph.degree_buckets
        assert sum(table.shape[1] for table in tables) == graph.node_count
        assert all(table.size <= 2 * np.count_nonzero(table < graph.node_count) for table in tables)
    # A star's leaves no longer pad to the hub's degree.
    assert [table.shape for table in star.degree_buckets[2]] == [(19, 2), (1, 18)]
    for graph in (cycle, er):
        assert graph.degree_buckets[1] is None and len(graph.degree_buckets[2]) == 1


@st.composite
def connected_graphs(draw):
    """A random connected graph of 2-64 nodes: a spanning tree leaning on node 0, plus random edges."""
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hub_share, density = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5))
    adjacency = np.triu(rng.random((n, n)) < density, k=1)
    for i in range(1, n):
        adjacency[0 if rng.random() < hub_share else rng.integers(0, i), i] = True
    adjacency |= adjacency.T
    evals = np.linalg.eigvalsh(np.diag(adjacency.sum(axis=1)) - adjacency)
    lists = tuple(np.flatnonzero(row) for row in adjacency)
    return LaplacianGraph(n, lists, lambda_max=float(evals[-1]), lambda_min_pos=float(evals[1]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graphs=st.lists(connected_graphs(), min_size=1, max_size=3),
    p=st.integers(1, 4),
    batch=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucketed_apply_is_the_sorted_sum_on_random_connected_graphs(graphs, p, batch, seed):
    graph = disjoint_union(graphs)
    shape = (batch, graph.node_count * p) if batch else (graph.node_count * p,)
    x = np.random.default_rng(seed).normal(size=shape)
    assert laplacian_apply(graph, x, p).tobytes() == _sorted_neighbor_sum(graph, x, p).tobytes()


def test_laplacian_apply_block_sums_vanish():
    rng = np.random.default_rng(11)
    graph = build_graph(Topology("erdos_renyi", 10, edge_probability=0.5, rng_seed=3))
    out = laplacian_apply(graph, rng.normal(size=10 * 4), 4)
    assert np.abs(out.reshape(10, 4).sum(axis=0)).max() < 1e-12


def test_rayleigh_quotient_within_spectral_bounds():
    rng = np.random.default_rng(5)
    graph = build_graph(Topology("erdos_renyi", 12, edge_probability=0.5, rng_seed=4))
    for _ in range(20):
        x = rng.normal(size=12 * 3)
        blocks = x.reshape(12, 3)
        x = (blocks - blocks.mean(axis=0)).reshape(-1)  # remove kernel component
        quotient = float(x @ laplacian_apply(graph, x, 3)) / float(x @ x)
        assert graph.lambda_min_pos - 1e-6 <= quotient <= graph.lambda_max + 1e-6


def test_dimension_mismatch():
    graph = build_graph(Topology("star", 4))
    with pytest.raises(DimensionMismatch):
        laplacian_apply(graph, np.zeros(7), 2)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("star", 1)
    with pytest.raises(ValueError):
        Topology("erdos_renyi", 5, edge_probability=0.0)
    with pytest.raises(ValueError):
        Topology("erdos_renyi", 5, edge_probability=1.5)
    with pytest.raises(ValueError):
        Topology("grid", 5)


def test_er_resampling_is_recorded_and_deterministic():
    topo = Topology("erdos_renyi", 12, edge_probability=0.12, rng_seed=8)
    first = build_graph(topo)
    second = build_graph(topo)
    assert first.resample_count == second.resample_count
    assert all(np.array_equal(a, b) for a, b in zip(first.neighbor_lists, second.neighbor_lists))


def _dfs_connected_sample(topology: Topology):
    """The first sample a depth-first search finds connected, and its attempt index."""
    for attempt in range(ER_RETRY_BUDGET):
        lists = _erdos_renyi_neighbors(topology.node_count, topology.edge_probability, topology.rng_seed, attempt)
        seen, stack = {0}, [0]
        while stack:
            for j in lists[stack.pop()]:
                if int(j) not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        if len(seen) == topology.node_count:
            return lists, attempt
    raise AssertionError("no connected sample")


@pytest.mark.parametrize("n, prob", [(20, 0.3), (100, 0.1), (8, 0.5)])
def test_spectral_gap_accepts_the_sample_a_depth_first_search_accepts(n, prob):
    resampled = 0
    for seed in range(300):
        topology = Topology("erdos_renyi", n, edge_probability=prob, rng_seed=seed)
        graph = build_graph(topology)
        lists, attempt = _dfs_connected_sample(topology)
        assert graph.resample_count == attempt, seed
        assert all(np.array_equal(a, b) for a, b in zip(graph.neighbor_lists, lists, strict=True)), seed
        resampled += attempt
    assert resampled > 0 or n == 100  # every n=100, p=0.1 sample is connected at its first draw


def test_graph_equality_and_hash_are_by_identity():
    graph, twin = build_graph(Topology("cycle", 5)), build_graph(Topology("cycle", 5))
    assert graph == graph and graph != twin
    assert {graph: 1, twin: 2}[graph] == 1


def test_er_connectivity_failure():
    with pytest.raises(ConnectivityFailure):
        build_graph(Topology("erdos_renyi", 40, edge_probability=0.002, rng_seed=0))
    assert ER_RETRY_BUDGET == 100


def test_sqrt_laplacian_squares_back():
    graph = build_graph(Topology("erdos_renyi", 10, edge_probability=0.5, rng_seed=6))
    root = sqrt_laplacian(graph)
    assert np.allclose(root @ root, dense_laplacian(graph), atol=1e-10)
    # block application consistent with dense kron
    x = np.random.default_rng(0).normal(size=10 * 2)
    assert np.allclose(sqrt_apply(root, x, 2), np.kron(root, np.eye(2)) @ x, atol=1e-12)


def test_degenerate_single_node_graph_supported_directly():
    # Not constructible through Topology (n >= 2); direct construction is
    # allowed for smoke tests and must behave as the zero Laplacian.
    graph = LaplacianGraph(
        node_count=1,
        neighbor_lists=(np.array([], dtype=np.intp),),
        lambda_max=0.0,
        lambda_min_pos=0.0,
    )
    assert np.array_equal(laplacian_apply(graph, np.array([2.0, 3.0]), 2), [0.0, 0.0])
