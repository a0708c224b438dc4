"""Simulator: step sizing, round accounting, determinism, oracle equivalence."""

import numpy as np
import pytest

from dualrk.errors import NonFiniteState
from dualrk.graph import Topology, build_graph
from dualrk.harness import read_metrics_csv, write_metrics_csv
from dualrk.integrator import tableau, tableau_for_order
from dualrk import simulator
from dualrk.objectives import (
    KLLocal,
    QuadraticLocal,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
)
from dualrk.simulator import (
    default_h0,
    primal_extract,
    run_heavy_ball,
    run_heavy_ball_monolithic,
    run_heavy_ball_per_agent,
    step_size,
    suggested_h0,
)


def test_step_size_formula():
    assert step_size(1.0, 1, 3) == pytest.approx(1.0)
    assert step_size(1.0, 4, 1) == pytest.approx(0.5)
    assert step_size(2.0, 32, 4) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        step_size(0.0, 10, 1)


def test_zero_iterations_is_a_no_op():
    graph = build_graph(Topology("cycle", 3))
    objs = random_kl_instance(3, 2, seed=0)
    result = run_heavy_ball(graph, objs, tableau("rk4"), 0)
    assert result.records == []
    assert result.comm_rounds == 0
    assert np.array_equal(result.final_states[:, :4], np.zeros((3, 4)))
    assert np.array_equal(result.final_states[:, -1], np.ones(3))


def test_edge_graph_consensus_shrinks():
    graph = build_graph(Topology("cycle", 2))
    objs = [
        QuadraticLocal(np.eye(2), np.array([1.0, 0.0]), scale=0.5),
        QuadraticLocal(np.eye(2), np.array([0.0, 1.0]), scale=0.5),
    ]
    tab = tableau_for_order(1)
    h0 = suggested_h0(graph, objs, tab, 200)
    result = run_heavy_ball(graph, objs, tab, 200, h0=h0)
    assert result.records[-1].consensus_quadratic < result.records[0].consensus_quadratic


def test_simulator_matches_monolithic_reference():
    for seed, family in [(0, "quad"), (1, "kl"), (2, "quad")]:
        graph = build_graph(Topology("erdos_renyi", 7, edge_probability=0.5, rng_seed=seed))
        if family == "quad":
            objs = random_regression_instance(7, 3, 5, seed=seed)
        else:
            objs = random_kl_instance(7, 3, seed=seed)
        for order in (1, 2, 4):
            tab = tableau_for_order(order)
            h0 = suggested_h0(graph, objs, tab, 20)
            sim = run_heavy_ball(graph, objs, tab, 20, h0=h0, keep_trajectory=True)
            mono = run_heavy_ball_monolithic(graph, objs, tab, 20, h0=h0, keep_trajectory=True)
            scale = 1.0 + np.abs(mono.trajectory).max()
            assert np.abs(sim.trajectory - mono.trajectory).max() <= 1e-12 * scale
            oracle = run_heavy_ball_per_agent(graph, objs, tab, 20, h0=h0)
            assert np.abs(sim.trajectory - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())
            for rec_s, rec_m in zip(sim.records, mono.records):
                assert rec_s.suboptimality == pytest.approx(rec_m.suboptimality, rel=1e-9, abs=1e-14)


def test_end_state_conjugate_is_reused(monkeypatch):
    graph = build_graph(Topology("erdos_renyi", 6, edge_probability=0.6, rng_seed=2))
    objs = random_regression_instance(6, 3, 5, seed=2)
    evaluations = []

    def counting(objectives, z):
        evaluations.append(np.size(z) // 3)
        return stacked_conjugate(objectives, z)

    monkeypatch.setattr(simulator, "stacked_conjugate", counting)
    for order in (1, 2, 4):
        tab = tableau_for_order(order)
        evaluations.clear()
        result = run_heavy_ball(graph, objs, tab, 9, h0=0.5, keep_trajectory=True)
        # one sweep per stage plus the start state, not S + 1 per iteration
        assert sum(evaluations) == 6 * (tab.stages * 9 + 1)
        oracle = run_heavy_ball_per_agent(graph, objs, tab, 9, h0=0.5)
        assert np.array_equal(result.trajectory, oracle)


def test_communication_accounting():
    graph = build_graph(Topology("star", 5))
    objs = random_kl_instance(5, 2, seed=3)
    tab = tableau("rk4")
    result = run_heavy_ball(graph, objs, tab, 3, h0=1.0, log_messages=True)
    assert result.comm_rounds == 3 * tab.stages
    # each agent broadcasts once per stage over each incident edge
    per_iteration = tab.stages * graph.total_degree
    assert len(result.messages) == 3 * per_iteration
    rounds = {m.round for m in result.messages}
    assert rounds == set(range(1, 13))
    for record in result.messages:
        assert int(record.receiver) in {int(j) for j in graph.neighbor_lists[record.sender]}


def test_determinism_and_csv_bytes(tmp_path):
    graph = build_graph(Topology("erdos_renyi", 6, edge_probability=0.6, rng_seed=4))
    objs = random_regression_instance(6, 2, 4, seed=4)
    tab = tableau("midpoint")
    a = run_heavy_ball(graph, objs, tab, 30, h0=0.1)
    b = run_heavy_ball(graph, objs, tab, 30, h0=0.1)
    for rec_a, rec_b in zip(a.records, b.records):
        assert rec_a.suboptimality == rec_b.suboptimality
        assert rec_a.consensus_quadratic == rec_b.consensus_quadratic
        assert rec_a.dist_to_optimum_sq == rec_b.dist_to_optimum_sq
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(a.records, path_a)
    write_metrics_csv(b.records, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    parsed = read_metrics_csv(path_a)
    assert len(parsed) == 30 and parsed[-1].comm_rounds == 60


def test_time_coordinate_tracks_iterations():
    graph = build_graph(Topology("cycle", 4))
    objs = random_kl_instance(4, 2, seed=5)
    tab = tableau("rk4")
    result = run_heavy_ball(graph, objs, tab, 50, h0=1.0)
    h = result.resolved_step
    times = result.final_states[:, -1]
    assert np.all(times == times[0])  # agents stay in lockstep
    assert times[0] == pytest.approx(1.0 + 50 * h, rel=1e-12)


def test_divergence_reports_iteration():
    graph = build_graph(Topology("star", 4))
    objs = random_regression_instance(4, 3, 5, seed=6)
    with pytest.raises(NonFiniteState) as info:
        run_heavy_ball(graph, objs, tableau("euler"), 400, h0=500.0)
    assert info.value.iteration is not None and info.value.iteration >= 1


def test_primal_extract_closed_forms():
    states = np.zeros((3, 5))
    states[:, -1] = 1.0
    q = np.array([0.2, 0.8])
    kobs = [KLLocal(q) for _ in range(3)]
    assert np.allclose(primal_extract(states, kobs), np.tile(q, 3), atol=1e-15)
    quads = [QuadraticLocal(np.eye(2), np.zeros(2)) for _ in range(3)]
    assert np.array_equal(primal_extract(states, quads), np.zeros(6))


def test_kernel_invariant_tracked_through_runs():
    graph = build_graph(Topology("erdos_renyi", 8, edge_probability=0.5, rng_seed=7))
    for objs in (random_regression_instance(8, 3, 5, seed=7), random_kl_instance(8, 3, seed=7)):
        tab = tableau("rk4")
        h0 = suggested_h0(graph, objs, tab, 60)
        result = run_heavy_ball(graph, objs, tab, 60, h0=h0)
        assert result.max_kernel_residual <= 1e-9


def test_default_h0_matches_smoothness_constant():
    graph = build_graph(Topology("star", 4))
    objs = random_regression_instance(4, 2, 4, seed=8)
    mu = min(o.strong_convexity for o in objs)
    assert default_h0(graph, objs) == pytest.approx(mu / (4.0 * graph.lambda_max))


def test_single_node_smoke_run_warns():
    from dualrk.graph import LaplacianGraph

    graph = LaplacianGraph(
        node_count=1,
        neighbor_lists=(np.array([], dtype=np.intp),),
        lambda_max=0.0,
        lambda_min_pos=0.0,
    )
    objs = [QuadraticLocal(np.eye(2), np.array([1.0, 2.0]))]
    with pytest.warns(UserWarning, match="single-node"):
        result = run_heavy_ball(graph, objs, tableau("rk4"), 5, h0=0.1)
    # zero Laplacian: the transformed state never leaves the origin
    assert np.abs(result.final_states[0, :4]).max() == 0.0


def test_min_primal_entry_logged_for_simplex_runs():
    graph = build_graph(Topology("cycle", 4))
    kobs = random_kl_instance(4, 3, seed=9)
    result = run_heavy_ball(graph, kobs, tableau("rk4"), 20, h0=1.0)
    assert result.min_primal_entry is not None and 0.0 < result.min_primal_entry < 1.0
    quads = random_regression_instance(4, 2, 4, seed=9)
    result = run_heavy_ball(graph, quads, tableau("rk4"), 5, h0=0.01)
    assert result.min_primal_entry is None
