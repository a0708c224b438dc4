"""Baseline methods: stationarity, oracle iterations, acceleration checks."""

import math

import numpy as np
import pytest

from dualrk import baselines
from dualrk.baselines import cgd_run, dgd_run, dual_nag_run
from dualrk.errors import DimensionMismatch, InvalidArgument
from dualrk.graph import Topology, build_graph, dense_laplacian, laplacian_apply
from dualrk.harness import TRACE_COLUMNS, MetricsTrace, evaluate_metrics, reference_optimum
from dualrk.integrator import tableau
from dualrk.objectives import (
    KLLocal,
    QuadraticLocal,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
)
from dualrk.oracles import dual_value_transformed
from dualrk.simulator import run_heavy_ball


def test_cgd_stationary_at_optimum():
    objs = [QuadraticLocal(np.eye(2), np.array([1.0, -2.0])) for _ in range(3)]
    result = cgd_run(objs, 1.0 / 3.0, 5)  # the first step from zero lands on the optimum
    assert (result.records.column("suboptimality") <= 1e-12).all()
    assert (result.records.column("dist_to_optimum_sq") <= 1e-12).all()


def test_cgd_one_step_on_scalar_quadratic():
    objs = [QuadraticLocal(np.array([[1.0]]), np.array([5.0]))]
    result = cgd_run(objs, 1.0, 3)
    assert result.records.column("dist_to_optimum_sq")[0] == pytest.approx(0.0, abs=1e-28)


def test_cgd_matches_normal_equations_and_descends():
    objs = random_regression_instance(4, 3, 6, seed=0)
    total = sum(o.hessian for o in objs)
    step = 1.0 / np.linalg.eigvalsh(total)[-1]
    ref = reference_optimum(objs)
    result = cgd_run(objs, step, 4000, reference=ref)
    subs = result.records.column("suboptimality").tolist()
    assert all(b <= a + 1e-15 for a, b in zip(subs, subs[1:]))
    assert np.linalg.norm(result.final_state[0] - ref.x_star) <= 1e-8


def test_dgd_stationary_with_zero_steps():
    objs = [KLLocal(np.array([0.5, 0.5])) for _ in range(4)]
    graph = build_graph(Topology("cycle", 4))
    result = dgd_run(graph, objs, 0.0, 0.2, 10)  # the simplex center: consensus at the shared optimum
    assert result.records.column("dist_to_optimum_sq")[-1] <= 1e-28
    assert result.records.column("consensus_quadratic")[-1] <= 1e-28


def test_dgd_zero_mixing_decouples_into_local_descent():
    objs = random_regression_instance(3, 2, 4, seed=1)
    graph = build_graph(Topology("cycle", 3))
    result = dgd_run(graph, objs, 0.5, 0.0, 25, decaying_step=False)
    # hand-rolled independent local gradient descent
    blocks = np.zeros((3, 2))
    for _ in range(25):
        for i, obj in enumerate(objs):
            blocks[i] = blocks[i] - 0.5 * obj.gradient(blocks[i])
    assert np.allclose(result.final_state, blocks, atol=1e-12)


def test_dgd_matches_dense_matrix_iteration_oracle():
    objs = random_regression_instance(2, 2, 4, seed=2)
    graph = build_graph(Topology("cycle", 2))
    mixing, step = 0.3, 0.8
    result = dgd_run(graph, objs, step, mixing, 30)
    # oracle: x_{k+1} = (W (x) I) x_k - (step/sqrt(k)) grad F(x_k) with dense W
    mix_mat = np.kron(np.eye(2) - mixing * dense_laplacian(graph), np.eye(2))
    x = np.zeros(4)
    for k in range(1, 31):
        grads = np.concatenate([objs[0].gradient(x[:2]), objs[1].gradient(x[2:])])
        x = mix_mat @ x - (step / np.sqrt(k)) * grads
    assert np.linalg.norm(result.final_state.reshape(-1) - x) <= 1e-12


def test_dgd_mixing_preserves_block_mean():
    graph = build_graph(Topology("erdos_renyi", 6, edge_probability=0.6, rng_seed=3))
    objs = random_regression_instance(6, 2, 4, seed=3)
    # One step leaves consensus; the second step's mixing must keep the block mean.
    start = dgd_run(graph, objs, 0.5, 0.25, 1, decaying_step=False).final_state
    result = dgd_run(graph, objs, 0.5, 0.25, 2, decaying_step=False)
    grads = np.array([obj.gradient(block) for obj, block in zip(objs, start)])
    before = start.mean(axis=0)
    after = (result.final_state + 0.5 * grads).mean(axis=0)
    assert np.abs(before - after).max() <= 1e-12


def test_objectives_for_another_node_count_are_a_dimension_mismatch():
    graph = build_graph(Topology("cycle", 5))
    objs = random_regression_instance(4, 2, 3, seed=0)
    for num_iterations in (0, 3):
        with pytest.raises(DimensionMismatch, match="4 objectives for 5 nodes"):
            dgd_run(graph, objs, 0.1, 0.2, num_iterations)
        with pytest.raises(DimensionMismatch, match="4 objectives for 5 nodes"):
            dual_nag_run(graph, objs, 0.1, num_iterations)
        with pytest.raises(DimensionMismatch, match="4 objectives for 5 nodes"):
            run_heavy_ball(graph, objs, tableau("rk4"), num_iterations, h0=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_steps_are_invalid_arguments_not_divergence(bad):
    graph = build_graph(Topology("cycle", 4))
    objs = random_regression_instance(4, 2, 3, seed=0)
    for num_iterations in (0, 3):
        runs = [
            lambda: cgd_run(objs, bad, num_iterations),
            lambda: dgd_run(graph, objs, bad, 0.2, num_iterations),
            lambda: dual_nag_run(graph, objs, bad, num_iterations),
            lambda: run_heavy_ball(graph, objs, tableau("rk4"), num_iterations, h0=bad),
        ]
        for run in runs:
            with pytest.raises(InvalidArgument, match="and finite"):
                run()


def test_dgd_mixing_validation():
    graph = build_graph(Topology("star", 4))
    objs = random_regression_instance(4, 2, 4, seed=4)
    with pytest.raises(ValueError):
        dgd_run(graph, objs, 0.1, 2.0 / graph.lambda_max, 5)
    with pytest.raises(ValueError):
        dgd_run(graph, objs, 0.1, -0.1, 5)


def test_dual_nag_stays_at_zero_when_unconstrained_min_is_consensus():
    q = np.array([0.6, 0.4])
    objs = [KLLocal(q) for _ in range(4)]
    graph = build_graph(Topology("star", 4))
    result = dual_nag_run(graph, objs, 0.05, 20)
    assert (result.records.column("consensus_quadratic") <= 1e-28).all()
    assert (result.records.column("suboptimality") <= 1e-14).all()


def test_first_nag_step_is_plain_gradient():
    graph = build_graph(Topology("cycle", 5))
    objs = random_kl_instance(5, 3, seed=5)
    reference = reference_optimum(objs)
    nag = dual_nag_run(graph, objs, 0.05, 1, reference=reference)
    records, _, final_stack = _dual_descent_reference(graph, objs, 0.05, 1, reference, momentum=False)
    assert nag.records.column("suboptimality")[0] == records.column("suboptimality")[0]
    assert np.array_equal(nag.final_state.reshape(-1), final_stack)


def test_nag_dual_gap_beats_plain_gradient():
    objs = random_regression_instance(8, 3, 5, seed=6)
    graph = build_graph(Topology("erdos_renyi", 8, edge_probability=0.5, rng_seed=6))
    mu = min(o.strong_convexity for o in objs)
    h = mu / graph.lambda_max
    reference = reference_optimum(objs)
    nag = dual_nag_run(graph, objs, h, 800, reference=reference, record_dual_gap=True)
    _, gd_gaps, _ = _dual_descent_reference(graph, objs, h, 800, reference, momentum=False)
    assert nag.dual_gaps[-1] < gd_gaps[-1]
    assert nag.dual_gaps[-1] >= -1e-10  # phi(y*) is the dual minimum


def test_dual_methods_keep_kernel_sums_zero():
    graph = build_graph(Topology("cycle", 6))
    objs = random_kl_instance(6, 3, seed=7)
    result = dual_nag_run(graph, objs, 0.05, 100)
    assert result.max_kernel_residual <= 1e-9


def test_baselines_share_record_schema():
    graph = build_graph(Topology("star", 4))
    objs = random_kl_instance(4, 2, seed=8)
    runs = [
        cgd_run(objs, 0.05, 5),
        dgd_run(graph, objs, 0.05, 0.2, 5),
        dual_nag_run(graph, objs, 0.05, 5),
    ]
    for result in runs:
        assert len(result.records) == 5
        assert result.records.column("iteration").tolist() == [1, 2, 3, 4, 5]
        assert result.records.column("comm_rounds").tolist() == [1, 2, 3, 4, 5]  # one round per iteration
        assert (result.records.column("consensus_quadratic") >= 0.0).all()
        assert result.comm_rounds == 5 and result.resolved_step == 0.05
        assert result.final_state.shape == (4, 2)  # one primal block per agent
        assert 0.0 < result.min_primal_entry < 1.0  # logged for the simplex family only
    quads = random_regression_instance(4, 2, 4, seed=8)
    assert cgd_run(quads, 0.05, 5).min_primal_entry is None


def _dual_descent_reference(graph, objs, step, num_iterations, reference, momentum):
    """Dual descent that solves the conjugate afresh for every use: the anchor,
    the metrics, the dual gap and the final stack."""
    n, p = graph.node_count, objs[0].dim
    y_hat = y_prev = z_hat = np.zeros(n * p)
    records, gaps = MetricsTrace(rows=num_iterations), []
    for k in range(1, num_iterations + 1):
        anchor = z_hat if momentum else y_hat
        y_new = anchor - step * laplacian_apply(graph, stacked_conjugate(objs, anchor), p)
        if momentum:
            z_hat = y_new + ((k - 1.0) / (k + 2.0)) * (y_new - y_prev)
            y_prev = y_new
        y_hat = y_new
        x_stack = stacked_conjugate(objs, y_hat)
        gaps.append(dual_value_transformed(objs, y_hat) + reference.f_star)
        row = evaluate_metrics(x_stack, reference, graph, objs, k, k)
        records.append(*(row.column(name) for name in TRACE_COLUMNS))
    return records, gaps, stacked_conjugate(objs, y_hat)


@pytest.mark.parametrize(
    "runner, momentum, sweeps", [(dual_nag_run, True, 24)]
)
def test_dual_descent_solves_each_conjugate_once(monkeypatch, runner, momentum, sweeps):
    graph = build_graph(Topology("erdos_renyi", 6, edge_probability=0.6, rng_seed=4))
    objs = random_regression_instance(6, 3, 5, seed=4, ridge=1e-3)
    reference = reference_optimum(objs)
    calls = []

    def counting(objectives, z, out=None):
        calls.append(1)
        return stacked_conjugate(objectives, z, out=out)

    monkeypatch.setattr(baselines, "stacked_conjugate", counting)
    result = runner(graph, objs, 0.5, 12, reference=reference, record_dual_gap=True)
    # N + 1 sweeps (start, then one per iterate) and the N - 1 momentum
    # anchors that differ from the iterate.
    assert len(calls) == sweeps
    records, gaps, final_stack = _dual_descent_reference(graph, objs, 0.5, 12, reference, momentum)
    assert len(result.records) == len(records)
    for name in TRACE_COLUMNS[:-1]:  # every column but the wall time
        assert result.records.column(name).tobytes() == records.column(name).tobytes()
    assert result.dual_gaps == gaps
    assert np.array_equal(result.final_state.reshape(-1), final_stack)
