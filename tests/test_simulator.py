"""Simulator: step sizing, round accounting, determinism, oracle equivalence."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dualrk.dynamics import initial_agent_states, stack_agent_states
from dualrk.errors import NonFiniteState
from dualrk.graph import Topology, build_graph, disjoint_union
from dualrk.harness import TraceRecorder, read_metrics_csv, reference_optimum, write_metrics_csv
from dualrk.integrator import ButcherTableau, tableau, tableau_for_order
from dualrk import simulator
from dualrk.objectives import (
    QuadraticLocal,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
)
from dualrk.oracles import run_heavy_ball_monolithic, run_heavy_ball_per_agent
from dualrk.simulator import run_heavy_ball, step_size, suggested_h0


def test_step_size_formula():
    assert step_size(1.0, 1, 3) == pytest.approx(1.0)
    assert step_size(1.0, 4, 1) == pytest.approx(0.5)
    assert step_size(2.0, 32, 4) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        step_size(0.0, 10, 1)


def test_zero_iterations_is_a_no_op():
    graph = build_graph(Topology("cycle", 3))
    objs = random_kl_instance(3, 2, seed=0)
    result = run_heavy_ball(graph, objs, tableau("rk4"), 0, h0=1.0)
    assert len(result.records) == 0
    assert result.comm_rounds == 0
    assert np.array_equal(result.final_state[:, :4], np.zeros((3, 4)))
    assert np.array_equal(result.final_state[:, -1], np.ones(3))
    assert np.isnan(result.resolved_step) and result.min_primal_entry is None
    mono = run_heavy_ball_monolithic(graph, objs, tableau("rk4"), 0, h0=1.0)
    assert mono.shape == (1, 13) and np.array_equal(mono[0], stack_agent_states(result.final_state, 2))


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
            mono = run_heavy_ball_monolithic(graph, objs, tab, 20, h0=h0)
            scale = 1.0 + np.abs(mono).max()
            assert np.abs(sim.trajectory - mono).max() <= 1e-12 * scale
            oracle = run_heavy_ball_per_agent(graph, objs, tab, 20, h0=h0)
            assert np.abs(sim.trajectory - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())


def test_end_state_conjugate_is_reused(monkeypatch):
    graph = build_graph(Topology("erdos_renyi", 6, edge_probability=0.6, rng_seed=2))
    objs = random_regression_instance(6, 3, 5, seed=2)
    evaluations = []

    def counting(objectives, z, out=None):
        evaluations.append(np.size(z) // 3)
        return stacked_conjugate(objectives, z, out=out)

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
    result = run_heavy_ball(graph, objs, tab, 3, h0=1.0)
    assert result.comm_rounds == 3 * tab.stages


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
    times = result.final_state[:, -1]
    assert np.all(times == times[0])  # agents stay in lockstep
    assert times[0] == pytest.approx(1.0 + 50 * h, rel=1e-12)


def test_divergence_reports_iteration():
    graph = build_graph(Topology("star", 4))
    objs = random_regression_instance(4, 3, 5, seed=6)
    with pytest.raises(NonFiniteState) as info:
        run_heavy_ball(graph, objs, tableau("euler"), 400, h0=500.0)
    assert info.value.iteration is not None and info.value.iteration >= 1


# Finiteness is checked once per iteration; a failure still names the first
# non-finite stage (or the end state), its iteration and the diverged parts.
# Expectations recorded when every stage was checked as it was computed.
@pytest.mark.parametrize(
    "order, iterations, h0, message, iteration",
    [
        (4, 3, 1e308, "non-finite stage derivative at iteration 1, stage 2", 1),
        (4, 5, 1e300, "non-finite stage derivative at iteration 1, stage 3", 1),
        (1, 4, 1e306, "non-finite state at iteration 2", 2),
        # Stage 3's time is negative: stage 2's overflow is still what is reported.
        (None, 3, 1e308, "non-finite stage derivative at iteration 1, stage 2", 1),
        # Stage 2 overflows with zero weight in b and in stage 3's row, so no
        # stage point or end state sees it; the end state overflows only at
        # iteration 2.  Only the stage-derivative check names it.
        ("zero_weight", 3, 1e300, "non-finite stage derivative at iteration 1, stage 2", 1),
    ],
)
def test_divergence_names_the_first_non_finite_stage(order, iterations, h0, message, iteration):
    cycle, star = build_graph(Topology("cycle", 4)), build_graph(Topology("star", 5))
    quad = random_regression_instance(4, 3, 5, seed=1, ridge=1e-3)
    custom = {
        None: ButcherTableau(order=1, a=((), (0.5,), (0.0, -1.0)), b=(1.0, 0.0, 0.0)),
        "zero_weight": ButcherTableau(order=1, a=((), (1e10,), (0.0, 0.0)), b=(1.0, 0.0, 0.0)),
    }
    tab = custom[order] if order in custom else tableau_for_order(order)
    with pytest.raises(NonFiniteState) as info:
        run_heavy_ball(cycle, quad, tab, iterations, h0=h0)
    assert (str(info.value), info.value.iteration, info.value.parts) == (message, iteration, (0,))
    # On a union only the diverged part is named.
    union, objectives = disjoint_union([star, cycle]), random_regression_instance(5, 3, 5, seed=2, ridge=1e-3) + quad
    with pytest.raises(NonFiniteState) as info:
        run_heavy_ball(union, objectives, tab, iterations, h0=[1e-3, h0])
    union_message = f"{message} in union parts [1]"
    assert (str(info.value), info.value.iteration, info.value.parts) == (union_message, iteration, (1,))


def test_kernel_invariant_tracked_through_runs():
    graph = build_graph(Topology("erdos_renyi", 8, edge_probability=0.5, rng_seed=7))
    for objs in (random_regression_instance(8, 3, 5, seed=7), random_kl_instance(8, 3, seed=7)):
        tab = tableau("rk4")
        h0 = suggested_h0(graph, objs, tab, 60)
        result = run_heavy_ball(graph, objs, tab, 60, h0=h0)
        assert result.max_kernel_residual <= 1e-9


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
    assert np.abs(result.final_state[0, :4]).max() == 0.0


def test_min_primal_entry_logged_for_simplex_runs():
    graph = build_graph(Topology("cycle", 4))
    kobs = random_kl_instance(4, 3, seed=9)
    result = run_heavy_ball(graph, kobs, tableau("rk4"), 20, h0=1.0)
    assert result.min_primal_entry is not None and 0.0 < result.min_primal_entry < 1.0
    quads = random_regression_instance(4, 2, 4, seed=9)
    result = run_heavy_ball(graph, quads, tableau("rk4"), 5, h0=0.01)
    assert result.min_primal_entry is None


# A copy of the round loop as it stood before stage derivatives were written
# in place, with the per-call kernels it used: a fresh pad row for the
# neighbor gather, a freshly allocated field, the two-reduction kernel
# residual, and per-object conjugates (bitwise equal to the stacked ones).
def _reference_laplacian(graph, x, p):
    n, lists = graph.node_count, graph.neighbor_lists
    degrees = np.array([[len(nb)] for nb in lists], dtype=float)
    table = np.full((n, int(degrees.max(initial=0))), n, dtype=np.intp)
    for i, nb in enumerate(lists):
        table[i, : len(nb)] = nb
    blocks = x.reshape(n, p)
    padded = np.concatenate([blocks, np.full((1, p), -0.0)], axis=0)
    return (degrees * blocks - padded[table].sum(axis=1)).reshape(x.shape)


def _reference_field(points, lap_rows):
    p = lap_rows.shape[1]
    t = points[:, -1:]
    out = np.empty_like(points)
    out[:, :p] = -(5.0 / t) * points[:, :p] - 4.0 * lap_rows
    out[:, p : 2 * p] = points[:, :p]
    out[:, -1] = 1.0
    return out


def _reference_kernel_residual(stacked, n, p):
    total = n * p
    v_sums = np.abs(stacked[:total].reshape(n, p).sum(axis=0)).max()
    y_hat = stacked[total : 2 * total]
    y_sums = np.abs(y_hat.reshape(n, p).sum(axis=0)).max()
    return float(max(v_sums, y_sums) / (1.0 + np.linalg.norm(y_hat)))


def _reference_run(graph, objs, tab, num_iterations, h0):
    n, p = graph.node_count, objs[0].dim

    def conjugates(agent_states):
        return np.concatenate(
            [obj.conjugate_argmax(row[p : 2 * p]) for obj, row in zip(objs, agent_states)]
        )

    h = step_size(h0, num_iterations, tab.order)
    a, b = tab.a, tab.b
    states = initial_agent_states(n, p)
    derivs = np.empty((tab.stages, n, 2 * p + 1))
    x_rows = np.empty((n, p))  # the recorder's bound primal iterate
    recorder = TraceRecorder(reference_optimum(objs), graph, objs, x_rows, iterations=num_iterations)
    rounds, max_kres = 0, 0.0
    x_stack = conjugates(states)
    for k in range(1, num_iterations + 1):
        for l in range(tab.stages):
            if l == 0:
                points, x_star = states, x_stack
            else:
                acc = a[l][0] * derivs[0]
                for j in range(1, l):
                    acc = acc + a[l][j] * derivs[j]
                points = states + h * acc
                x_star = conjugates(points)
            rounds += 1
            derivs[l] = _reference_field(points, _reference_laplacian(graph, x_star, p).reshape(n, p))
        acc = b[0] * derivs[0]
        for j in range(1, tab.stages):
            acc = acc + b[j] * derivs[j]
        states = states + h * acc
        max_kres = max(max_kres, _reference_kernel_residual(stack_agent_states(states, p), n, p))
        x_stack = conjugates(states)
        x_rows[:] = x_stack.reshape(n, p)
        recorder.push(k, rounds)
    recorder.flush()
    (trace,) = recorder.parts
    min_entry = trace.min_entry if objs[0].domain == "simplex" else None
    return trace.records, states, rounds, max_kres, min_entry


def _bitwise_fields(record):
    return [repr(v) for name, v in vars(record).items() if name != "wall_time_ms"]


@pytest.mark.parametrize("kind", ["star", "cycle", "erdos_renyi"])
@pytest.mark.parametrize("family", ["quadratic", "kl"])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_engine_matches_the_reference_round_loop_bitwise(kind, family, order):
    n, p, num_iterations = 12, 4, 30
    graph = build_graph(Topology(kind, n, edge_probability=0.4, rng_seed=2))
    if family == "quadratic":
        objs = random_regression_instance(n, p, p + 2, seed=2, ridge=1e-3)
    else:
        objs = random_kl_instance(n, p, seed=2)
    tab = tableau_for_order(order)
    h0 = suggested_h0(graph, objs, tab, num_iterations)
    records, states, rounds, max_kres, min_entry = _reference_run(graph, objs, tab, num_iterations, h0)
    result = run_heavy_ball(graph, objs, tab, num_iterations, h0=h0)
    assert [_bitwise_fields(r) for r in result.records] == [_bitwise_fields(r) for r in records]
    assert result.final_state.tobytes() == states.tobytes()
    assert result.comm_rounds == rounds == num_iterations * tab.stages
    assert repr(result.max_kernel_residual) == repr(max_kres)
    assert repr(result.min_primal_entry) == repr(min_entry)


def test_results_own_their_arrays():
    # A run writes every round into buffers it binds once; a result must not view them.
    graph = build_graph(Topology("star", 6))
    objs = random_kl_instance(6, 3, seed=5)
    tab = tableau("rk4")
    first = run_heavy_ball(graph, objs, tab, 7, h0=0.5, keep_trajectory=True)
    kept = (first.final_state.tobytes(), first.trajectory.tobytes())
    second = run_heavy_ball(graph, objs, tab, 7, h0=0.5, keep_trajectory=True)
    assert (first.final_state.tobytes(), first.trajectory.tobytes()) == kept
    expected = (second.final_state.tobytes(), second.trajectory.tobytes())
    for result in (first, second):
        assert np.array_equal(stack_agent_states(result.final_state, 3), result.trajectory[-1])
    first.final_state[:] = np.nan
    first.trajectory[:] = np.nan
    assert (second.final_state.tobytes(), second.trajectory.tobytes()) == expected
    assert np.array_equal(stack_agent_states(second.final_state, 3), second.trajectory[-1])


@st.composite
def engine_cases(draw):
    """``(graph, objectives, p)``: a connected graph of 2-24 agents, or a union of 2-3 such parts."""
    p = draw(st.integers(2, 6))
    kinds = st.sampled_from(["star", "cycle", "erdos_renyi"])
    part_count = draw(st.sampled_from([1, 1, 2, 3]))
    graphs = [
        build_graph(Topology(
            draw(kinds), draw(st.integers(2, 24 // part_count)),
            edge_probability=draw(st.floats(0.2, 1.0)), rng_seed=draw(st.integers(0, 10_000)),
        ))
        for _ in range(part_count)
    ]
    graph = graphs[0] if part_count == 1 else disjoint_union(graphs)
    n, seed = graph.node_count, draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        objectives = random_regression_instance(n, p, p + 2, seed=seed, ridge=1e-3)
    else:
        objectives = random_kl_instance(n, p, seed=seed)
    return graph, objectives, p


@st.composite
def consistent_tableaux(draw):
    """An explicit tableau of 1-4 stages whose coefficients include zero and unit weights."""
    stages = draw(st.integers(1, 4))
    coefficient = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(-1.0, 1.0))
    a = tuple(tuple(draw(coefficient) for _ in range(l)) for l in range(stages))
    b = [draw(coefficient) for _ in range(stages - 1)]
    if draw(st.booleans()):  # one unit weight, the rest zero
        b = [0.0] * (stages - 1)
        b.insert(draw(st.integers(0, stages - 1)), 1.0)
    else:
        b.append(1.0 - math.fsum(b))
    return ButcherTableau(order=1, a=a, b=tuple(b))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases(), consistent_tableaux(), st.integers(1, 8), st.floats(0.1, 1.0))
def test_engine_is_the_per_agent_round_bitwise(case, tab, iterations, scale):
    graph, objs, p = case
    if graph.degree_buckets[1] is not None:
        event("degree buckets put back in node order")
    h0 = scale * suggested_h0(graph, objs, tableau_for_order(1), iterations)
    with np.errstate(all="ignore"):
        oracle = run_heavy_ball_per_agent(graph, objs, tab, iterations, h0)
    try:
        result = run_heavy_ball(graph, objs, tab, iterations, h0=h0, keep_trajectory=True)
    except NonFiniteState:
        event("diverged")
        assert not np.isfinite(oracle).all()
        return
    assert result.trajectory.tobytes() == oracle.tobytes()
    assert result.max_kernel_residual <= 1e-9
    again = run_heavy_ball(graph, objs, tab, iterations, h0=h0, keep_trajectory=True)
    assert [_bitwise_fields(r) for r in again.records] == [_bitwise_fields(r) for r in result.records]
    assert (again.final_state.tobytes(), again.trajectory.tobytes()) == (
        result.final_state.tobytes(), result.trajectory.tobytes(),
    )
