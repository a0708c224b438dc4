"""Disjoint unions of graphs: a union run is each part run alone, bitwise.

Property tests draw 2-3 random connected parts of 2-16 agents, a block
dimension of 2-5, either objective family and a different step per part
(and, for heavy ball in lockstep, its own order and iteration count).
Each part's trace (the bytes of every column but the wall time), final
state, rounds, step, kernel residual and least primal entry from one union
run must equal that part's own run.  Criterion 1 (the engine against the per-agent oracle) stays on
single graphs, in ``test_simulator.py`` and ``test_acceptance.py``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dualrk import baselines, cli
from dualrk import objectives as objectives_module
from dualrk.baselines import dgd_run, dual_nag_run
from dualrk.config import ExperimentConfig
from dualrk.errors import DimensionMismatch, DualRKError, InvalidArgument, NonFiniteState
from dualrk.graph import (
    Topology,
    build_graph,
    dense_laplacian,
    disjoint_union,
    laplacian_apply,
)
from dualrk.harness import TRACE_COLUMNS, fit_rate, reference_optimum, write_metrics_csv, write_rate_fits_json
from dualrk.integrator import tableau_for_order
from dualrk.objectives import random_kl_instance, random_regression_instance
from dualrk.simulator import run_heavy_ball, run_heavy_ball_orders, suggested_h0

PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def unions(draw):
    """``(graphs, objective lists, p)``: 2-3 connected parts of one family."""
    p = draw(st.integers(2, 5))
    family = draw(st.sampled_from(["quadratic", "kl"]))
    graphs, objective_lists = [], []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(2, 16))
        kind = draw(st.sampled_from(["star", "cycle", "erdos_renyi"]))
        seed = draw(st.integers(0, 10_000))
        probability = draw(st.floats(0.3, 1.0))
        graphs.append(build_graph(Topology(kind, n, edge_probability=probability, rng_seed=seed)))
        if family == "quadratic":
            objective_lists.append(random_regression_instance(n, p, p + 2, seed=seed, ridge=1e-3))
        else:
            objective_lists.append(random_kl_instance(n, p, seed=seed))
    return graphs, objective_lists, p


def _fields(trace):
    return [trace.column(name).tobytes() for name in TRACE_COLUMNS if name != "wall_time_ms"]


def _union_or_divergence(run_union, runs_alone):
    """The union result, or None after checking that a diverging part diverges in the union too."""
    diverged = []
    for i, run in enumerate(runs_alone):
        try:
            run()
        except NonFiniteState:
            diverged.append(i)
    if diverged:
        with pytest.raises(NonFiniteState) as err:
            run_union()
        assert err.value.parts and set(err.value.parts) <= set(diverged)
        assert f"in union parts {list(err.value.parts)}" in str(err.value)
        event("a part diverged")
        return None
    return run_union()


def _assert_parts_match(union_result, alone_results):
    assert len(union_result.parts) == len(alone_results)
    for part, alone in zip(union_result.parts, alone_results):
        assert _fields(part.records) == _fields(alone.records)
        assert part.final_state.tobytes() == alone.final_state.tobytes()
        assert part.comm_rounds == alone.comm_rounds == union_result.comm_rounds
        for name in ("resolved_step", "max_kernel_residual", "min_primal_entry"):
            assert repr(getattr(part, name)) == repr(getattr(alone, name))


@PROPERTY
@given(unions(), st.sampled_from([1, 2, 4]), st.integers(1, 12), st.data())
def test_heavy_ball_union_is_each_part_alone(union_case, order, iterations, data):
    graphs, objective_lists, _ = union_case
    tab = tableau_for_order(order)
    h0 = [
        data.draw(st.floats(0.2, 1.5)) * suggested_h0(g, objs, tab, iterations)
        for g, objs in zip(graphs, objective_lists)
    ]
    union = disjoint_union(graphs)
    objectives = [obj for objs in objective_lists for obj in objs]
    references = [reference_optimum(objs) for objs in objective_lists]
    alone = []

    def runner(i):
        def run():
            alone.append(run_heavy_ball(graphs[i], objective_lists[i], tab, iterations, h0=h0[i]))
        return run

    result = _union_or_divergence(
        lambda: run_heavy_ball(union, objectives, tab, iterations, h0=h0, reference=references),
        [runner(i) for i in range(len(graphs))],
    )
    if result is None:
        return
    _assert_parts_match(result, alone)
    assert result.max_kernel_residual == max(single.max_kernel_residual for single in alone)
    assert result.comm_rounds == alone[0].comm_rounds == iterations * tab.stages
    assert len(result.records) == 0


@PROPERTY
@given(unions(), st.data())
def test_heavy_ball_orders_union_is_each_part_alone(union_case, data):
    # Lockstep: each part at its own order and iteration count; a part that has finished sits idle.
    graphs, objective_lists, _ = union_case
    tabs = [tableau_for_order(data.draw(st.sampled_from([1, 2, 4]))) for _ in graphs]
    iterations = [data.draw(st.integers(0, 12)) for _ in graphs]
    h0 = [
        data.draw(st.floats(0.2, 1.5)) * suggested_h0(g, objs, tab, N or 1)
        for g, objs, tab, N in zip(graphs, objective_lists, tabs, iterations)
    ]
    references = [reference_optimum(objs) for objs in objective_lists]
    cases = list(zip(graphs, objective_lists, tabs, iterations, h0, references))
    alone = []

    def runner(i):
        def run():
            *case, step, reference = cases[i]
            alone.append(run_heavy_ball(*case, h0=step, reference=reference))
        return run

    objectives = [obj for objs in objective_lists for obj in objs]
    results = _union_or_divergence(
        lambda: run_heavy_ball_orders(disjoint_union(graphs), objectives, tabs, iterations, h0, references),
        [runner(i) for i in range(len(graphs))],
    )
    if results is None:
        return
    assert len(results) == len(alone)
    for part, single, tab, count in zip(results, alone, tabs, iterations):
        assert _fields(part.records) == _fields(single.records) and len(part.records) == count
        assert part.final_state.tobytes() == single.final_state.tobytes()
        assert part.comm_rounds == single.comm_rounds == count * tab.stages
        for name in ("resolved_step", "max_kernel_residual", "min_primal_entry"):
            assert repr(getattr(part, name)) == repr(getattr(single, name))


@PROPERTY
@given(unions(), st.booleans(), st.integers(1, 15), st.data())
def test_dgd_union_is_each_part_alone(union_case, decaying, iterations, data):
    graphs, objective_lists, _ = union_case
    steps = [data.draw(st.floats(0.0, 2.0)) for _ in graphs]
    mixings = [data.draw(st.floats(0.0, 1.9)) / g.lambda_max for g in graphs]
    union = disjoint_union(graphs)
    objectives = [obj for objs in objective_lists for obj in objs]
    alone = []

    def runner(i):
        def run():
            alone.append(dgd_run(graphs[i], objective_lists[i], steps[i], mixings[i], iterations,
                                 decaying_step=decaying))
        return run

    result = _union_or_divergence(
        lambda: dgd_run(union, objectives, steps, mixings, iterations, decaying_step=decaying),
        [runner(i) for i in range(len(graphs))],
    )
    if result is not None:
        _assert_parts_match(result, alone)


@PROPERTY
@given(unions(), st.integers(1, 15), st.data())
def test_dual_nag_union_is_each_part_alone(union_case, iterations, data):
    graphs, objective_lists, _ = union_case
    steps = [
        data.draw(st.floats(0.05, 1.5)) * min(o.strong_convexity for o in objs) / g.lambda_max
        for g, objs in zip(graphs, objective_lists)
    ]
    union = disjoint_union(graphs)
    objectives = [obj for objs in objective_lists for obj in objs]
    alone = []

    def runner(i):
        def run():
            alone.append(dual_nag_run(graphs[i], objective_lists[i], steps[i], iterations, record_dual_gap=True))
        return run

    result = _union_or_divergence(
        lambda: dual_nag_run(union, objectives, steps, iterations, record_dual_gap=True),
        [runner(i) for i in range(len(graphs))],
    )
    if result is not None:
        _assert_parts_match(result, alone)
        for part, single in zip(result.parts, alone):
            assert [repr(g) for g in part.dual_gaps] == [repr(g) for g in single.dual_gaps]


def test_union_offsets_neighbors_and_takes_spectra_from_parts():
    star, cycle = build_graph(Topology("star", 4)), build_graph(Topology("cycle", 5))
    union = disjoint_union([star, cycle])
    assert union.node_count == 9 and union.parts == (star, cycle)
    assert [nb.tolist() for nb in union.neighbor_lists[4:]] == [[5, 8], [4, 6], [5, 7], [6, 8], [4, 7]]
    assert union.lambda_max == max(star.lambda_max, cycle.lambda_max)
    assert union.lambda_min_pos == min(star.lambda_min_pos, cycle.lambda_min_pos)
    assert [(nodes.start, nodes.stop, part) for nodes, part in union.part_rows] == [(0, 4, star), (4, 9, cycle)]
    dense = dense_laplacian(union)
    assert np.array_equal(dense[:4, :4], dense_laplacian(star)) and not dense[:4, 4:].any()
    x = np.random.default_rng(0).normal(size=9 * 3)
    parts = np.concatenate([laplacian_apply(star, x[:12], 3), laplacian_apply(cycle, x[12:], 3)])
    assert laplacian_apply(union, x, 3).tobytes() == parts.tobytes()
    assert np.linalg.eigvalsh(dense)[1] <= 1e-10  # disconnected: the Laplacian's rank is below n - 1
    # A single graph is a union of one part.
    assert disjoint_union([star]) is star and star.part_rows == ((slice(0, 4), star),)


def test_per_part_values_are_spread_over_each_part():
    union = disjoint_union([build_graph(Topology("star", 2)), build_graph(Topology("cycle", 3))])
    assert union.node_values([0.5, 2.0]).tolist() == [[0.5], [0.5], [2.0], [2.0], [2.0]]
    assert union.node_values(3.0).tolist() == [[3.0]] * 5
    star = union.parts[0]
    assert star.node_values(3.0) == 3.0 and star.node_values([3.0]) == 3.0
    with pytest.raises(DimensionMismatch):
        union.per_part([1.0, 2.0, 3.0])


def test_a_diverging_part_is_named_and_a_single_graph_message_is_unchanged():
    graphs = [build_graph(Topology("cycle", 4)), build_graph(Topology("star", 5))]
    objs = [random_regression_instance(g.node_count, 3, 5, seed=1, ridge=1e-3) for g in graphs]
    union, objectives = disjoint_union(graphs), objs[0] + objs[1]
    with pytest.raises(NonFiniteState) as err:
        dual_nag_run(union, objectives, [1e-3, 1e300], 5)
    assert err.value.parts == (1,) and err.value.iteration == 2
    assert str(err.value) == "dual_nag: non-finite iterate at iteration 2 in union parts [1]"
    with pytest.raises(NonFiniteState) as err:
        dual_nag_run(graphs[1], objs[1], 1e300, 5)
    assert err.value.parts == (0,) and str(err.value) == "dual_nag: non-finite iterate at iteration 2"
    tab = tableau_for_order(4)
    with pytest.raises(NonFiniteState) as err:
        run_heavy_ball(union, objectives, tab, 5, h0=[1e300, 1e-3])
    assert err.value.parts == (0,) and str(err.value).endswith("in union parts [0]")


def test_union_parts_share_a_cgd_run_only_with_an_equal_reference(monkeypatch):
    calls = []
    original = baselines.cgd_run

    def recording(objectives, step, num_iterations, reference=None):
        calls.append(reference)
        return original(objectives, step, num_iterations, reference=reference)

    monkeypatch.setattr(baselines, "cgd_run", recording)
    graphs = [build_graph(Topology(kind, 4)) for kind in ("star", "cycle", "star")]
    objs = random_regression_instance(4, 3, 5, seed=1, ridge=1e-3)
    shifted = replace(reference_optimum(objs), f_star=reference_optimum(objs).f_star - 1.0)
    references = [reference_optimum(objs), reference_optimum(objs), shifted]  # equal, equal, other
    cfg, tab = ExperimentConfig(method="cgd"), tableau_for_order(4)
    records = cli._run_method(cfg, disjoint_union(graphs), objs * 3, tab, references, 6)
    assert calls == [references[0], shifted]
    (alone,) = cli._run_method(cfg, graphs[2], objs, tab, shifted, 6)
    assert _fields(records[0]) == _fields(records[1]) != _fields(records[2]) == _fields(alone)


def test_union_parts_are_evaluated_through_views_of_one_family(monkeypatch):
    # Three distinct instances at the desk shape and no references given: the
    # run builds one family, and every part's records and reference optimum
    # are evaluated through a row slice of it.
    kinds = ("star", "cycle", "erdos_renyi")
    graphs = [build_graph(Topology(kind, 20, edge_probability=0.3, rng_seed=3)) for kind in kinds]
    objective_lists = [random_regression_instance(20, 10, 10, seed=seed, ridge=1e-3) for seed in (1, 2, 3)]
    tab, h0 = tableau_for_order(4), [0.3, 0.3, 0.3]
    alone = [run_heavy_ball(g, objs, tab, 100, h0=0.3) for g, objs in zip(graphs, objective_lists)]
    builds = []
    build = objectives_module._QuadraticFamily.__init__

    def counting(self, members):
        builds.append(len(members))
        build(self, members)

    monkeypatch.setattr(objectives_module._QuadraticFamily, "__init__", counting)
    union_objectives = [obj for objs in objective_lists for obj in objs]
    result = run_heavy_ball(disjoint_union(graphs), union_objectives, tab, 100, h0=h0)
    assert builds == [60]
    _assert_parts_match(result, alone)


def test_on_record_takes_a_one_graph_run_only():
    graphs = [build_graph(Topology("star", 3)), build_graph(Topology("cycle", 4))]
    objectives = random_kl_instance(3, 2, seed=0) + random_kl_instance(4, 2, seed=1)
    with pytest.raises(InvalidArgument, match="union of 2 parts"):
        run_heavy_ball(disjoint_union(graphs), objectives, tableau_for_order(2), 3, h0=0.1, on_record=print)


def _cells_alone(figure, out_dir, budget):
    """A figure's bundle with every (graph, method) cell run on its own graph."""
    parts, graphs, objectives, methods = cli._figure_cells(figure, "desk", 0)
    fits, labels = [], []
    for kind, order in parts:
        reference = reference_optimum(objectives)
        for method in methods:
            (records,) = cli._run_method(
                ExperimentConfig(method=method), graphs[kind], objectives, tableau_for_order(order),
                reference, budget, None, cli._H0_SWEEP_ATTEMPTS,
            )
            name = f"{figure}_{kind}_{method}"
            write_metrics_csv(records, out_dir / f"{name}.csv")
            for metric in ("suboptimality", "consensus_quadratic"):
                try:
                    fits.append(fit_rate(records, metric))
                except DualRKError:
                    continue
                labels.append(name)
    extra = {"figure": figure, "scale": "desk", "seed": 0, "traces": labels}
    write_rate_fits_json(fits, out_dir / f"{figure}_rate_fits.json", extra=extra)


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_reproduce_writes_the_bytes_of_each_cell_run_alone(tmp_path, figure):
    union_dir, alone_dir = tmp_path / "union", tmp_path / "alone"
    alone_dir.mkdir()
    written = cli.reproduce(figure, out_dir=union_dir, rounds_budget=40)
    _cells_alone(figure, alone_dir, 40)
    assert sorted(p.name for p in alone_dir.iterdir()) == sorted(p.name for p in written)
    for path in written:
        assert path.read_bytes() == (alone_dir / path.name).read_bytes(), path.name
    assert json.loads((union_dir / f"{figure}_rate_fits.json").read_text())["figure"] == figure
