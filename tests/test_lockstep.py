"""Integrator orders in lockstep: one round loop serves parts at different tableaus."""

import json

import numpy as np
import pytest

from dualrk import cli, simulator
from dualrk.errors import DimensionMismatch, NonFiniteState
from dualrk.graph import Topology, build_graph, disjoint_union
from dualrk.harness import TRACE_COLUMNS, reference_optimum
from dualrk.integrator import load_tableau, tableau_for_order
from dualrk.objectives import random_kl_instance, random_regression_instance, stacked_conjugate, stacked_family
from dualrk.simulator import run_heavy_ball, run_heavy_ball_orders, suggested_h0


def _fields(trace):
    return [trace.column(name).tobytes() for name in TRACE_COLUMNS if name != "wall_time_ms"]


def _kutta3(tmp_path):
    path = tmp_path / "kutta3.json"
    path.write_text(json.dumps({"order": 3, "a": [[], [0.5], [-1.0, 2.0]], "b": [1 / 6, 2 / 3, 1 / 6]}))
    return load_tableau(path)


def _instance(family, n, p, seed):
    if family == "quadratic":
        return random_regression_instance(n, p, p + 2, seed=seed, ridge=1e-3)
    return random_kl_instance(n, p, seed=seed)


@pytest.mark.parametrize("family", ["quadratic", "kl"])
@pytest.mark.parametrize("orders, budget", [((1, 2, 4), 1000), ((1, 2, 4), 1002), ((4, 3, 1), 1002), ((2, 3), 601)])
def test_orders_in_lockstep_are_each_order_alone_bitwise(tmp_path, family, orders, budget):
    # Parts on different graphs and instances; at a budget that not every stage count divides
    # the parts finish on different rounds, and a finished part sits idle.
    tabs = [_kutta3(tmp_path) if order == 3 else tableau_for_order(order) for order in orders]
    kinds = ("erdos_renyi", "star", "cycle")
    graphs = [build_graph(Topology(kinds[i], 6 + i, edge_probability=0.6, rng_seed=i)) for i in range(len(tabs))]
    objective_lists = [_instance(family, g.node_count, 3, seed=i) for i, g in enumerate(graphs)]
    iterations = [budget // tab.stages for tab in tabs]
    h0 = [0.5 * suggested_h0(g, objs, tab, N) for g, objs, tab, N in zip(graphs, objective_lists, tabs, iterations)]
    references = [reference_optimum(objs) for objs in objective_lists]
    alone = [
        run_heavy_ball(*case, h0=step, reference=ref)
        for *case, step, ref in zip(graphs, objective_lists, tabs, iterations, h0, references)
    ]
    union_objectives = [obj for objs in objective_lists for obj in objs]
    lockstep = run_heavy_ball_orders(disjoint_union(graphs), union_objectives, tabs, iterations, h0, references)
    assert len(lockstep) == len(alone)
    for part, single, tab, count in zip(lockstep, alone, tabs, iterations):
        assert _fields(part.records) == _fields(single.records) and len(part.records) == count
        assert part.final_state.tobytes() == single.final_state.tobytes()
        assert part.comm_rounds == single.comm_rounds == count * tab.stages
        for name in ("resolved_step", "max_kernel_residual", "min_primal_entry"):
            assert repr(getattr(part, name)) == repr(getattr(single, name))


def test_one_cohort_run_solves_one_conjugate_per_round(monkeypatch):
    # run_heavy_ball is the lockstep loop with one part: S N + 1 sweeps, as before the loop took parts.
    graph = build_graph(Topology("cycle", 5))
    objs = random_kl_instance(5, 3, seed=2)
    calls = []

    def counting(objectives, z, out=None):
        calls.append(len(out))
        return stacked_conjugate(objectives, z, out=out)

    monkeypatch.setattr(simulator, "stacked_conjugate", counting)
    for order in (1, 2, 4):
        calls.clear()
        run_heavy_ball(graph, objs, tableau_for_order(order), 7, h0=0.5)
        assert calls == [5] * (tableau_for_order(order).stages * 7 + 1)


@pytest.mark.parametrize("budget", [40, 1002])
def test_fig3_solves_one_stacked_conjugate_per_shared_round(tmp_path, monkeypatch, budget):
    # Three separate runs made 3B + 3 calls over 20 rows; the lockstep run makes B + 1 over 60.
    calls, results = [], []
    original = cli.run_heavy_ball_orders

    def counting(objectives, z, out=None):
        calls.append(len(out))
        return stacked_conjugate(objectives, z, out=out)

    def keeping(*args, **kwargs):
        results.extend(original(*args, **kwargs))
        return results[-3:]

    monkeypatch.setattr(simulator, "stacked_conjugate", counting)
    monkeypatch.setattr(cli, "run_heavy_ball_orders", keeping)
    cli.reproduce("fig3", out_dir=tmp_path, rounds_budget=budget)
    assert calls == [60] * (budget + 1)
    assert [result.comm_rounds for result in results] == [budget, budget - budget % 2, budget - budget % 4]


def test_fig3_parts_keep_the_kernel_sums_at_the_benchmark_budget(tmp_path, monkeypatch):
    # The traced benchmark's residual check does not see fig3's lockstep run; this keeps that coverage.
    results = []
    original = cli.run_heavy_ball_orders

    def keeping(*args, **kwargs):
        results.extend(original(*args, **kwargs))
        return results[-3:]

    monkeypatch.setattr(cli, "run_heavy_ball_orders", keeping)
    cli.reproduce("fig3", out_dir=tmp_path, rounds_budget=1000)
    assert len(results) == 3
    for result in results:
        assert result.max_kernel_residual <= 1e-9


def test_a_diverging_order_names_its_part_alone():
    graph = build_graph(Topology("cycle", 4))
    objs = random_regression_instance(4, 3, 5, seed=1, ridge=1e-3)
    tabs = [tableau_for_order(order) for order in (1, 2, 4)]
    with pytest.raises(NonFiniteState) as alone:
        run_heavy_ball(graph, objs, tabs[1], 5, h0=1e300)
    with pytest.raises(NonFiniteState) as union:
        run_heavy_ball_orders(disjoint_union([graph] * 3), stacked_family(objs * 3), tabs, [10, 5, 2], [1e-3, 1e300, 1e-3])
    assert union.value.parts == (1,) and union.value.iteration == alone.value.iteration
    assert str(union.value) == f"{alone.value} in union parts [1]"


def test_a_union_takes_one_tableau_per_part():
    graph = build_graph(Topology("cycle", 4))
    objs = random_kl_instance(4, 2, seed=0)
    tabs = (tableau_for_order(1), tableau_for_order(2))
    with pytest.raises(DimensionMismatch, match="2 values for 3 graph parts"):
        run_heavy_ball_orders(disjoint_union([graph] * 3), objs * 3, tabs, 4, 0.1)
    assert np.isnan(run_heavy_ball_orders(disjoint_union([graph] * 2), objs * 2, tabs, 0, 0.1)[1].resolved_step)
