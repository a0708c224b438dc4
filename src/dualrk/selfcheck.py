"""Fast invariant suite behind the ``verify`` command.

Each check is independent, runs in a few seconds at most, and reports a
named pass/fail with a short detail string.  Components can be injected to
exercise the checks against deliberately corrupted inputs (the test suite
does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import agent_field, stack_agent_states
from .graph import LaplacianGraph, Topology, build_graph, dense_laplacian
from .integrator import ButcherTableau, certify_order, tableau
from .objectives import random_kl_instance, random_regression_instance
from .oracles import heavy_ball_field, kkt_residual, run_heavy_ball_monolithic, run_heavy_ball_per_agent
from .simulator import run_heavy_ball

__all__ = ["CheckResult", "run_invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_graph_structure(graph: LaplacianGraph) -> CheckResult:
    name = "laplacian_symmetry"
    neighbor_sets = [set(int(j) for j in nb) for nb in graph.neighbor_lists]
    for i, nb in enumerate(neighbor_sets):
        if i in nb:
            return CheckResult(name, False, f"node {i} lists itself as a neighbor")
        for j in nb:
            if i not in neighbor_sets[j]:
                return CheckResult(name, False, f"edge ({i},{j}) present but ({j},{i}) missing")
    lap = dense_laplacian(graph)
    row_sums = np.abs(lap.sum(axis=1)).max()
    if row_sums > 1e-12:
        return CheckResult(name, False, f"Laplacian row sums reach {row_sums:.3e}")
    evals = np.linalg.eigvalsh(lap)
    if evals[1] <= 1e-10:
        return CheckResult(name, False, "graph is disconnected (second eigenvalue is zero)")
    return CheckResult(name, True, f"n={graph.node_count}, lambda_min_pos={evals[1]:.4g}")


def _check_conjugate_kkt(seed: int) -> CheckResult:
    name = "conjugate_kkt"
    rng = np.random.default_rng(seed)
    worst = 0.0
    quadratics = random_regression_instance(4, 5, 7, seed=seed)
    kls = random_kl_instance(4, 5, seed=seed)
    for obj in quadratics + kls:
        for _ in range(25):
            z = rng.normal(scale=3.0, size=obj.dim)
            residual = kkt_residual(obj, z)
            worst = max(worst, residual / (1.0 + float(np.linalg.norm(z))))
    if worst > 1e-8:
        return CheckResult(name, False, f"normalized KKT residual {worst:.3e} exceeds 1e-8")
    return CheckResult(name, True, f"worst normalized residual {worst:.3e}")


def _check_integrator_orders(tableaux) -> CheckResult:
    name = "integrator_order"
    for tab in tableaux:
        try:
            certify_order(tab)
        except ValueError as err:
            return CheckResult(name, False, str(err))
    return CheckResult(name, True, f"{len(tableaux)} tableaux certified within +-0.2")


def _check_kernel_sums(graph: LaplacianGraph, seed: int) -> CheckResult:
    name = "kernel_sums"
    objectives = random_regression_instance(graph.node_count, 3, 5, seed=seed)
    result = run_heavy_ball(graph, objectives, tableau("rk4"), num_iterations=40, h0=0.5)
    if result.max_kernel_residual > 1e-9:
        return CheckResult(
            name, False, f"kernel-sum residual {result.max_kernel_residual:.3e} exceeds 1e-9"
        )
    return CheckResult(name, True, f"max normalized residual {result.max_kernel_residual:.3e}")


def _check_distributed_monolithic(graph: LaplacianGraph, seed: int) -> CheckResult:
    name = "distributed_monolithic"
    objectives = random_kl_instance(graph.node_count, 3, seed=seed)
    distributed = run_heavy_ball(graph, objectives, tableau("rk4"), 25, h0=1.0, keep_trajectory=True)
    monolithic = run_heavy_ball_monolithic(graph, objectives, tableau("rk4"), 25, h0=1.0)
    # The engine and the monolithic path share the stacked conjugate and the
    # Laplacian apply; the per-agent oracle solves and assembles each agent
    # separately, which keeps this check independent of those kernels.
    per_agent = run_heavy_ball_per_agent(graph, objectives, tableau("rk4"), 25, h0=1.0)
    diff = 0.0
    for label, reference in (("monolithic", monolithic), ("per-agent", per_agent)):
        worst = np.abs(distributed.trajectory - reference).max()
        if worst > 1e-12 * (1.0 + np.abs(reference).max()):
            return CheckResult(name, False, f"{label} trajectory mismatch {worst:.3e}")
        diff = max(diff, worst)
    # Verify the per-agent field against the monolithic one at a random state.
    rng = np.random.default_rng(seed)
    state = monolithic[-1] + 0.01 * rng.normal(size=monolithic[-1].shape)
    state[-1] = abs(state[-1]) + 1.0
    want = heavy_ball_field(graph, objectives)(state)
    n, p = graph.node_count, objectives[0].dim
    points = np.column_stack([state[: n * p].reshape(n, p), state[n * p : -1].reshape(n, p), np.full(n, state[-1])])
    mailbox = np.array([obj.conjugate_argmax(point[p : 2 * p]) for obj, point in zip(objectives, points)])
    got = stack_agent_states([agent_field(graph, i, points[i], mailbox[i], mailbox) for i in range(n)], p)
    worst = np.abs(got - want).max()
    if not worst <= 1e-12 * (1.0 + np.abs(want).max()):  # NaN fails too
        return CheckResult(name, False, f"per-agent field mismatch {worst:.3e} at the probe state")
    return CheckResult(name, True, f"worst trajectory deviation {diff:.3e}")


def run_invariant_suite(
    graph: LaplacianGraph | None = None,
    tableaux: list[ButcherTableau] | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the fast cross-module invariant checks.

    Parameters
    ----------
    graph : LaplacianGraph, optional
        Graph to validate and simulate on; defaults to a small Erdos-Renyi
        sample.  Structural corruption (asymmetric neighbor lists) is the
        intended fault-injection path.
    tableaux : list of ButcherTableau, optional
        Integrators to certify; defaults to the three shipped ones.
    """
    if graph is None:
        graph = build_graph(Topology("erdos_renyi", 8, edge_probability=0.5, rng_seed=seed))
    if tableaux is None:
        tableaux = [tableau("euler"), tableau("midpoint"), tableau("rk4")]
    results = [
        _check_graph_structure(graph),
        _check_conjugate_kkt(seed),
        _check_integrator_orders(tableaux),
    ]
    # Simulation-backed checks only make sense on a structurally sound graph.
    if results[0].passed:
        results.append(_check_kernel_sums(graph, seed))
        results.append(_check_distributed_monolithic(graph, seed))
    return results
