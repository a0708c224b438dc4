"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive runs (rate sweeps, baseline comparisons, figure
bundles) are shared through module-scoped fixtures so the whole suite stays
within its runtime budgets.
"""

import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest

import dualrk
from dualrk.cli import reproduce
from dualrk.harness import fit_rate, read_metrics_csv
from dualrk.objectives import stacked_conjugate
from dualrk.oracles import (
    dual_value_transformed,
    run_heavy_ball_monolithic,
    run_heavy_ball_per_agent,
    sqrt_apply,
    sqrt_laplacian,
)

# The desk regression instance: uniform square design blocks are nearly
# singular (strong convexity ~1e-8, making the dual dynamics stiffer than
# any stable explicit step can traverse in 2000 iterations), so the ridge
# fallback restores a meaningful modulus as the strong-convexity assumption
# requires.  Seed fixed for determinism.
DESK_SEED = 11
DESK_RIDGE = 1e-3


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{name}]: FAIL")
                raise
            print(f"criterion {number} [{name}]: PASS")

        return wrapper

    return decorate


def _desk_regression():
    objs = dualrk.random_regression_instance(20, 10, 10, seed=DESK_SEED, ridge=DESK_RIDGE)
    graph = dualrk.build_graph(
        dualrk.Topology("erdos_renyi", 20, edge_probability=0.3, rng_seed=DESK_SEED)
    )
    return graph, objs


def _desk_kl():
    objs = dualrk.random_kl_instance(20, 10, seed=DESK_SEED)
    graph = dualrk.build_graph(
        dualrk.Topology("erdos_renyi", 20, edge_probability=0.3, rng_seed=DESK_SEED)
    )
    return graph, objs


@pytest.fixture(scope="module")
def equivalence_runs():
    """Ten random configurations: simulated, integrated monolithically, and
    run through the per-agent oracle (``run_heavy_ball_per_agent``)."""
    rng = np.random.default_rng(2024)
    runs = []
    start = time.perf_counter()
    for case in range(10):
        n = int(rng.integers(2, 17))
        p = int(rng.integers(2, 5))
        order = (1, 2, 4)[case % 3]
        kind = ("star", "cycle", "erdos_renyi")[case % 3]
        graph = dualrk.build_graph(
            dualrk.Topology(kind, n, edge_probability=0.5, rng_seed=case)
        )
        if case % 2 == 0:
            objs = dualrk.random_regression_instance(n, p, p + 2, seed=case)
        else:
            objs = dualrk.random_kl_instance(n, p, seed=case)
        tab = dualrk.tableau_for_order(order)
        h0 = dualrk.suggested_h0(graph, objs, tab, 15)
        sim = dualrk.run_heavy_ball(graph, objs, tab, 15, h0=h0, keep_trajectory=True)
        mono = run_heavy_ball_monolithic(graph, objs, tab, 15, h0=h0)
        oracle = run_heavy_ball_per_agent(graph, objs, tab, 15, h0=h0)
        runs.append((sim, mono, oracle, n, p))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def rate_runs():
    """The order sweep on the desk regression instance, N = 2000."""
    graph, objs = _desk_regression()
    reference = dualrk.reference_optimum(objs)
    results = {}
    start = time.perf_counter()
    for order in (1, 2, 4):
        tab = dualrk.tableau_for_order(order)
        h0 = dualrk.suggested_h0(graph, objs, tab, 2000)
        results[order] = dualrk.run_heavy_ball(
            graph, objs, tab, 2000, h0=h0, reference=reference
        )
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def baseline_runs():
    """Accelerated-dual and KL-suboptimality comparisons for criterion 6."""
    start = time.perf_counter()
    graph, objs = _desk_regression()
    mu = min(o.strong_convexity for o in objs)
    h = mu / graph.lambda_max
    nag = dualrk.dual_nag_run(graph, objs, h, 2000, record_dual_gap=True)
    # The plain control: gradient descent on the transformed dual at the same step.
    n, p = graph.node_count, objs[0].dim
    f_star, y, y_hats = dualrk.reference_optimum(objs).f_star, np.zeros(n * p), []
    for _ in range(2000):
        y = y - h * dualrk.laplacian_apply(graph, stacked_conjugate(objs, y), p)
        y_hats.append(y)
    gd = SimpleNamespace(
        dual_gaps=[dual_value_transformed(objs, y) + f_star for y in y_hats],
        max_kernel_residual=float(dualrk.kernel_residual(np.reshape(y_hats, (-1, n, p)), p).max()),
    )

    kl_graph, kl_objs = _desk_kl()
    reference = dualrk.reference_optimum(kl_objs)
    tab = dualrk.tableau_for_order(4)
    rounds_budget = 5000
    iterations = rounds_budget // tab.stages
    heavy = dualrk.run_heavy_ball(
        kl_graph,
        kl_objs,
        tab,
        iterations,
        h0=dualrk.suggested_h0(kl_graph, kl_objs, tab, iterations),
        reference=reference,
    )
    dgd = dualrk.dgd_run(
        kl_graph, kl_objs, 0.1, 1.0 / kl_graph.lambda_max, rounds_budget, reference=reference
    )
    return dict(nag=nag, gd=gd, heavy=heavy, dgd=dgd), time.perf_counter() - start


@criterion(1, "distributed/monolithic equivalence")
def test_distributed_monolithic_equivalence(equivalence_runs):
    runs, elapsed = equivalence_runs
    assert len(runs) == 10
    for sim, mono, oracle, _, _ in runs:
        for reference in (mono, oracle):
            scale = 1.0 + np.abs(reference).max()
            worst = np.abs(sim.trajectory - reference).max()
            assert worst <= 1e-12 * scale
    assert elapsed < 10.0


@criterion(2, "conjugate-oracle KKT residuals")
def test_conjugate_kkt(rng=None):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    quads = dualrk.random_regression_instance(5, 4, 6, seed=7)
    kls = dualrk.random_kl_instance(5, 4, seed=7)
    for family in (quads, kls):
        for trial in range(100):
            obj = family[trial % len(family)]
            z = rng.normal(scale=5.0, size=obj.dim)
            assert obj.kkt_residual(z) <= 1e-8 * (1.0 + np.linalg.norm(z))
    # grid-search cross-check for the simplex conjugate, p = 2
    grid = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    candidates = np.stack([grid, 1.0 - grid], axis=1)
    for seed in range(10):
        obj = dualrk.KLLocal.from_weights(np.random.default_rng(seed).uniform(0.1, 1.0, 2))
        z = np.random.default_rng(100 + seed).normal(scale=2.0, size=2)
        scores = candidates @ z - np.sum(
            candidates * np.log(candidates / obj.reference), axis=1
        )
        best = candidates[np.argmax(scores)]
        assert np.abs(obj.conjugate_argmax(z) - best).max() <= 1e-4
    assert time.perf_counter() - start < 5.0


@criterion(3, "kernel-orthogonality invariant")
def test_kernel_sums_across_matrix(equivalence_runs, rate_runs, baseline_runs):
    runs, _ = equivalence_runs
    for sim, mono, _oracle, n, p in runs:
        assert sim.max_kernel_residual <= 1e-9
        agent_rows = mono[1:, :-1].reshape(-1, 2, n, p).transpose(0, 2, 1, 3).reshape(-1, n, 2 * p)
        assert dualrk.kernel_residual(agent_rows, p).max() <= 1e-9
    sweeps, _ = rate_runs
    for result in sweeps.values():
        assert result.max_kernel_residual <= 1e-9
    named, _ = baseline_runs
    assert named["heavy"].max_kernel_residual <= 1e-9
    assert named["nag"].max_kernel_residual <= 1e-9
    assert named["gd"].max_kernel_residual <= 1e-9


@criterion(4, "integrator order certification")
def test_integrator_order_certification():
    flow = lambda s, h: s * np.exp(h)
    state = np.array([1.0])
    for kind, declared in (("euler", 1.0), ("midpoint", 2.0), ("rk4", 4.0)):
        estimate = dualrk.empirical_order(dualrk.tableau(kind), lambda s: s, flow, state)
        assert abs(estimate - declared) <= 0.2


@criterion(5, "rate behavior of the order sweep")
def test_rate_behavior(rate_runs):
    sweeps, elapsed = rate_runs
    slopes = {}
    for order, result in sweeps.items():
        slopes[order] = {
            "consensus": fit_rate(result.records, "consensus_quadratic").slope,
            "suboptimality": fit_rate(result.records, "suboptimality").slope,
        }
    for order in (2, 4):
        bound = -(2.0 * order / (order + 1.0)) + 0.4
        assert slopes[order]["consensus"] <= bound, (order, slopes[order])
    assert slopes[4]["suboptimality"] < slopes[1]["suboptimality"]
    assert elapsed < 120.0
    print(
        "  consensus slopes: s2=%.3f (<=%.3f) s4=%.3f (<=%.3f); "
        "suboptimality s4=%.3f < s1=%.3f"
        % (
            slopes[2]["consensus"],
            -4.0 / 3.0 + 0.4,
            slopes[4]["consensus"],
            -8.0 / 5.0 + 0.4,
            slopes[4]["suboptimality"],
            slopes[1]["suboptimality"],
        )
    )


@criterion(6, "baseline sanity")
def test_baseline_sanity(baseline_runs):
    named, elapsed = baseline_runs
    # accelerated dual descent beats plain dual descent at matched step
    assert named["nag"].dual_gaps[-1] < named["gd"].dual_gaps[-1]
    assert named["nag"].dual_gaps[999] < named["gd"].dual_gaps[999]
    # the fourth-order method beats DGD on the nonsmooth problem at an
    # equal 5000-round communication budget
    heavy_final = named["heavy"].records[-1]
    dgd_final = named["dgd"].records[-1]
    assert heavy_final.comm_rounds == dgd_final.comm_rounds == 5000
    assert heavy_final.suboptimality < dgd_final.suboptimality
    assert elapsed < 120.0


@criterion(7, "dual gradient and smoothness")
def test_dual_gradient_and_smoothness():
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 9))
        p = int(rng.integers(2, 4))
        kind = ("star", "cycle", "erdos_renyi")[checked % 3]
        graph = dualrk.build_graph(
            dualrk.Topology(kind, n, edge_probability=0.6, rng_seed=checked)
        )
        if checked % 2 == 0:
            objs = dualrk.random_regression_instance(n, p, p + 3, seed=checked)
        else:
            objs = dualrk.random_kl_instance(n, p, seed=checked)
        root = sqrt_laplacian(graph)

        def dual_gradient(y):
            return sqrt_apply(root, stacked_conjugate(objs, sqrt_apply(root, y, p)), p)

        y = rng.normal(scale=0.5, size=n * p)
        grad = dual_gradient(y)
        step = 1e-5
        for j in range(y.size):
            unit = np.zeros_like(y)
            unit[j] = step
            fd = (
                dual_value_transformed(objs, sqrt_apply(root, y + unit, p))
                - dual_value_transformed(objs, sqrt_apply(root, y - unit, p))
            ) / (2.0 * step)
            assert abs(fd - grad[j]) <= 1e-5
        smoothness = graph.lambda_max / min(o.strong_convexity for o in objs)
        for _ in range(10):
            other = y + rng.normal(scale=0.4, size=y.size)
            ratio = np.linalg.norm(grad - dual_gradient(other)) / np.linalg.norm(y - other)
            assert ratio <= smoothness * (1.0 + 1e-6)
        checked += 1


@criterion(8, "reproduction bundle")
def test_reproduction_bundle(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    paths_a = reproduce("fig1", scale="desk", out_dir=first, seed=0)
    paths_b = reproduce("fig1", scale="desk", out_dir=second, seed=0)
    traces_a = sorted(path for path in paths_a if path.suffix == ".csv")
    assert len(traces_a) == 12
    for path in traces_a:
        records = read_metrics_csv(path)
        assert len(records) > 0
        assert records[0].iteration == 1
        assert all(r.consensus_quadratic >= 0.0 for r in records)
    for path_a, path_b in zip(sorted(paths_a), sorted(paths_b)):
        assert path_a.name == path_b.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
