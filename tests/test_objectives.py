"""Conjugate oracles, KKT residuals, and dual-function checks."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dualrk
from dualrk.errors import DimensionMismatch, SingularSystem
from dualrk.graph import Topology, build_graph
from dualrk.harness import reference_optimum
from dualrk.objectives import (
    KLLocal,
    QuadraticLocal,
    _rel_entr,
    load_kl_csv,
    load_regression_csv,
    project_to_simplex,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
    stacked_family,
    stacked_value,
)
from dualrk.oracles import dual_value_transformed, sqrt_apply, sqrt_laplacian


def _inner_minimization_oracle(obj, z, iterations=300_000):
    """Brute-force solve of min_x { f(x) - <z, x> } by plain gradient descent."""
    x = np.zeros(obj.dim)
    step = 0.9 / obj.gradient_lipschitz
    for _ in range(iterations):
        grad = obj.gradient(x) - z
        x_new = x - step * grad
        if np.linalg.norm(x_new - x) < 1e-15:
            return x_new
        x = x_new
    return x


def test_identity_quadratic_conjugate_is_identity():
    obj = QuadraticLocal(np.eye(3), np.zeros(3))
    z = np.array([0.4, -1.2, 2.0])
    assert np.allclose(obj.conjugate_argmax(z), z, atol=1e-14)


def test_shifted_quadratic_conjugate_at_zero():
    obj = QuadraticLocal(np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(obj.conjugate_argmax(np.zeros(2)), [1.0, 2.0], atol=1e-14)


def test_quadratic_conjugate_matches_numeric_minimization():
    rng = np.random.default_rng(3)
    obj = QuadraticLocal(rng.uniform(size=(3, 2)), rng.uniform(size=3), scale=1.0 / 6.0)
    z = rng.normal(size=2)
    oracle = _inner_minimization_oracle(obj, z)
    assert np.linalg.norm(obj.conjugate_argmax(z) - oracle) <= 1e-8


def test_quadratic_singular_without_ridge():
    with pytest.raises(SingularSystem):
        QuadraticLocal(np.ones((1, 3)), np.ones(1))
    # the ridge fallback makes the same data admissible
    obj = QuadraticLocal(np.ones((1, 3)), np.ones(1), ridge=0.1)
    assert obj.strong_convexity >= 0.1 - 1e-12


def test_kl_conjugate_at_zero_returns_reference():
    obj = KLLocal(np.array([0.2, 0.5, 0.3]))
    assert np.allclose(obj.conjugate_argmax(np.zeros(3)), obj.reference, atol=1e-15)


def test_kl_conjugate_half_half_log2():
    obj = KLLocal(np.array([0.5, 0.5]))
    x = obj.conjugate_argmax(np.array([np.log(2.0), 0.0]))
    assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_kl_conjugate_grid_search_oracle():
    rng = np.random.default_rng(9)
    grid = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    candidates = np.stack([grid, 1.0 - grid], axis=1)
    for _ in range(5):
        obj = KLLocal.from_weights(rng.uniform(0.1, 1.0, size=2))
        z = rng.normal(scale=2.0, size=2)
        scores = candidates @ z - np.sum(
            candidates * np.log(candidates / obj.reference), axis=1
        )
        best = candidates[np.argmax(scores)]
        assert np.abs(obj.conjugate_argmax(z) - best).max() <= 1e-4


def test_kl_conjugate_shift_invariance():
    obj = KLLocal.from_weights(np.array([3.0, 1.0, 2.0]))
    for c in (-40.0, 0.0, 123.0):
        assert np.allclose(obj.conjugate_argmax(np.full(3, c)), obj.reference, atol=1e-14)


def test_kl_conjugate_on_simplex_interior():
    rng = np.random.default_rng(4)
    obj = KLLocal.from_weights(rng.uniform(0.1, 1.0, size=6))
    for _ in range(50):
        x = obj.conjugate_argmax(rng.normal(scale=8.0, size=6))
        assert abs(x.sum() - 1.0) <= 1e-12
        assert x.min() > 0.0


def test_kkt_residual_invariant_both_families():
    rng = np.random.default_rng(17)
    quads = random_regression_instance(3, 4, 6, seed=0)
    kls = random_kl_instance(3, 4, seed=0)
    for obj in quads + kls:
        for _ in range(100):
            z = rng.normal(scale=4.0, size=obj.dim)
            assert obj.kkt_residual(z) <= 1e-8 * (1.0 + np.linalg.norm(z))


def test_kl_reference_validation():
    with pytest.raises(ValueError):
        KLLocal(np.array([0.5, 0.6]))  # does not sum to one
    with pytest.raises(ValueError):
        KLLocal(np.array([1.0, 0.0]))  # boundary entry
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            KLLocal(np.array([bad, 0.5]))


def test_stacked_conjugate_identity_case():
    objs = [QuadraticLocal(np.eye(2), np.zeros(2)) for _ in range(3)]
    z = np.arange(6.0)
    assert np.allclose(stacked_conjugate(objs, z), z, atol=1e-14)


def test_stacked_conjugate_kl_pairs():
    obj = KLLocal(np.array([0.25, 0.75]))
    out = stacked_conjugate([obj, obj], np.zeros(4))
    assert np.allclose(out, [0.25, 0.75, 0.25, 0.75], atol=1e-15)


def test_stacked_conjugate_matches_per_block_calls():
    quads = random_regression_instance(2, 3, 5, seed=5)
    kls = random_kl_instance(2, 3, seed=5)
    z = np.random.default_rng(2).normal(size=12)
    for objs in (quads, kls):
        stacked = stacked_conjugate(objs, z[: 3 * len(objs)])
        for i, obj in enumerate(objs):
            want = obj.conjugate_argmax(z[3 * i : 3 * i + 3])
            assert stacked[3 * i : 3 * i + 3].tobytes() == want.tobytes()


def _assert_stacked_matches_blocks(objs, x):
    p = objs[0].dim
    blocks = x.reshape(len(objs), p)
    want_value = sum(obj.value(b) for obj, b in zip(objs, blocks))
    want_grad = np.concatenate([obj.gradient(b) for obj, b in zip(objs, blocks)])
    assert abs(stacked_value(objs, x) - want_value) <= 1e-12 * abs(want_value)
    got_grad = stacked_family(objs).gradients(blocks).reshape(-1)
    assert np.linalg.norm(got_grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
    for i in range(len(objs)):
        block = slice(i * p, (i + 1) * p)
        assert np.linalg.norm(got_grad[block] - want_grad[block]) <= 1e-12 * np.linalg.norm(
            want_grad[block]
        )


def test_stacked_value_and_gradient_per_family():
    rng = np.random.default_rng(6)
    quads = random_regression_instance(3, 4, 6, seed=6, ridge=1e-3)
    kls = random_kl_instance(3, 4, seed=6)
    _assert_stacked_matches_blocks(quads, rng.normal(size=12))
    # interior points of the simplex
    x = np.stack([obj.conjugate_argmax(z) for obj, z in zip(kls, rng.normal(size=(3, 4)))])
    _assert_stacked_matches_blocks(kls, x.reshape(-1))


def test_stacked_kernels_reject_mixed_families():
    quads = random_regression_instance(2, 3, 5, seed=5)
    kls = random_kl_instance(2, 3, seed=5)
    x = np.full(12, 0.25)
    for objs in (quads + kls, [kls[0], quads[0], kls[1], quads[1]]):
        for kernel in (stacked_conjugate, stacked_value):
            with pytest.raises(TypeError, match="one family"):
                kernel(objs, x)


def test_stacked_value_and_gradient_unequal_row_counts():
    rng = np.random.default_rng(8)
    objs = [
        QuadraticLocal(rng.uniform(size=(rows, 5)), rng.uniform(size=rows), scale=0.1, ridge=0.01)
        for rows in (2, 5, 11, 1)
    ]
    _assert_stacked_matches_blocks(objs, rng.normal(scale=2.0, size=20))


def test_stacked_quadratic_conjugate_kkt_at_paper_shape():
    objs = random_regression_instance(100, 100, 100, seed=3, ridge=1e-3)
    z = np.random.default_rng(3).normal(scale=5.0, size=100 * 100)
    x = stacked_conjugate(objs, z)
    for i, obj in enumerate(objs):
        block = slice(100 * i, 100 * (i + 1))
        residual = obj.kkt_residual(z[block], x[block])
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(z[block]))


def test_stacked_kernels_are_safe_under_concurrent_calls():
    # Several objective lists used from more threads than cores with a short
    # switch interval: no call may see another call's stacked parameters.
    lists = [random_kl_instance(5, 3, seed=s) for s in range(3)]
    lists += [random_regression_instance(5, 3, 4, seed=s, ridge=1e-3) for s in range(3)]
    z = np.random.default_rng(4).normal(size=15)
    want = [
        np.concatenate([obj.conjugate_argmax(z[3 * i : 3 * i + 3]) for i, obj in enumerate(objs)])
        for objs in lists
    ]
    errors = []

    def worker(offset):
        for step in range(300):
            index = (offset + step) % len(lists)
            if stacked_conjugate(lists[index], z).tobytes() != want[index].tobytes():
                errors.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_stacked_conjugate_dimension_check():
    objs = random_kl_instance(2, 3, seed=1)
    with pytest.raises(DimensionMismatch):
        stacked_conjugate(objs, np.zeros(5))


def test_dual_value_at_zero_is_minus_min_f():
    graph = build_graph(Topology("cycle", 4))
    objs = random_kl_instance(4, 3, seed=2)
    x_free = stacked_conjugate(objs, np.zeros(12))
    y_hat = sqrt_apply(sqrt_laplacian(graph), np.zeros(12), 3)
    assert dual_value_transformed(objs, y_hat) == pytest.approx(
        -stacked_value(objs, x_free), abs=1e-12
    )


def test_dual_value_at_dual_optimum_is_minus_f_star():
    # With identical local quadratics the unconstrained minimum is already a
    # consensus point, so y* = 0 and phi(y*) = -F(x*).
    objs = [QuadraticLocal(np.eye(2), np.array([0.3, -0.8])) for _ in range(4)]
    graph = build_graph(Topology("star", 4))
    ref = reference_optimum(objs)
    y_hat = sqrt_apply(sqrt_laplacian(graph), np.zeros(8), 2)
    assert dual_value_transformed(objs, y_hat) == pytest.approx(-ref.f_star, abs=1e-12)


def test_dual_value_finite_difference_gradient():
    graph = build_graph(Topology("erdos_renyi", 5, edge_probability=0.7, rng_seed=3))
    objs = random_regression_instance(5, 2, 4, seed=7)
    root = sqrt_laplacian(graph)
    rng = np.random.default_rng(21)
    y = rng.normal(size=10)
    grad = sqrt_apply(root, stacked_conjugate(objs, sqrt_apply(root, y, 2)), 2)
    h = 1e-5
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = h
        fd = (
            dual_value_transformed(objs, sqrt_apply(root, y + e, 2))
            - dual_value_transformed(objs, sqrt_apply(root, y - e, 2))
        ) / (2 * h)
        assert abs(fd - grad[j]) <= 1e-5


def test_dual_gradient_lipschitz_bound():
    graph = build_graph(Topology("star", 6))
    objs = random_regression_instance(6, 3, 5, seed=9)
    mu = min(o.strong_convexity for o in objs)
    bound = graph.lambda_max / mu * (1.0 + 1e-6)
    root = sqrt_laplacian(graph)
    rng = np.random.default_rng(31)

    def grad(y):
        return sqrt_apply(root, stacked_conjugate(objs, sqrt_apply(root, y, 3)), 3)

    for _ in range(25):
        y1 = rng.normal(size=18)
        y2 = y1 + rng.normal(scale=0.5, size=18)
        assert np.linalg.norm(grad(y1) - grad(y2)) <= bound * np.linalg.norm(y1 - y2)


def test_reference_value_lower_bounds_consensus_samples():
    objs = random_regression_instance(5, 3, 6, seed=13)
    ref = reference_optimum(objs)
    rng = np.random.default_rng(8)
    for _ in range(50):
        shared = rng.normal(size=3)
        value = sum(obj.value(shared) for obj in objs)
        assert value >= ref.f_star - 1e-9


def test_project_to_simplex_properties():
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = rng.normal(scale=3.0, size=6)
        x = project_to_simplex(v)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) <= 1e-12
        # projection is the closest feasible point
        for _ in range(5):
            y = project_to_simplex(rng.normal(scale=3.0, size=6))
            assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-12


def test_instance_generators_deterministic():
    a = random_regression_instance(3, 2, 4, seed=42)
    b = random_regression_instance(3, 2, 4, seed=42)
    assert all(np.array_equal(x.design, y.design) for x, y in zip(a, b))
    assert a[0].scale == pytest.approx(1.0 / (3 * 4))
    ka = random_kl_instance(3, 4, seed=42)
    kb = random_kl_instance(3, 4, seed=42)
    assert all(np.array_equal(x.reference, y.reference) for x, y in zip(ka, kb))


def test_csv_ingestion_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    design = rng.uniform(size=(6, 2))
    targets = rng.uniform(size=6)
    np.savetxt(tmp_path / "h.csv", design, delimiter=",")
    np.savetxt(tmp_path / "b.csv", targets, delimiter=",")
    objs = load_regression_csv(tmp_path / "h.csv", tmp_path / "b.csv", n=3)
    assert len(objs) == 3 and objs[0].design.shape == (2, 2)
    assert objs[0].scale == pytest.approx(1.0 / 6.0)

    q = np.stack([rng.dirichlet(np.ones(4)) for _ in range(3)])
    np.savetxt(tmp_path / "q.csv", q, delimiter=",")
    kobs = load_kl_csv(tmp_path / "q.csv")
    assert len(kobs) == 3
    assert np.allclose(kobs[1].reference, q[1])


def test_runtime_imports_no_scipy():
    src = str(Path(dualrk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, dualrk, dualrk.cli\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""


def test_rel_entr_matches_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    q = rng.dirichlet(np.ones(10), size=200)
    x = rng.dirichlet(np.full(10, 0.5), size=200)
    want = special.rel_entr(x, q)
    # numpy's log and log1p may differ from the C library's by 1 ulp, and the
    # product with x rounds once more.
    assert np.all(np.abs(_rel_entr(x, q) - want) <= 2 * np.spacing(np.abs(want)))
    edges = np.array([0.0, -0.0, -0.25, np.nan, -np.inf, np.inf, 1e-300, 0.4, 0.1])
    q_edges = np.full(9, 0.2)
    np.testing.assert_array_equal(_rel_entr(edges, q_edges), special.rel_entr(edges, q_edges))


@pytest.mark.parametrize("n, p, rows", [(20, 10, 10), (100, 100, 100)])
def test_quadratic_inverse_matches_cholesky_oracle(n, p, rows):
    linalg = pytest.importorskip("scipy.linalg")
    for obj in random_regression_instance(n, p, rows, seed=9, ridge=1e-3):
        want = linalg.cho_solve(linalg.cho_factor(obj.hessian), np.eye(p))
        assert np.linalg.norm(obj._inverse - want) <= 1e-12 * np.linalg.norm(want)
