"""Batched metric traces: block evaluation and the shared run-loop recorder.

The oracles here are test-local copies of the per-iteration code the run
loops used before metric records were evaluated in blocks: one
``stacked_value``, one ``laplacian_apply`` and three BLAS dot products per
iterate, with the per-agent (``report_style = theorem1``) scaling that the
metric code applied then.  Every comparison is bitwise, because the CSV
bytes of a trace must not depend on how its records were batched or where
they were scaled.
"""

import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from dualrk import baselines, cli, harness, simulator
from dualrk.baselines import cgd_run, dgd_run, dual_nag_run
from dualrk.config import METHODS, ExperimentConfig, load_config, resolve_instance
from dualrk.dynamics import kernel_residual
from dualrk.errors import NonFiniteState
from dualrk.graph import Topology, build_graph, disjoint_union, laplacian_apply
from dualrk.harness import (
    CSV_COLUMNS,
    TRACE_BLOCK_BYTES,
    MetricsRecord,
    ReferenceOptimum,
    TraceRecorder,
    evaluate_metrics,
    evaluate_trace,
    read_metrics_csv,
    reference_optimum,
)
from dualrk.integrator import tableau, tableau_for_order
from dualrk.objectives import (
    floored_projection,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
    stacked_family,
    stacked_value,
)
from dualrk.oracles import dual_value_transformed, run_heavy_ball_per_agent
from dualrk.simulator import run_heavy_ball, run_heavy_ball_orders, suggested_h0

FIELDS = (
    "iteration",
    "comm_rounds",
    "suboptimality",
    "consensus_L_norm",
    "consensus_quadratic",
    "dist_to_optimum_sq",
    "suboptimality_signed",
)

# 16 agents with 16-dimensional blocks: 2 KiB per iterate, so a block of
# TRACE_BLOCK_BYTES holds K = 16 iterates.
N_AGENTS, DIM = 16, 16
K = TRACE_BLOCK_BYTES // (8 * N_AGENTS * DIM)


def _old_metrics(x_stack, reference, graph, objectives, iteration, comm_rounds, normalized=False):
    """The per-iterate metric record as it was computed before batching."""
    n = len(objectives)
    signed = stacked_value(objectives, x_stack) - reference.f_star
    if graph is None:
        norm = quad = 0.0
    else:
        lap_x = laplacian_apply(graph, x_stack, objectives[0].dim)
        norm = float(np.linalg.norm(lap_x))
        quad = max(float(x_stack @ lap_x), 0.0)
    diff = (x_stack.reshape(n, -1) - reference.x_star).reshape(-1)
    dist_sq = float(diff @ diff)
    if normalized:
        signed /= n
        dist_sq /= n
    return MetricsRecord(iteration, comm_rounds, abs(signed), norm, quad, dist_sq, 0.0, signed)


def _block_records(columns, stamps):
    """An evaluate_trace block's records: its four metric columns with each row's ``(k, rounds, ms)`` stamp."""
    rows = zip(*(column.tolist() for column in columns))
    return [MetricsRecord(k, r, abs(s), c, q, d, ms, s) for (k, r, ms), (s, c, q, d) in zip(stamps, rows, strict=True)]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y) and repr(x) == repr(y), (a.iteration, name, x, y)


CASES = {
    "quadratic": (lambda: random_regression_instance(12, 5, 7, seed=1), "erdos_renyi"),
    "kl": (lambda: random_kl_instance(12, 5, seed=2), "cycle"),
    "no_graph": (lambda: random_regression_instance(12, 5, 7, seed=4), None),
    "star": (lambda: random_kl_instance(12, 5, seed=5), "star"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluate_trace_matches_per_row_metrics(case):
    make, kind = CASES[case]
    objs = make()
    graph = None if kind is None else build_graph(
        Topology(kind, 12, edge_probability=0.4, rng_seed=7)
    )
    rng = np.random.default_rng(11)
    # Any point serves as the reference here.
    reference = ReferenceOptimum(x_star=rng.uniform(0.1, 0.3, size=5), f_star=0.37)
    block = rng.uniform(0.01, 1.0, size=(9, 60)) * 10.0 ** rng.uniform(-3, 3, size=(9, 60))
    block[4] = np.tile(reference.x_star, 12)  # a consensus row at the reference point
    stamps = [(k, 3 * k, 0.5) for k in range(1, 10)]
    records = _block_records(evaluate_trace(block, reference, graph, objs), stamps)
    want = [
        _old_metrics(x, reference, graph, objs, k + 1, 3 * (k + 1))
        for k, x in enumerate(block)
    ]
    _assert_bitwise(records, want)
    _assert_bitwise(
        records,
        [
            evaluate_metrics(x, reference, graph, objs, k + 1, 3 * (k + 1), 0.5)
            for k, x in enumerate(block)
        ],
    )
    assert [r.wall_time_ms for r in records] == [0.5] * 9
    # A record does not depend on the rows batched with it.
    _assert_bitwise(
        _block_records(evaluate_trace(block[3:5], reference, graph, objs), stamps[3:5]),
        want[3:5],
    )


def test_batched_laplacian_sums_neighbors_in_sorted_order():
    # Star hub: 39 neighbor slots, with entries spread over twelve orders of
    # magnitude so that any other summation order changes the last bits.
    graph = build_graph(Topology("star", 40))
    objs = random_regression_instance(40, 3, 4, seed=8)
    reference = reference_optimum(objs)
    rng = np.random.default_rng(8)
    block = rng.normal(size=(5, 120)) * 10.0 ** rng.uniform(-6, 6, size=(5, 120))
    records = _block_records(evaluate_trace(block, reference, graph, objs), [(k, k, 0.0) for k in range(5)])
    for x, record in zip(block, records):
        blocks = x.reshape(40, 3)
        want = np.empty_like(blocks)
        for i, nb in enumerate(graph.neighbor_lists):
            acc = blocks[nb[0]].copy()
            for j in nb[1:]:
                acc = acc + blocks[j]
            want[i] = len(nb) * blocks[i] - acc
        want = want.reshape(-1)
        assert repr(record.consensus_L_norm) == repr(float(np.linalg.norm(want)))
        assert repr(record.consensus_quadratic) == repr(max(float(x @ want), 0.0))
    batched = laplacian_apply(graph, block, 3)
    assert batched.tobytes() == np.stack([laplacian_apply(graph, x, 3) for x in block]).tobytes()


def test_stacked_kernels_over_a_batch_axis_are_bitwise_per_row():
    rng = np.random.default_rng(9)
    for objs in (
        random_regression_instance(7, 4, 6, seed=9),
        random_kl_instance(7, 4, seed=9),
    ):
        block = rng.uniform(0.05, 1.0, size=(6, 28))
        values = stacked_value(objs, block)
        assert values.shape == (6,)
        assert [repr(v) for v in values.tolist()] == [repr(stacked_value(objs, x)) for x in block]
        rows = np.stack([stacked_conjugate(objs, x) for x in block])
        assert stacked_conjugate(objs, block).tobytes() == rows.tobytes()


def test_recorder_block_size_is_bounded_by_bytes():
    objs = random_kl_instance(N_AGENTS, DIM, seed=0)
    reference, x = reference_optimum(objs), np.empty((N_AGENTS, DIM))
    assert TraceRecorder(reference, None, objs, x, iterations=1).capacity == K == 16
    assert TraceRecorder(reference, None, objs, x, iterations=1, on_record=print).capacity == 1
    wide = random_kl_instance(64, 64, seed=0)  # 32 KiB per iterate, as at the paper shape
    assert TraceRecorder(reference_optimum(wide), None, wide, np.empty((64, 64)), iterations=1).capacity == 1


def test_recorder_computes_a_missing_reference():
    for objs in (random_kl_instance(N_AGENTS, DIM, seed=2), random_regression_instance(8, 3, 4, seed=2)):
        want = reference_optimum(objs)
        got = TraceRecorder(None, None, objs, np.empty((len(objs), objs[0].dim)), iterations=0).parts[0].reference
        assert got.x_star.tobytes() == want.x_star.tobytes()
        assert repr(got.f_star) == repr(want.f_star)


def test_recorder_flushes_full_blocks_and_the_tail():
    objs = random_kl_instance(N_AGENTS, DIM, seed=1)
    bound = np.empty((N_AGENTS, DIM))
    recorder = TraceRecorder(reference_optimum(objs), None, objs, bound, iterations=K + 3)
    (trace,) = recorder.parts
    iterates = np.random.default_rng(1).uniform(0.2, 0.8, size=(K + 3, N_AGENTS, DIM))
    iterates[K // 2, 0, 5] = 0.01  # the smallest entry sits inside the first block
    for k, x in enumerate(iterates, start=1):
        bound[:] = x
        recorder.push(k, 2 * k)
        assert len(trace.records) == (k // K) * K
    assert trace.min_entry == 0.01
    recorder.flush()
    records = trace.records
    assert [r.iteration for r in records] == list(range(1, K + 4))
    assert [r.comm_rounds for r in records] == list(range(2, 2 * K + 7, 2))
    recorder.flush()
    assert trace.records is records and len(records) == K + 3


def test_a_push_copies_the_bound_buffers():
    # A run rewrites its bound buffers after each push; the pushed record keeps the values pushed.
    objs = random_regression_instance(N_AGENTS, DIM, DIM, seed=3, ridge=1e-3)
    graph, reference = build_graph(Topology("cycle", N_AGENTS)), reference_optimum(objs)
    x, duals = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, N_AGENTS, DIM))
    lap = laplacian_apply(graph, x.reshape(-1), DIM).reshape(N_AGENTS, DIM)
    hx = stacked_family(objs).hessian_product(x)
    want = _old_metrics(x.reshape(-1).copy(), reference, graph, objs, 1, 1)
    (residual,) = kernel_residual(duals[None], DIM).tolist()
    recorder = TraceRecorder(reference, graph, objs, x, duals, lap, hx, iterations=1, kernel=kernel_residual)
    recorder.push(1, 1)
    for buffer in (x, duals, lap, hx):
        buffer[:] = np.nan
    result = recorder.result(x, [0.1])
    _assert_bitwise(result.records, [want])
    assert repr(result.max_kernel_residual) == repr(residual)


def test_recorder_times_iterations_without_flushes_and_callbacks():
    objs = random_kl_instance(4, 3, seed=0)
    x = np.tile(stacked_family(objs).initial_point(), (4, 1))
    recorder = TraceRecorder(reference_optimum(objs), None, objs, x, iterations=3, on_record=lambda _: time.sleep(0.2))
    for k in range(1, 4):
        time.sleep(0.01)  # the iteration's own work
        recorder.push(k, k)
    # Every push flushes and runs the 0.2 s callback; no record's time holds it.
    assert all(10.0 <= r.wall_time_ms < 200.0 for r in recorder.parts[0].records)


def test_a_run_result_keeps_at_most_128_bytes_a_record():
    # A record object per row kept about 320 bytes.  The trace's seven 8-byte columns take 56 a
    # record; the bound leaves room for twice that.
    graph, objs = build_graph(Topology("cycle", 6)), random_regression_instance(6, 3, 3, seed=0, ridge=1e-3)
    reference, iterations = reference_optimum(objs), 2000
    dgd_run(graph, objs, 0.01, 0.1, 10, reference=reference)  # lazy imports and caches, before counting
    tracemalloc.start()
    try:
        result = dgd_run(graph, objs, 0.01, 0.1, iterations, reference=reference)
        assert len(result.records) == iterations
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 56 * iterations <= retained <= 128 * iterations


def _retained_by(run):
    """Rows and tracemalloc bytes that the traces ``run()`` returns keep, and how many traces those are.

    ``run`` returns a result, a list of results or a list of traces; a first call, not counted,
    takes the lazy imports and caches.
    """
    def traces(kept):
        for item in kept if isinstance(kept, list) else [kept]:
            yield item if isinstance(item, harness.MetricsTrace) else item.records

    run()
    tracemalloc.start()
    try:
        kept = run()
        rows, count = sum(len(trace) for trace in traces(kept)), len(list(traces(kept)))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del kept
        gc.collect()
        return rows, held - tracemalloc.get_traced_memory()[0], count
    finally:
        tracemalloc.stop()


def test_a_run_result_keeps_56_bytes_a_record(monkeypatch):
    # Each runner sizes its trace's seven 8-byte columns at its own iteration count, so a result
    # keeps 56 bytes a record and, per trace, no more than 4 KiB besides (its end state, the
    # result, trace and array objects), with no spare capacity from growth.
    graph, objs = build_graph(Topology("cycle", 6)), random_regression_instance(6, 3, 3, seed=0, ridge=1e-3)
    reference, tab, N = reference_optimum(objs), tableau("rk4"), 2000
    h0, mu = suggested_h0(graph, objs, tab, N), min(obj.strong_convexity for obj in objs)
    union, union_objs = _three_part_union(dim=3)
    tabs = tuple(tableau_for_order(order) for order in (1, 2, 4))
    counts = [N // t.stages for t in tabs]
    union_h0 = [suggested_h0(part, union_objs[nodes], t, n) for (nodes, part), t, n in zip(union.part_rows, tabs, counts)]
    evaluate, overflowed = harness.evaluate_trace, []

    def overflowing(x_block, reference, graph, *args):
        signed, *rest = evaluate(x_block, reference, graph, *args)
        if graph is union.parts[1] and not overflowed and len(signed) > 2:
            overflowed.append(True)
            signed[2] = np.inf  # the cycle part's third record: its h0 is halved and the orders rerun
        return signed, *rest

    def swept():
        overflowed.clear()
        with monkeypatch.context() as patched:
            patched.setattr(harness, "evaluate_trace", overflowing)
            traces = cli._run_method(ExperimentConfig(method="heavy_ball_rk"), union, union_objs, tabs, None, N, None, 2)
        assert overflowed
        return traces

    runs = {
        "cgd": lambda: cgd_run(objs, 0.01, N, reference=reference),
        "dgd": lambda: dgd_run(graph, objs, 0.01, 0.1, N, reference=reference),
        "dual_nag": lambda: dual_nag_run(graph, objs, mu / graph.lambda_max, N, reference=reference),
        "heavy ball": lambda: run_heavy_ball(graph, objs, tab, N, h0, reference=reference),
        "lockstep orders": lambda: run_heavy_ball_orders(union, union_objs, tabs, counts, union_h0),
        "zero iterations": lambda: [dgd_run(graph, objs, 0.01, 0.1, 0), run_heavy_ball(graph, objs, tab, 0, h0)],
        "h0 sweep rerun": swept,
    }
    for name, run in runs.items():
        rows, retained, traces = _retained_by(run)
        assert rows == {"lockstep orders": sum(counts), "zero iterations": 0, "h0 sweep rerun": sum(counts)}.get(name, N)
        assert 56 * rows <= retained <= 56 * rows + 4096 * traces, (name, rows, retained)


def test_a_non_finite_metric_raises_at_its_record_naming_its_parts():
    # Finite iterates whose metrics overflow: the flush, under its own errstate (a numpy warning
    # fails this suite), raises at the first such record with its iteration and union parts.
    union, objs = _three_part_union("quadratic")
    _, second, third = (nodes for nodes, _ in union.part_rows)
    x = np.zeros((union.node_count, DIM))
    recorder = TraceRecorder(None, union, objs, x, iterations=5)
    for k in range(1, 6):
        x[second] = 1e200 if k >= 3 else 0.5  # from iteration 3 the second part's squares overflow
        x[third] = 1e200 if k >= 4 else 0.5
        recorder.push(k, 2 * k)
    with pytest.raises(NonFiniteState, match=r"^non-finite metric at iteration 3 in union parts \[1\]$") as err:
        recorder.result(x, [0.1] * 3)
    assert (err.value.iteration, err.value.parts) == (3, (1,))
    # A recorder for one part of a larger union names it by its index there.
    recorder = TraceRecorder(None, union.parts[2], objs[third], x[third], iterations=1, first_part=2)
    recorder.push(1, 1)
    with pytest.raises(NonFiniteState, match=r"^non-finite metric at iteration 1$") as err:
        recorder.flush()
    assert (err.value.iteration, err.value.parts) == (1, (2,))


def test_a_non_finite_metric_record_halves_only_its_order(monkeypatch):
    # The records of the cycle part (s = 2) overflow in the first run, its state does not: that
    # order's recorder raises at the record's iteration, naming its union part, and the h0 sweep
    # halves that part's h0 alone.
    union, objs = _three_part_union()
    target, evaluate, runs, errors = union.parts[1], harness.evaluate_trace, [], []

    def overflowing(x_block, reference, graph, *args):
        signed, *rest = evaluate(x_block, reference, graph, *args)
        if graph is target and len(runs) == 1 and len(signed) > 2:
            signed[2] = np.inf  # the part's third record
        return signed, *rest

    def recorded(graph, objectives, tabs, counts, h0, **kwargs):
        runs.append(list(h0))
        try:
            return run_heavy_ball_orders(graph, objectives, tabs, counts, h0, **kwargs)
        except NonFiniteState as err:
            errors.append(err)
            raise

    monkeypatch.setattr(harness, "evaluate_trace", overflowing)
    monkeypatch.setattr(cli, "run_heavy_ball_orders", recorded)
    tabs = tuple(tableau_for_order(order) for order in (1, 2, 4))
    traces = cli._run_method(ExperimentConfig(method="heavy_ball_rk"), union, objs, tabs, None, 4 * K, None, 8)
    a, b, c = runs[0]
    assert runs == [[a, b, c], [a, b / 2, c]]
    assert [(err.iteration, err.parts) for err in errors] == [(3, (1,))]
    assert [len(trace) for trace in traces] == [4 * K, 2 * K, K]


def _heavy_ball_old(graph, objs, tab, num_iterations, h0, normalized):
    trajectory = run_heavy_ball_per_agent(graph, objs, tab, num_iterations, h0=h0)
    total = len(objs) * objs[0].dim
    reference = reference_optimum(objs)
    return [
        _old_metrics(
            stacked_conjugate(objs, state[total : 2 * total]),
            reference, graph, objs, k, k * tab.stages, normalized,
        )
        for k, state in enumerate(trajectory[1:], start=1)
    ]


def _records(iterates, graph, objs, normalized=False):
    """The old per-iterate records of a run's primal iterates, one communication round each."""
    reference = reference_optimum(objs)
    return [_old_metrics(x, reference, graph, objs, k, k, normalized) for k, x in enumerate(iterates, start=1)]


def _cgd_old_iterates(objs, step, num_iterations):
    n = len(objs)
    simplex = objs[0].domain == "simplex"
    family = stacked_family(objs)
    x = family.initial_point()
    for k in range(1, num_iterations + 1):
        grad = family.gradients(np.tile(x, (n, 1))).sum(axis=0)
        x = floored_projection(x - step * grad, simplex)
        yield np.tile(x, n)


def _dgd_old_iterates(graph, objs, step, mixing, num_iterations, decaying_step=True):
    """``step`` and ``mixing`` are scalars or ``(n, 1)`` columns, as ``graph.node_values`` gives them."""
    n, p = len(objs), objs[0].dim
    simplex = objs[0].domain == "simplex"
    family = stacked_family(objs)
    blocks = np.tile(family.initial_point(), (n, 1))
    for k in range(1, num_iterations + 1):
        stack = blocks.reshape(-1)
        mixed = blocks - mixing * laplacian_apply(graph, stack, p).reshape(n, p)
        grads = family.gradients(blocks)
        step_k = step / np.sqrt(k) if decaying_step else step
        blocks = floored_projection(mixed - step_k * grads, simplex)
        yield blocks.reshape(-1)


def _dual_old_y_hats(graph, objs, step, num_iterations):
    """Dual Nesterov's iterates ``y_hat``; ``step`` is a scalar or an ``(n, 1)`` column."""
    n, p = len(objs), objs[0].dim
    y_prev = z_hat = np.zeros(n * p)
    for k in range(1, num_iterations + 1):
        lap = laplacian_apply(graph, stacked_conjugate(objs, z_hat), p).reshape(n, p)
        y_hat = z_hat - (step * lap).reshape(-1)
        z_hat = y_hat + ((k - 1.0) / (k + 2.0)) * (y_hat - y_prev)
        y_prev = y_hat
        yield y_hat


def _cgd_old(objs, step, num_iterations, normalized):
    return _records(_cgd_old_iterates(objs, step, num_iterations), None, objs, normalized)


def _dgd_old(graph, objs, step, mixing, num_iterations, normalized):
    return _records(_dgd_old_iterates(graph, objs, step, mixing, num_iterations), graph, objs, normalized)


def _dual_nag_old(graph, objs, step, num_iterations, normalized):
    y_hats = _dual_old_y_hats(graph, objs, step, num_iterations)
    return _records((stacked_conjugate(objs, y) for y in y_hats), graph, objs, normalized)


@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_every_runner_takes_a_stacked_family(family):
    graph = build_graph(Topology("cycle", 6))
    objs = random_regression_instance(6, 3, 4, seed=6) if family == "quadratic" else random_kl_instance(6, 3, seed=6)
    stacked = stacked_family(objs)
    # The family stands in for its list: it iterates and counts its members, and so does a row slice.
    assert list(stacked) == objs and len(stacked) == 6
    assert len(stacked[2:5]) == 3 and list(stacked[2:5]) == objs[2:5]
    tab = tableau("rk4")
    h0 = suggested_h0(graph, objs, tab, 5)
    assert suggested_h0(graph, stacked, tab, 5) == h0
    for method in METHODS:  # the same constants, read in the same order: every default step is bitwise
        cfg = ExperimentConfig(method=method)
        assert cli._method_step(cfg, graph, stacked, tab, 5) == cli._method_step(cfg, graph, objs, tab, 5)
    runs = [
        lambda o: run_heavy_ball(graph, o, tab, 5, h0=h0),
        lambda o: cgd_run(o, 0.05, 5),
        lambda o: dgd_run(graph, o, 0.05, 0.2, 5),
        lambda o: dual_nag_run(graph, o, 0.1, 5),
    ]
    for run in runs:
        want, got = run(objs), run(stacked)
        _assert_bitwise(got.records, want.records)
        assert got.final_state.tobytes() == want.final_state.tobytes()


@pytest.mark.parametrize("num_iterations", [1, K - 1, K, K + 1])
@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_run_loops_match_the_per_iteration_loop(family, num_iterations):
    graph = build_graph(Topology("erdos_renyi", N_AGENTS, edge_probability=0.3, rng_seed=3))
    if family == "quadratic":
        objs = random_regression_instance(N_AGENTS, DIM, DIM + 2, seed=3, ridge=1e-3)
    else:
        objs = random_kl_instance(N_AGENTS, DIM, seed=3)
    tab = tableau("rk4")
    h0 = suggested_h0(graph, objs, tab, num_iterations)
    step = 0.5 / graph.lambda_max
    heavy_ball_want = _heavy_ball_old(graph, objs, tab, num_iterations, h0, False)
    runs = [
        (run_heavy_ball(graph, objs, tab, num_iterations, h0=h0), heavy_ball_want),
        (cgd_run(objs, 0.1, num_iterations), _cgd_old(objs, 0.1, num_iterations, False)),
        (dgd_run(graph, objs, 0.1, step, num_iterations), _dgd_old(graph, objs, 0.1, step, num_iterations, False)),
        (dual_nag_run(graph, objs, step, num_iterations), _dual_nag_old(graph, objs, step, num_iterations, False)),
    ]
    for result, want in runs:
        _assert_bitwise(result.records, want)
        assert all(r.wall_time_ms > 0.0 for r in result.records)


def test_lockstep_orders_match_the_per_iteration_loop():
    # Each order's records read its own rows of the shared round-end L x: each part's old loop alone.
    union, objs = _three_part_union()
    tabs = [tableau_for_order(order) for order in (1, 2, 4)]
    iterations = [4 * (K + 1) // tab.stages for tab in tabs]
    cases = [(part, objs[nodes], tab, N) for (nodes, part), tab, N in zip(union.part_rows, tabs, iterations)]
    h0s = [suggested_h0(*case) for case in cases]
    results = run_heavy_ball_orders(union, objs, tabs, iterations, h0s)
    for result, case, h0 in zip(results, cases, h0s, strict=True):
        _assert_bitwise(result.records, _heavy_ball_old(*case, h0, False))


def _baseline_case(case):
    """A graph, its objectives, and dgd steps, dgd mixings and dual steps (one per part on a union)."""
    if case == "union":  # three unequal parts, each at its own step and mixing
        graph, objs = _three_part_union()
    elif case == "quadratic_union":  # dgd hands each part's records row slices of its union's L x and H x
        graph, objs = _three_part_union("quadratic", 100)
    elif case == "wide":  # p = 100: the quadratic kernels' matmuls, out= included, run through BLAS
        graph = build_graph(Topology("cycle", 4))
        objs = random_regression_instance(4, 100, 100, seed=5, ridge=1e-3)
    else:
        graph = build_graph(Topology("erdos_renyi", N_AGENTS, edge_probability=0.3, rng_seed=3))
        if case == "quadratic":
            objs = random_regression_instance(N_AGENTS, DIM, DIM + 2, seed=3, ridge=1e-3)
        else:
            objs = random_kl_instance(N_AGENTS, DIM, seed=3)
    mu = min(obj.strong_convexity for obj in objs)
    lams = [part.lambda_max for _, part in graph.part_rows]
    return (
        graph,
        objs,
        [0.05 * (1 + i) for i in range(len(lams))],
        [(0.5 + 0.2 * i) / lam for i, lam in enumerate(lams)],
        [(0.5 + 0.1 * i) * mu / lam for i, lam in enumerate(lams)],
    )


def _part_records(iterates, graph, objs):
    """The old records of each part of ``graph`` over its own columns, graph and objectives."""
    iterates, p = list(iterates), objs[0].dim
    return [
        _records([x[nodes.start * p : nodes.stop * p] for x in iterates], part, objs[nodes])
        for nodes, part in graph.part_rows
    ]


@pytest.mark.parametrize("case", ["quadratic", "kl", "union", "wide", "quadratic_union"])
def test_baselines_match_the_old_loop_per_part(case):
    graph, objs, dgd_steps, mixings, dual_steps = _baseline_case(case)
    n, p = len(objs), objs[0].dim
    num_iterations = K + 1
    step, mixing = graph.node_values(dgd_steps), graph.node_values(mixings)
    runs = []
    for decaying_step in (True, False):
        result = dgd_run(graph, objs, dgd_steps, mixings, num_iterations, decaying_step=decaying_step)
        iterates = list(_dgd_old_iterates(graph, objs, step, mixing, num_iterations, decaying_step))
        runs.append((result, _part_records(iterates, graph, objs), iterates[-1], None))
    result = dual_nag_run(graph, objs, dual_steps, num_iterations, record_dual_gap=True)
    y_hats = list(_dual_old_y_hats(graph, objs, graph.node_values(dual_steps), num_iterations))
    iterates = [stacked_conjugate(objs, y) for y in y_hats]
    gaps = [
        [dual_value_transformed(objs[nodes], y[nodes.start * p : nodes.stop * p]) + reference_optimum(objs[nodes]).f_star
         for y in y_hats]
        for nodes, _ in graph.part_rows
    ]
    runs.append((result, _part_records(iterates, graph, objs), iterates[-1], gaps))
    if not graph.parts:  # cgd never reads a graph
        iterates = list(_cgd_old_iterates(objs, dgd_steps[0], num_iterations))
        want = [_records(iterates, None, objs)]
        runs.append((cgd_run(objs, dgd_steps[0], num_iterations), want, iterates[-1], None))
    for result, records, last, gaps in runs:
        parts = result.parts or [result]
        for part, want in zip(parts, records, strict=True):
            _assert_bitwise(part.records, want)
        for part, want in zip(parts, gaps or [None] * len(parts)):
            assert part.dual_gaps == want  # floats compared exactly
        assert result.final_state.shape == (n, p)
        assert result.final_state.tobytes() == last.tobytes()


@pytest.mark.parametrize("num_iterations", [1, K, K + 1, 2 * K + 3])
def test_dgd_and_cgd_form_each_product_once_per_iterate(monkeypatch, num_iterations):
    union, objs = _three_part_union("quadratic")
    family = stacked_family(objs)
    references = [reference_optimum(family[nodes]) for nodes, _ in union.part_rows]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # The names the runners and the metric pass read.
    monkeypatch.setattr(baselines, "laplacian_rows", counted("laplacian_rows", baselines.laplacian_rows))
    monkeypatch.setattr(harness, "laplacian_apply", counted("laplacian_apply", harness.laplacian_apply))
    monkeypatch.setattr(type(family), "hessian_product", counted("hessian_product", type(family).hessian_product))
    steps, mixings = [0.05] * 3, [0.5 / part.lambda_max for part in union.parts]
    dgd_run(union, family, steps, mixings, num_iterations, reference=references)
    # One of each per iterate, x_0 included; the flushes form neither.
    assert sorted(calls) == ["hessian_product"] * (num_iterations + 1) + ["laplacian_rows"] * (num_iterations + 1)
    calls.clear()
    cgd_run(family[: N_AGENTS], 0.05, num_iterations, reference=references[0])
    assert calls == ["hessian_product"] * (num_iterations + 1)
    calls.clear()
    kl_union, kl_objs = _three_part_union()
    kl_references = [reference_optimum(kl_objs[nodes]) for nodes, _ in kl_union.part_rows]
    dgd_run(kl_union, kl_objs, steps, mixings, num_iterations, reference=kl_references)
    assert calls == ["laplacian_rows"] * (num_iterations + 1)
    calls.clear()
    # dual_nag's metric point is the conjugate at y_hat, which no round broadcasts: its flushes
    # take L x from scratch, one call per block and part.
    dual_nag_run(union, family, [0.01] * 3, num_iterations, reference=references)
    assert calls.count("laplacian_apply") == 3 * math.ceil(num_iterations / K)
    # Heavy ball's records read the L x its next round broadcasts, formed once more after the last
    # round: on one graph, on a union and in lockstep orders, its flushes form none.
    monkeypatch.setattr(simulator, "laplacian_rows", counted("laplacian_rows", simulator.laplacian_rows))
    tab = tableau("rk4")
    h0s = [suggested_h0(part, family[nodes], tab, num_iterations) for nodes, part in union.part_rows]
    for graph, objectives, h0, reference in (
        (union.parts[0], family[:N_AGENTS], h0s[0], references[0]), (union, family, h0s, references),
    ):
        calls.clear()
        run_heavy_ball(graph, objectives, tab, num_iterations, h0=h0, reference=reference)
        assert (calls.count("laplacian_rows"), calls.count("laplacian_apply")) == (tab.stages * num_iterations + 1, 0)
    calls.clear()
    tabs = tuple(tableau_for_order(order) for order in (1, 2, 4))
    run_heavy_ball_orders(union, family, tabs, [4 * num_iterations // tab.stages for tab in tabs], 1e-3, references)
    assert (calls.count("laplacian_rows"), calls.count("laplacian_apply")) == (4 * num_iterations + 1, 0)


@pytest.mark.parametrize("num_iterations", [1, K, K + 1, 2 * K + 3])
def test_every_runner_broadcasts_and_evaluates_its_closed_form_counts(monkeypatch, num_iterations):
    # One laplacian_rows per broadcast round (heavy ball: and the last round's end state's, which
    # its last records read), at the name each runner reads, and one evaluate_trace per part and
    # block of pushed iterates, ceil(N / capacity) per part.
    union, objs = _three_part_union()
    family, N = stacked_family(objs), num_iterations
    calls, recorders = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    init = harness.TraceRecorder.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorders.append(self)

    monkeypatch.setattr(simulator, "laplacian_rows", counted("simulator", simulator.laplacian_rows))
    monkeypatch.setattr(baselines, "laplacian_rows", counted("baselines", baselines.laplacian_rows))
    monkeypatch.setattr(harness, "evaluate_trace", counted("evaluate_trace", harness.evaluate_trace))
    monkeypatch.setattr(harness.TraceRecorder, "__init__", kept)

    def counts(iterations):
        """The calls made since the last check, and those each recorder's parts and ``iterations`` give."""
        want = sum(len(r.parts) * math.ceil(n / r.capacity) for r, n in zip(recorders, iterations, strict=True))
        got = {name: calls.count(name) for name in ("simulator", "baselines", "evaluate_trace")}
        calls.clear()
        recorders.clear()
        return got, want

    tab = tableau("rk4")
    run_heavy_ball(union, family, tab, N, h0=0.1)
    got, want = counts([N])
    assert got == {"simulator": tab.stages * N + 1, "baselines": 0, "evaluate_trace": want}
    assert want == 3 * math.ceil(N / K)
    tabs, orders = tuple(tableau_for_order(order) for order in (1, 2, 4)), [4 * N, 2 * N, N]
    run_heavy_ball_orders(union, family, tabs, orders, h0=1e-3)
    got, want = counts(orders)  # one cohort, and one recorder, per order
    assert got == {"simulator": 4 * N + 1, "baselines": 0, "evaluate_trace": want}
    dual_nag_run(union, family, 0.01, N)
    got, want = counts([N])
    assert got == {"simulator": 0, "baselines": N, "evaluate_trace": want} and want == 3 * math.ceil(N / K)
    dgd_run(union, family, 0.05, [0.5 / part.lambda_max for part in union.parts], N)
    got, want = counts([N])
    assert got == {"simulator": 0, "baselines": N + 1, "evaluate_trace": want} and want == 3 * math.ceil(N / K)
    cgd_run(family[:N_AGENTS], 0.05, N)
    got, want = counts([N])
    assert got == {"simulator": 0, "baselines": 0, "evaluate_trace": want} and want == math.ceil(N / K)


def _run_csv(tmp_path, name, **keys):
    """``dualrk run`` on a config of ``keys``; its config and CSV records."""
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = tmp_path / f"{name}.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return load_config(path), read_metrics_csv(out)


def _csv_fields(record):
    return [repr(getattr(record, name)) for name in CSV_COLUMNS]


@pytest.mark.parametrize("method", ["heavy_ball_rk", "cgd", "dgd", "dual_nag"])
@pytest.mark.parametrize("experiment", ["regression", "kl_barycenter"])
def test_theorem1_run_is_the_figure_run_over_n(tmp_path, capsys, experiment, method):
    keys = dict(
        experiment=experiment, method=method, graph="erdos_renyi", n=N_AGENTS, p=DIM, l=DIM + 2,
        edge_probability=0.3, ridge=1e-3, iterations=K + 1, seed=3,
    )
    cfg, figure = _run_csv(tmp_path, "figure", **keys)
    _, theorem1 = _run_csv(tmp_path, "theorem1", report_style="theorem1", **keys)
    n = N_AGENTS
    over_n = [
        MetricsRecord(r.iteration, r.comm_rounds, r.suboptimality / n, r.consensus_L_norm,
                      r.consensus_quadratic, r.dist_to_optimum_sq / n)
        for r in figure
    ]
    assert [_csv_fields(r) for r in theorem1] == [_csv_fields(r) for r in over_n]
    # The scaling the metric code applied before it moved to the CLI.
    graph, objs = resolve_instance(cfg)
    tab = cfg.resolve_tableau()
    step, mixing, _ = cli._method_step(cfg, graph, objs, tab, cfg.iterations)
    old = {
        "heavy_ball_rk": lambda: _heavy_ball_old(graph, objs, tab, cfg.iterations, step, True),
        "cgd": lambda: _cgd_old(objs, step, cfg.iterations, True),
        "dgd": lambda: _dgd_old(graph, objs, step, mixing, cfg.iterations, True),
        "dual_nag": lambda: _dual_nag_old(graph, objs, step, cfg.iterations, True),
    }[method]()
    assert [_csv_fields(r) for r in theorem1] == [_csv_fields(r) for r in old]
    cfg.report_style = "theorem1"
    (records,) = cli._run_method(cfg, graph, objs, tab, reference_optimum(objs))  # one record list per graph part
    _assert_bitwise(records, old)


def test_on_record_fires_before_the_next_iteration(monkeypatch):
    graph = build_graph(Topology("cycle", N_AGENTS))
    objs = random_kl_instance(N_AGENTS, DIM, seed=4)
    tab = tableau("rk4")
    h0 = suggested_h0(graph, objs, tab, K + 3)
    events = []
    round_field = simulator.round_field

    def logged_round(*args):
        events.append("round")
        return round_field(*args)

    monkeypatch.setattr(simulator, "round_field", logged_round)
    seen = []

    def sink(record):
        seen.append(record)
        events.append(record.iteration)

    result = run_heavy_ball(graph, objs, tab, K + 3, h0=h0, on_record=sink)
    assert events == [e for k in range(1, K + 4) for e in ["round"] * tab.stages + [k]]
    _assert_bitwise(seen, result.records)  # the callback's records are the trace's rows
    monkeypatch.setattr(simulator, "round_field", round_field)
    _assert_bitwise(result.records, run_heavy_ball(graph, objs, tab, K + 3, h0=h0).records)


def test_min_primal_entry_covers_every_iterate():
    graph = build_graph(Topology("star", N_AGENTS))
    objs = random_kl_instance(N_AGENTS, DIM, seed=6)
    tab = tableau("rk4")
    h0 = suggested_h0(graph, objs, tab, K + 5)
    result = run_heavy_ball(graph, objs, tab, K + 5, h0=h0, keep_trajectory=True)
    total = N_AGENTS * DIM
    want = min(float(stacked_conjugate(objs, s[total : 2 * total]).min()) for s in result.trajectory[1:])
    assert result.min_primal_entry == want


# Kernel-sum residuals are taken a recorder block at a time.  The oracles
# below walk the iterates one by one: the one-row kernel_residual and a
# test-local copy of the one-iterate residual the run loops computed before,
# on the stacked [v_hat, y_hat, t] (or y_hat) layout.
def _old_kernel_residual(stacked, n, p):
    total = n * p
    blocks = 1 if len(stacked) == total else 2
    sums = np.add.reduce(stacked[: blocks * total].reshape(blocks, n, p), axis=1)
    y_hat = stacked[(blocks - 1) * total : blocks * total]
    return float(np.abs(sums).max() / (1.0 + math.sqrt(y_hat.dot(y_hat))))


def _kernel_oracles(rows_per_iterate, p):
    """Max of the one-row residual and of the old formula over ``(n, w)`` agent rows."""
    one_row, old = 0.0, 0.0
    for rows in rows_per_iterate:
        (value,) = kernel_residual(rows[None], p).tolist()
        one_row = max(one_row, value)
        heavy_ball = rows.shape[1] > p  # [v_hat_i, y_hat_i] rows; a dual iterate's are y_hat_i
        stacked = np.concatenate([rows[:, :p].ravel(), rows[:, p:].ravel(), [1.0]]) if heavy_ball else rows.ravel()
        old = max(old, _old_kernel_residual(stacked, len(rows), p))
    return one_row, old


def _three_part_union(family="kl", dim=DIM):
    sizes = (N_AGENTS, 12, 9)  # the widest part sets K (16 at dim = DIM)
    graphs = [
        build_graph(Topology(kind, n, edge_probability=0.5, rng_seed=n))
        for kind, n in zip(("star", "cycle", "erdos_renyi"), sizes)
    ]
    if family == "kl":
        objs = [obj for n in sizes for obj in random_kl_instance(n, dim, seed=n)]
    else:
        objs = [obj for n in sizes for obj in random_regression_instance(n, dim, dim, seed=n, ridge=1e-3)]
    return disjoint_union(graphs), objs


def _heavy_ball_rows(trajectory, n, p):
    """Per iterate, the ``(n, 2p)`` agent rows ``[v_hat_i, y_hat_i]`` of a stacked trajectory."""
    return trajectory[1:, :-1].reshape(-1, 2, n, p).transpose(0, 2, 1, 3).reshape(-1, n, 2 * p)


@pytest.mark.parametrize("num_iterations", [K - 1, K, K + 1])
def test_union_kernel_residuals_are_bitwise_the_one_iterate_values(num_iterations):
    union, objs = _three_part_union()
    tab = tableau("rk4")
    h0s = [suggested_h0(part, objs[nodes], tab, num_iterations) for nodes, part in union.part_rows]
    heavy = run_heavy_ball(union, objs, tab, num_iterations, h0=h0s, keep_trajectory=True)
    rows = _heavy_ball_rows(heavy.trajectory, union.node_count, DIM)
    steps = [0.5 / part.lambda_max for part in union.parts]
    nag = dual_nag_run(union, objs, steps, num_iterations)
    y_hats = list(_dual_old_y_hats(union, objs, union.node_values(steps), num_iterations))
    # The local loop is the run's: its last iterate gives the run's end state.
    assert stacked_conjugate(objs, y_hats[-1]).tobytes() == nag.final_state.tobytes()
    for result, per_iterate in ((heavy, rows), (nag, [y.reshape(-1, DIM) for y in y_hats])):
        assert len(result.parts) == 3
        for part, (nodes, _) in zip(result.parts, union.part_rows):
            one_row, old = _kernel_oracles([r[nodes] for r in per_iterate], DIM)
            assert repr(part.max_kernel_residual) == repr(one_row) == repr(old)
        assert result.max_kernel_residual == max(part.max_kernel_residual for part in result.parts)


def test_kernel_residual_with_on_record_is_the_blocked_value():
    graph = build_graph(Topology("erdos_renyi", N_AGENTS, edge_probability=0.3, rng_seed=5))
    objs = random_kl_instance(N_AGENTS, DIM, seed=5)
    tab = tableau("rk4")
    h0 = suggested_h0(graph, objs, tab, K + 1)
    seen = []
    streamed = run_heavy_ball(graph, objs, tab, K + 1, h0=h0, keep_trajectory=True, on_record=seen.append)
    one_row, old = _kernel_oracles(_heavy_ball_rows(streamed.trajectory, N_AGENTS, DIM), DIM)
    blocked = run_heavy_ball(graph, objs, tab, K + 1, h0=h0)
    assert len(seen) == K + 1
    assert repr(streamed.max_kernel_residual) == repr(blocked.max_kernel_residual) == repr(one_row) == repr(old)


@pytest.mark.parametrize("num_iterations", [1, K, K + 1, 2 * K + 3])
def test_kernel_residual_runs_once_per_block_and_part(monkeypatch, num_iterations):
    union, objs = _three_part_union()
    calls = []

    def counted(rows, block_dim):
        calls.append(rows.shape)
        return kernel_residual(rows, block_dim)

    monkeypatch.setattr(simulator, "kernel_residual", counted)
    monkeypatch.setattr(baselines, "kernel_residual", counted)
    tab = tableau("rk4")
    blocks = math.ceil(num_iterations / K)
    sizes = [part.node_count for part in union.parts]
    run_heavy_ball(union, objs, tab, num_iterations, h0=0.1)
    assert len(calls) == 3 * blocks
    assert sorted({shape[1:] for shape in calls}) == sorted((n, 2 * DIM) for n in sizes)
    calls.clear()
    dual_nag_run(union, objs, 0.01, num_iterations)
    assert len(calls) == 3 * blocks
    assert sorted({shape[1:] for shape in calls}) == sorted((n, DIM) for n in sizes)
    calls.clear()
    graph = union.parts[0]
    run_heavy_ball(graph, objs[:N_AGENTS], tab, num_iterations, h0=0.1, on_record=lambda _: None)
    assert len(calls) == num_iterations  # every push flushes
