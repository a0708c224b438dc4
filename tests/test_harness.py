"""Reference optima, metric evaluation, rate fitting."""

import csv
import dataclasses
import gc
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from dualrk import cli, harness
from dualrk.config import ExperimentConfig
from dualrk import objectives as objectives_module
from dualrk.errors import DimensionMismatch, InsufficientData, InvalidArgument, NonFiniteState, NonPositiveMetric
from dualrk.graph import Topology, build_graph
from dualrk.harness import (
    CSV_COLUMNS,
    TRACE_COLUMNS,
    MetricsTrace,
    ReferenceOptimum,
    evaluate_metrics,
    fit_rate,
    read_metrics_csv,
    reference_optimum,
    verify_reference,
    write_metrics_csv,
)
from dualrk.integrator import tableau
from dualrk.objectives import (
    KLLocal,
    QuadraticLocal,
    random_kl_instance,
    random_regression_instance,
    project_to_simplex,
    stacked_conjugate,
    stacked_family,
    stacked_value,
)
from dualrk.oracles import sqrt_apply, sqrt_laplacian
from dualrk.simulator import run_heavy_ball, suggested_h0


def _trace_from_curve(rounds, values):
    """A trace with ``values`` in every metric column, signed as given."""
    trace = MetricsTrace()
    trace.append(np.arange(1, len(rounds) + 1), rounds, values, values, values, values, np.zeros(len(rounds)))
    return trace


def test_reference_equality_and_hash_are_by_identity():
    reference = reference_optimum(random_regression_instance(5, 2, 3, seed=0))
    twin = harness.ReferenceOptimum(reference.x_star.copy(), reference.f_star)
    assert reference == reference and reference != twin
    assert {reference: 1, twin: 2}[twin] == 2


def test_reference_identical_quadratics():
    b = np.array([0.7, -0.3])
    objs = [QuadraticLocal(np.eye(2), b) for _ in range(5)]
    ref = reference_optimum(objs)
    assert np.allclose(ref.x_star, b, atol=1e-12)
    assert ref.f_star == pytest.approx(0.0, abs=1e-24)


def test_reference_identical_kl():
    q = np.array([0.1, 0.6, 0.3])
    objs = [KLLocal(q) for _ in range(4)]
    ref = reference_optimum(objs)
    assert np.allclose(ref.x_star, q, atol=1e-14)


def test_reference_kl_symmetric_pair():
    objs = [KLLocal(np.array([0.8, 0.2])), KLLocal(np.array([0.2, 0.8]))]
    ref = reference_optimum(objs)
    assert np.allclose(ref.x_star, [0.5, 0.5], atol=1e-12)
    oracle, _ = _reference_projected_gradient(objs)
    assert np.linalg.norm(oracle - ref.x_star) <= 1e-9
    assert verify_reference(objs, ref) <= 1e-15


def test_reference_verified_against_oracle():
    for seed in (0, 1):
        objs = random_regression_instance(6, 4, 6, seed=seed)
        assert verify_reference(objs, reference_optimum(objs)) <= 1e-9
        kobs = random_kl_instance(6, 4, seed=seed)
        assert verify_reference(kobs, reference_optimum(kobs)) <= 1e-9


def test_metrics_vanish_at_replicated_optimum():
    objs = random_regression_instance(4, 3, 5, seed=2)
    graph = build_graph(Topology("cycle", 4))
    ref = reference_optimum(objs)
    trace = evaluate_metrics(
        np.tile(ref.x_star, 4), ref, graph, objs, iteration=1, comm_rounds=1
    )
    assert len(trace) == 1
    assert trace.column("suboptimality")[0] <= 1e-12
    assert trace.column("consensus_L_norm")[0] <= 1e-12
    assert trace.column("consensus_quadratic")[0] <= 1e-12
    assert trace.column("dist_to_optimum_sq")[0] <= 1e-12


def test_metrics_edge_graph_hand_values():
    objs = [QuadraticLocal(np.array([[1.0]]), np.array([0.0])) for _ in range(2)]
    graph = build_graph(Topology("cycle", 2))
    ref = reference_optimum(objs)
    trace = evaluate_metrics(
        np.array([1.0, 0.0]), ref, graph, objs, iteration=1, comm_rounds=1
    )
    assert trace.column("consensus_quadratic")[0] == pytest.approx(1.0, abs=1e-15)
    assert trace.column("consensus_L_norm")[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_consensus_quadratic_matches_sqrt_oracle():
    graph = build_graph(Topology("erdos_renyi", 8, edge_probability=0.5, rng_seed=3))
    objs = random_regression_instance(8, 3, 5, seed=3)
    ref = reference_optimum(objs)
    root = sqrt_laplacian(graph)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=24)
        quad = evaluate_metrics(x, ref, graph, objs, iteration=1, comm_rounds=1).column("consensus_quadratic")[0]
        oracle = float(np.linalg.norm(sqrt_apply(root, x, 3)) ** 2)
        assert quad == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_consensus_quadratic_sandwich_bounds():
    graph = build_graph(Topology("erdos_renyi", 7, edge_probability=0.6, rng_seed=4))
    objs = random_kl_instance(7, 2, seed=4)
    ref = reference_optimum(objs)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=14)
        blocks = x.reshape(7, -1)
        deviation = float(np.linalg.norm(blocks - blocks.mean(axis=0)) ** 2)
        quad = evaluate_metrics(x, ref, graph, objs, iteration=1, comm_rounds=1).column("consensus_quadratic")[0]
        assert graph.lambda_min_pos * deviation <= quad + 1e-9
        assert quad <= graph.lambda_max * deviation + 1e-9


def test_per_agent_normalization():
    # report_style = theorem1 scales the records of a run in the CLI dispatch.
    objs = random_regression_instance(4, 2, 4, seed=5)
    graph = build_graph(Topology("star", 4))
    ref = reference_optimum(objs)
    cfg = ExperimentConfig(method="dgd", iterations=5)
    # The dispatch returns one trace per graph part; a star is one part.
    (raw,) = cli._run_method(cfg, graph, objs, tableau("rk4"), ref)
    cfg.report_style = "theorem1"
    (scaled,) = cli._run_method(cfg, graph, objs, tableau("rk4"), ref)
    assert len(raw) == len(scaled) == 5
    for name in ("suboptimality", "suboptimality_signed", "dist_to_optimum_sq"):
        assert (scaled.column(name) == raw.column(name) / 4.0).all()
    assert (scaled.column("consensus_quadratic") == raw.column("consensus_quadratic")).all()
    assert (raw.column("consensus_quadratic") > 0.0).all()


def test_fit_rate_recovers_exact_power_law():
    rounds = np.arange(1, 2001)
    fit = fit_rate(_trace_from_curve(rounds, 3.7 * rounds ** (-4.0 / 3.0)), "suboptimality")
    assert fit.slope == pytest.approx(-4.0 / 3.0, abs=1e-6)
    flat = fit_rate(_trace_from_curve(rounds, np.full(2000, 2.5)), "suboptimality")
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_excludes_leading_transient():
    rounds = np.arange(1, 1001)
    values = 2.0 * rounds ** (-1.5)
    values[:150] = 10.0  # transient garbage inside the first 20 percent
    fit = fit_rate(_trace_from_curve(rounds, values), "suboptimality")
    assert fit.slope == pytest.approx(-1.5, abs=1e-9)
    assert fit.window[0] > 200.0


def test_fit_rate_insufficient_data():
    rounds = np.arange(1, 30)
    with pytest.raises(InsufficientData):
        fit_rate(_trace_from_curve(rounds, 1.0 / rounds), "suboptimality")


def test_fit_rate_nonpositive_and_floor_refit():
    rounds = np.arange(1, 501)
    values = 1.0 * rounds ** (-2.0)
    values[400:] = 0.0  # solver-tolerance floor
    fit = fit_rate(_trace_from_curve(rounds, values), "suboptimality")
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.window[1] <= 400.0
    with pytest.raises(NonPositiveMetric):
        fit_rate(_trace_from_curve(rounds, np.zeros(500)), "suboptimality")


def test_fit_rate_reads_a_trace_as_its_csv_rows(tmp_path):
    rounds = np.arange(1, 1001)
    values = 2.0 * rounds ** (-1.5) * (1.0 + 0.1 * np.sin(rounds))
    trace, path = _trace_from_curve(rounds, values), tmp_path / "trace.csv"
    write_metrics_csv(trace, path)
    for metric in ("suboptimality", "consensus_quadratic"):
        assert fit_rate(trace, metric) == fit_rate(read_metrics_csv(path), metric)
    # The suboptimality column is the signed column's magnitude.
    assert fit_rate(_trace_from_curve(rounds, -values), "suboptimality").slope == fit_rate(
        _trace_from_curve(rounds, values), "suboptimality"
    ).slope


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("negated", [False, True])
def test_fit_rate_rejects_a_non_finite_window(capsys, bad, negated):
    # A NaN or infinite point in the window has no slope: it raises, so no fit reads slope=nan.
    # The fit and the summary read the signed column's magnitude, so a negated one gives the same.
    def build(rounds, values):
        return _trace_from_curve(rounds, -values if negated else values)

    rounds = np.arange(1, 301)
    values = 1.0 / rounds
    values[10] = bad  # in the dropped transient: no effect
    assert fit_rate(build(rounds, values), "suboptimality").slope == pytest.approx(-1.0, abs=1e-12)
    values[200] = bad
    message = f"suboptimality is {bad!r} at round 201 in the fit window"
    with pytest.raises(NonFiniteState, match=message):
        fit_rate(build(rounds, values), "suboptimality")
    cli._print_run_summary(build(rounds, values))
    assert f"rate suboptimality: not fitted ({message})" in capsys.readouterr().out
    values[150] = 0.0  # a nonpositive point ends the window before the bad one
    assert fit_rate(build(rounds, values), "suboptimality").window == (61.0, 150.0)


# fit_rate against np.polyfit (LAPACK lstsq): the closed form sums in another order, so the two
# agree to roundoff, not bitwise.  Fixed before comparing: rtol 1e-12, and atol 1e-13 (log units)
# for fits whose value is 0 (a flat curve's slope, an exact power law's residual).
_FIT_RTOL, _FIT_ATOL = 1e-12, 1e-13


def _polyfit_oracle(trace, fit):
    """``fit``'s slope, intercept and residual, redone with ``np.polyfit`` on the rows of its window."""
    rounds = trace.column("comm_rounds").astype(float)
    inside = (rounds >= fit.window[0]) & (rounds <= fit.window[1])
    assert inside.sum() == fit.points
    log_r, log_v = np.log(rounds[inside]), np.log(trace.column(fit.metric)[inside])
    slope, intercept = np.polyfit(log_r, log_v, 1)
    return slope, intercept, np.sqrt(np.mean((log_v - (slope * log_r + intercept)) ** 2))


def _assert_fit_matches_polyfit(trace, fit):
    np.testing.assert_allclose(
        (fit.slope, fit.intercept, fit.residual), _polyfit_oracle(trace, fit), rtol=_FIT_RTOL, atol=_FIT_ATOL
    )


def test_fit_rate_matches_polyfit_on_synthetic_curves():
    rounds = np.arange(1, 2001)
    transient = 2.0 * rounds ** (-1.5)
    transient[:150] = 10.0
    floored = rounds ** (-2.0)
    floored[1500:] = 0.0
    curves = [
        3.7 * rounds ** (-4.0 / 3.0),
        np.full(2000, 2.5),
        transient,
        floored,
        2.0 * rounds ** (-1.5) * (1.0 + 0.1 * np.sin(rounds)),
        np.exp(np.random.default_rng(0).standard_normal(2000)) / rounds,
    ]
    for values in curves:
        trace = _trace_from_curve(rounds, values)
        _assert_fit_matches_polyfit(trace, fit_rate(trace, "suboptimality"))


@pytest.mark.parametrize("figure, budget", [("fig1", 400), ("fig3", 1000)])
def test_fit_rate_matches_polyfit_on_every_fit_of_a_bundle(tmp_path, figure, budget):
    # Every fit of the bundle's rate-fits file, against np.polyfit on its trace as read back from
    # its CSV (whose floats round-trip), and against fit_rate of that trace.
    cli.reproduce(figure, out_dir=tmp_path, rounds_budget=budget)
    summary = json.loads((tmp_path / f"{figure}_rate_fits.json").read_text())
    assert summary["fits"] and len(summary["fits"]) == len(summary["traces"])
    for name, written in zip(summary["traces"], summary["fits"]):
        trace = read_metrics_csv(tmp_path / f"{name}.csv")
        fit = fit_rate(trace, written["metric"])
        assert json.loads(json.dumps(dataclasses.asdict(fit))) == written
        _assert_fit_matches_polyfit(trace, fit)


def test_fit_rate_uses_no_least_squares_routine(monkeypatch):
    # The fit is closed form: it needs neither np.polyfit nor any np.linalg routine (LAPACK).
    def refuse(*args, **kwargs):
        raise AssertionError("fit_rate called a least-squares routine")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in set(np.linalg.__all__) - {"LinAlgError"}:
        monkeypatch.setattr(np.linalg, name, refuse)
    rounds = np.arange(1, 1001)
    assert fit_rate(_trace_from_curve(rounds, 2.0 * rounds ** (-1.5)), "suboptimality").slope == pytest.approx(-1.5)


def test_fit_rate_rejects_a_window_at_one_round(capsys):
    # One round value leaves the slope undefined: no fit, where np.polyfit warned RankWarning
    # and returned a slope of 0.0992 for this trace.
    trace = _trace_from_curve(np.full(100, 7), 1.0 / np.arange(1, 101))
    with pytest.raises(InsufficientData, match="all 100 points of the tail window are at round 7"):
        fit_rate(trace, "suboptimality")
    cli._print_run_summary(trace)
    assert "rate suboptimality: not fitted (all 100 points" in capsys.readouterr().out


def test_fit_rate_rejects_an_unknown_metric():
    # An InvalidArgument (a DualRKError, which the CLI reports), naming the columns a trace reads.
    trace = _trace_from_curve(np.arange(1, 101), 1.0 / np.arange(1, 101))
    with pytest.raises(InvalidArgument, match=r"no column 'bogus'; it reads \['suboptimality', 'iteration'"):
        fit_rate(trace, "bogus")


def test_consensus_projection_lower_bounded_by_reference():
    objs = random_kl_instance(5, 3, seed=7)
    graph = build_graph(Topology("star", 5))
    ref = reference_optimum(objs)
    tab = tableau("rk4")
    result = run_heavy_ball(
        graph, objs, tab, 40, h0=suggested_h0(graph, objs, tab, 40), reference=ref
    )
    # F at the consensus projection (every block set to the block mean) of any iterate is at least F*
    x = stacked_conjugate(objs, result.final_state[:, 3:6].reshape(-1)).reshape(5, 3)
    projected = np.tile(x.mean(axis=0), 5)
    assert stacked_value(objs, projected) >= ref.f_star - 1e-9


def test_csv_timings_flag(tmp_path):
    trace = _trace_from_curve(np.arange(1, 60), np.linspace(1.0, 0.1, 59)).replace(wall_time_ms=np.full(59, 12.5))
    silent, timed = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(trace, silent)
    write_metrics_csv(trace, timed, timings=True)
    assert (read_metrics_csv(silent).column("wall_time_ms") == 0.0).all()
    assert (read_metrics_csv(timed).column("wall_time_ms") == 12.5).all()


def _csv_rows(trace):
    """A trace's rows as numpy scalars, read from its columns in the CSV's order."""
    return zip(*(trace.column(name) for name in CSV_COLUMNS))


def _csv_writer_bytes(trace, timings):
    """A trace as ``csv.writer`` writes it, the writer's former implementation."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    for k, r, s, c, q, d, ms in _csv_rows(trace):
        writer.writerow(
            [
                int(k),
                int(r),
                repr(float(s)),
                repr(float(c)),
                repr(float(q)),
                repr(float(d)),
                repr(float(ms)) if timings else "0.0",
            ]
        )
    return buffer.getvalue().encode("utf-8")


def _per_record_csv_bytes(trace, timings):
    """A trace as the per-record f-string wrote it before traces were held in columns."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{int(k)},{int(r)},{float(s)!r},{float(c)!r},{float(q)!r},{float(d)!r},{float(ms) if timings else 0.0!r}"
        for k, r, s, c, q, d, ms in _csv_rows(trace)
    )
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


_SPECIAL_VALUES = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1.0, 7.0, -3.0, 1e16, 123456789.0, 1.0 / 3.0, -2.5e-7,
]


def _special_trace():
    """A trace with every special float in every float column and counts past ``2**31``."""
    n = len(_SPECIAL_VALUES)
    iterations = np.array([1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 + 7, 2**53 + 1, 2**62] + list(range(8, n + 1)))
    trace = MetricsTrace()
    columns = [np.roll(_SPECIAL_VALUES, shift) for shift in range(5)]
    trace.append(iterations, iterations + 1, *columns)
    return trace


@pytest.mark.parametrize("timings", [False, True])
def test_csv_bytes_equal_csv_writer(tmp_path, monkeypatch, timings):
    # And the per-record f-string that wrote them before traces were held in columns (counts past
    # 2**31, every special float and 1e-300 in every metric and wall-time position), over several
    # write chunks, and for one row and none.
    monkeypatch.setattr(harness, "_CSV_CHUNK_ROWS", 5)
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e-300, 1.0 / 3.0, -2.5e-7, 1e16, 123456789.0, 7.0]
    k = np.arange(len(values))
    metrics = np.array([np.roll(values, i)[:4] for i in k]).T  # row i holds the values rolled by i
    rolled = MetricsTrace(
        {"iteration": k, "comm_rounds": 3 * k, **dict(zip(TRACE_COLUMNS[2:6], metrics)), "wall_time_ms": np.array(values[::-1])}
    )
    one_row = MetricsTrace({name: rolled.column(name)[:1] for name in TRACE_COLUMNS})
    for trace in (rolled, one_row, _special_trace(), MetricsTrace()):
        path = tmp_path / "trace.csv"
        write_metrics_csv(trace, path, timings=timings)
        assert path.read_bytes() == _csv_writer_bytes(trace, timings) == _per_record_csv_bytes(trace, timings)


def test_read_metrics_csv_round_trips_a_trace(tmp_path):
    trace = _special_trace()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(trace, first, timings=True)
    read = read_metrics_csv(first)
    assert isinstance(read, MetricsTrace) and len(read) == len(trace)
    write_metrics_csv(read, second, timings=True)
    assert second.read_bytes() == first.read_bytes()
    for name in CSV_COLUMNS:
        assert read.column(name).tobytes() == trace.column(name).tobytes()
    # The CSV keeps the suboptimality's magnitude only: that is the read trace's signed column.
    assert read.column("suboptimality_signed").tobytes() == trace.column("suboptimality").tobytes()
    write_metrics_csv(MetricsTrace(), first)
    assert len(read_metrics_csv(first)) == 0


def test_a_trace_reads_read_only_columns_and_replaces_them_in_a_new_trace():
    trace = _special_trace()
    assert trace.column("suboptimality").tobytes() == np.abs(trace.column("suboptimality_signed")).tobytes()
    with pytest.raises(ValueError):
        trace.column("consensus_L_norm")[0] = 1.0  # a read-only view
    halved = trace.replace(dist_to_optimum_sq=trace.column("dist_to_optimum_sq") / 2)
    assert halved.column("iteration").tobytes() == trace.column("iteration").tobytes()
    assert halved.column("dist_to_optimum_sq").tobytes() == (trace.column("dist_to_optimum_sq") / 2).tobytes()
    halved.append([9], [9], [1.0], [1.0], [1.0], [1.0], [1.0])  # grows into its own columns
    assert len(halved) == len(trace) + 1 and trace.column("iteration")[-1] != 9


def test_replace_rejects_a_name_outside_the_trace_columns():
    # column() reads "suboptimality" (the signed column's magnitude), but a trace holds no such
    # column, so replacing it would change nothing: it raises, as any other unknown name does.
    trace = _special_trace()
    for name in ("suboptimality", "wall_time", "x"):
        with pytest.raises(InvalidArgument, match=rf"\['{name}'\]"):
            trace.replace(**{name: trace.column("suboptimality")})


def test_a_trace_rejects_columns_of_unequal_length():
    trace = _special_trace()
    columns = {name: trace.column(name) for name in TRACE_COLUMNS}
    for name in (TRACE_COLUMNS[0], TRACE_COLUMNS[-1]):
        with pytest.raises(DimensionMismatch, match="unequal"):
            MetricsTrace(columns | {name: columns[name][:-1]})


def test_a_trace_takes_array_likes_as_columns_of_their_kind():
    # A list column is taken as an array (its first column() read raised AttributeError), and
    # a metric column of integers as float64.
    trace = MetricsTrace({name: [1, 2] for name in TRACE_COLUMNS})
    for name in TRACE_COLUMNS:
        assert trace.column(name).dtype == (np.int64 if name in TRACE_COLUMNS[:2] else np.float64)
        assert trace.column(name).tolist() == [1, 2]
    # Columns that are arrays of their dtype already are held as given, not copied.
    columns = {name: trace.column(name) for name in TRACE_COLUMNS}
    again = MetricsTrace(columns)
    assert all(np.shares_memory(again.column(name), columns[name]) for name in TRACE_COLUMNS)


@pytest.mark.parametrize("name", TRACE_COLUMNS[:2])
@pytest.mark.parametrize("counts", [[1.5, 2.0], np.array([1.0, 2.0]), [True, False]], ids=["fraction", "floats", "bools"])
def test_a_trace_rejects_a_count_column_of_non_integers(name, counts):
    # A float iteration column would be written to the CSV as 1.5 where a count belongs.
    columns = {column: [1, 2] for column in TRACE_COLUMNS}
    with pytest.raises(InvalidArgument, match=rf"count columns take integers, not \{{'{name}': "):
        MetricsTrace(columns | {name: counts})


def test_a_trace_rejects_columns_that_are_not_one_dimensional():
    columns = {name: np.ones((2, 2)) for name in TRACE_COLUMNS[2:]}
    with pytest.raises(DimensionMismatch, match="not one-dimensional"):
        MetricsTrace({"iteration": np.ones((2, 2), int), "comm_rounds": np.ones((2, 2), int), **columns})
    with pytest.raises(DimensionMismatch, match="not one-dimensional"):
        MetricsTrace({name: 1 for name in TRACE_COLUMNS})


def test_replace_shares_every_column_it_is_handed():
    trace = _special_trace()
    halved = trace.column("dist_to_optimum_sq") / 2
    handed = {name: trace.column(name) for name in TRACE_COLUMNS} | {"dist_to_optimum_sq": halved}
    replaced = trace.replace(dist_to_optimum_sq=halved)
    assert all(np.shares_memory(replaced.column(name), handed[name]) for name in TRACE_COLUMNS)


def _long_trace(rows):
    k = np.arange(1, rows + 1)
    values = np.random.default_rng(rows).standard_normal((5, rows))
    return MetricsTrace({"iteration": k, "comm_rounds": 4 * k, **dict(zip(TRACE_COLUMNS[2:], values))})


def _traced_peak(call, *args):
    """``call(*args)``'s result, and the tracemalloc peak over it and what it held when it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def test_writing_a_trace_peaks_at_a_bound_its_length_does_not_move(tmp_path):
    # The magnitude, the zero wall times and the text are formed a chunk at a time: one bound, fixed
    # before the chunks were, holds at 10,000 and at 100,000 rows (full-length columns took 634 KB
    # and 2.1 MB).
    for rows in (10_000, 100_000):
        trace, path = _long_trace(rows), tmp_path / f"{rows}.csv"
        write_metrics_csv(trace, path)  # the file exists, as when it is written again
        _, peak, _ = _traced_peak(write_metrics_csv, trace, path)
        assert peak <= 128 * 1024, (rows, peak)


def test_reading_a_trace_peaks_at_twice_what_it_keeps(tmp_path):
    # A dict per row peaked at 14 times the trace's columns.
    path = tmp_path / "trace.csv"
    write_metrics_csv(_long_trace(10_000), path)
    read, peak, held = _traced_peak(read_metrics_csv, path)
    assert len(read) == 10_000 and 56 * 10_000 <= held
    assert peak <= 2 * held, (peak, held)


def _reference_projected_gradient(objectives, max_iterations=20_000, polish_iterations=300_000):
    """The projected-gradient oracle with its former fixed-step polish, after a full Armijo phase."""
    simplex = objectives[0].domain == "simplex"
    n, p = len(objectives), objectives[0].dim
    x = np.full(p, 1.0 / p) if simplex else np.zeros(p)

    def total_value(v):
        return stacked_value(objectives, np.tile(v, n))

    def total_gradient(v):
        return stacked_family(objectives).gradients(np.tile(v, (n, 1))).sum(axis=0)

    def feasible(v):
        if simplex:
            v = np.maximum(project_to_simplex(v), 1e-16)
            v = v / v.sum()
        return v

    def gradient_probe(v):
        return total_gradient(np.maximum(v, 1e-12) if simplex else v)

    fx = total_value(x)
    step = 1.0
    for _ in range(max_iterations):
        grad = total_gradient(x)
        while True:
            trial = feasible(x - step * grad)
            diff = trial - x
            f_trial = total_value(trial)
            if f_trial <= fx + float(grad @ diff) + float(diff @ diff) / (2.0 * step) + 1e-18:
                break
            step *= 0.5
            if step < 1e-18:
                break
        if step < 1e-18:
            break
        moved = float(np.linalg.norm(diff))
        x, fx = trial, f_trial
        step = min(step * 1.5, 1e8)
        if moved <= 1e-13 * (1.0 + float(np.linalg.norm(x))):
            break
    rng = np.random.default_rng(12345)
    direction = rng.normal(size=x.size)
    direction /= np.linalg.norm(direction)
    probe_eps = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    curvature = 0.0
    for _ in range(15):
        diff = gradient_probe(x + probe_eps * direction) - gradient_probe(x - probe_eps * direction)
        norm_diff = float(np.linalg.norm(diff))
        curvature = max(curvature, norm_diff / (2.0 * probe_eps))
        if norm_diff == 0.0:
            break
        direction = diff / norm_diff
    step = 0.45 / max(curvature, 1e-12)
    for _ in range(polish_iterations):
        trial = feasible(x - step * total_gradient(x))
        moved = float(np.linalg.norm(trial - x))
        scale = 1.0 + float(np.linalg.norm(x))
        if not np.all(np.isfinite(trial)) or moved > 1e3 * scale:
            step *= 0.5
            if step < 1e-18:
                break
            continue
        x = trial
        if moved <= 1e-15 * scale:
            break
    return x, total_value(x)


def _desk_instance(family, seed):
    if family == "quadratic":
        return random_regression_instance(20, 10, 10, seed=seed, ridge=1e-3)
    return random_kl_instance(20, 10, seed=seed)


def _count_gradients(monkeypatch, objectives):
    """Count the calls to the members' own ``gradient``; the stacked family's ``gradients`` may not run."""
    member_type, family_type = type(objectives[0]), type(stacked_family(objectives))
    gradient, calls = member_type.gradient, [0]

    def counting(self, x):
        calls[0] += 1
        return gradient(self, x)

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate must not use the stacked gradients")

    monkeypatch.setattr(member_type, "gradient", counting)
    monkeypatch.setattr(family_type, "gradients", forbidden)
    return calls


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_projected_gradient_oracle_agrees_with_the_fixed_step_iteration(family, seed):
    # The iterative cross-check of the closed form: the test-only projected-gradient oracle, whose
    # Armijo phase and fixed-step polish share no kernel with reference_optimum.
    objs = _desk_instance(family, seed)
    want_x, want_value = _reference_projected_gradient(objs)
    reference = reference_optimum(objs)
    assert np.linalg.norm(reference.x_star - want_x) <= 1e-12
    assert reference.f_star == pytest.approx(want_value, rel=1e-12)


@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_certificate_takes_one_gradient_per_member(monkeypatch, family):
    # As a list, and as the row slice of a union family that reproduce certifies.
    objs = _desk_instance(family, 4)
    reference = reference_optimum(objs)
    union = stacked_family(objs * 3)
    calls = _count_gradients(monkeypatch, objs)
    for view in (objs, union[20:40]):
        calls[0] = 0
        assert verify_reference(view, reference) <= 1e-9
        assert calls[0] == len(objs)


@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_certificate_needs_no_closed_form(monkeypatch, family):
    objs = _desk_instance(family, 3)
    reference = reference_optimum(objs)
    family_type = type(stacked_family(objs))

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate must not use a closed form, a conjugate or a stacked kernel")

    monkeypatch.setattr(harness, "reference_optimum", forbidden)
    monkeypatch.setattr(harness, "stacked_family", forbidden)
    monkeypatch.setattr(harness, "stacked_value", forbidden)
    monkeypatch.setattr(objectives_module, "stacked_conjugate", forbidden)
    monkeypatch.setattr(objectives_module, "stacked_value", forbidden)
    monkeypatch.setattr(objectives_module, "_quadratic_conjugate", forbidden)
    monkeypatch.setattr(objectives_module, "_kl_conjugate", forbidden)
    monkeypatch.setattr(type(objs[0]), "conjugate_argmax", forbidden)
    for name in ("conjugate", "values", "gradients", "hessian_product"):
        monkeypatch.setattr(family_type, name, forbidden, raising=False)
    assert verify_reference(objs, reference) <= 1e-9


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_a_non_finite_member_gradient_gives_a_non_finite_deviation(monkeypatch, family, bad):
    objs = _desk_instance(family, 3)
    reference = reference_optimum(objs)
    member_type = type(objs[0])
    gradient, calls = member_type.gradient, [0]

    def overflowing(self, x):
        calls[0] += 1
        grad = gradient(self, x)
        return np.full_like(grad, bad) if calls[0] == 5 else grad

    monkeypatch.setattr(member_type, "gradient", overflowing)
    deviation = verify_reference(objs, reference)
    assert not math.isfinite(deviation) and not deviation <= 1e-9


@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_certificate_rejects_wrong_points(family):
    objs = _desk_instance(family, 1)
    x_star = reference_optimum(objs).x_star
    rng = np.random.default_rng(7)
    for size in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for _ in range(5):
            delta = rng.normal(size=x_star.size)
            if family == "kl":
                delta -= delta.mean()  # along the simplex
            delta *= size / np.linalg.norm(delta)
            bound = verify_reference(objs, ReferenceOptimum(x_star + delta, 0.0))
            assert bound >= np.linalg.norm(delta), (size, bound)
    if family == "kl":
        mean = np.mean([obj.reference for obj in objs], axis=0)
        assert verify_reference(objs, ReferenceOptimum(mean, 0.0)) > 1e-3
        zero = x_star.copy()
        zero[0], zero[1] = 0.0, zero[0] + zero[1]
        negative = x_star.copy()
        negative[0], negative[1] = -1e-3, negative[1] + negative[0] + 1e-3
        off = x_star * (1.0 + 1e-10)
        for point in (zero, negative, off):
            assert verify_reference(objs, ReferenceOptimum(point, 0.0)) == math.inf


@pytest.mark.parametrize("family", ["quadratic", "kl"])
def test_paper_shape_reference_is_certified(monkeypatch, family):
    if family == "quadratic":
        objs = random_regression_instance(100, 100, 100, seed=0, ridge=1e-3)
    else:
        objs = random_kl_instance(100, 100, seed=0)
    reference = reference_optimum(objs)
    calls = _count_gradients(monkeypatch, objs)
    assert verify_reference(objs, reference) <= 1e-9
    assert calls[0] == 100


def test_skewed_kl_reference_is_certified_in_fifty_gradients(monkeypatch):
    # References with entries down to about 1e-12: the KL modulus of 1 does not depend on how skewed they are.
    rng = np.random.default_rng(0)
    objs = [KLLocal.from_weights(rng.uniform(1e-4, 1.0, size=10) ** 3) for _ in range(20)]
    reference = reference_optimum(objs)
    calls = _count_gradients(monkeypatch, objs)
    assert verify_reference(objs, reference) <= 1e-9
    assert calls[0] == len(objs) <= 50
