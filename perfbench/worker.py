"""One repetition of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
``import dualrk`` and reports its own peak resident set size.  The result is
written as JSON to ``--result``; the CSVs go under ``--out``.

Workloads (see README.md for why each was chosen):

``fig1-desk``   ``dualrk.cli.reproduce("fig1", scale="desk")`` at a
                400-round budget: 3 graphs x (cgd, dgd, dual_nag, RK4).
``fig3-desk``   ``reproduce("fig3", scale="desk")`` at a 1000-round budget:
                heavy-ball RK at s = 1, 2, 4 on one KL instance.
``paper-quad``  one paper-shape RK4 heavy-ball trace driven through the
                public functions, timing every ``on_record`` callback.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import time
from pathlib import Path

import checks

# Constants below mirror ``dualrk reproduce`` at ``--scale desk`` and
# ``--scale paper``; the set-up replica in ``desk_setup`` must build the
# same inputs as the CLI does.
DESK = dict(n=20, p=10, rows=10, er_probability=0.3, ridge=1e-3)
PAPER = dict(n=100, p=100, rows=100, er_probability=0.1, ridge=1e-3, order=4, iterations=150)
FIGURES = {
    # workload: (figure, rounds budget, [(trace name, stages, iterations)])
    "fig1-desk": ("fig1", 400, [
        (f"fig1_{kind}_{method}", 4 if method == "heavy_ball_rk" else 1,
         100 if method == "heavy_ball_rk" else 400)
        for kind in ("star", "cycle", "erdos_renyi")
        for method in ("cgd", "dgd", "dual_nag", "heavy_ball_rk")
    ]),
    "fig3-desk": ("fig3", 1000, [
        (f"fig3_erdos_renyi_heavy_ball_rk_s{s}", s, 1000 // s) for s in (1, 2, 4)
    ]),
}
WORKLOADS = (*FIGURES, "paper-quad")
# Graph kinds per figure, in the order ``reproduce`` certifies their instances.
GRAPH_KINDS = {"fig1": ("star", "cycle", "erdos_renyi"), "fig3": ("erdos_renyi",)}


class Rep:
    """Failures per operation (trace or certification) of one repetition."""

    def __init__(self):
        self.ops: dict[str, list[str]] = {}
        self.selfcheck: list[str] = []
        self.golden: dict = {"traces": {}, "fits": {}}
        self.bitwise: list[bool] = []

    def op(self, name: str, failures=()) -> None:
        self.ops.setdefault(name, []).extend(failures)


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB.

    Read from ``VmHWM``, which starts afresh at ``exec``: ``ru_maxrss`` also
    carries the peak of the runner that started this process.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _certify(rep: Rep, label: str, deviation: float) -> None:
    ok = deviation <= checks.CERTIFICATION_TOL
    rep.op(f"certify:{label}", [] if ok else [f"{label}: certification deviation {deviation:.3e}"])


def _check_golden(rep: Rep, golden: dict | None) -> None:
    """Compare this repetition's golden entry against the recorded one."""
    if golden is None:
        return
    for name, entry in rep.golden["traces"].items():
        failures, bitwise = checks.compare_trace(name, entry, golden["traces"].get(name))
        rep.op(name, failures)
        if bitwise is not None:
            rep.bitwise.append(bitwise)
    for trace, failure in checks.compare_fits(rep.golden["fits"], golden["fits"], golden["traces"]):
        rep.op(trace, [failure])
    if rep.golden.get("order_speedup_monotone") != golden.get("order_speedup_monotone"):
        rep.op("fig3_erdos_renyi_heavy_ball_rk_s1", [
            f"order_speedup_monotone {rep.golden.get('order_speedup_monotone')} "
            f"!= golden {golden.get('order_speedup_monotone')}"
        ])


def desk_setup(dualrk, figure: str, seed: int) -> list[float]:
    """Build and certify the inputs ``reproduce`` builds for a desk figure.

    Returns the certification deviation of each reference.
    """
    deviations = []
    for kind in GRAPH_KINDS[figure]:
        dualrk.build_graph(dualrk.Topology(
            kind, DESK["n"], edge_probability=DESK["er_probability"], rng_seed=seed
        ))
        if figure == "fig3":
            objectives = dualrk.random_kl_instance(DESK["n"], DESK["p"], seed=seed)
        else:
            objectives = dualrk.random_regression_instance(
                DESK["n"], DESK["p"], DESK["rows"], seed=seed, ridge=DESK["ridge"]
            )
        reference = dualrk.reference_optimum(objectives)
        deviations.append(dualrk.harness.verify_reference(objectives, reference))
    return deviations


def run_figure(dualrk, workload, seed, out: Path, tracer, rep: Rep, t0: float, import_s: float):
    figure, budget, traces = FIGURES[workload]
    error = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _traced(tracer, "cli.reproduce", dualrk.cli.reproduce,
                    figure, scale="desk", out_dir=out, seed=seed, rounds_budget=budget)
    except dualrk.DualRKError as err:  # e.g. the h0 sweep was exhausted
        error = f"reproduce raised {type(err).__name__}: {err}"
    wall_s = time.perf_counter() - t0 + import_s
    rss_mb = peak_rss_mb()

    setup_s = None
    if tracer is None:
        # Set-up replica, timed on its own; it runs after the timed
        # workload so that the workload sees a process as a user would.
        start = time.perf_counter()
        deviations = desk_setup(dualrk, figure, seed)
        setup_s = import_s + time.perf_counter() - start
    else:
        deviations = tracer.certification_deviations
    for i, label in enumerate(GRAPH_KINDS[figure]):
        if i < len(deviations):
            _certify(rep, label, deviations[i])
        else:
            rep.op(f"certify:{label}", [f"{label}: not certified ({error})"])

    for name, stages, iterations in traces:
        failures, entry = checks.check_trace(out / f"{name}.csv", iterations, stages)
        if error and failures:
            failures.append(error)
        rep.op(name, failures)
        if entry:
            rep.golden["traces"][name] = entry
    summary = out / f"{figure}_rate_fits.json"
    if summary.exists():
        fits, payload = checks.fits_from_summary(summary)
        rep.golden["fits"] = fits
        for trace, failure in checks.check_fits(fits):
            rep.op(trace, [failure])
        rep.golden["order_speedup_monotone"] = payload.get("order_speedup_monotone")
    if tracer is not None:
        bad = [r for r in tracer.kernel_residuals if not r <= checks.KERNEL_RESIDUAL_TOL]
        for name, _, _ in traces:
            if "heavy_ball" in name and bad:
                rep.op(name, [f"max_kernel_residual {max(bad):.3e}"])
    return {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss_mb}


def run_paper_quad(dualrk, seed, out: Path, tracer, rep: Rep, t0: float, import_s: float):
    name = "paper_quad_erdos_renyi_heavy_ball_rk"
    n, p = PAPER["n"], PAPER["p"]
    graph = _traced(tracer, "graph.build_graph", dualrk.build_graph, dualrk.Topology(
        "erdos_renyi", n, edge_probability=PAPER["er_probability"], rng_seed=seed
    ))
    objectives = dualrk.random_regression_instance(n, p, PAPER["rows"], seed=seed, ridge=PAPER["ridge"])
    reference = _traced(tracer, "harness.reference_optimum", dualrk.reference_optimum, objectives)
    # verify_reference is not re-exported at the top level; the module
    # attribute is the one a traced run has wrapped already.
    deviation = dualrk.harness.verify_reference(objectives, reference)
    setup_s = time.perf_counter() - t0 + import_s
    _certify(rep, "erdos_renyi", deviation)

    tableau = dualrk.tableau_for_order(PAPER["order"])
    iterations = PAPER["iterations"]
    h0 = dualrk.suggested_h0(graph, objectives, tableau, iterations)
    stamps: list[float] = []
    path = out / f"{name}.csv"
    fits = {}
    try:
        result = _traced(tracer, "simulator.run_heavy_ball", dualrk.run_heavy_ball,
                         graph, objectives, tableau, iterations, h0=h0, reference=reference,
                         on_record=lambda record: stamps.append(time.perf_counter()))
        _traced(tracer, "harness.write_metrics_csv", dualrk.write_metrics_csv, result.records, path)
        for metric in ("suboptimality", "consensus_quadratic"):
            fit = _traced(tracer, "harness.fit_rate", dualrk.fit_rate, result.records, metric)
            fits[f"{name}/{metric}"] = fit.slope
    except dualrk.DualRKError as err:
        rep.op(name, [f"{type(err).__name__}: {err}"])
        result = None
    wall_s = time.perf_counter() - t0 + import_s
    rss_mb = peak_rss_mb()

    failures, entry = checks.check_trace(path, iterations, tableau.stages)
    failures += [failure for _, failure in checks.check_fits(fits)]
    if result is not None and not result.max_kernel_residual <= checks.KERNEL_RESIDUAL_TOL:
        failures.append(f"max_kernel_residual {result.max_kernel_residual:.3e}")
    rep.op(name, failures)
    if entry:
        rep.golden["traces"][name] = entry
    rep.golden["fits"] = fits
    iter_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss_mb, "iter_ms": iter_ms}


def environment(dualrk) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dualrk": dualrk.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    dualrk = importlib.import_module("dualrk")
    importlib.import_module("dualrk.cli")
    import_s = time.perf_counter() - t0

    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    saved = tracing.snapshot()
    if tracer is not None:
        tracer.install()
    rep = Rep()
    t0 = time.perf_counter()
    try:
        if args.workload == "paper-quad":
            timing = run_paper_quad(dualrk, args.seed, args.out, tracer, rep, t0, import_s)
        else:
            timing = run_figure(dualrk, args.workload, args.seed, args.out, tracer, rep, t0, import_s)
    finally:
        restored = tracer.uninstall() if tracer is not None else tracing.changed_since(saved)
    rep.selfcheck += [f"patched attribute not restored: {name}" for name in restored]
    _check_golden(rep, checks.load_golden(args.workload, args.seed))

    result = {
        **timing,
        "import_s": import_s,
        "ops": len(rep.ops),
        "ops_failed": sum(1 for failures in rep.ops.values() if failures),
        "failures": [f for failures in rep.ops.values() for f in failures],
        "golden": rep.golden,
        "csv_bitwise": [sum(rep.bitwise), len(rep.bitwise)] if rep.bitwise else None,
        "env": environment(dualrk),
    }
    if tracer is not None:
        result["closed_form_mismatches"] = tracer.closed_form_failures()
        result["layers"] = tracer.layers()
        result["counters"] = dict(tracer.counters)
        result["span_root_s"] = tracer.root_time()
        result["heavy_ball_solves"] = tracer.solves_in_heavy_ball()
        tracer.write_spans(args.out / "spans.csv")
    result["selfcheck_failures"] = rep.selfcheck
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
