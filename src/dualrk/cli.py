"""Command-line entry point: run experiments, reproduce figure data, verify.

Subcommands
-----------
``run <config>``
    Execute the configured method, write the metric trace CSV, and print the
    final record plus tail rate fits.  ``--dry-run`` validates the config
    and prints the resolved step without running.
``reproduce <fig1|fig2|fig3> [--scale desk|paper]``
    Run the method/baseline matrix of a figure (a ``_FIGURES`` row) at a
    scale (a ``_SCALES`` row) and emit one CSV per (graph, method) pair plus
    a rate-fit summary JSON.  Each method runs once on the union of the
    figure's parts; parts whose orders differ run in lockstep.
``verify``
    Run the fast invariant suite; nonzero exit names the violated invariant.

Exit codes: 0 success, 1 invariant violation or unclassified failure,
2 configuration errors, 3 runtime divergence (with the iteration index),
4 I/O errors.

A new method goes into ``config.METHODS``, :func:`_method_step` (its
default step and range check, which ``run --dry-run`` applies too) and the
dispatch :func:`_run_method` (its runner and rounds per iteration, shared by
``run`` and ``reproduce``): the only code that branches on a method's name.
"""

from __future__ import annotations

import argparse
import numbers
import sys
from pathlib import Path

from . import baselines, harness
from .config import ExperimentConfig, load_config, resolve_instance
from .errors import ConfigError, DualRKError, InvalidArgument, NonFiniteState, SingularSystem
from .graph import Topology, build_graph, disjoint_union
from .integrator import tableau_for_order
from .objectives import random_kl_instance, random_regression_instance, stacked_family
from .simulator import run_heavy_ball, run_heavy_ball_orders, step_size, suggested_h0

__all__ = ["main", "run_experiment", "reproduce", "verify"]

# One row per figure: its union parts as ``(graph kind, order)`` (parts whose
# orders differ run in lockstep), their instance family and its methods in run order.
_GRAPH_SWEEP = (("star", 4), ("cycle", 4), ("erdos_renyi", 4))  # fig1's and fig2's parts
_FIGURES = {
    "fig1": (_GRAPH_SWEEP, "regression", ("cgd", "dgd", "dual_nag", "heavy_ball_rk")),
    "fig2": (_GRAPH_SWEEP, "kl_barycenter", ("dual_nag", "dgd", "heavy_ball_rk")),
    "fig3": ((("erdos_renyi", 1), ("erdos_renyi", 2), ("erdos_renyi", 4)), "kl_barycenter", ("heavy_ball_rk",)),
}

# One row per scale: (n, p, l), the Erdos-Renyi probability (denser at desk
# scale, so small samples stay connected without many resamples), the rounds budget.
_SCALES = {"desk": ((20, 10, 10), 0.3, 5000), "paper": ((100, 100, 100), 0.1, 10000)}

# Square uniform design blocks are nearly singular, which makes the dual
# dynamics arbitrarily stiff; the ridge restores a meaningful strong
# convexity modulus so the regression bundle shows figure-like decay.
_REGRESSION_RIDGE = 1e-3

# The order sweep runs every integrator near its own accuracy edge so the
# discretization floors separate; fractions of the oscillation frequency
# were calibrated on the desk KL instance.
_ORDER_SWEEP_SAFETY = {1: 0.15, 2: 0.8, 4: 0.9}

# A figure retries a diverging heavy-ball trace at half h0, this many runs at most.
_H0_SWEEP_ATTEMPTS = 8


def _method_step(cfg: ExperimentConfig, graph, objectives, tab, iterations: int, safety=None):
    """The step and dgd mixing ``cfg.method``'s runner takes, and the line ``run --dry-run`` prints.

    The configured ``h0`` (heavy ball) or ``step`` (baselines) wins.  Else heavy
    ball takes :func:`suggested_h0` at the figure's ``safety``, dual_nag
    ``mu / lambda_max``, cgd ``1 / sum L_i`` and dgd ``1 / max L_i`` (with an
    unknown smoothness constant ``0.5 / n`` and ``0.1``).  An unset dgd mixing
    is ``1 / lambda_max``; the mixing is None for every other method.  A
    baseline step or mixing out of its runner's range raises ``ConfigError``,
    so ``run --dry-run`` rejects what ``run`` rejects.
    """
    method = cfg.method
    if method == "heavy_ball_rk":
        h0 = cfg.h0 if cfg.h0 is not None else suggested_h0(graph, objectives, tab, iterations, safety=safety)
        s, h = tab.order, step_size(h0, iterations, tab.order)
        return h0, None, f"resolved step h = {h0:.6e} * {iterations}^(-{s}/{s + 1}) = {h:.6e}"
    if cfg.step is not None:
        step = cfg.step
    elif method == "dual_nag":
        step = min(obj.strong_convexity for obj in objectives) / graph.lambda_max
    else:
        lipschitz = [getattr(obj, "gradient_lipschitz", None) for obj in objectives]
        if None in lipschitz:
            step = 0.5 / len(objectives) if method == "cgd" else 0.1
        else:
            step = 1.0 / sum(lipschitz) if method == "cgd" else 1.0 / max(lipschitz)
    mixing = None
    if method == "dgd":
        mixing = cfg.mixing if cfg.mixing is not None else 1.0 / graph.lambda_max
    try:
        baselines.check_step(step, mixing, graph)
    except InvalidArgument as err:
        raise ConfigError(f"{method}: {err}") from err
    return step, mixing, f"resolved step = {step:.6e}"


def _run_method(cfg, graph, objectives, tab, reference, rounds_budget=None, safety=None, attempts=1):
    """Run ``cfg.method``; return one trace per part of ``graph``: the one dispatch on a method's name.

    It runs ``cfg.iterations`` iterations, or as many as ``rounds_budget``
    communication rounds pay for (heavy ball broadcasts once per stage, a
    baseline once per iteration), each part of a disjoint-union ``graph`` at
    :func:`_method_step`'s checked step and mixing for that part.  A tuple
    ``tab`` (and ``safety``) gives one per part: heavy ball then runs the
    parts' orders in lockstep.  A diverging heavy-ball run is rerun at half
    the ``h0`` of each part it names, until one part failed ``attempts``
    runs; a non-finite metric record counts as its part diverging.  cgd
    reads no graph: parts with the same objective objects, step and
    reference share one run and its trace.  Runners are looked up at call
    time (``cli.run_heavy_ball``, ``cli.run_heavy_ball_orders``,
    ``baselines.*_run``), so a replacement is seen.  ``report_style =
    theorem1`` divides the signed suboptimality and squared distance
    columns by the part's agent count, into a new trace per part.
    """
    method = cfg.method
    heavy_ball = method == "heavy_ball_rk"
    parts, tabs = graph.part_rows, graph.per_part(tab)
    counts = [cfg.iterations] * len(parts)  # iterations per part
    if rounds_budget is not None:
        counts = [max(rounds_budget // t.stages, 1) if heavy_ball else rounds_budget for t in tabs]
    iterations = counts[0]  # every part's, but for lockstep orders
    steps, mixings = [], []
    for (nodes, part), part_tab, part_iterations, part_safety in zip(parts, tabs, counts, graph.per_part(safety)):
        step, mixing, _ = _method_step(cfg, part, objectives[nodes], part_tab, part_iterations, part_safety)
        steps.append(step)
        mixings.append(mixing)

    if heavy_ball:
        failures = [0] * len(parts)
        while True:
            try:
                if isinstance(tab, tuple):
                    runs = run_heavy_ball_orders(graph, objectives, tabs, counts, h0=steps, reference=reference)
                else:
                    runs = [run_heavy_ball(graph, objectives, tab, iterations, h0=steps, reference=reference)]
                break
            except NonFiniteState as err:
                for i in range(len(parts)) if err.parts is None else err.parts:
                    failures[i] += 1
                    if failures[i] == attempts:
                        raise
                    steps[i] *= 0.5
    elif method == "cgd":
        shared, runs = {}, []
        for (nodes, _), step, part_reference in zip(parts, steps, graph.per_part(reference)):
            ref = part_reference and (part_reference.f_star, part_reference.x_star.tobytes())
            key = (*map(id, objectives[nodes]), step, ref)
            if key not in shared:
                shared[key] = baselines.cgd_run(objectives[nodes], step, iterations, reference=part_reference)
            runs.append(shared[key])
    elif method == "dgd":
        runs = [baselines.dgd_run(
            graph, objectives, steps, mixings, iterations,
            reference=reference, decaying_step=not cfg.dgd_constant_step,
        )]
    else:
        runs = [baselines.dual_nag_run(graph, objectives, steps, iterations, reference=reference)]
    results = [part for run in runs for part in run.parts or [run]]  # one per graph part
    if cfg.report_style == "theorem1":  # new traces: parts may share a cgd run's trace
        scaled = ("suboptimality_signed", "dist_to_optimum_sq")
        return [
            result.records.replace(**{name: result.records.column(name) / part.node_count for name in scaled})
            for result, (_, part) in zip(results, parts)
        ]
    return [result.records for result in results]


def run_experiment(cfg: ExperimentConfig, timings: bool = False):
    """Resolve a config, execute it, and write its trace CSV.

    Returns ``(records, reference, out_path)``.
    """
    graph, objectives = resolve_instance(cfg)
    family = stacked_family(objectives)
    reference = harness.reference_optimum(family)
    (records,) = _run_method(cfg, graph, family, cfg.resolve_tableau(), reference)
    out_path = Path(cfg.out)
    harness.write_metrics_csv(records, out_path, timings=timings)
    return records, reference, out_path


def _print_run_summary(trace) -> None:
    if not trace:
        print("empty run (0 iterations)")
        return
    iteration, rounds, sub, quad, dist_sq = (
        trace.column(name)[-1].item()
        for name in ("iteration", "comm_rounds", "suboptimality", "consensus_quadratic", "dist_to_optimum_sq")
    )
    print(
        f"final: iteration={iteration} comm_rounds={rounds} "
        f"suboptimality={sub:.6e} consensus_quadratic={quad:.6e} dist_to_optimum_sq={dist_sq:.6e}"
    )
    for metric in ("suboptimality", "consensus_quadratic"):
        try:
            fit = harness.fit_rate(trace, metric)
        except DualRKError as err:
            print(f"rate {metric}: not fitted ({err})")
        else:
            print(f"rate {metric}: slope={fit.slope:.4f} over rounds {fit.window}")


def _check_seed(seed: int) -> int:
    """Return ``seed``; the seeded streams take nonnegative integers only."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = _check_seed(args.seed)
    if args.out is not None:
        cfg.out = args.out
    if args.dry_run:
        graph, objectives = resolve_instance(cfg)
        harness.reference_optimum(objectives)  # as run computes it: an instance with none exits 2
        _, _, resolved = _method_step(cfg, graph, objectives, cfg.resolve_tableau(), cfg.iterations)
        p_note = f", p={cfg.edge_probability}" if cfg.graph_kind == "erdos_renyi" else ""
        print(f"config ok: {cfg.experiment} / {cfg.method} on {cfg.graph_kind}(n={cfg.node_count}{p_note})")
        print(resolved)
        return 0
    records, _, out_path = run_experiment(cfg, timings=args.timings)
    print(f"wrote {len(records)} records to {out_path}")
    _print_run_summary(records)
    return 0


def _figure_cells(figure: str, scale: str, seed: int):
    """A figure's union parts as ``(graph kind, order)``, a graph per kind, the instance they share, and its methods."""
    parts, experiment, methods = _FIGURES[figure]
    (n, p, l), edge_probability, _ = _SCALES[scale]
    graphs = {
        kind: build_graph(Topology(kind, n, edge_probability=edge_probability, rng_seed=seed))
        for kind in dict.fromkeys(kind for kind, _ in parts)
    }
    if experiment == "regression":
        objectives = random_regression_instance(n, p, l, seed=seed, ridge=_REGRESSION_RIDGE)
    else:
        objectives = random_kl_instance(n, p, seed=seed)
    return parts, graphs, objectives, methods


def _write_trace(records, path: Path, seen: dict):
    """Write one trace's CSV; return its tail rate fits.

    ``seen`` maps each trace's id to its first CSV and fits, so a trace
    that parts share (a cgd run's) is formatted and fitted once.
    """
    if id(records) in seen:
        first, fits = seen[id(records)]
        path.write_bytes(first.read_bytes())
    else:
        harness.write_metrics_csv(records, path)
        fits = []
        for metric in ("suboptimality", "consensus_quadratic"):
            try:
                fits.append(harness.fit_rate(records, metric))
            except DualRKError:
                continue
        seen[id(records)] = path, fits
    print(f"{path.stem}: {len(records)} records -> {path}")
    return fits


def reproduce(
    figure: str,
    scale: str = "desk",
    out_dir=".",
    seed: int = 0,
    rounds_budget: int | None = None,
) -> list[Path]:
    """Run the full method matrix behind a figure and write its CSV bundle.

    Every method is billed in communication rounds: a method with ``S``
    stage broadcasts per iteration runs ``budget / S`` iterations, so all
    traces share the figure's x-axis.  Each graph kind's reference optimum
    is certified before any trace runs: :func:`~dualrk.harness.verify_reference`
    bounds its error by one gradient per member and must give at most 1e-9.
    Each method runs once on the union of the figure's parts (fig3: one
    copy of its graph per order); a diverging heavy-ball part is rerun at
    half ``h0``, at most ``_H0_SWEEP_ATTEMPTS`` runs per part, and a
    diverging baseline raises.

    Returns the list of written paths (traces plus the rate-fit summary).
    """
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}, expected one of {tuple(_FIGURES)}")
    if scale not in _SCALES:
        raise ConfigError(f"unknown scale {scale!r}, expected one of {tuple(_SCALES)}")
    _check_seed(seed)
    budget = rounds_budget if rounds_budget is not None else _SCALES[scale][2]
    if not isinstance(budget, numbers.Integral) or isinstance(budget, bool):
        raise ConfigError("rounds_budget must be an integer")
    if budget <= 0:
        raise ConfigError("rounds_budget must be positive")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts, graphs, objectives, methods = _figure_cells(figure, scale, seed)
    union = disjoint_union([graphs[kind] for kind, _ in parts])
    family, certified = stacked_family(objectives * len(parts)), {}  # bound once, for every part and run
    for (kind, _), (nodes, _) in zip(parts, union.part_rows):
        if kind not in certified:  # one certification per graph kind
            reference = harness.reference_optimum(family[nodes])
            deviation = harness.verify_reference(family[nodes], reference)
            if not deviation <= 1e-9:  # NaN fails too
                raise DualRKError(f"reference optimum failed oracle verification (deviation {deviation:.3e} > 1e-9)")
            certified[kind] = reference
    references = [certified[kind] for kind, _ in parts]
    orders = sorted({order for _, order in parts})
    tabs = tuple(tableau_for_order(order) for _, order in parts)
    lockstep = len(orders) > 1  # the parts' orders differ: one run advances them together
    tab, safety = (tabs, tuple(_ORDER_SWEEP_SAFETY[o] for _, o in parts)) if lockstep else (tabs[0], None)
    cells = []  # (part index, trace name, fits)
    for method in methods:
        part_records = _run_method(  # each method at its default step
            ExperimentConfig(method=method), union, family, tab, references, budget, safety, _H0_SWEEP_ATTEMPTS
        )
        seen = {}  # per run: the traces one run returns are alive together, so their ids differ
        for i, (kind, order) in enumerate(parts):  # written and dropped before the next run
            name = f"{figure}_{kind}_{method}" + (f"_s{order}" if lockstep else "")
            cells.append((i, name, _write_trace(part_records.pop(0), out_dir / f"{name}.csv", seen)))
    cells.sort(key=lambda cell: cell[0])  # stable: graph by graph, methods in run order
    fits, labels, slopes = [], [], {}  # slopes: order -> suboptimality slope
    for i, name, cell_fits in cells:
        fits.extend(cell_fits)
        labels.extend(name for _ in cell_fits)
        slopes.update((parts[i][1], fit.slope) for fit in cell_fits if fit.metric == "suboptimality")
    extra = {"figure": figure, "scale": scale, "seed": seed, "traces": labels}
    if lockstep and len(slopes) == len(orders):
        extra["suboptimality_slopes_by_order"] = {str(s): slopes[s] for s in orders}
        extra["order_speedup_monotone"] = all(slopes[a] >= slopes[b] for a, b in zip(orders, orders[1:]))
    summary = out_dir / f"{figure}_rate_fits.json"
    harness.write_rate_fits_json(fits, summary, extra=extra)
    return [out_dir / f"{name}.csv" for _, name, _ in cells] + [summary]


def verify(seed: int = 0) -> int:
    """Run the invariant suite, print one line per check, return an exit code."""
    from .selfcheck import run_invariant_suite  # here: no other command pays for its import

    results = run_invariant_suite(seed=_check_seed(seed))
    failed = [r for r in results if not r.passed]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
    if failed:
        print(f"invariant violation: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrk",
        description="Distributed dual heavy-ball optimization via Runge-Kutta discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to the key = value config file")
    run_p.add_argument("--dry-run", action="store_true", help="validate and print the resolved step")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output path")
    run_p.add_argument("--timings", action="store_true", help="record wall times in the CSV")

    rep_p = sub.add_parser(
        "reproduce", help="reproduce a benchmark figure's trace bundle",
        description="Seeded reruns write identical bytes at a fixed BLAS thread count.  At desk scale the bytes "
        "are the same under 1 and 2 threads; at paper scale they can differ between counts, because the "
        "LAPACK inverse of each 100 x 100 local Hessian depends on it (pin it, e.g. OPENBLAS_NUM_THREADS=1).",
    )
    rep_p.add_argument("figure", choices=_FIGURES)
    rep_p.add_argument("--scale", choices=_SCALES, default="desk")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--out", default=".", help="output directory")

    ver_p = sub.add_parser("verify", help="run the fast invariant suite")
    ver_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "reproduce":
            reproduce(args.figure, scale=args.scale, out_dir=args.out, seed=args.seed)
            return 0
        return verify(seed=args.seed)
    except (ConfigError, SingularSystem) as err:  # a singular or overflowing instance is the config's data
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonFiniteState as err:
        where = f" (iteration {err.iteration})" if err.iteration is not None else ""
        print(f"diverged: {err}{where}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except DualRKError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
