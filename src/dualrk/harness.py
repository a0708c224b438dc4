"""Reference optima, metric evaluation and rate fitting, plus the run bind.

Everything downstream of a run lives here: the consensus-problem reference
solution (closed form checked against an independent gradient-only solver:
conjugate gradient on the reals, exponentiated gradient on the simplex), the
per-iteration metric record and its CSV schema, and log-log slope fitting
over trace tails.

A distributed run binds its family, degree-bucket plan and pad buffer once
with :func:`bind_run`.  Run loops push their iterates into a
:class:`TraceRecorder`, which times each iteration, evaluates the records a
block at a time and builds the :class:`RunResult` every runner returns.
Records are unscaled: the CLI applies ``report_style = theorem1``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch, InsufficientData, InvalidArgument, NonFiniteState, NonPositiveMetric, SingularSystem,
)
from .graph import LaplacianGraph, laplacian_apply
from .objectives import stacked_family, stacked_value

__all__ = [
    "CSV_COLUMNS",
    "MetricsRecord",
    "RateFit",
    "ReferenceOptimum",
    "RunResult",
    "reference_optimum",
    "projected_gradient_optimum",
    "verify_reference",
    "evaluate_trace",
    "evaluate_metrics",
    "TRACE_BLOCK_BYTES",
    "TraceRecorder",
    "bind_run",
    "check_finite",
    "fit_rate",
    "write_metrics_csv",
    "read_metrics_csv",
    "write_rate_fits_json",
]

#: Fixed CSV schema shared by the simulator and every baseline.
CSV_COLUMNS = (
    "iteration",
    "comm_rounds",
    "suboptimality",
    "consensus_L_norm",
    "consensus_quadratic",
    "dist_to_optimum_sq",
    "wall_time_ms",
)

# The oracle's iteration budget (conjugate gradient on the reals,
# exponentiated gradient on the simplex), and the rate-fit window: the share
# of the round range dropped as transient, the fewest points a fit takes, and
# the value at or below which a point ends the window.
_ORACLE_ITERATIONS = 20_000
_FIT_WINDOW_START = 0.2
_FIT_MIN_POINTS = 50
_FIT_FLOOR = 0.0


@dataclass
class MetricsRecord:
    """One trace row per iteration, uniform across all methods.

    ``suboptimality`` is reported as ``|F(x_k) - F*|`` (the usual figure
    axis); the signed value is kept alongside but is not part of the CSV
    schema.  ``wall_time_ms`` is the iteration's own method time, stamped by
    :class:`TraceRecorder`; its metrics are evaluated later, in blocks.
    """

    iteration: int
    comm_rounds: int
    suboptimality: float
    consensus_L_norm: float
    consensus_quadratic: float
    dist_to_optimum_sq: float
    wall_time_ms: float = 0.0
    suboptimality_signed: float = field(default=float("nan"), repr=False)


@dataclass(frozen=True, eq=False)
class ReferenceOptimum:
    """Shared optimizer ``x*`` of the consensus problem and its value ``F*``."""

    x_star: np.ndarray
    f_star: float


@dataclass
class RateFit:
    """Least-squares slope of ``log(metric)`` against ``log(comm_rounds)``."""

    metric: str
    slope: float
    intercept: float
    residual: float
    window: tuple[float, float]
    points: int


def reference_optimum(objectives) -> ReferenceOptimum:
    """Closed-form solution of the consensus problem ``min_x sum_i f_i(x)``.

    Quadratic family: aggregated normal equations.  KL family: normalized
    geometric mean of the reference distributions.  ``objectives`` is one
    family, as a list or stacked; the optimizer needs no graph.

    Raises
    ------
    SingularSystem
        If the aggregated quadratic system is not positive definite.
    """
    family = stacked_family(objectives)
    n, p = family.shape
    if family.domain == "simplex":
        log_mean = np.mean(np.log(family.reference), axis=0)
        weights = np.exp(log_mean - log_mean.max())
        x_star = weights / weights.sum()
    else:
        system = np.zeros((p, p))
        rhs = np.zeros(p)
        for hessian, shift in zip(family.hessian, family.shift):
            system += hessian
            rhs += shift
        evals = np.linalg.eigvalsh(system)
        if evals[0] <= p * np.finfo(float).eps * max(evals[-1], 0.0):
            raise SingularSystem("aggregated normal equations are singular; add a ridge")
        x_star = np.linalg.solve(system, rhs)
    f_star = stacked_value(family, np.tile(x_star, n))
    return ReferenceOptimum(x_star=x_star, f_star=f_star)


def projected_gradient_optimum(objectives) -> tuple[np.ndarray, float]:
    """Independent first-order solver for the consensus problem.

    Brute-force oracle: uses only values and gradients, never the closed
    forms or conjugates, so it can certify :func:`reference_optimum` outputs.
    ``objectives`` is one family, listed or stacked; every evaluation calls
    the bound family's ``values`` or ``gradients`` on one buffer that
    replicates the point to every block.  Both paths stop once a step moves
    the iterate by at most 1e-15 relative (roundoff level).

    Real domain: Polak-Ribiere+ conjugate gradient, restarted along ``-grad``
    off descent directions.  Its step is the secant step on the directional
    derivative between ``x`` and a point ``reach * (1 + |x|)`` along the
    direction (a quadratic's exact line minimum); ``reach`` doubles while the
    measured curvature is not positive, and a non-finite gradient stops it.

    Simplex: exponentiated gradient (mirror descent under the entropy),
    ``x <- x exp(-g / (2n))`` renormalized, where ``g`` is the summed
    gradient.  A sum of ``n`` KL terms is ``n``-smooth and ``n``-strongly
    convex relative to the entropy (Lu, Freund and Nesterov 2018), so this
    fixed step needs no line search or curvature estimate, and each step
    halves the distance to the optimum in log coordinates.  The step is
    ``1/(2n)`` and not ``1/n`` because a step of ``1/n`` lands on the
    normalized geometric mean at once, which is the closed form's own
    formula and would certify nothing.  A simplex family that is not a sum
    of KL terms gets no such contraction, so its certification fails (a
    deviation above 1e-9) rather than passing.
    """
    family = stacked_family(objectives)
    n, p = family.shape
    x = family.initial_point()
    replicated = np.empty((n, p))

    def total_value(v):
        replicated[:] = v
        return float(family.values(replicated).sum())

    def total_gradient(v):
        replicated[:] = v
        return family.gradients(replicated).sum(axis=0)

    def norm(v):
        return math.sqrt(v.dot(v))  # as np.linalg.norm computes it, without its checks

    if family.domain != "simplex":
        grad = total_gradient(x)
        direction, reach = -grad, 1.0
        for _ in range(_ORACLE_ITERATIONS):
            squared, slope = float(grad @ grad), float(grad @ direction)
            if not 0.0 < squared < math.inf:
                break  # a zero gradient, or a non-finite one
            if not slope < 0.0:  # not a descent direction: restart along -grad
                direction, slope = -grad, -squared
            trial = reach * (1.0 + norm(x)) / norm(direction)
            secant = float((total_gradient(x + trial * direction) - grad) @ direction)  # trial * curvature
            if not math.isfinite(secant):
                break
            if secant <= 0.0:
                reach *= 2.0
                continue
            step = (-slope * trial / secant) * direction
            new_grad = total_gradient(x + step)
            if not np.isfinite(new_grad).all():
                break
            x = x + step
            beta = max(float(new_grad @ (new_grad - grad)) / squared, 0.0)
            direction, grad = beta * direction - new_grad, new_grad
            if norm(step) <= 1e-15 * (1.0 + norm(x)):
                break
        return x, total_value(x)

    for _ in range(_ORACLE_ITERATIONS):
        grad = total_gradient(x)
        weights = x * np.exp((grad.min() - grad) / (2.0 * n))  # shifted so that no exponent is positive
        previous, x = x, weights / weights.sum()
        if norm(x - previous) <= 1e-15 * (1.0 + norm(x)):
            break
    return x, total_value(x)


def verify_reference(objectives, reference: ReferenceOptimum) -> float:
    """Distance between the closed-form optimum and the first-order oracle (one family, list or stacked)."""
    x_oracle, _ = projected_gradient_optimum(objectives)
    return float(np.linalg.norm(reference.x_star - x_oracle))


def _row_dots(a, b):
    """Row-wise dot products; matmul reduces each ``(1, m) @ (m, 1)`` with BLAS ``dot``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def evaluate_trace(
    x_block: np.ndarray,
    reference: ReferenceOptimum,
    graph: LaplacianGraph | None,
    objectives,
    stamps,
    lap: np.ndarray | None = None,
    hx: np.ndarray | None = None,
) -> list[MetricsRecord]:
    """Metric records of a ``(K, n p)`` block of stacked primal iterates.

    ``stamps[k]`` is the ``(iteration, comm_rounds, wall_time_ms)`` of row
    ``k``.  One array pass covers the block: the stacked values over its
    leading axis, the batched block Laplacian, and row-wise BLAS dot
    products, the same reductions a single row gets, so each record is
    bitwise independent of the rows it is batched with.  ``graph=None`` is
    allowed for replicated (consensus) stacks, whose consensus terms vanish
    identically; centralized baselines use this.  ``lap`` (``L x``) and
    ``hx`` (a quadratic family's ``H x``), blocks of ``x_block``'s shape
    that a run formed anyway (dgd, cgd), stand in for the pass's own.
    """
    x_block = np.asarray(x_block, dtype=float)
    p = reference.x_star.size
    rows, n = x_block.shape[0], x_block.shape[1] // p
    signed = stacked_value(objectives, x_block, hx) - reference.f_star
    if graph is None:
        norm = quad = np.zeros(rows)
    else:
        lap_x = laplacian_apply(graph, x_block, p) if lap is None else lap
        norm = np.sqrt(_row_dots(lap_x, lap_x))
        quad = _row_dots(x_block, lap_x)
        quad = np.where(quad < 0.0, 0.0, quad)  # max(quad, 0.0) row by row
    diff = (x_block.reshape(rows, n, -1) - reference.x_star).reshape(rows, -1)
    dist_sq = _row_dots(diff, diff)
    columns = zip(signed.tolist(), norm.tolist(), quad.tolist(), dist_sq.tolist())
    return [
        MetricsRecord(k, r, abs(s), c, q, d, ms, s)
        for (k, r, ms), (s, c, q, d) in zip(stamps, columns)
    ]


def evaluate_metrics(
    x_stack: np.ndarray,
    reference: ReferenceOptimum,
    graph: LaplacianGraph | None,
    objectives,
    iteration: int,
    comm_rounds: int,
    wall_time_ms: float = 0.0,
) -> MetricsRecord:
    """Metric record of one stacked primal iterate: the one-row :func:`evaluate_trace`."""
    x_block = np.asarray(x_stack, dtype=float)[None]
    stamp = (iteration, comm_rounds, wall_time_ms)
    return evaluate_trace(x_block, reference, graph, objectives, [stamp])[0]


#: Bytes of primal iterates a :class:`TraceRecorder` evaluates as one block:
#: 20 iterates at the desk shape (n = 20, p = 10), one at the paper shape.
TRACE_BLOCK_BYTES = 32 * 1024


@dataclass(eq=False)
class RunResult:
    """What every runner returns: its trace, end state and run facts.

    ``final_state`` holds one row per agent (the heavy-ball agent states, a
    baseline's primal blocks).  ``max_kernel_residual`` is the worst
    normalized agent-sum of the dual blocks over the run's iterates, taken
    by the recorder a block at a time (heavy ball and dual descent; None
    otherwise), and ``min_primal_entry`` the least primal entry evaluated,
    logged for simplex families only (None otherwise).  A run on a
    disjoint union of graphs holds in ``parts`` what each part's run alone
    returns; its own result has no records, a NaN step and the worst
    part's kernel residual.
    """

    records: list[MetricsRecord]
    final_state: np.ndarray
    comm_rounds: int
    resolved_step: float
    max_kernel_residual: float | None = None
    min_primal_entry: float | None = None
    dual_gaps: list[float] | None = field(default=None, repr=False)
    trajectory: np.ndarray | None = field(default=None, repr=False)
    parts: list[RunResult] = field(default_factory=list, repr=False)


class _PartTrace:
    """One graph part's rows, problem (a row slice of the run's family), records and run extremes."""

    def __init__(self, nodes, p, reference, graph, family, kernel):
        self.nodes, self.columns = nodes, slice(nodes.start * p, nodes.stop * p)
        self.graph, self.family = graph, family
        self.reference = reference if reference is not None else reference_optimum(family)
        self.records: list[MetricsRecord] = []
        self.min_entry: float | None = None
        self.max_kernel_residual = None if kernel is None else 0.0


class TraceRecorder:
    """A run's metric trace, evaluated by :func:`evaluate_trace` a block at a time.

    The run loop pushes its primal iterate once per iteration, and ends with
    :meth:`result`; a full block of :data:`TRACE_BLOCK_BYTES` (of the widest
    part) flushes on its own.  A run given ``kernel`` (its module's
    :func:`~dualrk.dynamics.kernel_residual`) pushes its agents' dual rows
    too, and a flush takes each part's residuals in one call over its
    ``(K, n_part, w)`` rows.  With ``on_record`` (one-graph runs only) every
    push flushes and hands the record to the callback before the run's next
    iteration starts.
    A push stamps ``wall_time_ms`` with the time since the previous push
    returned (or since the recorder was built), so the time spent in flushes
    and callbacks is left out of every iteration's time.  Orders run in
    lockstep have a recorder each, so a part's time covers the whole rounds
    it shares with the other orders, their pushes included (the CSVs write
    it only for ``run --timings``, and ``run`` runs one tableau).
    Each part of a disjoint-union ``graph`` is evaluated on its own columns,
    graph, objectives and ``reference`` (one for all parts or one per part;
    None is computed with :func:`reference_optimum`), as its run alone is.
    """

    def __init__(self, reference, graph, objectives, on_record=None, kernel=None):
        family = stacked_family(objectives)
        n, p = family.shape
        if graph is None:  # a replicated consensus stack: one part, no graph
            rows, references = ((slice(0, n), None),), [reference]
        else:
            rows, references = graph.part_rows, graph.per_part(reference)
        self.parts = [
            _PartTrace(nodes, p, ref, part, family[nodes], kernel) for (nodes, part), ref in zip(rows, references)
        ]
        if on_record is not None and len(self.parts) > 1:
            raise InvalidArgument(f"on_record takes a one-graph run, not a union of {len(self.parts)} parts")
        width = max(part.columns.stop - part.columns.start for part in self.parts)
        self.capacity = 1 if on_record is not None else max(1, TRACE_BLOCK_BYTES // (8 * width))
        self._rows: dict[str, np.ndarray] = {}  # a block per pushed argument, made at its first push
        self._kernel, self._block_dim = kernel, p
        self._stamps: list[tuple[int, int, float]] = []
        self._on_record = on_record
        self._rounds = 0
        self._clock = time.perf_counter()

    def push(self, x_stack, iteration: int, comm_rounds: int, duals=None, lap=None, hx=None) -> None:
        """Copy in one iteration's primal iterate, dual rows, products and time; flush once the block is full."""
        wall_time_ms = (time.perf_counter() - self._clock) * 1e3
        for name, rows in (("x", x_stack), ("duals", duals), ("lap", lap), ("hx", hx)):
            if rows is not None:
                if name not in self._rows:
                    self._rows[name] = np.empty((self.capacity, *np.shape(rows)))
                self._rows[name][len(self._stamps)] = rows
        self._stamps.append((iteration, comm_rounds, wall_time_ms))
        self._rounds = comm_rounds
        if len(self._stamps) == self.capacity:
            self.flush()
        self._clock = time.perf_counter()

    def flush(self) -> None:
        """Evaluate the pushed iterates into each part's records."""
        if self._stamps:
            count = len(self._stamps)
            rows = {name: block[:count] for name, block in self._rows.items()}
            for part in self.parts:
                # Contiguous copies, laid out as the part's own run lays out its block.
                columns = np.ascontiguousarray(rows["x"][:, part.columns])
                lap, hx = (
                    np.ascontiguousarray(rows[name][:, part.nodes]).reshape(count, -1) if name in rows else None
                    for name in ("lap", "hx")
                )
                records = evaluate_trace(columns, part.reference, part.graph, part.family, self._stamps, lap, hx)
                part.records.extend(records)
                if part.family.domain == "simplex":  # result() reads min_entry for simplex families only
                    low = float(columns.min())
                    part.min_entry = low if part.min_entry is None else min(part.min_entry, low)
                if self._kernel is not None:
                    residuals = self._kernel(rows["duals"][:, part.nodes], self._block_dim)
                    part.max_kernel_residual = max(part.max_kernel_residual, float(residuals.max()))
            self._stamps.clear()
            if self._on_record is not None:
                self._on_record(self.parts[0].records[-1])

    def result(self, final_state, steps, gaps=None, trajectory=None) -> RunResult:
        """Flush, and return the run's :class:`RunResult`: the one place a run is split into parts.

        ``final_state`` has a row per agent; ``steps`` and ``gaps`` (dual
        gaps) hold one entry per part.  The communication rounds are the
        last push's.
        """
        self.flush()
        results = [
            RunResult(
                part.records, final_state[part.nodes], self._rounds, step, part.max_kernel_residual,
                part.min_entry, part_gaps,
            )
            for part, step, part_gaps in zip(self.parts, steps, gaps or [None] * len(self.parts))
        ]
        if len(results) == 1:
            results[0].trajectory = trajectory
            return results[0]
        worst = None if self._kernel is None else max(part.max_kernel_residual for part in self.parts)
        return RunResult([], final_state, self._rounds, float("nan"), worst, trajectory=trajectory, parts=results)


def bind_run(graph: LaplacianGraph, objectives):
    """A distributed run's stacked family, degree-bucket plan and ``(n + 1, p)`` ``-0.0`` pad buffer.

    Raises ``DimensionMismatch`` unless there is one objective per node.
    """
    family = stacked_family(objectives)
    n, p = family.shape
    if n != graph.node_count:
        raise DimensionMismatch(f"{n} objectives for {graph.node_count} nodes")
    return family, graph.degree_buckets, np.full((n + 1, p), -0.0)


def check_finite(values, graph: LaplacianGraph | None, message: str, iteration: int) -> None:
    """Raise :class:`~dualrk.errors.NonFiniteState` with ``message`` unless ``values`` are finite.

    ``values`` holds as many entries per node of ``graph`` (None: one part);
    on a union the message and the error's ``parts`` name the diverged parts.
    """
    if np.isfinite(values).all():
        return
    if graph is None or not graph.parts:
        raise NonFiniteState(message, iteration=iteration, parts=(0,))
    finite = np.isfinite(np.reshape(values, (graph.node_count, -1))).all(axis=1)
    parts = tuple(i for i, (nodes, _) in enumerate(graph.part_rows) if not finite[nodes].all())
    raise NonFiniteState(f"{message} in union parts {list(parts)}", iteration=iteration, parts=parts)


def fit_rate(records, metric: str) -> RateFit:
    """Fit the tail log-log slope of a metric against communication rounds.

    The window is fixed: it drops the first 20 % of the round range
    (transient), and the first nonpositive point ends it early
    (solver-tolerance plateau); the fit then runs on the part before it.

    Raises
    ------
    NonPositiveMetric
        If no positive points remain in the window.
    InsufficientData
        If fewer than 50 usable points remain.
    """
    rounds = np.array([r.comm_rounds for r in records], dtype=float)
    values = np.array([getattr(r, metric) for r in records], dtype=float)
    if rounds.size == 0:
        raise InsufficientData("empty trace")
    cutoff = _FIT_WINDOW_START * rounds.max()
    mask = rounds > max(cutoff, 0.0)
    rounds, values = rounds[mask], values[mask]
    bad = np.flatnonzero(values <= _FIT_FLOOR)
    if bad.size:
        if bad[0] == 0:
            raise NonPositiveMetric(f"{metric} is nonpositive at the window start")
        rounds, values = rounds[: bad[0]], values[: bad[0]]
    if rounds.size < _FIT_MIN_POINTS:
        raise InsufficientData(
            f"{rounds.size} usable points in the tail window, need {_FIT_MIN_POINTS}"
        )
    log_r = np.log(rounds)
    log_v = np.log(values)
    slope, intercept = np.polyfit(log_r, log_v, 1)
    fitted = slope * log_r + intercept
    residual = float(np.sqrt(np.mean((log_v - fitted) ** 2)))
    return RateFit(
        metric=metric,
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        window=(float(rounds[0]), float(rounds[-1])),
        points=int(rounds.size),
    )


def write_metrics_csv(records, path, timings: bool = False) -> None:
    """Write a trace in the fixed column schema.

    Timing is volatile, so by default the ``wall_time_ms`` column is written
    as zero, which keeps reruns of a seeded experiment byte-identical; pass
    ``timings=True`` to record the measured values.  The bytes are those of
    ``csv.writer``: no field needs quoting, and rows end with ``\\r\\n``.
    """
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{int(rec.iteration)},{int(rec.comm_rounds)},{float(rec.suboptimality)!r},"
        f"{float(rec.consensus_L_norm)!r},{float(rec.consensus_quadratic)!r},"
        f"{float(rec.dist_to_optimum_sq)!r},{float(rec.wall_time_ms) if timings else 0.0!r}"
        for rec in records
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_metrics_csv(path) -> list[MetricsRecord]:
    """Read a trace written by :func:`write_metrics_csv`."""
    # CSV_COLUMNS names the record's first fields in order: two counts, then floats.
    counts, values = CSV_COLUMNS[:2], CSV_COLUMNS[2:]
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            MetricsRecord(*(int(row[c]) for c in counts), *(float(row[c]) for c in values))
            for row in csv.DictReader(fh)
        ]


def write_rate_fits_json(fits, path, extra: dict | None = None) -> None:
    """Write rate fits (and optional summary fields) as deterministic JSON."""
    payload = {"fits": [asdict(f) for f in fits]}
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

