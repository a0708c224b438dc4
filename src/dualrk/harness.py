"""Reference optima, metric evaluation and rate fitting, plus the run bind.

Everything downstream of a run lives here: the consensus-problem reference
solution (closed form certified by one gradient per member and the members'
strong-convexity moduli), the metric trace and its CSV schema, and log-log
slope fitting over trace tails.

A distributed run binds its family, degree-bucket plan and pad buffer once
with :func:`bind_run`, and the buffers its metrics read to a
:class:`TraceRecorder`, which times each iteration, evaluates the metrics a
block at a time and builds the :class:`RunResult` every runner returns.
Traces are unscaled: the CLI applies ``report_style = theorem1``.

A trace is a :class:`MetricsTrace`: seven contiguous columns (the two counts
as int64, the signed suboptimality, the three other metrics and the wall
time as float64), 56 bytes a row, read a column at a time.  The recorder
makes each part's columns once, at the length the run's iteration count
gives, and fills them a block at a time, so no column is ever copied to
grow.  The CSV writer writes the columns 128 rows at a time, and the reader
fills exact-length columns from ``csv.reader`` rows.  A record object per
row took about 320 bytes.  Peak RSS of ``reproduce fig3 --scale paper``
(seed 0, one BLAS thread, 2-vCPU Xeon, numpy 2.4.6) went from 48.1 to 45.7
MB at 4,000 rounds and from 52.4 to 46.9 MB at the full 10,000 when the
trace moved from records to columns.
"""

from __future__ import annotations

import csv
import itertools
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
    "MetricsTrace",
    "TRACE_COLUMNS",
    "RateFit",
    "ReferenceOptimum",
    "RunResult",
    "reference_optimum",
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

# The rate-fit window: the share of the round range dropped as transient, the
# fewest points a fit takes, and the value at or below which a point ends the
# window.
_FIT_WINDOW_START = 0.2
_FIT_MIN_POINTS = 50
_FIT_FLOOR = 0.0


#: The columns a :class:`MetricsTrace` holds: the CSV's, with the signed
#: suboptimality in place of its magnitude.
TRACE_COLUMNS = (*CSV_COLUMNS[:2], "suboptimality_signed", *CSV_COLUMNS[3:])
_COUNT_COLUMNS = TRACE_COLUMNS[:2]


class MetricsTrace:
    """A trace as one contiguous array per column of :data:`TRACE_COLUMNS`, one row per iteration.

    The signed suboptimality ``F(x_k) - F*`` is kept; :meth:`column` reads
    its magnitude (the usual figure axis) as ``suboptimality``.
    ``wall_time_ms`` is each iteration's own method time, stamped by
    :class:`TraceRecorder`.  ``columns`` maps every name of
    :data:`TRACE_COLUMNS` to a one-dimensional array-like, all of one length
    (else ``DimensionMismatch``), the trace's; each is taken as an array of
    its kind's dtype, int64 for the two counts (which must hold integers,
    else ``InvalidArgument``) and float64 for the rest, with no copy when it
    already is one.  None starts an empty trace with room for ``rows`` rows.
    """

    def __init__(self, columns=None, rows: int = 0):
        if columns is None:
            columns = {name: np.empty(rows, np.int64 if name in _COUNT_COLUMNS else float) for name in TRACE_COLUMNS}
            self._size = 0
        else:
            columns = {name: np.asarray(columns[name]) for name in TRACE_COLUMNS}
            wrong = {name: str(columns[name].dtype) for name in _COUNT_COLUMNS if columns[name].dtype.kind not in "iu"}
            if wrong:
                raise InvalidArgument(f"count columns take integers, not {wrong}")
            columns = {
                name: np.asarray(column, np.int64 if name in _COUNT_COLUMNS else float)
                for name, column in columns.items()
            }
            shapes = {name: column.shape for name, column in columns.items()}
            if len(set(shapes.values())) > 1 or len(shapes["iteration"]) != 1:
                raise DimensionMismatch(f"trace columns of unequal or not one-dimensional shapes: {shapes}")
            self._size = len(columns["iteration"])
        self._columns = columns

    def __len__(self) -> int:
        return self._size

    def column(self, name: str) -> np.ndarray:
        """A read-only view of the column ``name``, or the magnitude of the signed column for ``suboptimality``."""
        if name == "suboptimality":
            return np.abs(self.column("suboptimality_signed"))
        if name not in self._columns:
            raise InvalidArgument(f"a trace has no column {name!r}; it reads {['suboptimality', *TRACE_COLUMNS]}")
        view = self._columns[name][: self._size]
        view.flags.writeable = False
        return view

    def append(self, *blocks) -> None:
        """Append rows given as one equal-length block per column, in :data:`TRACE_COLUMNS` order.

        Rows fill the room the trace was made with; past it, every column
        is copied into one of exactly the new length, so a trace never holds
        more than its rows' storage once its room is full.
        """
        end = self._size + len(blocks[0])
        for name, block in zip(TRACE_COLUMNS, blocks, strict=True):
            column = self._columns[name]
            if end > len(column):
                grown = np.empty(end, column.dtype)
                grown[: self._size] = column[: self._size]
                self._columns[name] = column = grown
            column[self._size : end] = block
        self._size = end

    def replace(self, **columns) -> MetricsTrace:
        """A new trace with the given columns in place of this one's (the others are shared views).

        Raises ``InvalidArgument`` for a name outside :data:`TRACE_COLUMNS`.
        """
        unknown = sorted(columns.keys() - set(TRACE_COLUMNS))
        if unknown:
            raise InvalidArgument(f"not trace columns: {unknown}; a trace holds {list(TRACE_COLUMNS)}")
        return MetricsTrace({name: columns.get(name, self.column(name)) for name in TRACE_COLUMNS})


@dataclass(frozen=True, eq=False)
class ReferenceOptimum:
    """Shared optimizer ``x*`` of the consensus problem and its value ``F*``."""

    x_star: np.ndarray
    f_star: float


@dataclass
class RateFit:
    """Least-squares slope of ``log(metric)`` against ``log(comm_rounds)``, in closed form.

    ``residual`` is the root mean square of the fit's log residuals over
    the ``points`` points of the ``window`` (its first and last round).
    """

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
        If the aggregated quadratic system overflows or is not positive definite.
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
        with np.errstate(over="ignore", invalid="ignore"):  # the check below says so itself
            for hessian, shift in zip(family.hessian, family.shift):
                system += hessian
                rhs += shift
        if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
            raise SingularSystem("aggregated normal equations overflow; rescale the data or the ridge")
        evals = np.linalg.eigvalsh(system)
        if evals[0] <= p * np.finfo(float).eps * max(evals[-1], 0.0):
            raise SingularSystem("aggregated normal equations are singular; add a ridge")
        x_star = np.linalg.solve(system, rhs)
    f_star = stacked_value(family, np.tile(x_star, n))
    return ReferenceOptimum(x_star=x_star, f_star=f_star)


def verify_reference(objectives, reference: ReferenceOptimum) -> float:
    """Certified bound on ``||x* - argmin F||`` for the reference ``x*`` of one family, listed or stacked.

    The bound is ``||sum_i grad f_i(x*)|| / sum_i mu_i``, one call to each
    member's own ``gradient`` (the design form for least squares, so it
    shares no kernel with the stacked family the closed form reads) over
    the members' declared ``strong_convexity``.  On the simplex the summed
    gradient loses its mean first (its projection onto the tangent space),
    and a point that is not strictly positive or does not sum to 1 within
    1e-12 gets ``inf``.  It bounds the error because ``F`` is
    ``sum_i mu_i``-strongly convex along the domain, and ``grad F`` vanishes
    along it at the optimum.  A non-finite gradient gives a non-finite bound.
    """
    x = reference.x_star
    members = list(objectives)
    simplex = members[0].domain == "simplex"
    if simplex and not (np.all(x > 0.0) and abs(x.sum() - 1.0) <= 1e-12):
        return math.inf
    with np.errstate(all="ignore"):  # a non-finite bound fails the caller's gate, which says so itself
        grad = sum(obj.gradient(x) for obj in members)
        tangent = grad - grad.mean() if simplex else grad
        return float(np.linalg.norm(tangent)) / sum(obj.strong_convexity for obj in members)


def _row_dots(a, b):
    """Row-wise dot products; matmul reduces each ``(1, m) @ (m, 1)`` with BLAS ``dot``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def evaluate_trace(
    x_block: np.ndarray,
    reference: ReferenceOptimum,
    graph: LaplacianGraph | None,
    objectives,
    lap: np.ndarray | None = None,
    hx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Metric columns of a ``(K, n p)`` block of stacked primal iterates.

    Returns four ``(K,)`` arrays: the signed suboptimality ``F(x) - F*``, the
    consensus L-norm, the consensus quadratic and the squared distance to
    the optimum.  One array pass covers the block: the stacked values over
    its leading axis, the batched block Laplacian, and row-wise BLAS dot
    products, the same reductions a single row gets, so each row is bitwise
    independent of the rows it is batched with.  ``graph=None`` is allowed
    for replicated (consensus) stacks, whose consensus terms vanish
    identically; centralized baselines use this.  ``lap`` (``L x``) and
    ``hx`` (a quadratic family's ``H x``), blocks of ``x_block``'s shape
    that a run formed anyway (dgd, cgd), stand in for the pass's own.
    Overflow gives non-finite values, with numpy's warnings.
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
    return signed, norm, quad, _row_dots(diff, diff)


def evaluate_metrics(
    x_stack: np.ndarray,
    reference: ReferenceOptimum,
    graph: LaplacianGraph | None,
    objectives,
    iteration: int,
    comm_rounds: int,
    wall_time_ms: float = 0.0,
) -> MetricsTrace:
    """One stacked primal iterate's metrics as a one-row trace: the one-row :func:`evaluate_trace`."""
    trace = MetricsTrace(rows=1)
    columns = evaluate_trace(np.asarray(x_stack, dtype=float)[None], reference, graph, objectives)
    trace.append([iteration], [comm_rounds], *columns, [wall_time_ms])
    return trace


#: Bytes of primal iterates a :class:`TraceRecorder` evaluates as one block:
#: 20 iterates at the desk shape (n = 20, p = 10), one at the paper shape.
#: The blocks of the other bound buffers (the duals, ``L x`` and ``H x``),
#: of as many rows, come on top of the ``x`` block.
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
    returns; its own result has an empty trace, a NaN step and the worst
    part's kernel residual.  ``records`` is the run's :class:`MetricsTrace`,
    56 bytes a row in columns made at the run's iteration count.
    """

    records: MetricsTrace
    final_state: np.ndarray
    comm_rounds: int
    resolved_step: float
    max_kernel_residual: float | None = None
    min_primal_entry: float | None = None
    dual_gaps: list[float] | None = field(default=None, repr=False)
    trajectory: np.ndarray | None = field(default=None, repr=False)
    parts: list[RunResult] = field(default_factory=list, repr=False)


class _PartTrace:
    """One graph part's rows, problem (a row slice of the run's family), trace and run extremes."""

    def __init__(self, nodes, reference, graph, family, kernel, iterations):
        self.nodes, self.graph, self.family = nodes, graph, family
        self.reference = reference if reference is not None else reference_optimum(family)
        self.records = MetricsTrace(rows=iterations)
        self.min_entry: float | None = None
        self.max_kernel_residual = None if kernel is None else 0.0


class TraceRecorder:
    """A run's metric trace, evaluated by :func:`evaluate_trace` a block at a time.

    It is built on the buffers the metrics read, a row per agent each, which
    the run rewrites in place: the primal iterate ``x``, and those the run
    holds anyway of the agents' dual rows (``duals``), ``L x`` (``lap``) and
    a quadratic family's ``H x`` (``hx``); None binds nothing.  The run loop
    pushes once per iteration, which copies them into blocks made at the
    start, and ends with :meth:`result`; a full block of
    :data:`TRACE_BLOCK_BYTES` (of the widest part) flushes on its own.
    ``iterations``, the run's own iteration count, sizes each part's trace
    columns once, so a run that pushes that many times copies no column.  A
    run given ``kernel`` (its module's :func:`~dualrk.dynamics.kernel_residual`)
    binds its dual rows, and a flush takes each part's residuals in one call
    over its ``(K, n_part, w)`` rows.  With ``on_record`` (one-graph runs only) every
    push flushes and hands the part's :class:`MetricsTrace`, whose last row
    is the iteration just pushed, to the callback before the run's next
    iteration starts.
    A push stamps ``wall_time_ms`` with the time since the previous push
    returned (or since the recorder was built), so the time spent in flushes
    and callbacks is left out of every iteration's time.  Orders run in
    lockstep have a recorder each, so a part's time covers the whole rounds
    it shares with the other orders, their pushes included (the CSVs write
    it only for ``run --timings``, and ``run`` runs one tableau).
    Each part of a disjoint-union ``graph`` is evaluated on its own rows,
    graph, objectives and ``reference`` (one for all parts or one per part;
    None is computed with :func:`reference_optimum`), as its run alone is.
    A flush evaluates every block under one ``np.errstate`` and raises
    :class:`~dualrk.errors.NonFiniteState` at the first row with a
    non-finite metric, with its iteration and the parts whose row there
    is non-finite, counted from ``first_part`` (the index of the recorder's
    first part in a larger union the run belongs to).
    """

    def __init__(
        self, reference, graph, objectives, x, duals=None, lap=None, hx=None, *,
        iterations, on_record=None, kernel=None, first_part=0,
    ):
        family = stacked_family(objectives)
        n, p = family.shape
        if graph is None:  # a replicated consensus stack: one part, no graph
            rows, references = ((slice(0, n), None),), [reference]
        else:
            rows, references = graph.part_rows, graph.per_part(reference)
        self.parts = [
            _PartTrace(nodes, ref, part, family[nodes], kernel, iterations)
            for (nodes, part), ref in zip(rows, references)
        ]
        if on_record is not None and len(self.parts) > 1:
            raise InvalidArgument(f"on_record takes a one-graph run, not a union of {len(self.parts)} parts")
        width = max(part.nodes.stop - part.nodes.start for part in self.parts) * p
        self.capacity = 1 if on_record is not None else max(1, TRACE_BLOCK_BYTES // (8 * width))
        named = (("x", x), ("duals", duals), ("lap", lap), ("hx", hx))
        self._bound = {name: (buf, np.empty((self.capacity, *buf.shape))) for name, buf in named if buf is not None}
        self._kernel, self._block_dim, self._first_part = kernel, p, first_part
        self._stamps: list[tuple[int, int, float]] = []
        self._on_record = on_record
        self._rounds = 0
        self._clock = time.perf_counter()

    def push(self, iteration: int, comm_rounds: int) -> None:
        """Copy in the bound buffers and the iteration's time; flush once the block is full."""
        wall_time_ms = (time.perf_counter() - self._clock) * 1e3
        for buf, block in self._bound.values():
            block[len(self._stamps)] = buf
        self._stamps.append((iteration, comm_rounds, wall_time_ms))
        self._rounds = comm_rounds
        if len(self._stamps) == self.capacity:
            self.flush()
        self._clock = time.perf_counter()

    def flush(self) -> None:
        """Evaluate the pushed iterates into each part's trace."""
        if not self._stamps:
            return
        count = len(self._stamps)
        rows = {name: block[:count] for name, (_, block) in self._bound.items()}
        blocks = []
        with np.errstate(all="ignore"):  # a non-finite metric raises below
            for part in self.parts:
                # Contiguous copies, laid out as the part's own run lays out its block.
                x, lap, hx = (
                    np.ascontiguousarray(rows[name][:, part.nodes]).reshape(count, -1) if name in rows else None
                    for name in ("x", "lap", "hx")
                )
                blocks.append(evaluate_trace(x, part.reference, part.graph, part.family, lap, hx))
                if part.family.domain == "simplex":  # result() reads min_entry for simplex families only
                    low = float(x.min())
                    part.min_entry = low if part.min_entry is None else min(part.min_entry, low)
                if self._kernel is not None:
                    residuals = self._kernel(rows["duals"][:, part.nodes], self._block_dim)
                    part.max_kernel_residual = max(part.max_kernel_residual, float(residuals.max()))
        bad = ~np.isfinite(blocks).all(axis=1)  # (part, row)
        if bad.any():
            row = int(bad.any(axis=0).argmax())
            iteration = self._stamps[row][0]
            parts = tuple(self._first_part + int(i) for i in np.flatnonzero(bad[:, row]))
            where = f" in union parts {list(parts)}" if len(self.parts) > 1 else ""
            raise NonFiniteState(f"non-finite metric at iteration {iteration}{where}", iteration=iteration, parts=parts)
        iterations, rounds, times = zip(*self._stamps)
        for part, columns in zip(self.parts, blocks):
            part.records.append(iterations, rounds, *columns, times)
        self._stamps.clear()
        if self._on_record is not None:
            self._on_record(self.parts[0].records)

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
        return RunResult(
            MetricsTrace(), final_state, self._rounds, float("nan"), worst, trajectory=trajectory, parts=results,
        )


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


def fit_rate(trace: MetricsTrace, metric: str) -> RateFit:
    """Fit the tail log-log slope of a trace's ``metric`` column against communication rounds.

    The window is fixed: it drops the first 20 % of the round range
    (transient), and the first nonpositive point ends it early
    (solver-tolerance plateau); the fit then runs on the part before it.
    The fit is degree-1 least squares in closed form: the slope is
    ``sum(c (y - mean y)) / sum(c c)`` with ``c = x - mean x``, formed with
    numpy's summing reductions, so the fit's bytes depend on neither LAPACK
    nor the BLAS thread count.

    Raises
    ------
    InvalidArgument
        If ``metric`` names no column of the trace.
    NonPositiveMetric
        If no positive points remain in the window.
    NonFiniteState
        If the window holds an infinite or NaN value, which has no slope.
    InsufficientData
        If fewer than 50 usable points remain, or all of them are at one round.
    """
    rounds = trace.column("comm_rounds").astype(float)
    values = trace.column(metric)
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
    infinite = np.flatnonzero(~np.isfinite(values))
    if infinite.size:
        first = infinite[0]
        raise NonFiniteState(f"{metric} is {float(values[first])!r} at round {rounds[first]:.0f} in the fit window")
    if rounds.size < _FIT_MIN_POINTS:
        raise InsufficientData(
            f"{rounds.size} usable points in the tail window, need {_FIT_MIN_POINTS}"
        )
    if rounds.min() == rounds.max():
        raise InsufficientData(f"all {rounds.size} points of the tail window are at round {rounds[0]:.0f}")
    log_r = np.log(rounds)
    log_v = np.log(values)
    mean_r, mean_v = log_r.mean(), log_v.mean()
    centred = log_r - mean_r
    slope = np.sum(centred * (log_v - mean_v)) / np.sum(centred * centred)
    intercept = mean_v - slope * mean_r
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


# Rows formatted per write: a chunk's columns and the text of its rows are all a write holds.
_CSV_CHUNK_ROWS = 128


def write_metrics_csv(trace: MetricsTrace, path, timings: bool = False) -> None:
    """Write a trace in the fixed column schema.

    Timing is volatile, so by default the ``wall_time_ms`` column is written
    as zero, which keeps reruns of a seeded experiment byte-identical; pass
    ``timings=True`` to record the measured values.  Each float is written
    as its ``repr`` and each count as an integer; the bytes are those of
    ``csv.writer``: no field needs quoting, and rows end with ``\r\n``.
    Rows are formatted from the columns a chunk at a time; the
    suboptimality magnitude and zero wall times are formed a chunk at a
    time too, so a write holds no column of the trace's length.
    """
    columns = [trace.column(name) for name in TRACE_COLUMNS]  # views, the signed column in place of the magnitude
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [column[start : start + _CSV_CHUNK_ROWS] for column in columns]
            chunk[2] = np.abs(chunk[2])
            if not timings:
                chunk[-1] = np.zeros(len(chunk[-1]))
            # A list, not a generator: star-unpacking a generator leaves one more 7-tuple per chunk on
            # CPython's tuple freelist (up to 2,000 of them), so the peak would grow with the trace.
            rows = zip(*[column.tolist() for column in chunk])
            fh.writelines(f"{k},{r},{s!r},{c!r},{q!r},{d!r},{ms!r}\r\n" for k, r, s, c, q, d, ms in rows)


def read_metrics_csv(path) -> MetricsTrace:
    """Read a trace written by :func:`write_metrics_csv`.

    The CSV holds the suboptimality's magnitude only, so the trace's signed
    column holds that magnitude.  The file's lines are counted first, and
    its rows fill columns of that length 128 rows at a time.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
        fh.seek(0)
        reader = filter(None, csv.reader(fh))  # no blank lines, as csv.DictReader
        header = next(reader, CSV_COLUMNS)
        fields = [header.index(name) for name in CSV_COLUMNS]
        kinds = [int if name in _COUNT_COLUMNS else float for name in TRACE_COLUMNS]
        trace = MetricsTrace(rows=max(lines - 1, 0))
        while chunk := list(itertools.islice(reader, _CSV_CHUNK_ROWS)):
            columns = list(zip(*chunk))
            trace.append(*[list(map(kind, columns[i])) for kind, i in zip(kinds, fields)])
    return trace


def write_rate_fits_json(fits, path, extra: dict | None = None) -> None:
    """Write rate fits (and optional summary fields) as deterministic JSON."""
    payload = {"fits": [asdict(f) for f in fits]}
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

