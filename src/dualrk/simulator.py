"""Synchronous-round network simulator for the distributed heavy-ball method.

One iteration runs ``S`` communication rounds, one per integrator stage.  In
a round every agent forms its stage point from its own state and previously
stored stage derivatives, solves its local conjugate there, broadcasts the
solution to its neighbors, and, after the synchronous barrier, evaluates its
slice of the vector field.  After the last stage each agent applies the
weighted Runge-Kutta combination locally.  The only inter-agent coupling is
the per-stage broadcast.

One loop runs every round, as three array operations over the ``(n, 2p + 1)``
agent states: one :func:`~dualrk.objectives.stacked_conjugate` over the
stage points, one :func:`~dualrk.graph.laplacian_rows` (the broadcast and
neighbor sum), and one :func:`~dualrk.dynamics.round_field`.  Row ``i`` of
each is agent ``i``'s own computation, so any schedule honoring the stage
barrier gives the same result.  On a :func:`~dualrk.graph.disjoint_union`
one round serves every part, each at its own step (a per-row array: a
broadcast multiply is the same IEEE operation per element) and, in
:func:`run_heavy_ball_orders`, at its own stage of its own tableau (a part
that has finished sits idle), so each part's result is its run alone's.
The conjugate solved at an iteration's end state (the primal iterate its
metrics use) is reused as the first stage of the next iteration, so each
part still solves ``n (S N + 1)`` conjugate rows, each followed by its
``L x``.  Each part's :class:`~dualrk.harness.TraceRecorder` is built on its
rows of the broadcast, ``L x`` and ``[v_hat, y_hat]``, which a push copies;
it times the iteration and, a block at a time (or before the next iteration
when ``on_record`` is given), evaluates the metric records and the
kernel-sum residual.

A run binds its family, plan and buffers once (:func:`~dualrk.harness.bind_run`)
and every kernel writes into them through ``out=`` (README's determinism
note).  The engine's reference paths are in :mod:`dualrk.oracles`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import harness
# agent_field is not called here: perfbench/tracer.py patches simulator.agent_field.
from .dynamics import agent_field, initial_agent_states, kernel_residual, round_field, stack_agent_states
from .errors import InvalidArgument
from .graph import LaplacianGraph, laplacian_rows
from .integrator import ButcherTableau, rk_combine
from .objectives import stacked_conjugate

__all__ = ["step_size", "suggested_h0", "run_heavy_ball", "run_heavy_ball_orders"]


def step_size(h0: float, num_iterations: int, order: int) -> float:
    """Resolve the run step ``h = h0 * N**(-s/(s+1))``; bad input raises ``InvalidArgument``."""
    if not 0.0 < h0 < np.inf:  # NaN fails too
        raise InvalidArgument("h0 must be positive and finite")
    if num_iterations < 1:
        raise InvalidArgument("num_iterations must be at least 1")
    return h0 * float(num_iterations) ** (-order / (order + 1.0))


# Fraction of the linear-stability limit targeted per integrator order.  The
# first- and second-order methods have no imaginary-axis stability interval
# and survive only on the time-decaying damping, hence the smaller factors.
_SAFETY_BY_ORDER = {1: 0.05, 2: 0.35, 4: 0.65}


def suggested_h0(
    graph: LaplacianGraph,
    objectives,
    tableau: ButcherTableau,
    num_iterations: int,
    safety: float | None = None,
) -> float:
    """Stability-targeted ``h0`` so the resolved step sits near the usable limit.

    The transformed dynamics oscillate at frequencies up to
    ``2 sqrt(lambda_max(L) / mu)``; the resolved step is aimed at ``safety``
    times the inverse of that, then mapped back through the ``N`` scaling.
    Heuristic (as is any ``h0`` policy here): runs that still diverge raise
    :class:`~dualrk.errors.NonFiniteState` rather than silently clipping.
    """
    if safety is None:
        safety = _SAFETY_BY_ORDER.get(tableau.order, 0.3)
    mu = min(obj.strong_convexity for obj in objectives)
    target_step = safety / (2.0 * np.sqrt(graph.lambda_max / mu))
    return target_step * float(num_iterations) ** (tableau.order / (tableau.order + 1.0))


def run_heavy_ball(
    graph: LaplacianGraph,
    objectives,
    tableau: ButcherTableau,
    num_iterations: int,
    h0: float,
    reference: harness.ReferenceOptimum | None = None,
    keep_trajectory: bool = False,
    on_record=None,
) -> harness.RunResult:
    """Execute the distributed method for ``num_iterations`` iterations.

    Deterministic given graph, objectives, and parameters; each round runs
    for all agents at once, as the module docstring describes.

    Parameters
    ----------
    h0 : float or sequence of float
        Base step (one per part of a union graph, or one for all); the
        resolved step is ``h0 * N**(-s/(s+1))``.
        :func:`suggested_h0` gives one near the stability limit.
    reference : ReferenceOptimum or sequence, optional
        Precomputed reference optimum (like ``h0``, per part or for all);
        computed on the fly when omitted.
    on_record : callable, optional
        Metric sink invoked with each :class:`~dualrk.harness.MetricsRecord`
        before the next iteration starts; a one-graph run only (a union of
        several parts raises ``InvalidArgument``).

    Raises
    ------
    InvalidArgument, DimensionMismatch
        For an ``h0`` that is not positive and finite, or not one objective per node.
    NonFiniteState
        With the failing iteration index (and diverged parts) if a stage
        derivative or state leaves the finite range (diagnoses a too-large
        ``h0``).
    """
    cohort = (slice(0, graph.node_count), graph, tableau, num_iterations, h0, reference)
    return _run_lockstep(graph, objectives, [cohort], keep_trajectory, on_record)[0]


def run_heavy_ball_orders(graph: LaplacianGraph, objectives, tableaus, num_iterations, h0, reference=None):
    """:func:`run_heavy_ball` on each part of a union at its own tableau, in shared rounds.

    ``tableaus`` has one entry per part of ``graph``; ``num_iterations``,
    ``h0`` and ``reference`` one per part or one for all.  Returns one
    :class:`~dualrk.harness.RunResult` per part, bitwise its run alone's.
    """
    values = [graph.per_part(value) for value in (tableaus, num_iterations, h0, reference)]
    return _run_lockstep(graph, objectives, [(*part, *row) for part, *row in zip(graph.part_rows, *values)])


class _Cohort:
    """Consecutive rows at one tableau: their steps, recorder, and views of the run's buffers."""

    def __init__(
        self, rows, graph, tableau, num_iterations, h0, reference, family, slab, broadcast, lap, on_record, first_part,
    ):
        self.rows, self.stages, self.num_iterations = rows, tableau.stages, num_iterations
        # Every part's h0 is checked; a zero-iteration run returns the initial state and no step.
        steps = [step_size(part_h0, num_iterations or 1, tableau.order) for part_h0 in graph.per_part(h0)]
        self.steps = steps if num_iterations else [float("nan")] * len(steps)
        self.h = graph.node_values(self.steps)
        self.points, self.state = slab[0, rows], slab[-1, rows]
        # A record reads the broadcast (its x), the agents' [v_hat, y_hat] rows and the round-end L x.
        self.recorder = harness.TraceRecorder(
            reference, graph, family[rows], broadcast[rows], self.state[:, : 2 * broadcast.shape[1]], lap[rows],
            iterations=num_iterations, on_record=on_record, kernel=kernel_residual, first_part=first_part,
        )
        # Per ring slot, the combine after its round: ``(weights, stage derivatives, out, check)``.  An
        # iteration's last stage writes the state and checks its derivatives and the state (and slots
        # in between, which earlier checks found finite); any other writes the next stage point.
        self.slots = []
        for slot in range(len(slab) - 2):
            start, stage = slot - slot % self.stages, slot % self.stages + 1
            derivs = slab[1 + start : 1 + start + self.stages, rows]
            if stage < self.stages:
                self.slots.append((tableau.a[stage], derivs, self.points, None))
            else:
                self.slots.append((tableau.b, derivs, self.state, slab[1 + start :, rows]))


def _run_lockstep(graph: LaplacianGraph, objectives, cohorts, keep_trajectory=False, on_record=None):
    """The round loop; ``cohorts`` lists ``(rows, graph, tableau, N, h0, reference)`` in row order."""
    n = graph.node_count
    if n == 1:
        warnings.warn("single-node network: Laplacian is zero (smoke-test only)", stacklevel=3)
    # Bound once per run: the pad buffer's first n rows take the broadcasts, and one slab holds the
    # stage points, a ring of derivative slots indexed by round, and the states.
    family, plan, padded = harness.bind_run(graph, objectives)
    p = family.shape[1]
    period = math.lcm(*(cohort[2].stages for cohort in cohorts))
    slab = np.zeros((period + 2, n, 2 * p + 1))
    points, ring = slab[0], slab[1:-1]
    points[:] = slab[-1] = initial_agent_states(n, p)
    y_hat, broadcast, lap_rows = points[:, p : 2 * p], padded[:n], np.empty((n, p))
    starts = [nodes.start for nodes, _ in graph.part_rows]  # a cohort's first part: the union part at its first row
    cohorts = [
        _Cohort(*cohort, family, slab, broadcast, lap_rows, on_record, starts.index(cohort[0].start))
        for cohort in cohorts
    ]
    active = [cohort for cohort in cohorts if cohort.num_iterations]
    ends = {cohort.stages * cohort.num_iterations for cohort in active}
    trajectory = [stack_agent_states(cohorts[0].state, p)] if keep_trajectory else None

    # Divergence is detected and raised as NonFiniteState; the transient
    # overflow warnings numpy would emit on the way there are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # Every part starts at stage 0: the conjugate at its state, and its broadcast.
        stacked_conjugate(family, y_hat, out=broadcast)
        laplacian_rows(plan, padded, lap_rows)
        for r in range(max(ends, default=0)):
            slot, ended, finite = r % period, [], False
            try:
                # The broadcast round formed last round, then every agent's field slice.
                round_field(points, lap_rows, ring[slot])
                for cohort in active:
                    weights, derivs, out, covered = cohort.slots[slot]
                    rk_combine(cohort.state, cohort.h, weights, derivs, out=out)
                    if covered is None:
                        continue
                    if not np.isfinite(covered).all():
                        break  # one check per iteration
                    ended.append(cohort)
                    np.copyto(cohort.points, cohort.state)  # the next iteration's first stage point
                else:  # the next round's broadcast: an ended iteration's record reads it
                    stacked_conjugate(family, y_hat, out=broadcast)
                    laplacian_rows(plan, padded, lap_rows)
                    finite = True
            finally:  # a failure (or a round that raised) seeks its part and stage, on the union's rows
                for cohort in active if not finite else ():
                    k, seen = r // cohort.stages + 1, np.zeros((cohort.stages + 1, n, 2 * p + 1))
                    seen[:-1, cohort.rows], seen[-1, cohort.rows] = cohort.slots[slot][1], cohort.state
                    where = [f"stage derivative at iteration {k}, stage {l + 1}" for l in range(cohort.stages)]
                    for values, what in zip(seen, where + [f"state at iteration {k}"]):
                        harness.check_finite(values, graph, f"non-finite {what}", k)

            for cohort in ended:
                cohort.recorder.push((r + 1) // cohort.stages, r + 1)
                if trajectory is not None:
                    trajectory.append(stack_agent_states(cohort.state, p))
            if r + 1 in ends:
                active = [cohort for cohort in active if cohort.stages * cohort.num_iterations > r + 1]

    trajectory = np.array(trajectory) if trajectory is not None else None
    return [cohort.recorder.result(cohort.state.copy(), cohort.steps, trajectory=trajectory) for cohort in cohorts]

