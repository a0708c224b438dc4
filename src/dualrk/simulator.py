"""Synchronous-round network simulator for the distributed heavy-ball method.

One iteration runs ``S`` communication rounds, one per integrator stage.  In
a round every agent forms its stage point from its own state and previously
stored stage derivatives, solves its local conjugate there, broadcasts the
solution to its neighbors, and, after the synchronous barrier, evaluates its
slice of the vector field.  After the last stage each agent applies the
weighted Runge-Kutta combination locally.  The only inter-agent coupling is
the per-stage broadcast.

:func:`run_heavy_ball` executes a round as three array operations over the
``(n, 2p + 1)`` agent states: one :func:`~dualrk.objectives.stacked_conjugate`
over the stage points, one :func:`~dualrk.graph.laplacian_rows` (the
broadcast and neighbor sum), and one :func:`~dualrk.dynamics.round_field`.
Row ``i`` of each operation is agent ``i``'s own computation, so any
schedule honoring the stage barrier gives the same result.  The conjugate
solved at an iteration's end state (the primal iterate its metrics use) is
reused as the first stage of the next iteration, which starts at that same
state, so a run makes ``n (S N + 1)`` conjugate evaluations.  Each
iteration pushes that iterate and the agents' ``[v_hat, y_hat]`` rows into
a :class:`~dualrk.harness.TraceRecorder`, which times the iteration and,
a block at a time (or before the next iteration when ``on_record`` is
given), evaluates the metric records and the kernel-sum residual.

On a :func:`~dualrk.graph.disjoint_union` one round serves every part,
each at its own step (a per-row array: a broadcast multiply is the same
IEEE operation per element), so each part's result is its run alone's.

At the desk shape a round costs numpy per-call overhead more than
arithmetic, so a run binds its family, plan and buffers once
(:func:`~dualrk.harness.bind_run`), and every kernel writes into them
through ``out=``: the conjugate solves the stage points' strided ``y_hat``
straight into the pad buffer's first ``n`` rows (the broadcasts).
The stage derivatives and the end state share one ``(S + 1, n, 2p + 1)``
slab, so one finiteness check covers an iteration (a zero-weight stage,
which :func:`~dualrk.integrator.rk_combine` skips, included); only a
failure seeks its stage.  A result copies the state it returns.

Two reference paths check the engine:

- :func:`run_heavy_ball_per_agent` is the per-agent oracle: one
  ``conjugate_argmax`` call per agent, then :func:`~dualrk.dynamics.agent_field`
  per agent over the mailbox of broadcasts, with no stacked evaluation and
  no Laplacian apply.
- :func:`run_heavy_ball_monolithic` integrates the single-vector field
  :func:`~dualrk.dynamics.heavy_ball_field` with
  :func:`~dualrk.integrator.integrate`.

Both return only the stacked trajectory.  All three combine stages with
:func:`~dualrk.integrator.rk_combine`, and the tests and the invariant
suite require trajectories equal to 1e-12 relative.  In fact they agree
bitwise whenever ``p >= 2``; at ``p = 1`` the per-agent oracle's numpy
neighbor sum may run pairwise.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import harness
from .dynamics import (
    agent_field,
    heavy_ball_field,
    initial_agent_states,
    kernel_residual,
    round_field,
    stack_agent_states,
)
from .errors import InvalidArgument
from .graph import LaplacianGraph, laplacian_rows
from .integrator import ButcherTableau, integrate, rk_combine
from .objectives import stacked_conjugate

__all__ = [
    "step_size",
    "suggested_h0",
    "run_heavy_ball",
    "run_heavy_ball_per_agent",
    "run_heavy_ball_monolithic",
]


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
    n = graph.node_count
    if n == 1:
        warnings.warn("single-node network: Laplacian is zero (smoke-test only)", stacklevel=2)
    # Every part's h0 is checked; a zero-iteration run returns the initial state and no step.
    steps = [step_size(part_h0, num_iterations or 1, tableau.order) for part_h0 in graph.per_part(h0)]
    steps = steps if num_iterations else [float("nan")] * len(steps)
    h = graph.node_values(steps)
    stages = tableau.stages
    a, b = tableau.a, tableau.b
    # Bound once per run: the pad buffer's first n rows take the broadcasts, and one
    # slab holds the stage derivatives and then the state (one finiteness check).
    family, plan, padded = harness.bind_run(graph, objectives)
    p = family.shape[1]
    lap_rows, broadcast, points = np.empty((n, p)), padded[:n], np.empty((n, 2 * p + 1))
    slab = np.zeros((stages + 1, n, 2 * p + 1))
    derivs, states = slab[:stages], slab[stages]
    states[:] = initial_agent_states(n, p)
    # Per stage: its point (stage 0 sits at the state), the point's y_hat columns, its derivative slot.
    stage_rows = [(x, x[:, p : 2 * p], slot) for x, slot in zip([states] + [points] * (stages - 1), derivs)]
    state_y_hat, duals, x_stack = stage_rows[0][1], states[:, : 2 * p], broadcast.reshape(-1)
    recorder = harness.TraceRecorder(reference, graph, family, on_record, kernel_residual)
    trajectory = [stack_agent_states(states, p)] if keep_trajectory else None
    rounds = 0

    # Divergence is detected and raised as NonFiniteState; the transient
    # overflow warnings numpy would emit on the way there are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # Stage 0 of every iteration sits at the current state, whose
        # conjugate the previous iteration already solved for its metrics.
        stacked_conjugate(family, state_y_hat, out=broadcast)
        for k in range(1, num_iterations + 1):
            finite = False
            try:
                for l, (point, y_hat, slot) in enumerate(stage_rows):
                    if l:
                        rk_combine(states, h, a[l], derivs, out=point)
                        stacked_conjugate(family, y_hat, out=broadcast)
                    # One broadcast round, then every agent's field slice.
                    rounds += 1
                    round_field(point, laplacian_rows(plan, padded, lap_rows), slot)
                rk_combine(states, h, b, derivs, out=states)
                finite = np.isfinite(slab).all()
            finally:  # one check per iteration; a failure (or a stage that raised) seeks its stage
                if not finite:
                    for l in range(stages):
                        message = f"non-finite stage derivative at iteration {k}, stage {l + 1}"
                        harness.check_finite(derivs[l], graph, message, k)
                    harness.check_finite(states, graph, f"non-finite state at iteration {k}", k)

            stacked_conjugate(family, state_y_hat, out=broadcast)
            recorder.push(x_stack, k, rounds, duals)
            if trajectory is not None:
                trajectory.append(stack_agent_states(states, p))

    trajectory = np.array(trajectory) if trajectory is not None else None
    return recorder.result(states.copy(), steps, trajectory=trajectory)


def run_heavy_ball_per_agent(
    graph: LaplacianGraph,
    objectives,
    tableau: ButcherTableau,
    num_iterations: int,
    h0: float,
) -> np.ndarray:
    """Stacked trajectory of the per-agent reference round (test oracle).

    Runs the rounds agent by agent through a mailbox of broadcasts (see the
    module docstring), solving ``S + 1`` sweeps per iteration, and returns
    the ``(num_iterations + 1, 2np + 1)`` trajectory in the monolithic layout.
    """
    n = graph.node_count
    p = objectives[0].dim
    h = step_size(h0, num_iterations, tableau.order)
    a, b = tableau.a, tableau.b
    states = initial_agent_states(n, p)
    derivs = np.zeros((tableau.stages, n, 2 * p + 1))
    mailbox = np.empty((n, p))
    trajectory = [stack_agent_states(states, p)]
    for _ in range(num_iterations):
        for l in range(tableau.stages):
            points = states if l == 0 else rk_combine(states, h, a[l], derivs)
            for i in range(n):
                mailbox[i] = objectives[i].conjugate_argmax(points[i, p : 2 * p])
            for i in range(n):
                derivs[l, i] = agent_field(graph, i, points[i], mailbox[i], mailbox)
        states = rk_combine(states, h, b, derivs)
        trajectory.append(stack_agent_states(states, p))
    return np.array(trajectory)


def run_heavy_ball_monolithic(
    graph: LaplacianGraph,
    objectives,
    tableau: ButcherTableau,
    num_iterations: int,
    h0: float,
) -> np.ndarray:
    """Stacked trajectory of the single-vector reference path (test oracle).

    Integrates the monolithic field :func:`~dualrk.dynamics.heavy_ball_field`
    with :func:`~dualrk.integrator.integrate`; returns the
    ``(num_iterations + 1, 2np + 1)`` trajectory, which must agree with
    :func:`run_heavy_ball`'s to roundoff.
    """
    h = step_size(h0, num_iterations, tableau.order) if num_iterations else float("nan")
    p = objectives[0].dim
    state = stack_agent_states(initial_agent_states(graph.node_count, p), p)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        return integrate(tableau, heavy_ball_field(graph, objectives), state, h, num_iterations)
