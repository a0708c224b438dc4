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
over the stage points, one :func:`~dualrk.graph.laplacian_apply` (the
broadcast and neighbor sum), and one :func:`~dualrk.dynamics.round_field`.
Row ``i`` of each operation is agent ``i``'s own computation, so any
schedule honoring the stage barrier gives the same result.  The conjugate
solved at an iteration's end state (the primal iterate its metrics use) is
reused as the first stage of the next iteration, which starts at that same
state, so a run makes ``n (S N + 1)`` conjugate evaluations.  The metric
records of those iterates are evaluated in blocks by a
:class:`~dualrk.harness.TraceRecorder`, or before the next iteration starts
when ``on_record`` is given; the recorder also times each iteration.

On a :func:`~dualrk.graph.disjoint_union` one round serves every part,
each at its own step (a per-row array: a broadcast multiply is the same
IEEE operation per element), so each part's result is its run alone's.

At the desk shape a round costs numpy per-call overhead more than
arithmetic, so each round writes its stage derivatives into its slot of one
``(S, n, 2p + 1)`` array allocated per run, and the kernels it calls keep
their own per-call work small (see :func:`~dualrk.objectives.stacked_conjugate`
and :func:`~dualrk.graph.laplacian_apply`).

Two reference paths check the engine:

- :func:`run_heavy_ball_per_agent` is the per-agent oracle: one
  ``conjugate_argmax`` call per agent, then :func:`~dualrk.dynamics.agent_field`
  per agent over the mailbox of broadcasts, with no stacked evaluation and
  no Laplacian apply.
- :func:`run_heavy_ball_monolithic` integrates the single-vector field
  :func:`~dualrk.dynamics.heavy_ball_field` with
  :func:`~dualrk.integrator.integrate`.

Both oracles return only the stacked trajectory; the engine returns a
:class:`~dualrk.harness.RunResult`, like every baseline.

All three combine stages with :func:`~dualrk.integrator.rk_combine`, and
the tests and the invariant suite require trajectories equal to 1e-12
relative.  In fact they agree bitwise whenever ``p >= 2``; at ``p = 1``
the per-agent oracle's numpy neighbor sum may run pairwise.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import harness
from .dynamics import (
    agent_field,
    heavy_ball_field,
    initial_agent_states,
    initial_stacked_state,
    kernel_residual,
    round_field,
    stack_agent_states,
)
from .graph import LaplacianGraph, laplacian_apply
from .integrator import ButcherTableau, integrate, rk_combine
from .objectives import stacked_conjugate

__all__ = [
    "step_size",
    "suggested_h0",
    "primal_extract",
    "run_heavy_ball",
    "run_heavy_ball_per_agent",
    "run_heavy_ball_monolithic",
]


def step_size(h0: float, num_iterations: int, order: int) -> float:
    """Resolve the run step ``h = h0 * N**(-s/(s+1))``."""
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    if num_iterations < 1:
        raise ValueError("num_iterations must be at least 1")
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


def primal_extract(agent_states: np.ndarray, objectives) -> np.ndarray:
    """Stacked conjugate solutions at the dual blocks of per-agent states.

    At an iteration's end state this is the primal iterate all metrics are
    computed on; each block is an agent-local computation.
    """
    block_dim = objectives[0].dim
    y_hat = np.asarray(agent_states)[:, block_dim : 2 * block_dim].reshape(-1)
    return stacked_conjugate(objectives, y_hat)


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

    Deterministic given graph, objectives, and parameters.  Each round is
    executed for all agents at once (see the module docstring); row ``i``
    of every operation reads only agent ``i``'s state and its neighbors'
    broadcasts from the same round.

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
    NonFiniteState
        With the failing iteration index (and diverged parts) if a stage
        derivative or state leaves the finite range (diagnoses a too-large
        ``h0``).
    """
    n = graph.node_count
    p = objectives[0].dim
    if len(objectives) != n:
        raise ValueError(f"{len(objectives)} objectives for {n} nodes")
    if n == 1:
        warnings.warn("single-node network: Laplacian is zero (smoke-test only)", stacklevel=2)
    # A zero-iteration run returns the initial state and no step.
    steps = [
        step_size(part_h0, num_iterations, tableau.order) if num_iterations else float("nan")
        for part_h0 in graph.per_part(h0)
    ]
    h = graph.node_values(steps)
    stages = tableau.stages
    a, b = tableau.a, tableau.b

    states = initial_agent_states(n, p)
    # Every round writes its stage derivatives into its slot of this array.
    derivs = np.empty((stages, n, 2 * p + 1))
    recorder = harness.TraceRecorder(reference, graph, objectives, on_record)
    trajectory = [stack_agent_states(states, p)] if keep_trajectory else None
    rounds = 0
    max_kres = [0.0] * len(steps)

    # Divergence is detected and raised as NonFiniteState; the transient
    # overflow warnings numpy would emit on the way there are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # Stage 0 of every iteration sits at the current state, whose
        # conjugate the previous iteration already solved for its metrics.
        x_stack = primal_extract(states, objectives)
        for k in range(1, num_iterations + 1):
            for l in range(stages):
                if l == 0:
                    points, x_star = states, x_stack
                else:
                    points = rk_combine(states, h, a[l], derivs)
                    x_star = primal_extract(points, objectives)
                # One broadcast round, then every agent's field slice.
                rounds += 1
                round_field(points, laplacian_apply(graph, x_star, p).reshape(n, p), derivs[l])
                harness.check_finite(
                    derivs[l], graph, f"non-finite stage derivative at iteration {k}, stage {l + 1}", k
                )
            states = rk_combine(states, h, b, derivs)
            harness.check_finite(states, graph, f"non-finite state at iteration {k}", k)

            for i, (nodes, part) in enumerate(graph.part_rows):
                part_kres = kernel_residual(stack_agent_states(states[nodes], p), part.node_count, p)
                max_kres[i] = max(max_kres[i], part_kres)
            x_stack = primal_extract(states, objectives)
            recorder.push(x_stack, k, rounds)
            if trajectory is not None:
                trajectory.append(stack_agent_states(states, p))

    trajectory = np.array(trajectory) if trajectory is not None else None
    return recorder.result(states, steps, max_kres, trajectory=trajectory)


def run_heavy_ball_per_agent(
    graph: LaplacianGraph,
    objectives,
    tableau: ButcherTableau,
    num_iterations: int,
    h0: float,
) -> np.ndarray:
    """Stacked trajectory of the per-agent reference round (test oracle).

    Runs the rounds agent by agent: at every stage each agent calls its own
    ``conjugate_argmax``, the solutions go to a mailbox, and each agent
    evaluates :func:`~dualrk.dynamics.agent_field` from the mailbox.  It uses
    no stacked evaluation and no Laplacian apply, and solves ``S + 1``
    sweeps per iteration, so it checks :func:`run_heavy_ball` independently.
    Returns the ``(num_iterations + 1, 2np + 1)`` trajectory in the
    monolithic layout.
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
    state = initial_stacked_state(graph.node_count, objectives[0].dim)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        return integrate(tableau, heavy_ball_field(graph, objectives), state, h, num_iterations)
