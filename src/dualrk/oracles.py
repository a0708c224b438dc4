"""Reference paths the engine is checked against (``dualrk verify``, tests, demos).

Nothing on the runtime path imports this module: ``import dualrk``,
``dualrk run`` and ``dualrk reproduce`` never load it.

Two reference paths check the engine:

- :func:`run_heavy_ball_per_agent` is the per-agent oracle: one
  ``conjugate_argmax`` call per agent, then :func:`~dualrk.dynamics.agent_field`
  per agent over the mailbox of broadcasts, with no stacked evaluation and
  no Laplacian apply.
- :func:`run_heavy_ball_monolithic` integrates the single-vector field
  :func:`heavy_ball_field` with :func:`~dualrk.integrator.integrate`.

Both return only the stacked trajectory.  They and
:func:`~dualrk.simulator.run_heavy_ball` combine stages with
:func:`~dualrk.integrator.rk_combine`, and the tests and the invariant
suite require trajectories equal to 1e-12 relative.  In fact they agree
bitwise whenever ``p >= 2``; at ``p = 1`` the per-agent oracle's numpy
neighbor sum may run pairwise.

The square root of the Laplacian (:func:`sqrt_laplacian`,
:func:`sqrt_apply`) and the dual value in the transformed variable
(:func:`dual_value_transformed`) check the change of variables the runtime
works in (:mod:`dualrk.dynamics`).
"""

from __future__ import annotations

import numpy as np

from .dynamics import DAMPING, GRADIENT_WEIGHT, agent_field, initial_agent_states, stack_agent_states
from .errors import DimensionMismatch, NonPositiveTime
from .graph import LaplacianGraph, dense_laplacian, laplacian_apply
from .integrator import ButcherTableau, integrate, rk_combine
from .objectives import stacked_conjugate, stacked_family, stacked_value
from .simulator import step_size

__all__ = [
    "run_heavy_ball_per_agent", "run_heavy_ball_monolithic", "heavy_ball_field",
    "sqrt_laplacian", "sqrt_apply", "dual_value_transformed",
]


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

    Integrates the monolithic field :func:`heavy_ball_field`
    with :func:`~dualrk.integrator.integrate`; returns the
    ``(num_iterations + 1, 2np + 1)`` trajectory, which must agree with
    :func:`~dualrk.simulator.run_heavy_ball`'s to roundoff.
    """
    h = step_size(h0, num_iterations, tableau.order) if num_iterations else float("nan")
    p = objectives[0].dim
    state = stack_agent_states(initial_agent_states(graph.node_count, p), p)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        return integrate(tableau, heavy_ball_field(graph, objectives), state, h, num_iterations)


def heavy_ball_field(graph: LaplacianGraph, objectives):
    """Monolithic transformed field over the stacked state.

    The single-vector reference path: the simulator's stacked trajectory
    must coincide with integrating this field (see
    :func:`run_heavy_ball_monolithic`).
    """
    family = stacked_family(objectives)
    block_dim = family.shape[1]
    total = graph.node_count * block_dim

    def field(state: np.ndarray) -> np.ndarray:
        t = state[-1]
        if t <= 0.0:
            raise NonPositiveTime(f"time coordinate {t} is not positive")
        v_hat = state[:total]
        y_hat = state[total : 2 * total]
        x_star = stacked_conjugate(family, y_hat)
        lap = laplacian_apply(graph, x_star, block_dim)
        out = np.empty_like(state)
        out[:total] = -(DAMPING / t) * v_hat - GRADIENT_WEIGHT * lap
        out[total : 2 * total] = v_hat
        out[-1] = 1.0
        return out

    return field


def sqrt_laplacian(graph: LaplacianGraph) -> np.ndarray:
    """Positive-semidefinite square root of the dense Laplacian.

    Test-oracle use only: the runtime path never materializes the square
    root because the change of variable in :mod:`dualrk.dynamics` removes it.
    """
    evals, evecs = np.linalg.eigh(dense_laplacian(graph))
    root = np.sqrt(np.maximum(evals, 0.0))
    mat = (evecs * root) @ evecs.T
    return (mat + mat.T) / 2.0


def sqrt_apply(sqrt_lap: np.ndarray, x: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply ``(sqrt(L) (x) I_p)`` to a stacked vector, block-wise."""
    x = np.asarray(x, dtype=float)
    n = sqrt_lap.shape[0]
    if x.size != n * block_dim:
        raise DimensionMismatch(f"expected {n * block_dim} entries, got {x.size}")
    return (sqrt_lap @ x.reshape(n, block_dim)).reshape(x.shape)


def dual_value_transformed(objectives, y_hat: np.ndarray) -> float:
    """Dual value expressed through the transformed variable ``y_hat = sqrt(L) y``.

    ``phi(y) = <y_hat, x*(y_hat)> - F(x*(y_hat))`` needs no square root, so
    it is usable at any scale.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    x = stacked_conjugate(objectives, y_hat)
    return float(y_hat @ x) - stacked_value(objectives, x)
