"""The transformed heavy-ball vector field, agent-local and monolithic.

The dual flow being discretized is the damped second-order system

    v' = -(5/t) v - 4 grad phi(y),    y' = v,    t' = 1,

where ``phi`` is the dual of the consensus-constrained problem and
``grad phi(y) = sqrt(L) x*(sqrt(L) y)``.  Because a square root of the
Laplacian is dense in general, the runtime works in the transformed
coordinates ``v_hat = sqrt(L) v`` and ``y_hat = sqrt(L) y``, where the field
becomes

    v_hat' = -(5/t) v_hat - 4 L x*(y_hat),    y_hat' = v_hat,    t' = 1

and only the Laplacian itself appears.  A Laplacian row touches nothing but
a node's own block and its neighbors' conjugate solutions, so each agent can
evaluate its slice of the field from received broadcasts alone.

The field is available in three forms with the same per-element
arithmetic: :func:`agent_field` (one agent, from a mailbox of broadcasts;
the per-agent oracle), :func:`round_field` (every agent at once, from the
Laplacian rows; the simulator's engine), and :func:`heavy_ball_field` (the
monolithic single-vector field).

State layouts
-------------
agent      ``[v_hat_i (p), y_hat_i (p), t]``       length ``2p + 1``
monolithic ``[v_hat (np), y_hat (np), t]``         length ``2np + 1``

Starting every agent at ``(0, 0, 1)`` keeps both transformed blocks summing
to zero across agents in every coordinate, for the whole run; that is the
kernel-orthogonality invariant :func:`kernel_residual` measures.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveTime
from .graph import LaplacianGraph, laplacian_apply
from .objectives import stacked_conjugate, stacked_family

__all__ = [
    "initial_agent_states",
    "stack_agent_states",
    "agent_field",
    "round_field",
    "heavy_ball_field",
    "kernel_residual",
]

DAMPING = 5.0
GRADIENT_WEIGHT = 4.0


def initial_agent_states(n: int, block_dim: int) -> np.ndarray:
    """Per-agent start states ``(0, 0, 1)``, shape ``(n, 2p + 1)``."""
    states = np.zeros((n, 2 * block_dim + 1))
    states[:, -1] = 1.0
    return states


def stack_agent_states(states: np.ndarray, block_dim: int) -> np.ndarray:
    """Concatenate per-agent states into the monolithic layout (trajectories and oracles).

    The agents' time coordinates stay identical; the shared value is agent 0's.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    out = np.empty(2 * n * block_dim + 1)
    out[: n * block_dim] = states[:, :block_dim].reshape(-1)
    out[n * block_dim : 2 * n * block_dim] = states[:, block_dim : 2 * block_dim].reshape(-1)
    out[-1] = states[0, -1]
    return out


def agent_field(
    graph: LaplacianGraph,
    agent: int,
    state: np.ndarray,
    own_x_star: np.ndarray,
    mailbox: np.ndarray,
) -> np.ndarray:
    """Agent slice of the transformed field from local data and broadcasts.

    Parameters
    ----------
    state : ndarray
        The agent's ``[v_hat, y_hat, t]`` stage point.
    own_x_star : ndarray
        The agent's conjugate solution at the stage point.
    mailbox : ndarray
        The full ``(n, p)`` mailbox of broadcasts, of which only neighbor
        rows are read.  The neighbor sum runs in sorted index order, as in
        :func:`~dualrk.graph.laplacian_apply`, so for ``p >= 2`` the result is
        bitwise identical to the batched and monolithic fields.
    """
    block_dim = own_x_star.shape[0]
    t = state[-1]
    if t <= 0.0:
        raise NonPositiveTime(f"agent {agent}: time coordinate {t} is not positive")
    nb = graph.neighbor_lists[agent]
    lap_row = len(nb) * own_x_star - np.asarray(mailbox, dtype=float)[nb].sum(axis=0)
    v_hat = state[:block_dim]
    out = np.empty_like(state)
    out[:block_dim] = -(DAMPING / t) * v_hat - GRADIENT_WEIGHT * lap_row
    out[block_dim : 2 * block_dim] = v_hat
    out[-1] = 1.0
    return out


def round_field(points: np.ndarray, lap_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every agent's slice of the transformed field in one array operation.

    ``points`` holds one ``[v_hat, y_hat, t]`` stage point per agent, shape
    ``(n, 2p + 1)``, and ``lap_rows`` the matching ``(n, p)`` rows of
    ``(L (x) I_p) x*``, which it scales in place.  The derivatives are
    written into ``out`` (the simulator's stage slot), which is returned.
    Row ``i`` of the result is bitwise equal to :func:`agent_field` for
    agent ``i`` given the same Laplacian row.
    """
    block_dim = lap_rows.shape[1]
    t = points[:, -1:]
    if np.minimum.reduce(t, axis=None) <= 0.0:  # t.min() without ndarray.min's Python wrapper
        raise NonPositiveTime(f"time coordinate {float(t.min())} is not positive")
    v_hat = points[:, :block_dim]
    # (-DAMPING) / t is -(DAMPING / t) exactly: negation commutes with rounding.
    dv_hat = np.multiply((-DAMPING) / t, v_hat, out=out[:, :block_dim])
    lap_rows *= GRADIENT_WEIGHT  # GRADIENT_WEIGHT * x, bitwise
    dv_hat -= lap_rows
    out[:, block_dim : 2 * block_dim] = v_hat
    out[:, -1] = 1.0
    return out


def heavy_ball_field(graph: LaplacianGraph, objectives):
    """Monolithic transformed field over the stacked state.

    The single-vector reference path: the simulator's stacked trajectory
    must coincide with integrating this field (see
    :func:`~dualrk.simulator.run_heavy_ball_monolithic`).
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


def kernel_residual(rows: np.ndarray, block_dim: int) -> np.ndarray:
    """Worst per-coordinate agent-sum of the transformed blocks, for each of ``K`` iterates.

    ``rows`` is a ``(K, n, w)`` block of agent rows: ``[v_hat_i, y_hat_i]``
    (``w = 2p``, heavy ball) or ``y_hat_i`` (``w = p``, dual descent).  Every
    transformed block lives in the image of ``sqrt(L)``, orthogonal to the
    all-ones kernel, so each coordinate sums to zero across agents up to
    roundoff.  Each residual is normalized by ``1 + ||y_hat||``; the sums run
    agent by agent (for ``w >= 2``) and each norm is one BLAS dot, so an
    iterate's residual does not depend on the iterates batched with it.
    """
    sums = np.add.reduce(rows, axis=1)
    y_hat = np.ascontiguousarray(rows[:, :, -block_dim:]).reshape(len(rows), -1)
    norms = np.sqrt(np.matmul(y_hat[:, None, :], y_hat[:, :, None])[:, 0, 0])
    return np.abs(sums).max(axis=1) / (1.0 + norms)
