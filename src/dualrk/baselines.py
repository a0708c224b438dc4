"""Comparison methods: centralized GD, distributed GD, and dual Nesterov.

All baselines emit the same :class:`~dualrk.harness.MetricsRecord` schema as
the main method, through the same :class:`~dualrk.harness.TraceRecorder`
(metric records evaluated in blocks once the iterations are done), so traces
are directly comparable on a shared communication-round axis.

``dual_nag_run`` runs Nesterov's accelerated gradient on the dual in the
same transformed coordinates the heavy-ball method uses (``y_hat`` lives in
the image of the Laplacian square root, so the gradient step becomes
``L x*(z_hat)`` and is executable with one broadcast round per iteration).
It approximates the accelerated dual methods from the literature without
claiming any specific parameterization, hence the neutral name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import harness
from .errors import InvalidArgument, NonFiniteState
from .graph import LaplacianGraph, laplacian_apply
from .objectives import project_to_simplex, stacked_conjugate, stacked_gradient, stacked_value

__all__ = [
    "BaselineResult",
    "check_step",
    "cgd_run",
    "dgd_run",
    "dual_nag_run",
    "dual_gd_run",
]


@dataclass
class BaselineResult:
    """Trace plus method-specific extras from a baseline run."""

    records: list[harness.MetricsRecord]
    final_stack: np.ndarray
    max_kernel_residual: float | None = None
    dual_gaps: list[float] | None = field(default=None, repr=False)


def check_step(step: float, mixing: float | None = None, graph: LaplacianGraph | None = None) -> None:
    """Raise ``InvalidArgument`` for a step the baseline runners reject.

    Every step must be positive, except dgd's (the one with a ``mixing``
    weight), which may be zero; ``mixing`` must lie in ``[0, 2 / lambda_max)``
    of ``graph``.  The runners and ``dualrk run --dry-run`` check through here.
    """
    if mixing is None:
        if step <= 0:
            raise InvalidArgument("step must be positive")
        return
    if not 0.0 <= mixing < 2.0 / graph.lambda_max:
        raise InvalidArgument(f"mixing must be in [0, {2.0 / graph.lambda_max:.6g})")
    if step < 0:
        raise InvalidArgument("step must be nonnegative")


def _check_finite(x: np.ndarray, method: str, k: int) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteState(f"{method}: non-finite iterate at iteration {k}", iteration=k)


# Simplex iterates are floored here before gradient evaluation so the
# entropy gradient stays finite when a projection lands on the boundary.
_SIMPLEX_FLOOR = 1e-16


def _feasible(simplex: bool, x: np.ndarray) -> np.ndarray:
    """Project ``x``, or each row of ``x``, onto the domain (simplex or all of R^p)."""
    if simplex:
        x = np.maximum(project_to_simplex(x), _SIMPLEX_FLOOR)
        x = x / x.sum(axis=-1, keepdims=True)
    return x


def cgd_run(
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    per_agent_normalized: bool = False,
    start: np.ndarray | None = None,
) -> BaselineResult:
    """Centralized (projected) gradient descent on the shared variable.

    ``x_{k+1} = P(x_k - step * sum_i grad f_i(x_k))`` in dimension ``p``;
    the projection is the identity for unconstrained families and the
    simplex projection for KL.  Metrics are computed on the
    consensus-replicated stack, whose consensus terms vanish identically.
    """
    check_step(step)
    n = len(objectives)
    simplex = objectives[0].domain == "simplex"
    x = objectives[0].initial_point() if start is None else np.asarray(start, dtype=float)
    replicated = np.tile(x, (n, 1))  # the consensus stack of x, rewritten in place
    stack = replicated.reshape(-1)
    recorder = harness.TraceRecorder(reference, None, objectives, per_agent_normalized)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            tic = time.perf_counter()
            grad = stacked_gradient(objectives, stack).reshape(n, -1).sum(axis=0)
            x = _feasible(simplex, x - step * grad)
            _check_finite(x, "cgd", k)
            replicated[:] = x
            recorder.push(stack, k, k, (time.perf_counter() - tic) * 1e3)
    return BaselineResult(records=recorder.flush(), final_stack=stack.copy())


def dgd_run(
    graph: LaplacianGraph,
    objectives,
    step: float,
    mixing: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    decaying_step: bool = True,
    per_agent_normalized: bool = False,
    start: np.ndarray | None = None,
) -> BaselineResult:
    """Distributed gradient descent with Laplacian-based mixing.

    ``x_{k+1} = (W (x) I_p) x_k - step_k * grad F(x_k)`` with
    ``W = I - mixing * L`` applied through neighbor exchanges (one
    communication round per iteration) and ``step_k = step / sqrt(k)`` by
    default.  The decaying step suits the nonsmooth simplex family; pass
    ``decaying_step=False`` for a constant step on smooth problems.

    ``mixing`` must lie in ``[0, 2 / lambda_max(L))`` so ``W`` is a valid
    mixing matrix; zero is accepted and decouples the network into
    independent local descents.
    """
    check_step(step, mixing, graph)
    n = graph.node_count
    p = objectives[0].dim
    simplex = objectives[0].domain == "simplex"
    if start is None:
        blocks = np.tile(objectives[0].initial_point(), (n, 1))
    else:
        blocks = np.asarray(start, dtype=float).reshape(n, p).copy()
    recorder = harness.TraceRecorder(reference, graph, objectives, per_agent_normalized)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            tic = time.perf_counter()
            step_k = step / math.sqrt(k) if decaying_step else step
            stack = blocks.reshape(-1)
            mixed = blocks - mixing * laplacian_apply(graph, stack, p).reshape(n, p)
            grads = stacked_gradient(objectives, stack).reshape(n, p)
            blocks = _feasible(simplex, mixed - step_k * grads)
            _check_finite(blocks, "dgd", k)
            recorder.push(blocks.reshape(-1), k, k, (time.perf_counter() - tic) * 1e3)
    return BaselineResult(records=recorder.flush(), final_stack=blocks.reshape(-1).copy())


def _dual_descent(
    graph: LaplacianGraph,
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None,
    per_agent_normalized: bool,
    record_dual_gap: bool,
    momentum: bool,
    method: str,
) -> BaselineResult:
    check_step(step)
    n = graph.node_count
    p = objectives[0].dim
    y_hat = np.zeros(n * p)
    y_prev = y_hat
    z_hat = y_hat
    # Conjugate at the current y_hat: it feeds the metrics, the dual gap, the
    # next plain-descent anchor and the final stack, so each is solved once.
    x_stack = stacked_conjugate(objectives, y_hat)
    recorder = harness.TraceRecorder(reference, graph, objectives, per_agent_normalized)
    gaps: list[float] | None = [] if record_dual_gap else None
    max_kres = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            tic = time.perf_counter()
            # At k = 1 the momentum anchor z_hat is still y_hat.
            if momentum and k > 1:
                anchor, x_anchor = z_hat, stacked_conjugate(objectives, z_hat)
            else:
                anchor, x_anchor = y_hat, x_stack
            y_new = anchor - step * laplacian_apply(graph, x_anchor, p)
            if momentum:
                z_hat = y_new + ((k - 1.0) / (k + 2.0)) * (y_new - y_prev)
                y_prev = y_new
            y_hat = y_new
            _check_finite(y_hat, method, k)
            sums = np.abs(y_hat.reshape(n, p).sum(axis=0)).max()
            max_kres = max(max_kres, float(sums / (1.0 + math.sqrt(y_hat.dot(y_hat)))))
            x_stack = stacked_conjugate(objectives, y_hat)
            if gaps is not None:
                dual = float(y_hat @ x_stack) - stacked_value(objectives, x_stack)
                gaps.append(dual + recorder.reference.f_star)
            recorder.push(x_stack, k, k, (time.perf_counter() - tic) * 1e3)
    return BaselineResult(
        records=recorder.flush(),
        final_stack=x_stack,
        max_kernel_residual=max_kres,
        dual_gaps=gaps,
    )


def dual_nag_run(
    graph: LaplacianGraph,
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    per_agent_normalized: bool = False,
    record_dual_gap: bool = False,
) -> BaselineResult:
    """Nesterov-accelerated gradient descent on the transformed dual.

    Updates ``y_hat_k = z_hat_{k-1} - step * L x*(z_hat_{k-1})`` followed by
    the momentum combination ``z_hat_k = y_hat_k + (k-1)/(k+2) *
    (y_hat_k - y_hat_{k-1})``; at ``k = 1`` the momentum coefficient is zero
    and the step is plain gradient descent.  One broadcast round per
    iteration; ``step <= mu / lambda_max(L)`` (the inverse of the dual
    smoothness constant) is the recommended regime.

    With ``record_dual_gap=True`` the per-iteration dual suboptimality
    ``phi(y_k) - phi(y*)`` is recorded in ``dual_gaps``.
    """
    return _dual_descent(
        graph, objectives, step, num_iterations, reference, per_agent_normalized,
        record_dual_gap, momentum=True, method="dual_nag",
    )


def dual_gd_run(
    graph: LaplacianGraph,
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    per_agent_normalized: bool = False,
    record_dual_gap: bool = False,
) -> BaselineResult:
    """Plain gradient descent on the transformed dual (momentum-free control).

    Same step rule and recording as :func:`dual_nag_run` without the
    momentum combination; used as the side-by-side comparison that the
    accelerated variant must beat.
    """
    return _dual_descent(
        graph, objectives, step, num_iterations, reference, per_agent_normalized,
        record_dual_gap, momentum=False, method="dual_gd",
    )
