"""Comparison methods: centralized GD, distributed GD, and dual Nesterov.

All baselines return the same :class:`~dualrk.harness.RunResult` as the
main method, built by the same :class:`~dualrk.harness.TraceRecorder`
(which times each iteration and evaluates the metric records in blocks), so
traces are directly comparable on a shared communication-round axis.

``dual_nag_run`` runs Nesterov's accelerated gradient on the dual in the
same transformed coordinates the heavy-ball method uses (``y_hat`` lives in
the image of the Laplacian square root, so the gradient step becomes
``L x*(z_hat)`` and is executable with one broadcast round per iteration).
It approximates the accelerated dual methods from the literature without
claiming any specific parameterization, hence the neutral name.

``dgd_run`` and ``dual_nag_run`` also run on a disjoint union of graphs,
with a step (and mixing) per part; each part's result is its run alone,
bitwise.  ``cgd_run`` never reads a graph.

Like :func:`~dualrk.simulator.run_heavy_ball`, a run binds its family, the
degree-bucket plan and its buffers once and writes each update through
``out=`` in the formulas' operation order, bitwise; the pad buffer's first
``n`` rows hold the broadcast (dgd's iterate, or the dual conjugate at the
anchor), and a result copies the buffer it returns.  Once ``x_k`` is
checked finite, dgd forms ``L x_k`` and (quadratic) ``H x_k`` for its next
update, which its recorder binds with ``x_k`` (cgd: its stack's ``H x``);
dual_nag's metric point is no point its rounds broadcast.
"""

from __future__ import annotations

import math

import numpy as np

from . import harness
from .dynamics import kernel_residual
from .errors import InvalidArgument
# laplacian_apply is not called here; perfbench's tracer patches it under this name.
from .graph import LaplacianGraph, laplacian_apply, laplacian_rows
from .objectives import floored_projection, stacked_conjugate, stacked_family, stacked_value

__all__ = [
    "check_step",
    "cgd_run",
    "dgd_run",
    "dual_nag_run",
]


def check_step(step: float, mixing: float | None = None, graph: LaplacianGraph | None = None) -> None:
    """Raise ``InvalidArgument`` for a step the baseline runners reject.

    Every step must be positive and finite, except dgd's (the one with a
    ``mixing`` weight), which may be zero; ``mixing`` must lie in
    ``[0, 2 / lambda_max)`` of ``graph``.  The runners and ``dualrk run
    --dry-run`` check through here.
    """
    # Written so that NaN fails each range test.
    if mixing is None:
        if not 0.0 < step < math.inf:
            raise InvalidArgument("step must be positive and finite")
        return
    if not 0.0 <= mixing < 2.0 / graph.lambda_max:
        raise InvalidArgument(f"mixing must be in [0, {2.0 / graph.lambda_max:.6g})")
    if not 0.0 <= step < math.inf:
        raise InvalidArgument("step must be nonnegative and finite")


def cgd_run(
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
) -> harness.RunResult:
    """Centralized (projected) gradient descent on the shared variable.

    ``x_{k+1} = P(x_k - step * sum_i grad f_i(x_k))`` in dimension ``p``;
    the projection is the identity for unconstrained families and the
    simplex projection for KL.  Metrics are computed on the
    consensus-replicated stack, whose consensus terms vanish identically.
    """
    check_step(step)
    family = stacked_family(objectives)
    (n, p), simplex = family.shape, family.domain == "simplex"
    x = family.initial_point()
    replicated, (grads, hx) = np.tile(x, (n, 1)), np.empty((2, n, p))  # the consensus stack of x, rewritten in place
    hx = None if simplex else family.hessian_product(replicated, out=hx)
    recorder = harness.TraceRecorder(reference, None, family, replicated, hx=hx)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            grads = family.gradients(replicated, out=grads) if simplex else np.subtract(hx, family.shift, out=grads)
            x = floored_projection(x - step * grads.sum(axis=0), simplex)
            harness.check_finite(x, None, f"cgd: non-finite iterate at iteration {k}", k)
            replicated[:] = x
            if not simplex:  # H x: this record and the next gradient read it
                family.hessian_product(replicated, out=hx)
            recorder.push(k, k)
    return recorder.result(replicated.copy(), [step])


def dgd_run(
    graph: LaplacianGraph,
    objectives,
    step: float,
    mixing: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    decaying_step: bool = True,
) -> harness.RunResult:
    """Distributed gradient descent with Laplacian-based mixing.

    ``x_{k+1} = (W (x) I_p) x_k - step_k * grad F(x_k)`` with
    ``W = I - mixing * L`` applied through neighbor exchanges (one
    communication round per iteration) and ``step_k = step / sqrt(k)`` by
    default.  The decaying step suits the nonsmooth simplex family; pass
    ``decaying_step=False`` for a constant step on smooth problems.

    ``mixing`` must lie in ``[0, 2 / lambda_max(L))`` so ``W`` is a valid
    mixing matrix; zero is accepted and decouples the network into
    independent local descents.  On a disjoint union ``step``, ``mixing``
    and ``reference`` may each hold one value per part.
    """
    steps, mixings = graph.per_part(step), graph.per_part(mixing)
    for (_, part), part_step, part_mixing in zip(graph.part_rows, steps, mixings):
        check_step(part_step, part_mixing, part)
    step, mixing = graph.node_values(steps), graph.node_values(mixings)
    # Bound once per run: the pad buffer's first n rows are the iterate, which the round broadcasts.
    family, plan, padded = harness.bind_run(graph, objectives)
    (n, p), simplex = family.shape, family.domain == "simplex"
    blocks, (lap, hx, mixed, grads) = padded[:n], np.empty((4, n, p))
    blocks[:] = family.initial_point()
    hx = None if simplex else family.hessian_product(blocks, out=hx)  # KL's gradient and value share no product
    laplacian_rows(plan, padded, lap)
    recorder = harness.TraceRecorder(reference, graph, family, blocks, lap=lap, hx=hx)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            step_k = step / math.sqrt(k) if decaying_step else step
            np.subtract(blocks, np.multiply(mixing, lap, out=mixed), out=mixed)
            grads = family.gradients(blocks, out=grads) if simplex else np.subtract(hx, family.shift, out=grads)
            np.subtract(mixed, np.multiply(step_k, grads, out=grads), out=blocks)
            if simplex:
                blocks[:] = floored_projection(blocks, simplex)
            harness.check_finite(blocks, graph, f"dgd: non-finite iterate at iteration {k}", k)
            laplacian_rows(plan, padded, lap)  # L x and H x: this record and the next update read them
            if not simplex:
                family.hessian_product(blocks, out=hx)
            recorder.push(k, k)
    return recorder.result(blocks.copy(), steps)


def dual_nag_run(
    graph: LaplacianGraph,
    objectives,
    step: float,
    num_iterations: int,
    reference: harness.ReferenceOptimum | None = None,
    record_dual_gap: bool = False,
) -> harness.RunResult:
    """Nesterov-accelerated gradient descent on the transformed dual.

    Updates ``y_hat_k = z_hat_{k-1} - step * L x*(z_hat_{k-1})`` followed by
    the momentum combination ``z_hat_k = y_hat_k + (k-1)/(k+2) *
    (y_hat_k - y_hat_{k-1})``; at ``k = 1`` the momentum coefficient is zero
    and the step is plain gradient descent.  One broadcast round per
    iteration; ``step <= mu / lambda_max(L)`` (the inverse of the dual
    smoothness constant) is the recommended regime.  On a disjoint union
    ``step`` and ``reference`` may each hold one value per part.

    With ``record_dual_gap=True`` the per-iteration dual suboptimality
    ``phi(y_k) - phi(y*)`` is recorded in ``dual_gaps``.
    """
    steps = graph.per_part(step)
    for part_step in steps:
        check_step(part_step)
    step = graph.node_values(steps)
    # Bound once per run: the pad buffer's first n rows take the broadcast, the conjugate
    # at the anchor; lap's buffer takes each new y_hat before it is copied into y_hat.
    family, plan, padded = harness.bind_run(graph, objectives)
    n, p = family.shape
    broadcast = padded[:n]
    lap, y_hat, z_hat = np.zeros((3, n, p))
    recorder = harness.TraceRecorder(reference, graph, family, broadcast, y_hat, kernel=kernel_residual)
    # Conjugate at the current y_hat: it feeds the metrics, the dual gap and
    # the final state, so each is solved once.
    stacked_conjugate(family, y_hat, out=broadcast)
    gaps = [[] for _ in recorder.parts] if record_dual_gap else None
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteState
        for k in range(1, num_iterations + 1):
            # At k = 1 the momentum anchor z_hat is still y_hat, whose conjugate is the broadcast.
            if k > 1:
                stacked_conjugate(family, z_hat, out=broadcast)
            laplacian_rows(plan, padded, lap)
            np.subtract(z_hat, np.multiply(step, lap, out=lap), out=lap)
            np.subtract(lap, y_hat, out=z_hat)
            np.copyto(y_hat, lap)
            np.add(y_hat, np.multiply((k - 1.0) / (k + 2.0), z_hat, out=z_hat), out=z_hat)
            harness.check_finite(y_hat, graph, f"dual_nag: non-finite iterate at iteration {k}", k)
            stacked_conjugate(family, y_hat, out=broadcast)
            for part_gaps, trace in zip(gaps or (), recorder.parts):
                y_part, x_part = y_hat[trace.nodes].reshape(-1), broadcast[trace.nodes].reshape(-1)
                dual = float(y_part @ x_part) - stacked_value(trace.family, x_part)
                part_gaps.append(dual + trace.reference.f_star)
            recorder.push(k, k)
    return recorder.result(broadcast.copy(), steps, gaps)
