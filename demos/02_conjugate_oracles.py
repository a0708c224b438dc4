"""Dual-friendly objectives: exact conjugate maximizers and the dual function.

The distributed method never takes gradient steps on the primal problem.
Each agent repeatedly answers one question: "given a price vector z, which
point maximizes <z, x> - f_i(x)?"  For the two shipped families that answer
is a cached linear solve (least squares) or a softmax reweighting (KL on
the simplex).  This script checks the optimality conditions of both oracles
and differentiates the induced dual function numerically.
"""

import numpy as np

from dualrk import KLLocal, QuadraticLocal, Topology, build_graph
from dualrk.objectives import stacked_conjugate
from dualrk.oracles import dual_value_transformed, kkt_residual, sqrt_apply, sqrt_laplacian

rng = np.random.default_rng(3)

# Least squares: conjugate maximizer solves (scale H'H + ridge I) x = z + scale H'b.
quad = QuadraticLocal(rng.uniform(size=(8, 3)), rng.uniform(size=8), scale=1.0 / 8.0)
print(f"quadratic local: mu = {quad.strong_convexity:.4f}, grad Lipschitz = {quad.gradient_lipschitz:.4f}")
for _ in range(3):
    z = rng.normal(size=3)
    x = quad.conjugate_argmax(z)
    print(f"  z = {np.round(z, 3)} -> x = {np.round(x, 3)}, "
          f"stationarity residual {kkt_residual(quad, z, x):.2e}")

# KL to a reference distribution: the maximizer is a softmax reweighting and
# always lands strictly inside the simplex.
kl = KLLocal.from_weights(rng.uniform(0.1, 1.0, size=4))
print(f"\nKL local: reference = {np.round(kl.reference, 3)}")
for scale in (0.5, 3.0, 20.0):
    x = kl.conjugate_argmax(rng.normal(scale=scale, size=4))
    print(f"  |z| ~ {scale:5.1f}: x = {np.round(x, 4)}, sum = {x.sum():.12f}, min = {x.min():.2e}")

# The dual of the consensus-constrained problem is built from these oracles:
# phi(y) = <sqrt(L) y, x*(sqrt(L) y)> - F(x*(...)), and its gradient is the
# square root of the Laplacian applied to the stacked conjugate solutions.
# Central differences confirm the closed form.
graph = build_graph(Topology("cycle", 5))
objs = [KLLocal.from_weights(rng.uniform(0.1, 1.0, size=3)) for _ in range(5)]
root = sqrt_laplacian(graph)
y = rng.normal(size=15)
closed = sqrt_apply(root, stacked_conjugate(objs, sqrt_apply(root, y, 3)), 3)
step = 1e-5
worst = 0.0
for j in range(15):
    unit = np.zeros(15)
    unit[j] = step
    fd = (
        dual_value_transformed(objs, sqrt_apply(root, y + unit, 3))
        - dual_value_transformed(objs, sqrt_apply(root, y - unit, 3))
    ) / (2 * step)
    worst = max(worst, abs(fd - closed[j]))
print(f"\ndual gradient, finite differences vs closed form: max deviation {worst:.2e}")
