"""Communication graphs and their Laplacian spectra.

Everything downstream of this library is driven by two numbers of the
communication graph: the largest Laplacian eigenvalue (controls smoothness
of the dual problem and therefore usable step sizes) and the smallest
positive one (algebraic connectivity; the weaker the link structure, the
slower consensus spreads).  This script builds the three supported
topologies, prints both numbers, and shows that applying the Laplacian
block-wise through neighbor lists agrees with the dense matrix.
"""

import numpy as np

from dualrk import Topology, build_graph, dense_laplacian, laplacian_apply

n = 12
for kind in ("star", "cycle", "erdos_renyi"):
    graph = build_graph(Topology(kind, n, edge_probability=0.35, rng_seed=7))
    degrees = [len(nb) for nb in graph.neighbor_lists]
    print(f"{kind:12s} n={n}  lambda_max={graph.lambda_max:8.4f}  "
          f"lambda_min_pos={graph.lambda_min_pos:8.4f}  degrees {min(degrees)}..{max(degrees)}"
          + (f"  (resampled {graph.resample_count}x)" if graph.resample_count else ""))

# Star graphs concentrate: one hub of degree n-1 gives lambda_max = n but the
# leaves keep connectivity at 1.  Cycles are the opposite extreme: perfectly
# regular, with connectivity shrinking like 1/n^2 as the ring grows.
for n_ring in (8, 16, 32, 64):
    ring = build_graph(Topology("cycle", n_ring))
    print(f"cycle n={n_ring:3d}: lambda_min_pos = {ring.lambda_min_pos:.5f}"
          f"  (theory 2-2cos(2pi/n) = {2 - 2 * np.cos(2 * np.pi / n_ring):.5f})")

# The block application never materializes L: each output block uses only a
# node's own value and its neighbors' values, exactly what one broadcast
# round provides.
graph = build_graph(Topology("erdos_renyi", 10, edge_probability=0.4, rng_seed=1))
rng = np.random.default_rng(0)
x = rng.normal(size=10 * 3)
block_wise = laplacian_apply(graph, x, 3)
dense = np.kron(dense_laplacian(graph), np.eye(3)) @ x
print(f"\nblock-wise vs dense Laplacian product: max deviation "
      f"{np.abs(block_wise - dense).max():.2e}")

# Consensus vectors span the kernel: equal blocks are annihilated.
consensus = np.tile(rng.normal(size=3), 10)
print(f"Laplacian of a consensus stack: max entry {np.abs(laplacian_apply(graph, consensus, 3)).max():.2e}")
