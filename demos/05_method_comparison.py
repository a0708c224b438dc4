"""Head-to-head on the KL barycenter problem at an equal round budget.

Agents hold private probability distributions and want the distribution
minimizing the average KL divergence to theirs.  The objective is strongly
convex but nonsmooth at the simplex boundary, which caps what primal
(sub)gradient methods can do: DGD lags by orders of magnitude.  The two
dual methods with exact conjugate oracles are in a different league; the
accelerated dual baseline is the optimal method and sets the pace, with
the heavy-ball discretization close behind at a quarter of the iterations
(it pays S = 4 rounds per iteration).  Every method is billed in
communication rounds.
"""

import numpy as np

import dualrk

graph = dualrk.build_graph(dualrk.Topology("erdos_renyi", 16, edge_probability=0.35, rng_seed=2))
objs = dualrk.random_kl_instance(16, 8, seed=2)
reference = dualrk.reference_optimum(objs)
budget = 4000

tab = dualrk.tableau_for_order(4)
heavy = dualrk.run_heavy_ball(
    graph, objs, tab, budget // tab.stages,
    h0=dualrk.suggested_h0(graph, objs, tab, budget // tab.stages),
    reference=reference,
)
nag = dualrk.dual_nag_run(graph, objs, 1.0 / graph.lambda_max, budget, reference=reference)
dgd = dualrk.dgd_run(graph, objs, 0.1, 1.0 / graph.lambda_max, budget, reference=reference)

print(f"KL barycenter, n=16 agents, p=8, {budget} communication rounds\n")
print(f"{'method':>14s} {'suboptimality':>14s} {'consensus xLx':>14s} {'dist^2 to opt':>14s}")
for name, records in (("heavy-ball s=4", heavy.records), ("dual NAG", nag.records), ("DGD", dgd.records)):
    final = records[-1]
    print(f"{name:>14s} {final.suboptimality:14.3e} "
          f"{final.consensus_quadratic:14.3e} {final.dist_to_optimum_sq:14.3e}")

print("\ndecay along the run (suboptimality at round checkpoints):")
checkpoints = [200, 1000, 2000, 4000]
for name, records in (("heavy-ball s=4", heavy.records), ("dual NAG", nag.records), ("DGD", dgd.records)):
    by_round = {r.comm_rounds: r.suboptimality for r in records}
    row = "  ".join(f"{by_round[c]:.2e}" for c in checkpoints if c in by_round)
    print(f"{name:>14s}  {row}")

# The barycenter itself: the geometric mean of the references, which the
# heavy-ball agents approach in consensus.
# Each agent's primal point is its conjugate at the y_hat columns of its state.
x = dualrk.stacked_conjugate(objs, heavy.final_state[:, 8:16].reshape(-1))
blocks = x.reshape(16, 8)
print(f"\nbarycenter (first 4 coords): {np.round(reference.x_star[:4], 4)}")
print(f"agent spread around it:      {np.abs(blocks - reference.x_star).max():.2e}")
