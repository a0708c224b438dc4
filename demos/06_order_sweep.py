"""How the integrator order buys convergence speed per communication round.

Theory promises consensus decay like N^(-2s/(s+1)) after N iterations of an
order-s method, approaching the optimal N^(-2) as s grows.  Run near each
integrator's usable step limit at an equal round budget and the difference
is visible directly in the tail slopes of the traces: first order stalls on
its discretization floor, second order is already close to the limit rate,
and fourth order is the steepest.  This is the library-level version of the
``dualrk reproduce fig3`` bundle.
"""

import dualrk
from dualrk.harness import fit_rate

graph = dualrk.build_graph(dualrk.Topology("erdos_renyi", 20, edge_probability=0.3, rng_seed=0))
objs = dualrk.random_kl_instance(20, 10, seed=0)
reference = dualrk.reference_optimum(objs)
budget = 5000

# Fractions of the oscillation frequency that sit near each order's own
# accuracy edge (the same calibration the figure bundle uses).
safety = {1: 0.15, 2: 0.8, 4: 0.9}

print(f"KL instance, n=20, p=10, {budget}-round budget\n")
print(f"{'order':>5s} {'iterations':>10s} {'step':>9s} {'tail slope':>11s} {'final subopt':>13s}")
slopes = {}
for order in (1, 2, 4):
    tab = dualrk.tableau_for_order(order)
    iterations = budget // tab.stages
    h0 = dualrk.suggested_h0(graph, objs, tab, iterations, safety=safety[order])
    result = dualrk.run_heavy_ball(graph, objs, tab, iterations, h0=h0, reference=reference)
    slopes[order] = fit_rate(result.records, "suboptimality").slope
    print(f"{order:5d} {iterations:10d} {result.resolved_step:9.4f} "
          f"{slopes[order]:11.3f} {result.records.column('suboptimality')[-1]:13.3e}")

ordered = slopes[4] <= slopes[2] <= slopes[1]
print(f"\nslope ordering s4 <= s2 <= s1: {ordered}")
print("theory reference points: -2s/(s+1) =",
      ", ".join(f"s={s}: {-2 * s / (s + 1):.2f}" for s in (1, 2, 4)))
