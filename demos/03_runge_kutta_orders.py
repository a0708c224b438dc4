"""Explicit Runge-Kutta integrators and empirical order measurement.

The whole point of discretizing the dual flow with higher-order integrators
is that one-step accuracy O(h^(s+1)) converts into faster decay per
communication round.  This script prints the shipped Butcher tableaux,
measures each method's order on a problem with a known flow, and shows the
accuracy gap on a harmonic oscillator, whose orbit a good integrator should
close after a full period.
"""

import numpy as np

from dualrk import empirical_order, rk_step, tableau
from dualrk.integrator import integrate

for kind in ("euler", "midpoint", "rk4"):
    tab = tableau(kind)
    print(f"{kind} (order {tab.order}, {tab.stages} stages)\n  a = {tab.a}\n  b = {tab.b}\n")

# Order measurement: halve the step repeatedly on dz/dt = z and read off the
# decay exponent of the one-step error (minus one).
state = np.array([1.0])
flow = lambda s, h: s * np.exp(h)
print("empirical orders on dz/dt = z:")
for kind in ("euler", "midpoint", "rk4"):
    tab = tableau(kind)
    estimate = empirical_order(tab, lambda s: s, flow, state)
    calls = [0]

    def counting_field(s):
        calls[0] += 1
        return s

    rk_step(tab, counting_field, state, 0.1)
    print(f"  {kind:9s} declared {tab.order}, measured {estimate:.3f}, "
          f"{calls[0]} field evaluations per step")

# One full period of the harmonic oscillator, 1000 steps: Euler spirals
# outward, the midpoint rule drifts mildly, the
# fourth-order method returns to the start to nine digits.
def oscillator(s):
    return np.array([s[1], -s[0]])

h = 2.0 * np.pi / 1000.0
start = np.array([1.0, 0.0])
print("\nreturn error after one oscillator period (1000 steps):")
for kind in ("euler", "midpoint", "rk4"):
    end = integrate(tableau(kind), oscillator, start, h, 1000)[-1]
    print(f"  {kind:9s} |end - start| = {np.linalg.norm(end - start):.3e}")
