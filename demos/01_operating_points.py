"""Operating-point map of the inverting converter.

For a target output voltage v4* the steady state is fixed by a scalar
quadratic in the duty ratio; feasibility requires a nonnegative
discriminant and a root inside (0, 1).  This script walks the target from
light to heavy boost, prints both admissible duty ratios where they exist,
and locates the feasibility boundary for the default component values.

Run:  python3 demos/01_operating_points.py
CLI:  pbclab equilibrium --set controller.x4_star=-15
"""

import numpy as np

from pbclab.cuk import (
    CukParams,
    InfeasibleEquilibrium,
    physical_equilibrium,
    quadratic_coefficients,
    solve_equilibrium,
)

params = CukParams()  # E=12 V source, 20 ohm load, 1.7 ohm parasitics

print(f"{'v4* [V]':>8}  {'disc':>12}  {'u* (selected)':>14}  {'other root':>11}  "
      f"{'i1* [A]':>8}  {'v2* [V]':>8}")
boundary = None
for v4 in np.arange(-1.0, -26.0, -1.0):
    a2, a1, a0 = quadratic_coefficients(params, v4)
    disc = a1 * a1 - 4.0 * a2 * a0
    try:
        pair, roots = solve_equilibrium(params, float(v4))
    except InfeasibleEquilibrium:
        if boundary is None:
            boundary = v4
        print(f"{v4:8.1f}  {disc:12.1f}  {'infeasible':>14}")
        continue
    u = float(pair.u_star[0])
    other = roots[-1] if len(roots) > 1 else float("nan")
    i1, v2, _, _ = physical_equilibrium(params, float(v4), u)
    print(f"{v4:8.1f}  {disc:12.1f}  {u:14.6f}  {other:11.6f}  {i1:8.3f}  {v2:8.2f}")

print()
print("The lower root is selected by default: it carries the smaller")
print("circulating current and therefore the smaller conduction loss.")
if boundary is not None:
    print(f"Feasibility is lost near {boundary:.0f} V: the parasitic resistances")
    print("cap the achievable boost (with lossless coils the same target is fine).")

ideal = CukParams(r1=0.0, r2=0.0)
pair, _ = solve_equilibrium(ideal, -20.0)
print(f"Check: r1=r2=0 makes -20 V feasible again, u* = {float(pair.u_star[0]):.6f}")
