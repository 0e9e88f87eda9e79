"""Five ways to estimate the converter state from one voltmeter.

All estimators see the same run: the loop is closed on the first one
(the finite-time design), the others ride along passively.

 * fct-gpebo : finite-time freeze of the scalar-regression estimate;
 * gpebo     : same machinery, pure exponential forgetting (high gain);
 * emulator  : open-loop copy driven by the input only - the baseline all
               reconstruction-based designs are anchored to;
 * kbf       : continuous-time optimal filter integrating its Riccati
               equation (tuned here to weight state and output noise
               equally);
 * gradient  : classic normalized-gradient identifier on the scalar
               regression, no freeze.

Run:  python3 demos/04_observer_shootout.py
CLI:  pbclab compare --preset fig-observer-compare   (one state-feedback
      run with all five estimators riding along, one table row each)
"""

import math

from pbclab.sim import ControllerSpec, ObserverSpec, Scenario, compute_metrics, run_scenario

scn = Scenario(
    controller=ControllerSpec(feedback="observer"),
    observers=[
        ObserverSpec(name="fct-gpebo", kind="fct-gpebo", gamma=1e12),
        ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
        ObserverSpec(name="emulator", kind="emulator"),
        ObserverSpec(name="kbf", kind="kbf", s=1.0, h0=1.0),
        ObserverSpec(name="gradient", kind="gradient", gamma=1e8),
    ],
    x0=(0.75, 15.0, -1.5, -18.0),
    horizon=0.05,
)
traj = run_scenario(scn)
m = compute_metrics(traj, checkpoints=(0.01, 0.03))

print(f"{'estimator':>10}  {'err @10ms':>11}  {'err @30ms':>11}  {'err @50ms':>11}  {'t_c [ms]':>9}")
for name in traj.observers:
    tc = m.get(f"tc_{name}", math.nan)
    tc_txt = f"{tc * 1e3:9.2f}" if not math.isnan(tc) else f"{'-':>9}"
    print(f"{name:>10}  {m[f'err_at_0.01_{name}']:11.3e}  {m[f'err_at_0.03_{name}']:11.3e}  "
          f"{m[f'err_final_{name}']:11.3e}  {tc_txt}")

print()
print("Expected ordering at the horizon: the frozen finite-time estimate")
print("matches the high-gain asymptotic one (both hit the integration-error")
print("floor three orders below the rest), while the optimal filter and the")
print("gradient identifier land within a few percent of the open-loop copy.")
