"""Output checks.  Each run of a command passes or fails; failures are what
``failed`` counts in the result line.

At every seed:

* every metric is finite, or NaN exactly where ``compute_metrics`` defines
  it to be (no settling inside the horizon, no threshold crossing);
* ``w_increase_count == 0`` on the state-feedback loop;
* where a finite-time (FCT) estimator crossed its threshold, its relative
  error after the crossing stays below ``FCT_RTOL``;
* the columns a trajectory CSV carries read back through
  ``Trajectory.from_csv`` exactly equal to the in-memory trajectory.

At the default seed, every run's metrics are also pinned to reference.json,
recorded from the program before any optimisation: full-precision values to
``PIN_RTOL`` (the tolerance for reordered floating-point operations), and
the printed 10-digit values to their printed precision.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PIN_RTOL = 1e-12  # relative, with an absolute floor of PIN_RTOL for |value| < 1
FCT_RTOL = 1e-5
PRINT_DIGITS = 10  # the CLI prints metrics with %.10g

# to_csv does not write these Trajectory fields, and from_csv fills them with
# NaN, False and 0 (ROADMAP item 5a).  They are compared only once the CSV
# header carries them; until then they are excluded from the round-trip check.
LOSSY_COLUMNS = ("ref", "saturated", "epoch")
# compute_metrics reads the lossy fields for these keys, so a reloaded
# trajectory reports other values for them
RELOAD_AFFECTED = ("settle_time", "final_ref", "saturated_samples", "w_increase_count")

REFERENCE = Path(__file__).with_name("reference.json")


def parse_value(text: str):
    text = text.strip()
    if text == "nan":
        return math.nan
    try:
        return int(text)
    except ValueError:
        return float(text)


def printed_metrics(command: str, out_dir: Path) -> list:
    """(label, metrics) per run, as the CLI printed them to its artifacts."""
    if command == "sweep":
        (table,) = out_dir.glob("*-sweep.csv")
        rows = list(csv.reader(table.read_text().splitlines()))
        header = rows[0]
        return [(row[0], {k: parse_value(v) for k, v in zip(header[1:], row[1:])})
                for row in rows[1:]]
    runs = []
    for path in sorted(out_dir.glob("*-metrics.txt")):
        pairs = (line.partition("=") for line in path.read_text().splitlines() if line)
        runs.append((path.name[: -len("-metrics.txt")], {k: parse_value(v) for k, _, v in pairs}))
    return runs


def _same(a, b, tol) -> bool:
    if isinstance(a, float) and math.isnan(a) or isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def pin_tol(ref: float) -> float:
    return PIN_RTOL * max(abs(ref), 1.0)


def print_tol(ref: float) -> float:
    """One unit in the last printed digit: a reorder within PIN_RTOL may flip
    the rounding of the printed value by one unit."""
    if isinstance(ref, int) or ref == 0 or not math.isfinite(ref):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(ref))) - (PRINT_DIGITS - 1)) + pin_tol(ref)


def compare(got: dict, pinned: dict, tol) -> list:
    problems = []
    for key in sorted(set(got) | set(pinned)):
        if key not in got or key not in pinned:
            problems.append(f"metric {key} missing from {'output' if key not in got else 'pin'}")
            continue
        want = math.nan if pinned[key] is None else pinned[key]
        if not _same(got[key], want, tol(want)):
            problems.append(f"{key} = {got[key]!r}, pinned {want!r}")
    return problems


def _nan_defined(key: str, traj, band_frac: float) -> bool:
    """Whether compute_metrics defines `key` as NaN for this run.  Without
    the trajectory (runs in pool workers) only the keys that can be NaN by
    definition are accepted."""
    if key == "settle_time":
        if traj is None:
            return True
        ref = traj.ref[-1]
        return abs(traj.signals[-1, -1] - ref) > band_frac * abs(ref)
    if key.startswith("tc_"):
        if traj is None:
            return True
        name = key[3:]
        omega = traj.observers[name]["omega"]
        return not (omega <= 1.0 - traj.meta["mu"][name]).any()
    return False


def check_run(workload, metrics: dict, traj=None, band_frac=0.01) -> list:
    """Invariants of one run; `metrics` are full precision or printed."""
    problems = []
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            if not (math.isnan(value) and _nan_defined(key, traj, band_frac)):
                problems.append(f"{key} = {value!r} is not finite")
    if workload.state_loop and metrics.get("w_increase_count") != 0:
        problems.append(f"w_increase_count = {metrics.get('w_increase_count')!r} on the state loop")
    for name in workload.fct_observers:
        tc = metrics.get(f"tc_{name}", math.nan)
        if math.isnan(tc):
            continue
        if traj is None:
            worst = metrics[f"rel_err_final_{name}"]
        else:
            after = traj.t >= tc
            err = traj.observers[name]["err_norm"][after]
            worst = float((err / np.linalg.norm(traj.signals[after], axis=1)).max())
        if not worst < FCT_RTOL:
            problems.append(f"{name}: relative error {worst:.3g} after crossing at {tc:g} s")
    return problems


def check_round_trip(traj, reloaded, header) -> list:
    """The columns the CSV carries must read back bit for bit."""
    pairs = [("t", traj.t, reloaded.t), ("signals", traj.signals, reloaded.signals),
             ("u", traj.u, reloaded.u), ("ytilde", traj.ytilde, reloaded.ytilde),
             ("W", traj.W, reloaded.W)]
    pairs += [(col, getattr(traj, col), getattr(reloaded, col))
              for col in LOSSY_COLUMNS if col in header]
    if list(traj.observers) != list(reloaded.observers):
        return [f"observers {list(traj.observers)} read back as {list(reloaded.observers)}"]
    for name, rec in traj.observers.items():
        pairs += [(f"{name}_{key}", rec[key], reloaded.observers[name][key])
                  for key in ("xhat", "err_norm", "omega", "Delta")]
    return [f"column {col} differs after from_csv" for col, a, b in pairs
            if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True)]


def check_reload_metrics(original: dict, reloaded: dict) -> list:
    """Metrics of the reloaded trajectory that do not read a lossy field
    must equal the original run's."""
    keys = [k for k in original if k not in RELOAD_AFFECTED]
    return [f"reloaded {k} = {reloaded.get(k)!r}, run gave {original[k]!r}"
            for k in keys if not _same(reloaded.get(k, math.nan), original[k], 0.0)]


def load_reference(name: str, seed: int):
    """Pinned runs of workload `name`, or None away from the pinned seed."""
    data = json.loads(REFERENCE.read_text())
    if seed != data["seed"]:
        return None
    return data["workloads"][name]
