"""Time a workload's set-up in this (fresh) interpreter and print it as JSON.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is everything the command does before its first integration step,
timed through the public functions it calls: importing ``pbclab.cli``,
loading the config and applying the overrides, expanding the variants (or,
for a sweep, deriving and validating one config per value), building each
``Scenario``, and solving each run's operating point.

numpy and PyYAML are imported before the clock starts.  Importing numpy
starts OpenBLAS's thread pool, whose cost moves with the host in steps of
a third of the whole set-up time, while no change to pbclab can change it;
the rest of the interpreter's imports, pbclab's own and the standard
library's, are timed.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import numpy  # noqa: F401  (outside the timed region, see above)
import yaml  # noqa: F401

import workloads


def main(name: str, seed: int) -> float:
    wl = workloads.make(name, seed)
    t0 = time.perf_counter()
    from importlib import resources

    import pbclab.cli  # noqa: F401  (importing the CLI is part of set-up)
    from pbclab import config
    from pbclab.cuk import solve_equilibrium

    if wl.preset:
        text = resources.files("pbclab").joinpath("presets", wl.preset + ".yaml").read_text()
        cfg = config.loads_config(text)
    else:
        cfg = config.default_config()
    cfg = config.apply_overrides(cfg, list(wl.sets))
    if wl.command == "sweep":
        runs = []
        for value in wl.sweep_values:
            sub = copy.deepcopy(cfg)
            sub.pop("variants", None)
            config.set_path(sub, wl.sweep_param, float(value))
            runs.append(config.validate_config(sub))
    else:
        runs = [sub for _, sub in config.expand_variants(cfg)]
    for sub in runs:
        scn = config.scenario_from_config(sub)
        solve_equilibrium(scn.params, scn.controller.x4_star,
                          root_policy=scn.controller.root_policy)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1], int(sys.argv[2]))}))
