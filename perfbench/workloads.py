"""The three workloads: the CLI arguments each one runs, generated from a seed.

Every workload is one ``pbclab`` command, driven in-process through
``pbclab.cli.main`` as a closed loop (one client; the next repetition starts
when the previous one has ended).  The seed only chooses the inputs the
program receives through ``--set`` and ``--values``; step counts and run
counts are fixed, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0  # the seed whose outputs are pinned in reference.json

# Sizes.  Each command takes one to six seconds on a 2-core Xeon, so several
# repetitions fit in one measured run and their median is steady.  The
# shootout cannot be shorter: the FCT estimator crosses at 3.45 ms.
SHOOTOUT_HORIZON = 0.004  # 8000 steps
REGULATION_HORIZON = 0.002  # 4000 steps, every step sampled (stride 1)
SWEEP_HORIZON = 0.00025  # 500 steps per run
SWEEP_RUNS = 16

# Initial states of the fig-initial-conditions preset: the shootout's x0 is
# drawn inside the box they span.
IC1 = (0.75, 15.0, -1.5, -18.0)
IC3 = (0.25, 5.0, -0.5, -6.0)

# Every (reference, load) pair in these ranges has an admissible duty ratio,
# before and after the load step (reference -12 V at 15 ohm needs u* = 0.567).
REF_RANGE = (-12.0, -6.0)  # [V]
LOAD_RANGE = (15.0, 40.0)  # [ohm]
GAIN_EXPONENTS = (10.0, 13.0)  # sweep gains are log-uniform in [1e10, 1e13]

NAMES = ("observer-shootout", "regulation-trace", "gain-sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | sweep
    preset: str | None
    sets: tuple  # the --set overrides, as given on the command line
    horizon: float  # [s], per run
    runs: int  # simulation runs per command
    state_loop: bool  # state feedback: the storage function must not grow
    reload: bool  # read the trajectory CSV back and recompute its metrics
    fct_observers: tuple = ()  # names of the finite-time (fct-gpebo) estimators
    sweep_param: str | None = None
    sweep_values: tuple = ()

    def argv(self, out_dir) -> list:
        """The ``pbclab`` command line for one repetition."""
        args = [self.command]
        if self.preset:
            args += ["--preset", self.preset]
        for text in self.sets:
            args += ["--set", text]
        if self.command == "sweep":
            args += ["--param", self.sweep_param, "--values", ",".join(self.sweep_values)]
        return args + ["--out", str(out_dir)]

    @property
    def simulated_ms(self) -> float:
        return 1e3 * self.horizon * self.runs


def _num(v: float) -> str:
    """A float as YAML reads it back exactly (repr, never exponent-only)."""
    text = repr(float(v))
    assert "e" not in text, text
    return text


def make(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "observer-shootout":
        x0 = [rng.uniform(lo, hi) for lo, hi in zip(IC3, IC1)]
        return Workload(
            name=name, command="simulate", preset="fig-observer-compare",
            sets=(f"scenario.horizon={SHOOTOUT_HORIZON}",
                  "scenario.x0=[" + ", ".join(_num(v) for v in x0) + "]"),
            horizon=SHOOTOUT_HORIZON, runs=1, state_loop=False, reload=False,
            fct_observers=("fct",),
        )
    if name == "regulation-trace":
        # event times on a 10 us lattice, which lies on the default 0.5 us step grid
        t_ref = rng.randint(50, 90) / 1e5
        t_load = rng.randint(110, 160) / 1e5
        ref = rng.uniform(*REF_RANGE)
        load = rng.uniform(*LOAD_RANGE)
        return Workload(
            name=name, command="simulate", preset=None,
            sets=(f"scenario.horizon={REGULATION_HORIZON}", "scenario.stride=1",
                  f"scenario.events.0={{time: {_num(t_ref)}, kind: reference, value: {_num(ref)}}}",
                  f"scenario.events.1={{time: {_num(t_load)}, kind: load, value: {_num(load)}}}"),
            horizon=REGULATION_HORIZON, runs=1, state_loop=True, reload=True,
        )
    if name == "gain-sweep":
        gains = [10.0 ** rng.uniform(*GAIN_EXPONENTS) for _ in range(SWEEP_RUNS)]
        return Workload(
            name=name, command="sweep", preset="fig-observer-gains",
            sets=(f"scenario.horizon={SWEEP_HORIZON}",),
            horizon=SWEEP_HORIZON, runs=SWEEP_RUNS, state_loop=True, reload=False,
            fct_observers=("fct-g1e10", "fct-g1e11", "fct-g1e12"),
            sweep_param="observers.0.gamma", sweep_values=tuple(_num(g) for g in gains),
        )
    raise ValueError(f"unknown workload {name!r}")
