"""Per-layer spans, recorded from outside the program.

``Tracer`` wraps the public functions of each ``pbclab`` module and rebinds
every module attribute that names one of them: ``pbclab.sim`` imports
``pi_pbc_step`` from ``pbclab.control``, ``pbclab.cli`` imports
``run_scenario`` from ``pbclab.sim``, ``pbclab.cuk`` imports
``validate_model`` from ``pbclab.phmodel``, and so on.  Nothing under
``src/`` changes.

A span's self time is its duration minus the durations of the wrapped spans
it called.  Spans are folded into per-name totals as they close (calls and
self seconds), so a traced run of thousands of steps keeps no per-span records.  The
self times of all spans sum to the durations of the root spans, which the
benchmark checks against the traced wall time.

``Capture`` keeps what the CLI computed for each run (the trajectory and its
metrics dictionary), so the output checks can read full-precision values.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

MODULES = ("phmodel", "cuk", "control", "observers", "sim", "config", "cli", "svgplot")

# (layer, public name) of every traced function
TRACED = (
    ("sim", "run_scenario"),
    ("sim", "rk4_step"),
    ("sim", "Trajectory.to_csv"),
    ("sim", "Trajectory.from_csv"),
    ("sim", "compute_metrics"),
    ("control", "pi_pbc_step"),
    ("control", "lyapunov_value"),
    ("control", "make_pi_pbc"),
    ("observers", "gpebo_matrix_derivatives"),
    ("observers", "kbf_derivatives"),
    ("observers", "drem_mix"),
    ("observers", "scalar_update"),
    ("observers", "gradient_update"),
    ("observers", "fct_combine"),
    ("observers", "gpebo_estimate"),
    ("cuk", "solve_equilibrium"),
    ("cuk", "build_cuk"),
    ("phmodel", "validate_model"),
    ("phmodel", "make_equilibrium_pair"),
    ("config", "loads_config"),
    ("config", "apply_overrides"),
    ("config", "validate_config"),
    ("config", "expand_variants"),
    ("config", "scenario_from_config"),
    ("svgplot", "write_plot"),
    ("cli", "main"),
)

# exact counts; cli.runs is read from the command's own output by the benchmark
COUNTS = ("sim.steps", "sim.rhs_evals", "sim.samples", "sim.csv_bytes", "svgplot.svg_bytes",
          "cli.runs")


def _modules():
    return [importlib.import_module("pbclab")] + [
        importlib.import_module(f"pbclab.{name}") for name in MODULES
    ]


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{name}": [0, 0.0] for layer, name in TRACED}  # calls, self s
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [0.0]  # per open span: time covered by its closed children
        self._files = {"sim.csv_bytes": [], "svgplot.svg_bytes": []}
        self._undo = []

    @property
    def root_s(self) -> float:
        """Total duration of the root spans, which is the sum of all self times."""
        return self._stack[0]

    def _span(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur - child
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counting_rk4(self, rk4_step):
        counts = self.counts

        def step(f, *args, **kwargs):
            counts["sim.steps"] += 1

            def rhs(*stage):
                counts["sim.rhs_evals"] += 1
                return f(*stage)

            return rk4_step(rhs, *args, **kwargs)

        return functools.wraps(rk4_step)(step)

    def _after(self, name):
        if name == "sim.run_scenario":
            def after(args, traj):
                self.counts["sim.samples"] += len(traj.t)
            return after
        if name == "sim.Trajectory.to_csv":
            return lambda args, _: self._files["sim.csv_bytes"].append(args[1])
        if name == "svgplot.write_plot":
            return lambda args, _: self._files["svgplot.svg_bytes"].append(args[0])
        return None

    def _wrap(self, name, fn):
        if name == "sim.rk4_step":
            fn = self._counting_rk4(fn)
        return self._span(name, fn, self._after(name))

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        modules = _modules()
        try:
            for layer, attr in TRACED:
                name = f"{layer}.{attr}"
                home = importlib.import_module(f"pbclab.{layer}")
                if "." in attr:  # a method such as Trajectory.to_csv
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(home, attr, None)
                if original is None:  # gone from the program: its metrics read 0
                    continue
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            yield self
        finally:
            while self._undo:
                obj, attr, original = self._undo.pop()
                setattr(obj, attr, original)
            self.finish()

    def finish(self):
        """Turn the files written inside spans into byte counts."""
        for key, paths in self._files.items():
            self.counts[key] += sum(os.path.getsize(p) for p in paths)
            paths.clear()

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, value in self.counts.items():
            out[name] = (value, "bytes" if name.endswith("_bytes") else "count")
        return out


class Capture:
    """Records the trajectory and metrics of every run the CLI makes in this
    process (runs inside pool workers are not seen)."""

    def __init__(self):
        self.trajectories = []
        self.metrics = []

    @contextmanager
    def installed(self):
        cli = importlib.import_module("pbclab.cli")
        run_scenario, compute_metrics = cli.run_scenario, cli.compute_metrics

        def capture_run(*args, **kwargs):
            traj = run_scenario(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        def capture_metrics(*args, **kwargs):
            metrics = compute_metrics(*args, **kwargs)
            self.metrics.append(metrics)
            return metrics

        cli.run_scenario, cli.compute_metrics = capture_run, capture_metrics
        try:
            yield self
        finally:
            cli.run_scenario, cli.compute_metrics = run_scenario, compute_metrics
