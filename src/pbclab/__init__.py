"""Simulation laboratory for switched power converters in energy-based
form: passivity-based PI voltage regulation and finite-time state
reconstruction from a single measured output.

Modules
-------
phmodel    averaged bilinear energy-based model container and validation
cuk        fourth-order two-switch converter: matrices and equilibrium map
control    shifted passive output, PI-PBC law, storage function, PI baseline
observers  open-loop copy with parameterized initial condition, filtered
           regression, determinant-mixed estimation, finite-time combination,
           and the comparison estimators (filter with Riccati gain, gradient)
sim        fixed-step closed-loop integration, trajectories, metrics
config     run descriptions on disk, presets, overrides
cli        command line front end
"""

from .phmodel import PHModel, validate_model, energy, coenergy, dynamics
from .cuk import CukParams, build_cuk, solve_equilibrium
from .control import make_pi_pbc, pi_pbc_step, lyapunov_value
from .observers import fct_combine, drem_mix
from .sim import Scenario, run_scenario, compute_metrics, Trajectory

__version__ = "0.1.0"

__all__ = [
    "PHModel",
    "validate_model",
    "energy",
    "coenergy",
    "dynamics",
    "CukParams",
    "build_cuk",
    "solve_equilibrium",
    "make_pi_pbc",
    "pi_pbc_step",
    "lyapunov_value",
    "fct_combine",
    "drem_mix",
    "Scenario",
    "run_scenario",
    "compute_metrics",
    "Trajectory",
    "__version__",
]
