"""Port-Hamiltonian model of a switched power converter, averaged over the
switching period so the duty ratio u enters as a continuous input:

    dx/dt = (J0 + sum_i Ji*ui - R) Q x + (G0 + sum_i Gi*ui) E
    H(x)  = 0.5 x' Q x
    y_m   = C x

with x the inductor fluxes and capacitor charges, Ji skew-symmetric
interconnection matrices, R symmetric positive semidefinite dissipation,
Q diagonal positive (inverse inductances / capacitances), E a constant
source vector and C a full-row-rank measurement selector with fewer rows
than states.

The gradient of the energy, Q x, collects the physical signals (inductor
currents and capacitor voltages).

Every broken invariant raises the one class `ModelError`, whose message
names the invariant and its offending value.  A caller does not tell them
apart: through the CLI none is reached, since `sim.validate_scenario`
refuses every circuit value that would build a model that fails one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PHModel",
    "EquilibriumPair",
    "ModelError",
    "validate_model",
    "energy",
    "coenergy",
    "drift_matrix",
    "input_vector",
    "dynamics",
    "equilibrium_residual",
    "make_equilibrium_pair",
]

_SYM_TOL = 1e-10  # relative tolerance for symmetry / skewness checks
_PSD_TOL = -1e-10  # eigenvalues of R above this count as nonnegative


class ModelError(ValueError):
    """A structural invariant of the converter model is violated."""


@dataclass
class PHModel:
    """Constant matrices of the averaged converter model.

    J holds m+1 square matrices (J0 plus one per duty ratio), G likewise.
    Q is stored as the full diagonal matrix.
    """

    J: list  # m+1 skew n x n interconnection matrices [J0, J1, ..., Jm]
    R: np.ndarray  # n x n symmetric psd dissipation
    Q: np.ndarray  # n x n diagonal positive energy weights
    G: list  # m+1 n x n input matrices [G0, G1, ..., Gm]
    E: np.ndarray  # length-n constant source vector
    C: np.ndarray  # p x n measurement selector, p < n
    strictly_dissipative: bool = field(default=False)  # True iff R > 0

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def m(self) -> int:
        return len(self.J) - 1


@dataclass
class EquilibriumPair:
    """An assignable operating point: constant state x_star held by the
    constant duty vector u_star, each duty in the open interval (0, 1)."""

    x_star: np.ndarray  # length-n state (fluxes / charges)
    u_star: np.ndarray  # length-m duty vector, entries in (0, 1)
    residual_norm: float = 0.0  # norm of the model equations at the pair


def validate_model(model: PHModel) -> PHModel:
    """Check every structural invariant; raise a `ModelError` that names
    the first one that fails.  Returns the model with `strictly_dissipative` set to
    whether R is positive definite (some converters, e.g. the Cuk, only
    achieve semidefiniteness because a storage element carries no series
    resistance)."""
    n = model.R.shape[0]
    if model.R.shape != (n, n) or model.Q.shape != (n, n):
        raise ModelError("R and Q must be square and of equal size")
    if len(model.J) != len(model.G):
        raise ModelError("J and G must both hold m+1 matrices")
    for i, Ji in enumerate(model.J):
        if Ji.shape != (n, n):
            raise ModelError(f"J{i} has shape {Ji.shape}, expected {(n, n)}")
        scale = max(1.0, float(np.abs(Ji).max()))
        if np.abs(Ji + Ji.T).max() > _SYM_TOL * scale:
            raise ModelError(f"interconnection matrix J{i} is not skew-symmetric")
    for i, Gi in enumerate(model.G):
        if Gi.shape != (n, n):
            raise ModelError(f"G{i} has shape {Gi.shape}, expected {(n, n)}")
    scale = max(1.0, float(np.abs(model.R).max()))
    if np.abs(model.R - model.R.T).max() > _SYM_TOL * scale:
        raise ModelError("dissipation matrix R is not symmetric")
    # the eigenvalues of R / scale, against tolerances relative to that
    # scale, so that no entry near the float range overflows the solver
    Rs = model.R / scale
    eigs = np.linalg.eigvalsh(0.5 * (Rs + Rs.T))
    if eigs.min() < _PSD_TOL:
        raise ModelError(f"dissipation matrix R has a negative eigenvalue ({eigs.min() * scale:.3e})")
    if np.abs(model.Q - np.diag(np.diag(model.Q))).max() != 0.0 or np.diag(model.Q).min() <= 0.0:
        raise ModelError("energy matrix Q must be diagonal with positive entries")
    if model.E.shape != (n,):
        raise ModelError(f"E has shape {model.E.shape}, expected {(n,)}")
    p = model.C.shape[0]
    if model.C.shape != (p, n) or not (0 < p < n):
        raise ModelError(f"C must be p x n with 0 < p < n, got {model.C.shape}")
    rank = int(np.linalg.matrix_rank(model.C))
    if rank < p:
        raise ModelError(f"measurement matrix C has rank {rank} < {p} rows")
    model.strictly_dissipative = bool(eigs.min() > abs(_PSD_TOL))
    return model


def energy(model: PHModel, x: np.ndarray) -> float:
    """Stored energy H(x) = 0.5 x' Q x [J]."""
    x = np.asarray(x, dtype=float)
    return 0.5 * float(x @ model.Q @ x)


def coenergy(model: PHModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the energy, Q x: the vector of inductor currents and
    capacitor voltages in physical units."""
    return model.Q @ np.asarray(x, dtype=float)


def drift_matrix(model: PHModel, u) -> np.ndarray:
    """State matrix of the averaged model at the frozen duty vector u:

        Lambda(u) = (J0 + sum_i Ji*ui - R) Q
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    Jsum = model.J[0] - model.R
    for i in range(model.m):
        Jsum = Jsum + u[i] * model.J[i + 1]
    return Jsum @ model.Q


def input_vector(model: PHModel, u) -> np.ndarray:
    """Source term b(u) = (G0 + sum_i Gi*ui) E."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    b = model.G[0] @ model.E
    for i in range(model.m):
        b = b + u[i] * (model.G[i + 1] @ model.E)
    return b


def dynamics(model: PHModel, x: np.ndarray, u) -> np.ndarray:
    """Right-hand side f(x, u) = Lambda(u) x + b(u)."""
    return drift_matrix(model, u) @ np.asarray(x, dtype=float) + input_vector(model, u)


def equilibrium_residual(model: PHModel, x_star: np.ndarray, u_star) -> np.ndarray:
    """f(x_star, u_star); zero iff the pair is a genuine operating point."""
    return dynamics(model, x_star, u_star)


def make_equilibrium_pair(model: PHModel, x_star, u_star, tol: float = 1e-9) -> EquilibriumPair:
    """Validate and package an operating point.  Rejects duty ratios on or
    outside the interval boundaries and residuals above `tol`."""
    x_star = np.asarray(x_star, dtype=float)
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    if u_star.min() <= 0.0 or u_star.max() >= 1.0:
        raise ModelError(f"duty vector {u_star} leaves the open interval (0, 1)")
    res = float(np.linalg.norm(equilibrium_residual(model, x_star, u_star)))
    if not np.isfinite(res) or res > tol:
        raise ModelError(f"equilibrium residual {res:.3e} exceeds tolerance {tol:.1e}")
    return EquilibriumPair(x_star=x_star, u_star=u_star, residual_norm=res)
