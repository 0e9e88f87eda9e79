"""PI control of the converter through its shifted passive output.

Around an assignable pair (x_star, u_star) the model satisfies, exactly,

    f(x, u) = Lambda(u_star) (x - x_star) + G_N(x) (u - u_star)

where the columns of G_N(x) are Gi E + Ji Q x.  The map (u - u_star) ->
ytilde with

    ytilde = Cmat (x - x_star),   Cmat = G_N(x_star)' Q

is passive, so the PI

    dx_c/dt = ytilde
    u       = -Kp ytilde - Ki x_c

drives x to x_star for any symmetric positive definite gains.  Along the
closed loop the storage

    W = 0.5 (x - x_star)' Q (x - x_star) + 0.5 (x_c - x_c_star)' Ki (x_c - x_c_star)

with x_c_star = -inv(Ki) u_star decays as dW/dt = -xt' Q R Q xt - ytilde' Kp ytilde.

A textbook PI wrapped directly around the output-voltage error is included
as a baseline; it uses the same clamp but none of the structure above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phmodel import PHModel

__all__ = [
    "KI_MIN_DET",
    "gn_matrix",
    "passive_output_matrix",
    "shifted_output",
    "PiPbcState",
    "make_pi_pbc",
    "pi_pbc_step",
    "integrator_reference",
    "lyapunov_value",
    "ClassicalPiState",
    "classical_pi_step",
    "clamp_duty",
]


KI_MIN_DET = 1e-300  # the least |det Ki| that places -inv(Ki) u_star; validation reads it too


def _gain_matrix(k, m: int) -> np.ndarray:
    """Accept a scalar or an m x m symmetric matrix gain."""
    K = np.atleast_2d(np.asarray(k, dtype=float))
    if K.shape == (1, 1) and m > 1:
        K = K[0, 0] * np.eye(m)
    if K.shape != (m, m):
        raise ValueError(f"gain must be scalar or {m}x{m}, got {K.shape}")
    if np.abs(K - K.T).max() > 1e-12 * max(1.0, np.abs(K).max()):
        raise ValueError("gain matrix must be symmetric")
    return K


def gn_matrix(model: PHModel, x: np.ndarray) -> np.ndarray:
    """n x m input map of the shifted model: column i is Gi E + Ji Q x."""
    x = np.asarray(x, dtype=float)
    qx = model.Q @ x
    cols = [model.G[i + 1] @ model.E + model.J[i + 1] @ qx for i in range(model.m)]
    return np.column_stack(cols)


def passive_output_matrix(model: PHModel, x_star: np.ndarray) -> np.ndarray:
    """m x n output map Cmat = G_N(x_star)' Q of the shifted passive output."""
    return gn_matrix(model, x_star).T @ model.Q


def shifted_output(Cmat: np.ndarray, x: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """ytilde = Cmat (x - x_star), each entry summed left to right:
    ytilde_i = Cmat[i, 0] d_0 + Cmat[i, 1] d_1 + ... with d = x - x_star.

    The order is stated so that the simulation engine, which evaluates the
    same sum on Python floats, matches this function bit for bit."""
    d = np.asarray(x, dtype=float) - np.asarray(x_star, dtype=float)
    ytilde = Cmat[:, 0] * d[0]
    for j in range(1, d.size):
        ytilde = ytilde + Cmat[:, j] * d[j]
    return ytilde


def clamp_duty(u: np.ndarray, u_min: float, u_max: float):
    """Per-channel clamp into [u_min, u_max]; reports whether it acted."""
    clipped = np.minimum(np.maximum(u, u_min), u_max)
    return clipped, bool((clipped != u).any())


@dataclass
class PiPbcState:
    """Gains, operating point and integrator of the passivity-based PI."""

    Kp: np.ndarray  # m x m proportional gain, symmetric > 0
    Ki: np.ndarray  # m x m integral gain, symmetric > 0
    Cmat: np.ndarray  # m x n passive output map at x_star
    x_star: np.ndarray  # target state (fluxes / charges)
    u_star: np.ndarray  # duty vector holding x_star
    x_c: np.ndarray  # integrator state, length m
    x_c_star: np.ndarray  # integrator reference -inv(Ki) u_star, fixed per operating point
    u_min: float = 0.02  # clamp floor
    u_max: float = 0.98  # clamp ceiling


def make_pi_pbc(
    model: PHModel,
    kp,
    ki,
    x_star,
    u_star,
    x_c0=None,
    u_min: float = 0.02,
    u_max: float = 0.98,
) -> PiPbcState:
    m = model.m
    Kp = _gain_matrix(kp, m)
    Ki = _gain_matrix(ki, m)
    x_star = np.asarray(x_star, dtype=float)
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    x_c = np.zeros(m) if x_c0 is None else np.atleast_1d(np.asarray(x_c0, dtype=float)).copy()
    return PiPbcState(
        Kp=Kp,
        Ki=Ki,
        Cmat=passive_output_matrix(model, x_star),
        x_star=x_star,
        u_star=u_star,
        x_c=x_c,
        x_c_star=integrator_reference(Ki, u_star),
        u_min=u_min,
        u_max=u_max,
    )


def pi_pbc_step(state: PiPbcState, x: np.ndarray):
    """Evaluate the PI at the state x.

    Returns (u, dx_c, saturated): the clamped duty vector, the integrator
    derivative (= ytilde) and whether the clamp was active.  The caller
    integrates x_c."""
    ytilde = shifted_output(state.Cmat, x, state.x_star)
    u_raw = -state.Kp @ ytilde - state.Ki @ state.x_c
    u, saturated = clamp_duty(u_raw, state.u_min, state.u_max)
    return u, ytilde, saturated


def integrator_reference(Ki: np.ndarray, u_star: np.ndarray) -> np.ndarray:
    """Integrator value at which the PI reproduces u_star with zero output
    error: x_c_star = -inv(Ki) u_star."""
    Ki = np.atleast_2d(np.asarray(Ki, dtype=float))
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    if abs(np.linalg.det(Ki)) < KI_MIN_DET:
        raise ValueError("integral gain is singular")
    return -np.linalg.solve(Ki, u_star)


def _quad(v, M):
    """v' M v, or one value per row of a stack v.  It is evaluated as a
    (1, n) (n, n) (n, 1) matmul, so a stacked row equals its single
    evaluation bit for bit."""
    v = v[..., None, :]
    return (v @ M @ v.swapaxes(-1, -2))[..., 0, 0]


def _storage(Q, Ki, x, x_c, x_star, x_c_star):
    """W on float arrays with the integrator reference already solved; x
    and x_c may be (K, n) and (K, m) stacks of samples."""
    return 0.5 * _quad(x - x_star, Q) + 0.5 * _quad(x_c - x_c_star, Ki)


def lyapunov_value(model: PHModel, ki, x, x_c, x_star, u_star) -> float:
    """Closed-loop storage W; nonincreasing whenever the clamp is inactive."""
    Ki = _gain_matrix(ki, model.m)
    return float(_storage(
        model.Q,
        Ki,
        np.asarray(x, dtype=float),
        np.atleast_1d(np.asarray(x_c, dtype=float)),
        np.asarray(x_star, dtype=float),
        integrator_reference(Ki, u_star),
    ))


@dataclass
class ClassicalPiState:
    """Baseline PI on the output-voltage error e = v_ref - v4."""

    kp: float  # proportional gain
    ki: float  # integral gain
    v_ref: float  # desired output voltage [V]
    x_c: float = 0.0  # integral of the error
    u_min: float = 0.02
    u_max: float = 0.98


def classical_pi_step(state: ClassicalPiState, v4: float):
    """Evaluate the baseline PI at the measured output voltage.

    Returns (u, dx_c, saturated); the caller integrates x_c.  No anti-windup:
    the clamp is the only nonlinearity, matching the structured controller."""
    err = state.v_ref - float(v4)
    u_raw = -state.kp * err - state.ki * state.x_c
    u = min(max(u_raw, state.u_min), state.u_max)
    return u, err, u != u_raw
