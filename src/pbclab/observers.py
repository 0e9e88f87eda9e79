"""State observers for the averaged converter model.

All of them exploit that, for a known input trajectory, the model is linear
time-varying in the state:  dx/dt = A(t) x + b(t) with A(t) = Lambda(u(t)).

Open-loop copy (parameter-estimation based):
    dxi/dt  = A(t) xi + b(t)
    dPhi/dt = A(t) Phi,  Phi(0) = I
gives x(t) = xi(t) + Phi(t) theta with the constant theta = x(0) - xi(0),
turning state observation into estimation of a constant parameter vector.

From the measurement y_m = C x, linear regression filters with pole lambda

    dY/dt     = -lambda Y     + lambda Phi' C' (y_m - C xi)
    dOmega/dt = -lambda Omega + lambda Phi' C' C Phi

satisfy Y = Omega theta.  Mixing with the adjugate decouples the regression:

    scriptY = adj(Omega) Y = Delta theta,  Delta = det(Omega)

so each parameter obeys its own scalar equation.  The estimator

    domega/dt     = -gamma Delta^2 omega,        omega(0) = 1
    dtheta_hat/dt =  gamma Delta (scriptY - Delta theta_hat)

contracts as theta_hat - theta = omega (theta_hat(0) - theta), and the
algebraic combination

    theta_fct = (theta_hat - omega_c theta_hat(0)) / (1 - omega_c),
    omega_c   = min(omega, 1 - mu)

recovers theta exactly once omega has dropped below 1 - mu, i.e. once the
excitation integral of Delta^2 exceeds -ln(1 - mu) / gamma.  Both scalar
recursions admit exact exponential steps for piecewise-constant Delta,
which keeps them stable for arbitrarily large gamma.

Also provided: a Kalman-Bucy filter (matrix Riccati gain) and plain
gradient parameter estimators on the raw or mixed regression, used as
comparison baselines.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gpebo_matrix_derivatives",
    "adjugate",
    "determinant",
    "drem_mix",
    "scalar_update",
    "drem_scalar_step",
    "scalar_steps",
    "fct_combine",
    "gpebo_estimate",
    "kbf_derivatives",
    "gradient_derivatives",
    "regressor_norms",
    "gradient_update",
    "raw_steps",
]


def gpebo_matrix_derivatives(A, b, C, xi, Phi, Y, Omega, lam: float, y_m):
    """Time derivatives of the copy (xi, Phi) and of the filter (Y, Omega)
    with pole lam, at drift A = Lambda(u) and source b = b(u).  y_m is the
    current measurement C x."""
    dxi = A @ xi + b
    dPhi = A @ Phi
    CPhi = C @ Phi
    innov = np.atleast_1d(y_m) - C @ xi
    dY = lam * (CPhi.T @ innov - Y)
    dOmega = lam * (CPhi.T @ CPhi - Omega)
    return dxi, dPhi, dY, dOmega


# -- adjugate --------------------------------------------------------------
# The cofactor expansion keeps adj and det mutually consistent and exact in
# exact arithmetic.  It is written for the converter's state dimension, 4,
# and no other size is taken.
#
# adj Y on floats (`drem_scalar_step`) sums each row as numpy's 4 x 4 gemv
# sums `adj @ Y` in `drem_mix`, pairwise: (a0 y0 + a2 y2) + (a1 y1 + a3 y3).
# That order matched the product in 20 000 of 20 000 seeded draws on
# OpenBLAS 0.3.31 (Haswell kernel), while left to right differed in
# 14 944.  adj Y / Delta is ill-conditioned before excitation: summed left
# to right, it moved the final FCT error of an 8 000-step five-estimator
# observer-feedback run by 5e-7 of itself.


def _adj_det_4(a):
    # a is a list of row lists of floats (one matrix) or an array, which may
    # stack matrices along axis 2; adj is nested lists of such entries
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    # 2 x 2 minors of the top and bottom row pairs
    s0 = a00 * a11 - a01 * a10
    s1 = a00 * a12 - a02 * a10
    s2 = a00 * a13 - a03 * a10
    s3 = a01 * a12 - a02 * a11
    s4 = a01 * a13 - a03 * a11
    s5 = a02 * a13 - a03 * a12
    c5 = a22 * a33 - a23 * a32
    c4 = a21 * a33 - a23 * a31
    c3 = a21 * a32 - a22 * a31
    c2 = a20 * a33 - a23 * a30
    c1 = a20 * a32 - a22 * a30
    c0 = a20 * a31 - a21 * a30
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = [
        [a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
         a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3],
        [-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
         -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1],
        [a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
         a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0],
        [-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
         -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0],
    ]
    return adj, det


def _adj_det(a):
    """(adj, det) of a 4 x 4 matrix, or of 4 x 4 matrices stacked along
    axis 2."""
    if a.shape[:2] != (4, 4):
        raise ValueError(f"the adjugate is taken of 4 x 4 matrices, got shape {a.shape}")
    adj, det = _adj_det_4(a.tolist() if a.ndim == 2 else a)
    return np.array(adj), det


def adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate (classical adjoint) of a 4 x 4 matrix:
    adj(A) A = A adj(A) = det(A) I, valid also for singular A."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjugate needs a square matrix")
    return _adj_det(a)[0]


def determinant(a: np.ndarray) -> float:
    """Determinant of a 4 x 4 matrix, by the same cofactor scheme as
    `adjugate`."""
    a = np.asarray(a, dtype=float)
    return float(_adj_det(a)[1])


def drem_mix(Omega: np.ndarray, Y: np.ndarray):
    """Decouple the vector regression Y = Omega theta into n scalar ones:
    returns (scriptY, Delta) with scriptY = adj(Omega) Y and Delta =
    det(Omega), so scriptY = Delta theta.  Omega and Y are float arrays.

    Omega may also be a stack (T, 4, 4) with Y (T, 4), such as the frozen
    inputs of T steps; then row t of (scriptY, Delta) is the call on
    (Omega[t], Y[t]), bit for bit.  The adjugates are stacked along the
    last axis and multiplied from a contiguous copy: on the strided view
    the stacked product sums in another order."""
    if Omega.ndim == 2:
        adj, det = _adj_det(Omega)
        return adj @ Y, float(det)
    adj, det = _adj_det(np.moveaxis(Omega, 0, -1))
    adj = np.ascontiguousarray(np.moveaxis(adj, -1, 0))
    return (adj @ Y[:, :, None])[:, :, 0], det


def _scalar_weights(gamma, Delta, h: float):
    """The weights of the scalar estimator's exact step: the exponent
    z = gamma Delta^2 h, the decay kappa = exp(-z) of omega and the pull
    1 - kappa = -expm1(-z) of theta_hat, without cancellation.  Every
    operation acts element by element, so gamma and Delta may be arrays
    that broadcast, such as a column of gains against the mixes of many
    steps, and each entry is the call on its own floats, bit for bit."""
    z = gamma * Delta * Delta * h
    return z, np.exp(-z), -np.expm1(-z)


def _scalar_theta_step(theta_hat, pull, target, out=None):
    """theta_hat + pull (target - theta_hat): the exact step of theta_hat
    toward target = scriptY / Delta with the pull of `_scalar_weights`,
    written into `out` when given (which may not be theta_hat)."""
    d = np.subtract(target, theta_hat, out=out)
    return np.add(theta_hat, np.multiply(pull, d, out=d), out=d)


def scalar_update(omega: float, theta_hat: np.ndarray, scriptY: np.ndarray, Delta: float, gamma: float, h: float):
    """Advance the scalar estimator over one step of length h with the mix
    (scriptY, Delta) frozen (theta_hat and scriptY float arrays).  The step
    is the exact solution of

        domega/dt     = -gamma Delta^2 omega
        dtheta_hat/dt =  gamma Delta (scriptY - Delta theta_hat)

    so it remains contractive for any gamma (the recursions are stiff for
    gains of practical interest, up to 1e17): omega kappa and
    `_scalar_theta_step` with the weights of `_scalar_weights`.  A step with
    gamma Delta^2 h = 0 (Delta = 0, or an underflow) leaves the state as it
    is."""
    z, kappa, pull = _scalar_weights(gamma, Delta, h)
    if z == 0.0:  # NaN moves
        return omega, theta_hat
    return omega * kappa, _scalar_theta_step(theta_hat, pull, scriptY / Delta)


def drem_scalar_step(state: list, row: list, gamma: float, h: float) -> list:
    """`drem_mix` then `scalar_update` on Python floats, bit for bit: the
    state [omega, *theta_hat] after one step of length h on the frozen
    tape row [*Y, *Omega] (Omega row-major).  adj Y is summed in the order
    of the numpy product (see `_adj_det_4`), and the weights are numpy's
    exp and expm1 of `_scalar_weights`; a held step returns state."""
    y0, y1, y2, y3 = row[:4]
    adj, Delta = _adj_det_4([row[4:8], row[8:12], row[12:16], row[16:20]])
    z, kappa, pull = _scalar_weights(gamma, Delta, h)
    if z == 0.0:  # NaN moves, as in scalar_update
        return state
    kappa, pull = float(kappa), float(pull)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = adj
    omega, t0, t1, t2, t3 = state
    return [
        omega * kappa,
        t0 + pull * (((a00 * y0 + a02 * y2) + (a01 * y1 + a03 * y3)) / Delta - t0),
        t1 + pull * (((a10 * y0 + a12 * y2) + (a11 * y1 + a13 * y3)) / Delta - t1),
        t2 + pull * (((a20 * y0 + a22 * y2) + (a21 * y1 + a23 * y3)) / Delta - t2),
        t3 + pull * (((a30 * y0 + a32 * y2) + (a31 * y1 + a33 * y3)) / Delta - t3),
    ]


def scalar_steps(omega, theta_hat, scriptY, Delta, gamma, h: float):
    """`scalar_update` over T steps, on the mixes (scriptY (T, n), Delta
    (T,)) of each step: omega (T + 1, E, 1) and theta_hat (T + 1, E, n)
    hold the states of the gains gamma (a column (E, 1)) before the first
    step in row 0, and row t + 1 is written with the state after step t,
    bit for bit each gain's call on step t's mix.  What does not depend on the
    state is taken for all steps at once: the weights, omega as their
    running product (kappa = exp(-0) = 1, so a row with z = 0 holds) and
    the targets scriptY / Delta, which a step with Delta = 0 does not read.
    theta_hat alone is stepped in turn, holding the rows with z = 0."""
    z, kappa, pull = _scalar_weights(gamma, Delta[:, None, None], h)
    omega[1:] = kappa
    np.multiply.accumulate(omega, axis=0, out=omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        target = scriptY / Delta[:, None]
    held = z == 0.0  # NaN moves, as in scalar_update
    moves, holds = (~held).any(axis=(1, 2)).tolist(), held.any(axis=(1, 2)).tolist()
    for th0, th1, p, g, hd, moving, holding in zip(theta_hat[:-1], theta_hat[1:], pull, target, held, moves, holds):
        if not moving:
            th1[...] = th0
            continue
        _scalar_theta_step(th0, p, g, out=th1)
        if holding:
            np.copyto(th1, th0, where=hd)


def fct_combine(theta_hat: np.ndarray, theta_hat0: np.ndarray, omega: float, mu: float) -> np.ndarray:
    """Finite-time parameter reconstruction.  Exact once omega <= 1 - mu;
    before that it is a well-defined interpolation using the clipped
    weight omega_c = min(omega, 1 - mu).  omega may also be an array that
    broadcasts against theta_hat, such as one row per sample."""
    omega_c = np.minimum(omega, 1.0 - mu)
    return (theta_hat - omega_c * theta_hat0) / (1.0 - omega_c)


def gpebo_estimate(xi: np.ndarray, Phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """State reconstruction x_hat = xi + Phi theta."""
    return xi + Phi @ theta


# -- comparison observers ---------------------------------------------------


def kbf_derivatives(A, b, C, S, x_hat, H, y_m):
    """Kalman-Bucy filter for dx/dt = A x + b, y = C x with unit output
    noise weight and state noise weight S:

        dx_hat/dt = A x_hat + b + H C' (y_m - C x_hat)
        dH/dt     = H A' + A H - H C' C H + S

    The Riccati derivative is symmetrized to suppress drift."""
    innov = np.atleast_1d(y_m) - C @ x_hat
    dx = A @ x_hat + b + H @ (C.T @ innov)
    dH = H @ A.T + A @ H - H @ (C.T @ (C @ H)) + S
    return dx, 0.5 * (dH + dH.T)


def gradient_derivatives(theta_hat, gamma: float, mode: str, CPhi=None, y_shift=None, Omega=None, Y=None):
    """Gradient flow on the regression residual.

    mode "raw":      dtheta/dt = gamma (C Phi)' (y_shift - C Phi theta)
                     with y_shift = y_m - C xi
    mode "extended": dtheta/dt = gamma Omega (Y - Omega theta)
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if mode == "raw":
        resid = np.atleast_1d(y_shift) - CPhi @ theta_hat
        return gamma * (CPhi.T @ resid)
    if mode == "extended":
        return gamma * (Omega @ (Y - Omega @ theta_hat))
    raise ValueError(f"unknown gradient mode {mode!r}")


def regressor_norms(phi: np.ndarray) -> np.ndarray:
    """phi_t . phi_t for each row of a (T, n) stack, each the `phi @ phi`
    of `gradient_update` bit for bit: a stacked (1, n) @ (n, 1) product of
    a contiguous copy, which runs the per-row dot kernel (a sum of
    products written out, or by `einsum`, adds in another order)."""
    phi = np.ascontiguousarray(phi)
    return (phi[:, None, :] @ phi[:, :, None])[:, 0, 0]


def _raw_weights(gamma, nrm2, h: float):
    """The decay exp(-gamma |phi|^2 h) of a raw gradient's exact step along
    phi; element by element, like `_scalar_weights`."""
    return np.exp(-gamma * nrm2 * h)


def _raw_step(theta_hat, phi, y0: float, nrm2: float, weight):
    """The raw gradient's exact rank-one step: the component s = phi theta
    relaxes to the measurement y0 with the decay `weight` of `_raw_weights`,
    and theta moves along phi alone (nrm2 = phi . phi != 0)."""
    s = float(phi @ theta_hat)
    s_new = y0 + (s - y0) * weight
    return theta_hat + phi * ((s_new - s) / nrm2)


def gradient_update(theta_hat, gamma: float, mode: str, h: float, CPhi=None, y_shift=None, Omega=None, Y=None):
    """Advance the gradient flow exactly over a step of length h with the
    regression data frozen.  For the gains of interest (1e8) the flow is
    far too stiff for explicit integration, so the linear ODE is solved in
    closed form instead: decompose along the regressor and decay each mode
    with its own exponential.  theta_hat and the regression data are float
    arrays; the raw mode reads one measurement, so CPhi is a 1 x n matrix
    and y_shift a float or a one-entry array."""
    if mode == "raw":  # one measurement: a rank-one exact step
        (phi,) = CPhi
        nrm2 = float(phi @ phi)
        if nrm2 == 0.0:
            return theta_hat
        y0 = y_shift if isinstance(y_shift, float) else y_shift[0]
        return _raw_step(theta_hat, phi, y0, nrm2, _raw_weights(gamma, nrm2, h))
    if mode != "extended":
        raise ValueError(f"unknown gradient mode {mode!r}")
    M = Omega @ Omega
    r = Omega @ Y
    # dtheta/dt = gamma (r - M theta) with M symmetric psd and r in range(M)
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    tcoef = vecs.T @ theta_hat
    rcoef = vecs.T @ r
    for i, s in enumerate(vals):
        if s > 0.0:
            target = rcoef[i] / s
            tcoef[i] = target + (tcoef[i] - target) * np.exp(-gamma * s * h)
    return vecs @ tcoef


def raw_steps(theta_hat, phi, y0, gamma, h: float):
    """`gradient_update` in raw mode over T steps, on the frozen data
    (phi (T, n), y0 (T,)) of each step: theta_hat (T + 1, E, n) holds the
    states of the gains gamma (a sequence of E) before the first step in
    row 0, and row t + 1 is written with the state after step t, bit for
    bit the call on step t's data.  |phi|^2 (`regressor_norms`) and the
    decays are taken for all steps at once; phi theta is summed per gain
    and step, as the one call sums it."""
    nrm2 = regressor_norms(phi)
    weights = _raw_weights(np.asarray(gamma, dtype=float), nrm2[:, None], h).tolist()
    for th0, th1, p, y, n2, w in zip(theta_hat[:-1], theta_hat[1:], phi, y0.tolist(), nrm2.tolist(), weights):
        if n2 == 0.0:
            th1[...] = th0
            continue
        for a, b, we in zip(th0, th1, w):
            b[...] = _raw_step(a, p, y, n2, we)
