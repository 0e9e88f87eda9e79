"""Observer building blocks against independent oracles.

Oracles used here:

* index-level loop reimplementations for every matrix derivative;
* `scipy.integrate.solve_ivp` at rtol 1e-12 for the exact-step claims
  (scalar estimator, gradient flows, Riccati equation);
* Faddeev-LeVerrier for the 4 x 4 cofactor adjugate and determinant;
* closed forms: the rank-one gradient step, H(t) = sqrt(s) tanh(sqrt(s) t)
  for the scalar Riccati equation, and exponential contraction for
  constant excitation.

The adjugate tests include singular matrices on purpose: the whole point
of mixing with adj(Omega) instead of inverting is that it stays exact
when the regression is not yet excited.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pbclab.observers import (
    adjugate,
    determinant,
    drem_mix,
    fct_combine,
    gpebo_estimate,
    gpebo_matrix_derivatives,
    gradient_derivatives,
    gradient_update,
    kbf_derivatives,
    raw_steps,
    regressor_norms,
    scalar_steps,
    scalar_update,
)


# -- adjugate ----------------------------------------------------------------


def _faddeev_leverrier(a):
    """(adj, det) of a square matrix by the Faddeev-LeVerrier recursion: an
    oracle independent of the cofactor expansion."""
    n = a.shape[0]
    M = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        M = a @ M + c * np.eye(n)
        c = -np.trace(a @ M) / k
    return (-1.0) ** (n - 1) * M, (-1.0) ** n * c


def test_adjugate_identity_on_random_matrices():
    rng = np.random.default_rng(61)
    n = 4
    for _ in range(100):
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        adj = adjugate(A)
        det = determinant(A)
        scale = max(1.0, abs(det), np.abs(A @ adj).max())
        assert np.allclose(A @ adj, det * np.eye(n), rtol=0.0, atol=1e-10 * scale)
        assert np.allclose(adj @ A, det * np.eye(n), rtol=0.0, atol=1e-10 * scale)
        assert det == pytest.approx(np.linalg.det(A), rel=1e-8, abs=1e-10)
        adj_fl, det_fl = _faddeev_leverrier(A)
        assert np.allclose(adj, adj_fl, rtol=0.0, atol=1e-12 * scale)
        assert det == pytest.approx(det_fl, rel=1e-10, abs=1e-12)


def test_adjugate_matches_inverse_when_well_conditioned():
    rng = np.random.default_rng(67)
    n = 4
    for _ in range(50):
        A = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
        det = determinant(A)
        assert abs(det) > 1e-6
        assert np.allclose(adjugate(A), det * np.linalg.inv(A), rtol=1e-8, atol=1e-10)


def test_adjugate_on_singular_matrices():
    rng = np.random.default_rng(71)
    n = 4
    for _ in range(40):
        # rank n-1: adjugate is nonzero but annihilates the matrix
        B = rng.standard_normal((n, n - 1))
        Cf = rng.standard_normal((n - 1, n))
        A = B @ Cf
        adj = adjugate(A)
        bound = 1e-9 * (1.0 + np.abs(A).max()) ** (n - 1) * math.factorial(n - 1)
        assert np.abs(A @ adj).max() < bound
        assert np.abs(adj @ A).max() < bound
        assert np.abs(adj).max() > 0.0
        assert abs(determinant(A)) < bound
        # rank n-2: every (n-1)-minor vanishes, the adjugate is zero
        B2 = rng.standard_normal((n, n - 2))
        C2 = rng.standard_normal((n - 2, n))
        adj2 = adjugate(B2 @ C2)
        assert np.abs(adj2).max() < bound


def test_adjugate_rejects_nonsquare():
    with pytest.raises(ValueError):
        adjugate(np.zeros((2, 3)))
    # the cofactor scheme is the state dimension's, 4 x 4 alone
    for n in (1, 2, 3, 5, 6):
        with pytest.raises(ValueError):
            adjugate(np.eye(n))
        with pytest.raises(ValueError):
            determinant(np.eye(n))


# -- scalar estimator --------------------------------------------------------


def test_scalar_update_matches_ivp_oracle():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        omega0 = float(rng.uniform(0.2, 1.0))
        theta0 = rng.standard_normal(n)
        scriptY = rng.standard_normal(n)
        Delta = float(rng.uniform(-1.5, 1.5))
        gamma = float(rng.uniform(0.5, 3.0))
        h = float(rng.uniform(0.1, 1.0))

        def rhs(t, z):
            om, th = z[0], z[1:]
            return np.concatenate([[-gamma * Delta**2 * om], gamma * Delta * (scriptY - Delta * th)])

        sol = solve_ivp(rhs, (0.0, h), np.concatenate([[omega0], theta0]), rtol=1e-12, atol=1e-14)
        om_new, th_new = scalar_update(omega0, theta0, scriptY, Delta, gamma, h)
        assert om_new == pytest.approx(sol.y[0, -1], rel=1e-9, abs=1e-12)
        assert np.allclose(th_new, sol.y[1:, -1], rtol=1e-9, atol=1e-12)


def test_scalar_update_edge_cases():
    theta = np.array([1.0, -2.0])
    scriptY = np.array([3.0, 4.0])
    # no excitation: nothing moves
    om, th = scalar_update(0.7, theta, scriptY, 0.0, 1e17, 1e-6)
    assert om == 0.7 and np.array_equal(th, theta)
    # subnormal excitation: finite, contractive
    om, th = scalar_update(1.0, theta, scriptY, 1e-180, 1e17, 1e-6)
    assert np.isfinite(th).all() and 0.0 < om <= 1.0
    # overwhelming excitation: lands exactly on scriptY / Delta
    om, th = scalar_update(1.0, theta, scriptY, 2.0, 1e17, 1.0)
    assert om == 0.0
    assert np.array_equal(th, scriptY / 2.0)


def _tape(rng, T, width):
    """T tape rows of `width` floats over 16 decades (a scale per row),
    with -0.0 entries, read through strided views as a run reads its tape:
    a wider array of which the rows are a slice."""
    wide = np.empty((T, width + 3))
    wide[:, 1 : width + 1] = rng.standard_normal((T, width)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(T, 1))
    wide[:, 1 : width + 1][rng.random((T, width)) < 0.02] = -0.0
    return wide[:, 1 : width + 1]


def test_the_batched_mix_and_regressor_norms_equal_their_per_step_forms_bit_for_bit():
    # a tape of T steps mixed at once must give each step's drem_mix, and
    # the stacked |phi|^2 each step's phi @ phi, over 2 000 draws across 16
    # decades, with singular rows (Delta = 0) and -0.0 entries; on the
    # strided view of the stacked adjugates (np.moveaxis without a
    # contiguous copy) the product sums in another order and fails here
    rng = np.random.default_rng(2017)
    T = 2000
    tape = _tape(rng, T, 20)
    tape[::9, 4:8] = 0.0  # the first row of Omega: Delta = 0
    tape[1::9, 4:8] = -0.0
    scriptY, Delta = drem_mix(tape[:, 4:].reshape(T, 4, 4), tape[:, :4])
    for t in range(T):
        want_Y, want_D = drem_mix(tape[t, 4:].reshape(4, 4).copy(), tape[t, :4].copy())
        assert scriptY[t].tobytes() == want_Y.tobytes(), t
        assert np.float64(want_D).tobytes() == Delta[t].tobytes(), t
    assert (Delta == 0.0).sum() >= 2 * T // 9
    phi = _tape(rng, T, 5)[:, :4]
    phi[::11] = 0.0
    nrm2 = regressor_norms(phi)
    for t in range(T):
        assert np.float64(float(phi[t] @ phi[t])).tobytes() == nrm2[t].tobytes(), t


def test_taped_steps_equal_per_step_calls_bit_for_bit():
    # scalar_steps and raw_steps take T steps of E gains on a tape at once;
    # row t + 1 must be the state of E x T calls of scalar_update (on
    # drem_mix of the step) or of gradient_update, bit for bit.  The
    # tape holds steps with Delta = 0 (which must not divide by it, under
    # the suite's warnings-as-errors), rows whose gamma Delta^2 h underflows
    # with Delta != 0 and -0.0 entries; a raw gradient holds on phi = 0
    rng = np.random.default_rng(2024)
    T, E, n, h = 600, 5, 4, 5e-7
    tape = _tape(rng, T, 20)
    tape[::7, 4:8] = 0.0  # Delta = 0
    tape[3::7, 4:] *= 1e-40  # Delta ~ 1e-150: z underflows to 0
    tape[1:3] = rng.standard_normal((2, 20)) * 1e-4  # Delta ~ 1e-16: the first gain holds, the others move
    gamma = np.array([[1e-300], [1.0], [1e10], [1e12], [1e17]])
    states = np.empty((T + 1, E, 1 + n))
    states[0, :, 0] = rng.uniform(0.0, 1.0, E)
    states[0, :, 1:] = rng.standard_normal((E, n))
    states[0, 0, 1:] = -0.0  # held as it is: -0.0 + 0 (target + 0.0) would be 0.0
    scriptY, Delta = drem_mix(tape[:, 4:].reshape(T, 4, 4), tape[:, :4])
    scalar_steps(states[:, :, :1], states[:, :, 1:], scriptY, Delta, gamma, h)
    state = states[0].copy()
    seen = {"Delta = 0": 0, "z = 0, Delta != 0": 0, "z > 0": 0}
    for t in range(T):
        sY, D = drem_mix(tape[t, 4:].reshape(4, 4).copy(), tape[t, :4].copy())
        for e, g in enumerate(gamma[:, 0].tolist()):
            state[e, 0], state[e, 1:] = scalar_update(state[e, 0], state[e, 1:].copy(), sY, D, g, h)
        assert states[t + 1].tobytes() == state.tobytes(), t
        z = gamma * D * D * h
        seen["Delta = 0" if D == 0.0 else "z > 0" if z.all() else "z = 0, Delta != 0"] += 1
    assert min(seen.values()) >= T // 8, seen
    data = _tape(rng, T, 5)
    data[::5, :4] = 0.0  # phi = 0
    gains = [1e-300, 1.0, 1e6, 1e8, 1e12]
    thetas = np.empty((T + 1, E, n))
    thetas[0] = rng.standard_normal((E, n))
    raw_steps(thetas, data[:, :4], data[:, 4], gains, h)
    theta = thetas[0].copy()
    for t in range(T):
        for e, g in enumerate(gains):
            theta[e] = gradient_update(theta[e], g, "raw", h, CPhi=data[t, None, :4].copy(), y_shift=float(data[t, 4]))
        assert thetas[t + 1].tobytes() == theta.tobytes(), t


def test_drem_contraction_invariant():
    # theta_hat - theta = omega * (theta_hat0 - theta) holds exactly for the
    # frozen-coefficient recursion, for any Delta sequence
    rng = np.random.default_rng(79)
    n = 4
    theta = rng.standard_normal(n)
    theta0 = rng.standard_normal(n)
    omega, theta_hat = 1.0, theta0.copy()
    h = 1e-3
    for _ in range(500):
        Delta = float(rng.uniform(-2.0, 2.0)) * (rng.uniform() > 0.3)
        scriptY = Delta * theta  # exact decoupled regression
        omega_new, theta_hat = scalar_update(omega, theta_hat, scriptY, Delta, 50.0, h)
        assert 0.0 < omega_new <= omega  # never increasing
        omega = omega_new
        lhs = theta_hat - theta
        rhs = omega * (theta0 - theta)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)
    assert omega < 1e-6  # this sequence excites plenty


def test_fct_combine_recovers_exactly_below_threshold():
    rng = np.random.default_rng(83)
    mu = 1e-6
    for _ in range(20):
        theta = rng.standard_normal(3)
        theta0 = rng.standard_normal(3)
        omega = float(rng.uniform(1e-12, 1.0 - mu))
        theta_hat = theta + omega * (theta0 - theta)
        got = fct_combine(theta_hat, theta0, omega, mu)
        assert np.allclose(got, theta, rtol=1e-9, atol=1e-11)


def test_fct_combine_clips_above_threshold():
    mu = 0.1
    theta0 = np.array([1.0])
    theta_hat = np.array([1.0])
    # omega = 1 would divide by zero; the clip keeps it defined
    got = fct_combine(theta_hat, theta0, 1.0, mu)
    assert np.allclose(got, theta_hat)
    # continuity at the threshold
    a = fct_combine(np.array([0.4]), theta0, 1.0 - mu, mu)
    b = fct_combine(np.array([0.4]), theta0, 1.0 - mu + 1e-12, mu)
    assert np.allclose(a, b, rtol=1e-9)


# -- matrix derivative oracles -----------------------------------------------


def _random_gpebo(rng, n):
    """Random (xi, Phi, Y, Omega) with a symmetric Omega."""
    xi, Phi, Y = rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal(n)
    Omega = rng.standard_normal((n, n))
    return xi, Phi, Y, Omega + Omega.T


def test_gpebo_matrix_derivatives_against_index_oracle():
    rng = np.random.default_rng(89)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        lam = float(rng.uniform(0.5, 8.0))
        xi, Phi, Y, Omega = _random_gpebo(rng, n)
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        C = rng.standard_normal((p, n))
        x = rng.standard_normal(n)
        y_m = C @ x
        dxi, dPhi, dY, dOm = gpebo_matrix_derivatives(A, b, C, xi, Phi, Y, Omega, lam, y_m)
        assert np.allclose(dxi, A @ xi + b, rtol=1e-12, atol=1e-12)
        assert np.allclose(dPhi, A @ Phi, rtol=1e-12, atol=1e-12)
        innov = y_m - C @ xi
        want_dY = lam * (Phi.T @ C.T @ innov - Y)
        want_dOm = lam * (Phi.T @ C.T @ C @ Phi - Omega)
        assert np.allclose(dY, want_dY, rtol=1e-11, atol=1e-11)
        assert np.allclose(dOm, want_dOm, rtol=1e-11, atol=1e-11)


def test_pebo_invariant_and_regression_consistency_lti():
    # joint high-accuracy integration of plant, copy, transition matrix and
    # the regression filters on a random stable LTI system: the invariant
    # x = xi + Phi (x0 - xi0) and the exact regression Y = Omega theta
    rng = np.random.default_rng(97)
    n, p, lam = 4, 1, 4.0  # the state dimension, which the mixing takes
    B = rng.standard_normal((n, n))
    A = -(B @ B.T) - 0.5 * np.eye(n)
    b = rng.standard_normal(n)
    C = rng.standard_normal((p, n))
    x0 = rng.standard_normal(n)
    xi0 = rng.standard_normal(n)
    theta = x0 - xi0

    def rhs(t, z):
        x = z[:n]
        xi = z[n : 2 * n]
        Phi = z[2 * n : 2 * n + n * n].reshape(n, n)
        Y = z[2 * n + n * n : 3 * n + n * n]
        Om = z[3 * n + n * n :].reshape(n, n)
        innov = C @ x - C @ xi
        CPhi = C @ Phi
        return np.concatenate(
            [
                A @ x + b,
                A @ xi + b,
                (A @ Phi).ravel(),
                lam * (CPhi.T @ innov - Y),
                (lam * (CPhi.T @ CPhi - Om)).ravel(),
            ]
        )

    z0 = np.concatenate([x0, xi0, np.eye(n).ravel(), np.zeros(n), np.zeros(n * n)])
    sol = solve_ivp(rhs, (0.0, 2.0), z0, rtol=1e-12, atol=1e-14, t_eval=[0.5, 1.0, 2.0])
    for k in range(sol.t.size):
        z = sol.y[:, k]
        x = z[:n]
        xi = z[n : 2 * n]
        Phi = z[2 * n : 2 * n + n * n].reshape(n, n)
        Y = z[2 * n + n * n : 3 * n + n * n]
        Om = z[3 * n + n * n :].reshape(n, n)
        assert np.allclose(gpebo_estimate(xi, Phi, theta), x, rtol=1e-8, atol=1e-10)
        assert np.allclose(Y, Om @ theta, rtol=1e-7, atol=1e-10)
        # the filtered Gramian stays symmetric psd
        assert np.abs(Om - Om.T).max() < 1e-10
        assert np.linalg.eigvalsh(Om).min() > -1e-12
        # mixing solves the decoupled regression
        scriptY, Delta = drem_mix(Om, Y)
        assert np.allclose(scriptY, Delta * theta, rtol=1e-6, atol=1e-12)


# -- comparison observers ----------------------------------------------------


def test_kbf_derivatives_formula_and_symmetry():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        C = rng.standard_normal((p, n))
        S = np.eye(n)
        x_hat = rng.standard_normal(n)
        H = rng.standard_normal((n, n))
        H = H @ H.T
        y_m = rng.standard_normal(p)
        dx, dH = kbf_derivatives(A, b, C, S, x_hat, H, y_m)
        want_dx = A @ x_hat + b + H @ C.T @ (y_m - C @ x_hat)
        raw = H @ A.T + A @ H - H @ C.T @ C @ H + S
        assert np.allclose(dx, want_dx, rtol=1e-11, atol=1e-11)
        assert np.allclose(dH, 0.5 * (raw + raw.T), rtol=1e-11, atol=1e-11)
        assert np.abs(dH - dH.T).max() == 0.0


def test_kbf_riccati_scalar_tanh_closed_form():
    # a = 0, c = 1, H(0) = 0: dH/dt = s - H^2 has H(t) = sqrt(s) tanh(sqrt(s) t)
    s = 2.0
    A = np.zeros((1, 1))
    b = np.zeros(1)
    C = np.ones((1, 1))
    S = np.array([[s]])

    def rhs(t, z):
        _, dH = kbf_derivatives(A, b, C, S, np.zeros(1), z.reshape(1, 1), np.zeros(1))
        return dH.ravel()

    sol = solve_ivp(rhs, (0.0, 1.3), [0.0], rtol=1e-12, atol=1e-14)
    want = math.sqrt(s) * math.tanh(math.sqrt(s) * 1.3)
    assert sol.y[0, -1] == pytest.approx(want, rel=1e-8)


def test_gradient_update_rank_one_exact():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        phi = rng.standard_normal(n)
        y = float(rng.standard_normal())
        theta0 = rng.standard_normal(n)
        gamma = float(rng.uniform(0.5, 2.0))
        h = float(rng.uniform(0.2, 1.5))
        CPhi = phi[None, :]

        def rhs(t, th):
            return gradient_derivatives(th, gamma, "raw", CPhi=CPhi, y_shift=[y])

        sol = solve_ivp(rhs, (0.0, h), theta0, rtol=1e-12, atol=1e-14)
        got = gradient_update(theta0, gamma, "raw", h, CPhi=CPhi, y_shift=[y])
        assert np.allclose(got, sol.y[:, -1], rtol=1e-8, atol=1e-10)
        # components orthogonal to the regressor never move
        v = rng.standard_normal(n)
        v -= (v @ phi) / (phi @ phi) * phi
        assert (got - theta0) @ v == pytest.approx(0.0, abs=1e-10)
    # infinite-gain limit lands exactly on the consistent hyperplane
    got = gradient_update(np.zeros(3), 1e300, "raw", 1.0, CPhi=np.array([[1.0, 2.0, 2.0]]), y_shift=[9.0])
    assert (np.array([1.0, 2.0, 2.0]) @ got) == pytest.approx(9.0, rel=1e-12)
    # zero regressor: frozen
    same = gradient_update(np.ones(3), 1e8, "raw", 1.0, CPhi=np.zeros((1, 3)), y_shift=[0.0])
    assert np.array_equal(same, np.ones(3))


def test_gradient_update_extended_matches_ivp():
    rng = np.random.default_rng(107)
    n = 3
    B = rng.standard_normal((n, n))
    Omega = B @ B.T
    theta = rng.standard_normal(n)
    Y = Omega @ theta
    theta0 = rng.standard_normal(n)
    gamma, h = 0.8, 0.7

    def rhs(t, th):
        return gradient_derivatives(th, gamma, "extended", Omega=Omega, Y=Y)

    sol = solve_ivp(rhs, (0.0, h), theta0, rtol=1e-12, atol=1e-14)
    got = gradient_update(theta0, gamma, "extended", h, Omega=Omega, Y=Y)
    assert np.allclose(got, sol.y[:, -1], rtol=1e-8, atol=1e-10)
    # fixed point stays put
    again = gradient_update(theta, gamma, "extended", h, Omega=Omega, Y=Y)
    assert np.allclose(again, theta, rtol=1e-12, atol=1e-12)


def test_gradient_update_singular_extended_preserves_nullspace():
    rng = np.random.default_rng(109)
    n = 3
    v = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    Omega = np.outer(u1, u1)  # rank one
    theta = rng.standard_normal(n)
    Y = Omega @ theta
    theta0 = rng.standard_normal(n)
    got = gradient_update(theta0, 5.0, "extended", 10.0, Omega=Omega, Y=Y)
    # motion happens only along u1
    w = v - (v @ u1) / (u1 @ u1) * u1
    assert (got - theta0) @ w == pytest.approx(0.0, abs=1e-9)
    assert np.isfinite(got).all()


def test_gradient_rejects_unknown_mode():
    with pytest.raises(ValueError):
        gradient_derivatives(np.zeros(2), 1.0, "newton")
    with pytest.raises(ValueError):
        gradient_update(np.zeros(2), 1.0, "newton", 0.1)
