"""Shifted passive output and the PI laws built on it.

The load-bearing check is `test_storage_rate_identity`: along the closed
loop the storage W = H(x - x*) + (1/2) xc~' Ki xc~ must satisfy, exactly
as an algebraic identity,

    dW/dt = -(Q x~)' R (Q x~) - y~' Kp y~

whenever the duty is unsaturated.  The identity only holds with the output
map C = Gn(x*)' Q and the integrator reference xc* = -Ki^{-1} u*; any sign
slip in either breaks the cancellation of the cross terms, so this test
pins both conventions.
"""

import math

import numpy as np
import pytest

from pbclab.control import (
    ClassicalPiState,
    _storage,
    clamp_duty,
    classical_pi_step,
    gn_matrix,
    integrator_reference,
    lyapunov_value,
    make_pi_pbc,
    passive_output_matrix,
    pi_pbc_step,
    shifted_output,
)
from pbclab.cuk import CukParams, build_cuk, solve_equilibrium
from pbclab.phmodel import dynamics, drift_matrix

from test_phmodel import random_model

# frozen output-map row at the -15 V equilibrium: (v2*/L1, (i3*-i1*)/C1, -v2*/L2, 0)
CMAT_ROW = np.array([2618.004481408344, -90105.753634132532, -2618.004481408344, 0.0])
GN_COL = np.array([26.180044814083441, -1.9823265799509155, -26.180044814083441, 0.0])


@pytest.fixture(scope="module")
def cuk_setup():
    params = CukParams()
    model = build_cuk(params)
    pair, _ = solve_equilibrium(params, -15.0)
    return params, model, pair


def test_gn_matrix_columns_against_index_oracle():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        model = random_model(rng, n=n, m=m)
        x = rng.standard_normal(n)
        GN = gn_matrix(model, x)
        assert GN.shape == (n, m)
        for i in range(m):
            want = model.G[i + 1] @ model.E + model.J[i + 1] @ model.Q @ x
            assert np.allclose(GN[:, i], want, rtol=1e-13, atol=1e-13)


def test_frozen_output_map(cuk_setup):
    _, model, pair = cuk_setup
    GN = gn_matrix(model, pair.x_star)
    assert np.allclose(GN[:, 0], GN_COL, rtol=1e-12, atol=1e-15)
    Cmat = passive_output_matrix(model, pair.x_star)
    assert Cmat.shape == (1, 4)
    assert np.allclose(Cmat[0], CMAT_ROW, rtol=1e-12, atol=1e-15)


def test_output_map_annihilates_the_equilibrium(cuk_setup):
    # Cmat x* = 0 exactly for this converter: the source column of G is
    # constant and the skew terms cancel pairwise
    _, model, pair = cuk_setup
    Cmat = passive_output_matrix(model, pair.x_star)
    scale = np.abs(Cmat[0] * pair.x_star).sum()
    assert abs((Cmat @ pair.x_star)[0]) < 1e-12 * scale


def test_shifted_output_frozen_value(cuk_setup):
    params, model, pair = cuk_setup
    Cmat = passive_output_matrix(model, pair.x_star)
    x = pair.x_star.copy()
    x[1] += params.C1 * 1.0  # one volt up on the transfer capacitor
    yt = shifted_output(Cmat, x, pair.x_star)
    assert yt.shape == (1,)
    assert yt[0] == pytest.approx(-1.9823265799509151, rel=1e-12)


def test_shifted_output_is_the_left_to_right_sum():
    # ytilde_i sums Cmat[i, j] (x_j - x*_j) left to right, the order the
    # engine's float stage uses; against the correctly rounded math.fsum of
    # the same terms it is off by at most n eps sum |terms|
    rng = np.random.default_rng(47)
    eps = np.finfo(float).eps
    for _ in range(300):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        Cmat = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, n))
        x, x_star = rng.standard_normal(n), rng.standard_normal(n)
        yt = shifted_output(Cmat, x, x_star)
        assert yt.shape == (m,)
        for i in range(m):
            terms = [Cmat[i, j] * (x[j] - x_star[j]) for j in range(n)]
            assert abs(yt[i] - math.fsum(terms)) <= n * eps * sum(map(abs, terms))


def test_shifted_dynamics_identity():
    # f(x, u) - f(x*, u*) = Lambda(u*) (x - x*) + Gn(x) (u - u*) holds as an
    # algebraic identity for ANY pair (x*, u*), not only equilibria
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        model = random_model(rng, n=n, m=m)
        x = rng.standard_normal(n)
        xs = rng.standard_normal(n)
        u = rng.uniform(0.0, 1.0, size=m)
        us = rng.uniform(0.0, 1.0, size=m)
        lhs = dynamics(model, x, u) - dynamics(model, xs, us)
        rhs = drift_matrix(model, us) @ (x - xs) + gn_matrix(model, x) @ (u - us)
        scale = max(1.0, np.abs(lhs).max())
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-10 * scale)


def test_passive_cross_term_identity():
    # x~' Q Gn(x) v = x~' Q Gn(x*) v = y~' v: the state-dependent part of
    # Gn is skew-annihilated, so the frozen output map captures the power
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        model = random_model(rng, n=n, m=m)
        xs = rng.standard_normal(n)
        x = xs + rng.standard_normal(n)
        v = rng.standard_normal(m)
        Cmat = passive_output_matrix(model, xs)
        lhs = (x - xs) @ model.Q @ gn_matrix(model, x) @ v
        rhs = shifted_output(Cmat, x, xs) @ v
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_storage_rate_identity(cuk_setup):
    # dW/dt == -(Qx~)' R (Qx~) - y~' Kp y~ along the unsaturated loop
    params, model, pair = cuk_setup
    kp, ki = 10.0, 5.0
    rng = np.random.default_rng(47)
    state = make_pi_pbc(model, kp, ki, pair.x_star, pair.u_star, u_min=0.0, u_max=1.0)
    xc_ref = integrator_reference(state.Ki, pair.u_star)
    for _ in range(40):
        x = pair.x_star * (1.0 + 0.3 * rng.standard_normal(4))
        xc = xc_ref + 0.02 * rng.standard_normal(1)
        state.x_c = xc
        u, ytil, sat = pi_pbc_step(state, x)
        if sat:
            continue
        xt = x - pair.x_star
        qxt = model.Q @ xt
        wdot = xt @ model.Q @ dynamics(model, x, u) + (xc - xc_ref) @ state.Ki @ ytil
        want = -qxt @ model.R @ qxt - ytil @ state.Kp @ ytil
        scale = max(1.0, abs(want))
        assert wdot == pytest.approx(want, rel=0.0, abs=1e-8 * scale)
        assert wdot <= 1e-8 * scale  # never increasing while unsaturated


def test_pi_pbc_is_quiet_at_the_operating_point(cuk_setup):
    _, model, pair = cuk_setup
    state = make_pi_pbc(model, 10.0, 5.0, pair.x_star, pair.u_star)
    state.x_c = integrator_reference(state.Ki, pair.u_star)
    u, ytil, sat = pi_pbc_step(state, pair.x_star)
    assert not sat
    assert np.allclose(ytil, 0.0, atol=1e-12)
    assert np.allclose(u, pair.u_star, rtol=1e-12)


def test_pi_pbc_saturates_far_from_the_point(cuk_setup):
    _, model, pair = cuk_setup
    state = make_pi_pbc(model, 10.0, 5.0, pair.x_star, pair.u_star)
    state.x_c = np.zeros(1)
    x = pair.x_star + np.array([0.1, 0.01, -0.1, -0.01])  # huge physical excursion
    u, ytil, sat = pi_pbc_step(state, x)
    assert sat
    assert state.u_min <= u[0] <= state.u_max


def test_integrator_reference():
    ki = np.array([[5.0]])
    ref = integrator_reference(ki, np.array([0.6216566898787329]))
    assert ref[0] == pytest.approx(-0.6216566898787329 / 5.0, rel=1e-14)
    with pytest.raises(ValueError, match="^integral gain is singular$"):
        integrator_reference(np.zeros((2, 2)), np.array([0.5, 0.5]))


def test_lyapunov_value_zero_only_at_the_point(cuk_setup):
    params, model, pair = cuk_setup
    ki = 5.0
    xc_ref = integrator_reference(np.array([[ki]]), pair.u_star)
    w0 = lyapunov_value(model, ki, pair.x_star, xc_ref, pair.x_star, pair.u_star)
    assert w0 == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(53)
    # the sampling loop evaluates W from the per-epoch state; it must equal
    # the public function bit for bit, here and at a second reference
    second, _ = solve_equilibrium(params, -10.0)
    for target in (pair, second):
        state = make_pi_pbc(model, 10.0, ki, target.x_star, target.u_star)
        xc_ref = integrator_reference(np.array([[ki]]), target.u_star)
        for _ in range(20):
            xt = 1e-3 * rng.standard_normal(4)
            xct = 1e-3 * rng.standard_normal(1)
            x, xc = target.x_star + xt, xc_ref + xct
            w = lyapunov_value(model, ki, x, xc, target.x_star, target.u_star)
            want = 0.5 * xt @ model.Q @ xt + 0.5 * ki * xct @ xct
            assert w == pytest.approx(want, rel=1e-10)
            assert w > 0.0
            assert _storage(model.Q, state.Ki, x, xc, state.x_star, state.x_c_star) == w


def test_clamp_duty():
    u, acted = clamp_duty(np.array([0.5]), 0.02, 0.98)
    assert not acted and u[0] == 0.5
    u, acted = clamp_duty(np.array([1.4]), 0.02, 0.98)
    assert acted and u[0] == 0.98
    u, acted = clamp_duty(np.array([-0.3]), 0.02, 0.98)
    assert acted and u[0] == 0.02
    # several channels, against np.clip as the reference
    u_raw = np.array([-0.3, 0.02, 0.5, 0.98, 1.4])
    u, acted = clamp_duty(u_raw, 0.02, 0.98)
    assert acted and np.array_equal(u, np.clip(u_raw, 0.02, 0.98))
    # a value on a bound is kept and not reported as saturated
    u_raw = np.array([0.02, 0.5, 0.98])
    u, acted = clamp_duty(u_raw, 0.02, 0.98)
    assert not acted and np.array_equal(u, u_raw)
    # NaN passes through as in np.clip and is reported
    u_raw = np.array([0.5, np.nan])
    u, acted = clamp_duty(u_raw, 0.02, 0.98)
    assert acted and np.array_equal(u, np.clip(u_raw, 0.02, 0.98), equal_nan=True)


def test_classical_pi_direction():
    # output magnitude too small (v4 above the negative target) must push
    # the duty up, both through the proportional and the integral channel
    st = ClassicalPiState(kp=0.008, ki=8.0, v_ref=-15.0)
    st.x_c = -0.07  # integrator holding the loop mid-range
    u, err, sat = classical_pi_step(st, -14.0)
    assert err == pytest.approx(-1.0)
    assert u == pytest.approx(0.008 + 0.56, rel=1e-12) and not sat
    st.x_c = -0.08  # more accumulated negative error -> larger duty
    u2, _, _ = classical_pi_step(st, -14.0)
    assert u2 > u
    st.x_c = -1e9  # enormous windup saturates
    u3, _, sat3 = classical_pi_step(st, -14.0)
    assert sat3 and u3 == st.u_max
