"""Converter matrices and equilibrium map.

Two independent oracles guard the derived numbers:

* `scalar_ode_oracle` rewrites the four branch equations of the averaged
  circuit in plain scalar arithmetic (no matrices) and is compared with
  the matrix model on random states and duty ratios.
* `steady_state_oracle` (in the package, but algorithmically independent
  of the closed form: sign-change scan plus bisection on the steady-state
  polynomial) confirms every closed-form duty root.

The frozen literals below were computed once with those oracles at
tolerance 1e-12 and must not drift.
"""

import numpy as np
import pytest

from pbclab.cuk import (
    CukError,
    CukParams,
    InfeasibleEquilibrium,
    TABLE_DEFAULTS,
    build_cuk,
    physical_equilibrium,
    quadratic_coefficients,
    solve_equilibrium,
    steady_state_oracle,
)
from pbclab.phmodel import dynamics, validate_model

# frozen equilibrium at -15 V (scan oracle tol 1e-12, Newton-polished)
U_STAR_SMALL = 0.6216566898787329
U_STAR_LARGE = 0.88595752331923616
I1_STAR = 1.2323265799509155  # A
V2_STAR = 26.180044814083441  # V
I3_STAR = -0.75  # A, exactly x4*/r = -15/20
X_STAR = np.array(
    [0.012323265799509155, 0.00057596098590983569, -0.0074999999999999997, -0.0003435]
)


def scalar_ode_oracle(p: CukParams, i1, v2, i3, v4, u):
    """Branch equations of the averaged circuit, one line per element."""
    di1 = (-p.r1 * i1 - (1.0 - u) * v2 + p.E) / p.L1
    dv2 = ((1.0 - u) * i1 + u * i3) / p.C1
    di3 = (-p.r2 * i3 - u * v2 - v4) / p.L2
    dv4 = (i3 - v4 / p.r) / p.C2
    return np.array([di1, dv2, di3, dv4])


def test_matrix_model_matches_scalar_odes():
    rng = np.random.default_rng(29)
    p = CukParams()
    model = build_cuk(p)
    for _ in range(200):
        phys = rng.uniform(-30.0, 30.0, size=4)  # (i1, v2, i3, v4)
        u = float(rng.uniform(0.0, 1.0))
        x = np.linalg.solve(model.Q, phys)  # fluxes and charges
        dx = dynamics(model, x, [u])
        dphys = model.Q @ dx  # d/dt of currents and voltages
        want = scalar_ode_oracle(p, *phys, u)
        assert np.allclose(dphys, want, rtol=0.0, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_matrix_literals():
    model = build_cuk(CukParams())
    J0 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    J1 = np.array([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 0]], dtype=float)
    p = CukParams()
    assert np.array_equal(model.J[0], J0)
    assert np.array_equal(model.J[1], J1)
    assert np.array_equal(model.R, np.diag([p.r1, 0.0, p.r2, 1.0 / p.r]))
    assert np.array_equal(model.Q, np.diag([1 / p.L1, 1 / p.C1, 1 / p.L2, 1 / p.C2]))
    assert np.array_equal(model.G[0] @ model.E, np.array([p.E, 0, 0, 0]))
    assert np.array_equal(model.G[1], np.zeros((4, 4)))
    # the sensor reads the output voltage: C x = x4 / C2 = v4
    assert np.array_equal(model.C, np.array([[0.0, 0.0, 0.0, 1.0 / p.C2]]))
    validate_model(model)


def test_defaults_are_the_bench_values():
    p = TABLE_DEFAULTS
    assert (p.E, p.r1, p.r2, p.r) == (12.0, 1.7, 1.7, 20.0)
    assert (p.L1, p.L2, p.C1, p.C2) == (10e-3, 10e-3, 22e-6, 22.9e-6)


def test_quadratic_coefficients_frozen():
    p = CukParams()
    assert quadratic_coefficients(p, -15.0) == pytest.approx((-591.0, 891.0, -325.5), abs=1e-12)
    a2, a1, a0 = quadratic_coefficients(p, -20.0)
    assert (a2, a1, a0) == pytest.approx((-708.0, 1108.0, -434.0), abs=1e-12)
    # exact integer discriminant of the -20 V request: infeasible
    assert a1 * a1 - 4.0 * a2 * a0 == pytest.approx(-1424.0, abs=1e-9)


def test_scan_oracle_roots_frozen():
    roots = steady_state_oracle(CukParams(), -15.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(U_STAR_SMALL, abs=5e-12)
    assert roots[1] == pytest.approx(U_STAR_LARGE, abs=5e-12)


def test_equilibrium_frozen_values():
    pair, inside = solve_equilibrium(CukParams(), -15.0)
    assert pair.u_star.shape == (1,)
    assert pair.u_star[0] == pytest.approx(U_STAR_SMALL, rel=1e-12)
    assert inside == pytest.approx([U_STAR_SMALL, U_STAR_LARGE], rel=1e-12)
    assert pair.residual_norm <= 1e-9
    assert np.allclose(pair.x_star, X_STAR, rtol=1e-12, atol=0.0)
    phys = physical_equilibrium(CukParams(), -15.0, pair.u_star)
    assert phys[0] == pytest.approx(I1_STAR, rel=1e-12)
    assert phys[1] == pytest.approx(V2_STAR, rel=1e-12)
    assert phys[2] == pytest.approx(I3_STAR, rel=1e-14)
    assert phys[3] == -15.0


def test_equilibrium_root_policy():
    pair_hi, _ = solve_equilibrium(CukParams(), -15.0, root_policy="largest")
    assert pair_hi.u_star[0] == pytest.approx(U_STAR_LARGE, rel=1e-12)
    with pytest.raises(CukError):
        solve_equilibrium(CukParams(), -15.0, root_policy="median")


def test_equilibrium_requests():
    with pytest.raises(CukError):
        solve_equilibrium(CukParams(), 0.0)  # inverting stage: must be negative
    with pytest.raises(CukError):
        solve_equilibrium(CukParams(), 5.0)
    with pytest.raises(InfeasibleEquilibrium) as err:
        solve_equilibrium(CukParams(), -20.0)
    assert err.value.discriminant == pytest.approx(-1424.0, abs=1e-9)
    # a duty root exists, but the state at it makes the model residual nan
    for key in ("C1", "C2"):
        with pytest.raises(InfeasibleEquilibrium, match="equilibrium residual nan exceeds"):
            solve_equilibrium(CukParams(**{key: 1e308}), -15.0)


def test_lossless_case_is_exact():
    # without series losses the polynomial factors and the gain is exactly
    # -u/(1-u): a -20 V target needs u = 5/8 and 32 V across the transfer
    # capacitor
    p = CukParams(r1=0.0, r2=0.0)
    pair, inside = solve_equilibrium(p, -20.0)
    assert inside == pytest.approx([0.625], abs=1e-12)
    phys = physical_equilibrium(p, -20.0, pair.u_star)
    assert phys[1] == pytest.approx(32.0, rel=1e-12)
    assert phys[3] == -20.0


def test_other_feasible_targets_frozen():
    pair5, inside5 = solve_equilibrium(CukParams(), -5.0)
    assert inside5 == pytest.approx([0.31486355140981404, 0.96524849340811303], rel=1e-10)
    pair30, _ = solve_equilibrium(CukParams(r=30.0), -15.0)
    assert pair30.u_star[0] == pytest.approx(0.59594723485767576, rel=1e-10)


def test_random_feasible_draws_respect_oracle():
    # every returned duty must satisfy the steady-state polynomial, the
    # model equations, and match a scan-oracle root
    rng = np.random.default_rng(31)
    p0 = CukParams()
    model_cache = {}
    feasible = 0
    for _ in range(120):
        x4 = float(rng.uniform(-26.0, -0.5))
        r = float(rng.choice([10.0, 20.0, 30.0]))
        p = CukParams(r=r)
        a2, a1, a0 = quadratic_coefficients(p, x4)
        if a1 * a1 - 4.0 * a2 * a0 < 0.0:
            with pytest.raises(InfeasibleEquilibrium):
                solve_equilibrium(p, x4)
            continue
        try:
            pair, inside = solve_equilibrium(p, x4)
        except InfeasibleEquilibrium as exc:  # a real root, but none in (0, 1)
            assert str(exc).endswith("all fall outside (0, 1)")
            continue
        feasible += 1
        u = pair.u_star[0]
        poly = a2 * u * u + a1 * u + a0
        scale = max(abs(a2), abs(a1), abs(a0))
        assert abs(poly) <= 1e-9 * scale
        assert pair.residual_norm <= 1e-9
        scan = steady_state_oracle(p, x4)
        assert min(abs(u - s) for s in scan) <= 1e-9
    assert feasible >= 50


def test_rejects_unphysical_parameters():
    for bad in (
        CukParams(L1=0.0),
        CukParams(C2=-1e-6),
        CukParams(r=0.0),
        CukParams(r1=-0.1),
        CukParams(E=0.0),
    ):
        with pytest.raises(CukError):
            build_cuk(bad)
    # a value the model divides by needs a finite reciprocal
    for key in ("r", "L1", "L2", "C1", "C2"):
        with pytest.raises(CukError, match=f"^{key} must have a finite reciprocal, got 5e-324$"):
            build_cuk(CukParams(**{key: 5e-324}))
