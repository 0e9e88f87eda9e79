"""Structure checks for the averaged bilinear energy-based model container.

The oracle for the dynamics is an explicit index-level reimplementation
of x' = (J0 + sum ui Ji - R) Q x + (G0 + sum ui Gi) E with plain Python
loops, compared against the vectorized module on seeded random draws.
"""

import numpy as np
import pytest

from pbclab.cuk import CukParams, build_cuk
from pbclab.phmodel import (
    ModelError,
    PHModel,
    coenergy,
    drift_matrix,
    dynamics,
    energy,
    equilibrium_residual,
    input_vector,
    make_equilibrium_pair,
    validate_model,
)


def random_model(rng, n=4, m=2, p=1, strict=False):
    """Random valid model: skew J's, psd (or pd) R, diagonal Q, full-rank C."""
    J = []
    for _ in range(m + 1):
        a = rng.standard_normal((n, n))
        J.append(a - a.T)
    if strict:
        a = rng.standard_normal((n, n))
        R = a @ a.T + 0.1 * np.eye(n)
    else:
        a = rng.standard_normal((n - 1, n))  # rank-deficient psd
        R = a.T @ a
    Q = np.diag(rng.uniform(0.5, 2.0, size=n))
    G = [rng.standard_normal((n, n)) for _ in range(m + 1)]
    E = rng.standard_normal(n)
    while True:
        C = rng.standard_normal((p, n))
        if np.linalg.matrix_rank(C) == p:
            break
    return PHModel(J=J, R=R, Q=Q, G=G, E=E, C=C)


def dynamics_oracle(model, x, u):
    """Index-level restatement of the vector field."""
    n, m = model.n, model.m
    A = [[model.J[0][i][j] for j in range(n)] for i in range(n)]
    for k in range(m):
        for i in range(n):
            for j in range(n):
                A[i][j] += u[k] * model.J[k + 1][i][j]
    for i in range(n):
        for j in range(n):
            A[i][j] -= model.R[i][j]
    qx = [model.Q[i][i] * x[i] for i in range(n)]
    out = [sum(A[i][j] * qx[j] for j in range(n)) for i in range(n)]
    for i in range(n):
        g = model.G[0][i]
        for k in range(m):
            g = g + u[k] * model.G[k + 1][i]
        out[i] += float(g @ model.E)
    return np.array(out)


def test_random_models_validate():
    rng = np.random.default_rng(7)
    for trial in range(20):
        model = random_model(rng, n=rng.integers(2, 6), m=rng.integers(1, 3), strict=trial % 2 == 0)
        validate_model(model)
        assert model.strictly_dissipative == (trial % 2 == 0)


def test_dynamics_matches_index_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        model = validate_model(random_model(rng, n=n, m=m))
        x = rng.standard_normal(n)
        u = rng.uniform(0.0, 1.0, size=m)
        got = dynamics(model, x, u)
        want = dynamics_oracle(model, x, u)
        assert np.allclose(got, want, rtol=0.0, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_drift_and_input_compose_dynamics():
    rng = np.random.default_rng(3)
    model = validate_model(random_model(rng))
    x = rng.standard_normal(model.n)
    u = rng.uniform(0.0, 1.0, size=model.m)
    f = drift_matrix(model, u) @ x + input_vector(model, u)
    assert np.allclose(f, dynamics(model, x, u), rtol=1e-13, atol=1e-13)


def test_energy_and_coenergy():
    rng = np.random.default_rng(5)
    model = validate_model(random_model(rng))
    for _ in range(20):
        x = rng.standard_normal(model.n)
        assert energy(model, x) == pytest.approx(0.5 * x @ model.Q @ x, rel=1e-13)
        assert energy(model, x) > 0.0
        assert np.allclose(coenergy(model, x), model.Q @ x)
    assert energy(model, np.zeros(model.n)) == 0.0


def test_power_balance_identity():
    # d/dt H = -(Qx)' R (Qx) + (Qx)' b(u): the interconnection terms are
    # annihilated by skewness, so the drop is dissipation plus supply.
    rng = np.random.default_rng(13)
    for _ in range(30):
        model = validate_model(random_model(rng, n=int(rng.integers(2, 6))))
        x = rng.standard_normal(model.n)
        u = rng.uniform(0.0, 1.0, size=model.m)
        qx = coenergy(model, x)
        hdot = qx @ dynamics(model, x, u)
        supply = qx @ input_vector(model, u)
        dissip = qx @ model.R @ qx
        scale = max(1.0, abs(hdot), abs(supply), abs(dissip))
        assert abs(hdot - (supply - dissip)) < 1e-10 * scale


def test_dissipation_never_negative_when_psd():
    rng = np.random.default_rng(17)
    model = validate_model(random_model(rng, strict=False))
    for _ in range(50):
        qx = coenergy(model, rng.standard_normal(model.n))
        assert qx @ model.R @ qx >= -1e-10 * (qx @ qx)


def test_cuk_model_is_not_strictly_dissipative():
    model = build_cuk(CukParams())
    # the transfer capacitor carries no loss term, so R has a zero eigenvalue
    assert model.strictly_dissipative is False
    assert np.linalg.eigvalsh(model.R).min() == pytest.approx(0.0, abs=1e-15)


def _cuk_pieces():
    model = build_cuk(CukParams())
    return model, [m.copy() for m in model.J], model.R.copy(), model.Q.copy()


def test_rejects_non_skew_interconnection():
    model, J, R, Q = _cuk_pieces()
    J[1][0, 1] += 1e-6
    with pytest.raises(ModelError, match="^interconnection matrix J1 is not skew-symmetric$"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C))


def test_rejects_asymmetric_damping():
    model, J, R, Q = _cuk_pieces()
    R[0, 1] = 0.3
    with pytest.raises(ModelError, match="^dissipation matrix R is not symmetric$"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C))


def test_rejects_indefinite_damping():
    model, J, R, Q = _cuk_pieces()
    R[1, 1] = -0.2
    with pytest.raises(ModelError, match=r"^dissipation matrix R has a negative eigenvalue \(-\d"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C))
    # the eigenvalues are taken of R over its largest entry, against the
    # same relative tolerance, so an entry near the float range does not
    # overflow the solver
    R[1, 1], R[2, 2] = 0.0, 1e308
    assert validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C)).strictly_dissipative is False
    R[1, 1] = -1e300
    with pytest.raises(ModelError, match=r"^dissipation matrix R has a negative eigenvalue \(-1\.000e\+300\)$"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C))


def test_rejects_nonpositive_energy_weights():
    model, J, R, Q = _cuk_pieces()
    Q[2, 2] = 0.0
    with pytest.raises(ModelError, match="^energy matrix Q must be diagonal with positive entries$"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=model.C))
    Q[2, 2] = 100.0
    Qfull = Q.copy()
    Qfull[0, 1] = 0.5  # not diagonal
    with pytest.raises(ModelError, match="^energy matrix Q must be diagonal with positive entries$"):
        validate_model(PHModel(J=J, R=R, Q=Qfull, G=model.G, E=model.E, C=model.C))


def test_rejects_rank_deficient_measurement():
    model, J, R, Q = _cuk_pieces()
    C = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0]])  # rank 1, p = 2
    with pytest.raises(ModelError, match="^measurement matrix C has rank 1 < 2 rows$"):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=C))


def test_rejects_full_state_measurement():
    model, J, R, Q = _cuk_pieces()
    with pytest.raises(ModelError):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G, E=model.E, C=np.eye(4)))


def test_rejects_shape_mismatches():
    model, J, R, Q = _cuk_pieces()
    with pytest.raises(ModelError):
        validate_model(PHModel(J=J, R=R[:3, :3], Q=Q, G=model.G, E=model.E, C=model.C))
    with pytest.raises(ModelError):
        validate_model(PHModel(J=J, R=R, Q=Q, G=model.G[:1], E=model.E, C=model.C))


def test_equilibrium_residual_and_pair():
    rng = np.random.default_rng(23)
    model = build_cuk(CukParams())
    x = rng.standard_normal(4)
    u = np.array([0.5])
    assert np.allclose(equilibrium_residual(model, x, u), dynamics(model, x, u))
    with pytest.raises(ValueError):
        make_equilibrium_pair(model, x, u)  # residual far from zero
    with pytest.raises(ValueError):
        make_equilibrium_pair(model, np.zeros(4), np.array([1.0]))  # u on the boundary
