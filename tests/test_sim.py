"""Closed-loop integration engine: step quality, invariants, artifacts.

Oracles and frozen references used here:

* `scipy.linalg.expm` for the Runge-Kutta global-error order on a random
  stable linear system;
* an 8x-finer self-reference for the step-halving ratio of the full
  nonlinear closed loop (frozen scenario, measured ratio 15.94);
* the exact copy-observer identity x = xi + Phi theta and the estimator
  contraction theta_hat - theta = omega (theta_hat(0) - theta), both of
  which the engine must preserve to near machine precision at any gain;
* byte-level determinism of the CSV artifact.

The converter runs use physical initial values (A and V); the engine
owns the conversion to stored flux/charge coordinates.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from pbclab.cuk import CukParams
from pbclab.observers import drem_mix, fct_combine, gpebo_estimate
from pbclab.sim import (
    ControllerSpec,
    EventSpec,
    InfeasibleEquilibrium,
    NonFiniteState,
    ObserverSpec,
    Scenario,
    ScenarioError,
    SharedPass,
    Trajectory,
    compute_metrics,
    rk4_step,
    run_scenario,
)

U_STAR = 0.6216566898787329  # duty ratio holding the output at -15 V
X_STAR_PHYS = (1.2323265799509155, 26.180044814083441, -0.75, -15.0)

# smooth unsaturated baseline-PI scenario used for the order checks
SMOOTH = dict(
    controller=ControllerSpec(
        type="classical-pi", kp=0.008, ki=8.0, x4_star=-15.0, xc0=-0.07
    ),
    horizon=0.004,
)


# -- rk4_step ----------------------------------------------------------------


def test_rk4_single_step_scalar_exponential():
    y = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
    # one hand-computable step of dy/dt = -y
    assert y[0] == pytest.approx(0.9048375, abs=1e-12)
    assert abs(y[0] - math.exp(-0.1)) < 1e-7


def test_rk4_zero_field_keeps_state():
    y0 = np.array([2.0, -3.0, 0.5])
    y = rk4_step(lambda t, y: np.zeros_like(y), 0.0, y0, 0.25)
    assert np.array_equal(y, y0)


def test_rk4_fourth_order_against_matrix_exponential():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4))
    A = -(M @ M.T) - np.eye(4)  # stable
    y0 = rng.standard_normal(4)
    T = 0.5

    def integrate(h):
        y = y0.copy()
        for k in range(int(round(T / h))):
            y = rk4_step(lambda t, y: A @ y, k * h, y, h)
        return y

    exact = expm(A * T) @ y0
    e1 = np.linalg.norm(integrate(0.01) - exact)
    e2 = np.linalg.norm(integrate(0.005) - exact)
    assert 12.0 < e1 / e2 < 20.0


def test_rk4_overflow_raises_non_finite():
    # a direct call is outside run_scenario's np.errstate, so numpy warns too
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteState):
        rk4_step(lambda t, y: y, 0.0, np.array([1.7e308]), 0.1)


# -- scenario validation -------------------------------------------------------


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(horizon=0.0005, h=3e-7))  # not a multiple
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(h=math.nan))
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(horizon=math.inf))
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(stride=0, horizon=1e-5))
    # a stride is an integer >= 1: a float or a bool is not truncated
    for stride in (2.5, 2.0, True, -3):
        with pytest.raises(ScenarioError, match="stride"):
            run_scenario(Scenario(stride=stride, horizon=1e-5))
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(controller=ControllerSpec(type="lqr"), horizon=1e-5))
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(controller=ControllerSpec(feedback="psychic"), horizon=1e-5))
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(controller=ControllerSpec(feedback="observer"), horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(observers=[ObserverSpec(kind="luenberger")], horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(observers=[ObserverSpec(kind="gradient", mode="sideways")], horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(observers=[ObserverSpec(kind="gradient", gamma=-1e8)], horizon=1e-5)
        )
    # the GPEBO kinds need 0 < mu < 1 and gamma > 0, and every estimator
    # that reads a regression filter needs lambda > 0
    for bad in (
        ObserverSpec(kind="fct-gpebo", mu=0.0),
        ObserverSpec(kind="fct-gpebo", mu=1.0),
        ObserverSpec(kind="gpebo", gamma=0.0),
        ObserverSpec(kind="gpebo", lam=-1.0),
        ObserverSpec(kind="gradient", mode="extended", lam=-5.0),
    ):
        with pytest.raises(ScenarioError):
            run_scenario(Scenario(observers=[bad], horizon=1e-5))
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(controller=ControllerSpec(root_policy="biggest"), horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(events=[EventSpec(time=1.0, kind="load", value=30.0)], horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(events=[EventSpec(time=5e-6, kind="tilt", value=1.0)], horizon=1e-5)
        )
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(events=[EventSpec(time=5e-6, kind="load", value=-3.0)], horizon=1e-5)
        )
    # an event between two grid instants is rejected, not moved onto the grid
    for time in (5.25e-6, 1.0000001e-4):
        with pytest.raises(ScenarioError, match="multiple of the step"):
            run_scenario(
                Scenario(events=[EventSpec(time=time, kind="load", value=25.0)], horizon=2e-4)
            )


def test_infeasible_reference_raises_at_start():
    with pytest.raises(InfeasibleEquilibrium):
        run_scenario(
            Scenario(controller=ControllerSpec(x4_star=-20.0), horizon=1e-5)
        )


def test_infeasible_reference_event_raises_mid_run():
    scn = Scenario(
        events=[EventSpec(time=5e-5, kind="reference", value=-20.0)],
        horizon=1e-4,
        stride=10,
    )
    with pytest.raises(InfeasibleEquilibrium) as err:
        run_scenario(scn)
    assert err.value.epoch_time == pytest.approx(5e-5)


# -- shared short closed-loop run ----------------------------------------------


@pytest.fixture(scope="module")
def short_run():
    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12)],
        horizon=0.005,
        h=1e-6,
        stride=10,
    )
    return run_scenario(scn)


def test_initial_sample_is_the_physical_initial_state(short_run):
    assert short_run.t[0] == 0.0
    assert np.allclose(short_run.signals[0], (0.75, 15.0, -1.5, -18.0), atol=1e-12)
    assert short_run.ref[0] == -15.0


def test_copy_observer_invariant_in_closed_loop(short_run):
    rec = short_run.observers["fct"]
    theta = short_run.signals[0]  # xi(0) = 0, so theta is the initial state
    recon = rec["xi"] + np.einsum("kij,j->ki", rec["Phi"], theta)
    rel = np.linalg.norm(short_run.signals - recon, axis=1) / np.linalg.norm(
        short_run.signals, axis=1
    )
    assert rel.max() < 1e-6  # measured ~1e-14; the bound is the contract


def test_contraction_identity_in_closed_loop(short_run):
    rec = short_run.observers["fct"]
    theta = short_run.signals[0]
    omega = rec["omega"]
    # theta_hat(0) = 0, so theta_hat must equal (1 - omega) theta exactly
    target = (1.0 - omega)[:, None] * theta[None, :]
    assert np.abs(rec["theta_hat"] - target).max() <= 1e-8 * np.abs(theta).max()
    assert (np.diff(omega) <= 1e-15).all()
    assert omega[0] == 1.0 and (omega > 0.0).all()


def test_finite_time_lock_after_crossing(short_run):
    rec = short_run.observers["fct"]
    theta = short_run.signals[0]
    mu = 1e-6
    crossed = np.flatnonzero(rec["omega"] <= 1.0 - mu)
    assert crossed.size, "the excitation threshold must be crossed in 5 ms"
    after = slice(crossed[0], None)
    err = np.abs(rec["theta_fct"][after] - theta[None, :]).max()
    assert err <= 1e-6 * np.abs(theta).max()
    # the combined estimate tracks the true state from the crossing on
    rel = rec["err_norm"][after] / np.linalg.norm(short_run.signals[after], axis=1)
    assert rel.max() < 1e-5


def test_metrics_report_the_crossing(short_run):
    m = compute_metrics(short_run, checkpoints=(0.004,))
    assert m["tc_fct"] == pytest.approx(0.00345, abs=1e-4)
    assert m["err_at_0.004_fct"] < 1e-6
    assert m["samples"] == len(short_run.t)
    # the gain and the pole travel with the run, so the crossing law can be
    # re-evaluated from the trajectory alone
    assert short_run.meta["gamma"] == {"fct": 1e12}
    assert short_run.meta["lam"] == {"fct": 5.0}


# -- shared estimator states ------------------------------------------------------


def _six_estimators():
    return [
        ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
        ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
        ObserverSpec(name="emulator", kind="emulator"),
        ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
        ObserverSpec(name="grad-ext", kind="gradient", gamma=1e8, mode="extended"),
        ObserverSpec(name="fct-lam3", kind="fct-gpebo", gamma=1e12, lam=3.0),
    ]


def test_shared_states_leave_every_estimator_as_it_runs_alone():
    # the open-loop copy and the regression filters are integrated once and
    # read by every estimator; on the state loop each estimator must log
    # exactly what it logs when it is the only one
    together = run_scenario(Scenario(observers=_six_estimators(), horizon=0.002))
    for spec in _six_estimators():
        alone = run_scenario(Scenario(observers=[spec], horizon=0.002))
        got, want = together.observers[spec.name], alone.observers[spec.name]
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), (spec.name, key)


def test_logged_signals_equal_their_per_sample_evaluation():
    # the logged estimator signals are derived from the sample store with
    # stacked numpy; each row must equal the single-sample expression
    traj = run_scenario(Scenario(observers=_six_estimators(), horizon=2e-4, stride=20))
    z = traj.signals
    for name, rec in traj.observers.items():
        for k in range(len(traj.t)):
            assert np.linalg.norm(rec["xhat"][k] - z[k]) == rec["err_norm"][k], (name, k)
            if "theta_hat" not in rec:
                continue
            theta = rec.get("theta_fct", rec["theta_hat"])[k]
            assert np.array_equal(gpebo_estimate(rec["xi"][k], rec["Phi"][k], theta), rec["xhat"][k])
            if "Omega" in rec:
                assert drem_mix(rec["Omega"][k], rec["Y"][k])[1] == rec["Delta"][k], (name, k)
            if "theta_fct" in rec:
                want = fct_combine(rec["theta_hat"][k], np.zeros(4), rec["omega"][k], 1e-6)
                assert np.array_equal(want, theta), (name, k)


def test_sample_store_shares_views_and_mixes_once_per_step(monkeypatch):
    # riders of one copy log views of the same sampled rows, and the DREM
    # mix runs once per step per mixed filter (poles 5 and 3), never per
    # sample or per estimator
    import pbclab.sim as simmod

    calls = []
    original = simmod.drem_mix

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(simmod, "drem_mix", counting)
    scn = Scenario(observers=_six_estimators(), horizon=1e-4)
    traj = run_scenario(scn)
    assert np.shares_memory(traj.observers["fct"]["xi"], traj.observers["gpebo"]["xi"])
    assert len(calls) == 2 * round(scn.horizon / scn.h)


def test_non_finite_stepped_state_raises_with_partial(monkeypatch):
    # the exactly stepped estimator states live outside the Runge-Kutta
    # vector; a NaN there must stop the run like a NaN in the vector does
    import pbclab.sim as simmod

    def nan_update(omega, theta_hat, *args):
        return math.nan, theta_hat

    monkeypatch.setattr(simmod, "scalar_update", nan_update)
    with pytest.raises(NonFiniteState) as err:
        run_scenario(Scenario(observers=[ObserverSpec(name="fct")], horizon=1e-4))
    assert len(err.value.partial.t) >= 1


def test_one_filter_integration_per_pole(monkeypatch):
    # every evaluation of a pole's (Y, Omega) rows is counted: three
    # estimators on pole 5 and one on pole 3 make two filters, each
    # evaluated once per Runge-Kutta stage, not once per estimator
    import pbclab.sim as simmod

    calls = []
    original = simmod._RegressionFilter.derivative

    def counting(self, *args):
        calls.append(self.lam)
        return original(self, *args)

    monkeypatch.setattr(simmod._RegressionFilter, "derivative", counting)
    scn = Scenario(
        observers=[ObserverSpec(kind="fct-gpebo", gamma=g) for g in (1e10, 1e11, 1e12)]
        + [ObserverSpec(kind="fct-gpebo", lam=3.0)],
        horizon=1e-4,
    )
    run_scenario(scn)
    stages = 4 * round(scn.horizon / scn.h)
    assert len(calls) == 2 * stages
    assert calls.count(5.0) == calls.count(3.0) == stages


class _CountingArray(np.ndarray):
    """An array that counts the numpy operations it takes part in."""

    ops = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).ops += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_storage_reference_once_per_epoch_and_no_unread_observer_frame(monkeypatch):
    # x_c* = -inv(Ki) u* is solved when the operating point is set (start and
    # event), not per sample, and without estimators the observer-frame
    # drift A0_obs + u A1_obs and source b0_obs are never used: every
    # operation on those three arrays is counted
    import pbclab.control as controlmod
    import pbclab.sim as simmod

    calls = {"integrator_reference": 0}
    reference, rebuild = controlmod.integrator_reference, simmod._PlantCache.rebuild

    def counting_reference(*args):
        calls["integrator_reference"] += 1
        return reference(*args)

    def counting_rebuild(self, model):
        rebuild(self, model)
        for name in ("A0_obs", "A1_obs", "b0_obs"):
            setattr(self, name, getattr(self, name).view(_CountingArray))

    monkeypatch.setattr(controlmod, "integrator_reference", counting_reference)
    monkeypatch.setattr(simmod._PlantCache, "rebuild", counting_rebuild)
    monkeypatch.setattr(_CountingArray, "ops", 0)
    scn = Scenario(
        events=[EventSpec(time=0.0001, kind="reference", value=-12.0)],
        horizon=0.0002,
        stride=10,
    )
    traj = run_scenario(scn)
    assert traj.epoch[-1] == 1 and np.isfinite(traj.W).all()
    assert calls == {"integrator_reference": 2}
    assert _CountingArray.ops == 0
    # the counter sees the frame as soon as an estimator reads it: three
    # operations per Runge-Kutta stage, u * A1_obs and A0_obs + (u * A1_obs)
    # for the drift, and (A xi) + b0_obs in the emulator's copy row (the
    # source does not switch, so nothing is added to b0_obs)
    run_scenario(replace(scn, observers=[ObserverSpec(kind="emulator")]))
    assert _CountingArray.ops == 4 * 3 * round(scn.horizon / scn.h)


def _captured_run(monkeypatch, scn):
    """Run scn, keeping the plant rows of the Runge-Kutta vector at the
    start of every step (the plant state, then the integrator) and the
    PI-PBC state of every epoch.  At stride 1, entry k of the vectors
    belongs to sample k; the last sample has no step after it, so its entry
    is None."""
    import pbclab.sim as simmod

    ys, pis = [], []
    step, make = simmod._rk4_split_step, simmod.make_pi_pbc

    def keeping_step(stage, t, p, y, h):
        ys.append(np.array(p))
        return step(stage, t, p, y, h)

    def keeping_make(*args, **kwargs):
        pis.append(make(*args, **kwargs))
        return pis[-1]

    monkeypatch.setattr(simmod, "_rk4_split_step", keeping_step)
    monkeypatch.setattr(simmod, "make_pi_pbc", keeping_make)
    traj = run_scenario(scn)
    ys.append(None)  # the last sample follows the last step
    return traj, ys, pis


def test_sampled_control_equals_the_reference_law(monkeypatch):
    # the engine evaluates the law on floats; each sampled u, ytilde and
    # clamp flag must equal control.pi_pbc_step at that sample's state,
    # integrator and epoch, on a run that hits the clamp and crosses an event
    from pbclab.control import pi_pbc_step

    scn = Scenario(
        events=[EventSpec(time=2e-4, kind="reference", value=-12.0)], horizon=4e-4, stride=1
    )
    traj, ys, pis = _captured_run(monkeypatch, scn)
    assert len(ys) == len(traj.t) and len(pis) == 2
    assert 0 < traj.saturated.sum() < len(traj.t)
    for k in range(len(traj.t) - 1):
        x, x_c = ys[k][:4], ys[k][4:5]
        u, ytilde, sat = pi_pbc_step(replace(pis[traj.epoch[k]], x_c=x_c), x)
        assert np.array_equal(u, traj.u[k]), k
        assert np.array_equal(ytilde, traj.ytilde[k]), k
        assert sat == traj.saturated[k], k


def test_sampled_classical_control_equals_the_reference_law(monkeypatch):
    from pbclab.control import ClassicalPiState, classical_pi_step

    scn = Scenario(
        controller=ControllerSpec(type="classical-pi", kp=0.008, ki=8.0),
        events=[EventSpec(time=2e-4, kind="reference", value=-25.0)],
        horizon=4e-4,
        stride=1,
    )
    traj, ys, _ = _captured_run(monkeypatch, scn)
    assert 0 < traj.saturated.sum() < len(traj.t)
    for k in range(len(traj.t) - 1):
        state = ClassicalPiState(kp=0.008, ki=8.0, v_ref=traj.ref[k], x_c=ys[k][4])
        u, err, sat = classical_pi_step(state, traj.signals[k, -1])
        assert (u, err, sat) == (traj.u[k, 0], traj.ytilde[k, 0], traj.saturated[k]), k


def test_estimator_rows_equal_the_reference_derivatives(monkeypatch):
    # the engine evaluates the copy, filter and Kalman-Bucy rows on the
    # voltmeter structure C_obs = [0, 0, 0, 1] with the fixed source b0; at
    # every Runge-Kutta stage of an observer-feedback run with a load event
    # they must equal observers.gpebo_matrix_derivatives and kbf_derivatives
    # at the same (A_obs, b_obs, C_obs, y_m), and the raw gradient's frozen
    # data must equal C_obs Phi and y_m - C_obs xi, all bit for bit
    import pbclab.sim as simmod
    from pbclab.cuk import build_cuk
    from pbclab.observers import gpebo_matrix_derivatives, kbf_derivatives

    S = np.array([[2.0, 0.3, 0.0, 0.0], [0.3, 1.0, 0.0, 0.1], [0.0, 0.0, 1.5, 0.2], [0.0, 0.1, 0.2, 0.5]])
    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
            ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
            ObserverSpec(name="emulator", kind="emulator"),
            ObserverSpec(name="kbf", kind="kbf", s=S, h0=2.0),
            ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
            ObserverSpec(name="grad-ext", kind="gradient", gamma=1e8, mode="extended", lam=3.0),
        ],
        events=[EventSpec(time=1e-4, kind="load", value=30.0)],
        horizon=2e-4,
        stride=50,
    )
    k_event = round(1e-4 / scn.h)
    kept, stages, frozen, starts, law_u = {}, [], [], [], {}
    step, stage_law = simmod._rk4_split_step, simmod._stage_law
    bank_init, kbf_init = simmod._SharedStates.__init__, simmod._KbfRuntime.__init__
    grad_pre = simmod._GradientRuntime.pre_step

    def keeping_bank(self, *args):
        bank_init(self, *args)
        kept["bank"] = self

    def keeping_kbf(self, *args):
        kbf_init(self, *args)
        kept["kbf"] = self

    def keeping_grad_pre(self, y, s, y_m):
        grad_pre(self, y, s, y_m)
        if not self.extended:
            frozen.append((y.copy(), dict(self.frozen)))

    def keeping_law(*args):
        law = stage_law(*args)

        def recorded(x, xc):
            out = law(x, xc)
            law_u["raw"] = out[0]
            return out

        return recorded

    def keeping_step(stage, t, p, z, h):
        # the plant state at the start of the step, and at every stage the
        # plant state, the estimator rows and their derivatives
        starts.append(np.array(p[:4]))

        def recording(p_stage, z_stage):
            dp, dz = stage(p_stage, z_stage)
            stages.append((round(t / h), np.array(p_stage[:4]), z_stage.copy(), dz.copy(), law_u["raw"]))
            return dp, dz

        return step(recording, t, p, z, h)

    monkeypatch.setattr(simmod._SharedStates, "__init__", keeping_bank)
    monkeypatch.setattr(simmod._KbfRuntime, "__init__", keeping_kbf)
    monkeypatch.setattr(simmod._GradientRuntime, "pre_step", keeping_grad_pre)
    monkeypatch.setattr(simmod, "_stage_law", keeping_law)
    monkeypatch.setattr(simmod, "_rk4_split_step", keeping_step)
    run_scenario(scn)
    bank, kbf = kept["bank"], kept["kbf"]
    assert sorted(bank.filters) == [3.0, 5.0]
    N = round(scn.horizon / scn.h)
    assert len(stages) == 4 * N and len(frozen) == N

    def frame(r, u):
        """(A_obs, b_obs, C_obs) of the model with load r at duty ratio u."""
        model = build_cuk(CukParams(r=r))
        (J0, J1), (G0, G1), Q = model.J, model.G, model.Q
        A = Q @ (J0 - model.R) + u * (Q @ J1)
        b = Q @ (G0 @ model.E) + u * (Q @ (G1 @ model.E))
        return A, b, model.C / np.diag(Q)[None, :], model

    for k, x, y, dy, u_raw in stages:
        u = min(max(u_raw, scn.controller.u_min), scn.controller.u_max)
        A, b, C, model = frame(30.0 if k >= k_event else 20.0, u)
        y_m = model.C @ x
        xi, Phi = bank.xi(y), bank.Phi(y)
        for lam, filt in bank.filters.items():
            Y, Omega = y[filt.sl_y], y[filt.sl_om].reshape(4, 4)
            dxi, dPhi, dY, dOm = gpebo_matrix_derivatives(A, b, C, xi, Phi, Y, Omega, lam, y_m)
            assert np.array_equal(dy[bank.sl_xi], dxi), k
            assert np.array_equal(dy[bank.sl_phi], dPhi.ravel()), k
            assert np.array_equal(dy[filt.sl_y], dY), (k, lam)
            assert np.array_equal(dy[filt.sl_om], dOm.ravel()), (k, lam)
        H = y[kbf.sl_H].reshape(4, 4)
        dx, dH = kbf_derivatives(A, b, C, S, y[kbf.sl_x], H, y_m)
        assert np.array_equal(dy[kbf.sl_x], dx), k
        assert np.array_equal(dy[kbf.sl_H], dH.ravel()), k
    _, _, C, model = frame(20.0, 0.0)  # the sensor is the same in both epochs
    for (y, data), x in zip(frozen, starts, strict=True):
        y_m = model.C @ x
        assert np.array_equal(data["CPhi"], C @ bank.Phi(y))
        assert np.array_equal(np.atleast_1d(data["y_shift"]), y_m - C @ bank.xi(y))


# -- shared closed-loop passes ------------------------------------------------------


def _counting_steps(monkeypatch):
    """Count the engine's Runge-Kutta steps."""
    import pbclab.sim as simmod

    calls, step = [], simmod._rk4_split_step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(simmod, "_rk4_split_step", counting)
    return calls


def _assert_same_run(got, want):
    """Two trajectories equal array for array, with their meta and metrics."""
    for key in ("t", "signals", "u", "ytilde", "W", "saturated", "ref", "epoch"):
        assert np.array_equal(getattr(got, key), getattr(want, key), equal_nan=True), key
    assert got.observers.keys() == want.observers.keys()
    for name, rec in want.observers.items():
        assert got.observers[name].keys() == rec.keys(), name
        for key in rec:
            assert np.array_equal(got.observers[name][key], rec[key], equal_nan=True), (name, key)
    assert got.meta == want.meta
    got_m, want_m = compute_metrics(got, checkpoints=(1e-4,)), compute_metrics(want, checkpoints=(1e-4,))
    assert got_m.keys() == want_m.keys()
    for key, value in want_m.items():
        assert got_m[key] == value or (math.isnan(got_m[key]) and math.isnan(value)), key


def _riders_on_the_state_loop(gamma=1e10, mu=1e-6, name="fct-a"):
    return Scenario(
        observers=[
            ObserverSpec(name=name, kind="fct-gpebo", gamma=gamma, mu=mu),
            ObserverSpec(name="fct-b", kind="fct-gpebo", gamma=1e11),
            ObserverSpec(name="fct-c", kind="fct-gpebo", gamma=1e12),
        ],
        horizon=2e-4,
        stride=30,
    )


_KBF_S = np.array([[2.0, 0.3, 0.0, 0.0], [0.3, 1.0, 0.0, 0.1], [0.0, 0.0, 1.5, 0.2], [0.0, 0.1, 0.2, 0.5]])


def _riders_on_observer_feedback(gamma=1e17, mu=1e-6, name="gpebo", grad_gamma=1e8, fct_gamma=1e12,
                                 lam=5.0, s=_KBF_S, event_time=1e-4):
    return Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=fct_gamma),
            ObserverSpec(name=name, kind="gpebo", gamma=gamma, mu=mu, lam=lam),
            ObserverSpec(name="grad-raw", kind="gradient", gamma=grad_gamma, mode="raw"),
            ObserverSpec(name="grad-ext", kind="gradient", gamma=grad_gamma, mode="extended", lam=3.0),
            ObserverSpec(name="kbf", kind="kbf", s=s, h0=2.0),
        ],
        events=[EventSpec(time=event_time, kind="load", value=30.0)],
        horizon=2e-4,
        stride=30,
    )


@pytest.mark.parametrize("make, rows", [
    (_riders_on_the_state_loop,
     [dict(gamma=3e12), dict(gamma=1e10, mu=0.3, name="swept"), dict(gamma=1e14)]),
    (_riders_on_observer_feedback,
     [dict(gamma=1e12), dict(gamma=1e15, mu=0.01, name="swept", grad_gamma=1e6)]),
], ids=["state-loop-fct-riders", "fct-feedback-mixed-riders"])
def test_replayed_rows_equal_runs_of_their_own(monkeypatch, make, rows):
    # the first run of a pass integrates the loop; every later row only
    # steps its exact steps again, and must log what it logs on its own
    shared = SharedPass()
    steps = _counting_steps(monkeypatch)
    first = run_scenario(make(), shared=shared)
    N = len(steps)
    assert N == round(2e-4 / 5e-7)
    _assert_same_run(first, run_scenario(make()))
    for row in rows:
        del steps[:]
        replayed = run_scenario(make(**row), shared=shared)
        assert steps == []  # no Runge-Kutta stage
        _assert_same_run(replayed, run_scenario(make(**row)))
    # the rows of a pass share its arrays, which therefore cannot be written
    assert np.shares_memory(first.u, replayed.u)
    for arr in (replayed.u, replayed.observers["fct-b" if "fct-b" in replayed.observers else "fct"]["xi"]):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_replay_raises_as_a_run_of_its_own(monkeypatch):
    # a rider that turns non-finite from step k stops a replayed row at the
    # same step, with the same message and the same partial samples; the
    # load event after k must not reach the partial's circuit values
    import pbclab.sim as simmod

    k_nan = 150
    update = simmod.scalar_update

    def nan_from_step_k(calls):
        def nan_update(omega, theta_hat, *args):
            calls.append(1)
            if len(calls) > 3 * k_nan:  # three riders per step
                return math.nan, theta_hat
            return update(omega, theta_hat, *args)

        return nan_update

    def make(gamma):
        scn = _riders_on_the_state_loop(gamma=gamma)
        return replace(scn, events=[EventSpec(time=1e-4, kind="load", value=30.0)])

    shared = SharedPass()
    run_scenario(make(1e10), shared=shared)
    failures = []
    for kept in (shared, None):
        monkeypatch.setattr(simmod, "scalar_update", nan_from_step_k([]))
        with pytest.raises(NonFiniteState) as err:
            run_scenario(make(1e13), shared=kept)
        failures.append(err.value)
    replayed, alone = failures
    message = f"non-finite estimator state after the step to t={(k_nan + 1) * 5e-7:g} s"
    assert str(replayed) == str(alone) == message
    assert len(replayed.partial.t) == len(alone.partial.t) == k_nan // 30 + 1
    _assert_same_run(replayed.partial, alone.partial)
    assert alone.partial.meta["params"]["r"] == 20.0


@pytest.mark.parametrize("base, other", [
    (dict(lam=5.0), dict(lam=4.0)),  # a swept pole
    (dict(fct_gamma=1e12), dict(fct_gamma=1e11)),  # the gain of the estimator that feeds back
    (dict(s=_KBF_S), dict(s=_KBF_S + np.diag([2e-12, 0.0, 0.0, 0.0]))),  # the 13th digit of S
    (dict(event_time=1e-4), dict(event_time=1.5e-4)),  # a moved event
], ids=["lambda", "feeding-gamma", "kbf-s-13th-digit", "event-time"])
def test_a_change_outside_the_riders_gains_runs_a_full_pass(monkeypatch, base, other):
    shared = SharedPass()
    steps = _counting_steps(monkeypatch)
    run_scenario(_riders_on_observer_feedback(**base), shared=shared)
    N = len(steps)
    run_scenario(_riders_on_observer_feedback(**other), shared=shared)
    assert len(steps) == 2 * N
    # the rider gains alone replay the pass just kept
    run_scenario(_riders_on_observer_feedback(**other, gamma=1e13, grad_gamma=1e7), shared=shared)
    assert len(steps) == 2 * N
    if "s" in base:  # numpy prints both matrices alike, to 8 digits
        assert repr(base["s"]) == repr(other["s"])


def test_repeated_names_keep_every_estimator():
    # names a, a, a-2: the second a must not take the configured a-2, so
    # three estimators give three column blocks
    observers = [
        ObserverSpec(name="a", kind="fct-gpebo"),
        ObserverSpec(name="a", kind="emulator"),
        ObserverSpec(name="a-2", kind="kbf"),
    ]
    traj = run_scenario(Scenario(observers=observers, horizon=5e-5, stride=20))
    assert list(traj.observers) == ["a", "a-3", "a-2"]
    assert "Omega" in traj.observers["a"] and "H" in traj.observers["a-2"]
    header = traj.csv_header()
    assert len(header) == 8 + 3 * 7 and len(set(header)) == len(header)
    assert traj.csv_matrix().shape[1] == len(header)


def test_aliased_specs_are_named_per_run_without_renaming_them():
    # one spec listed three times gives three blocks, and the names are
    # assigned per run: a second run of the same scenario logs the same
    # names, and the specs keep their configured (empty) name
    spec = ObserverSpec(kind="emulator")
    scn = Scenario(observers=[spec] * 3, horizon=5e-5, stride=20)
    for _ in range(2):
        traj = run_scenario(scn)
        assert list(traj.observers) == ["emulator", "emulator-2", "emulator-3"]
        assert list(traj.meta["mu"]) == list(traj.observers)
        assert spec.name == ""


def _joined(stage, n_p):
    """The engine's stage function as rk4_step's f(t, y) on the joined
    vector y = (plant rows and integrator, estimator rows)."""

    def f(t, y):
        dp, dz = stage(y[:n_p].tolist(), y[n_p:])
        return np.array(dp) if dz is None else np.concatenate([dp, dz])

    return f


def _checked_steps(monkeypatch, check_stage=None):
    """Make every engine step check itself against rk4_step applied to the
    same stage function on the joined vector, bit for bit; check_stage(p,
    dp) sees every stage of the engine's own step.  Returns the list of the
    checked steps' start times."""
    import pbclab.sim as simmod

    step, count = simmod._rk4_split_step, []

    def checking_step(stage, t, p, z, h):
        def seen(p_stage, z_stage):
            dp, dz = stage(p_stage, z_stage)
            if check_stage is not None:
                check_stage(p_stage, dp)
            return dp, dz

        p_new, z_new = step(seen, t, p, z, h)
        want = simmod.rk4_step(_joined(stage, len(p)), t, np.concatenate([p, z]), h)
        assert np.array_equal(np.concatenate([p_new, z_new]), want), t
        count.append(t)
        return p_new, z_new

    monkeypatch.setattr(simmod, "_rk4_split_step", checking_step)
    return count


def test_engine_step_equals_rk4_on_the_clamped_stage(monkeypatch):
    # on a state loop that hits the clamp and crosses an event, every step
    # equals rk4_step on the joined vector, and every stage's derivative is
    # the plant drift at the duty ratio control.pi_pbc_step clamps, with
    # the integrator derivative ytilde
    import pbclab.sim as simmod
    from pbclab.control import pi_pbc_step
    from pbclab.cuk import build_cuk

    pis, make = [], simmod.make_pi_pbc

    def keeping_make(*args, **kwargs):
        pis.append(make(*args, **kwargs))
        return pis[-1]

    cache = simmod._PlantCache(build_cuk(CukParams()))  # a reference event keeps the plant
    clamped = []

    def check_stage(p, dp):
        u, ytilde, sat = pi_pbc_step(replace(pis[-1], x_c=np.array(p[4:])), np.array(p[:4]))
        clamped.append(sat)
        assert dp == cache.drift(p, u.item()) + [ytilde.item()]

    monkeypatch.setattr(simmod, "make_pi_pbc", keeping_make)
    steps = _checked_steps(monkeypatch, check_stage)
    scn = Scenario(
        events=[EventSpec(time=2e-4, kind="reference", value=-12.0)], horizon=4e-4, stride=10
    )
    traj = run_scenario(scn)
    assert len(steps) == round(scn.horizon / scn.h) and len(pis) == 2
    assert 0 < sum(clamped) < len(clamped) and 0 < traj.saturated.sum() < len(traj.t)


def test_engine_step_equals_rk4_with_every_estimator_kind(monkeypatch):
    # the estimator rows ride in the same four stages: on an observer-
    # feedback run with all five kinds and a load event, every step equals
    # rk4_step on the joined vector
    steps = _checked_steps(monkeypatch)
    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
            ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
            ObserverSpec(name="emulator", kind="emulator"),
            ObserverSpec(name="kbf", kind="kbf"),
            ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
            ObserverSpec(name="grad-ext", kind="gradient", gamma=1e8, mode="extended", lam=3.0),
        ],
        events=[EventSpec(time=1e-4, kind="load", value=30.0)],
        horizon=2e-4,
        stride=50,
    )
    traj = run_scenario(scn)
    assert len(steps) == round(scn.horizon / scn.h)
    assert traj.saturated.any()


def test_float_drift_rows_agree_with_the_model_dynamics():
    # the plant stage sums each row left to right on Python floats; at
    # random states and duty ratios it must agree with phmodel.dynamics
    # within that sum's rounding bound, n eps sum |terms|, the terms being
    # the products L0_ij x_j and u L1_ij x_j and the source b0_i
    from pbclab.cuk import build_cuk
    from pbclab.phmodel import dynamics
    from pbclab.sim import _PlantCache

    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for r in (20.0, 30.0, 5.0):
        model = build_cuk(CukParams(r=r))
        cache = _PlantCache(model)
        qd = np.diag(model.Q)
        for _ in range(500):
            x = rng.uniform(-1.0, 1.0, 4) * [5.0, 60.0, 5.0, 60.0] / qd  # amps and volts
            u = rng.uniform(0.0, 1.0)
            got, want = cache.drift(x.tolist(), u), dynamics(model, x, [u])
            for i, row in enumerate(cache.rows):
                a, c, b = np.array(row[:4]), np.array(row[4:8]), row[8]
                terms = np.abs(a * x).sum() + np.abs(u * c * x).sum() + abs(b)
                assert abs(got[i] - want[i]) <= 4 * eps * terms, (r, i)


def test_kbf_riccati_state_stays_exactly_symmetric():
    # S and H0 within the 1e-12 symmetry tolerance are symmetrized when
    # they are read, so every sampled H is exactly symmetric, as the
    # unsymmetrized Riccati stage needs
    S = np.eye(4)
    S[0, 3] += 1e-13
    H0 = 2.0 * np.eye(4)
    H0[1, 2] -= 1e-13
    spec = ObserverSpec(name="kbf", kind="kbf", s=S, h0=H0)
    traj = run_scenario(Scenario(observers=[spec], horizon=2e-4, stride=10))
    H = traj.observers["kbf"]["H"]
    assert np.array_equal(H, np.swapaxes(H, 1, 2))
    assert not np.array_equal(H[-1], H[0])  # H moved


# -- events ---------------------------------------------------------------------


def test_reference_event_retargets_the_loop():
    scn = Scenario(
        events=[EventSpec(time=0.002, kind="reference", value=-12.0)],
        horizon=0.004,
        h=1e-6,
        stride=10,
    )
    traj = run_scenario(scn)
    before = traj.t < 0.002 - 1e-12
    assert np.all(traj.ref[before] == -15.0)
    assert np.all(traj.ref[~before] == -12.0)
    assert traj.epoch[0] == 0 and traj.epoch[-1] == 1
    m = compute_metrics(traj)
    assert m["final_ref"] == -12.0
    assert m["w_increase_count"] == 0
    # the storage bookkeeping is rebuilt at the event: W stays finite and
    # strictly positive away from the two operating points
    assert np.isfinite(traj.W).all() and (traj.W > 0.0).all()


def test_load_event_changes_the_plant():
    scn = Scenario(
        events=[EventSpec(time=0.002, kind="load", value=30.0)],
        horizon=0.004,
        h=1e-6,
        stride=10,
    )
    traj = run_scenario(scn)
    assert traj.meta["params"]["r"] == 30.0
    assert np.all(traj.ref == -15.0)  # reference untouched
    assert traj.epoch[-1] == 1


# -- artifacts -------------------------------------------------------------------


def test_csv_round_trip_and_byte_determinism(tmp_path):
    scn = Scenario(
        observers=[ObserverSpec(name="fct", kind="fct-gpebo")],
        horizon=0.0005,
        h=1e-6,
        stride=25,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(scn).to_csv(a)
    run_scenario(scn).to_csv(b)
    assert a.read_bytes() == b.read_bytes()

    back = Trajectory.from_csv(a)
    orig = run_scenario(scn)
    assert np.array_equal(back.t, orig.t)
    assert np.array_equal(back.signals, orig.signals)
    assert np.array_equal(back.u, orig.u)
    assert np.array_equal(back.W, orig.W)
    assert np.array_equal(back.observers["fct"]["xhat"], orig.observers["fct"]["xhat"])
    assert np.array_equal(back.observers["fct"]["omega"], orig.observers["fct"]["omega"])
    header = orig.csv_header()
    assert header[:6] == ["t", "i1", "v2", "i3", "v4", "u"]
    assert "fct_ihat1" in header and "fct_Delta" in header


# -- order of the full closed-loop integrator ------------------------------------


def test_step_halving_ratio_on_the_smooth_scenario():
    def final(h):
        scn = Scenario(h=h, stride=max(1, int(round(4e-4 / h))), **SMOOTH)
        return run_scenario(scn).signals[-1]

    ref = final(1e-6)
    e1 = np.linalg.norm(final(1e-5) - ref)
    e2 = np.linalg.norm(final(5e-6) - ref)
    assert 12.0 < e1 / e2 < 20.0  # measured 15.94


def test_default_step_resolves_the_stiff_proportional_path():
    # at the default step the duty ratio must settle on the true operating
    # point; one notch coarser the scheme leaves its stability region
    scn = Scenario(controller=ControllerSpec(feedback="state"), horizon=0.03)
    traj = run_scenario(scn)
    assert abs(traj.u[-1, 0] - U_STAR) < 5e-3
    assert abs(traj.signals[-1, -1] - (-15.0)) < 0.15


# -- regulation metrics ------------------------------------------------------------


def test_full_state_regulation_metrics():
    scn = Scenario(controller=ControllerSpec(feedback="state"), horizon=0.025)
    m = compute_metrics(run_scenario(scn))
    assert m["settle_time"] <= 0.02
    assert abs(m["final_v_out"] - (-15.0)) <= 0.15
    assert m["w_increase_count"] == 0
    assert 0.02 <= m["u_min_seen"] <= m["u_max_seen"] <= 0.98
    assert m["saturated_samples"] > 0  # the start-up clamp is real


def _w_increase_loop(traj):
    """The storage-monotonicity count, one sample pair at a time."""
    W, count = traj.W, 0
    for k in range(len(W) - 1):
        if not (np.isfinite(W[k]) and np.isfinite(W[k + 1])):
            continue
        if traj.saturated[k] or traj.saturated[k + 1]:
            continue
        if traj.epoch[k] != traj.epoch[k + 1]:
            continue
        if W[k + 1] > W[k] + 1e-8 * abs(W[k]) + 1e-15:
            count += 1
    return count


def test_storage_increase_count_skips_clamped_epoch_changing_and_nan_pairs():
    W = np.array([1.0, 2.0, 1.5, 3.0, 2.0, 4.0, 3.0, np.nan, 5.0, 4.0, 4.0 + 1e-9, 6.0])
    K = len(W)
    saturated = np.zeros(K, dtype=bool)
    saturated[3] = True  # hides the rises 2 -> 3 and 3 -> 4
    epoch = np.zeros(K, dtype=int)
    epoch[5:] = 1  # hides the rise 4 -> 5
    traj = Trajectory(
        t=np.arange(K) * 1e-6,
        signals=np.full((K, 4), -15.0),
        u=np.full((K, 1), 0.5),
        ytilde=np.zeros((K, 1)),
        W=W,
        saturated=saturated,
        ref=np.full(K, -15.0),
        epoch=epoch,
        observers={},
    )
    # counted: 1 -> 2 and 4 -> 6; skipped: the clamp, the epoch change, the
    # NaN on both sides, and a rise inside the relative tolerance
    assert _w_increase_loop(traj) == 2
    assert compute_metrics(traj)["w_increase_count"] == 2


def test_classical_controller_runs_without_storage_bookkeeping():
    scn = Scenario(
        controller=ControllerSpec(type="classical-pi", kp=0.008, ki=8.0, x4_star=-15.0),
        horizon=0.001,
        h=1e-6,
        stride=50,
    )
    traj = run_scenario(scn)
    assert np.isnan(traj.W).all()
    m = compute_metrics(traj)
    assert math.isnan(m["settle_time"]) or m["settle_time"] >= 0.0
