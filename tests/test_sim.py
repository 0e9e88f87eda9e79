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
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from pbclab.cuk import CukParams
from pbclab.observers import drem_mix, fct_combine, gpebo_estimate, gradient_update, scalar_update
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
    with pytest.raises(ScenarioError, match="u_min < u_max"):
        run_scenario(Scenario(controller=ControllerSpec(u_min=0.5, u_max=0.5), horizon=1e-5))
    # the least ki is the one that control.integrator_reference can invert
    for ki in (1e-301, 5e-324):
        with pytest.raises(ScenarioError, match="ki >= 1e-300"):
            run_scenario(Scenario(controller=ControllerSpec(ki=ki), horizon=1e-5))
    # a Kalman-Bucy weight is a scalar or a symmetric positive definite 4x4
    asymmetric = np.eye(4)
    asymmetric[0, 1] = 0.5
    for weight, message in ((np.eye(3), "scalar or 4x4"), (asymmetric, "symmetric"),
                            (-1.0, "positive definite"), (np.diag([1.0, 1.0, 0.0, 1.0]), "positive definite")):
        for key in ("s", "h0"):
            with pytest.raises(ScenarioError, match=f"'kbf': {key} must be (a )?{message}"):
                run_scenario(Scenario(observers=[ObserverSpec(kind="kbf", **{key: weight})], horizon=1e-5))
    # the converter inverts: the target and every reference event are
    # negative, whichever controller runs
    for ctl, events, what in (
        (ControllerSpec(x4_star=5.0), [], "x4_star"),
        (ControllerSpec(type="classical-pi", x4_star=5.0), [], "x4_star"),
        (ControllerSpec(x4_star=-0.0), [], "x4_star"),
        (ControllerSpec(), [EventSpec(time=5e-6, kind="reference", value=5.0)], "reference event at t=5e-06 s"),
        (ControllerSpec(), [EventSpec(time=5e-6, kind="reference", value=-math.inf)], "reference event at t=5e-06 s"),
    ):
        with pytest.raises(ScenarioError, match=f"^the converter inverts: {what} must be negative and finite"):
            run_scenario(Scenario(controller=ctl, events=events, horizon=1e-5))
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


def test_a_reloaded_run_reports_no_crossing_time_without_its_mu(tmp_path):
    # a table keeps omega but not mu, so the crossing time of omega <= 1 - mu
    # is reported only for a trajectory that records its estimator's mu
    scn = Scenario(observers=[ObserverSpec(name="f", kind="fct-gpebo", gamma=1e12, mu=0.3)], horizon=4e-3)
    traj = run_scenario(scn)
    assert traj.observers["f"]["omega"].min() > 0.7 and math.isnan(compute_metrics(traj)["tc_f"])
    traj.to_csv(tmp_path / "run.csv")
    back = compute_metrics(Trajectory.from_csv(tmp_path / "run.csv"))
    assert "tc_f" not in back and "err_final_f" in back


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


def _exact_step_calls(monkeypatch) -> list:
    """Record every exact step of the engine, in order, as (function,
    gains, steps): a call of the loop's stack (`drem_scalar_step` or
    `gradient_update`, one per gain) steps its gain once, and a riding
    stack's tape run (`scalar_steps`, `raw_steps`, or one `gradient_update`
    call per extended row, gain and step) over its steps."""
    import pbclab.observers as obs
    import pbclab.sim as simmod

    calls = []
    for name, gains, steps in [("drem_scalar_step", 2, None), ("gradient_update", 1, None),
                               ("scalar_steps", 4, 3), ("raw_steps", 3, 2)]:
        def recording(*args, _fn=getattr(obs, name), _name=name, _gains=gains, _steps=steps, **kwargs):
            count = 1 if _steps is None else len(args[_steps])
            calls.append((_name, tuple(np.ravel(args[_gains]).tolist()), count))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(simmod, name, recording)
    return calls


def _steps(calls) -> dict:
    """The steps of each (function, gains) among recorded calls."""
    out = {}
    for name, gains, count in calls:
        out[name, gains] = out.get((name, gains), 0) + count
    return out


def _nan_from_step(monkeypatch, k: int, gamma: float):
    """Turn the exact-step row of the gain gamma non-finite from its step k
    on (counted from 0), whether the loop's stack steps it
    (`drem_scalar_step`, `gradient_update`) or a riding stack's tape does
    (`scalar_steps`, `raw_steps`, `gradient_update`); the steps of the
    row are counted in the order they are taken."""
    import pbclab.observers as obs
    import pbclab.sim as simmod

    seen = [0]

    def past_k(steps: int) -> int:
        """The first of a call's next `steps` steps of the row that is k or later."""
        start, seen[0] = seen[0], seen[0] + steps
        return min(max(k - start, 0), steps)

    def nan_scalar(state, row, g, h):
        new_omega, *new_theta = obs.drem_scalar_step(state, row, g, h)
        if g == gamma and past_k(1) == 0:  # one call steps one gain (the feed's, in the loop) once
            return [math.nan, *new_theta]
        return [new_omega, *new_theta]

    def nan_gradient(theta_hat, g, *args, **kwargs):
        new_theta = obs.gradient_update(theta_hat, g, *args, **kwargs)
        return np.full_like(new_theta, math.nan) if g == gamma and past_k(1) == 0 else new_theta

    def nan_scalar_steps(omega, theta_hat, scriptY, Delta, g, h):
        obs.scalar_steps(omega, theta_hat, scriptY, Delta, g, h)
        hit = np.ravel(g) == gamma
        if hit.any():
            omega[1 + past_k(len(Delta)):, hit] = math.nan

    def nan_raw_steps(theta_hat, phi, y0, g, h):
        obs.raw_steps(theta_hat, phi, y0, g, h)
        hit = np.asarray(g) == gamma
        if hit.any():
            theta_hat[1 + past_k(len(y0)):, hit] = math.nan

    monkeypatch.setattr(simmod, "drem_scalar_step", nan_scalar)
    monkeypatch.setattr(simmod, "gradient_update", nan_gradient)
    monkeypatch.setattr(simmod, "scalar_steps", nan_scalar_steps)
    monkeypatch.setattr(simmod, "raw_steps", nan_raw_steps)


def test_shared_states_leave_every_estimator_as_it_runs_alone(monkeypatch):
    # the open-loop copy and the regression filters are integrated once and
    # read by every estimator, and a Kalman-Bucy filter (of a full symmetric
    # S) keeps a block of its own in the same rows; on the state loop each
    # estimator must log exactly what it logs when it is the only one.  Run
    # alone, the Kalman-Bucy filter's bank holds no copy, and the emulator's
    # a copy without Phi
    import pbclab.sim as simmod

    specs = [*_six_estimators(), ObserverSpec(name="kbf", kind="kbf", s=_KBF_S, h0=2.0)]
    banks, start = [], simmod._Bank.start

    def keeping_start(bank):
        banks.append(bank)
        return start(bank)

    monkeypatch.setattr(simmod._Bank, "start", keeping_start)
    together = run_scenario(Scenario(observers=specs, horizon=0.002))
    for spec in specs:
        alone = run_scenario(Scenario(observers=[spec], horizon=0.002))
        got, want = together.observers[spec.name], alone.observers[spec.name]
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), (spec.name, key)
    # per bank: whether it holds xi, whether it holds Phi, its Kalman-Bucy blocks
    layouts = [(bank.xi is not None, bank.Phi is not None, len(bank.kbfs)) for bank in banks]
    assert layouts[0] == (True, True, 1)
    alone = dict(zip((spec.name for spec in specs), layouts[1:], strict=True))
    assert alone["kbf"] == (False, False, 1)
    assert alone["emulator"] == (True, False, 0)


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
    # mix takes each step once per mixed filter (poles 5 and 3), never per
    # sample or per estimator: a riding stack mixes its tape's steps at once
    import pbclab.sim as simmod

    calls = []
    original = simmod.drem_mix

    def counting(Omega, Y):
        calls.extend([1] * (len(Omega) if Omega.ndim == 3 else 1))
        return original(Omega, Y)

    monkeypatch.setattr(simmod, "drem_mix", counting)
    scn = Scenario(observers=_six_estimators(), horizon=1e-4)
    traj = run_scenario(scn)
    assert np.shares_memory(traj.observers["fct"]["xi"], traj.observers["gpebo"]["xi"])
    assert len(calls) == 2 * round(scn.horizon / scn.h)


def test_non_finite_stepped_state_raises_with_partial(monkeypatch):
    # the exactly stepped estimator states live outside the Runge-Kutta
    # vector; a NaN there must stop the run like a NaN in the vector does,
    # at its step, whether the loop steps the state (FCT feedback) or a
    # tape does (an FCT rider)
    for feedback in ("observer", "state"):
        scn = Scenario(controller=ControllerSpec(feedback=feedback), observers=[ObserverSpec(name="fct")],
                       horizon=1e-4, stride=30)
        _nan_from_step(monkeypatch, 40, 1e12)
        with pytest.raises(NonFiniteState, match=f"after the step to t={41 * 5e-7:g} s") as err:
            run_scenario(scn)
        monkeypatch.undo()
        assert len(err.value.partial.t) == 40 // 30 + 1
        assert np.isfinite(err.value.partial.observers["fct"]["omega"]).all()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _numpy_step(state, row, gamma, h) -> list:
    """The loop's exact step on arrays, as the loop took it before its float
    step: drem_mix of the tape row, then scalar_update."""
    r = np.array(row)
    scriptY, Delta = drem_mix(r[4:].reshape(4, 4), r[:4])
    omega, theta_hat = scalar_update(state[0], np.array(state[1:]), scriptY, Delta, gamma, h)
    return [omega, *theta_hat]


def _numpy_refresh(fct: bool, state, mu) -> list:
    """The fed-back theta of the row state on arrays: fct_combine, or theta_hat."""
    theta_hat = np.array(state[1:])
    return list(fct_combine(theta_hat, np.zeros(4), state[0], mu) if fct else theta_hat)


@pytest.mark.parametrize("kind, gamma", [("fct-gpebo", 1e12), ("gpebo", 1e17)], ids=["fct", "gpebo"])
def test_the_feeds_float_step_and_refresh_equal_their_numpy_oracles(monkeypatch, kind, gamma):
    # the loop steps the feed's one row on floats (`drem_scalar_step`) and
    # refreshes the fed-back theta on floats (`refresh_feed`): on every tape
    # row of a 2 000-step observer-feedback run each must equal drem_mix,
    # then scalar_update, then fct_combine (theta_hat for a gpebo kind) on
    # arrays, bit for bit
    import pbclab.sim as simmod

    steps, refreshes = [], []
    step, refresh = simmod.drem_scalar_step, simmod._GpeboRuntime.refresh_feed

    def recording_step(state, row, g, h):
        new = step(state, row, g, h)
        steps.append((list(state), list(row), g, h, new))
        return new

    def recording_refresh(rt):
        refresh(rt)
        refreshes.append((list(rt.exact.state), rt.theta_feed))

    monkeypatch.setattr(simmod, "drem_scalar_step", recording_step)
    monkeypatch.setattr(simmod._GpeboRuntime, "refresh_feed", recording_refresh)
    scn = Scenario(controller=ControllerSpec(feedback="observer"),
                   observers=[ObserverSpec(name="feed", kind=kind, gamma=gamma)], horizon=1e-3, stride=100)
    run_scenario(scn)
    assert len(steps) == len(refreshes) == round(scn.horizon / scn.h) == 2000
    assert any(new[1:] != state[1:] for state, _, _, _, new in steps)  # theta_hat moves
    for k, (state, row, g, h, new) in enumerate(steps):
        assert g == gamma and len(row) == 20
        assert _bits(new) == _bits(_numpy_step(state, row, g, h)), k
    for k, (state, theta) in enumerate(refreshes):
        assert _bits(theta) == _bits(_numpy_refresh(kind == "fct-gpebo", state, 1e-6)), k


def test_the_float_step_holds_and_saturates_as_its_oracle_does():
    # Delta = 0 exactly and Delta = 1e-180 (z = gamma Delta^2 h underflows)
    # hold the state; z >> 1 takes omega to 0 and theta_hat to the target.
    # Each step and the refresh of its state, at mu = 0.5 and 1e-6, equal
    # their numpy oracles bit for bit
    import pbclab.sim as simmod
    from pbclab.observers import drem_scalar_step

    Y, state = [1.0, -2.0, 3.0, 0.5], [0.7, 0.1, -0.2, 0.3, -0.4]
    for Omega, held in [(np.diag([1.0, 2.0, 3.0, 0.0]), True), (np.diag([1e-180, 1.0, 1.0, 1.0]), True),
                        (2.0 * np.eye(4) + 0.1, False)]:
        row = [*Y, *Omega.ravel().tolist()]
        new = drem_scalar_step(state, row, 1e17, 1e-6)
        assert _bits(new) == _bits(_numpy_step(state, row, 1e17, 1e-6))
        assert (new == state) is held
        for mu in (0.5, 1e-6):
            rt = simmod._GpeboRuntime(ObserverSpec(kind="fct-gpebo", mu=mu), simmod._Bank(4))
            for st in (state, new):
                rt.exact = types.SimpleNamespace(state=st)
                rt.refresh_feed()
                assert _bits(rt.theta_feed) == _bits(_numpy_refresh(True, st, mu))
    assert new[0] == 0.0 and new != state  # omega -> 0 after z >> 1
    nan = drem_scalar_step(state, [math.nan] * 20, 1e17, 1e-6)
    assert np.isnan(nan).all() and np.isnan(_numpy_step(state, [math.nan] * 20, 1e17, 1e-6)).all()


def test_a_non_finite_tape_row_of_the_feed_raises_with_partial(monkeypatch):
    # a NaN in the feed's tape row at step 40 turns its float row
    # non-finite, which raises at that step with the samples before it
    import pbclab.sim as simmod

    inputs, calls = simmod._ExactSteps.inputs, []

    def nan_inputs(stack, v, y_m):
        row = inputs(stack, v, y_m)
        calls.append(1)
        return [math.nan] * len(row) if len(calls) == 41 else row

    monkeypatch.setattr(simmod._ExactSteps, "inputs", nan_inputs)
    scn = Scenario(controller=ControllerSpec(feedback="observer"), observers=[ObserverSpec(name="fct")],
                   horizon=1e-4, stride=30)
    with pytest.raises(NonFiniteState, match=f"after the step to t={41 * 5e-7:g} s") as err:
        run_scenario(scn)
    assert len(err.value.partial.t) == 40 // 30 + 1
    assert np.isfinite(err.value.partial.observers["fct"]["omega"]).all()


def test_one_filter_integration_per_pole(monkeypatch):
    # three estimators on pole 5 and one on pole 3 make two filters: the
    # bank reserves one (Y, Omega) block per pole, and every Runge-Kutta
    # stage returns the derivative of the plant rows, the copy and those
    # two blocks, each once, not once per estimator
    import pbclab.sim as simmod

    banks, lengths = [], []
    start, step = simmod._Bank.start, simmod._rk4_split_step

    def keeping_start(bank):
        banks.append(bank)
        return start(bank)

    def counting_step(stage, t, p, h):
        def counted(v):
            dv = stage(v)
            lengths.append(len(dv))
            return dv

        return step(counted, t, p, h)

    monkeypatch.setattr(simmod._Bank, "start", keeping_start)
    monkeypatch.setattr(simmod, "_rk4_split_step", counting_step)
    scn = Scenario(
        observers=[ObserverSpec(kind="fct-gpebo", gamma=g) for g in (1e10, 1e11, 1e12)]
        + [ObserverSpec(kind="fct-gpebo", lam=3.0)],
        horizon=1e-4,
    )
    run_scenario(scn)
    (bank,) = banks
    assert list(bank.filters) == [5.0, 3.0]
    assert bank.size == 4 + 16 + 2 * (4 + 16)
    assert lengths == [5 + bank.size] * (4 * round(scn.horizon / scn.h))


def test_estimators_with_one_step_key_share_a_row(monkeypatch):
    # three FCT estimators on pole 5, the third a copy of the first but for
    # mu: their two gains are the two rows of one stack, stepped together
    # over every step (a riding stack's tape), and each estimator logs what
    # it logs in a run of its own
    specs = [
        ObserverSpec(name="a", kind="fct-gpebo", gamma=1e10),
        ObserverSpec(name="b", kind="fct-gpebo", gamma=1e12),
        ObserverSpec(name="a-mu", kind="fct-gpebo", gamma=1e10, mu=0.01),
    ]
    scn = Scenario(observers=specs, horizon=2e-4, stride=30)
    calls = _exact_step_calls(monkeypatch)
    together = run_scenario(scn)
    assert _steps(calls) == {("scalar_steps", (1e10, 1e12)): round(scn.horizon / scn.h)}
    monkeypatch.undo()
    a, a_mu = together.observers["a"], together.observers["a-mu"]
    assert np.shares_memory(a["theta_hat"], a_mu["theta_hat"])
    assert not np.array_equal(a["theta_fct"], a_mu["theta_fct"])
    for spec in specs:
        alone = run_scenario(replace(scn, observers=[spec]))
        got, want = together.observers[spec.name], alone.observers[spec.name]
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), (spec.name, key)


class _CountingArray(np.ndarray):
    """An array that counts the numpy operations it takes part in, and
    every read of it as Python floats."""

    ops = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).ops += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def tolist(self):
        type(self).ops += 1
        return np.asarray(self).tolist()


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
    # the counter sees the frame as soon as an estimator reads it: once per
    # epoch, when the bank's stage code binds A0_obs, A1_obs and b0_obs as
    # floats, and in no numpy operation at any stage
    run_scenario(replace(scn, observers=[ObserverSpec(kind="emulator")]))
    assert _CountingArray.ops == 3 * 2


def _captured_run(monkeypatch, scn):
    """Run scn, keeping the plant rows of the Runge-Kutta vector at the
    start of every step (the plant state, then the integrator) and the
    PI-PBC state of every epoch.  At stride 1, entry k of the vectors
    belongs to sample k; the last sample has no step after it, so its entry
    is None."""
    import pbclab.sim as simmod

    ys, pis = [], []
    step, make = simmod._rk4_split_step, simmod.make_pi_pbc

    def keeping_step(stage, t, p, h):
        ys.append(np.array(p))
        return step(stage, t, p, h)

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


def test_the_upper_duty_clamp_holds_and_is_flagged(monkeypatch):
    # a start far above the operating point drives the raw duty ratio over
    # u_max for its first samples: the plant steps there as the reference
    # law clamped at u_max, each such sample reads u_max and is flagged, and
    # the storage count skips exactly the flagged samples
    from pbclab.control import pi_pbc_step
    from pbclab.cuk import build_cuk
    from pbclab.phmodel import dynamics

    scn = Scenario(x0=(2.0, 40.0, -1.0, -5.0), horizon=2e-3, stride=1)
    traj, ys, (pi,) = _captured_run(monkeypatch, scn)
    u, u_max = traj.u[:, 0], scn.controller.u_max
    assert u.max() == u_max and u.min() > scn.controller.u_min
    assert np.array_equal(np.flatnonzero(traj.saturated), np.arange(7))
    assert np.array_equal(u == u_max, traj.saturated)
    model = build_cuk(CukParams())

    def f(t, y):
        u_k, ytilde, _ = pi_pbc_step(replace(pi, x_c=y[4:]), y[:4])
        return np.concatenate([dynamics(model, y[:4], u_k), ytilde])

    for k in range(8):  # the seven clamped steps, and the one after them
        want = rk4_step(f, k * scn.h, ys[k], scn.h)
        assert np.allclose(ys[k + 1], want, rtol=1e-12, atol=0.0), k
    rising = replace(traj, W=np.arange(len(u), dtype=float))  # W rises at every pair
    assert compute_metrics(rising)["w_increase_count"] == len(u) - 1 - 7


def test_estimator_rows_equal_the_reference_derivatives(monkeypatch):
    # the engine evaluates the copy, filter and Kalman-Bucy rows on Python
    # floats, on the voltmeter structure C_obs = [0, 0, 0, 1] with the fixed
    # source b0; at every Runge-Kutta stage of an observer-feedback run with
    # a load event they must equal the float oracle `_estimator_rows` at the
    # epoch's frame, duty ratio and y_m (and the plant rows `_drift`), and
    # the raw gradient's frozen data on its tape must equal C_obs Phi and
    # y_m - C_obs xi at the start of each step, all bit for bit.  The
    # oracle reads Omega and H from their upper triangle, which the
    # engine's code must do too: at random rows, neither symmetric, its
    # stage still equals the oracle bit for bit
    import pbclab.sim as simmod
    from pbclab.cuk import build_cuk

    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
            ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
            ObserverSpec(name="emulator", kind="emulator"),
            ObserverSpec(name="kbf", kind="kbf", s=_KBF_S, h0=2.0),
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
    bank_init, raw_steps = simmod._Bank.__init__, simmod.raw_steps

    def keeping_bank(self, *args):
        bank_init(self, *args)
        kept["bank"] = self

    def keeping_raw(theta_hat, phi, y0, gamma, h):
        # the rows of the raw gradient's tape, copied: a later step overwrites them
        frozen.extend({"CPhi": phi[t : t + 1].copy(), "y_shift": float(y0[t])} for t in range(len(y0)))
        return raw_steps(theta_hat, phi, y0, gamma, h)

    def keeping_law(*args):
        law = stage_law(*args)

        def recorded(x, xc):
            out = law(x, xc)
            law_u["raw"] = out[0]
            return out

        return recorded

    def keeping_step(stage, t, p, h):
        # the vector at the start of the step, and at every stage the
        # vector and its derivative
        starts.append(list(p))

        def recording(v):
            dv = stage(v)
            stages.append((round(t / h), v, dv, law_u["raw"]))
            return dv

        return step(recording, t, p, h)

    monkeypatch.setattr(simmod._Bank, "__init__", keeping_bank)
    monkeypatch.setattr(simmod, "raw_steps", keeping_raw)
    monkeypatch.setattr(simmod, "_stage_law", keeping_law)
    monkeypatch.setattr(simmod, "_rk4_split_step", keeping_step)
    run_scenario(scn)
    monkeypatch.undo()
    bank = kept["bank"]
    assert sorted(bank.filters) == [3.0, 5.0] and len(bank.kbfs) == 1
    N = round(scn.horizon / scn.h)
    assert len(stages) == 4 * N and len(frozen) == N
    caches = {r: simmod._PlantCache(build_cuk(CukParams(r=r))) for r in (20.0, 30.0)}
    for k, v, dv, u_raw in stages:
        u = min(max(u_raw, scn.controller.u_min), scn.controller.u_max)
        cache = caches[30.0 if k >= k_event else 20.0]
        y_m = cache.c_y * v[3]
        assert dv[:4] == _drift(cache.rows, v, u), k
        assert dv[5:] == _estimator_rows(bank, cache, v, u, y_m), k
    c_y = caches[20.0].c_y  # the sensor is the same in both epochs
    for data, v in zip(frozen, starts, strict=True):
        y = np.array(v[5:])
        assert np.array_equal(data["CPhi"], bank.Phi(y)[3:4])
        assert np.array_equal(np.atleast_1d(data["y_shift"]), c_y * v[3] - bank.xi(y)[3:])
    rng = np.random.default_rng(5)
    for cache in caches.values():
        derivative = bank.stage(cache)
        for _ in range(20):
            v, u = rng.normal(size=5 + bank.size).tolist(), rng.uniform(0.0, 1.0)
            assert derivative(v, u, v[3]) == _estimator_rows(bank, cache, v, u, v[3])


def test_the_estimator_row_oracle_agrees_with_the_reference_derivatives():
    # the float oracle `_estimator_rows`, to which the engine's stage is held
    # bit for bit, sums each row left to right; at random rows (Omega and H
    # symmetric, as the engine keeps them), duty ratios and three loads it
    # must agree with observers.gpebo_matrix_derivatives and kbf_derivatives
    # within the rounding bound of those sums, n eps sum |terms| per entry
    # (measured worst: 1.87 eps sum |terms|)
    import pbclab.sim as simmod
    from pbclab.cuk import build_cuk
    from pbclab.observers import gpebo_matrix_derivatives, kbf_derivatives

    rng = np.random.default_rng(29)
    eps, n = np.finfo(float).eps, 4
    specs = [ObserverSpec(kind="fct-gpebo"), ObserverSpec(kind="fct-gpebo", lam=3.0),
             ObserverSpec(kind="kbf", s=_KBF_S, h0=2.0)]
    bank, _ = simmod._estimators(specs)
    (kbf,) = bank.kbfs
    C = np.array([[0.0, 0.0, 0.0, 1.0]])
    worst = 0.0
    for r in (20.0, 30.0, 5.0):
        cache = simmod._PlantCache(build_cuk(CukParams(r=r)))
        for _ in range(300):
            y = rng.normal(size=bank.size) * rng.choice([1e-3, 1.0, 1e3], size=bank.size)
            for block in [filt.Omega for filt in bank.filters.values()] + [kbf.H]:
                M = block(y)
                M[:] = M + M.T  # a view of y: Omega and H symmetric
            v, u = rng.normal(size=5).tolist() + y.tolist(), rng.uniform(0.0, 1.0)
            y_m = v[3]
            got = np.array(_estimator_rows(bank, cache, v, u, y_m))
            A, b = cache.A0_obs + u * cache.A1_obs, cache.b0_obs
            xi, Phi, c = bank.xi(y), bank.Phi(y), bank.Phi(y)[3]
            want, terms = np.empty(bank.size), np.empty(bank.size)
            want[bank.xi.sl], want[bank.Phi.sl] = [d.ravel() for d in gpebo_matrix_derivatives(
                A, b, C, xi, Phi, np.zeros(n), np.zeros((n, n)), 1.0, y_m)[:2]]
            terms[bank.xi.sl] = np.abs(A) @ np.abs(xi) + np.abs(b)
            terms[bank.Phi.sl] = (np.abs(A) @ np.abs(Phi)).ravel()
            for lam, filt in bank.filters.items():
                _, _, dY, dOm = gpebo_matrix_derivatives(A, b, C, xi, Phi, filt.Y(y), filt.Omega(y), lam, y_m)
                want[filt.Y.sl], want[filt.Omega.sl] = dY, dOm.ravel()
                terms[filt.Y.sl] = lam * (np.abs(c * (y_m - xi[3])) + np.abs(filt.Y(y)))
                terms[filt.Omega.sl] = lam * (np.abs(np.outer(c, c)) + np.abs(filt.Omega(y))).ravel()
            x, H = kbf.x(y), kbf.H(y)
            dx, dH = kbf_derivatives(A, b, C, kbf.S, x, H, y_m)
            want[kbf.x.sl], want[kbf.H.sl] = dx, dH.ravel()
            terms[kbf.x.sl] = np.abs(A) @ np.abs(x) + np.abs(b) + np.abs(H[:, 3] * (y_m - x[3]))
            AH = np.abs(A) @ np.abs(H)
            terms[kbf.H.sl] = (AH + AH.T + np.abs(np.outer(H[:, 3], H[3])) + np.abs(kbf.S)).ravel()
            assert (np.abs(got - want) <= n * eps * terms).all(), r
            worst = max(worst, (np.abs(got - want) / (eps * terms)).max())
    assert worst > 0.0  # the float sums and the BLAS products do round apart


def test_the_riders_tapes_read_the_rows_at_the_start_of_each_step(monkeypatch):
    # every rider of the state loop steps from its tape after the loop; at
    # stride 1, over two tapes' worth of steps and a load event, each
    # sampled row must equal per-step calls of drem_mix and scalar_update,
    # and of gradient_update, on the rows and measurement at the start of
    # that step, taken from the engine step itself, bit for bit
    import pbclab.sim as simmod
    from pbclab.cuk import build_cuk

    scn = Scenario(
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
            ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17, lam=3.0),
            ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
            ObserverSpec(name="grad-ext", kind="gradient", gamma=1e8, mode="extended", lam=3.0),
        ],
        events=[EventSpec(time=6.005e-4, kind="load", value=30.0)],
        horizon=1e-3,
        stride=1,
    )
    N = round(scn.horizon / scn.h)
    assert N > simmod._CHUNK
    kept, starts = {}, []
    step, bank_start = simmod._rk4_split_step, simmod._Bank.start

    def keeping_bank(bank):
        kept["bank"] = bank
        return bank_start(bank)

    def keeping_step(stage, t, p, h):
        starts.append((p[3], np.array(p[5:])))
        return step(stage, t, p, h)

    monkeypatch.setattr(simmod._Bank, "start", keeping_bank)
    monkeypatch.setattr(simmod, "_rk4_split_step", keeping_step)
    traj = run_scenario(scn)
    monkeypatch.undo()
    bank, c_y = kept["bank"], build_cuk(CukParams()).C[0, 3]  # the sensor is the same in both epochs
    assert len(starts) == N and len(traj.t) == N + 1
    omega, theta = {"fct": 1.0, "gpebo": 1.0}, {name: np.zeros(4) for name in ("fct", "gpebo", "grad-raw", "grad-ext")}
    for k in range(N + 1):
        for name, rec in traj.observers.items():
            if name in omega:
                assert rec["omega"][k] == omega[name], (name, k)
            assert rec["theta_hat"][k].tobytes() == theta[name].tobytes(), (name, k)
        if k == N:
            break
        x4, y = starts[k]
        for name, lam, gamma in (("fct", 5.0, 1e12), ("gpebo", 3.0, 1e17)):
            filt = bank.filters[lam]
            scriptY, Delta = drem_mix(filt.Omega(y), filt.Y(y))
            omega[name], theta[name] = scalar_update(omega[name], theta[name], scriptY, Delta, gamma, scn.h)
        CPhi, y_shift = bank.Phi(y)[3:4], c_y * x4 - bank.xi(y)[3]
        theta["grad-raw"] = gradient_update(theta["grad-raw"], 1e8, "raw", scn.h, CPhi=CPhi, y_shift=float(y_shift))
        filt = bank.filters[3.0]
        theta["grad-ext"] = gradient_update(theta["grad-ext"], 1e8, "extended", scn.h, Omega=filt.Omega(y), Y=filt.Y(y))


def test_a_riders_tape_is_bounded():
    # a rider's tape holds at most one chunk of steps: from 2 000 to 20 000
    # steps of the state loop with one FCT rider, the run's peak of traced
    # memory grows by its sample store's growth alone, within a chunk's
    # tape, so no array with one entry per step is allocated (a tape of
    # every step would add 2.9 MB)
    import tracemalloc

    import pbclab.sim as simmod

    peaks, sizes = [], []
    for N in (2_000, 20_000):
        scn = Scenario(observers=[ObserverSpec(name="fct")], horizon=N * 5e-7, stride=100)
        run_scenario(replace(scn, horizon=5e-5))  # imports and first-call caches outside the trace
        tracemalloc.start()
        try:
            run_scenario(scn)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(simmod._sample_bytes(scn, N))
    chunk = simmod._CHUNK * 20 * 8  # one tape of a filter's (Y, Omega)
    assert peaks[1] - peaks[0] < sizes[1] - sizes[0] + chunk, (peaks, sizes)


def test_the_sample_cap_counts_what_a_run_reserves(monkeypatch):
    # a feeding FCT, a GPEBO rider on its filter and a raw-gradient rider:
    # the cap's byte count must be the sample store's rows and each
    # stack's samples, tape and states over the tape, as the run reserves
    # them; the loop's stack, the feed's gain alone, has no tape, and its
    # one row is a list of floats
    import pbclab.sim as simmod

    scn = Scenario(controller=ControllerSpec(feedback="observer"), horizon=2e-4, stride=30, observers=[
        ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
        ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
        ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
    ])
    reserved, stacks = [], []
    store_init, stack_start = simmod._Store.__init__, simmod._ExactSteps.start

    def keeping_store(store, *args):
        store_init(store, *args)
        reserved.append(store.rows)

    def keeping_stack(stack, K, rides):
        stack_start(stack, K, rides)
        buffers = {key: v for key, v in vars(stack).items() if isinstance(v, np.ndarray)}
        stacks.append((len(stack.rows), sorted(buffers)))
        reserved.extend(v for key, v in buffers.items() if key not in ("state", "column"))

    monkeypatch.setattr(simmod._Store, "__init__", keeping_store)
    monkeypatch.setattr(simmod._ExactSteps, "start", keeping_stack)
    run_scenario(scn)
    assert stacks == [(1, ["samples"]), (1, ["column", "samples", "state", "states", "tape"]),
                      (1, ["samples", "state", "states", "tape"])]
    N = round(scn.horizon / scn.h)
    assert sum(arr.nbytes for arr in reserved) == simmod._sample_bytes(scn, N)


def test_the_first_failure_in_step_order_wins(monkeypatch):
    # the plant fails at one step and a rider's tape at another, a load
    # event between them: the earlier step wins as it would if every row
    # stepped in the loop (the plant first within a step), with its
    # message, the samples up to it and the circuit values in force then
    import pbclab.sim as simmod

    h, stride, k_event = 5e-7, 30, 2000
    scn = _gradient_riders_on_the_state_loop()
    scn = replace(scn, events=[EventSpec(time=k_event * h, kind="load", value=30.0)], horizon=2400 * h, stride=stride)
    own = _trajectory_arrays(run_scenario(scn))
    step = simmod._rk4_split_step

    def failing_plant(k_plant):
        calls = []

        def failing(stage, t, p, h):
            calls.append(1)
            if len(calls) > k_plant:
                raise NonFiniteState(f"non-finite state after step ending at t={t + h:g} s")
            return step(stage, t, p, h)

        return failing

    cases = [  # (rider's gain, its first non-finite step, the plant's), the expected failure
        (1e11, 1500, 2100, "estimator", 1500, 20.0),  # a rider before the event, the plant after it
        (1e8, 2150, 2100, "plant", 2100, 30.0),  # the plant first, the rider later
        (1e12, 2100, 2100, "plant", 2100, 30.0),  # one step: the plant steps first
        (1e8, 1023, 2100, "estimator", 1023, 20.0),  # the last step of a full tape
    ]
    for gamma, k_rider, k_plant, which, k, r in cases:
        _nan_from_step(monkeypatch, k_rider, gamma)
        monkeypatch.setattr(simmod, "_rk4_split_step", failing_plant(k_plant))
        with pytest.raises(NonFiniteState) as err:
            run_scenario(scn)
        monkeypatch.undo()
        t = k * h
        want = (f"non-finite estimator state after the step to t={t + h:g} s" if which == "estimator"
                else f"non-finite state after step ending at t={t + h:g} s")
        assert str(err.value) == want, (gamma, k_rider, k_plant)
        partial, taken = err.value.partial, k // stride + 1
        assert len(partial.t) == taken
        for key, arr in _trajectory_arrays(partial).items():
            assert np.array_equal(arr, own[key][:taken], equal_nan=True), key
        assert partial.meta["params"]["r"] == r


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
                                 lam=5.0, s=_KBF_S, event_time=1e-4, kbf_gamma=1e12, kbf_mu=1e-6):
    return Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=fct_gamma),
            ObserverSpec(name=name, kind="gpebo", gamma=gamma, mu=mu, lam=lam),
            ObserverSpec(name="grad-raw", kind="gradient", gamma=grad_gamma, mode="raw"),
            ObserverSpec(name="grad-ext", kind="gradient", gamma=grad_gamma, mode="extended", lam=3.0),
            ObserverSpec(name="kbf", kind="kbf", s=s, h0=2.0, gamma=kbf_gamma, mu=kbf_mu),
        ],
        events=[EventSpec(time=event_time, kind="load", value=30.0)],
        horizon=2e-4,
        stride=30,
    )


@pytest.mark.parametrize("make, rows", [
    (_riders_on_the_state_loop,
     [dict(gamma=3e12), dict(gamma=1e10, mu=0.3, name="swept"), dict(gamma=1e14)]),
    (_riders_on_observer_feedback,
     [dict(gamma=1e12), dict(gamma=1e15, mu=0.01, name="swept", grad_gamma=1e6),
      dict(kbf_gamma=3e5, kbf_mu=0.4)]),  # a KBF reads neither its gamma nor its mu
], ids=["state-loop-fct-riders", "fct-feedback-mixed-riders"])
def test_replayed_rows_equal_runs_of_their_own(monkeypatch, make, rows):
    # the first run of a pass integrates the loop and steps every rider
    # gain of the rows once (the GPEBO-kind ones stacked), and the loop
    # the feed's gain alone; every later row only assembles its trajectory
    # from the pass, and must log what it logs on its own
    (shared,) = SharedPass.groups([make(), *(make(**row) for row in rows)])
    first_row, *later_rows = shared.scenarios
    steps = _counting_steps(monkeypatch)
    calls = _exact_step_calls(monkeypatch)
    first = run_scenario(first_row, shared=shared)
    N = len(steps)
    assert N == round(2e-4 / 5e-7)
    stepped = _steps(calls)
    looped = [gains for name, gains in stepped if name == "drem_scalar_step"]
    assert looped == ([(first_row.observers[0].gamma,)] if first_row.controller.feedback == "observer" else [])
    riding = [gains for name, gains in stepped if name == "scalar_steps"]
    assert len(riding) == 1 and len(riding[0]) > 1  # one stack of every riding GPEBO-kind gain
    assert set(stepped.values()) == {N}  # each stack over every step, once
    _assert_same_run(first, run_scenario(make()))
    for row, scn in zip(rows, later_rows):
        del steps[:], calls[:]
        replayed = run_scenario(scn, shared=shared)
        # no Runge-Kutta stage, no GPEBO step, no gradient step
        assert steps == [] and calls == []
        _assert_same_run(replayed, run_scenario(make(**row)))
    # the rows of a pass share its arrays, which therefore cannot be written
    assert np.shares_memory(first.u, replayed.u)
    rec = replayed.observers["fct-b" if "fct-b" in replayed.observers else "fct"]
    for arr in (replayed.u, rec["xi"], rec["Delta"]):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def _trajectory_arrays(traj):
    """Every array a trajectory hands out, by name."""
    arrays = {key: getattr(traj, key) for key in ("t", "signals", "u", "ytilde", "W", "saturated", "ref", "epoch")}
    for name, rec in traj.observers.items():
        arrays.update({f"{name}.{key}": value for key, value in rec.items()})
    return arrays


def test_a_run_hands_out_no_view_of_its_buffers(monkeypatch):
    # the exact steps' states and the riding stacks' tapes and states over
    # them are overwritten at every step or tape (the bank's rows are
    # Python floats, and hold no buffer): nothing a run hands out
    # (its trajectory, a NonFiniteState's partial, a shared pass's kept
    # store and columns) may share memory with them, and a second run in
    # the same process leaves the first run's arrays as they were
    import pbclab.sim as simmod

    buffers, stack_start = [], simmod._ExactSteps.start

    def keeping_stack(stack, K, rides):
        stack_start(stack, K, rides)
        # every buffer but the sampled states, which the columns are views of
        buffers.extend(v for key, v in vars(stack).items() if isinstance(v, np.ndarray) and key != "samples")

    def assert_apart(arrays):
        assert buffers and arrays
        for key, arr in arrays.items():
            assert not any(np.shares_memory(arr, buf) for buf in buffers), key

    monkeypatch.setattr(simmod._ExactSteps, "start", keeping_stack)
    (shared,) = SharedPass.groups([_riders_on_observer_feedback(), _riders_on_observer_feedback(gamma=1e12)])
    first = run_scenario(shared.scenarios[0], shared=shared)
    assert_apart(_trajectory_arrays(first))
    store = {"rows": shared.store.rows}
    assert_apart({**store, **shared.cols})
    kept = {key: arr.copy() for key, arr in {**_trajectory_arrays(first), **store}.items()}

    calls, update = [], simmod.drem_scalar_step

    def failing_update(*args):  # the feed's omega turns NaN from the 100th step on
        calls.append(1)
        omega, *theta_hat = update(*args)
        return [math.nan if len(calls) >= 100 else omega, *theta_hat]

    monkeypatch.setattr(simmod, "drem_scalar_step", failing_update)
    del buffers[:]
    with pytest.raises(NonFiniteState) as err:  # a run of its own, the second in this process
        run_scenario(replace(_riders_on_observer_feedback(grad_gamma=1e6), stride=1))
    assert len(err.value.partial.t) > 1
    assert any(buf.shape[:1] == (simmod._CHUNK,) for buf in buffers)  # the riders' tapes among them
    assert_apart(_trajectory_arrays(err.value.partial))
    for key, arr in {**_trajectory_arrays(first), **store}.items():
        assert np.array_equal(arr, kept[key], equal_nan=True), key


def _gradient_riders_on_the_state_loop(gamma=1e8):
    scn = _riders_on_the_state_loop()
    return replace(scn, observers=[*scn.observers, ObserverSpec(name="grad", kind="gradient", gamma=gamma)])


@pytest.mark.parametrize("rider", ["gpebo", "gradient"])
def test_a_pass_raises_where_any_of_its_gains_turns_non_finite(monkeypatch, rider):
    # the swept FCT rider (or with rider="gradient" a raw gradient) of the
    # third row turns non-finite from its step k on: the first row asked
    # for runs the union, which raises at that step with the message of the
    # failing row's own run and keeps nothing; the partial is the asking
    # row's samples up to that step, which the load event after it does not
    # reach
    k_nan = 150
    gpebo = rider == "gpebo"
    gammas = (1e10, 3e12, 1e13) if gpebo else (1e8, 3e8, 1e9)
    gamma_nan = gammas[-1]

    def make(gamma):
        scn = _riders_on_the_state_loop(gamma=gamma) if gpebo else _gradient_riders_on_the_state_loop(gamma)
        return replace(scn, events=[EventSpec(time=1e-4, kind="load", value=30.0)])

    own = _trajectory_arrays(run_scenario(make(gammas[0])))
    (shared,) = SharedPass.groups([make(gamma) for gamma in gammas])
    _nan_from_step(monkeypatch, k_nan, gamma_nan)
    with pytest.raises(NonFiniteState) as raised:
        run_scenario(shared.scenarios[0], shared=shared)
    assert shared.store is None
    _nan_from_step(monkeypatch, k_nan, gamma_nan)
    with pytest.raises(NonFiniteState) as alone:
        run_scenario(make(gamma_nan))
    message = f"non-finite estimator state after the step to t={(k_nan + 1) * 5e-7:g} s"
    assert str(raised.value) == str(alone.value) == message
    partial, taken = raised.value.partial, k_nan // 30 + 1
    assert len(partial.t) == taken
    for key, arr in _trajectory_arrays(partial).items():
        assert np.array_equal(arr, own[key][:taken], equal_nan=True), key
    assert partial.meta["params"]["r"] == 20.0


@pytest.mark.parametrize("base, other", [
    (dict(lam=5.0), dict(lam=4.0)),  # a swept pole
    (dict(fct_gamma=1e12), dict(fct_gamma=1e11)),  # the gain of the estimator that feeds back
    (dict(s=_KBF_S), dict(s=_KBF_S + np.diag([2e-12, 0.0, 0.0, 0.0]))),  # the 13th digit of S
    (dict(event_time=1e-4), dict(event_time=1.5e-4)),  # a moved event
], ids=["lambda", "feeding-gamma", "kbf-s-13th-digit", "event-time"])
def test_a_change_outside_the_riders_gains_runs_a_full_pass(monkeypatch, base, other):
    # grouped as `cmd_sweep` groups its rows: `base` alone, `other` with a
    # row that differs from it in the rider gains alone
    rows = [_riders_on_observer_feedback(**base), _riders_on_observer_feedback(**other),
            _riders_on_observer_feedback(**other, gamma=1e13, grad_gamma=1e7)]
    passes = SharedPass.groups(rows)
    assert [list(map(id, p.scenarios)) for p in passes] == [[id(rows[0])], [id(rows[1]), id(rows[2])]]
    steps = _counting_steps(monkeypatch)
    run_scenario(rows[0], shared=passes[0])
    N = len(steps)
    run_scenario(rows[1], shared=passes[1])
    assert len(steps) == 2 * N
    # the rider gains alone are served by the pass just kept
    run_scenario(rows[2], shared=passes[1])
    assert len(steps) == 2 * N
    if "s" in base:  # numpy prints both matrices alike, to 8 digits
        assert repr(base["s"]) == repr(other["s"])


def test_a_pass_takes_only_its_own_rows():
    # a pass serves the scenarios it was grouped from, by identity; an
    # equal scenario built afresh is not one of them
    (shared,) = SharedPass.groups([_riders_on_the_state_loop(), _riders_on_the_state_loop(gamma=3e12)])
    with pytest.raises(ValueError, match="not one of the rows"):
        run_scenario(_riders_on_the_state_loop(), shared=shared)
    assert shared.store is None


def _sweep_runs(monkeypatch, argv):
    """Run `pbclab sweep` in this process and hold every row to a run of
    its own; per row, the steps of each of its exact-step functions and
    gains (`_steps`)."""
    import pbclab.cli as cli

    runs, run = [], cli.run_scenario
    calls = _exact_step_calls(monkeypatch)

    def recording_run(scn, **kwargs):
        del calls[:]
        traj = run(scn, **kwargs)
        runs.append({"scn": scn, "traj": traj, "steps": _steps(calls)})
        return traj

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    assert cli.main(["sweep", "--set", "scenario.horizon=0.0002", "--set", "scenario.stride=30", *argv]) == 0
    monkeypatch.undo()
    for row in runs:
        _assert_same_run(row["traj"], run_scenario(row["scn"]))
    return runs


_GAINS = ["--preset", "fig-observer-gains", "--param"]  # riders of gains 1e10, 1e11, 1e12


@pytest.mark.parametrize("argv, column", [
    # the first row's own gains, then the other gains of the sweep
    ([*_GAINS, "observers.0.gamma", "--values", "1e10,3e12,1e17,5e11,3e12"], [1e10, 1e11, 1e12, 3e12, 1e17, 5e11]),
    # observers 0 and 1 of the first row share a gain, and so a row
    ([*_GAINS, "observers.0.gamma", "--values", "1e11,1e11,1e10"], [1e11, 1e12, 1e10]),
    ([*_GAINS, "observers.0.mu", "--values", "1e-6,0.01,0.3"], [1e10, 1e11, 1e12]),
], ids=["gamma", "repeated-gamma", "mu"])
def test_a_sweep_steps_each_riders_gain_once(monkeypatch, argv, column):
    # the first row steps each gain of the sweep over every step once, in
    # one stack on the one filter; no later row steps anything
    N = round(2e-4 / 5e-7)
    first, *later = _sweep_runs(monkeypatch, argv)
    assert first["steps"] == {("scalar_steps", tuple(column)): N}
    assert later and all(row["steps"] == {} for row in later)


def test_a_gradient_gain_sweep_steps_each_gain_once_in_the_first_row(monkeypatch):
    # FCT feedback with a GPEBO, an emulator, a KBF and a raw gradient
    # riding: the first row steps the FCT gain in the loop, one call per
    # step, and the GPEBO gain of its filter and every gain of the gradient
    # over every step once, from their tapes; no later row steps anything
    N = round(2e-4 / 5e-7)
    argv = ["--preset", "fig-observer-compare", "--param", "observers.4.gamma", "--values", "1e8,1e7,1e8,1e9"]
    first, *later = _sweep_runs(monkeypatch, argv)
    assert first["steps"] == {("drem_scalar_step", (1e12,)): N, ("scalar_steps", (1e17,)): N,
                              ("raw_steps", (1e8, 1e7, 1e9)): N}
    assert len(later) == 3
    assert all(row["steps"] == {} for row in later)


def test_the_loop_steps_the_feeds_gain_alone(monkeypatch):
    # FCT feedback with GPEBO riders on the feed's filter: the loop makes
    # one drem_scalar_step call per step, with the feed's gain, and every
    # other gain of that filter steps once, in one riding stack; the value
    # 1e12, the feed's own gain, is the feed's row
    N = round(2e-4 / 5e-7)
    argv = ["--preset", "fig-observer-compare", "--param", "observers.1.gamma", "--values", "1e17,1e15,1e12,1e13"]
    first, *later = _sweep_runs(monkeypatch, argv)
    assert first["steps"] == {("drem_scalar_step", (1e12,)): N, ("scalar_steps", (1e17, 1e15, 1e13)): N,
                              ("raw_steps", (1e8,)): N}
    assert len(later) == 3 and all(row["steps"] == {} for row in later)


def test_a_raw_gradients_unread_pole_splits_no_pass(monkeypatch):
    # a raw gradient reads no regression filter, so its lambda reaches
    # nothing but its own meta: rows that differ only there are one pass,
    # whose first row steps the gradient's one gain and whose later rows
    # step nothing, and each row logs its own lambda and what it logs alone
    N = round(2e-4 / 5e-7)
    lams = [5.0, 3.0, 7.0]
    scns = [_gradient_riders_on_the_state_loop() for _ in lams]
    for scn, lam in zip(scns, lams):
        scn.observers[-1] = replace(scn.observers[-1], lam=lam)
    assert len(SharedPass.groups(scns)) == 1
    argv = ["--preset", "fig-observer-compare", "--param", "observers.4.lambda", "--values", "5.0,3.0,7.0"]
    first, *later = _sweep_runs(monkeypatch, argv)
    assert first["steps"] == {("drem_scalar_step", (1e12,)): N, ("scalar_steps", (1e17,)): N, ("raw_steps", (1e8,)): N}
    assert len(later) == 2 and all(row["steps"] == {} for row in later)
    assert [row["traj"].meta["lam"]["gradient"] for row in (first, *later)] == lams


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


def _joined(stage):
    """The engine's stage function as rk4_step's f(t, y) on the Runge-Kutta
    vector y (the plant rows and integrator, then the estimator rows)."""
    return lambda t, y: np.array(stage(y.tolist()))


def _checked_steps(monkeypatch, check_stage=None):
    """Make every engine step check itself against rk4_step applied to the
    same stage function on the same vector, bit for bit; check_stage(p, dp)
    sees every stage of the engine's own step.  Returns the list of the
    checked steps' start times."""
    import pbclab.sim as simmod

    step, count = simmod._rk4_split_step, []

    def checking_step(stage, t, p, h):
        def seen(p_stage):
            dp = stage(p_stage)
            if check_stage is not None:
                check_stage(p_stage, dp)
            return dp

        p_new = step(seen, t, p, h)
        want = simmod.rk4_step(_joined(stage), t, np.array(p), h)
        assert np.array_equal(np.array(p_new), want), t
        count.append(t)
        return p_new

    monkeypatch.setattr(simmod, "_rk4_split_step", checking_step)
    return count


def _drift(rows, x, u: float) -> list:
    """The plant drift dx_i = sum_j (L0_ij + u L1_ij) x_j + b0_i on Python
    floats from the rows (L0_i1..L0_i4, L1_i1..L1_i4, b0_i) of a
    `_PlantCache`, the sum taken left to right and b0_i added last; x is
    read from its first four entries."""
    x1, x2, x3, x4 = x[:4]
    return [
        (a1 + u * c1) * x1 + (a2 + u * c2) * x2 + (a3 + u * c3) * x3 + (a4 + u * c4) * x4 + b
        for a1, a2, a3, a4, c1, c2, c3, c4, b in rows
    ]


def _left_sum(terms):
    """terms[0] + terms[1] + ..., added left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _estimator_rows(bank, frame, v, u: float, y_m: float) -> list:
    """The derivative of the estimator rows of the Runge-Kutta vector v on
    Python floats, for the bank's layout: A = A0_obs + u A1_obs and b =
    b0_obs of `frame` (a `_PlantCache`), then the rows of
    gpebo_matrix_derivatives and kbf_derivatives at C_obs = [0, 0, 0, 1].
    Each product row by column is summed left to right, b_i added after it;
    Omega and H are read from their upper triangle."""
    n, R = bank.n, range(bank.n)
    A = [[a + u * c for a, c in zip(r0, r1)] for r0, r1 in zip(frame.A0_obs.tolist(), frame.A1_obs.tolist())]
    b, y, out = frame.b0_obs.tolist(), v[bank.base :], [None] * bank.size

    def entry(block, i, j=None, symmetric=False):
        if symmetric:
            i, j = min(i, j), max(i, j)
        return block.sl.start + (i if j is None else i * n + j)

    def row_times(i, column):  # sum_k A_ik column[k]
        return _left_sum([A[i][k] * column[k] for k in R])

    if bank.xi is not None:
        xi = [y[entry(bank.xi, k)] for k in R]
        for i in R:
            out[entry(bank.xi, i)] = row_times(i, xi) + b[i]
    if bank.Phi is not None:
        Phi = [[y[entry(bank.Phi, i, j)] for j in R] for i in R]
        for i in R:
            for j in R:
                out[entry(bank.Phi, i, j)] = row_times(i, [Phi[k][j] for k in R])
    for lam, filt in bank.filters.items():
        c, e = Phi[3], y_m - xi[3]  # C Phi and y_m - C xi
        for i in R:
            out[entry(filt.Y, i)] = lam * (c[i] * e - y[entry(filt.Y, i)])
            for j in R:
                lo, hi = min(i, j), max(i, j)
                out[entry(filt.Omega, i, j)] = lam * (c[lo] * c[hi] - y[entry(filt.Omega, lo, hi)])
    for kbf in bank.kbfs:
        x = [y[entry(kbf.x, k)] for k in R]
        H = [[y[entry(kbf.H, i, j, symmetric=True)] for j in R] for i in R]
        P, S = [[row_times(i, [H[k][j] for k in R]) for j in R] for i in R], kbf.S.tolist()
        e = y_m - x[3]
        for i in R:
            out[entry(kbf.x, i)] = (row_times(i, x) + b[i]) + H[i][3] * e
            for j in R:
                lo, hi = min(i, j), max(i, j)
                out[entry(kbf.H, i, j)] = ((P[hi][lo] + P[lo][hi]) - H[lo][3] * H[3][hi]) + S[lo][hi]
    return out


_CLAMPED_LOOPS = {  # (controller, event) of a state loop that hits the clamp and crosses an event
    "pi-pbc-reference": (ControllerSpec(), EventSpec(time=2e-4, kind="reference", value=-12.0)),
    "pi-pbc-load": (ControllerSpec(), EventSpec(time=2e-4, kind="load", value=30.0)),
    "classical-reference": (
        ControllerSpec(type="classical-pi", kp=0.008, ki=8.0), EventSpec(time=2e-4, kind="reference", value=-25.0)
    ),
}


@pytest.mark.parametrize("loop", list(_CLAMPED_LOOPS))
def test_engine_step_equals_rk4_on_the_clamped_stage(monkeypatch, loop):
    # on a state loop that hits the clamp and crosses an event, every step
    # equals rk4_step on the joined vector, and every stage's derivative is
    # the drift of the epoch's circuit at the duty ratio the reference law
    # (control.pi_pbc_step or control.classical_pi_step) clamps, with the
    # integrator derivative ytilde or the voltage error
    import pbclab.sim as simmod
    from pbclab.control import ClassicalPiState, classical_pi_step, pi_pbc_step

    ctl, event = _CLAMPED_LOOPS[loop]
    epochs, stage_law = [], simmod._stage_law

    def keeping_law(ctl, pi, model, v_ref):
        epochs.append((pi, simmod._PlantCache(model).rows, float(model.Q[3, 3]), v_ref))
        return stage_law(ctl, pi, model, v_ref)

    clamped = []

    def check_stage(p, dp):
        pi, rows, q4, v_ref = epochs[-1]
        if pi is None:
            state = ClassicalPiState(ctl.kp, ctl.ki, v_ref, p[4], ctl.u_min, ctl.u_max)
            u, err, sat = classical_pi_step(state, q4 * p[3])
        else:
            u, err, sat = pi_pbc_step(replace(pi, x_c=np.array(p[4:])), np.array(p[:4]))
            u, err = u.item(), err.item()
        clamped.append(sat)
        assert dp == _drift(rows, p, u) + [err]

    monkeypatch.setattr(simmod, "_stage_law", keeping_law)
    steps = _checked_steps(monkeypatch, check_stage)
    scn = Scenario(controller=ctl, events=[event], horizon=4e-4, stride=10)
    traj = run_scenario(scn)
    assert len(steps) == round(scn.horizon / scn.h) and len(epochs) == 2
    assert 0 < sum(clamped) < len(clamped) and 0 < traj.saturated.sum() < len(traj.t)


@pytest.mark.parametrize("first", ["fct", "emulator", "kbf", "grad-raw"])
def test_engine_step_equals_rk4_with_every_estimator_kind(monkeypatch, first):
    # the estimator rows ride in the same four stages: on an observer-
    # feedback run with all five kinds and a load event, every step equals
    # rk4_step on the joined vector, whichever kind closes the loop
    steps = _checked_steps(monkeypatch)
    observers = [
        ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
        ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17),
        ObserverSpec(name="emulator", kind="emulator"),
        ObserverSpec(name="kbf", kind="kbf"),
        ObserverSpec(name="grad-raw", kind="gradient", gamma=1e8, mode="raw"),
        ObserverSpec(name="grad-ext", kind="gradient", gamma=1e8, mode="extended", lam=3.0),
    ]
    observers.sort(key=lambda spec: spec.name != first)  # the first closes the loop
    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=observers,
        events=[EventSpec(time=1e-4, kind="load", value=30.0)],
        horizon=2e-4,
        stride=50,
    )
    traj = run_scenario(scn)
    assert len(steps) == round(scn.horizon / scn.h)
    assert traj.saturated.any()


def test_float_drift_rows_agree_with_the_model_dynamics():
    # the plant stage sums each row left to right on Python floats, as
    # `_drift` does, to which the clamped-stage test holds it bit for bit; at
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
            got, want = _drift(cache.rows, x.tolist(), u), dynamics(model, x, [u])
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


def test_every_filter_poles_omega_stays_exactly_symmetric():
    # the stage code reads Omega and H from their upper triangle and writes
    # each mirrored entry as the same float: on observer feedback across a
    # load event, every sampled Omega of both poles and every sampled H is
    # exactly symmetric, and each moved
    scn = Scenario(
        controller=ControllerSpec(feedback="observer"),
        observers=[
            ObserverSpec(name="fct", kind="fct-gpebo", gamma=1e12),
            ObserverSpec(name="gpebo", kind="gpebo", gamma=1e17, lam=3.0),
            ObserverSpec(name="kbf", kind="kbf", s=_KBF_S, h0=2.0),
        ],
        events=[EventSpec(time=1e-4, kind="load", value=30.0)],
        horizon=2e-4,
        stride=10,
    )
    traj = run_scenario(scn)
    assert traj.epoch[-1] == 1
    for name, key in (("fct", "Omega"), ("gpebo", "Omega"), ("kbf", "H")):
        M = traj.observers[name][key]
        assert np.array_equal(M, np.swapaxes(M, 1, 2)), name
        assert not np.array_equal(M[-1], M[0]), name


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


@pytest.mark.parametrize("edit, message", [
    (lambda rows: [row[:-1] for row in rows], "column 14 must be fct_Delta, not missing"),
    (lambda rows: [[cell.replace("fct_ihat3", "fct_i3") for cell in rows[0]], *rows[1:]],
     "column 10 must be fct_ihat3, not 'fct_i3'"),
    (lambda rows: [[*rows[0], "spare"], *([*row, "1.0"] for row in rows[1:])],
     "column 15 must be spare_ihat1, not 'spare'"),
    (lambda rows: rows[:1], "no rows"),
    (lambda rows: [[*row, *row[8:]] for row in rows], "column 15 repeats 'fct_ihat1'"),
    (lambda rows: [["time", *rows[0][1:]], *rows[1:]], "must start with the columns"),
    (lambda rows: [rows[0][:-1], *rows[1:]], "has 14 columns in its header but 15 in its rows"),
], ids=["last-column-dropped", "renamed-column", "trailing-column", "header-only", "repeated-block",
        "renamed-base-column", "header-shorter-than-rows"])
def test_a_table_of_other_than_the_base_and_whole_blocks_is_refused(tmp_path, edit, message):
    # columns are read by their names: the base columns, then whole blocks
    # <name>_ihat1 ... <name>_Delta, and at least one row
    scn = Scenario(observers=[ObserverSpec(name="fct", kind="fct-gpebo")], horizon=2e-5, stride=10)
    path = tmp_path / "run.csv"
    run_scenario(scn).to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert len(rows[0]) == 15
    path.write_text("".join(",".join(row) + "\n" for row in edit(rows)))
    with pytest.raises(ValueError, match=message):
        Trajectory.from_csv(path)


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
