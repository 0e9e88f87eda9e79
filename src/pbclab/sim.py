"""Fixed-step closed-loop simulation of converter, controller and observers.

One Runge-Kutta vector holds the plant state, the controller integrator
and the observers' matrix states; a classical 4-stage Runge-Kutta step
advances the whole block on a shared clock.  The duty ratio is
re-evaluated from the stage states inside every stage.  The closed loop
is fourth order only where it is smooth: a clamp entry or exit is a kink
the fixed grid does not locate, and across one the plant drops to about
second order or less; events are applied at grid instants.

The vector is held in two parts.  The plant rows and the integrator
(x1..x4, x_c) are Python floats, advanced by one fused step
(`_rk4_split_step`) that evaluates per stage, in a fixed left-to-right
order, the passive output ytilde = sum_j Cmat[0, j] (x_j - x*_j), the raw
duty ratio and its clamp, and the drift
dx_i = sum_j (L0_ij + u L1_ij) x_j + b0_i.  The step uses `rk4_step`'s
stage weights and association, so its result equals `rk4_step` on the
joined vector bit for bit; the control law performs the IEEE operations
of `control.pi_pbc_step` (whose `shifted_output` sums in the same order)
and `control.classical_pi_step`, which remain the reference.  numpy is
used only for the estimator rows y, a vector stepped in the same four
stages when an estimator exists, which reads u and the measurement as
floats.  The matrix states that depend on neither the gain nor the kind
are held once per run and read by every estimator: the open-loop copy
(xi, plus Phi when an estimator reads it), driven by u alone, and one
regression filter pair (Y, Omega) per distinct pole lambda, driven by u,
y and lambda.  The Kalman-Bucy filter keeps a block of its own.  The
sharing is exact: Runge-Kutta acts entry by entry, and per-estimator
copies would come from the same expressions on the same inputs, so each
estimator's output is bit-identical to a run in which it is alone.

The estimator stage rests on two structural facts of `cuk.build_cuk`,
checked whenever the model is assembled (`_PlantCache.rebuild`).  The
source does not switch (G1 = 0), so b(u) = b0 for every duty ratio.  The
one sensor is the load voltmeter, so in the coenergy realization the
output map is exactly C_obs = [0, 0, 0, 1] and the measurement is the
single product y_m = C[0, 3] x4.  The copy, filter and Kalman-Bucy rows
are therefore evaluated with C Phi = Phi[3], C xi = xi[3] and
H C' = H[:, 3], the filter drives formed once per stage for every pole,
and the Riccati derivative as P' + P - H[:, 3] H[3] + S with P = A H,
with no symmetrization: H stays exactly symmetric, so H A' equals (A H)'
bit for bit.  Every remaining matrix product keeps its shape, so each row
equals `observers.gpebo_matrix_derivatives` and
`observers.kbf_derivatives`, which remain the reference, bit for bit.

Two estimator recursions are deliberately kept out of the Runge-Kutta
block and advanced by their exact exponential solutions with per-step
frozen coefficients: the decoupled-regression scalar estimator
(gain up to 1e17) and the plain gradient estimators (gain 1e8).  Both are
orders of magnitude stiffer than the grid step allows for an explicit
scheme, and the exact step is unconditionally contractive.  Their states
form a flat vector s, checked for finiteness after every step like the
Runge-Kutta vector.

At each sample instant the loop stores the plant rows, y and s as they
stand, with the duty ratio, passive output, clamp flag, reference and
epoch of that instant.  The plant signals, the storage W and every
estimator's logged arrays are derived from that store after the loop
with stacked numpy; the estimators' internals are views of it, so
estimators that read the same copy or filter share them.

A sweep over the gains of estimators that only ride shares one
closed-loop pass (`SharedPass`).  The name, gamma and mu of a GPEBO-kind
or gradient estimator that does not close the loop reach nothing but its
own exactly stepped slots of s, so runs that differ only there have the
same plant, integrator, copy, filters and Kalman-Bucy rows, and the same
frozen inputs to every exact step.  The first such run integrates the
loop and keeps its sample store and, per step, those frozen inputs; each
later one starts s afresh, steps every exact step from the kept inputs,
samples s at the same instants and assembles its trajectory from the
kept store.  It calls the same update functions on the same inputs, so
its arrays are those of a run of its own, bit for bit.

Scenario events retarget the reference voltage or restep the load at a
grid instant; the equilibrium pair, the passive output map and the
storage-function bookkeeping are recomputed there and the integrator
state carries over.

Observers integrate the coenergy realization z = Q x (physical currents
and voltages): A_obs = Q Lambda(u) Q^-1, b_obs = Q b(u), C_obs = C Q^-1.
The transform is an exact constant diagonal similarity, so the estimates
are the same states expressed in volts and amperes.  This realization is
used because the model is stated in physical variables and the estimates
are reported in them.  The regression determinant is not invariant under
it: a state scaling z = S x scales Delta by det(S)^-2, so Delta in the
stored (flux / charge) coordinates is det(Q)^2 times its coenergy value.
The monitor crosses 1 - mu at the first t with
gamma * int_0^t Delta^2 >= -ln(1 - mu), so a value of gamma means a
crossing time only in this realization.

The proportional path of the energy-shaping PI makes the closed loop
stiff: at the default gains the linearization has a real eigenvalue near
-3.2e6 1/s, far faster than the 3 ms resonance of the circuit itself.
The default step 5e-7 s keeps that mode inside the Runge-Kutta stability
region (|lambda| h = 1.6 < 2.785); at 1e-6 s the scheme is unstable on
that mode and locks onto a plausible-looking but spurious duty ratio.
The copy-observer invariant, the contraction identity and the
finite-time crossing are exact per step and insensitive to this choice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import cuk as cukmod
from .control import _storage, make_pi_pbc
from .cuk import ROOT_POLICIES, CukParams, build_cuk, solve_equilibrium
from .observers import (
    _adj_det,
    drem_mix,
    fct_combine,
    gpebo_estimate,
    gradient_update,
    scalar_update,
)
from .phmodel import PHModel

__all__ = [
    "NonFiniteState",
    "InfeasibleEquilibrium",
    "ScenarioError",
    "ObserverSpec",
    "ControllerSpec",
    "EventSpec",
    "Scenario",
    "Trajectory",
    "SharedPass",
    "rk4_step",
    "validate_scenario",
    "run_scenario",
    "compute_metrics",
]

GPEBO_KINDS = ("fct-gpebo", "gpebo")
OBSERVER_KINDS = GPEBO_KINDS + ("emulator", "kbf", "gradient")
_EXACT_KINDS = GPEBO_KINDS + ("gradient",)  # the kinds stepped exactly, in s
# physical plant signals (A, V, A, V) and their estimates, in CSV column order
SIGNALS = ("i1", "v2", "i3", "v4")
ESTIMATES = ("ihat1", "vhat2", "ihat3", "vhat4")
_BASE_COLUMNS = ["t", *SIGNALS, "u", "ytilde", "W"]  # then one block per observer


class NonFiniteState(RuntimeError):
    """An integration step produced a non-finite entry."""


class InfeasibleEquilibrium(RuntimeError):
    """An event (or the initial targeting) requested an unreachable
    operating point."""

    def __init__(self, epoch_time: float, cause: Exception):
        self.epoch_time = epoch_time
        super().__init__(f"no equilibrium at t={epoch_time:g} s: {cause}")

    def __reduce__(self):
        # the cause is kept only as its text, which follows the first " s: "
        return type(self), (self.epoch_time, str(self).partition(" s: ")[2])


class ScenarioError(ValueError):
    """The scenario description is inconsistent."""


def rk4_step(f, t: float, y, h: float):
    """One classical Runge-Kutta step for dy/dt = f(t, y).

    A step that overflows raises `NonFiniteState`; numpy's overflow and
    invalid-value warnings are not silenced here (`run_scenario` enters
    `np.errstate` once around its loop), so a direct call may also warn."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(y_new).all():
        raise NonFiniteState(f"non-finite state after step ending at t={t + h:g} s")
    return y_new


def _rk4_split_step(stage, t: float, p: list, y, h: float):
    """The engine's step: `rk4_step` on a vector split into the plant rows
    and integrator p, a list of Python floats, and the estimator rows y, a
    numpy vector.  stage(p, y) returns (dp, dy), with dy None when there is
    no estimator; y is then neither stepped nor checked.  Every entry is
    combined with rk4_step's stage weights and association, so the new
    state equals rk4_step's on the joined vector bit for bit."""
    hh = 0.5 * h
    k1, m1 = stage(p, y)
    k2, m2 = stage([v + hh * d for v, d in zip(p, k1)], y if m1 is None else y + hh * m1)
    k3, m3 = stage([v + hh * d for v, d in zip(p, k2)], y if m2 is None else y + hh * m2)
    k4, m4 = stage([v + h * d for v, d in zip(p, k3)], y if m3 is None else y + h * m3)
    h6 = h / 6.0
    p = [v + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for v, d1, d2, d3, d4 in zip(p, k1, k2, k3, k4)]
    finite = all(map(math.isfinite, p))
    if m1 is not None:
        y = y + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
        finite = finite and np.isfinite(y).all()
    if not finite:
        raise NonFiniteState(f"non-finite state after step ending at t={t + h:g} s")
    return p, y


# -- scenario description ----------------------------------------------------


@dataclass
class ObserverSpec:
    name: str = ""
    kind: str = "fct-gpebo"  # one of OBSERVER_KINDS
    lam: float = 5.0  # regression filter pole [1/s]
    gamma: float = 1e12  # estimator gain
    mu: float = 1e-6  # finite-time threshold margin
    mode: str = "raw"  # gradient only: raw | extended
    s: object = 1.0  # kbf only: state-noise weight (scalar -> s*I)
    h0: object = 1.0  # kbf only: initial Riccati state (scalar -> h0*I)


@dataclass
class ControllerSpec:
    type: str = "pi-pbc"  # pi-pbc | classical-pi
    kp: float = 10.0
    ki: float = 5.0
    x4_star: float = -15.0  # desired output voltage [V]
    u_min: float = 0.02
    u_max: float = 0.98
    feedback: str = "state"  # state | observer (uses the first observer)
    root_policy: str = "smallest"
    xc0: float = 0.0  # initial integrator value


@dataclass
class EventSpec:
    time: float
    kind: str  # reference | load
    value: float


@dataclass
class Scenario:
    params: CukParams = field(default_factory=CukParams)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    observers: list[ObserverSpec] = field(default_factory=list)
    x0: tuple = (0.75, 15.0, -1.5, -18.0)  # initial (i1, v2, i3, v4) [A, V, A, V]
    horizon: float = 0.05  # [s]
    h: float = 5e-7  # grid step [s]; see the module docstring on stability
    stride: int = 100  # samples every stride steps (default period 5e-5 s)
    events: list[EventSpec] = field(default_factory=list)
    label: str = "run"


@dataclass
class Trajectory:
    """Sampled closed-loop run.  Plant and estimate samples are stored in
    physical units (currents and voltages); observer internals keep the
    stored-variable coordinates and are views of the run's sample store,
    shared by estimators that read the same copy or filter."""

    t: np.ndarray
    signals: np.ndarray  # (K, n) physical plant signals Q x
    u: np.ndarray  # (K, m)
    ytilde: np.ndarray  # (K, m)
    W: np.ndarray  # (K,)
    saturated: np.ndarray  # (K,) bool
    ref: np.ndarray  # (K,) active output-voltage reference
    epoch: np.ndarray  # (K,) int, increments at each event instant
    observers: dict  # name -> dict of sampled arrays
    meta: dict = field(default_factory=dict)

    def csv_header(self):
        cols = list(_BASE_COLUMNS)
        for name in self.observers:
            cols += [f"{name}_{c}" for c in ESTIMATES]
            cols += [f"{name}_err_norm", f"{name}_omega", f"{name}_Delta"]
        return cols

    def csv_matrix(self):
        blocks = [self.t[:, None], self.signals, self.u, self.ytilde, self.W[:, None]]
        for rec in self.observers.values():
            blocks += [rec["xhat"], rec["err_norm"][:, None], rec["omega"][:, None], rec["Delta"][:, None]]
        return np.hstack(blocks)

    def to_csv(self, path):
        header = ",".join(self.csv_header())
        mat = self.csv_matrix()
        row_fmt = ",".join(["%.17g"] * mat.shape[1])
        lines = [header] + [row_fmt % tuple(row) for row in mat.tolist()]
        data = "\n".join(lines) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(data)

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return _trajectory_from_table(header, mat)


def _trajectory_from_table(header, mat) -> Trajectory:
    n = len(SIGNALS)
    if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
        raise ValueError(f"trajectory table must start with the columns {_BASE_COLUMNS}")
    t = mat[:, 0]
    signals = mat[:, 1 : 1 + n]
    u = mat[:, n + 1 : n + 2]
    ytilde = mat[:, n + 2 : n + 3]
    W = mat[:, n + 3]
    observers = {}
    j = len(_BASE_COLUMNS)
    width = n + 3
    while j + width <= len(header):
        name = header[j][: -len("_" + ESTIMATES[0])]
        observers[name] = {
            "xhat": mat[:, j : j + n],
            "err_norm": mat[:, j + n],
            "omega": mat[:, j + n + 1],
            "Delta": mat[:, j + n + 2],
        }
        j += width
    K = len(t)
    return Trajectory(
        t=t,
        signals=signals,
        u=u,
        ytilde=ytilde,
        W=W,
        saturated=np.zeros(K, dtype=bool),
        ref=np.full(K, np.nan),
        epoch=np.zeros(K, dtype=int),
        observers=observers,
    )


# -- runtime helpers ---------------------------------------------------------


class _Layout:
    def __init__(self):
        self.size = 0

    def add(self, count: int) -> slice:
        sl = slice(self.size, self.size + count)
        self.size += count
        return sl


def _stack(rows, sl, n: int) -> np.ndarray:
    """The n x n matrix stored at `sl` of every sampled row, as a view."""
    return rows[:, sl].reshape(-1, n, n)


def _matvec(M, v):
    """M_k v_k for a (K, n) stack v, M one matrix or a (K, n, n) stack.
    Stacked matmul runs the per-row kernel of `M @ v_k`, so each row is
    bit-identical to its own product."""
    return (M @ v[:, :, None])[:, :, 0]


class _PlantCache:
    """Drift and source of the single-duty model, assembled once per model
    and evaluated per stage on the scalar duty ratio u as
    Lambda(u) = L0 + u L1 and the fixed source b0."""

    def __init__(self, model: PHModel):
        self.rebuild(model)

    def rebuild(self, model: PHModel):
        (J0, J1), (G0, G1) = model.J, model.G  # build_cuk: one duty ratio
        # the two structural facts the stage relies on: the source does not
        # switch, and the one sensor reads the last coenergy variable
        assert not G1.any(), "the source must not depend on the duty ratio"
        L0 = (J0 - model.R) @ model.Q
        L1 = J1 @ model.Q
        b0 = G0 @ model.E
        # row i of the plant stage as the floats (L0_i1..L0_i4, L1_i1..L1_i4, b0_i)
        self.rows = [(*l0, *l1, b) for l0, l1, b in zip(L0.tolist(), L1.tolist(), b0.tolist())]
        # coenergy realization for the observers: A_obs = Q Lambda Q^-1
        self.qd = np.diag(model.Q).copy()
        self.A0_obs = model.Q @ (J0 - model.R)
        self.A1_obs = model.Q @ J1
        self.b0_obs = model.Q @ b0
        C_obs = model.C / self.qd[None, :]
        assert np.array_equal(C_obs, [[0.0, 0.0, 0.0, 1.0]]), "the sensor must be the load voltmeter"
        # y_m = C x is the single product c_y x4 (C_obs z = z4)
        self.c_y = model.C.item(3)

    def drift(self, x, u: float) -> list:
        """dx_i = sum_j (L0_ij + u L1_ij) x_j + b0_i on Python floats, the
        sum taken left to right and b0_i added last; x is read from its
        first four entries."""
        x1, x2, x3, x4 = x[:4]
        return [
            (a1 + u * c1) * x1 + (a2 + u * c2) * x2 + (a3 + u * c3) * x3 + (a4 + u * c4) * x4 + b
            for a1, a2, a3, a4, c1, c2, c3, c4, b in self.rows
        ]


def _stage_law(ctl: ControllerSpec, pi, model: PHModel, v_ref: float):
    """The control law of one epoch on Python floats: maps the fed-back
    state x (read from its first four entries) and the integrator value xc
    to (u_raw, dx_c), the duty ratio before the clamp and the integrator
    derivative.  Each operation is the one `control.pi_pbc_step` or
    `control.classical_pi_step` performs (ytilde summed left to right as in
    `control.shifted_output`, a 1 x 1 matmul as the float product), so the
    results are theirs bit for bit; the gains and the operating point are
    read once per epoch."""
    if pi is None:  # classical PI on the output-voltage error
        kp, ki, q4 = ctl.kp, ctl.ki, float(model.Q[-1, -1])

        def law(x, xc):
            err = v_ref - q4 * x[3]
            return -kp * err - ki * xc, err

        return law
    (c1, c2, c3, c4), (s1, s2, s3, s4) = pi.Cmat[0].tolist(), pi.x_star.tolist()
    neg_kp, ki = -pi.Kp.item(), pi.Ki.item()

    def law(x, xc):
        ytilde = c1 * (x[0] - s1) + c2 * (x[1] - s2) + c3 * (x[2] - s3) + c4 * (x[3] - s4)
        return neg_kp * ytilde - ki * xc, ytilde

    return law


class _Part:
    """What the loop asks of each estimator-side part; every hook defaults
    to nothing.  The estimator rows y of the Runge-Kutta vector (the plant
    rows are held apart as floats): `init_vector` and `derivative`.  Slots
    of the exactly stepped vector s: `init_state`, `pre_step` (data frozen
    at the start of a step) and `post_step` (the exact step).  An estimator
    also gives `estimate(y, s)`, its estimate at a stage when it closes the
    loop, and `record(ys, ss)`, its logged arrays derived from the rows of y
    and s sampled by the loop.  The observer frame reaches `derivative` as
    the drift A = A_obs(u) and the source b = b_obs; the measurement reaches
    both hooks as the float y_m, read by C_obs = [0, 0, 0, 1], so C z is
    z[3] (see `_PlantCache`)."""

    feeds = False  # set on the estimator that closes the loop
    name = ""  # an estimator's distinct name in the run, set by run_scenario

    def init_vector(self, y):
        pass

    def derivative(self, dy, y, A, b, y_m):
        pass

    def init_state(self, s):
        pass

    def pre_step(self, y, s, y_m):
        pass

    def post_step(self, s, h):
        pass


class _RegressionFilter:
    """One (Y, Omega) regression filter pair with pole lam."""

    def __init__(self, lam: float, n: int, lay: _Layout):
        self.lam = lam
        self.sl_y = lay.add(n)
        self.sl_om = lay.add(n * n)
        self.mixed = False  # a GPEBO-kind estimator reads the DREM mix
        self.frozen = None  # the mix {scriptY, Delta} at the start of the current step

    def derivative(self, dy, y, drive_y, drive_om):
        """Write dY = lam (drive_y - Y) and dOmega = lam (drive_om - Omega),
        the drives (C Phi)' (y_m - C xi) and (C Phi)' C Phi being shared by
        every pole."""
        lam = self.lam
        dy[self.sl_y] = lam * (drive_y - y[self.sl_y])
        dy[self.sl_om] = lam * (drive_om - y[self.sl_om])


class _SharedStates(_Part):
    """Estimator states that depend on neither the gain nor the kind: the
    open-loop copy xi (with Phi when an estimator reads it), driven by u
    alone, and one regression filter per distinct pole, driven by u, y_m
    and lam.  Each is integrated once, however many estimators read it."""

    def __init__(self, n: int, lay: _Layout):
        self.n = n
        self.lay = lay
        self.sl_xi = None
        self.sl_phi = None
        self.filters = {}  # lam -> _RegressionFilter

    def copy(self, phi: bool):
        """Reserve the open-loop copy, with Phi if `phi`."""
        if self.sl_xi is None:
            self.sl_xi = self.lay.add(self.n)
        if phi and self.sl_phi is None:
            self.sl_phi = self.lay.add(self.n * self.n)

    def filter(self, lam: float, mixed: bool) -> _RegressionFilter:
        """The filter of pole lam (with the copy it reads), reserved on
        first use; `mixed` marks it for the per-step DREM mix."""
        self.copy(phi=True)
        filt = self.filters.get(lam)
        if filt is None:
            filt = self.filters[lam] = _RegressionFilter(lam, self.n, self.lay)
        filt.mixed = filt.mixed or mixed
        return filt

    def init_vector(self, y):
        # xi, Y and Omega start at zero like the rest of the vector
        if self.sl_phi is not None:
            y[self.sl_phi] = np.eye(self.n).ravel()

    def xi(self, y):
        return y[self.sl_xi]

    def Phi(self, y):
        return y[self.sl_phi].reshape(self.n, self.n)

    def derivative(self, dy, y, A, b, y_m):
        # the rows of `observers.gpebo_matrix_derivatives` at C = [0, 0, 0, 1]:
        # C Phi is the row Phi[3] and C xi the entry xi[3], and the two
        # filter drives are formed once for every pole
        xi = y[self.sl_xi]
        dy[self.sl_xi] = A @ xi + b
        if self.sl_phi is None:
            return
        Phi = self.Phi(y)
        dy[self.sl_phi] = (A @ Phi).ravel()
        if not self.filters:
            return
        c = Phi[3]
        drive_y = c * (y_m - xi.item(3))
        drive_om = (c[:, None] * c).ravel()  # np.outer(c, c), without its wrapper
        for filt in self.filters.values():
            filt.derivative(dy, y, drive_y, drive_om)

    def pre_step(self, y, s, y_m):
        # the DREM mix of every filter a GPEBO-kind estimator reads, frozen
        # at the start of the step
        for filt in self.filters.values():
            if filt.mixed:
                scriptY, Delta = drem_mix(y[filt.sl_om].reshape(self.n, self.n), y[filt.sl_y])
                filt.frozen = {"scriptY": scriptY, "Delta": Delta}

    def reconstruct(self, y, theta):
        """x_hat = xi + Phi theta at one stage."""
        return gpebo_estimate(self.xi(y), self.Phi(y), theta)

    def record(self, ys):
        """The sampled copy, as views shared by every estimator reading it."""
        return {"xi": ys[:, self.sl_xi], "Phi": _stack(ys, self.sl_phi, self.n)}


class _GpeboRuntime(_Part):
    """fct-gpebo and gpebo kinds: read the shared copy and the filter of
    their pole; own the scalar estimator (omega, theta_hat) in s."""

    def __init__(self, spec: ObserverSpec, bank: _SharedStates, slay: _Layout):
        self.spec = spec
        self.bank = bank
        self.fct = spec.kind == "fct-gpebo"
        self.filt = bank.filter(spec.lam, mixed=True)
        self.i_omega = slay.add(1).start
        self.sl_theta = slay.add(bank.n)
        self.theta_hat0 = np.zeros(bank.n)  # theta_hat starts at zero with s
        self.theta_feed = self.theta_hat0.copy()

    def init_state(self, s):
        s[self.i_omega] = 1.0

    def theta(self, omega, theta_hat):
        """The estimate of theta: the finite-time combination, or theta_hat."""
        if self.fct:
            return fct_combine(theta_hat, self.theta_hat0, omega, self.spec.mu)
        return theta_hat

    def pre_step(self, y, s, y_m):
        # refreshed after the sample, so a sampled u of observer feedback
        # reads the theta of one step earlier (ROADMAP item 5e)
        if self.feeds:
            self.theta_feed = self.theta(s[self.i_omega], s[self.sl_theta]).copy()

    def post_step(self, s, h):
        mix = self.filt.frozen
        s[self.i_omega], s[self.sl_theta] = scalar_update(
            s[self.i_omega], s[self.sl_theta], mix["scriptY"], mix["Delta"], self.spec.gamma, h
        )

    def estimate(self, y, s):
        return self.bank.reconstruct(y, self.theta_feed)

    def record(self, ys, ss):
        omega, theta_hat = ss[:, self.i_omega], ss[:, self.sl_theta]
        Omega = _stack(ys, self.filt.sl_om, self.bank.n)
        rec = {
            "omega": omega,
            "Delta": _adj_det(np.moveaxis(Omega, 0, -1))[1],
            **self.bank.record(ys),
            "Y": ys[:, self.filt.sl_y],
            "Omega": Omega,
            "theta_hat": theta_hat,
        }
        theta = self.theta(omega[:, None], theta_hat)
        if self.fct:
            rec["theta_fct"] = theta
        return rec["xi"] + _matvec(rec["Phi"], theta), rec


class _EmulatorRuntime(_Part):
    """The shared open-loop copy itself, read as the estimate."""

    def __init__(self, spec: ObserverSpec, bank: _SharedStates, slay: _Layout):
        self.spec = spec
        self.bank = bank
        bank.copy(phi=False)

    def estimate(self, y, s):
        return self.bank.xi(y)

    def record(self, ys, ss):
        xi = ys[:, self.bank.sl_xi]
        return xi, {"xi": xi}


class _KbfRuntime(_Part):
    """The Kalman-Bucy filter, in a block of rows of its own."""

    def __init__(self, spec: ObserverSpec, bank: _SharedStates, slay: _Layout):
        self.spec = spec
        self.n = n = bank.n
        self.sl_x = bank.lay.add(n)
        self.sl_H = bank.lay.add(n * n)
        self.S = _as_spd(spec.s, n, "S")
        self.H0 = _as_spd(spec.h0, n, "H0")

    def init_vector(self, y):
        y[self.sl_x] = 0.0
        y[self.sl_H] = self.H0.ravel()

    def derivative(self, dy, y, A, b, y_m):
        # the rows of `observers.kbf_derivatives` at C = [0, 0, 0, 1]: H C' is
        # the column H[:, 3] and H C' C H its outer product with the row
        # H[3].  H is exactly symmetric (H0 and S are, and every Runge-Kutta
        # update acts entry by entry), so H A' is (A H)' bit for bit and the
        # unsymmetrized sum is already the symmetrized one
        n = self.n
        H = y[self.sl_H].reshape(n, n)
        x_hat = y[self.sl_x]
        h_col = H[:, 3]
        dy[self.sl_x] = A @ x_hat + b + h_col * (y_m - x_hat.item(3))
        P = A @ H
        dy[self.sl_H] = (P.T + P - h_col[:, None] * H[3] + self.S).ravel()

    def estimate(self, y, s):
        return y[self.sl_x]

    def record(self, ys, ss):
        return ys[:, self.sl_x], {"H": _stack(ys, self.sl_H, self.n)}


class _GradientRuntime(_Part):
    """A gradient parameter estimator on the shared copy's raw regression
    or on the filter of its pole (extended), stepped by the exact
    exponential with frozen data; its theta lives in s."""

    def __init__(self, spec: ObserverSpec, bank: _SharedStates, slay: _Layout):
        self.spec = spec
        self.bank = bank
        self.extended = spec.mode == "extended"
        if self.extended:
            self.filt = bank.filter(spec.lam, mixed=False)
        else:
            bank.copy(phi=True)
        self.sl_theta = slay.add(bank.n)
        self.frozen = None

    def pre_step(self, y, s, y_m):
        if self.extended:
            filt, n = self.filt, self.bank.n
            self.frozen = {"Omega": y[filt.sl_om].reshape(n, n).copy(), "Y": y[filt.sl_y].copy()}
        else:
            # C Phi and y_m - C xi at C = [0, 0, 0, 1]
            self.frozen = {
                "CPhi": self.bank.Phi(y)[3:4].copy(),
                "y_shift": y_m - self.bank.xi(y).item(3),
            }

    def post_step(self, s, h):
        s[self.sl_theta] = gradient_update(
            s[self.sl_theta], self.spec.gamma, self.spec.mode, h, **self.frozen
        )

    def estimate(self, y, s):
        return self.bank.reconstruct(y, s[self.sl_theta])

    def record(self, ys, ss):
        rec = {**self.bank.record(ys), "theta_hat": ss[:, self.sl_theta]}
        return rec["xi"] + _matvec(rec["Phi"], rec["theta_hat"]), rec


def _as_spd(value, n: int, what: str) -> np.ndarray:
    M = np.asarray(value, dtype=float)
    if M.ndim == 0:
        M = float(M) * np.eye(n)
    if M.shape != (n, n):
        raise ScenarioError(f"{what} must be a scalar or {n}x{n} matrix")
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise ScenarioError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise ScenarioError(f"{what} must be positive definite")
    # exactly symmetric, so the Riccati state H stays so; a scalar or an
    # exactly symmetric matrix comes back unchanged
    return 0.5 * (M + M.T)


_RUNTIME_BY_KIND = {
    **dict.fromkeys(GPEBO_KINDS, _GpeboRuntime),
    "emulator": _EmulatorRuntime,
    "kbf": _KbfRuntime,
    "gradient": _GradientRuntime,
}


def _hooked(parts, hook: str):
    """The parts that override `hook`, so the loop calls no no-op hook."""
    return [part for part in parts if getattr(type(part), hook) is not getattr(_Part, hook)]


def _unique_names(specs) -> list:
    """A distinct name per estimator, without writing to the specs: its
    configured name, else its kind; a repeat gets the first suffix -2, -3,
    ... that no configured or already assigned name uses."""
    configured = {spec.name for spec in specs if spec.name}
    assigned = []
    for spec in specs:
        base = name = spec.name or spec.kind
        k = 1
        while name in assigned or (name != spec.name and name in configured):
            k += 1
            name = f"{base}-{k}"
        assigned.append(name)
    return assigned


def _closes_loop(ctl: ControllerSpec) -> bool:
    """Whether the first estimator closes the loop: the PI-PBC on observer
    feedback (the classical PI reads the plant output)."""
    return ctl.type != "classical-pi" and ctl.feedback == "observer"


# -- shared closed-loop passes ------------------------------------------------


class _Store:
    """The plant side of a run's samples: at each sample instant the plant
    rows and integrator p, the estimator rows y, the clamped duty ratio, the
    passive output, the clamp flag, the reference and the epoch; with the
    PI-PBC state of every epoch (None for the classical PI) and the
    coenergy weights Q, which no event changes."""

    def __init__(self, K: int, n_p: int, n_y: int, m: int, Q):
        self.ps, self.ys = np.empty((K, n_p)), np.empty((K, n_y))
        self.us, self.yts = np.empty((K, m)), np.empty((K, m))
        self.sats = np.empty(K, dtype=bool)
        self.refs = np.empty(K)
        self.epochs = np.empty(K, dtype=int)
        self.pis = []
        self.Q = Q

    def arrays(self):
        return self.ps, self.ys, self.us, self.yts, self.sats, self.refs, self.epochs


class _Tape:
    """What one source hands the exact steps, kept at every step of a pass
    in float arrays allocated at the first step: a mixed filter's
    {scriptY, Delta}, a raw gradient's {CPhi, y_shift} or an extended
    gradient's {Omega, Y}."""

    def __init__(self, steps: int):
        self.steps = steps
        self.cols = None

    def keep(self, k: int, frozen: dict):
        if self.cols is None:
            self.cols = {key: np.empty((self.steps, *np.shape(v))) for key, v in frozen.items()}
        for key, v in frozen.items():
            self.cols[key][k] = v

    def row(self, k: int) -> dict:
        return {key: col[k] for key, col in self.cols.items()}


class SharedPass:
    """One closed-loop pass, shared by the runs of one key.

    The key is the scenario with the name, gamma and mu of every GPEBO-kind
    and gradient estimator that does not close the loop left out; nothing
    else is, and it holds floats by value and arrays by shape and bytes.
    `run_scenario(scn, shared=p)` replays the pass p keeps when scn has its
    key, and otherwise runs in full and, once the run completes, leaves its
    own pass in p: the plant-side sample store, the PI-PBC state of every
    epoch and, per step, the frozen inputs of every exact step.  Every run
    of a pass shares the kept arrays, so they are read-only, and so are the
    trajectory arrays that are views of them."""

    def __init__(self):
        self.key = None  # the key of the kept pass, None while none is kept
        self.store = None  # its _Store
        self.tapes = None  # its _Tape per source of frozen inputs

    def keep(self, key, store: _Store, tapes):
        for arr in [*store.arrays(), *(col for tape in tapes for col in tape.cols.values())]:
            arr.flags.writeable = False
        self.key, self.store, self.tapes = key, store, tapes


def _lossless(value):
    """A comparable form of a scenario value that tells apart any two
    values a run could: floats by their exact value, arrays by dtype, shape
    and bytes, dataclasses and sequences entry by entry."""
    if is_dataclass(value):
        return (type(value).__name__, *(_lossless(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (list, tuple)):
        return ("seq", *map(_lossless, value))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _pass_key(scn: Scenario) -> tuple:
    """The key of the closed-loop pass of scn (see `SharedPass`)."""
    feeding = _closes_loop(scn.controller)
    specs = [
        spec if (i == 0 and feeding) or spec.kind not in _EXACT_KINDS
        else replace(spec, name=None, gamma=None, mu=None)
        for i, spec in enumerate(scn.observers)
    ]
    return _lossless(replace(scn, observers=specs))


def _params_at(scn: Scenario, events_at: dict, k: int) -> CukParams:
    """The circuit values in force once the events up to step k have acted."""
    params = replace(scn.params)
    for j, evs in events_at.items():
        for ev in evs:
            if j <= k and ev.kind == "load":
                params.r = ev.value
    return params


# -- the run ------------------------------------------------------------------


def validate_scenario(scn: Scenario) -> int:
    """Check every value rule of a scenario and return its step count.

    This is the single place the rules live: the configuration layer runs
    it on each document it loads, and `run_scenario` on each run."""
    try:
        cukmod.check_params(scn.params)
    except cukmod.CukError as exc:
        raise ScenarioError(f"model: {exc}") from exc
    for key in ("h", "horizon"):
        value = getattr(scn, key)
        if not 0.0 < value < math.inf:
            raise ScenarioError(f"{key} must be positive and finite, got {value}")
    N = round(scn.horizon / scn.h)
    if N < 1 or abs(N * scn.h - scn.horizon) > 1e-9 * scn.horizon:
        raise ScenarioError("horizon must be an integer multiple of the step")
    if isinstance(scn.stride, bool) or not isinstance(scn.stride, numbers.Integral) or scn.stride < 1:
        raise ScenarioError(f"stride must be a positive integer, got {scn.stride!r}")
    if not all(map(math.isfinite, scn.x0)):
        raise ScenarioError(f"x0 must be finite, got {list(scn.x0)}")
    ctl = scn.controller
    for key in ("x4_star", "xc0"):
        value = getattr(ctl, key)
        if not math.isfinite(value):
            raise ScenarioError(f"{key} must be finite, got {value}")
    if ctl.type not in ("pi-pbc", "classical-pi"):
        raise ScenarioError(f"unknown controller type {ctl.type!r}")
    if ctl.feedback not in ("state", "observer"):
        raise ScenarioError(f"unknown feedback source {ctl.feedback!r}")
    if ctl.root_policy not in ROOT_POLICIES:
        raise ScenarioError(f"unknown root_policy {ctl.root_policy!r}")
    if not 0.0 <= ctl.u_min < ctl.u_max <= 1.0:
        raise ScenarioError("require 0 <= u_min < u_max <= 1")
    if ctl.type == "pi-pbc":
        # the storage decay dW/dt = -x~'QRQx~ - y~'Kp y~ needs Kp >= 0, Ki > 0
        if not ctl.kp >= 0.0:
            raise ScenarioError(f"pi-pbc needs kp >= 0, got {ctl.kp}")
        if not ctl.ki > 0.0:
            raise ScenarioError(f"pi-pbc needs ki > 0, got {ctl.ki}")
    if ctl.feedback == "observer" and not scn.observers:
        raise ScenarioError("observer feedback requested but no observers configured")
    n = len(SIGNALS)
    for spec in scn.observers:
        if spec.kind not in OBSERVER_KINDS:
            raise ScenarioError(f"unknown observer kind {spec.kind!r}")
        if spec.mode not in ("raw", "extended"):
            raise ScenarioError(f"gradient mode {spec.mode!r} unknown")
        where = f"observer {spec.name or spec.kind!r}"
        gpebo = spec.kind in GPEBO_KINDS
        gradient = spec.kind == "gradient"
        if gpebo and not 0.0 < spec.mu < 1.0:
            raise ScenarioError(f"{where}: mu must lie in (0, 1), got {spec.mu}")
        if (gpebo or gradient) and not 0.0 < spec.gamma < math.inf:
            raise ScenarioError(f"{where}: gamma must be positive and finite, got {spec.gamma}")
        reads_filter = gpebo or (gradient and spec.mode == "extended")
        if reads_filter and not spec.lam > 0.0:
            raise ScenarioError(f"{where}: lambda must be positive, got {spec.lam}")
        if spec.kind == "kbf":
            _as_spd(spec.s, n, f"{where}: s")
            _as_spd(spec.h0, n, f"{where}: h0")
    for ev in scn.events:
        if ev.kind not in ("reference", "load"):
            raise ScenarioError(f"unknown event kind {ev.kind!r}")
        if not 0.0 <= ev.time <= scn.horizon:
            raise ScenarioError(f"event at t={ev.time:g} s outside the horizon")
        # an event acts at a step instant; one off the grid would silently
        # move, so it must lie on it to the tolerance of the horizon rule
        if abs(round(ev.time / scn.h) * scn.h - ev.time) > 1e-9 * scn.horizon:
            raise ScenarioError(f"event at t={ev.time!r} s is not a multiple of the step {scn.h!r} s")
        if ev.kind == "reference" and not ev.value < 0.0:
            raise ScenarioError("reference events must request a negative voltage")
        if ev.kind == "load" and not 0.0 < ev.value < math.inf:
            raise ScenarioError("load events must request a positive finite resistance")
    return N


def _epoch(ctl: ControllerSpec, params, model: PHModel, v_ref: float, t: float):
    """The PI-PBC state (None for the classical PI) and the stage law of
    the epoch that starts at time t with reference v_ref."""
    pi = None
    if ctl.type != "classical-pi":
        try:
            pair, _ = solve_equilibrium(params, v_ref, root_policy=ctl.root_policy)
        except cukmod.CukError as exc:
            raise InfeasibleEquilibrium(t, exc) from exc
        pi = make_pi_pbc(
            model, ctl.kp, ctl.ki, pair.x_star, pair.u_star, u_min=ctl.u_min, u_max=ctl.u_max
        )
    return pi, _stage_law(ctl, pi, model, v_ref)


def _assemble(scn: Scenario, store: _Store, runtimes, steps, ss, taken: int, params) -> Trajectory:
    """The trajectory of the first `taken` samples: the plant side read from
    the store and the exactly stepped states from ss, each estimator's
    logged arrays derived from them with stacked numpy; params are the
    circuit values in force at the last step taken."""
    ctl = scn.controller
    n = len(SIGNALS)
    prows, rows, srows, ep = store.ps[:taken], store.ys[:taken], ss[:taken], store.epochs[:taken]
    xs = prows[:, :n]
    signals = _matvec(store.Q, xs)  # physical; events change r, never Q
    W = np.full(taken, np.nan)
    if ctl.type != "classical-pi":
        for e, pe in enumerate(store.pis):
            at = ep == e
            W[at] = _storage(store.Q, pe.Ki, xs[at], prows[at, n:], pe.x_star, pe.x_c_star)
    observers = {}
    for rt in runtimes:
        xhat, rec = rt.record(rows, srows)
        d = xhat - signals
        # a GPEBO kind's omega and Delta in rec keep the place set here
        observers[rt.name] = {
            "xhat": xhat,
            # sqrt(d . d) per row: the kernel of np.linalg.norm, bit for bit
            "err_norm": np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]),
            "omega": np.full(taken, np.nan),
            "Delta": np.full(taken, np.nan),
            **rec,
        }
    meta = {
        "label": scn.label,
        "h": scn.h,
        "stride": scn.stride,
        "horizon": scn.horizon,
        "controller": ctl.type,
        "feedback": ctl.feedback,
        "x4_star": ctl.x4_star,
        "mu": {rt.name: rt.spec.mu for rt in runtimes},
        "gamma": {rt.name: rt.spec.gamma for rt in runtimes},
        "lam": {rt.name: rt.spec.lam for rt in runtimes},
        "params": vars(replace(params)),
    }
    return Trajectory(
        t=np.array(steps[:taken]) * scn.h,
        signals=signals,
        u=store.us[:taken],
        ytilde=store.yts[:taken],
        W=W,
        saturated=store.sats[:taken],
        ref=store.refs[:taken],
        epoch=ep,
        observers=observers,
        meta=meta,
    )


def run_scenario(scn: Scenario, shared: SharedPass | None = None) -> Trajectory:
    """Run a scenario and return its sampled trajectory.

    Given `shared`, a run of the key of the pass it keeps replays that pass:
    it runs no Runge-Kutta stage and no event, steps the exact steps from
    the kept inputs and assembles from the kept store.  Any other run is a
    full one, which leaves its pass in `shared` once it completes (see
    `SharedPass`).  Without `shared` nothing is kept."""
    N = validate_scenario(scn)
    h, stride = scn.h, scn.stride
    ctl = scn.controller
    n = len(SIGNALS)

    lay, slay = _Layout(), _Layout()  # estimator rows y; slots of the stepped vector s
    bank = _SharedStates(n, lay)
    runtimes = [_RUNTIME_BY_KIND[spec.kind](spec, bank, slay) for spec in scn.observers]
    for rt, name in zip(runtimes, _unique_names(scn.observers)):
        rt.name = name
    fb_rt = runtimes[0] if _closes_loop(ctl) else None
    if fb_rt is not None:
        fb_rt.feeds = True
    parts = ([bank] if bank.sl_xi is not None else []) + runtimes
    # the parts whose per-stage and per-step hooks do something
    derivs, pres, posts = (_hooked(parts, hook) for hook in ("derivative", "pre_step", "post_step"))
    # the parts whose frozen inputs the exact steps read
    sources = [f for f in bank.filters.values() if f.mixed] + [
        rt for rt in runtimes if isinstance(rt, _GradientRuntime)
    ]

    y = np.zeros(lay.size)
    s = np.zeros(slay.size)
    for part in parts:
        part.init_vector(y)
        part.init_state(s)

    # event table: each event at its grid instant (validate_scenario
    # rejects times off the grid)
    events_at = {}
    for ev in sorted(scn.events, key=lambda e: e.time):
        events_at.setdefault(int(round(ev.time / h)), []).append(ev)

    # the sample instants; s is sampled there in ss, the rest in the store
    steps = list(range(0, N + 1, stride))
    if steps[-1] != N:
        steps.append(N)
    K = len(steps)
    ss = np.empty((K, slay.size))
    taken = 0

    key = None if shared is None else _pass_key(scn)
    replay = key is not None and key == shared.key
    if replay:
        store, tapes = shared.store, shared.tapes
    else:
        params = replace(scn.params)
        model = build_cuk(params)
        cache = _PlantCache(model)
        # scenario initial state is physical (i1, v2, i3, v4); stored
        # variables are fluxes and charges, x = Q^-1 (physical)
        x0 = np.linalg.solve(model.Q, np.asarray(scn.x0, dtype=float))
        # the plant rows and the integrator: p = [x1, .., xn, xc] as Python floats
        p = x0.tolist() + [float(ctl.xc0)]
        store = _Store(K, len(p), lay.size, model.m, model.Q)
        tapes = None if shared is None else [_Tape(N) for _ in sources]
        u_lo, u_hi = ctl.u_min, ctl.u_max
        ref_now = ctl.x4_star
        pi, law = _epoch(ctl, params, model, ref_now, 0.0)
        store.pis.append(pi)  # the PI-PBC of each epoch, for W after the loop
        epoch = 0

        def control(p, y):
            """(u_raw, integrator derivative) at a stage state, as floats."""
            if fb_rt is None:
                return law(p, p[n])
            # volts/amps -> stored
            return law((fb_rt.estimate(y, s) / cache.qd).tolist(), p[n])

        def stage(p, y):
            """(dp, dy): the derivatives of the plant rows and integrator, and
            of the estimator rows (None without an estimator)."""
            u_raw, dxc = control(p, y)
            u = min(max(u_raw, u_lo), u_hi)
            dp = cache.drift(p, u)
            dp.append(dxc)
            if not derivs:  # no estimator reads the observer frame
                return dp, None
            dy = np.zeros(lay.size)
            y_m = cache.c_y * p[3]
            A_obs = cache.A0_obs + u * cache.A1_obs
            for part in derivs:
                part.derivative(dy, y, A_obs, cache.b0_obs, y_m)
            return dp, dy

    ps, ys, us, yts, sats, refs, epochs = store.arrays()
    k = 0
    try:
        # an overflow or invalid value shows as a non-finite state, which
        # the step checks raise; numpy's warnings are silenced once here
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(N + 1):
                t = k * h
                if k in events_at and not replay:
                    for ev in events_at[k]:
                        epoch += 1
                        if ev.kind == "load":
                            params.r = ev.value
                            model = build_cuk(params)
                            cache.rebuild(model)
                        else:
                            ref_now = ev.value
                        pi, law = _epoch(ctl, params, model, ref_now, t)
                        store.pis.append(pi)
                if k == steps[taken]:
                    if not replay:
                        u_raw, yts[taken] = control(p, y)
                        us[taken] = u = min(max(u_raw, u_lo), u_hi)
                        sats[taken] = u != u_raw  # the clamp flag, formed only here
                        ps[taken], ys[taken] = p, y
                        refs[taken], epochs[taken] = ref_now, epoch
                    ss[taken] = s
                    taken += 1
                if k == N:
                    break
                if replay:
                    for tape, source in zip(tapes, sources):
                        source.frozen = tape.row(k)
                else:
                    if pres:
                        y_m0 = cache.c_y * p[3]
                        for part in pres:
                            part.pre_step(y, s, y_m0)
                    if tapes:
                        for tape, source in zip(tapes, sources):
                            tape.keep(k, source.frozen)
                    p, y = _rk4_split_step(stage, t, p, y, h)
                for part in posts:
                    part.post_step(s, h)
                if s.size and not np.isfinite(s).all():
                    raise NonFiniteState(f"non-finite estimator state after the step to t={t + h:g} s")
    except NonFiniteState as exc:
        # expose whatever was sampled before the blow-up
        if replay:
            params = _params_at(scn, events_at, k)
        exc.partial = _assemble(scn, store, runtimes, steps, ss, taken, params)
        raise

    if replay:
        params = _params_at(scn, events_at, N)
    elif shared is not None:
        shared.keep(key, store, tapes)
    return _assemble(scn, store, runtimes, steps, ss, taken, params)


# -- metrics ------------------------------------------------------------------


def _check_band_frac(band_frac: float):
    """The settling band is a fraction of |ref| in (0, 1); NaN, which no
    band comparison would ever count as outside, is not one."""
    if not 0.0 < band_frac < 1.0:
        raise ValueError(f"band_frac must lie in (0, 1), got {band_frac}")


def compute_metrics(traj: Trajectory, band_frac: float = 0.01, checkpoints=()) -> dict:
    """Flat key-value summary of a run: regulation, control effort, storage
    monotonicity, and per-observer convergence figures."""
    _check_band_frac(band_frac)
    out = {}
    t = traj.t
    v_out = traj.signals[:, -1]
    band = band_frac * np.abs(traj.ref)
    outside = np.abs(v_out - traj.ref) > band
    if outside[-1]:
        out["settle_time"] = math.nan
    elif not outside.any():
        out["settle_time"] = float(t[0])
    else:
        out["settle_time"] = float(t[int(np.flatnonzero(outside)[-1]) + 1])
    out["final_v_out"] = float(v_out[-1])
    out["final_ref"] = float(traj.ref[-1])
    out["u_min_seen"] = float(traj.u.min())
    out["u_max_seen"] = float(traj.u.max())
    out["saturated_samples"] = int(traj.saturated.sum())
    # storage monotonicity on unsaturated single-epoch intervals: the
    # sample pairs (k, k + 1) with both W finite, neither sample clamped and
    # one epoch
    W = traj.W
    free = np.isfinite(W) & ~traj.saturated
    k = np.flatnonzero(free[:-1] & free[1:] & (traj.epoch[:-1] == traj.epoch[1:]))
    out["w_increase_count"] = int((W[k + 1] > W[k] + 1e-8 * np.abs(W[k]) + 1e-15).sum())
    out["samples"] = len(t)
    xnorm = np.linalg.norm(traj.signals, axis=1)
    for name, rec in traj.observers.items():
        err = rec["err_norm"]
        out[f"err_final_{name}"] = float(err[-1])
        out[f"rel_err_final_{name}"] = float(err[-1] / max(xnorm[-1], 1e-300))
        for tc in checkpoints:
            idx = int(np.argmin(np.abs(t - tc)))
            out[f"err_at_{tc:g}_{name}"] = float(err[idx])
        omega = rec.get("omega")
        if omega is not None and np.isfinite(omega).all():
            mu = traj.meta.get("mu", {}).get(name, ObserverSpec.mu)
            crossed = np.flatnonzero(omega <= 1.0 - mu)
            out[f"tc_{name}"] = float(t[crossed[0]]) if crossed.size else math.nan
    return out
