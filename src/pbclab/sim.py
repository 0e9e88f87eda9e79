"""Fixed-step closed-loop simulation of converter, controller and observers.

One Runge-Kutta vector holds the plant state, the controller integrator
and the observers' matrix states; a classical 4-stage Runge-Kutta step
advances the whole block on a shared clock.  The duty ratio is
re-evaluated from the stage states inside every stage.  The closed loop
is fourth order only where it is smooth: a clamp entry or exit is a kink
the fixed grid does not locate, and across one the plant drops to about
second order or less; events are applied at grid instants.

The vector is one list of Python floats: the plant rows and the
integrator (x1..x4, x_c), then the estimator rows y, if any.  Its stage,
one closure per epoch (`_plant_stage`) with the law and the drift
constants bound, evaluates in a fixed left-to-right order the passive
output ytilde = sum_j Cmat[0, j] (x_j - x*_j), the raw duty ratio and its
clamp, and the drift dx_i = sum_j (L0_ij + u L1_ij) x_j + b0_i; the
control law performs the IEEE operations of `control.pi_pbc_step` (whose
`shifted_output` sums in the same order) and `control.classical_pi_step`,
which remain the reference.  The step (`_rk4_split_step`) uses
`rk4_step`'s stage weights and association, so its result equals
`rk4_step` on the vector bit for bit.  numpy enters only between steps,
in a gradient feed's exact step, the riders' flushes and the sample
store.
The matrix states that depend on neither the gain nor the kind are held
once per run and read by every estimator: the open-loop copy (xi, plus
Phi when an estimator reads it), driven by u alone, and one regression
filter pair (Y, Omega) per distinct pole lambda, driven by u, y and
lambda.  Each Kalman-Bucy filter keeps a block of its own.  The sharing
is exact: Runge-Kutta acts entry by entry, and per-estimator copies would
come from the same expressions on the same inputs, so each estimator's
output is bit-identical to a run in which it is alone.

The estimator stage rests on two structural facts of `cuk.build_cuk`,
checked whenever the model is assembled (`_PlantCache.rebuild`).  The
source does not switch (G1 = 0), so b(u) = b0 for every duty ratio.  The
one sensor is the load voltmeter, so in the coenergy realization the
output map is exactly C_obs = [0, 0, 0, 1] and the measurement is the
single product y_m = C[0, 3] x4.  The copy, filter and Kalman-Bucy rows
are therefore evaluated with C Phi = Phi[3], C xi = xi[3] and
H C' = H[:, 3], the filter drives formed once per stage for every pole,
and the Riccati derivative as (P' + P) - H[:, 3] H[3] + S with P = A H.
Omega and H are read from their upper triangle and each mirrored entry
is written as the same float, so both stay exactly symmetric and need no
symmetrization.  The rows are straight-line float code: each entry one
expression summed left to right, in the association of
`observers.gpebo_matrix_derivatives` and `observers.kbf_derivatives`,
which remain the reference; they differ from its BLAS products only by
rounding.  The code is generated from the bank's layout once per process
(`_Bank.source`, and `_unrolled_step` for the step), since which blocks
exist and where they lie is the run's; straight-line code reads every
entry from a local name, at two thirds of the cost of code written over
the blocks' slices, and nothing is generated at import.

Two estimator recursions are deliberately kept out of the Runge-Kutta
block and advanced by their exact exponential solutions with per-step
frozen coefficients: the decoupled-regression scalar estimator
(gain up to 1e17) and the plain gradient estimators (gain 1e8).  Both are
orders of magnitude stiffer than the grid step allows for an explicit
scheme, and the exact step is unconditionally contractive.  Their states
are rows of stacks (`_ExactSteps`), one row per gain (`_step_key`), and a
step's frozen inputs are one tape row read from the vector at its start.
The feeding estimator's gain is a stack of its own, one row of floats
stepped in the loop after the Runge-Kutta step and checked for finiteness
like the vector; a GPEBO kind's step (`observers.drem_scalar_step`) and
fed-back theta are straight-line float code, bit for bit the reference
`drem_mix`, `scalar_update` and `fct_combine`.
Every other gain rides, one stack per kind and filter or regression,
stepped from a tape of at most `_CHUNK` steps with what does not depend
on the state batched over time (`_ExactSteps.flush`) when it is full,
before an event, at the end and when a step fails.  So the first failure
in step order wins as if every stack stepped in the loop (the plant first
within a step), with its message, the samples up to it and the circuit
values in force then.

The run's record (`_Store`) is one float matrix with one row per sample
instant, written once there: the Runge-Kutta vector as it stands, then
the duty ratio, passive output, clamp flag and epoch of that instant;
and one table entry per epoch, its PI-PBC state, reference and circuit
values.  The loop also samples the feed's exact-step row, and a riding
stack's flush its own rows.  The plant signals, the storage W and every
estimator's logged arrays are derived from the record after the loop
with stacked numpy; the estimators' internals are views of it, so
estimators that read the same copy, filter or row share them.

A sweep over what the plant cannot see shares one closed-loop pass
(`SharedPass`), under one rule: no estimator's name reaches the loop, nor
does the gamma or mu of any estimator but the feed (only an exactly
stepped one reads them, in a row of its own), nor the lambda of one that
reads no filter.  The pass runs once, as one ordinary scenario that
steps every gain of its runs, and each run assembles its trajectory from
what the pass keeps; the update functions act on each row element by
element, so an assembled run's arrays are those of a run of its own, bit
for bit.

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

import functools
import math
import numbers
import types
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .control import KI_MIN_DET, _storage, make_pi_pbc
from .cuk import ROOT_POLICIES, CukError, CukParams, InfeasibleEquilibrium, build_cuk, check_params, solve_equilibrium
from .observers import (
    _adj_det,
    drem_mix,
    drem_scalar_step,
    fct_combine,
    gradient_update,
    raw_steps,
    scalar_steps,
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
_EXACT_KINDS = GPEBO_KINDS + ("gradient",)  # the kinds stepped exactly (`_ExactSteps`)
# physical plant signals (A, V, A, V) and their estimates, in CSV column order
SIGNALS = ("i1", "v2", "i3", "v4")
ESTIMATES = ("ihat1", "vhat2", "ihat3", "vhat4")
_BASE_COLUMNS = ["t", *SIGNALS, "u", "ytilde", "W"]  # then one block per observer:
_BLOCK = [*ESTIMATES, "err_norm", "omega", "Delta"]  # its columns, each after "<name>_"
MAX_STEPS = 10**8  # the most grid steps one run may take (horizon / h)
MAX_STORE_BYTES = 2**30  # the most bytes one run's samples may take (`_Store` and the exact steps)
_CHUNK = 256  # the most steps a riding stack's tape holds (`_ExactSteps.flush`)


class NonFiniteState(RuntimeError):
    """An integration step produced a non-finite entry."""


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


def _rk4_split_step(stage, t: float, p: list, h: float) -> list:
    """The engine's step: `rk4_step` on the Runge-Kutta vector p, a list of
    Python floats, the plant rows and integrator [x1, .., x4, xc] first and
    the estimator rows of the bank (`_Bank`) after them, if any.  stage(p),
    the epoch's `_plant_stage`, returns the derivative of p as a list.  The
    step is written out over the entries of p (`_unrolled_step`), each
    combined with rk4_step's stage weights and association, so the new
    state equals rk4_step's bit for bit.  Returns the new p."""
    p = _unrolled_step(len(p))(stage, p, h)
    if not all(map(math.isfinite, p)):
        raise NonFiniteState(f"non-finite state after step ending at t={t + h:g} s")
    return p


@functools.lru_cache(maxsize=None)
def _unrolled_step(width: int):
    """step(stage, p, h) written out over the `width` entries of p, the
    stage states y_i + c k_i (c = h/2, h/2, h) and the result y_i + (h/6)
    (((k1_i + 2 k2_i) + 2 k3_i) + k4_i); generated since the width is the
    run's.  At 65 entries it takes two thirds of the time of comprehensions
    over zip."""
    R = range(width)
    names = lambda k: "".join(f"{k}{i}, " for i in R)
    state = lambda c, k: "stage([" + ", ".join(f"y{i} + {c} * {k}{i}" for i in R) + "])"
    result = ", ".join(f"y{i} + h6 * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})" for i in R)
    return _compiled("\n".join([
        "def step(stage, p, h):",
        "    hh, h6 = 0.5 * h, h / 6.0",
        f"    {names('y')}= p",
        f"    {names('a')}= stage(p)",
        f"    {names('b')}= {state('hh', 'a')}",
        f"    {names('c')}= {state('hh', 'b')}",
        f"    {names('d')}= {state('h', 'c')}",
        f"    return [{result}]",
    ]), "step")


@functools.lru_cache(maxsize=64)
def _compiled(source: str, name: str):
    """The function `name` that `source` defines, compiled once per source
    in a process, without a line table (it has no source file): the lookup
    tracemalloc makes at every traced allocation scans that table, which
    made a traced run 17 times slower."""

    def lineless(code):
        consts = tuple(lineless(c) if isinstance(c, types.CodeType) else c for c in code.co_consts)
        return code.replace(co_linetable=b"", co_consts=consts)

    scope = {}
    exec(lineless(compile(source, f"<pbclab.sim {name}>", "exec")), scope)
    return scope[name]


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
            cols += [f"{name}_{c}" for c in _BLOCK]
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
            rows = bool(fh.readline().strip())
        mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if rows else np.empty((0, len(header)))
        return _trajectory_from_table(header, mat)


def _trajectory_from_table(header, mat) -> Trajectory:
    """The trajectory a table holds: the base columns, then one whole block
    <name>_ihat1 ... <name>_Delta per observer, and at least one row."""
    n = len(SIGNALS)
    if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
        raise ValueError(f"trajectory table must start with the columns {_BASE_COLUMNS}")
    if mat.shape[1] != len(header):
        raise ValueError(f"trajectory table has {len(header)} columns in its header but {mat.shape[1]} in its rows")
    if not len(mat):
        raise ValueError("trajectory table has no rows")
    t = mat[:, 0]
    signals = mat[:, 1 : 1 + n]
    u = mat[:, n + 1 : n + 2]
    ytilde = mat[:, n + 2 : n + 3]
    W = mat[:, n + 3]
    observers = {}
    for j in range(len(_BASE_COLUMNS), len(header), len(_BLOCK)):
        name = header[j].removesuffix("_" + ESTIMATES[0])
        if name in observers:
            raise ValueError(f"trajectory table column {j} repeats {header[j]!r}")
        for c, col in enumerate(_BLOCK):
            got = header[j + c] if j + c < len(header) else None
            if got != f"{name}_{col}":
                found = "missing" if got is None else repr(got)
                raise ValueError(f"trajectory table column {j + c} must be {name}_{col}, not {found}")
        observers[name] = {
            "xhat": mat[:, j : j + n],
            "err_norm": mat[:, j + n],
            "omega": mat[:, j + n + 1],
            "Delta": mat[:, j + n + 2],
        }
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


class _Block:
    """A block of the estimator rows that the bank reserved: its slice `sl`
    of a row and its shape.  Called on a row or on a (K, size) stack ys of
    sampled rows, it returns each row's block, as a view."""

    __slots__ = ("sl", "shape")

    def __init__(self, sl: slice, shape: tuple):
        self.sl, self.shape = sl, shape

    def __call__(self, rows):
        if rows.ndim == 1:  # one row
            return rows[self.sl].reshape(self.shape)
        return rows[:, self.sl].reshape(len(rows), *self.shape)


def _matvec(M, v):
    """M_k v_k for a (K, n) stack v, M one matrix or a (K, n, n) stack.
    Stacked matmul runs the per-row kernel of `M @ v_k`, so each row is
    bit-identical to its own product."""
    return (M @ v[:, :, None])[:, :, 0]


class _PlantCache:
    """Drift and source of the single-duty model, assembled once per model
    and read by the stage of each epoch (`_plant_stage`) on the scalar duty
    ratio u as Lambda(u) = L0 + u L1 and the fixed source b0."""

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


def _plant_stage(law, cache: _PlantCache, ctl: ControllerSpec, bank: "_Bank"):
    """The engine's stage(v) of one epoch: the derivative of the
    Runge-Kutta vector v = [x1, .., x4, xc, *estimator rows], from (u_raw,
    dx_c) = law(v, xc), u clamped to [u_min, u_max] and the drift rows of
    `cache`, read once here, each summed left to right with b0_i last; the
    estimator rows' derivative follows, from the bank's straight-line code
    bound to this epoch's observer frame (`_Bank.stage`)."""
    [(a11, a12, a13, a14, c11, c12, c13, c14, b1), (a21, a22, a23, a24, c21, c22, c23, c24, b2),
     (a31, a32, a33, a34, c31, c32, c33, c34, b3), (a41, a42, a43, a44, c41, c42, c43, c44, b4)] = cache.rows
    lo, hi, c_y = ctl.u_min, ctl.u_max, cache.c_y
    derivative = bank.stage(cache) if bank.size else None  # only rows read the observer frame

    def stage(v):
        x1, x2, x3, x4, xc = v[0], v[1], v[2], v[3], v[4]
        u_raw, dxc = law(v, xc)
        u = min(max(u_raw, lo), hi)
        dv = [
            (a11 + u * c11) * x1 + (a12 + u * c12) * x2 + (a13 + u * c13) * x3 + (a14 + u * c14) * x4 + b1,
            (a21 + u * c21) * x1 + (a22 + u * c22) * x2 + (a23 + u * c23) * x3 + (a24 + u * c24) * x4 + b2,
            (a31 + u * c31) * x1 + (a32 + u * c32) * x2 + (a33 + u * c33) * x3 + (a34 + u * c34) * x4 + b3,
            (a41 + u * c41) * x1 + (a42 + u * c42) * x2 + (a43 + u * c43) * x3 + (a44 + u * c44) * x4 + b4,
            dxc,
        ]
        if derivative is not None:
            dv += derivative(v, u, c_y * x4)
        return dv

    return stage


class _RegressionFilter:
    """One (Y, Omega) regression filter pair with pole lam, in rows the
    bank reserves, Omega right after Y."""

    def __init__(self, lam: float, bank: "_Bank"):
        self.lam = lam
        self.Y, self.Omega = bank.add(bank.n), bank.add(bank.n, bank.n)


class _Bank:
    """The estimator rows of the Runge-Kutta vector and their one owner,
    which lays them out, starts them and differentiates them.  Its blocks
    are the open-loop copy xi (with Phi when an estimator reads it), driven
    by u alone; one `_RegressionFilter` per distinct pole, driven by u, y_m
    and lam; and each Kalman-Bucy filter's block (`_KbfRuntime`).  Each is
    integrated once, however many estimators read it.  The rows follow the
    plant rows and the integrator in the vector, from entry `base` on.

    The rows are Python floats, and `stage` differentiates them in
    straight-line code (see the module docstring), which `source` writes
    out for the bank's layout.  The exact steps read them from the list
    (`_ExactSteps.inputs`), every other reader from a (K, size) stack of
    sampled rows, through a `_Block`.

    An estimator runtime only reads the rows.  It gives `estimate(v)`, its
    estimate in volts and amperes from the Runge-Kutta vector v when it
    closes the loop, and `record(ys, cols, deltas)`, its logged arrays from
    the sampled rows, the sampled columns of the exact steps
    (`_ExactSteps`) by step key and the store's sampled Delta by filter pole
    (`_Store`); one stepped exactly holds its `step_key` and is pointed to
    the stack that holds its row, `exact`."""

    def __init__(self, n: int):
        self.n = n
        self.base = n + 1  # the rows' first entry in the Runge-Kutta vector
        self.size = 0  # the number of rows reserved
        self.xi = self.Phi = None  # the copy's blocks, once reserved
        self.filters = {}  # lam -> _RegressionFilter
        self.kbfs = []  # the Kalman-Bucy filters, in run order
        self.make = None  # the layout's compiled stage code (`source`), from `start`

    def add(self, *shape) -> _Block:
        """Reserve the next rows, for a block of `shape`."""
        sl = slice(self.size, self.size + math.prod(shape))
        self.size = sl.stop
        return _Block(sl, shape)

    def copy(self, phi: bool):
        """Reserve the open-loop copy, with Phi if `phi`."""
        if self.xi is None:
            self.xi = self.add(self.n)
        if phi and self.Phi is None:
            self.Phi = self.add(self.n, self.n)

    def filter(self, lam: float) -> _RegressionFilter:
        """The filter of pole lam (with the copy it reads), reserved on
        first use."""
        self.copy(phi=True)
        if lam not in self.filters:
            self.filters[lam] = _RegressionFilter(lam, self)
        return self.filters[lam]

    def kbf(self, kbf) -> tuple:
        """Reserve a Kalman-Bucy filter's blocks x_hat and H."""
        self.kbfs.append(kbf)
        return self.add(self.n), self.add(self.n, self.n)

    def start(self) -> list:
        """The rows at t = 0 as floats, Phi = I, each H = H0 and zeros
        elsewhere; the layout's stage code is compiled here."""
        y = np.zeros(self.size)
        if self.Phi is not None:
            self.Phi(y)[:] = np.eye(self.n)
        for kbf in self.kbfs:
            kbf.H(y)[:] = kbf.H0
        if self.size:
            self.make = _compiled(self.source(), "make")
        return y.tolist()

    def stage(self, frame):
        """derivative(v, u, y_m), the rows' derivative at the vector v, duty
        ratio u and measurement y_m, bound to the observer frame of `frame`
        (a `_PlantCache`; A = A0_obs + u A1_obs and b = b0_obs), the poles
        and the upper triangle of each Kalman-Bucy filter's S."""
        upper = np.triu_indices(self.n)
        return self.make(frame.A0_obs.ravel().tolist(), frame.A1_obs.ravel().tolist(), frame.b0_obs.tolist(),
                         list(self.filters), [kbf.S[upper].tolist() for kbf in self.kbfs])

    def source(self) -> str:
        """The source of make(A0, A1, b, lams, Ss), which returns
        derivative(v, u, y_m) (`stage`) for this layout: the rows of
        `observers.gpebo_matrix_derivatives` and `kbf_derivatives` at
        C_obs = [0, 0, 0, 1], one float expression per entry, each sum
        taken left to right in the association those functions state.  The
        copy is A xi + b and A Phi; the filter drives (C Phi)' (y_m - C xi)
        and (C Phi)' C Phi, formed from C Phi = Phi[3] for every pole, give
        lam (drive - Y) and lam (drive - Omega); each Kalman-Bucy filter
        gives ((A x_hat + b) + H[:, 3] (y_m - x_hat[3])) and, with P = A H,
        ((P' + P) - H[:, 3] H[3]) + S.  Omega and H are read from their
        upper triangle and each mirrored entry is the same float, so both
        stay exactly symmetric and no symmetrization is needed."""
        n, R = self.n, range(self.n)
        rows, lines = [None] * self.size, []  # each row's expression; the statements before them

        def at(block, i, j=None):  # the name of block[i] or block[i, j] in v
            return f"v{self.base + block.sl.start + (i if j is None else i * n + j)}"

        def upper(block, i, j):  # a symmetric block's entry, read from its upper triangle
            return at(block, min(i, j), max(i, j))

        def put(block, exprs, i=None):  # row i of a matrix block, or a vector block
            first = block.sl.start + (0 if i is None else i * n)
            rows[first : first + n] = exprs

        def Ax(block):  # (A x)_i + b_i for the vector block x
            return [" + ".join(f"a{i}{k} * {at(block, k)}" for k in R) + f" + b{i}" for i in R]

        def mirrored(block, name):  # a symmetric block, entry (i, j) and (j, i) both name(min, max)
            for i in R:
                put(block, [name(min(i, j), max(i, j)) for j in R], i)

        if self.xi is not None:
            put(self.xi, Ax(self.xi))
        if self.Phi is not None:
            for i in R:
                put(self.Phi, [" + ".join(f"a{i}{k} * {at(self.Phi, k, j)}" for k in R) for j in R], i)
        if self.filters:
            c = [at(self.Phi, 3, j) for j in R]  # C Phi
            lines.append(f"e = y_m - {at(self.xi, 3)}")
        for f, filt in enumerate(self.filters.values()):
            put(filt.Y, [f"l{f} * ({c[i]} * e - {at(filt.Y, i)})" for i in R])
            lines += [f"o{f}_{i}{j} = l{f} * ({c[i]} * {c[j]} - {at(filt.Omega, i, j)})"
                      for i in R for j in R if i <= j]
            mirrored(filt.Omega, lambda i, j: f"o{f}_{i}{j}")
        for g, kbf in enumerate(self.kbfs):
            lines.append(f"e{g} = y_m - {at(kbf.x, 3)}")
            put(kbf.x, [f"({ax}) + {upper(kbf.H, i, 3)} * e{g}" for i, ax in enumerate(Ax(kbf.x))])
            lines += [f"p{i}{j} = " + " + ".join(f"a{i}{k} * {upper(kbf.H, k, j)}" for k in R) for i in R for j in R]
            lines += [f"h{g}_{i}{j} = ((p{j}{i} + p{i}{j}) - {upper(kbf.H, i, 3)} * {upper(kbf.H, 3, j)})"
                      f" + s{g}_{i}{j}" for i in R for j in R if i <= j]
            mirrored(kbf.H, lambda i, j: f"h{g}_{i}{j}")
        ij = [(i, j) for i in R for j in R]
        binds = [", ".join(f"A0_{i}{j}" for i, j in ij) + " = A0", ", ".join(f"A1_{i}{j}" for i, j in ij) + " = A1",
                 ", ".join(f"b{i}" for i in R) + " = b"]
        binds += ["".join(f"l{f}, " for f in range(len(self.filters))) + "= lams"] if self.filters else []
        binds += [", ".join(f"s{g}_{i}{j}" for i, j in ij if i <= j) + f" = Ss[{g}]" for g in range(len(self.kbfs))]
        body = [", ".join(f"v{k}" for k in range(self.base + self.size)) + " = v",
                *(f"a{i}{j} = A0_{i}{j} + u * A1_{i}{j}" for i, j in ij), *lines, f"return [{', '.join(rows)}]"]
        head = ["def make(A0, A1, b, lams, Ss):", *("    " + s for s in binds), "    def derivative(v, u, y_m):"]
        return "\n".join([*head, *("        " + s for s in body), "    return derivative", ""])

    def reconstruct(self, v, theta) -> list:
        """x_hat = xi + Phi theta from the rows of the vector v, on floats:
        xi_i + (Phi_i1 theta_1 + .. + Phi_i4 theta_4), summed left to right."""
        i, j = self.base + self.xi.sl.start, self.base + self.Phi.sl.start
        x1, x2, x3, x4 = v[i : i + 4]
        p11, p12, p13, p14, p21, p22, p23, p24, p31, p32, p33, p34, p41, p42, p43, p44 = v[j : j + 16]
        t1, t2, t3, t4 = theta
        return [
            x1 + (p11 * t1 + p12 * t2 + p13 * t3 + p14 * t4),
            x2 + (p21 * t1 + p22 * t2 + p23 * t3 + p24 * t4),
            x3 + (p31 * t1 + p32 * t2 + p33 * t3 + p34 * t4),
            x4 + (p41 * t1 + p42 * t2 + p43 * t3 + p44 * t4),
        ]


def _reads_filter(spec: ObserverSpec) -> bool:
    """Whether an estimator reads a regression filter, and so its lam: the
    GPEBO kinds and the extended gradient; no other estimator reads lam."""
    return spec.kind in GPEBO_KINDS or (spec.kind == "gradient" and spec.mode == "extended")


def _step_key(spec: ObserverSpec) -> tuple:
    """What an exact step reads besides its frozen inputs, the gain last;
    estimators with one step key share a row (a raw gradient reads no lam)."""
    if spec.kind in GPEBO_KINDS:
        return ("gpebo", spec.lam, spec.gamma)
    return ("gradient", spec.mode, spec.lam if _reads_filter(spec) else None, spec.gamma)


class _GpeboRuntime:
    """fct-gpebo and gpebo kinds: read the shared copy and the filter of
    their pole; own the scalar estimator (omega, theta_hat), a row of an
    `_ExactSteps`."""

    def __init__(self, spec: ObserverSpec, bank: _Bank):
        self.spec = spec
        self.bank = bank
        self.fct = spec.kind == "fct-gpebo"
        self.filt = bank.filter(spec.lam)
        self.step_key = _step_key(spec)
        self.theta_hat0 = [0.0] * bank.n  # theta_hat starts at zero with its row
        self.theta_feed = self.theta_hat0

    def theta(self, omega, theta_hat):
        """The estimate of theta: the finite-time combination, or theta_hat."""
        if self.fct:
            return fct_combine(theta_hat, self.theta_hat0, omega, self.spec.mu)
        return theta_hat

    def refresh_feed(self):
        # called once per step after the sample, so a sampled u of observer
        # feedback reads the theta of one step earlier (ROADMAP item 5e);
        # `theta` on the loop's row of floats
        omega, *theta_hat = self.exact.state
        if self.fct:
            omega_c = min(omega, 1.0 - self.spec.mu)
            theta_hat = [(th - omega_c * th0) / (1.0 - omega_c) for th, th0 in zip(theta_hat, self.theta_hat0)]
        self.theta_feed = theta_hat

    def estimate(self, v):
        return self.bank.reconstruct(v, self.theta_feed)

    def record(self, ys, cols, deltas):
        col = cols[self.step_key]
        omega, theta_hat = col[:, 0], col[:, 1:]
        Omega = self.filt.Omega(ys)
        if self.filt.lam not in deltas:  # read-only as the rows are, since a pass's rows share it
            deltas[self.filt.lam] = delta = _adj_det(np.moveaxis(Omega, 0, -1))[1]
            delta.flags.writeable = ys.flags.writeable
        rec = {
            "omega": omega,
            "Delta": deltas[self.filt.lam],
            "xi": self.bank.xi(ys), "Phi": self.bank.Phi(ys),
            "Y": self.filt.Y(ys),
            "Omega": Omega,
            "theta_hat": theta_hat,
        }
        theta = self.theta(omega[:, None], theta_hat)
        if self.fct:
            rec["theta_fct"] = theta
        return rec["xi"] + _matvec(rec["Phi"], theta), rec


class _EmulatorRuntime:
    """The shared open-loop copy itself, read as the estimate."""

    def __init__(self, spec: ObserverSpec, bank: _Bank):
        self.spec = spec
        self.bank = bank
        bank.copy(phi=False)

    def estimate(self, v):
        i = self.bank.base + self.bank.xi.sl.start
        return v[i : i + self.bank.n]

    def record(self, ys, cols, deltas):
        xi = self.bank.xi(ys)
        return xi, {"xi": xi}


class _KbfRuntime:
    """The Kalman-Bucy filter, in a block of rows (x_hat, H) of its own,
    which the bank reserves, starts (H = H0) and differentiates."""

    def __init__(self, spec: ObserverSpec, bank: _Bank):
        self.spec = spec
        self.bank = bank
        self.S = _as_spd(spec.s, bank.n, "S")
        self.H0 = _as_spd(spec.h0, bank.n, "H0")
        self.x, self.H = bank.kbf(self)

    def estimate(self, v):
        i = self.bank.base + self.x.sl.start
        return v[i : i + self.bank.n]

    def record(self, ys, cols, deltas):
        return self.x(ys), {"H": self.H(ys)}


class _GradientRuntime:
    """A gradient parameter estimator on the shared copy's raw regression
    or on the filter of its pole (extended), stepped by the exact
    exponential with frozen data; its theta is a row of an `_ExactSteps`."""

    def __init__(self, spec: ObserverSpec, bank: _Bank):
        self.spec = spec
        self.bank = bank
        self.extended = _reads_filter(spec)
        if self.extended:
            self.filt = bank.filter(spec.lam)
        else:
            bank.copy(phi=True)
        self.step_key = _step_key(spec)

    def estimate(self, v):
        return self.bank.reconstruct(v, self.exact.state)

    def record(self, ys, cols, deltas):
        rec = {"xi": self.bank.xi(ys), "Phi": self.bank.Phi(ys), "theta_hat": cols[self.step_key]}
        return rec["xi"] + _matvec(rec["Phi"], rec["theta_hat"]), rec


class _ExactSteps:
    """The exactly stepped states of one kind on one filter or regression,
    one row per step key (`_step_key`), shared by the run's estimators of
    that key: (omega, theta_hat) for the GPEBO kinds, theta for a gradient
    estimator.  Each step reads inputs frozen at its start, one tape row
    (`inputs`): the filter's (Y, Omega), which the GPEBO kinds mix by DREM,
    or a raw gradient's C Phi = Phi[3] and y_m - C xi = y_m - xi[3].  The
    loop's stack, the feeding estimator's gain alone, holds its one row as
    a list of floats and steps it once per step (`step`): a GPEBO kind by
    `drem_scalar_step` on floats, a gradient by `advance`.  A riding stack
    holds its rows as an array and keeps the tape rows of its steps,
    stepped bit for bit alike by `scalar_steps`, `raw_steps` or, for an
    extended gradient, `advance` (`flush`)."""

    def __init__(self, rt):
        self.rt = rt  # the run's first estimator on these inputs
        self.rows = {}  # step key -> row
        bank = rt.bank
        self.gpebo, n = isinstance(rt, _GpeboRuntime), bank.n
        self.slots = 1 + n if self.gpebo else n
        self.raw = not (self.gpebo or rt.extended)
        if self.raw:  # the entries of Phi[3] in the Runge-Kutta vector, then the index of xi[3]
            first, self.width = bank.base + bank.Phi.sl.stop - n, n + 1
            self.read = slice(first, first + n), bank.base + bank.xi.sl.start + 3
        else:  # the filter's (Y, Omega), one run of entries
            first, self.width = bank.base + rt.filt.Y.sl.start, n + n * n
            self.read = slice(first, first + self.width)

    def buffers(self, K: int, rides: bool) -> dict:
        """The shape of each array `start` reserves: the rows' samples at K
        instants and, if the stack rides, its tape and the states over it
        (before each step and after the last)."""
        E = len(self.rows)
        shapes = {"samples": (K, E, self.slots)}
        if rides:
            shapes.update(tape=(_CHUNK, self.width), states=(_CHUNK + 1, E, self.slots))
        return shapes

    def start(self, K: int, rides: bool):
        """Set every row to its initial state, omega = 1 and zeros, and
        reserve its `buffers`; the loop's one row is a list of floats."""
        for name, shape in self.buffers(K, rides).items():
            setattr(self, name, np.empty(shape))
        self.gammas = [key[-1] for key in self.rows]
        first = [1.0] * self.gpebo + [0.0] * self.rt.bank.n
        self.state = np.array([first] * len(self.gammas)) if rides else first
        if self.gpebo and rides:  # the gains of `scalar_steps`
            self.column = np.array(self.gammas, dtype=float)[:, None]

    def inputs(self, v: list, y_m: float) -> list:
        """The tape row of the step that starts at the Runge-Kutta vector v
        and the measurement y_m."""
        if self.raw:
            phi, xi3 = self.read
            return [*v[phi], y_m - v[xi3]]
        return v[self.read]

    def advance(self, row, theta, gamma, h: float):
        """A gradient's theta after one step of the gain gamma on the tape
        row `row`, an array: one `gradient_update` call per gain and step
        (a stacked rank-one step would sum phi @ theta in another order)."""
        n = self.rt.bank.n
        frozen = ({"CPhi": row[None, :n], "y_shift": row[n]} if self.raw
                  else {"Omega": row[n:].reshape(n, n), "Y": row[:n]})
        return gradient_update(theta, gamma, self.rt.spec.mode, h, **frozen)

    def step(self, v: list, y_m: float, t: float, h: float):
        """Step the loop's one row from t to t + h on the vector v and the
        measurement y_m at t."""
        (gamma,) = self.gammas
        row = self.inputs(v, y_m)
        if self.gpebo:
            self.state = drem_scalar_step(self.state, row, gamma, h)
        else:
            self.state = self.advance(np.array(row), np.array(self.state), gamma, h).tolist()
        if not all(map(math.isfinite, self.state)):
            raise NonFiniteState(f"non-finite estimator state after the step to t={t + h:g} s")

    def flush(self, k0: int, T: int, stride: int, h: float):
        """Step every row over the T taped steps from step k0 on, and
        sample the rows at the run's instants from k0 to k0 + T.  Returns
        the first of these steps after which a row is not finite, or
        None."""
        n, tape, states = self.rt.bank.n, self.tape[:T], self.states[: T + 1]
        states[0] = self.state
        if self.gpebo:
            scriptY, Delta = drem_mix(tape[:, n:].reshape(T, n, n), tape[:, :n])
            scalar_steps(states[:, :, :1], states[:, :, 1:], scriptY, Delta, self.column, h)
        elif self.raw:
            raw_steps(states, tape[:, :n], tape[:, n], self.gammas, h)
        else:
            for row, before, after in zip(tape, states[:-1], states[1:]):
                after[:] = [self.advance(row, theta, gamma, h) for theta, gamma in zip(before, self.gammas)]
        first = -k0 % stride  # the first sample instant on the tape
        s0, at = (k0 + first) // stride, states[first::stride]
        self.samples[s0 : s0 + len(at)] = at
        self.state[:] = states[T]
        bad = ~np.isfinite(states[1:].reshape(T, -1)).all(axis=1)
        return k0 + int(bad.argmax()) if bad.any() else None


def _exact_steps(runtimes, fb_rt) -> list:
    """The exact steps of a run, one `_ExactSteps` per kind and filter or
    regression, with each estimator's step key a row of it; the feeding
    estimator fb_rt's gain is a stack of its own, and every other gain,
    one on its filter included, rides.  Nothing is allocated before
    `start`."""
    stacks, feed_key = {}, getattr(fb_rt, "step_key", None)
    for rt in runtimes:
        if rt.spec.kind in _EXACT_KINDS:
            key = rt.step_key if rt.step_key == feed_key else rt.step_key[:-1]  # without the gain
            rt.exact = stacks.get(key) or stacks.setdefault(key, _ExactSteps(rt))
            rt.exact.rows.setdefault(rt.step_key, len(rt.exact.rows))
    return list(stacks.values())


def _columns(stacks) -> dict:
    """The sampled states of every stack row, by step key."""
    return {key: st.samples[:, e] for st in stacks for key, e in st.rows.items()}


def _as_spd(value, n: int, what: str) -> np.ndarray:
    M = np.asarray(value, dtype=float)
    if not np.isfinite(M).all():
        raise ScenarioError(f"{what} must be finite")
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
    """The record of a run: `rows`, one float row per sample instant, the
    Runge-Kutta vector of `width` entries (the plant rows and integrator,
    then the estimator rows) followed by the clamped duty ratio, the
    passive output, the clamp flag and the epoch (build_cuk has one duty
    ratio); `epochs`, per epoch the PI-PBC state (None for the classical
    PI), the reference and the circuit values in force; and the coenergy
    weights Q, which no event changes."""

    def __init__(self, K: int, width: int, Q):
        self.rows = np.empty((K, width + 4))
        self.epochs = []  # (pi, ref, params) per epoch
        self.Q = Q
        self.deltas = {}  # filter pole -> the sampled Delta of its Omega, taken once for every reader


class SharedPass:
    """One closed-loop pass, shared by the rows of one key.

    The key is the scenario with what the pass may ignore left out: the
    name of every estimator, the gamma and mu of every estimator but the
    feed (the one that closes the loop), and the lam of every estimator
    that reads no filter (`_reads_filter`); nothing else is, and it holds
    floats by value and arrays by shape and bytes.  Only the exactly
    stepped estimators read gamma or mu, each in a row of its own step key
    (`_step_key`).  `groups` keys each row once and makes one pass per key,
    which holds its rows (`scenarios`) and checks their `union`: the first
    row with, per step key it lacks, the first other row's exactly stepped
    estimator of that key.  The union runs once (`run_scenario`) and keeps
    in the pass its record (`_Store`) and the sampled columns of its
    exact-step rows by step key.  The rows share these arrays, so they are
    read-only, and so are the trajectory arrays that are views of them."""

    def __init__(self, scenarios):
        self.scenarios = scenarios  # the rows the pass serves, in order
        self.union = _union(scenarios)
        validate_scenario(self.union)  # so its samples count against the cap
        self.store = None  # the kept pass's _Store, None while none is kept
        self.cols = None  # step key -> sampled columns of its row, (K, slots)

    @classmethod
    def groups(cls, scenarios) -> list:
        """One pass per pass key of `scenarios`, in first-seen order, each
        holding its rows in their order; every row is keyed once."""
        rows = {}
        for scn in scenarios:
            rows.setdefault(_pass_key(scn), []).append(scn)
        return [cls(group) for group in rows.values()]

    def keep(self, store: _Store, cols: dict):
        for arr in [store.rows, *cols.values()]:
            arr.flags.writeable = False
        self.store, self.cols = store, cols


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
    feed = 0 if _closes_loop(scn.controller) else None
    specs = []
    for i, spec in enumerate(scn.observers):
        spec = replace(spec, name=None, lam=spec.lam if _reads_filter(spec) else None)
        specs.append(spec if i == feed else replace(spec, gamma=None, mu=None))
    return _lossless(replace(scn, observers=specs))


def _union(scenarios) -> Scenario:
    """The one run of a pass's rows (see `SharedPass`); `riders` maps each
    step key to the estimator it appends, None for the first row's own,
    the feed's among them."""
    first = scenarios[0]
    riders = dict.fromkeys(_step_key(spec) for spec in first.observers if spec.kind in _EXACT_KINDS)
    for scn in scenarios[1:]:
        for spec in scn.observers:
            if spec.kind in _EXACT_KINDS:
                riders.setdefault(_step_key(spec), spec)
    return replace(first, observers=[*first.observers, *filter(None, riders.values())])


# -- the run ------------------------------------------------------------------


def _estimators(specs) -> tuple:
    """The bank of the estimator rows and the runtime of each spec, laid
    out; no buffer is allocated before `_Bank.start`."""
    bank = _Bank(len(SIGNALS))
    return bank, [_RUNTIME_BY_KIND[spec.kind](spec, bank) for spec in specs]


def _sample_count(N: int, stride: int) -> int:
    """The instants at which a run of N steps samples: every stride-th step
    before the last, N, and N."""
    return len(range(0, N, stride)) + 1


def _sample_bytes(scn: Scenario, N: int) -> int:
    """The bytes of a run's samples: K rows of the `_Store`, and the
    `buffers` of every exact step, all floats."""
    K = _sample_count(N, scn.stride)
    bank, runtimes = _estimators(scn.observers)
    fb_rt = runtimes[0] if _closes_loop(scn.controller) else None
    floats = sum(math.prod(shape) for stack in _exact_steps(runtimes, fb_rt)
                 for shape in stack.buffers(K, stack.rt is not fb_rt).values())
    return (K * (bank.base + bank.size + 4) + floats) * np.dtype(float).itemsize


def validate_scenario(scn: Scenario) -> int:
    """Check every value rule of a scenario and return its step count.

    This is the single place the rules live: the configuration layer runs
    it on each document it loads, and `run_scenario` on each run."""
    try:
        check_params(scn.params)
    except CukError as exc:
        raise ScenarioError(f"model: {exc}") from exc
    for key in ("h", "horizon"):
        value = getattr(scn, key)
        if not 0.0 < value < math.inf:
            raise ScenarioError(f"{key} must be positive and finite, got {value}")
    ratio = scn.horizon / scn.h  # checked against the cap before it is rounded
    if not ratio <= MAX_STEPS:
        raise ScenarioError(f"h={scn.h!r} s, horizon={scn.horizon!r} s and stride={scn.stride!r} "
                            f"ask for {ratio:g} steps, more than the cap of {MAX_STEPS:g}")
    N = round(ratio)
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
        if ctl.ki < KI_MIN_DET:  # |det Ki| of the one duty ratio's gain
            raise ScenarioError(f"pi-pbc needs ki >= {KI_MIN_DET:g} to place its integrator reference, got {ctl.ki}")
    if ctl.feedback == "observer" and not scn.observers:
        raise ScenarioError("observer feedback requested but no observers configured")
    n = len(SIGNALS)
    for spec in scn.observers:
        if spec.kind not in OBSERVER_KINDS:
            raise ScenarioError(f"unknown observer kind {spec.kind!r}")
        if spec.mode not in ("raw", "extended"):
            raise ScenarioError(f"gradient mode {spec.mode!r} unknown")
        where = f"observer {spec.name or spec.kind!r}"
        if not 0.0 < spec.mu < 1.0:
            raise ScenarioError(f"{where}: mu must lie in (0, 1), got {spec.mu}")
        if not 0.0 < spec.gamma < math.inf:
            raise ScenarioError(f"{where}: gamma must be positive and finite, got {spec.gamma}")
        if not spec.lam > 0.0:
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
        if ev.kind == "load" and not 0.0 < ev.value < math.inf:
            raise ScenarioError("load events must request a positive finite resistance")
    # the converter inverts: the target and every reference event ask for a
    # negative output voltage, whichever controller runs
    refs = [(f"reference event at t={ev.time:g} s", ev.value) for ev in scn.events if ev.kind == "reference"]
    for what, value in [("x4_star", ctl.x4_star), *refs]:
        if not -math.inf < value < 0.0:
            raise ScenarioError(f"the converter inverts: {what} must be negative and finite, got {value}")
    size = _sample_bytes(scn, N)
    if size > MAX_STORE_BYTES:
        raise ScenarioError(f"h={scn.h!r} s, horizon={scn.horizon!r} s and stride={scn.stride!r} "
                            f"ask for {size:.3g} bytes of samples, more than the cap of {MAX_STORE_BYTES} bytes")
    return N


def _epoch(store: _Store, ctl: ControllerSpec, params, model: PHModel, v_ref: float, t: float, cache, bank, fb_rt):
    """law(v, xc) on the plant rows of the Runge-Kutta vector v or, on
    observer feedback, on fb_rt's estimate from its rows, and the stage of
    the epoch that starts at time t with reference v_ref and the circuit
    values params, which the store's epoch table gains with the PI-PBC
    state (None for the classical PI); an unreachable v_ref raises
    `InfeasibleEquilibrium` with t as its `epoch_time`."""
    pi = None
    if ctl.type != "classical-pi":
        try:
            pair, _ = solve_equilibrium(params, v_ref, root_policy=ctl.root_policy)
        except InfeasibleEquilibrium as exc:
            raise InfeasibleEquilibrium(f"no equilibrium at t={t:g} s: {exc}", exc.discriminant, t) from exc
        pi = make_pi_pbc(
            model, ctl.kp, ctl.ki, pair.x_star, pair.u_star, u_min=ctl.u_min, u_max=ctl.u_max
        )
    law = _stage_law(ctl, pi, model, v_ref)
    if fb_rt is not None:
        state_law, estimate, (q1, q2, q3, q4) = law, fb_rt.estimate, cache.qd.tolist()

        def law(v, xc):  # the estimate in volts and amperes, divided to stored units
            x1, x2, x3, x4 = estimate(v)
            return state_law((x1 / q1, x2 / q2, x3 / q3, x4 / q4), xc)

    store.epochs.append((pi, v_ref, params))
    return law, _plant_stage(law, cache, ctl, bank)


@np.errstate(over="ignore", invalid="ignore")  # a run that overflows assembles as it stands
def _assemble(scn: Scenario, store: _Store, runtimes, N: int, cols: dict, taken: int) -> Trajectory:
    """The trajectory of the first `taken` samples of a run of N steps: the
    plant side read from the store and the exactly stepped states from
    cols, the sampled columns of each exact step by step key, each
    estimator's logged arrays derived from them with stacked numpy; the
    circuit values are those of the last epoch the store holds."""
    ctl = scn.controller
    n = len(SIGNALS)
    rows = store.rows[:taken]
    ep = rows[:, -1].astype(int)
    pis, refs, circuits = zip(*store.epochs)
    cols = {key: col[:taken] for key, col in cols.items()}
    xs = rows[:, :n]
    signals = _matvec(store.Q, xs)  # physical; events change r, never Q
    W = np.full(taken, np.nan)
    if ctl.type != "classical-pi":
        for e, pe in enumerate(pis):
            at = ep == e
            W[at] = _storage(store.Q, pe.Ki, xs[at], rows[at, n : n + 1], pe.x_star, pe.x_c_star)
    observers = {}
    for rt in runtimes:
        xhat, rec = rt.record(rows[:, n + 1 : -4], cols, store.deltas)
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
        "params": vars(replace(circuits[-1])),
    }
    return Trajectory(
        t=np.minimum(np.arange(taken) * scn.stride, N) * scn.h,
        signals=signals,
        u=rows[:, -4:-3],
        ytilde=rows[:, -3:-2],
        W=W,
        saturated=rows[:, -2].astype(bool),
        ref=np.array(refs, dtype=float)[ep],
        epoch=ep,
        observers=observers,
        meta=meta,
    )


def run_scenario(scn: Scenario, shared: SharedPass | None = None) -> Trajectory:
    """Run a scenario and return its sampled trajectory.

    Given `shared`, scn must be one of its rows (`SharedPass.groups`),
    and is assembled from what the pass keeps; the first row asked for
    runs the pass's union and keeps it, so a non-finite state of any row
    of the union raises.  Without `shared` nothing is kept."""
    if shared is not None and not any(scn is row for row in shared.scenarios):
        raise ValueError("the scenario is not one of the rows of the shared pass")
    N = validate_scenario(scn)
    h = scn.h
    ctl = scn.controller

    bank, runtimes = _estimators(scn.observers)  # the estimator rows y and their readers
    for rt, name in zip(runtimes, _unique_names(scn.observers)):
        rt.name = name
    K = _sample_count(N, scn.stride)
    if shared is not None and shared.store is not None:
        return _assemble(scn, shared.store, runtimes, N, shared.cols, K)
    # the run's estimators; a union adds riders alone, so its rows y are laid out as scn's
    bank, stepped = (bank, runtimes) if shared is None else _estimators(shared.union.observers)
    fb_rt = stepped[0] if _closes_loop(ctl) else None
    feed = fb_rt if isinstance(fb_rt, _GpeboRuntime) else None  # refreshes its theta per step

    y = bank.start()  # the estimator rows at t = 0
    stacks = _exact_steps(stepped, fb_rt)
    loop = next((stack for stack in stacks if stack.rt is fb_rt), None)  # the feed's gain, stepped in the loop
    riding = [stack for stack in stacks if stack is not loop]  # stepped from their tapes
    for stack in stacks:
        stack.start(K, stack is not loop)

    # event table: each event at its grid instant (validate_scenario
    # rejects times off the grid)
    events_at = {}
    for ev in sorted(scn.events, key=lambda e: e.time):
        events_at.setdefault(int(round(ev.time / h)), []).append(ev)

    params = replace(scn.params)
    model = build_cuk(params)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite drift rows fail the first step
        cache = _PlantCache(model)
    # scenario initial state is physical (i1, v2, i3, v4); stored
    # variables are fluxes and charges, x = Q^-1 (physical)
    x0 = np.linalg.solve(model.Q, np.asarray(scn.x0, dtype=float))
    # the Runge-Kutta vector as Python floats: the plant rows, the
    # integrator and the estimator rows, v = [x1, .., xn, xc, *y]
    v = x0.tolist() + [float(ctl.xc0)] + y
    store = _Store(K, len(v), model.Q)
    ref_now = ctl.x4_star
    law, stage = _epoch(store, ctl, params, model, ref_now, 0.0, cache, bank, fb_rt)
    epoch = 0

    rows = store.rows
    taken = due = 0  # the samples taken and the step of the next one
    k0 = taped = 0  # the first step on the riding stacks' tapes and the steps taped

    def flush():
        """Step the riding stacks over their tapes; the first step after
        which a row is not finite raises, with the samples up to it."""
        nonlocal taken, k0, taped
        if not taped:
            return
        failed = [j for stack in riding if (j := stack.flush(k0, taped, scn.stride, h)) is not None]
        k0, taped = k0 + taped, 0
        if failed:
            t = min(failed) * h
            taken = min(failed) // scn.stride + 1
            raise NonFiniteState(f"non-finite estimator state after the step to t={t + h:g} s")

    try:
        # an overflow or invalid value shows as a non-finite state, which
        # the step checks raise; numpy's warnings are silenced once here
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(N + 1):
                t = k * h
                if k in events_at:
                    flush()  # the riders reach the event before it changes the circuit values
                    for ev in events_at[k]:
                        epoch += 1
                        if ev.kind == "load":
                            params = replace(params, r=ev.value)
                            model = build_cuk(params)
                            cache.rebuild(model)
                        else:
                            ref_now = ev.value
                        law, stage = _epoch(store, ctl, params, model, ref_now, t, cache, bank, fb_rt)
                if k == due:
                    u_raw, ytilde = law(v, v[4])  # xc follows the plant rows
                    u = min(max(u_raw, ctl.u_min), ctl.u_max)
                    rows[taken] = [*v, u, ytilde, u != u_raw, epoch]  # the clamp flag, formed only here
                    if loop is not None:
                        loop.samples[taken] = loop.state
                    taken += 1
                    due = min(due + scn.stride, N)
                if k == N:
                    break
                if stacks:  # the exact steps read v, and y_m, at the start of the step
                    y_m = cache.c_y * v[3]
                    if riding:
                        if taped == _CHUNK:
                            flush()
                        for stack in riding:
                            stack.tape[taped] = stack.inputs(v, y_m)
                        taped += 1
                    if feed is not None:  # a GPEBO kind, so only with a stack
                        feed.refresh_feed()
                try:
                    v0, v = v, _rk4_split_step(stage, t, v, h)
                    if loop is not None:
                        loop.step(v0, y_m, t, h)
                except NonFiniteState:
                    if riding:  # the riders' step k comes after the failing one
                        taped -= 1
                        flush()
                    raise
            flush()
            for stack in riding:
                stack.samples[-1] = stack.state
    except NonFiniteState as exc:
        # expose whatever was sampled before the blow-up
        exc.partial = _assemble(scn, store, runtimes, N, _columns(stacks), taken)
        raise

    cols = _columns(stacks)
    if shared is not None:
        shared.keep(store, cols)
    return _assemble(scn, store, runtimes, N, cols, K)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed run's norm is inf, as it stands
        xnorm = np.linalg.norm(traj.signals, axis=1)
    for name, rec in traj.observers.items():
        err = rec["err_norm"]
        out[f"err_final_{name}"] = float(err[-1])
        out[f"rel_err_final_{name}"] = float(err[-1] / max(xnorm[-1], 1e-300))
        for tc in checkpoints:
            idx = int(np.argmin(np.abs(t - tc)))
            out[f"err_at_{tc:g}_{name}"] = float(err[idx])
        # a crossing time needs the run's mu, which a reloaded table lacks
        omega, mu = rec.get("omega"), traj.meta.get("mu", {}).get(name)
        if omega is not None and mu is not None and np.isfinite(omega).all():
            crossed = np.flatnonzero(omega <= 1.0 - mu)
            out[f"tc_{name}"] = float(t[crossed[0]]) if crossed.size else math.nan
    return out
