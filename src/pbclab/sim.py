"""Fixed-step closed-loop simulation of converter, controller and observers.

One Runge-Kutta vector holds the plant state, the controller integrator
and the observers' matrix states; a classical 4-stage Runge-Kutta step
advances the whole block on a shared clock.  The duty ratio is
re-evaluated from the stage states inside every stage.  The closed loop
is fourth order only where it is smooth: a clamp entry or exit is a kink
the fixed grid does not locate, and across one the plant drops to about
second order or less; events are applied at grid instants.

The vector is one list of Python floats: the plant rows and the
integrator (x1..x4, x_c), then the estimator rows y, if any.  Each epoch
(t = 0, and each event) has one generated segment (`_epoch_step`): the
steps up to the next event, riders' flush (every `_CHUNK` steps) or end,
on local names.  A step loops one straight-line stage block over
rk4_step's first three stage weights, then runs it for the fourth.  The
block evaluates, on local names and in a fixed order, the fed-back state
(the plant rows, or the closing estimator's xi + Phi theta, xi or x_hat
in stored units), the passive output ytilde = sum_j Cmat[0, j] (x_j -
x*_j) (the classical PI: its voltage error), the raw duty ratio and its
clamp, the drift dx_i = sum_j (L0_ij + u L1_ij) x_j + b0_i and the
estimator rows.  The law performs the IEEE operations of
`control.pi_pbc_step` (whose `shifted_output` sums in the same order) and
`control.classical_pi_step`, which remain the reference.  Per stage the
step forms acc_i = acc_i + w k_i from acc_i = -0.0 and v_i = y_i + c k_i
(the fourth only accumulates) and takes y_i + (h/6) acc_i: rk4_step's
((k1 + 2 k2) + 2 k3) + k4 term by term, signed zeros included, so each
step equals `rk4_step` on the block's `stage` bit for bit.  The vector is
finite if the sum of its entries is, else if each is.  A sample reads
stage 0's raw duty ratio and ytilde, the law at the step's start
(observer feedback samples with a `stage` call of its own, before its
theta is refreshed: ROADMAP item 5e).  The four stages unrolled ran no
faster, from 34 KB of source instead of 15 (five estimators), which
raised a process's peak memory by 1.8 MB more.  A segment makes numpy
arrays only in a gradient feed's exact step.
The matrix states that depend on neither the gain nor the kind are held
once per run and read by every estimator: the open-loop copy (xi, plus
Phi when an estimator reads it), driven by u alone, and one regression
filter pair (Y, Omega) per distinct pole lambda, driven by u, y and
lambda.  Each Kalman-Bucy filter keeps a block of its own.  The sharing
is exact: Runge-Kutta acts entry by entry, and per-estimator copies would
come from the same expressions on the same inputs, so each estimator's
output is bit-identical to a run in which it is alone.

The estimator rows rest on two structural facts of `cuk.build_cuk`,
checked whenever the model is assembled (`_PlantCache.rebuild`).  The
source does not switch (G1 = 0), so b(u) = b0 for every duty ratio.  The
one sensor is the load voltmeter, so in the coenergy realization the
output map is exactly C_obs = [0, 0, 0, 1] and the measurement is the
single product y_m = C[0, 3] x4.  The copy, filter and Kalman-Bucy rows
are therefore evaluated with C Phi = Phi[3], C xi = xi[3] and
H C' = H[:, 3], the filter drives formed once per stage for every pole,
and the Riccati derivative as (P' + P) - H[:, 3] H[3] + S with P = A H,
each entry summed left to right in the association of
`observers.gpebo_matrix_derivatives` and `observers.kbf_derivatives`,
which remain the reference; they differ from its BLAS products only by
rounding.  Omega and H are read from their upper triangle: a mirrored
entry is neither staged nor accumulated, and its upper twin's float fills
both slots of the result, so both stay exactly symmetric (H0 is
symmetrized exactly).  A term whose coefficient is exactly zero in both
parts of the model (L0_ij and L1_ij, A0_obs and A1_obs, or the source b0)
is dropped: for a finite state and duty ratio it adds a zero, which
changes no sum but the sign of an exactly-zero one, and the estimator rows
start at +0, which adding a signed zero leaves +0; a non-finite entry
fails the step either way.  The zero pattern, read from each epoch's
model, and the layout shape the source, and every value is an argument of
its `make`, so one source per layout, pattern and feed is compiled in a
process; nothing is generated at import.

Two estimator recursions are deliberately kept out of the Runge-Kutta
block and advanced by their exact exponential solutions with per-step
frozen coefficients: the decoupled-regression scalar estimator
(gain up to 1e17) and the plain gradient estimators (gain 1e8).  Both are
orders of magnitude stiffer than the grid step allows for an explicit
scheme, and the exact step is unconditionally contractive.  Their states
are rows of stacks (`_ExactSteps`), one row per gain (`_step_key`), and a
step's frozen inputs are one tape row read from the vector at its start.
The feeding estimator's gain is a stack of its own, one row of floats
that the segment steps after each Runge-Kutta step and checks like the
vector: a GPEBO kind by `observers.drem_scalar_step`, its fed-back theta
refreshed in straight-line code, bit for bit the reference `drem_mix`,
`scalar_update` and `fct_combine`; a gradient by one `gradient_update`
call (no order of float sums reproduces its numpy dot).  Every other
gain rides, one stack per kind and filter or regression: the segment
appends its tape rows, which `_ExactSteps.flush` steps at each boundary
with what does not depend on the state batched over time.  A failing
segment returns its step, the riders are flushed up to it, and
`run_scenario` raises: the first failure in step order wins as if every
stack stepped in one loop (the plant first within a step), with its
message, the samples up to it and the circuit values in force then.

The run's record (`_Store`) is one float matrix with one row per sample
instant, written once at the end of its segment: the Runge-Kutta vector
as it stands, then the duty ratio, passive output, clamp flag and epoch
of that instant; and one table entry per epoch, its PI-PBC state,
reference and circuit values.  The segment also samples the feed's
exact-step row, and a riding stack's flush its own rows.  The plant
signals, the storage W and every estimator's logged arrays are derived
from the record after the run with stacked numpy; the estimators' internals are views of it, so
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
# A test's hook, which no run sets: while set, each segment generated calls
# _check(segment, k, h, p, res, u_raw, d, theta, st) after step k (p the vector
# at its start, res a list of it after, stage 0's u_raw and d, the theta read,
# st the feed's state after, its own list or None) and goes on from res and st.
_check = None


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


@functools.lru_cache(maxsize=64)
def _compiled(source: str, name: str):
    """The function `name` that `source` defines, compiled once per source
    in a process (`_epoch_step`: one per layout, zero pattern, feed and
    riders), without a line table, so a traceback entry in it has no line
    number: the lookup tracemalloc makes at every traced allocation scans
    that table, which made a traced run 17 times slower."""

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
    and read by the step of each epoch (`_epoch_step`) on the scalar duty
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


def _epoch_step(bank: "_Bank", cache: _PlantCache, ctl: ControllerSpec, pi, v_ref: float, fb_rt, stacks=()):
    """The generated segment of one epoch, segment(p, k, stop, due, stride,
    h, st, theta, out, fout, tapes) -> (k, why, p, st, theta), and on it
    segment.stage(v, theta) -> (dv, u_raw, d), both from one stage block
    (see the module docstring): the fed-back state (the plant rows, or
    fb_rt's estimate in stored units, theta its parameter), the law of ctl,
    pi and v_ref (u_raw, and d, the integrator derivative), the clamp, the
    drift of cache, then y_m and the rows of the bank, the terms of zero
    coefficients dropped and every constant an argument of make(...).

    The segment takes steps k to stop - 1 from the vector p, with st the
    state of the feed's exact step (the stack of fb_rt, else None) and
    theta the fed-back theta.  At each sample instant, due and every
    stride-th step on, it extends the float array out by [*p, u, d,
    u != u_raw] and fout by st, and at each step every other stack's array
    in tapes by its tape row.  It returns stop, 0 and the vector, st and
    theta there; or the first step whose vector (why 1) or feed state
    (why 2) is not finite, its sample and tape rows taken."""
    n, R, W = bank.n, range(bank.n), bank.base + bank.size
    qd = cache.qd.tolist()
    consts, lines, twin = {}, [], {}  # make's arguments; the block; a mirrored entry's upper twin

    def bound(name, value):  # a constant of the epoch, bound by make(...)
        consts[name] = value
        return name

    def nonzero(name, value):  # a source term, unless it is exactly zero
        return [bound(name, value)] if value != 0.0 else []

    def total(terms):  # summed left to right
        return " + ".join(terms) or "0.0"

    def ix(block, i, j=None):  # the index of block[i] or block[i, j] in the vector
        return bank.base + block.sl.start + (i if j is None else i * n + j)

    def sym(block, i, j):  # a symmetric block's entry, read from its upper triangle
        return f"v{ix(block, min(i, j), max(i, j))}"

    def put(k, expr):  # entry k of the derivative
        lines.append(f"k{k} = {expr}")

    def mirrored(block, expr):  # a symmetric block: (i, j) for i <= j staged, (j, i) its twin
        for i in R:
            for j in R[i:]:
                put(ix(block, i, j), expr(i, j))
                if i < j:
                    twin[ix(block, j, i)] = ix(block, i, j)

    if pi is None:  # classical PI on the output-voltage error
        put(n, f"{bound('v_ref', v_ref)} - {bound('q3', qd[3])} * v3")
        nk, ki = -ctl.kp, ctl.ki
    else:
        x = [f"v{i}" for i in R]
        if fb_rt is not None:  # the estimate (xi + Phi theta, or x_hat) in stored units
            est, Phi = fb_rt.estimate
            for i in R:
                e = f"v{ix(est, i)}"
                if Phi is not None:
                    e = f"({e} + ({' + '.join(f'v{ix(Phi, i, j)} * t{j}' for j in R)}))"
                lines.append(f"x{i} = {e} / {bound(f'q{i}', qd[i])}")
            x = [f"x{i}" for i in R]
        cmat, x_star = pi.Cmat[0].tolist(), pi.x_star.tolist()
        put(n, " + ".join(f"{bound(f'c{i}', cmat[i])} * ({x[i]} - {bound(f's{i}', x_star[i])})" for i in R))
        nk, ki = -pi.Kp.item(), pi.Ki.item()
    # u = min(max(u_raw, lo), hi) by the comparisons those builtins make, at a tenth of their cost
    lines += [f"u_raw = {bound('nk', nk)} * k{n} - {bound('ki', ki)} * v{n}",
              f"u = {bound('lo', ctl.u_min)} if lo > u_raw else u_raw",
              f"u = {bound('hi', ctl.u_max)} if hi < u else u"]
    for i, row in enumerate(cache.rows):  # (L0_i1..L0_i4, L1_i1..L1_i4, b0_i)
        put(i, total([f"({bound(f'L0_{i}{j}', row[j])} + u * {bound(f'L1_{i}{j}', row[n + j])}) * v{j}"
                      for j in R if row[j] != 0.0 or row[n + j] != 0.0] + nonzero(f"b{i}", row[2 * n])))
    if bank.size:
        A0, A1, bo = (m.ravel().tolist() for m in (cache.A0_obs, cache.A1_obs, cache.b0_obs))
        live = [(i, j) for i in R for j in R if A0[i * n + j] != 0.0 or A1[i * n + j] != 0.0]
        lines.append(f"y_m = {bound('c_y', cache.c_y)} * v3")
        lines += [f"a{i}{j} = {bound(f'A0_{i}{j}', A0[i * n + j])} + u * {bound(f'A1_{i}{j}', A1[i * n + j])}"
                  for i, j in live]

        def times(i, column):  # the terms of (A column)_i
            return [f"a{i}{k} * {column[k]}" for k in R if (i, k) in live]

        def Ax(block, i):  # (A x)_i + b_i for the vector block x
            return total(times(i, [f"v{ix(block, k)}" for k in R]) + nonzero(f"bo{i}", bo[i]))

        if bank.xi is not None:
            for i in R:
                put(ix(bank.xi, i), Ax(bank.xi, i))
        if bank.Phi is not None:
            for i in R:
                for j in R:
                    put(ix(bank.Phi, i, j), total(times(i, [f"v{ix(bank.Phi, k, j)}" for k in R])))
        if bank.filters:
            c = [f"v{ix(bank.Phi, 3, j)}" for j in R]  # C Phi
            lines.append(f"e = y_m - v{ix(bank.xi, 3)}")
        for f, (lam, filt) in enumerate(bank.filters.items()):
            lam = bound(f"lam{f}", lam)
            for i in R:
                put(ix(filt.Y, i), f"{lam} * ({c[i]} * e - v{ix(filt.Y, i)})")
            mirrored(filt.Omega, lambda i, j: f"{lam} * ({c[i]} * {c[j]} - v{ix(filt.Omega, i, j)})")
        for g, kbf in enumerate(bank.kbfs):
            S = kbf.S.tolist()
            lines.append(f"e{g} = y_m - v{ix(kbf.x, 3)}")
            for i in R:
                put(ix(kbf.x, i), f"({Ax(kbf.x, i)}) + {sym(kbf.H, i, 3)} * e{g}")
            lines += [f"p{i}{j} = " + total(times(i, [sym(kbf.H, k, j) for k in R])) for i in R for j in R]
            mirrored(kbf.H, lambda i, j: f"((p{j}{i} + p{i}{j}) - {sym(kbf.H, i, 3)} * {sym(kbf.H, 3, j)})"
                                         f" + {bound(f's{g}_{i}{j}', S[i][j])}")
    staged = [k for k in range(W) if k not in twin]
    unpack = lambda name: ", ".join(f"{name}{k}" if k not in twin else "_" for k in range(W))
    result = lambda expr: "[" + ", ".join(expr(twin.get(k, k)) for k in range(W)) + "]"
    ys, ts = result(lambda k: f"y{k}"), ", ".join(f"t{j}" for j in R)
    theta = [f"{ts} = theta"] if fb_rt is not None and fb_rt.estimate[1] else []
    thetas = f"({ts})" if theta else "()"
    loop = next((stack for stack in stacks if stack.rt is fb_rt), None)  # the feed's exact step
    riding = [stack for stack in stacks if stack is not loop]

    def reads(stack):  # the tape row of a step of stack, read from the vector at its start
        if stack.raw:
            phi, xi3 = stack.read
            return [f"y{i}" for i in range(phi.start, phi.stop)] + [f"{bound('c_y', cache.c_y)} * y3 - y{xi3}"]
        return [f"y{twin.get(i, i)}" for i in range(stack.read.start, stack.read.stop)]

    def sample(u_raw, d, *law):  # the sample row, u = min(max(u_raw, lo), hi) as in the stage
        return ["if k == due:", *(f"    {s}" for s in [
            "due = due + stride", *law, f"u = lo if lo > {u_raw} else {u_raw}", "u = hi if hi < u else u",
            f"out.extend(({ys[1:-1]}, u, {d}, u != {u_raw}))", *(["fout.extend(st)"] if loop else [])])]

    def finite(names, why):  # their sum is finite, else each is, or the step fails
        return [f"if not isfinite({' + '.join(names)}) and not all(map(isfinite, ({', '.join(names)},))):",
                f"    return k, {why}, None, st, None"]

    # a step starts with observer feedback's sample, a law call of its own before theta is refreshed
    # (ROADMAP item 5e), the riders' tape rows and a GPEBO-kind feed's theta (fct_combine, theta_hat0 = 0)
    body = sample("u_raw", "d", f"u_raw, d = segment.stage({ys}, {thetas})[1:]") if fb_rt is not None else []
    body += [f"ta{r}(({', '.join(reads(stack))},))" for r, stack in enumerate(riding)]
    feed = ts.split(", ")  # the names the feed's state unpacks to: a gradient's is its theta
    if loop is not None and loop.gpebo:
        feed = ["om", *(f"th{j}" for j in R)]
        body += ([f"oc = {bound('omc', 1.0 - fb_rt.spec.mu)} if omc < om else om", "oz, den = oc * 0.0, 1.0 - oc",
                  *(f"t{j} = (th{j} - oz) / den" for j in R)] if fb_rt.fct else [f"{ts} = {', '.join(feed[1:])}"])
    # then the stages (the fourth only accumulates), the state loop's sample, the feed's step, the checks
    body += [" = ".join(f"acc{k}" for k in staged) + " = -0.0",
             "for w, c in stages:",
             *(f"    {s}" for s in [*lines, "if w == 1.0:", f"    u0, d0 = u_raw, k{n}"]),
             *(f"    {s}" for k in staged for s in (f"acc{k} = acc{k} + w * k{k}", f"v{k} = y{k} + c * k{k}")),
             *lines, *(f"acc{k} = acc{k} + k{k}" for k in staged),
             *(sample("u0", "d0") if fb_rt is None else []),
             *(f"v{k} = y{k} + h6 * acc{k}" for k in staged)]
    if loop is not None:
        step = bound("drem", drem_scalar_step) if loop.gpebo else bound(
            "gstep", lambda st, row, gamma, h: loop.advance(np.array(row), np.array(st), gamma, h).tolist())
        body.append(f"st = {step}(st, ({', '.join(reads(loop))}), {bound('gam', fb_rt.spec.gamma)}, h)")
    if _check is not None:  # the check variant
        body += [*(["st = [*st]"] if loop else []), f"res = {result(lambda k: f'v{k}')}",
                 f"{bound('check', _check)}(segment, k, h, {ys}, res, u0, d0, {thetas}, st)", f"{unpack('v')} = res"]
    body += finite([f"v{k}" for k in staged], 1)
    if loop is not None:
        body += [f"{', '.join(feed)} = st", *finite(feed, 2)]
    body += [f"y{k} = v{k}" for k in staged]
    bound("isfinite", math.isfinite)
    extends = [", ".join(f"ta{r}" for r in range(len(riding))) + ", = [tape.extend for tape in tapes]"] if riding else []
    source = [
        f"def make({', '.join(consts)}):",
        "    def stage(v, theta):",
        *(f"        {s}" for s in [*theta, f"{unpack('v')} = v", *lines]),
        f"        return {result(lambda k: f'k{k}')}, u_raw, k{n}",
        "    def segment(p, k, stop, due, stride, h, st, theta, out, fout, tapes):",
        *(f"        {s}" for s in [f"{unpack('y')} = p", f"{unpack('v')} = p", *theta,
                                   *([f"{', '.join(feed)} = st"] if loop else []), *extends,
                                   "stages, h6 = ((1.0, 0.5 * h), (2.0, 0.5 * h), (2.0, h)), h / 6.0",
                                   "for k in range(k, stop):"]),
        *(f"            {s}" for s in body),
        f"        return stop, 0, {ys}, st, {thetas}",
        "    segment.stage = stage",
        "    return segment",
        "",
    ]
    return _compiled("\n".join(source), "make")(*consts.values())


class _RegressionFilter:
    """One (Y, Omega) regression filter pair with pole lam, in rows the
    bank reserves, Omega right after Y."""

    def __init__(self, lam: float, bank: "_Bank"):
        self.lam = lam
        self.Y, self.Omega = bank.add(bank.n), bank.add(bank.n, bank.n)


class _Bank:
    """The estimator rows of the Runge-Kutta vector and their one owner,
    which lays them out and starts them.  Its blocks are the open-loop copy
    xi (with Phi when an estimator reads it), driven by u alone; one
    `_RegressionFilter` per distinct pole, driven by u, y_m and lam; and
    each Kalman-Bucy filter's block (`_KbfRuntime`).  Each is integrated
    once, however many estimators read it.  The rows follow the plant rows
    and the integrator in the vector, from entry `base` on.

    The rows are Python floats, differentiated in the epoch's generated
    segment (`_epoch_step`) for the bank's layout, which also reads the
    exact steps' tape rows from them (`_ExactSteps.read`); every other
    reader reads a (K, size) stack of sampled rows, through a `_Block`.

    An estimator runtime only reads the rows.  It gives `estimate`, the
    blocks of its estimate in volts and amperes when it closes the loop (x,
    or xi and Phi for xi + Phi theta), and `record(ys, cols, deltas)`, its
    logged arrays from the sampled rows, the sampled columns of the exact
    steps (`_ExactSteps`) by step key and the store's sampled Delta by
    filter pole (`_Store`); one stepped exactly holds its `step_key`."""

    def __init__(self, n: int):
        self.n = n
        self.base = n + 1  # the rows' first entry in the Runge-Kutta vector
        self.size = 0  # the number of rows reserved
        self.xi = self.Phi = None  # the copy's blocks, once reserved
        self.filters = {}  # lam -> _RegressionFilter
        self.kbfs = []  # the Kalman-Bucy filters, in run order

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
        elsewhere."""
        y = np.zeros(self.size)
        if self.Phi is not None:
            self.Phi(y)[:] = np.eye(self.n)
        for kbf in self.kbfs:
            kbf.H(y)[:] = kbf.H0
        return y.tolist()


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
        self.estimate = bank.xi, bank.Phi
        self.step_key = _step_key(spec)

    def theta(self, omega, theta_hat):
        """The estimate of theta: the finite-time combination, or theta_hat."""
        if self.fct:
            return fct_combine(theta_hat, 0.0, omega, self.spec.mu)  # theta_hat starts at zero
        return theta_hat

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
        self.estimate = bank.xi, None

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
        self.estimate = self.x, None

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
        self.estimate = bank.xi, bank.Phi
        self.step_key = _step_key(spec)

    def record(self, ys, cols, deltas):
        rec = {"xi": self.bank.xi(ys), "Phi": self.bank.Phi(ys), "theta_hat": cols[self.step_key]}
        return rec["xi"] + _matvec(rec["Phi"], rec["theta_hat"]), rec


class _ExactSteps:
    """The exactly stepped states of one kind on one filter or regression,
    one row per step key (`_step_key`), shared by the run's estimators of
    that key: (omega, theta_hat) for the GPEBO kinds, theta for a gradient
    estimator.  Each step reads inputs frozen at its start, one tape row
    (the entries `read`): the filter's (Y, Omega), which the GPEBO kinds
    mix by DREM, or a raw gradient's C Phi = Phi[3] and y_m - C xi =
    y_m - xi[3].  The feed's stack, the feeding estimator's gain alone,
    holds its one row as a list of floats, which the segment steps: a
    GPEBO kind by `drem_scalar_step` on floats, a gradient by `advance`.
    A riding stack holds its rows as an array and keeps the tape rows of
    its steps, stepped bit for bit alike by `scalar_steps`, `raw_steps`
    or, for an extended gradient, `advance` (`flush`)."""

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
        reserve its `buffers`; the feed's one row is a list of floats."""
        for name, shape in self.buffers(K, rides).items():
            setattr(self, name, np.empty(shape))
        self.gammas = [key[-1] for key in self.rows]
        first = [1.0] * self.gpebo + [0.0] * self.rt.bank.n
        self.state = np.array([first] * len(self.gammas)) if rides else first
        if self.gpebo and rides:  # the gains of `scalar_steps`
            self.column = np.array(self.gammas, dtype=float)[:, None]

    def advance(self, row, theta, gamma, h: float):
        """A gradient's theta after one step of the gain gamma on the tape
        row `row`, an array: one `gradient_update` call per gain and step
        (a stacked rank-one step would sum phi @ theta in another order)."""
        n = self.rt.bank.n
        frozen = ({"CPhi": row[None, :n], "y_shift": row[n]} if self.raw
                  else {"Omega": row[n:].reshape(n, n), "Y": row[:n]})
        return gradient_update(theta, gamma, self.rt.spec.mode, h, **frozen)

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
            stack = stacks.get(key) or stacks.setdefault(key, _ExactSteps(rt))
            stack.rows.setdefault(rt.step_key, len(stack.rows))
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


def _epoch(store: _Store, ctl: ControllerSpec, params, model: PHModel, v_ref: float, t: float, cache, bank, fb_rt,
           stacks=()):
    """The generated segment (`_epoch_step`, on the exact steps stacks) of
    the epoch that starts at time t with reference v_ref and the circuit
    values params, its law on the plant rows or, on observer feedback, on
    fb_rt's estimate; the store's epoch table gains the PI-PBC state (None
    for the classical PI).  An unreachable v_ref raises
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
    store.epochs.append((pi, v_ref, params))
    return _epoch_step(bank, cache, ctl, pi, v_ref, fb_rt, stacks)


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

    y = bank.start()  # the estimator rows at t = 0
    stacks = _exact_steps(stepped, fb_rt)
    loop = next((stack for stack in stacks if stack.rt is fb_rt), None)  # the feed's gain, stepped in the segments
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
    segment = _epoch(store, ctl, params, model, ref_now, 0.0, cache, bank, fb_rt, stacks)
    epoch = 0

    from array import array  # here, not at import: `equilibrium` and `presets list` run no scenario
    stride, rows = scn.stride, store.rows
    # the feed's state and the fed-back theta (theta_hat0, or a gradient's
    # state, both zero); what a segment samples and tapes, at most _CHUNK steps
    st, theta = (loop.state, [0.0] * bank.n) if loop is not None else (None, ())
    out, fout, tapes = array("d"), array("d"), [array("d") for _ in riding]  # rows end to end
    taken = k0 = 0  # the samples taken and the first step on the riders' tapes

    def flush(k: int):
        """Step the riders over their tapes up to step k; the first step after
        which a row is not finite raises, with the samples up to it."""
        nonlocal taken, k0
        T = k - k0
        for stack, tape in zip(riding, tapes):
            stack.tape.reshape(-1)[: T * stack.width] = np.frombuffer(tape)[: T * stack.width]
            del tape[:]
        if not T:
            return
        failed = [j for stack in riding if (j := stack.flush(k0, T, stride, h)) is not None]
        k0 = k
        if failed:
            t = min(failed) * h
            taken = min(failed) // stride + 1
            raise NonFiniteState(f"non-finite estimator state after the step to t={t + h:g} s")

    try:
        # an overflow or invalid value shows as a non-finite state, which
        # the segments' checks report; numpy's warnings are silenced once here
        with np.errstate(over="ignore", invalid="ignore"):
            k = 0
            while True:
                if k in events_at:  # the riders reached the event at the last flush
                    for ev in events_at[k]:
                        epoch += 1
                        if ev.kind == "load":
                            params = replace(params, r=ev.value)
                            model = build_cuk(params)
                            cache.rebuild(model)
                        else:
                            ref_now = ev.value
                        segment = _epoch(store, ctl, params, model, ref_now, k * h, cache, bank, fb_rt, stacks)
                if k == N:
                    break
                stop = min(k + _CHUNK, N, *(e for e in events_at if e > k))  # the next flush, event or N
                due = -(-k // stride) * stride  # the first sample instant from k on
                k, why, v, st, theta = segment(v, k, stop, due, stride, h, st, theta, out, fout, tapes)
                at = slice(taken, taken + len(out) // (rows.shape[1] - 1))  # the segment's samples, kept
                rows[at, :-1], rows[at, -1] = np.frombuffer(out).reshape(-1, rows.shape[1] - 1), epoch
                if loop is not None:
                    loop.samples[at, 0] = np.frombuffer(fout).reshape(-1, loop.slots)
                taken = at.stop
                del out[:], fout[:]
                flush(k)  # up to k: the riders' step k comes after a failing one
                if why:
                    t = k * h
                    raise NonFiniteState(f"non-finite state after step ending at t={t + h:g} s" if why == 1
                                         else f"non-finite estimator state after the step to t={t + h:g} s")
            u_raw, d = segment.stage(v, theta)[1:]  # the sample at N, a law call of its own
            u = min(max(u_raw, ctl.u_min), ctl.u_max)
            rows[taken] = [*v, u, d, u != u_raw, epoch]
            if loop is not None:
                loop.samples[taken] = st
            taken += 1
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
