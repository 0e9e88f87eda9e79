"""Cuk converter: a fourth-order inverting DC-DC topology with one switch.

Averaged equations in the physical variables (i1, v2, i3, v4):

    L1 di1/dt = -r1 i1 - (1 - u) v2 + E
    C1 dv2/dt =  (1 - u) i1 + u i3
    L2 di3/dt = -r2 i3 - u v2 - v4
    C2 dv4/dt =  i3 - v4 / r

In the stored-variable coordinates x = (L1 i1, C1 v2, L2 i3, C2 v4) this is
the port-Hamiltonian form of `phmodel` with a single duty ratio.  The only
sensor is a voltmeter on the load: y_m = v4 = x4 / C2.

A constant negative output voltage v4 = x4_star is held by the duty u
solving

    rho(u) = x4_star * (r1 u^2 + (r + r2)(1 - u)^2) + E r u (1 - u) = 0

which expands to the quadratic a2 u^2 + a1 u + a0 = 0 solved below.  The
solver verifies every root against a grid-scan + bisection root finder on
rho before accepting it: the closed form and the scan must agree.

`CukError` is a request that validation refuses before any solve, its
subclass `InfeasibleEquilibrium` a target no duty ratio in (0, 1) holds,
and `OracleMismatch` (a `RuntimeError`) a root the scan does not confirm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .phmodel import ModelError, PHModel, make_equilibrium_pair, validate_model

__all__ = [
    "CukParams",
    "TABLE_DEFAULTS",
    "ROOT_POLICIES",
    "CukError",
    "InfeasibleEquilibrium",
    "OracleMismatch",
    "check_params",
    "build_cuk",
    "quadratic_coefficients",
    "steady_state_oracle",
    "solve_equilibrium",
    "physical_equilibrium",
]


class CukError(ValueError):
    """A circuit value or a request the converter refuses."""


class InfeasibleEquilibrium(CukError):
    """No admissible duty ratio holds the requested output voltage.  A run
    sets `epoch_time` to the start of the epoch that asked."""

    def __init__(self, message: str, discriminant: float = math.nan, epoch_time: float | None = None):
        super().__init__(message)
        self.discriminant = discriminant
        self.epoch_time = epoch_time


class OracleMismatch(RuntimeError):
    """Closed-form root and scan-based root disagree beyond tolerance."""


@dataclass
class CukParams:
    E: float = 12.0  # source voltage [V]
    r1: float = 1.7  # series resistance of L1 [ohm]
    r2: float = 1.7  # series resistance of L2 [ohm]
    r: float = 20.0  # load resistance [ohm]
    L1: float = 10e-3  # input inductance [H]
    L2: float = 10e-3  # output inductance [H]
    C1: float = 22e-6  # transfer capacitance [F]
    C2: float = 22.9e-6  # output capacitance [F]


TABLE_DEFAULTS = CukParams()

# which admissible duty ratio becomes u_star (see solve_equilibrium)
ROOT_POLICIES = ("smallest", "largest")


def check_params(params: CukParams) -> None:
    """Every circuit value must be finite and positive; the series
    resistances r1 and r2 may also be zero.  NaN fails both bounds.  A
    value `build_cuk` divides by needs a finite reciprocal (not 5e-324)."""
    for key, value in vars(params).items():
        may_be_zero = key in ("r1", "r2")
        if not ((value >= 0.0 if may_be_zero else value > 0.0) and value < math.inf):
            bound = "nonnegative" if may_be_zero else "positive"
            raise CukError(f"{key} must be {bound} and finite, got {value}")
        if key in ("r", "L1", "L2", "C1", "C2") and not 1.0 / value < math.inf:
            raise CukError(f"{key} must have a finite reciprocal, got {value}")


def build_cuk(params: CukParams = TABLE_DEFAULTS) -> PHModel:
    """Assemble and validate the port-Hamiltonian matrices of the converter."""
    check_params(params)
    J0 = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    J1 = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    R = np.diag([params.r1, 0.0, params.r2, 1.0 / params.r])
    Q = np.diag([1.0 / params.L1, 1.0 / params.C1, 1.0 / params.L2, 1.0 / params.C2])
    G0 = np.zeros((4, 4))
    G0[0, 0] = 1.0  # the source feeds the first inductor only
    G1 = np.zeros((4, 4))
    E = np.array([params.E, 0.0, 0.0, 0.0])
    C = np.array([[0.0, 0.0, 0.0, 1.0 / params.C2]])  # voltmeter: y = v4 [V]
    return validate_model(PHModel(J=[J0, J1], R=R, Q=Q, G=[G0, G1], E=E, C=C))


def quadratic_coefficients(params: CukParams, x4_star: float):
    """Coefficients (a2, a1, a0) of the duty-ratio quadratic obtained by
    eliminating the states from the steady-state equations."""
    a0 = (params.r + params.r2) * x4_star
    a1 = params.E * params.r - 2.0 * (params.r + params.r2) * x4_star
    a2 = (params.r1 + params.r + params.r2) * x4_star - params.E * params.r
    return a2, a1, a0


def _rho(params: CukParams, x4_star: float, u):
    """Steady-state residual in u: zero exactly at admissible duty ratios."""
    one_m_u = 1.0 - u
    return (
        x4_star * (params.r1 * u * u + (params.r + params.r2) * one_m_u * one_m_u)
        + params.E * params.r * u * one_m_u
    )


def steady_state_oracle(
    params: CukParams, x4_star: float, grid: int = 10_000, tol: float = 1e-12
) -> list:
    """Roots of rho in the open interval (0, 1), found without the closed
    form: scan a grid (`_scan_points`) for sign changes, then bisect each
    bracket down to `tol`.  Returns the sorted roots (0, 1 or 2 of them)."""
    us = _scan_points(grid)
    vals = _rho(params, x4_star, us)
    roots = []
    exact = np.flatnonzero(vals == 0.0)
    for k in exact:
        roots.append(float(us[k]))
    sign = np.sign(vals)
    change = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    for k in change:
        lo, hi = float(us[k]), float(us[k + 1])
        flo = _rho(params, x4_star, lo)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = _rho(params, x4_star, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


@functools.lru_cache(maxsize=None)
def _scan_points(grid: int) -> np.ndarray:
    """The oracle's scan points, read-only: a uniform grid of `grid`
    intervals, and beyond its inner points 400 points graded geometrically
    toward 0 and 400 toward 1, down to the least double above 0 and the
    greatest below 1, so a root as close to either end as a double can be
    is bracketed too."""
    uniform = np.linspace(0.0, 1.0, grid + 1)[1:-1]
    ends = np.geomspace(np.finfo(float).smallest_subnormal, uniform[0], 400, endpoint=False)
    tops = np.geomspace(np.finfo(float).epsneg, 1.0 - uniform[-1], 400, endpoint=False)
    us = np.concatenate([ends, uniform, 1.0 - tops[::-1]])
    us = us[np.diff(us, prepend=0.0) > 0.0]  # 1 - tops repeats a double where tops are finer than its spacing
    us.flags.writeable = False
    return us


def _quadratic_roots(a2: float, a1: float, a0: float):
    """Numerically stable real roots of a2 u^2 + a1 u + a0 (a2 != 0)."""
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return None, disc
    sq = np.sqrt(disc)
    q = -0.5 * (a1 + np.copysign(sq, a1))
    if q == 0.0:  # a1 == 0 and disc == 0
        return [0.0, 0.0], disc
    return sorted([q / a2, a0 / q]), disc


def solve_equilibrium(
    params: CukParams,
    x4_star: float,
    root_policy: str = "smallest",
    oracle_tol: float = 1e-9,
):
    """Solve for the operating point holding the output voltage at x4_star.

    Returns (pair, roots): the validated equilibrium pair (states in
    flux/charge coordinates) and both quadratic roots inside (0, 1).

    root_policy picks which admissible duty ratio becomes u_star:
    "smallest" (default; the lower duty gives the smaller circulating
    currents) or "largest".

    Raises InfeasibleEquilibrium when no real root lies in (0, 1) or the
    state at the root overflows the model equations, and OracleMismatch if
    the closed-form roots disagree with the independent scan-and-bisect
    root finder by more than oracle_tol.
    """
    if x4_star >= 0.0:
        raise CukError("the converter inverts: x4_star must be negative")
    if root_policy not in ROOT_POLICIES:
        raise CukError(f"unknown root policy {root_policy!r}")
    a2, a1, a0 = quadratic_coefficients(params, x4_star)
    roots, disc = _quadratic_roots(a2, a1, a0)
    if roots is None:
        raise InfeasibleEquilibrium(f"no equilibrium at x4_star={x4_star:g} V (discriminant {disc:g} < 0)", disc)
    # polish with Newton on the quadratic so the state residual reaches
    # rounding level rather than just oracle_tol; a root that is not
    # finite turns NaN here, and falls outside (0, 1) without a warning
    polished = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u in roots:
            for _ in range(2):
                d = 2.0 * a2 * u + a1
                if d != 0.0:
                    u = u - (a2 * u * u + a1 * u + a0) / d
            polished.append(u)
    inside = sorted(u for u in polished if 0.0 < u < 1.0)
    if not inside:
        raise InfeasibleEquilibrium(f"quadratic roots {[float(u) for u in polished]} all fall outside (0, 1)", disc)
    scanned = steady_state_oracle(params, x4_star)
    for u in inside:
        if not scanned or min(abs(u - s) for s in scanned) > oracle_tol:
            raise OracleMismatch(
                f"closed-form root {float(u)!r} not confirmed by scan roots {scanned!r}"
            )
    u_star = inside[0] if root_policy == "smallest" else inside[-1]
    # an overflow in the state or the model equations shows as a nan residual
    with np.errstate(over="ignore", invalid="ignore"):
        i1, v2, i3, v4 = _steady_signals(params, x4_star, u_star)
        x_star = np.array([params.L1 * i1, params.C1 * v2, params.L2 * i3, params.C2 * v4])
        try:
            pair = make_equilibrium_pair(build_cuk(params), x_star, [u_star], tol=oracle_tol)
        except ModelError as exc:
            raise InfeasibleEquilibrium(f"no equilibrium at x4_star={x4_star:g} V: {exc}", disc) from exc
    return pair, inside


def _steady_signals(params: CukParams, x4_star: float, u: float):
    """Physical steady-state signals (i1, v2, i3, v4) at duty u."""
    i1 = -u / (params.r * (1.0 - u)) * x4_star
    v2 = -(1.0 / u) * (1.0 + params.r2 / params.r) * x4_star
    i3 = x4_star / params.r
    return i1, v2, i3, x4_star


def physical_equilibrium(params: CukParams, x4_star: float, u_star) -> np.ndarray:
    """(i1*, v2*, i3*, v4*) in amperes and volts."""
    u = float(np.squeeze(np.asarray(u_star, dtype=float)))
    return np.array(_steady_signals(params, x4_star, u))
