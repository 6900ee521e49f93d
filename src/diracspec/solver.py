"""Adaptive integration of the first-order channel system.

The system for u = (u1, u2) is

    u1' = -L u1 - (Q - M) u2,
    u2' = (Q + M) u1 + L u2,

integrated either directly (Cartesian) or in polar coordinates
u = rho (cos theta, sin theta), where

    theta'    = Q + M cos(2 theta) + L sin(2 theta),
    (ln rho)' = M sin(2 theta) - L cos(2 theta).

The Cartesian system is linear, so one right-hand side serves any number of
solutions stacked as (u1, u2, u1, u2, ...): `integrate_cartesian` carries
one, `integrate_fundamental` two, and `propagate` one without sampling.
The polar form is obtained by substituting the polar representation into
the Cartesian equations; it is preferred on long ranges where Q dominates
W = sqrt(M^2 + L^2), because ln rho then varies slowly and the phase is
monotone.  Both forms go through the same adaptive DOP853 call and are
cross-validated in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .coefficients import ChannelSystem

__all__ = [
    "SolveConfig",
    "Trajectory",
    "FrobeniusInit",
    "PreconditionError",
    "integrate_cartesian",
    "integrate_pruefer",
    "integrate_fundamental",
    "propagate",
    "wronskian",
    "frobenius_init",
    "frobenius_radius",
    "s_reparam",
    "phase_derivative",
    "prefer_pruefer",
]


class PreconditionError(RuntimeError):
    """A solver operation was invoked outside its validity region."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


@dataclass(frozen=True)
class SolveConfig:
    """Integration window, tolerances and dense-output stride."""

    r_start: float
    r_end: float
    rtol: float = 1e-12
    atol: float = 1e-14
    max_step: float = math.inf
    stride: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if not self.r_start < self.r_end:
            raise ValueError("r_start must be below r_end")
        if self.stride <= 0.0:
            raise ValueError("stride must be positive")

    def grid(self, upper: Optional[float] = None) -> np.ndarray:
        hi = self.r_end if upper is None else min(upper, self.r_end)
        n = max(2, int(round((hi - self.r_start) / self.stride)) + 1)
        return np.linspace(self.r_start, hi, n)


@dataclass
class Trajectory:
    """A solved path through one channel.

    Both representations are populated whenever they are trustworthy; for
    Cartesian solves the unwrapped phase is reconstructed only when the
    sampling stride resolves it (no jumps beyond pi between samples).
    """

    grid: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    rho: np.ndarray
    theta: Optional[np.ndarray]
    mode: str
    channel: object
    s: Optional[np.ndarray] = None
    accepted_r: Optional[np.ndarray] = None
    accepted_theta: Optional[np.ndarray] = None
    status: int = 0
    message: str = ""
    nfev: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 0

    def norm_sq(self) -> np.ndarray:
        return self.u1 ** 2 + self.u2 ** 2

    def to_csv(self, path):
        Q, M, L, W = self.channel.coeffs(self.grid)
        theta = self.theta if self.theta is not None else np.full_like(self.grid, np.nan)
        header = "r,u1,u2,rho,theta,Q,M,L,W"
        data = np.column_stack([self.grid, self.u1, self.u2, self.rho, theta,
                                Q, M, L, W])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in data:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _linear_rhs(channel):
    """Right-hand side of the Cartesian system for stacked solutions
    (u1, u2, u1, u2, ...); the coefficients are evaluated once per call."""
    qml = channel.scalar_qml

    def rhs(r, y):
        Q, M, L = qml(r)
        a, b = Q + M, M - Q
        v = y.tolist()
        out = []
        for i in range(0, len(v), 2):
            u1, u2 = v[i], v[i + 1]
            out += (-L * u1 + b * u2, a * u1 + L * u2)
        return out

    return rhs


def _solve(rhs, r0, r1, y0, rtol, atol, max_step=math.inf, **kw):
    return solve_ivp(rhs, (r0, r1), y0, method="DOP853", rtol=rtol,
                     atol=atol, max_step=max_step, **kw)


def _solve_on_grid(channel, y0, cfg: SolveConfig):
    """Cartesian solve of stacked initial states, one Trajectory per state.

    A failure on the very first step leaves no sampled points at all; the
    trajectories then hold the initial point alone.
    """
    sol = _solve(_linear_rhs(channel), cfg.r_start, cfg.r_end, y0, cfg.rtol,
                 cfg.atol, cfg.max_step, t_eval=cfg.grid())
    grid, y = sol.t, sol.y
    if np.size(grid) == 0:
        grid, y = np.array([cfg.r_start]), y0[:, None]
    return [Trajectory(grid=grid, u1=u1, u2=u2, rho=np.hypot(u1, u2),
                       theta=_safe_unwrap(u1, u2), mode="cartesian",
                       channel=channel, status=int(sol.status),
                       message=str(sol.message), nfev=int(sol.nfev))
            for u1, u2 in zip(y[0::2], y[1::2])]


def integrate_cartesian(channel, u0, cfg: SolveConfig) -> Trajectory:
    """Integrate the channel system for the components (u1, u2).

    On coefficient blow-up the partial trajectory is returned with a
    nonzero status instead of raising.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (2,) or not np.any(u0):
        raise ValueError("u0 must be a nonzero 2-vector")
    return _solve_on_grid(channel, u0, cfg)[0]


def _safe_unwrap(u1, u2):
    theta = np.unwrap(np.arctan2(u2, u1))
    if np.max(np.abs(np.diff(theta)), initial=0.0) > 0.9 * np.pi:
        return None
    return theta


def integrate_pruefer(channel, rho0: float, theta0: float,
                      cfg: SolveConfig) -> Trajectory:
    """Integrate the polar form; the phase is stored unwrapped and the
    amplitude is propagated as ln rho so it stays positive by construction."""
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")

    qml = channel.scalar_qml

    def rhs(r, y):
        Q, M, L = qml(r)
        two = 2.0 * y[0]
        s2, c2 = math.sin(two), math.cos(two)
        return (Q + M * c2 + L * s2, M * s2 - L * c2)

    sol = _solve(rhs, cfg.r_start, cfg.r_end,
                 np.array([theta0, math.log(rho0)]), cfg.rtol, cfg.atol,
                 cfg.max_step, dense_output=True)
    grid = cfg.grid(upper=float(sol.t[-1]))
    theta, lnrho = sol.sol(grid)
    rho = np.exp(lnrho)
    return Trajectory(grid=grid, u1=rho * np.cos(theta), u2=rho * np.sin(theta),
                      rho=rho, theta=theta, mode="pruefer", channel=channel,
                      accepted_r=sol.t, accepted_theta=sol.y[0],
                      status=int(sol.status), message=str(sol.message),
                      nfev=int(sol.nfev))


def integrate_fundamental(channel, cfg: SolveConfig, U0=None):
    """Integrate a fundamental system (the columns of U0, default the
    identity) in one pass.

    Returns a pair of trajectories sharing the same grid, suitable for
    Wronskian checks and for building arbitrary solutions by superposition.
    """
    U0 = np.eye(2) if U0 is None else np.asarray(U0, dtype=float)
    return tuple(_solve_on_grid(channel, U0.T.ravel(), cfg))


def propagate(channel, u0, r0: float, r1: float, rtol: float = 1e-10,
              atol: float = 1e-12) -> np.ndarray:
    """Carry a state vector from r0 to r1 (either direction) and return the
    endpoint value; used by shooting-style searches."""
    sol = _solve(_linear_rhs(channel), r0, r1, np.asarray(u0, dtype=float),
                 rtol, atol)
    if sol.status != 0:
        raise PreconditionError(f"propagation from {r0:g} to {r1:g} failed: "
                                f"{sol.message}")
    return sol.y[:, -1]


def wronskian(t1: Trajectory, t2: Trajectory) -> np.ndarray:
    """u1(1) u2(2) - u2(1) u1(2) on the shared grid; its relative drift
    measures integration quality because the exact value is constant."""
    if not np.array_equal(t1.grid, t2.grid):
        raise ValueError("trajectories must share a grid; re-interpolation "
                         "is not supported")
    return t1.u1 * t2.u2 - t1.u2 * t2.u1


@dataclass(frozen=True)
class FrobeniusInit:
    u0: np.ndarray
    r0: float
    exponent: int
    dominance: float


def frobenius_init(channel: ChannelSystem, r0: float,
                   dominance_factor: float = 1e3) -> FrobeniusInit:
    """Initial data for the solution recessive at the origin.

    Near r = 0 the angular term k/r dominates and the recessive solution
    scales like r^|k|; the leading component and its first correction follow
    from matching powers of r in the system.  Requires |k|/r0 to dominate
    the regular part of the coefficients by `dominance_factor`.
    """
    if not isinstance(channel, ChannelSystem):
        raise TypeError("recessive initialization needs an angular channel")
    k = channel.k
    Q0, M0, _, _ = channel.coeffs(r0)
    bound = max(abs(Q0 - M0), abs(Q0 + M0), 1e-300)
    dominance = (abs(k) / r0) / bound
    if dominance < dominance_factor:
        suggestion = abs(k) / (dominance_factor * bound)
        raise PreconditionError(
            f"|k|/r0 = {abs(k) / r0:.3g} does not dominate the regular "
            f"coefficients (need factor {dominance_factor:g}); "
            f"try r0 <= {suggestion:.3g}", suggestion=suggestion)
    if k > 0:
        u0 = np.array([-(Q0 - M0) * r0 / (2 * k + 1), 1.0])
    else:
        u0 = np.array([1.0, (Q0 + M0) * r0 / (2 * abs(k) + 1)])
    u0 /= np.hypot(u0[0], u0[1])
    return FrobeniusInit(u0=u0, r0=float(r0), exponent=abs(k),
                         dominance=float(dominance))


def frobenius_radius(channel: ChannelSystem, dominance_factor: float = 1e3,
                     r_init: float = 1e-3, max_iter: int = 60) -> FrobeniusInit:
    """Shrink r0 from `r_init` until the dominance guard accepts it."""
    r0 = r_init
    for _ in range(max_iter):
        try:
            return frobenius_init(channel, r0, dominance_factor)
        except PreconditionError as err:
            r0 = min(err.suggestion * 0.5, r0 * 0.25)
    raise PreconditionError("could not find an admissible starting radius")


def s_reparam(channel, traj: Trajectory, refine: int = 4) -> Trajectory:
    """Attach the integrated-coefficient variable s(r) = int_{r0}^r Q.

    Requires Q > 0 on the trajectory range so that s is strictly monotone.
    The quadrature runs on a `refine`-times subdivided copy of the grid to
    keep the cumulative error well below downstream tolerances.
    """
    grid = traj.grid
    offs = np.arange(refine) / refine
    rr = np.append((grid[:-1, None] + np.diff(grid)[:, None] * offs).ravel(),
                   grid[-1])
    Q = channel.coeffs(rr)[0]
    if np.any(Q <= 0.0):
        bad = float(rr[np.argmax(Q <= 0.0)])
        raise PreconditionError(f"Q is not positive at r = {bad:g}")
    s = cumulative_trapezoid(Q, rr, initial=0.0)[::refine]
    return replace(traj, s=s)


def phase_derivative(channel, r, theta):
    """Right-hand side of the phase equation, vectorized over samples."""
    Q, M, L, _ = channel.coeffs(r)
    return Q + M * np.cos(2.0 * theta) + L * np.sin(2.0 * theta)


def prefer_pruefer(channel, r_lo: float, r_hi: float, factor: float = 10.0) -> bool:
    """Heuristic representation choice: polar once Q dominates W."""
    rs = np.geomspace(max(r_lo, 1e-12), r_hi, 16)
    Q, _, _, W = channel.coeffs(rs)
    return bool(np.all(Q > factor * W))
