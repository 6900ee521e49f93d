"""Adaptive integration of the first-order channel system.

The system for u = (u1, u2) is

    u1' = -L u1 - (Q - M) u2,
    u2' = (Q + M) u1 + L u2,

integrated either directly (Cartesian) or in polar coordinates
u = rho (cos theta, sin theta), where

    theta'    = Q + M cos(2 theta) + L sin(2 theta),
    (ln rho)' = M sin(2 theta) - L cos(2 theta).

The system u' = A u, with A = [[-L, M - Q], [Q + M, L]], is linear and
traceless.  `integrate_fundamental`, `propagate` and `integrate_pruefer`
step it with one propagator: a product of fourth-order Magnus steps
exp(Omega), each built in closed form from A at two Gauss nodes and one
commutator (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009); every factor has determinant 1,
so det Phi = 1 holds to rounding.  Because the system is linear, the
step-doubling error estimate of a step does not depend on the state, and
the steps are refined for all radii at once; `rtol` is that per-step
tolerance.  `integrate_cartesian` still steps its one state with adaptive
DOP853.

The polar form, preferred on long ranges where Q dominates
W = sqrt(M^2 + L^2), is read off the same Magnus steps: each half step
turns the state by an angle known in closed form.  `cumulative_norms` runs
on the same steps too, adding Simpson's rule for int |u|^2 over each.
Every phase integral is the composite Simpson rule `cumulative_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

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
    "cumulative_norms",
    "wronskian",
    "frobenius_init",
    "frobenius_radius",
    "cumulative_integral",
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
    """Integration window, tolerances and output-grid stride.

    For the Magnus propagator `rtol` is the per-step doubling tolerance and
    `max_step` caps its first partition; `atol` acts on `integrate_cartesian`.
    """

    r_start: float
    r_end: float
    rtol: float = 1e-12
    atol: float = 1e-14
    max_step: float = math.inf
    stride: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if not 0.0 < self.r_start < self.r_end:
            raise ValueError("need 0 < r_start < r_end")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if not self.stride > 0.0:
            raise ValueError("stride must be positive")

    def grid(self) -> np.ndarray:
        n = max(2, int(round((self.r_end - self.r_start) / self.stride)) + 1)
        return np.linspace(self.r_start, self.r_end, n)


@dataclass
class Trajectory:
    """A solved path through one channel.

    Both representations are populated whenever they are trustworthy; for
    Cartesian solves the unwrapped phase is reconstructed only when the
    sampling stride resolves it (no jumps beyond pi between samples).

    `nfev` counts right-hand-side evaluations of `integrate_cartesian` and,
    on the Magnus propagator, the radii at which the coefficients were
    evaluated, rejected trial steps included.  A failed solve keeps the grid
    points it reached, with a nonzero status.  `log_rho` is ln rho on the
    grid of a polar solve.
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
    log_rho: Optional[np.ndarray] = None

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


# Gauss-Legendre nodes on [0, 1] and the commutator weight of the
# fourth-order Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009)
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0
# a step that would have to shrink below this fraction of |r| ends the solve
_MIN_STEP = 1e-12
# geometric pieces of the first partition of a `propagate` range (no grid)
_COARSE = 16


def _magnus_exp(h, p, b, c):
    """exp(Omega) of one fourth-order Magnus step of signed length h.

    Rows 0 and 1 of p, b, c hold the generator A = [[p, b], [c, -p]] at the
    step's two Gauss nodes.  Omega is traceless, so Omega^2 = s^2 I with
    s^2 = -det Omega and exp(Omega) = cosh(s) I + sinh(s)/s Omega (cos and
    sin when s^2 < 0).  Returns the entries (e11, e12, e21, e22) and the
    signed number of half turns the step makes.
    """
    (p1, p2), (b1, b2), (c1, c2) = p, b, c
    half, k = 0.5 * h, _COMMUTATOR * h * h
    # Omega = h/2 (A1 + A2) + k [A2, A1]
    op = half * (p1 + p2) + k * (b2 * c1 - b1 * c2)
    ob = half * (b1 + b2) + 2.0 * k * (p2 * b1 - p1 * b2)
    oc = half * (c1 + c2) + 2.0 * k * (c2 * p1 - c1 * p2)
    s2 = op * op + ob * oc
    w = np.sqrt(np.abs(s2))
    grows = s2 > 0.0
    f0 = np.where(grows, np.cosh(w), np.cos(w))
    f1 = np.divide(np.where(grows, np.sinh(w), np.sin(w)), w,
                   out=np.ones_like(w), where=w > 0.0)
    # when det Omega = w^2 > 0, exp(t Omega) turns every state the way of
    # sign(oc) and is -I at t = pi / w
    turns = np.where(grows, 0.0, np.rint(w / np.pi) * np.sign(oc))
    return f0 + f1 * op, f1 * ob, f1 * oc, f0 - f1 * op, turns


def _mul(x, y):
    """Entries of the 2x2 product x y, each matrix given by its entries
    (floats or arrays)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _steps(channel, nodes, rtol, max_step=math.inf):
    """Fourth-order Magnus steps from nodes[0] across the nodes, which run
    monotonically in the direction of travel.

    The node intervals, cut into pieces no longer than `max_step`, are the
    first trial steps.  Each round evaluates the coefficients once on the
    Gauss nodes of every open step, keeps the step as two half steps where
    |e^Omega_h - P| / |P| <= rtol for their product P and halves the other
    steps.

    A step that would shrink below `_MIN_STEP * |r|` ends the solve at the
    node before it.  So does a non-finite step whose convergence length
    pi / max|A| is below that; other non-finite steps are halved.  Returns,
    for the kept steps in travel order, their start radii t and a mask of
    those ending on a node; their half steps H as `_magnus_exp` rows whose
    columns run in travel order, each step's two halves side by side; then
    the number of radii evaluated and None or a message naming the radius
    where the solve ended.
    """
    h = np.diff(nodes)
    pieces = np.maximum(1, np.ceil(np.abs(h) / max_step)).astype(int)
    seg = np.repeat(np.arange(h.size), pieces)
    first = np.cumsum(pieces) - pieces
    h = (h / pieces)[seg]
    t = nodes[seg] + (np.arange(seg.size) - first[seg]) * h
    n_seg, failure, nfev = nodes.size - 1, None, 0
    E, kept = None, []
    with np.errstate(all="ignore"):
        while seg.size:
            half = 0.5 * h
            r = [t + g * h for g in _GAUSS] if E is None else []
            r += [t + (i + g) * half for i in (0, 1) for g in _GAUSS]
            r = np.concatenate(r)
            nfev += r.size
            Q, M, L, _ = channel.coeffs(r)
            p, b, c = (x.reshape(-1, seg.size) for x in (-L, M - Q, Q + M))
            if E is None:
                E = _magnus_exp(h, p[:2], b[:2], c[:2])[:4]
                p, b, c = p[2:], b[2:], c[2:]
            E1 = _magnus_exp(half, p[:2], b[:2], c[:2])
            E2 = _magnus_exp(half, p[2:], b[2:], c[2:])
            P = _mul(E2[:4], E1[:4])
            err = (np.max(np.abs(np.subtract(E, P)), axis=0)
                   / np.max(np.abs(P), axis=0))
            ok = err <= rtol
            bad = ~ok & (np.abs(half) < _MIN_STEP * np.abs(t))
            wild = ~np.isfinite(err)
            if wild.any():
                # a step far past the Magnus convergence length pi / max|A|
                # overflows; it is halved unless that length is itself
                # below the shortest step (or not a number)
                size = np.max(np.abs(np.concatenate((p, b, c))[:, wild]),
                              axis=0)
                bad[wild] |= ~(np.pi / size >= _MIN_STEP * np.abs(t[wild]))
            if bad.any():
                i = np.argmin(np.where(bad, np.abs(t - nodes[0]), np.inf))
                n_seg = seg[i]
                failure = f"Magnus step failed at r = {t[i]:.10g}"
            keep = seg < n_seg
            done, split = ok & keep, ~ok & keep
            kept.append((seg[done], t[done], np.stack(E1 + E2)[:, done]))
            seg = np.repeat(seg[split], 2)
            t = np.stack((t[split], t[split] + half[split]), axis=1).ravel()
            h = np.repeat(half[split], 2)
            E = tuple(np.stack((e1[split], e2[split]), axis=1).ravel()
                      for e1, e2 in zip(E1[:4], E2[:4]))

    seg, t, E = (np.concatenate(x, axis=-1) for x in zip(*kept))
    order = np.lexsort((t * np.sign(nodes[-1] - nodes[0]), seg))
    order = order[seg[order] < n_seg]
    seg = seg[order]
    ends = np.diff(seg, append=n_seg) != 0
    H = E[:, order].reshape(2, 5, -1).transpose(1, 2, 0).reshape(5, -1)
    return t[order], ends, H, nfev, failure


def _transfer(channel, nodes, rtol, max_step=math.inf):
    """Transfer matrices Phi(r, nodes[0]) at the nodes, the kept steps of
    `_steps` multiplied in travel order.  Returns (phi, nfev, failure), phi
    of shape (n, 2, 2) for the first n nodes; an overflowing product ends
    the solve like a failed step."""
    _, ends, H, nfev, failure = _steps(channel, nodes, rtol, max_step)
    P = np.stack(_mul(H[:4, 1::2], H[:4, ::2]))
    phi = [(1.0, 0.0, 0.0, 1.0)]
    now = phi[0]
    for step, end in zip(zip(*P.tolist()), ends.tolist()):
        now = _mul(step, now)
        if end:
            phi.append(now)
    phi = np.array(phi).reshape(-1, 2, 2)
    finite = np.all(np.isfinite(phi), axis=(1, 2))
    if not finite.all():
        n = int(np.argmin(finite))
        phi = phi[:n]
        failure = f"solution overflows before r = {nodes[n]:.10g}"
    return phi, nfev, failure


def cumulative_norms(channel, U0, nodes, rtol):
    """Cumulative squared norms I(r) = int_{nodes[0]}^r |u|^2 of the two
    solutions starting from the columns of U0, at nodes[1:]; shape
    (2, n - 1).  Each Magnus step of `_steps` adds Simpson's rule on |u|^2
    at its start, midpoint and end."""
    t, ends, H, _, failure = _steps(channel, nodes, rtol)
    if failure is not None:
        raise PreconditionError(f"cumulative norms failed: {failure}")
    h = np.diff(np.append(t, nodes[-1]))
    (x, y), (v, w) = np.asarray(U0, dtype=float).tolist()
    f = [(x * x + v * v, y * y + w * w)]
    for a, b, c, d in zip(*H[:4].tolist()):
        x, y, v, w = a * x + b * v, a * y + b * w, c * x + d * v, c * y + d * w
        f.append((x * x + v * v, y * y + w * w))
    f = np.array(f).T
    I = np.cumsum(h / 6.0 * (f[:, :-1:2] + 4.0 * f[:, 1::2] + f[:, 2::2]),
                  axis=1)[:, ends]
    if not np.all(np.isfinite(I)):
        raise PreconditionError("cumulative norms overflow")
    return I


def integrate_cartesian(channel, u0, cfg: SolveConfig) -> Trajectory:
    """Integrate the channel system for the components (u1, u2) with
    adaptive DOP853, one radius at a time.

    On coefficient blow-up the partial trajectory is returned with a
    nonzero status instead of raising; a failure on the very first step
    leaves the initial point alone.
    """
    from scipy.integrate import solve_ivp

    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (2,) or not np.any(u0):
        raise ValueError("u0 must be a nonzero 2-vector")
    qml = channel.scalar_qml

    def rhs(r, y):
        Q, M, L = qml(r)
        u1, u2 = y.tolist()
        return (-L * u1 + (M - Q) * u2, (Q + M) * u1 + L * u2)

    # a blow-up overflows before the stepper gives up and reports its status
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (cfg.r_start, cfg.r_end), u0, method="DOP853",
                        rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
                        t_eval=cfg.grid())
    grid, y = sol.t, sol.y
    if np.size(grid) == 0:
        grid, y = np.array([cfg.r_start]), u0[:, None]
    u1, u2 = y
    return Trajectory(grid=grid, u1=u1, u2=u2, rho=np.hypot(u1, u2),
                      theta=_safe_unwrap(u1, u2), mode="cartesian",
                      channel=channel, status=int(sol.status),
                      message=str(sol.message), nfev=int(sol.nfev))


def _safe_unwrap(u1, u2):
    theta = np.unwrap(np.arctan2(u2, u1))
    if np.max(np.abs(np.diff(theta)), initial=0.0) > 0.9 * np.pi:
        return None
    return theta


def integrate_pruefer(channel, rho0: float, theta0: float,
                      cfg: SolveConfig) -> Trajectory:
    """Integrate the polar form on the Magnus steps of `_steps`, carrying a
    unit vector and ln rho so that rho cannot overflow on the way (`log_rho`
    stays finite where rho does not).  Each half step adds its exact angle
    gain, so theta is unwrapped whatever the stride; `accepted_r` and
    `accepted_theta` hold the step ends."""
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    grid = cfg.grid()
    t, ends, H, nfev, failure = _steps(channel, grid, cfg.rtol, cfg.max_step)
    x, y = math.cos(theta0), math.sin(theta0)
    states = [(x, y, 1.0)]
    for a, b, c, d in zip(*H[:4].tolist()):
        x, y = a * x + b * y, c * x + d * y
        n = math.hypot(x, y)
        x, y = x / n, y / n
        states.append((x, y, n))
    x, y, n = np.array(states).T
    # a half step turns by less than pi beyond its whole half turns, so its
    # gain is the angle nearest pi * turns congruent to the principal one
    gain = np.arctan2(x[:-1] * y[1:] - y[:-1] * x[1:],
                      x[:-1] * x[1:] + y[:-1] * y[1:])
    gain += 2.0 * np.pi * np.rint((np.pi * H[4] - gain) / (2.0 * np.pi))
    theta = theta0 + np.append(0.0, np.cumsum(gain))[::2]
    log_rho = math.log(rho0) + np.cumsum(np.log(n))[::2]
    at = np.flatnonzero(np.append(True, ends))
    with np.errstate(over="ignore"):
        rho = np.exp(log_rho[at])
    return Trajectory(grid=grid[:at.size], u1=rho * np.cos(theta[at]),
                      u2=rho * np.sin(theta[at]), rho=rho, theta=theta[at],
                      mode="pruefer", channel=channel,
                      accepted_r=np.append(t, grid[at.size - 1]),
                      accepted_theta=theta, status=0 if failure is None else -1,
                      message=failure or "", nfev=nfev, log_rho=log_rho[at])


def integrate_fundamental(channel, cfg: SolveConfig, U0=None):
    """Integrate a fundamental system (the columns of U0, default the
    identity) in one pass of the Magnus propagator.

    The trajectories stop at the last grid point reached, all with status
    -1, when the solve fails.

    Returns a pair of trajectories sharing the same grid, suitable for
    Wronskian checks and for building arbitrary solutions by superposition.
    """
    U0 = np.eye(2) if U0 is None else np.asarray(U0, dtype=float)
    grid = cfg.grid()
    phi, nfev, failure = _transfer(channel, grid, cfg.rtol, cfg.max_step)
    grid = grid[:len(phi)]
    U = phi @ U0
    return tuple(Trajectory(grid=grid, u1=u1, u2=u2, rho=np.hypot(u1, u2),
                            theta=_safe_unwrap(u1, u2), mode="cartesian",
                            channel=channel,
                            status=0 if failure is None else -1,
                            message=failure or "", nfev=nfev)
                 for u1, u2 in zip(U[:, 0].T, U[:, 1].T))


def propagate(channel, u0, r0: float, r1: float,
              rtol: float = 1e-10) -> np.ndarray:
    """Carry a state vector from r0 to r1 (either direction) and return the
    endpoint value; used by shooting-style searches.  The Magnus steps
    start from `_COARSE` geometrically graded pieces of the range, short
    near the end closer to the origin where k/r varies fastest."""
    phi, _, failure = _transfer(channel, np.geomspace(r0, r1, _COARSE + 1),
                                rtol)
    if failure is not None:
        raise PreconditionError(f"propagation from {r0:g} to {r1:g} failed: "
                                f"{failure}")
    return phi[-1] @ np.asarray(u0, dtype=float)


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


# Simpson weights on 4 equal pieces of each grid interval; the count is
# even, so every grid node closes a pair
_SIMPSON = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 3.0
_REFINE = len(_SIMPSON) - 1


def cumulative_integral(fn, grid) -> np.ndarray:
    """Running integral of fn from grid[0] to each node of `grid` by the
    composite Simpson rule on `_REFINE` equal pieces of every interval; fn
    is called once on all piece ends.  Exact for cubics."""
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid) / _REFINE
    f = fn(np.append(grid[:-1, None] + h[:, None] * np.arange(_REFINE),
                     grid[-1]))
    F = np.column_stack((f[:-1].reshape(-1, _REFINE), f[_REFINE::_REFINE]))
    return np.concatenate(([0.0], np.cumsum(h * (F @ _SIMPSON))))


def s_reparam(channel, traj: Trajectory) -> Trajectory:
    """Attach the integrated-coefficient variable s(r) = int_{r0}^r Q by
    `cumulative_integral` on the trajectory grid.  Requires Q > 0 there so
    that s is strictly monotone."""
    def positive_Q(r):
        Q = channel.coeffs(r)[0]
        if np.any(Q <= 0.0):
            bad = float(r[np.argmax(Q <= 0.0)])
            raise PreconditionError(f"Q is not positive at r = {bad:g}")
        return Q

    return replace(traj, s=cumulative_integral(positive_Q, traj.grid))


def phase_derivative(channel, r, theta):
    """Right-hand side of the phase equation, vectorized over samples."""
    Q, M, L, _ = channel.coeffs(r)
    return Q + M * np.cos(2.0 * theta) + L * np.sin(2.0 * theta)


def prefer_pruefer(channel, r_lo: float, r_hi: float, factor: float = 10.0) -> bool:
    """Heuristic representation choice: polar once Q dominates W."""
    rs = np.geomspace(max(r_lo, 1e-12), r_hi, 16)
    Q, _, _, W = channel.coeffs(rs)
    return bool(np.all(Q > factor * W))
