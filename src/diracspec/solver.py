"""Adaptive integration of the first-order channel system.

The system for u = (u1, u2) is

    u1' = -L u1 - (Q - M) u2,
    u2' = (Q + M) u1 + L u2,

integrated either directly (Cartesian) or in polar coordinates
u = rho (cos theta, sin theta), where

    theta'    = Q + M cos(2 theta) + L sin(2 theta),
    (ln rho)' = M sin(2 theta) - L cos(2 theta).

The system u' = A u, with A = [[-L, M - Q], [Q + M, L]], is linear and
traceless.  `integrate_cartesian` steps one state with adaptive DOP853.
Every other solve is one record, `_Solve`, of fourth-order Magnus steps
exp(Omega), each built in closed form from A at two Gauss nodes and one
commutator (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009); each has determinant 1, so
det Phi = 1 holds to rounding.  As the system is linear, the doubling
error estimate of a step does not depend on the state, and the steps are
refined for all radii at once; `rtol` is that per-step tolerance.  A
`ChannelBatch` (one model and k at many spectral parameters, each channel
with its own range and direction) has q and m evaluated once per round on
the radii of all its channels.  One log-depth scan `_running` of the step
products gives Phi at the nodes (`integrate_fundamental`, `propagate`);
with each step's first half, the states that carry the polar form (for
long ranges where Q dominates W = sqrt(M^2 + L^2)) and `cumulative_norms`.
Every phase integral is the composite Simpson rule `cumulative_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coefficients import ChannelBatch, ChannelSystem

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


def _steps(qml, nodes, rtol, max_step=math.inf):
    """Fourth-order Magnus steps of a batch of channels: channel i starts at
    nodes[i, 0] and crosses the nodes nodes[i], which run monotonically in
    its direction of travel; `qml(r, owner)` gives (Q, M, L) at radii r, of
    shape (m, S), whose columns belong to the channels `owner` (S,).

    The node intervals, cut into pieces no longer than `max_step`, are the
    first trial steps.  Each round evaluates the coefficients once on the
    Gauss nodes of every open step of every channel, keeps the step as two
    half steps where |e^Omega_h - P| / |P| <= rtol for their product P and
    halves the other steps.

    A step that would shrink below `_MIN_STEP * |r|` ends its channel's
    solve at the node before it.  So does a non-finite step whose
    convergence length pi / max|A| is below that; other non-finite steps
    are halved.  Returns (t, seg, X, nfev, failures) of `_Solve`, the rows
    of X its P, half and turns.
    """
    n_int = nodes.shape[1] - 1
    h = np.diff(nodes, axis=1).ravel()
    pieces = np.maximum(1, np.ceil(np.abs(h) / max_step)).astype(int)
    seg = np.repeat(np.arange(h.size), pieces)
    first = np.cumsum(pieces) - pieces
    h = (h / pieces)[seg]
    t = nodes[:, :-1].ravel()[seg] + (np.arange(seg.size) - first[seg]) * h
    # per channel, the first interval past the kept ones
    n_seg = n_int * np.arange(1, len(nodes) + 1)
    failures, nfev = [None] * len(nodes), 0
    E, kept = None, []
    with np.errstate(all="ignore"):
        while seg.size:
            owner = seg // n_int
            half = 0.5 * h
            r = [t + g * h for g in _GAUSS] if E is None else []
            r = np.stack(r + [t + (i + g) * half for i in (0, 1)
                              for g in _GAUSS])
            nfev += r.size
            Q, M, L = qml(r, owner)
            p, b, c = -L, M - Q, Q + M
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
                # each channel ends at its failed step nearest its start
                i = np.flatnonzero(bad)
                i = i[np.lexsort((np.abs(t[i] - nodes[owner[i], 0]),
                                  owner[i]))]
                for j in i[np.diff(owner[i], prepend=-1) != 0].tolist():
                    n_seg[owner[j]] = seg[j]
                    failures[owner[j]] = f"Magnus step failed at r = {t[j]:.10g}"
            keep = seg < n_seg[owner]
            done, split = ok & keep, ~ok & keep
            kept.append((seg[done], t[done], np.stack(
                [x[done] for x in P + E1[:4] + (E1[4], E2[4])])))
            seg = np.repeat(seg[split], 2)
            t = np.stack((t[split], t[split] + half[split]), axis=1).ravel()
            h = np.repeat(half[split], 2)
            E = tuple(np.stack((e1[split], e2[split]), axis=1).ravel()
                      for e1, e2 in zip(E1[:4], E2[:4]))

    seg, t, X = (np.concatenate(x, axis=-1) for x in zip(*kept))
    del kept
    owner = seg // n_int
    travel = np.sign(nodes[:, -1] - nodes[:, 0])
    order = np.lexsort((t * travel[owner], seg))
    order = order[seg[order] < n_seg[owner[order]]]
    return t[order], seg[order], X[:, order], nfev, failures


def _running(X, first):
    """Running products X[i] ... X[first[i]] of 2x2 matrices stored as the
    4-entry columns of X; column i's run starts at first[i] <= i (one int:
    a single run).  Hillis-Steele doubling: at d = 1, 2, 4, ... each column
    takes on the column d before it inside its run.  Each product is scaled
    by a power of two, which is exact, so that its largest entry lies in
    [1/2, 1): column i's product is R[:, i] 2^e[i] of the returned (R, e)."""
    R, e = X.copy(), np.zeros(X.shape[1], dtype=int)
    pos, d = np.arange(X.shape[1]) - first, 1
    while d <= np.max(pos, initial=0):
        P = np.stack(_mul(R[:, d:], R[:, :-d]))
        _, x = np.frexp(np.max(np.abs(P), axis=0))
        P, ed = np.ldexp(P, -x), e[d:] + e[:-d] + x
        on = pos[d:] >= d
        if not on.all():
            P, ed = np.where(on, P, R[:, d:]), np.where(on, ed, e[d:])
        R[:, d:], e[d:] = P, ed
        d *= 2
    return R, e


class _Solve:
    """One Magnus solve of a batch of channels across their nodes (see
    `_steps`; a lone channel is a batch of one).  Its kept steps run channel
    by channel in travel order: their start radii `t`, node intervals `seg`
    (interval j of channel i is i (n - 1) + j for n nodes a channel),
    products `P`, first halves `half`, the half `turns` of both halves and
    the running products (`R`, `e`) of `_running` over each channel's steps.
    `failures` holds per channel None or why its solve ended early."""

    def __init__(self, channel, nodes, rtol, max_step=math.inf):
        self.nodes = np.atleast_2d(nodes)
        self.t, self.seg, X, self.nfev, self.failures = _steps(
            channel.qml if isinstance(channel, ChannelBatch) else
            lambda r, owner: channel.coeffs(r)[:3], self.nodes, rtol, max_step)
        self.P, self.half, self.turns = X[:4], X[4:8], X[8:]
        owner = self.owner = self.seg // (self.nodes.shape[1] - 1)
        self.R, self.e = _running(self.P, np.searchsorted(owner, owner))
        self.end = np.diff(self.seg, append=-1) != 0  # ends on a node

    def transfer(self):
        """Phi(r, nodes[i, 0]) at the nodes of each channel i: (phi, reached,
        failures), phi of shape (B, n, 2, 2), NaN past the reached[i] nodes
        channel i reached.  A product past the float range ends the solve
        like a failed step."""
        (B, n), owner, end = self.nodes.shape, self.owner, self.end
        reached = 1 + np.bincount(owner[end], minlength=B)
        phi = np.full((B * n, 4), np.nan)
        phi[::n] = (1.0, 0.0, 0.0, 1.0)
        with np.errstate(over="ignore"):
            phi[(self.seg + owner + 1)[end]] = np.ldexp(self.R[:, end],
                                                        self.e[end]).T
        phi = phi.reshape(B, n, 2, 2)
        lost = np.any(np.isinf(phi), axis=(2, 3))
        for i in np.flatnonzero(lost.any(axis=1)).tolist():
            reached[i] = np.argmax(lost[i])
            self.failures[i] = (f"solution overflows before r = "
                                f"{self.nodes[i, reached[i]]:.10g}")
        return phi, reached, self.failures

    def states(self, U0):
        """The states of a one-channel solve from U0 (a vector, or one per
        column) at the start of each of its N steps, past its first half and
        at its end: (U, e) with U[..., j, i] 2^e[j, i] the state; past a
        first half it is that half times the state before its step."""
        R = np.column_stack(((1.0, 0.0, 0.0, 1.0), self.R)).reshape(2, 2, -1)
        e = np.append(0, self.e)
        U = np.einsum("ijn,j...->i...n", R, U0)
        mid = np.einsum("ijn,j...n->i...n", self.half.reshape(2, 2, -1),
                        U[..., :-1])
        return (np.stack((U[..., :-1], mid, U[..., 1:]), axis=-2),
                np.stack((e[:-1], e[:-1], e[1:])))


def cumulative_norms(channel, U0, nodes, rtol):
    """Cumulative squared norms I(r) = int_{nodes[0]}^r |u|^2 of the two
    solutions from the columns of U0 at nodes[1:], shape (2, n - 1), by
    Simpson's rule on the states of each step of one Magnus solve."""
    solve = _Solve(channel, nodes, rtol)
    (failure,) = solve.failures
    if failure is not None:
        raise PreconditionError(f"cumulative norms failed: {failure}")
    h = np.diff(np.append(solve.t, nodes[-1]))
    U, e = solve.states(np.asarray(U0, dtype=float))
    with np.errstate(over="ignore"):
        f = np.ldexp(np.sum(np.square(U), axis=0), 2 * e)
        I = np.cumsum(h / 6.0 * (f[:, 0] + 4.0 * f[:, 1] + f[:, 2]),
                      axis=1)[:, solve.end]
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
    """Integrate the polar form on the states of one Magnus solve from the
    unit vector at theta0.  Each half step adds its exact angle gain, which
    ignores the states' scale, so theta is unwrapped whatever the stride;
    each theta then moves onto its state's angle.  ln rho adds the states'
    powers of two, so `log_rho` stays finite where rho does not.
    `accepted_r` and `accepted_theta` hold the step ends."""
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    grid = cfg.grid()
    solve = _Solve(channel, grid, cfg.rtol, cfg.max_step)
    (failure,) = solve.failures
    (x, y), e = solve.states(np.array([math.cos(theta0), math.sin(theta0)]))
    # a half step turns by less than pi beyond its whole half turns, so its
    # gain is the angle nearest pi * turns congruent to the principal one
    gain = np.arctan2(x[:-1] * y[1:] - y[:-1] * x[1:],
                      x[:-1] * x[1:] + y[:-1] * y[1:])
    gain += 2.0 * np.pi * np.rint((np.pi * solve.turns - gain)
                                  / (2.0 * np.pi))
    theta = theta0 + np.append(0.0, np.cumsum(gain[0] + gain[1]))
    phase = np.arctan2(y[2], x[2])
    theta[1:] = phase + 2.0 * np.pi * np.rint((theta[1:] - phase)
                                              / (2.0 * np.pi))
    log_rho = math.log(rho0) + np.append(
        0.0, np.log(np.hypot(x[2], y[2])) + e[2] * math.log(2.0))
    at = np.flatnonzero(np.append(True, solve.end))
    with np.errstate(over="ignore"):
        rho = np.exp(log_rho[at])
    return Trajectory(grid=grid[:at.size], u1=rho * np.cos(theta[at]),
                      u2=rho * np.sin(theta[at]), rho=rho, theta=theta[at],
                      mode="pruefer", channel=channel,
                      accepted_r=np.append(solve.t, grid[at.size - 1]),
                      accepted_theta=theta, status=0 if failure is None else -1,
                      message=failure or "", nfev=solve.nfev,
                      log_rho=log_rho[at])


def integrate_fundamental(channel, cfg: SolveConfig, U0=None):
    """A fundamental system (the columns of U0, default the identity): a
    pair of trajectories on one grid, read off one Magnus solve, for
    Wronskian checks and superposition.  They stop at the last grid point
    reached, both with status -1, when the solve fails."""
    U0 = np.eye(2) if U0 is None else np.asarray(U0, dtype=float)
    solve = _Solve(channel, cfg.grid(), cfg.rtol, cfg.max_step)
    phi, (n,), (failure,) = solve.transfer()
    U = phi[0, :n] @ U0
    return tuple(Trajectory(grid=solve.nodes[0, :n], u1=u1, u2=u2,
                            rho=np.hypot(u1, u2), theta=_safe_unwrap(u1, u2),
                            mode="cartesian", channel=channel,
                            status=0 if failure is None else -1,
                            message=failure or "", nfev=solve.nfev)
                 for u1, u2 in zip(U[:, 0].T, U[:, 1].T))


def propagate(channel, u0, r0, r1, rtol: float = 1e-10) -> np.ndarray:
    """Carry a state vector from r0 to r1 (either direction) and return the
    endpoint value; used by shooting-style searches.  The Magnus steps
    start from `_COARSE` geometrically graded pieces of the range, short
    near the end closer to the origin where k/r varies fastest.

    A `ChannelBatch` of B channels is carried in one call: channel i takes
    u0[i] from r0[i] to r1[i] (u0 of shape (B, 2); r0 and r1 may be shared
    scalars), and the values come back with shape (B, 2).  The first
    channel whose solve fails raises, naming its label.
    """
    batch = isinstance(channel, ChannelBatch)
    B = len(channel) if batch else 1
    r0, r1 = (np.broadcast_to(np.asarray(x, dtype=float), (B,))
              for x in (r0, r1))
    phi, _, failures = _Solve(
        channel, np.geomspace(r0, r1, _COARSE + 1, axis=1), rtol).transfer()
    for i, failure in enumerate(failures):
        if failure is not None:
            which = f" of {channel.label(i)}" if batch else ""
            raise PreconditionError(f"propagation{which} from {r0[i]:g} to "
                                    f"{r1[i]:g} failed: {failure}")
    u = np.einsum("bij,bj->bi", phi[:, -1],
                  np.reshape(np.asarray(u0, dtype=float), (B, 2)))
    return u if batch else u[0]


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
