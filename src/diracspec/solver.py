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
Every other solve is one record, `_Solve`, of sixth-order Magnus steps
exp(Omega), each built in closed form from A at three Gauss nodes and
three commutators (Blanes, Casas & Ros, BIT 40, 2000; Iserles,
Munthe-Kaas, Norsett & Zanna, Acta Numer. 9, 2000); each has determinant
1, so det Phi = 1 holds to rounding.  As the system is linear, the doubling
error estimate of a step does not depend on the state, and the steps are
refined for all radii at once; `rtol` is that per-step tolerance, one for
the solve or one a channel.  A `ChannelBatch` (one model at many
(k, lambda), each channel with its own range and direction) has q and m
evaluated once per round on the radii of all its channels.  One log-depth
scan `_running` of the step products gives Phi at the nodes
(`integrate_fundamental`, `propagate`); with each step's first half, the
states that carry the polar form (for long ranges where Q dominates
W = sqrt(M^2 + L^2)) and `cumulative_norms`.
The WKB phase of `asymptotics` is the Simpson rule `cumulative_integral`.
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
    "frobenius_init",
    "frobenius_radius",
    "cumulative_integral",
    "phase_derivative",
    "prefer_pruefer",
]


class PreconditionError(RuntimeError):
    """A solver operation was invoked outside its validity region."""


@dataclass(frozen=True)
class SolveConfig:
    """Integration window, step tolerance and output-grid stride.

    For the Magnus propagator `rtol` is the per-step doubling tolerance,
    and the grid intervals are its first trial steps; `integrate_cartesian`
    reads `rtol` with its own absolute tolerance 1e-14.
    """

    r_start: float
    r_end: float
    rtol: float = 1e-12
    stride: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if not 0.0 < self.r_start < self.r_end:
            raise ValueError("need 0 < r_start < r_end")
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
    accepted_r: Optional[np.ndarray] = None
    accepted_theta: Optional[np.ndarray] = None
    status: int = 0
    nfev: int = 0
    log_rho: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        return self.status == 0

    def to_csv(self, path):
        Q, M, L, W = self.channel.coeffs(self.grid)
        theta = self.theta if self.theta is not None else np.full_like(self.grid, np.nan)
        columns = (self.grid, self.u1, self.u2, self.rho, theta, Q, M, L, W)
        write_columns(path, "r,u1,u2,rho,theta,Q,M,L,W", columns,
                      DIGITS["trajectory"])


# The significant digits of each artifact number that comes out of a solve,
# by artifact kind, then by CSV column or JSON key (a key holding rows of
# numbers gives one count a column, None for repr).  Each count is
# ceil(-log10 s) + 1 for the largest relative spread s of that number
# between the shipped run and one with the step and root tolerances a
# hundredth of them, or one whose Magnus solves cut each first trial step
# into 8 geometric pieces, on the fixtures and the seed 1-3 bench configs
# (README "Artifact digits"); sup_R takes the digits of R, its column, and
# the radius columns of the CSVs are written to 12.  Every column or key
# not named, and every kind not named, is written with repr.
_CERTIFICATE = {"C": 13, "sup_R": 12}
_RATIOS = {"ratio_tail": (None, 9), "liminf_estimate": 9, "intercept": 10,
           "slope": 11, "r_squared": 12}
DIGITS = {
    "rtrace": {"r": 12, "R": 12, "usq": 12},
    "trajectory": {"r": 12, "u1": 11, "u2": 11, "rho": 11, "theta": 13},
    "residuals": {"center": 12, "residual": 13},
    "boundedness": _CERTIFICATE,
    "subordinacy": _RATIOS,
    "scan": {**_CERTIFICATE, **_RATIOS},
    "eigenvalues": {"by_k": 13},
    "defects": {"defects": 11, "orders": 11},
}


def write_columns(path, header: str, columns, digits=None):
    """Write the `header` lines, then row i of the `columns` (equally long
    sequences of floats, or of strings) comma-separated, for every i: the
    writer of every CSV artifact.  A column that `digits` names, by the
    last header line, is written to that many significant digits (%.Ng),
    every other one as str, which is repr for a float.  All rows are
    formatted in one % call.  It is no solve, so it stays out of
    `__all__`."""
    digits = digits or {}
    row = ",".join(f"%.{digits[name]}g" if name in digits else "%s"
                   for name in header.rsplit("\n", 1)[-1].split(","))
    n = len(columns[0]) if columns else 0
    cells = tuple(np.column_stack(columns).ravel().tolist()) if n else ()
    with open(path, "w") as fh:
        fh.write(f"{header}\n" + f"{row}\n" * n % cells)


# Gauss-Legendre nodes on [0, 1] of the sixth-order Magnus step (Blanes,
# Casas & Ros, BIT 40, 2000)
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
# a step that would have to shrink below this fraction of |r| ends the solve
_MIN_STEP = 1e-12
# a channel with more open steps than this in one round ends its solve:
# the nested commutators of the sixth-order step grow like (h |A|)^2, so
# where A grows about as fast as it turns (q = e^r) steps must shrink to
# h |A| < 1 and their count would grow without bound
_MAX_OPEN = 2 ** 18
# geometric pieces of the first partition of a `propagate` range (no grid)
_COARSE = 16
# |k|/r0 over the regular coefficients that `frobenius_init` requires
_DOMINANCE = 1e3
# columns of a `_running` block: its work arrays and the columns it reads
# (about 1.3 MB) fit a 2 MB L2 cache; on a 2-core Xeon VM such blocks made
# the scan of three 26,000-step channels a third faster than whole levels
_BLOCK = 8192
# the absolute step tolerance of DOP853 in `integrate_cartesian`
_ATOL = 1e-14


def _magnus_exp(h, p, b, c):
    """exp(Omega) of one sixth-order Magnus step of signed length h.

    Rows 0, 1 and 2 of p, b, c hold the generator A = [[p, b], [c, -p]] at
    the step's three Gauss nodes, A1, A2 and A3.  With a1 = h A2,
    a2 = sqrt(15) h/3 (A3 - A1), a3 = 10 h/3 (A3 - 2 A2 + A1),
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1]/60,

        Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240

    (Blanes, Casas & Ros, BIT 40, 2000; Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 2009), whose local error is O(h^7).  The commutator of
    traceless X and Y has the entries (xb yc - yb xc, 2 (xp yb - xb yp),
    2 (xc yp - xp yc)).  Omega is traceless, so Omega^2 = s^2 I with
    s^2 = -det Omega and exp(Omega) = cosh(s) I + sinh(s)/s Omega (cos and
    sin when s^2 < 0).  Returns the entries (e11, e12, e21, e22) and the
    signed number of half turns the step makes.
    """
    (p1, p2, p3), (b1, b2, b3), (c1, c2, c3) = p, b, c
    h2, h3 = math.sqrt(15.0) / 3.0 * h, 10.0 / 3.0 * h
    # a1 = (xp, xb, xc), a2 = (yp, yb, yc), a3 = (zp, zb, zc)
    xp, xb, xc = h * p2, h * b2, h * c2
    yp, yb, yc = h2 * (p3 - p1), h2 * (b3 - b1), h2 * (c3 - c1)
    zp, zb, zc = (h3 * (p3 - 2.0 * p2 + p1), h3 * (b3 - 2.0 * b2 + b1),
                  h3 * (c3 - 2.0 * c2 + c1))
    # C1 = (dp, db, dc) and W = 2 a3 + C1
    dp, db, dc = (xb * yc - yb * xc, 2.0 * (xp * yb - xb * yp),
                  2.0 * (xc * yp - xp * yc))
    wp, wb, wc = 2.0 * zp + dp, 2.0 * zb + db, 2.0 * zc + dc
    # Y = a2 + C2 = a2 - [a1, W]/60 and X = -20 a1 - a3 + C1
    yp = yp + (xc * wb - xb * wc) / 60.0
    yb = yb + (xb * wp - xp * wb) / 30.0
    yc = yc + (xp * wc - xc * wp) / 30.0
    vp, vb, vc = dp - 20.0 * xp - zp, db - 20.0 * xb - zb, dc - 20.0 * xc - zc
    # Omega = a1 + a3/12 + [X, Y]/240
    op = xp + zp / 12.0 + (vb * yc - yb * vc) / 240.0
    ob = xb + zb / 12.0 + (vp * yb - vb * yp) / 120.0
    oc = xc + zc / 12.0 + (vc * yp - vp * yc) / 120.0
    s2 = op * op + ob * oc
    w = np.sqrt(np.abs(s2))
    grows = s2 > 0.0
    f0 = np.cosh(w, out=np.cos(w), where=grows)
    f1 = np.divide(np.sinh(w, out=np.sin(w), where=grows), w,
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


def _steps(qml, nodes, rtol):
    """Sixth-order Magnus steps of a batch of channels: channel i starts at
    nodes[i, 0] and crosses the nodes nodes[i], which run monotonically in
    its direction of travel; `qml(r, owner)` gives (Q, M, L) at radii r, of
    shape (m, S), whose columns belong to the channels `owner` (S,); `rtol`
    is one tolerance for every channel or one a channel.

    The node intervals are the first trial steps.  Each round evaluates
    the coefficients once on the three Gauss nodes of both halves of every
    open step of every channel (and of the whole step in the first round;
    later steps are halves already), forms all their exponentials in one
    `_magnus_exp` call, keeps the step as two half steps where
    |e^Omega_h - P| / |P| <= rtol[owner] for their product P and halves
    the other steps.

    A step that would shrink below `_MIN_STEP * |r|` ends its channel's
    solve at the node before it, and so does every open step of a channel
    with more than `_MAX_OPEN` open steps in a round.  So does a non-finite
    step whose convergence length pi / max|A| is below `_MIN_STEP * |r|`;
    other non-finite steps are halved.  Returns (t, seg, X, nfev,
    failures) of `_Solve`, the rows of X its P, half and turns.
    """
    n_int = nodes.shape[1] - 1
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (len(nodes),))
    h = np.diff(nodes, axis=1).ravel()
    seg = np.arange(h.size)
    t = nodes[:, :-1].ravel()
    # per channel, the first interval past the kept ones
    n_seg = n_int * np.arange(1, len(nodes) + 1)
    failures, nfev = [None] * len(nodes), 0
    E, kept = None, []
    with np.errstate(all="ignore"):
        while seg.size:
            owner = seg // n_int
            half = 0.5 * h
            # the pieces of a round: both halves of each step, after the
            # whole step in the first round
            start = np.stack(([t] if E is None else []) + [t, t + half])
            length = np.stack(([h] if E is None else []) + [half, half])
            r = start + np.reshape(_GAUSS, (3, 1, 1)) * length
            nfev += r.size
            Q, M, L = qml(r.reshape(-1, seg.size), owner)
            p, b, c = (x.reshape(r.shape) for x in (-L, M - Q, Q + M))
            X = _magnus_exp(length, p, b, c)
            if E is None:
                E = tuple(x[0] for x in X[:4])
            E1, E2 = tuple(x[-2] for x in X), tuple(x[-1] for x in X)
            P = _mul(E2[:4], E1[:4])
            err = (np.max(np.abs(np.subtract(E, P)), axis=0)
                   / np.max(np.abs(P), axis=0))
            ok = err <= rtol[owner]
            bad = ~ok & ((np.abs(half) < _MIN_STEP * np.abs(t))
                         | (np.bincount(owner) > _MAX_OPEN)[owner])
            wild = ~np.isfinite(err)
            if wild.any():
                # a step far past the Magnus convergence length pi / max|A|
                # overflows; it is halved unless that length is itself
                # below the shortest step (or not a number)
                size = np.max(np.abs(np.concatenate((p, b, c))[:, -2:, wild]),
                              axis=(0, 1))
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
    [1/2, 1): column i's product is R[:, i] 2^e[i] of the returned (R, e).

    A level runs over blocks of `_BLOCK` columns from the right, so that
    each block reads the columns d before it as the level before left
    them; each block is formed in work arrays made once per call."""
    n = X.shape[1]
    R, e = X.copy(), np.zeros(n, dtype=int)
    pos, d, w = np.arange(n) - first, 1, min(n, _BLOCK)
    # P and T hold a block's products as [[a e, a f], [c e, c f]] +
    # [[b g, b h], [d g, d h]], the sums of `_mul`
    P, T = np.empty((2, 2, w)), np.empty((2, 2, w))
    big, frac = np.empty(w), np.empty(w)
    x, ed = np.empty(w, dtype=np.intc), np.empty(w, dtype=int)
    on = np.empty(w, dtype=bool)
    R2 = R.reshape(2, 2, n)
    while d <= np.max(pos, initial=0):
        for b in range(n, d, -w):
            a = max(b - w, d)
            m, c = b - a, slice(a - d, b - d)
            p, t = P[..., :m], T[..., :m]
            np.multiply(R2[:, :1, a:b], R2[:1, :, c], out=p)
            np.multiply(R2[:, 1:, a:b], R2[1:, :, c], out=t)
            np.add(p, t, out=p)
            np.abs(p, out=t)
            np.max(t.reshape(4, m), axis=0, out=big[:m])
            np.frexp(big[:m], out=(frac[:m], x[:m]))
            np.add(e[a:b], e[c], out=ed[:m])
            np.add(ed[:m], x[:m], out=ed[:m])
            np.negative(x[:m], out=x[:m])
            np.ldexp(p, x[:m], out=p)
            np.greater_equal(pos[a:b], d, out=on[:m])
            np.copyto(R2[..., a:b], p, where=on[:m])
            np.copyto(e[a:b], ed[:m], where=on[:m])
        d *= 2
    return R, e


class _Solve:
    """One Magnus solve of a batch of channels across their nodes (see
    `_steps`; a lone channel is a batch of one).  Its kept steps run channel
    by channel in travel order: their start radii `t`, node intervals `seg`
    (interval j of channel i is i (n - 1) + j for n nodes a channel),
    products `P`, first halves `half`, the half `turns` of both halves and
    the running products (`R`, `e`) of `_running` over each channel's steps.
    `failures` holds per channel None or why its solve ended early;
    `qml(r, owner)` reads the coefficients as `_steps` does."""

    def __init__(self, channel, nodes, rtol):
        self.nodes = np.atleast_2d(nodes)
        self.qml = (channel.qml if isinstance(channel, ChannelBatch) else
                    lambda r, owner: channel.coeffs(r)[:3])
        self.t, self.seg, X, self.nfev, self.failures = _steps(
            self.qml, self.nodes, rtol)
        self.P, self.half, self.turns = X[:4], X[4:8], X[8:]
        owner = self.owner = self.seg // (self.nodes.shape[1] - 1)
        self.first = np.searchsorted(owner, owner)
        self.R, self.e = _running(self.P, self.first)
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
        """The states of each channel i from U0[i] (a vector, or one per
        column) at the start of each of its steps, past its first half and
        at its end: (U, e) with U[..., j, s] 2^e[j, s] the state at j (0
        start, 1 middle, 2 end) of step s of the whole solve; past a first
        half it is that half times the state before its step."""
        starts = np.arange(self.seg.size) == self.first
        # each step's U0, the component axis first and the steps last
        U0 = np.moveaxis(np.asarray(U0, dtype=float)[self.owner], 0, -1)
        R, half = (x.reshape(2, 2, *[1] * (U0.ndim - 2), -1)
                   for x in (self.R, self.half))
        end = R[:, 0] * U0[0] + R[:, 1] * U0[1]
        start = np.roll(end, 1, axis=-1)
        start[..., starts] = U0[..., starts]
        e = np.where(starts, 0, np.roll(self.e, 1))
        mid = half[:, 0] * start[0] + half[:, 1] * start[1]
        return (np.stack((start, mid, end), axis=-2),
                np.stack((e, e, self.e)))


def cumulative_norms(channel, U0, nodes, rtol):
    """Cumulative squared norms I(r) = int_{nodes[0]}^r |u|^2 of the two
    solutions from the columns of U0 at nodes[1:], shape (2, n - 1), on the
    states of each step of one Magnus solve.  A step of length h adds

        h/30 (7 f0 + 16 f1/2 + 7 f1) + h^2/60 (f0' - f1')

    of f = |u|^2 at its start, middle and end, with f' = 2 u^T A u =
    2 (L (u2^2 - u1^2) + 2 M u1 u2) at its ends (Q cancels): the
    end-derivative (Hermite-Simpson) rule, exact for quintics.

    A `ChannelBatch` of B channels is one solve: channel i from the columns
    of U0[i] across nodes[i] (U0 of shape (B, 2, 2), nodes of shape (B, n))
    at rtol[i] (or one shared rtol).  It gives one entry a channel, its I or
    the `PreconditionError` that ended its solve; a lone channel raises
    that error.  Each channel's steps, sums and failure are those of its
    lone solve, bit for bit."""
    solve = _Solve(channel, nodes, rtol)
    nodes, owner = solve.nodes, solve.owner
    U, e = solve.states(np.reshape(U0, (len(nodes), 2, 2)))
    u1, u2 = U[..., ::2, :]  # at each step's start and end
    # each channel's step starts, then its last node
    stops = np.searchsorted(owner, np.arange(len(nodes)), side="right")
    r = np.insert(solve.t, stops, nodes[:, -1])
    at = np.arange(owner.size) + owner  # step starts in r
    with np.errstate(over="ignore", invalid="ignore"):
        _, M, L = solve.qml(r, np.insert(owner, stops, np.arange(len(nodes))))
        h = r[at + 1] - r[at]
        M, L = (np.stack((x[at], x[at + 1])) for x in (M, L))
        f = np.ldexp(np.sum(np.square(U), axis=0), 2 * e)
        df = np.ldexp(2.0 * (L * (u2 * u2 - u1 * u1) + 2.0 * M * u1 * u2),
                      2 * e[::2])
        dI = (h / 30.0 * (7.0 * (f[:, 0] + f[:, 2]) + 16.0 * f[:, 1])
              + h * h / 60.0 * (df[:, 0] - df[:, 1]))
        out = [np.cumsum(dI[:, a:b], axis=1)[:, solve.end[a:b]] for a, b in
               zip(np.append(0, stops[:-1]).tolist(), stops.tolist())]
    for i, failure in enumerate(solve.failures):
        try:  # raised, so that the error keeps this frame
            if failure is not None:
                raise PreconditionError(f"cumulative norms failed: {failure}")
            if not np.all(np.isfinite(out[i])):
                raise PreconditionError("cumulative norms overflow")
        except PreconditionError as err:
            out[i] = err
    if isinstance(channel, ChannelBatch):
        return out
    if isinstance(out[0], PreconditionError):
        raise out[0]
    return out[0]


def integrate_cartesian(channel, u0, cfg: SolveConfig) -> Trajectory:
    """Integrate the channel system for the components (u1, u2) with
    adaptive DOP853, one radius at a time, at `cfg.rtol` and an absolute
    tolerance of 1e-14.

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
                        rtol=cfg.rtol, atol=_ATOL, t_eval=cfg.grid())
    grid, y = sol.t, sol.y
    if np.size(grid) == 0:
        grid, y = np.array([cfg.r_start]), u0[:, None]
    u1, u2 = y
    return Trajectory(grid=grid, u1=u1, u2=u2, rho=np.hypot(u1, u2),
                      theta=_safe_unwrap(u1, u2), mode="cartesian",
                      channel=channel, status=int(sol.status),
                      nfev=int(sol.nfev))


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
    solve = _Solve(channel, grid, cfg.rtol)
    (failure,) = solve.failures
    (x, y), e = solve.states([[math.cos(theta0), math.sin(theta0)]])
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
                      nfev=solve.nfev,
                      log_rho=log_rho[at])


def integrate_fundamental(channel, cfg: SolveConfig, r_start=None):
    """The fundamental system Phi(r, r0) on the grid of `cfg` from r0,
    read off one Magnus solve: (grid, phi, failure), phi of shape (n, 2, 2)
    with phi[0] the identity.  When the solve fails, grid and phi stop at
    the last grid point reached and `failure` says why; otherwise it is
    None.  r0 is `cfg.r_start` unless `r_start` gives it.

    A `ChannelBatch` is solved in one call, channel i from r_start[i]
    (`cfg.r_start` when None), and gives one (grid, phi, failure) a
    channel.  Shorter grids are padded with their end radius; each padded
    interval is one zero-length step, exactly the identity, after all the
    channel's nodes, so each channel's Phi is that of its lone solve, bit
    for bit."""
    batch = isinstance(channel, ChannelBatch)
    starts = np.broadcast_to(cfg.r_start if r_start is None else r_start,
                             (len(channel) if batch else 1,))
    grids = [replace(cfg, r_start=r0).grid() for r0 in starts.tolist()]
    sizes = [grid.size for grid in grids]
    nodes = np.stack([np.pad(grid, (0, max(sizes) - grid.size), mode="edge")
                      for grid in grids])
    phi, reached, failures = _Solve(channel, nodes, cfg.rtol).transfer()
    out = [(grid[:n], phi[i, :n], failure) for i, (grid, n, failure) in
           enumerate(zip(grids, np.minimum(reached, sizes).tolist(),
                         failures))]
    return out if batch else out[0]


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


@dataclass(frozen=True)
class FrobeniusInit:
    u0: np.ndarray
    r0: float


def _frobenius(channel: ChannelSystem, r0: float):
    """(init, None) when |k|/r0 dominates the regular coefficients at r0 by
    the factor `_DOMINANCE`, else (None, the r0 at which |k|/r0 would reach
    that factor over their values at r0)."""
    if not isinstance(channel, ChannelSystem):
        raise TypeError("recessive initialization needs an angular channel")
    k = channel.k
    Q0, M0, _, _ = channel.coeffs(r0)
    bound = max(abs(Q0 - M0), abs(Q0 + M0), 1e-300)
    if (abs(k) / r0) / bound < _DOMINANCE:
        return None, abs(k) / (_DOMINANCE * bound)
    if k > 0:
        u0 = np.array([-(Q0 - M0) * r0 / (2 * k + 1), 1.0])
    else:
        u0 = np.array([1.0, (Q0 + M0) * r0 / (2 * abs(k) + 1)])
    u0 /= np.hypot(u0[0], u0[1])
    return FrobeniusInit(u0=u0, r0=float(r0)), None


def frobenius_init(channel: ChannelSystem, r0: float) -> FrobeniusInit:
    """Initial data for the solution recessive at the origin.

    Near r = 0 the angular term k/r dominates and the recessive solution
    scales like r^|k|; the leading component and its first correction follow
    from matching powers of r in the system.  Requires |k|/r0 to dominate
    the regular part of the coefficients by the factor `_DOMINANCE` = 1e3.
    """
    init, limit = _frobenius(channel, r0)
    if init is None:
        raise PreconditionError(
            f"|k|/r0 = {abs(channel.k) / r0:.3g} does not dominate the "
            f"regular coefficients (need factor {_DOMINANCE:g}); "
            f"try r0 <= {limit:.3g}")
    return init


def frobenius_radius(channel: ChannelSystem,
                     r_init: float = 1e-3) -> FrobeniusInit:
    """Shrink r0 from `r_init`, 60 tries at most, until the guard accepts it."""
    r0 = r_init
    for _ in range(60):
        init, limit = _frobenius(channel, r0)
        if init is not None:
            return init
        r0 = min(limit * 0.5, r0 * 0.25)
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


def phase_derivative(channel, r, theta):
    """Right-hand side of the phase equation, vectorized over samples."""
    Q, M, L, _ = channel.coeffs(r)
    return Q + M * np.cos(2.0 * theta) + L * np.sin(2.0 * theta)


def prefer_pruefer(channel, r_lo: float, r_hi: float) -> bool:
    """Heuristic representation choice: polar once Q > 10 W on 16 probes."""
    rs = np.geomspace(max(r_lo, 1e-12), r_hi, 16)
    Q, _, _, W = channel.coeffs(rs)
    return bool(np.all(Q > 10.0 * W))
