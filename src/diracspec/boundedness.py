"""Boundedness certificates built from the channel's envelope function.

For a solution u of the channel system the scalar

    R = ((u1^2 + u2^2) Q + (u1^2 - u2^2) M + 2 u1 u2 L) / (Q - W)

dominates |u|^2 and is almost monotone: its growth between two radii is
bounded by the variation of the coefficient quotients times its running
supremum.  When those variations have small tails, R (and hence every
solution) stays bounded, and a two-sided comparability constant links the
size of any solution at any radius back to its initial size.

Special forms exist when one coefficient vanishes identically:

    M == 0:  R = u1^2 + u2^2 + L/(Q - L) (u1 + u2)^2
    L == 0:  R = u1^2 + u2^2 + 2M/(Q - M) u1^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .bvcalc import cumulative_variation
from .hypotheses import VIOLATED, HypothesisReport
from .solver import (
    PreconditionError,
    SolveConfig,
    Trajectory,
    integrate_fundamental,
    wronskian,
)

__all__ = [
    "RTrace",
    "BoundednessCertificate",
    "r_eval",
    "completed_square",
    "envelope_form",
    "r_trace",
    "almost_monotone_check",
    "comparability_constant",
    "auto_start_radius",
    "certify",
]

GENERAL = "general"
M_ZERO = "M_zero"
L_ZERO = "L_zero"


def envelope_form(channel, r_probe) -> str:
    """Pick the envelope form from coefficients that vanish identically."""
    _, M, L, _ = channel.coeffs(np.asarray(r_probe, dtype=float))
    if np.all(M == 0.0):
        return M_ZERO
    if np.all(L == 0.0):
        return L_ZERO
    return GENERAL


def r_eval(u, coeffs, form: str = GENERAL):
    """Envelope value for a state u = (u1, u2) given (Q, M, L, W) at the
    same radius; vectorized over samples."""
    u1, u2 = u
    Q, M, L, W = coeffs
    usq = u1 ** 2 + u2 ** 2
    if form == GENERAL:
        den = Q - W
        _require_positive(den, "Q - W")
        return (usq * Q + (u1 ** 2 - u2 ** 2) * M + 2.0 * u1 * u2 * L) / den
    if form == M_ZERO:
        den = Q - L
        _require_positive(den, "Q - L")
        return usq + L / den * (u1 + u2) ** 2
    if form == L_ZERO:
        den = Q - M
        _require_positive(den, "Q - M")
        return usq + 2.0 * M / den * u1 ** 2
    raise ValueError(f"unknown envelope form {form!r}")


def _require_positive(den, label):
    arr = np.asarray(den)
    if np.any(arr <= 0.0):
        raise PreconditionError(f"{label} must be positive where the envelope "
                                f"is evaluated")


def completed_square(u, coeffs):
    """Alternative evaluation of the general envelope:
    |u|^2 + (sqrt(W+M) u1 + sgn(L) sqrt(W-M) u2)^2 / (Q - W)."""
    u1, u2 = u
    Q, M, L, W = coeffs
    _require_positive(Q - W, "Q - W")
    cross = np.sqrt(W + M) * u1 + np.sign(L) * np.sqrt(np.maximum(W - M, 0.0)) * u2
    return u1 ** 2 + u2 ** 2 + cross ** 2 / (Q - W)


@dataclass
class RTrace:
    """Envelope values along a trajectory plus the quotient data feeding the
    almost-monotone bound."""

    grid: np.ndarray
    R: np.ndarray
    usq: np.ndarray
    form: str
    quotient_cumvar: dict  # name -> prefix sums of |increments|
    epsilon: float  # sup |L|/Q on the grid (used by the M == 0 variant)

    def to_csv(self, path, bound: Optional[np.ndarray] = None):
        bound = self.R if bound is None else bound
        with open(path, "w") as fh:
            fh.write("# kind=rtrace\n")
            fh.write("r,R,usq,bound\n")
            for row in zip(self.grid, self.R, self.usq, bound):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def r_trace(traj: Trajectory, form: Optional[str] = None) -> RTrace:
    channel = traj.channel
    coeffs = channel.coeffs(traj.grid)
    if form is None:
        form = envelope_form(channel, traj.grid)
    R = r_eval((traj.u1, traj.u2), coeffs, form)
    Q, M, L, W = coeffs
    if form == M_ZERO:
        quotients = {"L/(Q-L)": L / (Q - L)}
    elif form == L_ZERO:
        quotients = {"W/(Q-W)": W / (Q - W), "M/(Q-W)": M / (Q - W)}
    else:
        quotients = {"W/(Q-W)": W / (Q - W), "M/(Q-W)": M / (Q - W),
                     "L/(Q-W)": L / (Q - W)}
    cumvar = {name: cumulative_variation(vals) for name, vals in quotients.items()}
    eps = float(np.max(np.abs(L) / Q))
    return RTrace(grid=traj.grid, R=np.asarray(R), usq=traj.norm_sq(),
                  form=form, quotient_cumvar=cumvar, epsilon=eps)


@dataclass(frozen=True)
class PairVerdict:
    t1: float
    t2: float
    lhs: float
    rhs: float
    ok: bool


def almost_monotone_check(trace: RTrace, pairs=None, n_grid: int = 32,
                          rel_tol: float = 1e-9):
    """Check R(t2) - R(t1) <= (sum of quotient variations) * sup R over
    [t1, t2] for pairs along an envelope trace (see `r_trace`).

    For M == 0 channels the single-quotient variant with the factor
    2 (1 + eps)/(1 - eps) is used.  A false verdict is a finding, not an
    error.
    """
    grid = trace.grid
    if pairs is None:
        pts = np.geomspace(grid[0], grid[-1], n_grid)
        idx = sorted(set(int(i) for i in np.searchsorted(grid, pts)))
        idx = [min(i, len(grid) - 1) for i in idx]
    else:
        idx = sorted(set(int(np.argmin(np.abs(grid - t))) for t in pairs))
    if trace.form == M_ZERO:
        eps = trace.epsilon
        factor = 2.0 * (1.0 + eps) / (1.0 - eps) if eps < 1.0 else math.inf
    else:
        factor = 1.0
    # running maximum of R for sup over [t1, t2] via prefix maxima per pair
    results = []
    R = trace.R
    tol_scale = rel_tol * float(np.max(np.abs(R)))
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1:]:
            var_sum = sum(float(cv[j] - cv[i])
                          for cv in trace.quotient_cumvar.values())
            sup_R = float(np.max(R[i:j + 1]))
            lhs = float(R[j] - R[i])
            rhs = factor * var_sum * sup_R
            results.append(PairVerdict(t1=float(grid[i]), t2=float(grid[j]),
                                       lhs=lhs, rhs=rhs,
                                       ok=bool(lhs <= rhs + tol_scale)))
    return results


@dataclass(frozen=True)
class BoundednessCertificate:
    r0: float
    r_end: float
    sup_R: float
    C: float

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("comparability constant must be >= 1")

    def to_dict(self):
        # a certificate is only issued for a bounded channel; refusals raise
        return {"kind": "boundedness_certificate", "r0": self.r0,
                "r_end": self.r_end, "sup_R": self.sup_R, "C": self.C,
                "verdict": "bounded"}


def auto_start_radius(channel, margin: float = 0.05, lo: float = 0.5,
                      hi: float = 50.0) -> float:
    """First probe radius past which Q - W stays above margin * Q."""
    rs = np.geomspace(lo, hi, 400)
    Q, _, _, W = channel.coeffs(rs)
    bad = np.flatnonzero(~((Q > 0.0) & (Q - W >= margin * Q)))
    first = int(bad[-1]) + 1 if bad.size else 0
    if first == len(rs):
        raise PreconditionError("Q - W does not stabilize above the margin "
                                "on the probe range")
    return float(rs[first])


def comparability_constant(ta: Trajectory,
                           tb: Trajectory) -> BoundednessCertificate:
    """Certify |y(r0)|^2 / C <= |y(r)|^2 <= C |y(r0)|^2 on the grid of a
    solved fundamental pair (ta, tb).

    Every solution is y(r) = P(r) y(r0) with the propagator
    P(r) = Phi(r) Phi(r0)^-1 = [[a, b], [c, d]], Phi = [ta | tb].  The
    extreme ratios over all initial data are the squared singular values of
    P.  With F = ||P||_F^2 and D = det P (the Wronskian normalised at r0,
    1 up to solver drift because trace A = 0):

        sigma_max^2 = (F + sqrt(F^2 - 4 D^2)) / 2
                    = (|(a + d, c - b)| + |(a - d, b + c)|)^2 / 4,
        sigma_min^2 = D^2 / sigma_max^2.

    The second form is used: it keeps full precision when P is nearly a
    rotation, where F^2 - 4 D^2 cancels to rounding noise.

    C is the maximum over the grid of sigma_max^2 and 1 / sigma_min^2: exact
    at the grid points, not a bound between them.
    """
    if not (ta.ok and tb.ok):
        raise PreconditionError(f"fundamental solve failed: {ta.message}")
    phi = np.array([[ta.u1, tb.u1], [ta.u2, tb.u2]]).transpose(2, 0, 1)
    P = phi @ np.linalg.inv(phi[0])
    a, b, c, d = P[:, 0, 0], P[:, 0, 1], P[:, 1, 0], P[:, 1, 1]
    smax_sq = 0.25 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) ** 2
    w = wronskian(ta, tb)
    D = w / w[0]
    C = float(np.max(np.maximum(smax_sq, smax_sq / D ** 2)))
    sup_R = float(np.max(r_trace(ta).R))
    return BoundednessCertificate(r0=float(ta.grid[0]), r_end=float(ta.grid[-1]),
                                  sup_R=sup_R, C=C)


def certify(channel, solver: SolveConfig,
            reports: Optional[Sequence[HypothesisReport]] = None):
    """The boundedness certificate of one channel, as `boundedness` and
    `scan` give it: the fundamental pair is solved with the window end,
    stride and step cap of `solver` from `auto_start_radius`, with rtol
    floored at 1e-10, then `comparability_constant` certifies it.  A channel
    whose `reports` mark the envelope conditions C2/C3 violated is refused
    before anything is solved.  Returns the pair's first trajectory, for the
    envelope trace, and the certificate."""
    for rep in reports or ():
        if rep.condition_id.startswith(("C2", "C3")) and rep.verdict == VIOLATED:
            raise PreconditionError(
                f"certificate refused: {rep.condition_id} reported violated")
    cfg = replace(solver, r_start=auto_start_radius(channel),
                  rtol=max(solver.rtol, 1e-10))
    ta, tb = integrate_fundamental(channel, cfg)
    return ta, comparability_constant(ta, tb)
