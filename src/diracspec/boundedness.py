"""Boundedness certificates built from the channel's envelope function.

For a solution u of the channel system the envelope

    R = ((u1^2 + u2^2) Q + (u1^2 - u2^2) M + 2 u1 u2 L) / (Q - W)

(the general form; the formula and denominator of each form, the
single-quotient forms of M == 0 or L == 0 included, are one entry of
`hypotheses.ENVELOPE_FORMS`) dominates |u|^2 and is almost monotone: its
growth between two radii is bounded by the variation of the coefficient
quotients times its running supremum.  When those variations have small
tails, R (and hence every solution) stays bounded, and a two-sided
comparability constant links the size of any solution at any radius back
to its initial size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .bvcalc import cumulative_variation
from .coefficients import ChannelBatch, assemble_channel
from .hypotheses import (ENVELOPE_FORMS, GENERAL, VIOLATED, HypothesisReport,
                         envelope_form)
from .solver import (DIGITS, PreconditionError, SolveConfig,
                     integrate_fundamental, write_columns)

__all__ = [
    "RTrace",
    "BoundednessCertificate",
    "r_eval",
    "completed_square",
    "r_trace",
    "almost_monotone_check",
    "comparability_constant",
    "auto_start_radius",
    "certify",
]

# the per-step tolerance of every certificate solve (`certify`)
_RTOL = 1e-10


def r_eval(u, coeffs, form: str = GENERAL):
    """Envelope value for a state u = (u1, u2) given (Q, M, L, W) at the
    same radius; vectorized over samples."""
    return _envelope(u, coeffs, form)[0]


def _envelope(u, coeffs, form):
    # R, |u|^2 and the denominator of the envelope form
    if form not in ENVELOPE_FORMS:
        raise ValueError(f"unknown envelope form {form!r}")
    env = ENVELOPE_FORMS[form]
    u1, u2 = u
    Q, M, L, W = coeffs
    den = env.denominator(Q, M, L, W)
    _require_positive(den, env.den_name)
    usq = u1 ** 2 + u2 ** 2
    return env.envelope(u1, u2, usq, Q, M, L, den), usq, den


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
    form: str  # the envelope form, a key of `hypotheses.ENVELOPE_FORMS`
    cumvar: np.ndarray  # prefix sums of the quotients' summed |increments|
    epsilon: float  # sup |x|/Q of a single-quotient form's x; 0 if general

    def to_csv(self, path):
        write_columns(path, "# kind=rtrace\nr,R,usq",
                      (self.grid, self.R, self.usq), DIGITS["rtrace"])


def r_trace(channel, grid, u) -> RTrace:
    """The envelope trace of one solution u = (u1, u2) of `channel` on
    `grid`, in the form the channel's (M, L) pick there, with the C3
    quotients of that form."""
    Q, M, L, W = coeffs = channel.coeffs(grid)
    form = envelope_form(M, L)
    R, usq, den = _envelope(u, coeffs, form)
    env = ENVELOPE_FORMS[form]
    return RTrace(grid=grid, R=np.asarray(R), usq=usq, form=form,
                  cumvar=sum(map(cumulative_variation, env.quotients(
                      Q, M, L, W, den, np.empty(Q.shape)))),
                  epsilon=env.epsilon(Q, M, L))


def almost_monotone_check(trace: RTrace, n_grid: int = 32) -> np.recarray:
    """Check R(t2) - R(t1) <= (sum of quotient variations) * sup R over
    [t1, t2] for every pair t1 < t2 of about `n_grid` geometric points of
    an envelope trace (see `r_trace`), each snapped to the grid point at or
    above it.  Returns one record (t1, t2, lhs, rhs, ok) per pair, in the
    order (t1, t2) of its grid indices; a pair holds within 1e-9 max |R|.

    A single-quotient form (M == 0 or L == 0) takes the factor
    2 (1 + eps)/(1 - eps) on its variation (`EnvelopeForm.factor`).  A false
    verdict is a finding, not an error.
    """
    grid, R = trace.grid, trace.R
    pts = np.geomspace(grid[0], grid[-1], n_grid)
    idx = np.unique(np.minimum(np.searchsorted(grid, pts), len(grid) - 1))
    factor = ENVELOPE_FORMS[trace.form].factor(trace.epsilon)
    n = len(idx)
    a, b = np.triu_indices(n, 1)
    i, j = idx[a], idx[b]
    # sup R over [grid[i], grid[j]]: the running maximum of the maxima of
    # the blocks R[idx[c]:idx[c + 1]] from c = a to b - 1, then R[j]
    blocks = np.where(np.arange(n) >= np.arange(n)[:, None],
                      np.maximum.reduceat(R, idx), -np.inf)
    sup_R = np.maximum(np.maximum.accumulate(blocks, axis=1)[a, b - 1], R[j])
    lhs = R[j] - R[i]
    rhs = factor * (trace.cumvar[j] - trace.cumvar[i]) * sup_R
    ok = lhs <= rhs + 1e-9 * float(np.max(np.abs(R)))
    return np.rec.fromarrays([grid[i], grid[j], lhs, rhs, ok],
                             names="t1,t2,lhs,rhs,ok")


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
        return {"kind": "boundedness_certificate", **asdict(self),
                "verdict": "bounded"}


def auto_start_radius(channel) -> float:
    """First of 400 geometric probes in [0.5, 50] past which Q - W >= 0.05 Q."""
    rs = np.geomspace(0.5, 50.0, 400)
    Q, _, _, W = channel.coeffs(rs)
    bad = np.flatnonzero(~((Q > 0.0) & (Q - W >= 0.05 * Q)))
    first = int(bad[-1]) + 1 if bad.size else 0
    if first == len(rs):
        raise PreconditionError("Q - W does not stabilize above the margin "
                                "on the probe range")
    return float(rs[first])


def comparability_constant(phi, trace: RTrace) -> BoundednessCertificate:
    """Certify |y(r0)|^2 / C <= |y(r)|^2 <= C |y(r0)|^2 on the grid of
    `trace` from the fundamental system phi = Phi(r, r0) there, (n, 2, 2)
    with phi[0] the identity; `sup_R` is read off `trace`.

    Every solution is y(r) = Phi(r) y(r0), Phi = [[a, b], [c, d]].  The
    extreme ratios over all initial data are the squared singular values of
    Phi.  With F = ||Phi||_F^2 and D = det Phi (1 up to solver drift because
    trace A = 0):

        sigma_max^2 = (F + sqrt(F^2 - 4 D^2)) / 2
                    = (|(a + d, c - b)| + |(a - d, b + c)|)^2 / 4,
        sigma_min^2 = D^2 / sigma_max^2.

    The second form is used: it keeps full precision when Phi is nearly a
    rotation, where F^2 - 4 D^2 cancels to rounding noise.

    C is the maximum over the grid of sigma_max^2 and 1 / sigma_min^2: exact
    at the grid points, not a bound between them.
    """
    a, b, c, d = phi[:, 0, 0], phi[:, 0, 1], phi[:, 1, 0], phi[:, 1, 1]
    smax_sq = 0.25 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) ** 2
    D = a * d - c * b
    C = float(np.max(np.maximum(smax_sq, smax_sq / D ** 2)))
    sup_R = float(np.max(trace.R))
    return BoundednessCertificate(r0=float(trace.grid[0]),
                                  r_end=float(trace.grid[-1]), sup_R=sup_R, C=C)


def certify(channel, solver: SolveConfig,
            reports: Optional[Sequence[Sequence[HypothesisReport]]] = None):
    """The boundedness certificates of the cells of one k, as `boundedness`
    and `scan` give them: `channel` is a `ChannelBatch`, or a lone channel
    as a batch of one, and reports[i] holds the condition reports of its
    channel i.

    A channel whose reports mark the envelope conditions C2/C3 violated, or
    whose `auto_start_radius` is missing or not below the window end, is
    refused before anything is solved.  The fundamental systems Phi of the
    others are one `integrate_fundamental` solve, each from its own start
    radius with the window end and stride of `solver`, at a per-step
    tolerance of 1e-10; `comparability_constant` certifies each with the
    envelope trace of Phi's first column.  Returns per channel its envelope
    trace and certificate, or the PreconditionError that refuses it; one
    channel's refusal leaves the others as they are."""
    batch = isinstance(channel, ChannelBatch)
    cells = ([assemble_channel(channel.model, k, lam) for k, lam in
              zip(channel.ks.tolist(), channel.lams.tolist())]
             if batch else [channel])
    results, starts = [None] * len(cells), {}
    for i, (cell, reps) in enumerate(zip(cells, reports or [()] * len(cells))):
        try:
            for rep in reps:
                if (rep.condition_id.startswith(("C2", "C3"))
                        and rep.verdict == VIOLATED):
                    raise PreconditionError(f"certificate refused: "
                                            f"{rep.condition_id} reported "
                                            f"violated")
            r0 = auto_start_radius(cell)
            if r0 >= solver.r_end:
                raise PreconditionError(f"certificate refused: start radius "
                                        f"r0 = {r0:g} is not below r_end = "
                                        f"{solver.r_end:g}")
        except PreconditionError as err:
            results[i] = err
        else:
            starts[i] = r0
    if not starts:
        return results
    kept = list(starts)
    solved = (replace(channel, ks=channel.ks[kept], lams=channel.lams[kept])
              if batch else channel)
    solves = integrate_fundamental(
        solved, replace(solver, rtol=_RTOL),
        list(starts.values()))
    for i, (grid, phi, failure) in zip(starts, solves if batch else [solves]):
        try:
            if failure is not None:
                raise PreconditionError(f"fundamental solve failed: {failure}")
            trace = r_trace(cells[i], grid, phi[:, :, 0].T)
            results[i] = trace, comparability_constant(phi, trace)
        except PreconditionError as err:
            results[i] = err
    return results
