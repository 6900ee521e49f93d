"""Subordinacy analysis for the borderline regime m == q.

For negative spectral parameters the solutions grow like q^(1/4) in one
component and decay like q^(-1/4) in the other.  Rescaling

    v1 = (gamma / Lambda)^(1/4) u1,   v2 = (Lambda / gamma)^(1/4) u2,

with gamma = 2q - lambda and Lambda = |lambda|, turns the channel equation
into another channel equation with coefficients

    Q = sqrt(Lambda gamma),   L = k/r - gamma'/(4 gamma),   M = 0,

whose solutions are all bounded and of comparable size.  The oscillation of
the rescaled phase then spreads the growing and decaying parts so evenly
between any two solutions that neither can be negligible against the other:
cumulative norm ratios stay bounded away from zero.  The rescaled channel
serves the phase band and `asymptotics`; the ratios themselves need no
rescaling, since |u|^2 = sqrt(Lambda/gamma) v1^2 + sqrt(gamma/Lambda) v2^2
is an identity, and come from `solver.cumulative_norms` on the original
channel.  For positive spectral parameters the same machinery exhibits the
opposite behaviour: one direction decays against every other, and matching
it to the solution recessive at the origin locates discrete eigenvalues.

Every m == q cell of a `subordinacy` or `scan` call is classified by one
`borderline_cells` call in two solves: one batched `propagate` carries the
directions recessive at infinity of all lambda > 0 cells in to r = 1, and
one batched `cumulative_norms` gives the norms of every cell's ratio, each
channel at its own tolerance and failing alone; `subordinacy_ratio` is the
one-cell call of the same ratio batch.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boundedness import certify
from .coefficients import (
    ChannelBatch,
    CoefficientModel,
    angular_number,
    assemble_channel,
    require_equal,
)
from .hypotheses import SATISFIED, worst_verdict
from .solver import (
    PreconditionError,
    SolveConfig,
    cumulative_norms,
    frobenius_radius,
    propagate,
)

__all__ = [
    "TransformedChannel",
    "SubordinacyReport",
    "transform",
    "phase_band",
    "subordinacy_ratio",
    "ratio_range",
    "eigen_bracket",
    "eigen_steps",
    "eigen_shoot",
    "classify_cells",
    "borderline_cells",
    "summarize_cells",
    "decaying_direction",
    "RESCALED_RTOL",
    "DELTA",
]

# the per-step tolerance of every polar solve of a `TransformedChannel`
RESCALED_RTOL = 1e-11
# the threshold of `subordinacy_ratio`: a ratio below it is subordinate
DELTA = 1e-3
# the ratio ladder of `subordinacy_ratio` starts at this multiple of r0
_RATIO_START = 1.25
# shooting's step tolerance: at half of it q = m = r eigenvalues move < 1e-6
_SHOOT_RTOL = 1e-10


@dataclass(frozen=True)
class TransformedChannel:
    """Rescaled channel for m == q and negative spectral parameter."""

    model: CoefficientModel
    k: int
    lam: float

    def __post_init__(self):
        if self.lam >= 0.0:
            raise ValueError("the rescaling is defined for negative spectral "
                             "parameters only")
        object.__setattr__(self, "k", angular_number(self.k))

    @property
    def Lambda(self) -> float:
        return abs(self.lam)

    def gamma(self, r):
        return 2.0 * self.model.q.value(r) - self.lam

    def coeffs(self, r):
        g = self.gamma(r)
        Q = np.sqrt(self.Lambda * g)
        L = self.k / np.asarray(r, dtype=float) - \
            self.model.q.derivative(r) / (2.0 * g)
        z = Q * 0.0
        return Q, z, L, np.abs(L)

    def scalar_qml(self, r):
        g = 2.0 * self.model.q.value(r) - self.lam
        Q = math.sqrt(self.Lambda * g)
        L = self.k / r - float(self.model.q.derivative(r)) / (2.0 * g)
        return Q, 0.0, L

    def scale(self, r):
        """(gamma / Lambda)^(1/4), the component rescaling factor."""
        return (self.gamma(r) / self.Lambda) ** 0.25

    def forward(self, r, u1, u2):
        f = self.scale(r)
        return f * u1, u2 / f

    def inverse(self, r, v1, v2):
        f = self.scale(r)
        return v1 / f, f * v2

    def label(self) -> str:
        return f"transformed(k={self.k},lambda={self.lam:g})"


def transform(model: CoefficientModel, k: int, lam: float) -> TransformedChannel:
    """Build the rescaled channel; requires m == q and lam < 0."""
    require_equal(model, "transform")
    return TransformedChannel(model=model, k=k, lam=float(lam))


def phase_band(model: CoefficientModel, k: int, lam: float, r0: float,
               r_end: float) -> dict:
    """g, the largest |L|/Q of the rescaled channel on 4000 geometric
    radii of [r0, r_end] (a sample, not a bound), and the band
    [pi/(2(1+g)), pi/(2(1-g))] that holds the s-length, s = int Q dr, of
    every quarter turn [-3pi/4, -pi/4] + n pi (J) or [-pi/4, pi/4] + n pi
    (K) of the angle of any solution, as dtheta/ds = 1 + (L/Q) sin(2 theta)
    when M = 0.  Refused when g exceeds 1/2, where the band would leave
    [pi/3, pi]; the refusal names the first radius that fails."""
    rs = np.geomspace(r0, r_end, 4000)
    Q, _, L, _ = transform(model, k, lam).coeffs(rs)
    ratio = np.abs(L) / Q
    if np.any(ratio > 0.5):
        raise PreconditionError(f"|L|/Q exceeds 0.5 at r = "
                                f"{rs[np.argmax(ratio > 0.5)]:g}; phase band "
                                f"refused")
    g = float(np.max(ratio))
    return {"r0": float(r0), "r_end": float(r_end), "g": g,
            "band": [math.pi / (2.0 + 2.0 * g), math.pi / (2.0 - 2.0 * g)]}


# ---------------------------------------------------------------------------
# cumulative norm ratios


@dataclass(frozen=True)
class SubordinacyReport:
    lam: float
    k: int
    r0: float
    r_end: float
    ratio_tail: list  # (r, I_a / I_b)
    liminf_estimate: float
    classification: str
    fit: Optional[dict]

    def __post_init__(self):
        if any(v <= 0.0 for _, v in self.ratio_tail):
            raise ValueError("cumulative norm ratios must be positive")

    def to_dict(self):
        return {"kind": "subordinacy", "lambda": self.lam, "k": self.k,
                "r0": self.r0, "r_end": self.r_end, "delta": DELTA,
                "ratio_tail": self.ratio_tail,
                "liminf_estimate": self.liminf_estimate,
                "classification": self.classification, "fit": self.fit}


def _fit_log_decay(r, logv):
    slope, intercept = np.polyfit(r, logv, 1)
    pred = slope * r + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r2}


def subordinacy_ratio(model: CoefficientModel, k: int, lam: float,
                      u0_a, u0_b, r0: float, r_end: float, *,
                      rtol: float = 1e-10) -> SubordinacyReport:
    """Cumulative squared-norm ratio of two solutions at 48 geometric radii
    from max(1.25 r0, r0 + (r_end - r0)/1000) to r_end > 1.25 r0, at the
    step tolerance `rtol`: the one-cell call of `_ratios`, the batch that
    `borderline_cells` reads every cell of a call from.

    Classification, against the threshold `DELTA` = 1e-3: `no-subordinate`
    when both orientations of the ratio stay above it on the tail;
    `subordinate-found` when one orientation decays monotonically below it
    and follows a clean log-linear decay law; `inconclusive` otherwise.
    """
    (report,) = _ratios(model, [(k, lam, u0_a, u0_b, r0, r_end, rtol)])
    if isinstance(report, Exception):
        raise report
    return report


def _attempt(fn, *args, **kwargs):
    # fn's result, or the exception it raised: one cell's failure is its own
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return err


def _ratio_start(u0_a, u0_b, r0, r_end):
    """(U0, nodes) of one ratio: the initial data as columns, refused when
    numerically dependent, and r0 before the 48 ladder radii."""
    ratio_range(r0, r_end)
    U0 = np.column_stack((u0_a, u0_b)).astype(float)
    cross = U0[0, 0] * U0[1, 1] - U0[1, 0] * U0[0, 1]
    norms = float(np.hypot(*U0[:, 0]) * np.hypot(*U0[:, 1]))
    if abs(cross) < 1e-10 * norms:
        raise ValueError("initial conditions are numerically dependent")
    return U0, np.append(r0, np.geomspace(
        max(r0 * _RATIO_START, r0 + 1e-3 * (r_end - r0)), r_end, 48))


def _ratios(model: CoefficientModel, cells) -> list:
    """The `SubordinacyReport` of each cell (k, lam, u0_a, u0_b, r0, r_end,
    rtol) of `subordinacy_ratio`, or the exception that ended it: the norms
    of every cell that passes `_ratio_start` are one batched
    `cumulative_norms` call, each cell at its own tolerance."""
    out = [_attempt(_ratio_start, *cell[2:6]) for cell in cells]
    ready = [i for i, x in enumerate(out) if not isinstance(x, Exception)]
    if not ready:
        return out
    norms = cumulative_norms(
        ChannelBatch(model, [cells[i][0] for i in ready],
                     [cells[i][1] for i in ready]),
        [out[i][0] for i in ready], [out[i][1] for i in ready],
        np.array([cells[i][6] for i in ready]))
    for i, I in zip(ready, norms):
        k, lam, _, _, r0, r_end, _ = cells[i]
        out[i] = I if isinstance(I, Exception) else _attempt(
            _report, k, lam, r0, r_end, out[i][1][1:], *I)
    return out


def _report(k, lam, r0, r_end, ladder, I_a, I_b) -> SubordinacyReport:
    """Classify one ratio from its norms on the ladder."""
    ratio_ab = I_a / I_b
    ratio_ba = I_b / I_a
    tail = ladder >= r_end / 10.0
    liminf = float(np.min(ratio_ab[tail]))

    fit = None
    # decay-law window: past the midpoint, where transients have died out
    half = ladder >= r0 + 0.5 * (r_end - r0)
    if liminf >= DELTA and float(np.min(ratio_ba[tail])) >= DELTA:
        classification = "no-subordinate"
    else:
        cand = ratio_ab if liminf < DELTA else ratio_ba
        tail_vals = cand[half]
        monotone = bool(np.all(np.diff(tail_vals) <= np.abs(tail_vals[:-1]) * 1e-6))
        fit = _fit_log_decay(ladder[half], np.log(tail_vals))
        if monotone and fit["slope"] < 0.0 and fit["r_squared"] > 0.99 \
                and tail_vals[-1] < DELTA:
            classification = "subordinate-found"
        else:
            classification = "inconclusive"

    return SubordinacyReport(
        lam=float(lam), k=int(k), r0=float(r0), r_end=float(r_end),
        ratio_tail=[(float(r), float(v)) for r, v in zip(ladder, ratio_ab)],
        liminf_estimate=liminf, classification=classification, fit=fit)


def ratio_range(r0: float, r_end: float) -> None:
    """Refuse the range of `subordinacy_ratio` unless 0 < r0 < r_end and
    r_end > 1.25 r0, where its ladder starts."""
    if not (0.0 < r0 < r_end and _RATIO_START * r0 < r_end):
        raise ValueError(f"the ratio range needs 0 < r0 < r_end and r_end > "
                         f"{_RATIO_START:g} r0, where its ladder starts")


# ---------------------------------------------------------------------------
# eigenvalue shooting on the positive half-line


def decaying_direction(model: CoefficientModel, k: int, lam: float,
                       r_at: float) -> np.ndarray:
    """Unit vector along the locally decaying direction of the frozen
    system at r_at (positive spectral parameter, beyond the turning point):
    the eigenvector of A(r_at) for its eigenvalue -sqrt(`_decay_rate_sq`).
    """
    S = _decay_rate_sq(model.q.value(r_at), k, lam, r_at)
    if S <= 0.0:
        raise PreconditionError(f"no decaying direction at r = {r_at:g}; "
                                f"still inside the oscillatory region")
    v = np.array([1.0, (k / r_at - math.sqrt(S)) / lam])
    return v / np.hypot(v[0], v[1])


def _decay_rate_sq(q, k, lam, r):
    # -det A(r) = L^2 + M^2 - Q^2 when m == q, positive past the turning point
    return 2.0 * lam * q - lam ** 2 + (k / r) ** 2


# the radii at which `_turning_radius` and `_shoot_range` read q, 64 a
# decade; their caller reads q there once (`_probe_q`), for every lam of
# the call, and hands both the same values
_PROBE = np.geomspace(1e-6, 1e9, 961)


def _probe_q(model):
    # an overflowing q (an exponential, say) reads inf far out
    with np.errstate(over="ignore"):
        return model.q.value(_PROBE)


def _first_reach(xs, ys, x):
    # per row on the probe (one row serves every x), ys where xs first
    # reaches x, linear from the entry before; nan when it never does
    xs, ys = (np.broadcast_to(a, (x.size, _PROBE.size)) for a in (xs, ys))
    above = xs >= x[:, None]
    hi = np.argmax(above, axis=1)
    out = np.where(above.any(axis=1), ys[:, 0], np.nan)
    rows = np.flatnonzero(hi)
    lo, hi = hi[rows] - 1, hi[rows]
    out[rows] = ys[rows, lo] + (x[rows] - xs[rows, lo]) * \
        (ys[rows, hi] - ys[rows, lo]) / (xs[rows, hi] - xs[rows, lo])
    return out


def _turning_radius(q, lam):
    # where q, read on the probe, first reaches lam/2
    lam = np.asarray(lam, dtype=float)
    half = lam.ravel() / 2.0
    r = _first_reach(q, _PROBE, half)
    if np.isnan(r).any():
        raise PreconditionError(
            f"no turning radius found: q never reaches lambda/2 = "
            f"{half[np.isnan(r)][0]:g} on [{_PROBE[0]:g}, {_PROBE[-1]:g}]")
    return r.reshape(lam.shape)[()]


def _shoot_range(q, k, lam, r_start, exponent):
    # where the semiclassical exponent past r_start, the integral of
    # sqrt(max(S, 0)), reaches `exponent`, capped at 1e6: cumulative
    # trapezoids over the probe, on which q was read, read linearly at
    # r_start; one row for each of k, lam and r_start, broadcast
    k, lam, r_start = np.broadcast_arrays(k, lam, r_start)
    shape, r_start = lam.shape, r_start.ravel()
    k, lam = k.reshape(-1, 1), lam.reshape(-1, 1)
    rate = np.sqrt(np.maximum(_decay_rate_sq(q, k, lam, _PROBE), 0.0))
    sums = np.zeros(rate.shape)
    np.cumsum(0.5 * (rate[:, 1:] + rate[:, :-1]) * np.diff(_PROBE), axis=1,
              out=sums[:, 1:])
    start = _first_reach(_PROBE, sums, r_start)
    r = _first_reach(sums, _PROBE, start + exponent)
    return np.fmin(r, 1e6).reshape(shape)[()]


def _refine_roots(f, lo, hi, f_lo, f_hi, tol):
    """Roots of f in the sign-change brackets [lo, hi], refined in
    lockstep by false position with the Anderson-Bjorck weights: each round
    makes one call f(i, x) for the open brackets i, at their false-position
    points x held tol/2 inside the bracket, and keeps each sign change.  An
    end kept twice in a row has its value scaled by 1 - f(x)/f(moved end),
    or halved when that is not positive.  A bracket closes when it is no
    wider than tol, at its false-position point, or when f vanishes."""
    lo, hi, f_lo, f_hi = (np.array(x, dtype=float)
                          for x in (lo, hi, f_lo, f_hi))
    roots = np.full(lo.shape, np.nan)
    last = np.zeros(lo.shape)  # +1 when lo moved last, -1 when hi did
    while True:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        done = np.isnan(roots) & (hi - lo <= tol)
        roots[done] = x[done]
        i = np.flatnonzero(np.isnan(roots))
        if not i.size:
            return roots
        x = np.clip(x[i], lo[i] + 0.5 * tol, hi[i] - 0.5 * tol)
        fx = np.asarray(f(i, x), dtype=float)
        roots[i[fx == 0.0]] = x[fx == 0.0]
        up = np.sign(fx) == np.sign(f_lo[i])
        moved = np.where(up, f_lo[i], f_hi[i])
        m = 1.0 - fx / moved
        weight = np.where(m > 0.0, m, 0.5)
        again = np.where(up, last[i] > 0, last[i] < 0)
        f_hi[i[up & again]] *= weight[up & again]
        f_lo[i[~up & again]] *= weight[~up & again]
        lo[i[up]], f_lo[i[up]] = x[up], fx[up]
        hi[i[~up]], f_hi[i[~up]] = x[~up], fx[~up]
        last[i] = np.where(up, 1.0, -1.0)


def eigen_bracket(bracket) -> tuple:
    """The search bracket (lo, hi) of `eigen_shoot` as floats; refused
    unless 0 <= lo < hi."""
    lo, hi = map(float, bracket)
    if not 0.0 <= lo < hi:
        raise ValueError(f"need a bracket 0 <= lo < hi, got [{lo:g}, {hi:g}]")
    return lo, hi


def eigen_steps(tol_lambda: float, scan_step: float) -> None:
    """Refuse the root tolerance and the scan step of `eigen_shoot` unless
    both are positive."""
    if not (tol_lambda > 0.0 and scan_step > 0.0):
        raise ValueError("need a positive root tolerance and scan step")


def eigen_shoot(model: CoefficientModel, k_set: Sequence[int], bracket, *,
                tol_lambda: float = 1e-8, scan_step: float = 0.05) -> list:
    """Locate the discrete spectral points of the channels `k_set` inside a
    positive bracket: the sorted (k, lambda) pairs, one per root.

    The solution recessive at the origin is continued outward, the solution
    recessive at infinity is continued inward, and the normalized angle
    mismatch between them at the matching radius max(r*, 4 r0), r* the
    turning point where q reaches lambda/2 and r0 the Frobenius start,
    changes sign exactly at an eigenvalue; the inward one starts where the WKB exponent past
    the matching radius reaches 27.  The mismatch of many (k, lambda) is
    one `propagate` call of a `ChannelBatch` holding both directions of
    each: one for the scan grid of every k, then one a round while
    `_refine_roots` narrows every sign change of every k in lockstep to
    `tol_lambda`; q is read once a call, on the fixed probe radii that the
    matching and far radii of every lambda are read off.  The scan samples
    both bracket ends but lambda = 0, where the direction recessive at
    infinity (`decaying_direction`) divides by lambda.
    """
    require_equal(model, "eigen_shoot")
    a, b = eigen_bracket(bracket)
    eigen_steps(tol_lambda, scan_step)
    ks = np.array(sorted({angular_number(k) for k in k_set}))
    if not ks.size:
        raise ValueError("need a nonempty k set")
    q = _probe_q(model)

    def mismatch(ks, lams):
        pairs = list(zip(ks.tolist(), lams.tolist()))
        inits = [frobenius_radius(assemble_channel(model, k, lam),
                                  r_init=min(1e-3, 0.01 / (1.0 + lam)))
                 for k, lam in pairs]
        r0 = np.array([init.r0 for init in inits])
        r_star = _turning_radius(q, lams)
        r_match = np.maximum(r_star, 4.0 * r0)
        r_far = _shoot_range(q, ks, lams, r_match, 27.0)
        u0 = [init.u0 for init in inits] + [
            decaying_direction(model, k, lam, r)
            for (k, lam), r in zip(pairs, r_far.tolist())]
        u = propagate(ChannelBatch(model, np.tile(ks, 2), np.tile(lams, 2)),
                      u0, np.append(r0, r_far), np.tile(r_match, 2),
                      rtol=_SHOOT_RTOL)
        u_f, u_b = u[:lams.size], u[lams.size:]
        num = u_f[:, 0] * u_b[:, 1] - u_f[:, 1] * u_b[:, 0]
        return num / (np.hypot(*u_f.T) * np.hypot(*u_b.T))

    n = max(8, int(math.ceil((b - a) / scan_step)))
    grid = a + (b - a) * np.arange(0 if a > 0.0 else 1, n + 1) / n
    values = mismatch(np.repeat(ks, grid.size), np.tile(grid, ks.size))
    values = values.reshape(ks.size, grid.size)
    row, col = np.nonzero(values[:, :-1] * values[:, 1:] < 0.0)
    roots = _refine_roots(lambda i, x: mismatch(ks[row[i]], x), grid[col],
                          grid[col + 1], values[row, col],
                          values[row, col + 1], tol_lambda)
    at, on = np.nonzero(values == 0.0)
    return sorted(zip(ks[np.append(row, at)].tolist(),
                      roots.tolist() + grid[on].tolist()))


# ---------------------------------------------------------------------------
# per-cell spectral classification

# lines of a failed cell's traceback kept in its record: the raising frames
# and the exception
_TRACEBACK_LINES = 8


def classify_cells(model: CoefficientModel, k_set: Sequence[int],
                   lambda_grid: Sequence[float], *, solver: SolveConfig,
                   subordinacy: dict, c_reports: Optional[dict]) -> list:
    """Run the appropriate evidence pipeline for each (k, lambda) cell.

    Dominant-potential cells, with their channel condition reports
    `c_reports` (`hypotheses.check_scan`), get the certificate of
    `boundedness.certify` on the `solver` settings, one call per k
    (`_dominant_cells`; an error there marks every cell of that k);
    borderline ones (m == q, `c_reports` None) go through one
    `borderline_cells` call on the `subordinacy` section (r0, r_end), where
    a failed cell fails alone.
    """
    ks = sorted(int(k) for k in set(k_set))
    lams = sorted(set(float(l) for l in lambda_grid))
    cells = [{"k": k, "lambda": lam} for k in ks for lam in lams]
    if c_reports is None:
        records = borderline_cells(
            model, [(c["k"], c["lambda"]) for c in cells], subordinacy)
        for cell, record in zip(cells, records):
            cell.update(_error_record(record)
                        if isinstance(record, Exception) else record)
    else:
        for i, k in enumerate(ks):
            _isolated(cells[i * len(lams):(i + 1) * len(lams)],
                      lambda: _dominant_cells(
                          model, k, lams, solver,
                          [c_reports[k, lam] for lam in lams]))
    return cells


def _error_record(err):
    # the record of a failed cell: the exception and the last lines of its
    # traceback, the raising frames
    lines = "".join(traceback.format_exception(err)).splitlines()
    return {"classification": "error", "path": "none",
            "error": f"{type(err).__name__}: {err}",
            "traceback": lines[-_TRACEBACK_LINES:]}


def _isolated(cells, records):
    """Update each of `cells` with its record from `records()`, or, when
    that raises, with the error record of the exception: per-cell
    isolation, so that a scan goes on."""
    try:
        updates = records()
    except Exception as err:
        updates = [_error_record(err)] * len(cells)
    for cell, update in zip(cells, updates):
        cell.update(update)


def _dominant_cells(model, k, lams, solver, reports):
    """The dominant-potential cells of one k, given their channel condition
    reports: each an ac-candidate with its certificate when every report
    is satisfied and `certify` grants it, inconclusive (with any refusal)
    otherwise.  The cells with satisfied reports share one `certify`
    call."""
    cells = [{"path": "boundedness", "classification": "inconclusive",
              "channel_conditions": [r.to_dict() for r in reps]}
             for reps in reports]
    ready = [i for i, reps in enumerate(reports)
             if worst_verdict(reps) == SATISFIED]
    if ready:
        results = certify(ChannelBatch(model, k, [lams[i] for i in ready]),
                          solver, [reports[i] for i in ready])
        for i, result in zip(ready, results):
            if isinstance(result, PreconditionError):
                cells[i]["refused"] = str(result)
            else:
                cells[i].update(classification="ac-candidate",
                                certificate=result[1].to_dict())
    return cells


def borderline_cells(model: CoefficientModel, cells,
                     subordinacy: dict) -> list:
    """The m == q cells (k, lambda) of `cells`, as `subordinacy` and `scan`
    classify them: per cell its record, or the exception that ended it.

    lambda < 0: the ratio of the solutions started along the axes, from
    the `subordinacy` section's r0 to its r_end at the step tolerance
    1e-10, an ac-candidate when neither is subordinate.  lambda > 0: the
    ratio of the solution recessive at infinity to its orthogonal
    complement, from r = 1 to the far radius of `_eigen_side_cell` at
    1e-9, subordinate-found when the recessive one is subordinate.
    lambda = 0 is excluded, since no claim is made at the boundary point.

    Two solves serve every cell: one batched `propagate` carries the
    decaying directions of all lambda > 0 cells in to r = 1 (when it
    fails, its refusal ends each of them), and one batched
    `cumulative_norms` (`_ratios`) gives the ratios of all cells, each
    channel's steps, sums and failure its own.
    """
    records, pairs = [None] * len(cells), {}
    for i, (k, lam) in enumerate(cells):
        if lam == 0.0:
            records[i] = {"classification": "excluded",
                          "path": "boundary-point"}
        elif lam < 0.0:
            pairs[i] = ([1.0, 0.0], [0.0, 1.0], subordinacy["r0"],
                        subordinacy["r_end"], 1e-10)
    positive = [i for i, (_, lam) in enumerate(cells) if lam > 0.0]
    if positive:
        q = _probe_q(model)
        far = {i: _attempt(_eigen_side_cell, model, q, *cells[i])
               for i in positive}
        live = [i for i in positive if not isinstance(far[i], Exception)]
        u = _attempt(propagate, ChannelBatch(
            model, [cells[i][0] for i in live], [cells[i][1] for i in live]),
            [far[i][1] for i in live], [far[i][0] for i in live], 1.0,
            rtol=_SHOOT_RTOL) if live else None
        for i in positive:
            if i not in live:
                records[i] = far[i]
            elif isinstance(u, Exception):
                records[i] = u
            else:
                u_dec = u[live.index(i)]
                u_dec = u_dec / np.hypot(*u_dec)
                pairs[i] = (u_dec, np.array([-u_dec[1], u_dec[0]]), 1.0,
                            far[i][0], 1e-9)
    order = sorted(pairs)
    for i, report in zip(order, _ratios(
            model, [(*cells[i], *pairs[i]) for i in order])):
        records[i] = (report if isinstance(report, Exception)
                      else _subordinacy_cell(report))
    return records


def _eigen_side_cell(model, q, k, lam):
    """(r_far, u): the far radius of a lambda > 0 cell, where the WKB
    exponent past the turning point (and past r = 1.5) reaches 15, on q
    read on the probe (`_probe_q`), and the direction decaying toward it
    there (`decaying_direction`)."""
    r_far = _shoot_range(q, k, lam, max(_turning_radius(q, lam), 1.5), 15.0)
    return r_far, decaying_direction(model, k, lam, r_far)


def _subordinacy_cell(report):
    # a subordinate solution marks the point spectrum, none the a.c. one
    cls = {"no-subordinate": "ac-candidate",
           "subordinate-found": "subordinate-found"}.get(
        report.classification, "inconclusive")
    return {"path": "subordinacy", "classification": cls,
            "report": report.to_dict()}


def summarize_cells(cells):
    """Scan summary: the lambdas whose every cell is an ac-candidate, the
    cell count and the error count."""
    by_lam = {}
    for cell in cells:
        by_lam.setdefault(cell["lambda"], []).append(cell["classification"])
    ac = [lam for lam, cls in sorted(by_lam.items())
          if all(c == "ac-candidate" for c in cls)]
    return {"ac_candidate_lambdas": ac,
            "n_cells": len(cells),
            "n_errors": sum(1 for c in cells if c["classification"] == "error")}
