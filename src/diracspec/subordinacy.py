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
serves the phase census and `asymptotics`; the ratios themselves need no
rescaling, since |u|^2 = sqrt(Lambda/gamma) v1^2 + sqrt(gamma/Lambda) v2^2
is an identity, and come from `solver.cumulative_norms` on the original
channel.  For positive spectral parameters the same machinery exhibits the
opposite behaviour: one direction decays against every other, and matching
it to the solution recessive at the origin locates discrete eigenvalues.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boundedness import certify
from .bvcalc import EXTREME_LADDER, TAIL_LADDER, WindowLadder
from .coefficients import (
    ChannelBatch,
    CoefficientModel,
    assemble_channel,
    models_equal,
)
from .hypotheses import (
    SATISFIED,
    check_a_conditions,
    check_b_conditions,
    check_c_conditions,
    worst_verdict,
)
from .solver import (
    PreconditionError,
    SolveConfig,
    cumulative_integral,
    cumulative_norms,
    frobenius_radius,
    integrate_pruefer,
    propagate,
    s_reparam,
)

__all__ = [
    "TransformedChannel",
    "CensusResult",
    "SubordinacyReport",
    "transform",
    "theta_census",
    "census_from_phase",
    "subordinacy_ratio",
    "eigen_shoot",
    "classify_spectrum",
    "classify_cells",
    "borderline_cell",
    "spectrum_hypotheses",
    "summarize_cells",
    "decaying_direction",
]


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
        if int(self.k) == 0:
            raise ValueError("angular quantum number k must be nonzero")

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
    equal, where = models_equal(model)
    if not equal:
        raise ValueError(f"the rescaling requires m == q; first mismatch "
                         f"near r = {where:g}")
    if lam >= 0.0:
        raise ValueError("the rescaling is defined for negative spectral "
                         "parameters only")
    return TransformedChannel(model=model, k=k, lam=float(lam))


# ---------------------------------------------------------------------------
# phase census


@dataclass(frozen=True)
class CensusResult:
    ns: list
    J_lengths: list
    K_lengths: list
    violations: list
    s_resolution: float
    guard_max: float
    n_first: int
    s_offset: float

    def to_dict(self):
        return {"kind": "census", "ns": self.ns, "J_lengths": self.J_lengths,
                "K_lengths": self.K_lengths, "violations": self.violations,
                "s_resolution": self.s_resolution, "guard_max": self.guard_max,
                "n_first": self.n_first, "s_offset": self.s_offset}


def census_from_phase(s, theta, guard_max: float = 0.0) -> CensusResult:
    """Interval census of an increasing phase against the bands
    [-3pi/4, -pi/4] + n pi (J) and [-pi/4, pi/4] + n pi (K), measured in the
    integrated-coefficient variable s."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(np.diff(theta) <= 0.0):
        raise PreconditionError("phase must be strictly increasing for the "
                                "census")
    # band boundaries are the odd multiples of pi/4:
    # J_n runs over [(4n-3) pi/4, (4n-1) pi/4], K_n over the next quarter turn
    n_lo = int(math.ceil((theta[0] * 4.0 / math.pi + 3.0) / 4.0))
    n_hi = int(math.floor((theta[-1] * 4.0 / math.pi - 1.0) / 4.0))
    ns = list(range(n_lo, n_hi + 1))
    sj = np.interp(np.arange(4 * n_lo - 3, 4 * n_hi + 2, 2) * math.pi / 4.0,
                   theta, s)
    lengths = np.diff(sj)
    J_lengths, K_lengths = lengths[0::2].tolist(), lengths[1::2].tolist()
    s_res = float(np.max(np.diff(s)))
    slack = 1.5 * s_res
    violations = [{"n": n, "interval": name, "length": val}
                  for n, J, K in zip(ns, J_lengths, K_lengths)
                  for name, val in (("J", J), ("K", K))
                  if not math.pi / 3.0 - slack <= val <= math.pi + slack]
    return CensusResult(ns=ns, J_lengths=J_lengths, K_lengths=K_lengths,
                        violations=violations, s_resolution=s_res,
                        guard_max=guard_max, n_first=ns[0] if ns else 0,
                        s_offset=float(sj[0]) if ns else 0.0)


def theta_census(traj, guard: float = 0.5) -> CensusResult:
    """Census of a solved phase in the s-variable.

    Requires the trajectory to carry the s-reparameterization and the
    channel to satisfy |L|/Q <= guard on the whole range (this pins the
    phase speed dTheta/ds inside [1/2, 3/2]).
    """
    if traj.s is None:
        raise ValueError("trajectory lacks the s-variable; apply s_reparam "
                         "first")
    if traj.theta is None:
        raise ValueError("trajectory lacks a continuous phase")
    Q, _, L, _ = traj.channel.coeffs(traj.grid)
    ratio = np.abs(L) / Q
    worst = float(np.max(ratio))
    if worst > guard:
        bad = float(traj.grid[int(np.argmax(ratio > guard))])
        raise PreconditionError(f"|L|/Q exceeds {guard:g} at r = {bad:g}; "
                                f"census refused")
    return census_from_phase(traj.s, traj.theta, guard_max=worst)


# ---------------------------------------------------------------------------
# cumulative norm ratios


@dataclass(frozen=True)
class SubordinacyReport:
    lam: float
    k: int
    r0: float
    r_end: float
    delta: float
    ratio_tail: list  # (r, I_a / I_b)
    liminf_estimate: float
    classification: str
    fit: Optional[dict]
    census: Optional[CensusResult]

    def __post_init__(self):
        if any(v <= 0.0 for _, v in self.ratio_tail):
            raise ValueError("cumulative norm ratios must be positive")

    def to_dict(self):
        return {"kind": "subordinacy", "lambda": self.lam, "k": self.k,
                "r0": self.r0, "r_end": self.r_end, "delta": self.delta,
                "ratio_tail": self.ratio_tail,
                "liminf_estimate": self.liminf_estimate,
                "classification": self.classification, "fit": self.fit,
                "census": None if self.census is None else self.census.to_dict()}


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
                      delta: float = 1e-3, n_ladder: int = 48,
                      rtol: float = 1e-10,
                      with_census: bool = False) -> SubordinacyReport:
    """Cumulative squared-norm ratio of two solutions on a geometric ladder.

    Classification: `no-subordinate` when both orientations of the ratio
    stay above delta on the tail; `subordinate-found` when one orientation
    decays monotonically below delta and follows a clean log-linear decay
    law; `inconclusive` otherwise.
    """
    if not 0.0 < r0 < r_end:
        raise ValueError("the ratio range needs 0 < r0 < r_end")
    u0_a = np.asarray(u0_a, dtype=float)
    u0_b = np.asarray(u0_b, dtype=float)
    cross = u0_a[0] * u0_b[1] - u0_a[1] * u0_b[0]
    norms = float(np.hypot(*u0_a) * np.hypot(*u0_b))
    if abs(cross) < 1e-10 * norms:
        raise ValueError("initial conditions are numerically dependent")

    ladder = np.geomspace(max(r0 * 1.25, r0 + 1e-3 * (r_end - r0)), r_end,
                          n_ladder)
    I_a, I_b = cumulative_norms(assemble_channel(model, k, lam),
                                np.column_stack((u0_a, u0_b)),
                                np.append(r0, ladder), rtol)
    ratio_ab = I_a / I_b
    ratio_ba = I_b / I_a
    tail = ladder >= r_end / 10.0
    liminf = float(np.min(ratio_ab[tail]))

    fit = None
    # decay-law window: past the midpoint, where transients have died out
    half = ladder >= r0 + 0.5 * (r_end - r0)
    if float(np.min(ratio_ab[tail])) >= delta and \
            float(np.min(ratio_ba[tail])) >= delta:
        classification = "no-subordinate"
    else:
        cand = ratio_ab if np.min(ratio_ab[tail]) < delta else ratio_ba
        tail_vals = cand[half]
        monotone = bool(np.all(np.diff(tail_vals) <= np.abs(tail_vals[:-1]) * 1e-6))
        fit = _fit_log_decay(ladder[half], np.log(tail_vals))
        if monotone and fit["slope"] < 0.0 and fit["r_squared"] > 0.99 \
                and tail_vals[-1] < delta:
            classification = "subordinate-found"
        else:
            classification = "inconclusive"

    census = None
    if with_census and lam < 0.0 and models_equal(model)[0]:
        census = _census_for(model, k, lam, r0)

    return SubordinacyReport(
        lam=float(lam), k=int(k), r0=float(r0), r_end=float(r_end),
        delta=delta,
        ratio_tail=[(float(r), float(v)) for r, v in zip(ladder, ratio_ab)],
        liminf_estimate=liminf, classification=classification, fit=fit,
        census=census)


def _census_for(model, k, lam, r0, n_max: int = 60):
    tch = transform(model, k, lam)
    # range long enough to cover n_max full turns at unit phase speed; each
    # candidate adds s over its own segment, on 64 Simpson pieces
    need = (n_max + 2) * math.pi
    lo, hi, s = r0, r0 + 1.0, 0.0
    while True:
        s += cumulative_integral(lambda r: tch.coeffs(r)[0],
                                 np.linspace(lo, hi, 17))[-1]
        if s >= need or hi >= 1e6:
            break
        lo, hi = hi, hi * 1.6
    cfg = SolveConfig(r_start=r0, r_end=hi, rtol=1e-11,
                      stride=min(0.05, (hi - r0) / 4000.0))
    traj = integrate_pruefer(tch, 1.0, 0.0, cfg)
    traj = s_reparam(tch, traj)
    return theta_census(traj)


# ---------------------------------------------------------------------------
# eigenvalue shooting on the positive half-line


def decaying_direction(model: CoefficientModel, k: int, lam: float,
                       r_at: float) -> np.ndarray:
    """Unit vector along the locally decaying direction of the frozen
    system at r_at (positive spectral parameter, beyond the turning point).
    """
    S = 2.0 * lam * model.q.value(r_at) - lam ** 2 + (k / r_at) ** 2
    if S <= 0.0:
        raise PreconditionError(f"no decaying direction at r = {r_at:g}; "
                                f"still inside the oscillatory region")
    v = np.array([1.0, (k / r_at - math.sqrt(S)) / lam])
    return v / np.hypot(v[0], v[1])


def _turning_radius(model, lam, lo=1e-6, hi=1.0):
    # q is increasing toward infinity on these models; bisect q(r) = lam/2,
    # all lam in lockstep, each on its own bracket
    lam = np.asarray(lam, dtype=float)
    target = lam.ravel() / 2.0
    hi = np.full(target.shape, hi)
    while True:
        low = model.q.value(hi) < target
        if not low.any():
            break
        hi[low] *= 2.0
        if np.any(hi > 1e9):
            raise PreconditionError("no turning radius found")
    at_lo = model.q.value(lo) >= target
    lo = np.full(target.shape, lo)
    open_ = ~at_lo
    for _ in range(200):
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        below = model.q.value(mid) < target
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
        open_ &= ~(hi - lo < 1e-12 * (1.0 + hi))
    return np.where(at_lo, lo, 0.5 * (lo + hi)).reshape(lam.shape)[()]


def _shoot_range(model, k, lam, r_star, exponent):
    # march until the semiclassical exponent past the turning point reaches
    # the requested budget; the radii and the exponent are running sums,
    # added in march order, `chunk` steps of all lam at once
    chunk = 256
    lam, r = np.broadcast_arrays(np.asarray(lam, dtype=float), r_star)
    shape, lam, r = lam.shape, lam.ravel(), r.astype(float).ravel()
    step = np.maximum(r * 0.05, 0.01)
    total = np.zeros(r.shape)
    going = np.flatnonzero(total < exponent)
    while going.size:
        l, h = lam[going, None], step[going, None]
        rs = np.cumsum(np.column_stack((r[going], np.repeat(h, chunk, axis=1))),
                       axis=1)[:, 1:]
        S = 2.0 * l * model.q.value(rs) - l ** 2 + (k / rs) ** 2
        gain = np.where(S > 0.0, np.sqrt(np.maximum(S, 0.0)) * h, 0.0)
        sums = np.cumsum(np.column_stack((total[going], gain)), axis=1)[:, 1:]
        stop = (sums >= exponent) | (rs > 1e6)
        at = np.where(stop.any(axis=1), np.argmax(stop, axis=1), chunk - 1)
        rows = np.arange(going.size)
        r[going], total[going] = rs[rows, at], sums[rows, at]
        going = going[~stop.any(axis=1)]
    return r.reshape(shape)[()]


def _refine_roots(f, lo, hi, f_lo, f_hi, tol):
    """Roots of f in the sign-change brackets [lo, hi], refined in
    lockstep by false position with the Anderson-Bjorck weights: each round
    calls f once on the open brackets, at their false-position points held
    tol/2 inside the bracket, and keeps each sign change.  An end kept twice
    in a row has its value scaled by 1 - f(x)/f(moved end), or halved when
    that is not positive.  A bracket closes when it is no wider than tol, at
    its false-position point, or when f vanishes."""
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
        fx = np.asarray(f(x), dtype=float)
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


def eigen_shoot(model: CoefficientModel, k: int, bracket, *,
                tol_lambda: float = 1e-8, scan_step: float = 0.05,
                rtol: float = 1e-10, dominance: float = 1e3,
                match_radius_factor: float = 1.0,
                wkb_exponent: float = 27.0) -> list:
    """Locate discrete spectral points inside a positive bracket.

    The solution recessive at the origin is continued outward, the solution
    recessive at infinity is continued inward, and the normalized angle
    mismatch between them at the turning-point radius changes sign exactly
    at an eigenvalue.  The mismatch of many lambda is one `propagate` call
    of a `ChannelBatch` holding both directions of each: one for the whole
    scan grid, then one a round while `_refine_roots` narrows every sign
    change in lockstep to `tol_lambda`.  The scan samples both bracket ends
    but lambda = 0, where the direction recessive at infinity
    (`decaying_direction`) divides by lambda.
    """
    equal, where = models_equal(model)
    if not equal:
        raise ValueError(f"eigenvalue shooting requires m == q; first "
                         f"mismatch near r = {where:g}")
    a, b = float(bracket[0]), float(bracket[1])
    if a < 0.0 or b <= a:
        raise ValueError("bracket must lie inside the positive half-line")
    if not (tol_lambda > 0.0 and scan_step > 0.0):
        raise ValueError("tol_lambda and scan_step must be positive")

    def mismatch(lams):
        inits = [frobenius_radius(assemble_channel(model, k, lam),
                                  dominance_factor=dominance,
                                  r_init=min(1e-3, 0.01 / (1.0 + lam)))
                 for lam in lams.tolist()]
        r0 = np.array([init.r0 for init in inits])
        r_star = _turning_radius(model, lams)
        r_match = np.maximum(r_star * match_radius_factor, 4.0 * r0)
        r_far = _shoot_range(model, k, lams, np.maximum(r_star, r_match),
                             wkb_exponent)
        u0 = [init.u0 for init in inits] + [
            decaying_direction(model, k, lam, r)
            for lam, r in zip(lams.tolist(), r_far.tolist())]
        u = propagate(ChannelBatch(model, k, np.tile(lams, 2)), u0,
                      np.append(r0, r_far), np.tile(r_match, 2), rtol=rtol)
        u_f, u_b = u[:lams.size], u[lams.size:]
        num = u_f[:, 0] * u_b[:, 1] - u_f[:, 1] * u_b[:, 0]
        return num / (np.hypot(*u_f.T) * np.hypot(*u_b.T))

    n = max(8, int(math.ceil((b - a) / scan_step)))
    grid = a + (b - a) * np.arange(0 if a > 0.0 else 1, n + 1) / n
    values = mismatch(grid)
    cross = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    roots = _refine_roots(mismatch, grid[cross], grid[cross + 1],
                          values[cross], values[cross + 1], tol_lambda)
    return sorted(roots.tolist() + grid[values == 0.0].tolist())


# ---------------------------------------------------------------------------
# per-cell spectral classification

# lines of a failed cell's traceback kept in its record: the raising frames
# and the exception
_TRACEBACK_LINES = 8


def spectrum_hypotheses(model: CoefficientModel,
                        lambda_grid: Sequence[float], *,
                        extreme_ladder: WindowLadder = EXTREME_LADDER,
                        tail_ladder: WindowLadder = TAIL_LADDER) -> dict:
    """The scan document without its cells: the model-level hypotheses
    (A1-A4, or B1-B2 when m == q) and whether they leave the cells
    heuristic.  A scan runs them once, whatever its chunks."""
    equal, _ = models_equal(model)
    ladders = {"extreme_ladder": extreme_ladder, "tail_ladder": tail_ladder}
    if equal:
        hyp = check_b_conditions(model, **ladders)
    else:
        hyp = check_a_conditions(model, sorted(set(lambda_grid)), **ladders)
    return {"kind": "scan", "model": model.to_dict(),
            "equal_coefficients": equal,
            "hypotheses": [h.to_dict() for h in hyp],
            "heuristic": worst_verdict(hyp) != SATISFIED}


def classify_cells(model: CoefficientModel, k_set: Sequence[int],
                   lambda_grid: Sequence[float], *, equal: bool,
                   heuristic: bool, solver: SolveConfig, subordinacy: dict,
                   extreme_ladder: WindowLadder = EXTREME_LADDER,
                   tail_ladder: WindowLadder = TAIL_LADDER) -> list:
    """Run the appropriate evidence pipeline for each (k, lambda) cell.

    Dominant-potential models go through the boundedness certificate of
    `boundedness.certify` on the `solver` settings, with the channel
    conditions of all cells checked in one pass; borderline (m == q) models
    go through `borderline_cell` on the `subordinacy` section (r0, r_end,
    delta).  `equal` and `heuristic` come from `spectrum_hypotheses`.
    """
    ks = sorted(int(k) for k in set(k_set))
    lams = sorted(set(float(l) for l in lambda_grid))
    if not equal:
        c_reports = check_c_conditions(model, ks, lams,
                                       extreme_ladder=extreme_ladder,
                                       tail_ladder=tail_ladder)
    cells = []
    for k in ks:
        for lam in lams:
            cell = {"k": k, "lambda": lam, "heuristic": heuristic}
            try:
                if equal:
                    cell.update(borderline_cell(model, k, lam, subordinacy))
                else:
                    cell.update(_dominant_cell(model, k, lam, solver,
                                               c_reports[k, lam]))
            except Exception as err:  # per-cell isolation: scan must go on
                cell.update({"classification": "error", "path": "none",
                             "error": f"{type(err).__name__}: {err}",
                             "traceback": traceback.format_exc().splitlines()
                             [-_TRACEBACK_LINES:]})
            cells.append(cell)
    return cells


def classify_spectrum(model: CoefficientModel, k_set: Sequence[int],
                      lambda_grid: Sequence[float], *,
                      r_end: float = 120.0, delta: float = 1e-3) -> dict:
    """The scan document of a model: `spectrum_hypotheses` and the
    `classify_cells` of every (k, lambda) cell, with their summary.  The
    certificates and the ratios both run to `r_end`, the ratios from 1."""
    doc = spectrum_hypotheses(model, lambda_grid)
    doc["cells"] = classify_cells(
        model, k_set, lambda_grid, equal=doc["equal_coefficients"],
        heuristic=doc["heuristic"],
        solver=SolveConfig(r_start=1.0, r_end=r_end),
        subordinacy={"r0": 1.0, "r_end": r_end, "delta": delta})
    doc["summary"] = summarize_cells(doc["cells"])
    return doc


def _dominant_cell(model, k, lam, solver, reports):
    """One dominant-potential cell, given its channel condition reports: an
    ac-candidate with its certificate when every report is satisfied,
    inconclusive and unsolved otherwise."""
    cell = {"path": "boundedness", "classification": "inconclusive",
            "channel_conditions": [r.to_dict() for r in reports]}
    if worst_verdict(reports) == SATISFIED:
        _, cert = certify(assemble_channel(model, k, lam), solver, reports)
        cell.update(classification="ac-candidate",
                    certificate=cert.to_dict())
    return cell


def borderline_cell(model: CoefficientModel, k: int, lam: float,
                    subordinacy: dict, *, with_census: bool = False) -> dict:
    """One m == q cell, as `subordinacy` and `scan` classify it.

    lambda < 0: the ratio of the solutions started along the axes, from
    the `subordinacy` section's r0 to its r_end, an ac-candidate when
    neither is subordinate (with the phase census when `with_census`);
    lambda > 0: `_eigen_side_cell`; lambda = 0 is excluded, since no claim
    is made at the boundary point.
    """
    if lam == 0.0:
        return {"classification": "excluded", "path": "boundary-point"}
    if lam > 0.0:
        return _eigen_side_cell(model, k, lam, subordinacy["delta"])
    return _subordinacy_cell(subordinacy_ratio(
        model, k, lam, [1.0, 0.0], [0.0, 1.0], subordinacy["r0"],
        subordinacy["r_end"], delta=subordinacy["delta"],
        with_census=with_census))


def _eigen_side_cell(model, k, lam, delta):
    """The ratio of the solution recessive at infinity to its orthogonal
    complement, from r = 1 to where the WKB exponent past the turning point
    reaches 15: subordinate-found when the recessive one is subordinate."""
    r0 = 1.0
    r_star = _turning_radius(model, lam)
    r_far = _shoot_range(model, k, lam, max(r_star, r0 * 1.5), 15.0)
    u_dec = propagate(assemble_channel(model, k, lam),
                      decaying_direction(model, k, lam, r_far), r_far, r0,
                      rtol=1e-10)
    u_dec = u_dec / np.hypot(*u_dec)
    generic = np.array([-u_dec[1], u_dec[0]])
    return _subordinacy_cell(subordinacy_ratio(
        model, k, lam, u_dec, generic, r0, r_far, delta=delta, rtol=1e-9))


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
