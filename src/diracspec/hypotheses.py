"""Windowed diagnostics for the spectral hypotheses.

Every asymptotic hypothesis (a limit at infinity, a tail integral, a tail
variation) is probed on a geometric ladder of windows and classified as
satisfied, violated, or inconclusive; the checker never extrapolates beyond
the ladder, so "inconclusive" is a first-class verdict.

A window sample is the coefficient values on one window grid: each check
samples the coefficients it reads once per window (`sample_window` passes
the tuple of arrays through uncopied) and derives and reduces every
quantity from that sample, one quantity at a time.  A condition made of
several ladders takes the worst of their verdicts.

Condition vocabulary (the ids appearing in reports and CLI tables):

  A1  potential diverges:            q(r) -> inf
  A2  mass floor and gap:            liminf |m| > 0,  limsup |m/q| < 1
  A3  mass/potential quotient BV:    m/(q - lambda) in BV(.,inf), per lambda
  A4  mixed derivative integrable:   m'/(r m q) in L1(.,inf)
  A4' stronger variant (auxiliary):  m'/(r m^2) in L1(.,inf)
  D1  derivative shortcut (aux):     m'/q in L1(.,inf)
  D2  derivative shortcut (aux):     m q'/q^2 in L1(.,inf)
  B1  potential diverges (m == q):   q(r) -> inf
  B2  scaled slope BV + square-int:  q'/q^(3/2) in BV(.,inf) ^ L2(.,inf)
  B2' second-derivative variant:     q''/q^(3/2), (q')^2/q^(5/2) in L1
  C1  channel coefficient diverges:  Q(r) -> inf
  C2  subcritical envelope:          limsup W/Q < 1
  C3  quotient variations:           W/(Q-W), M/(Q-W), L/(Q-W) in BV
  C3' single-quotient variant when M == 0 [L == 0]
  G1-G3  diagnostics for gamma = 2q - lambda: BV of gamma'/gamma^(3/2),
         integrability of gamma'/(r gamma^(3/2)), and decay to zero
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bvcalc import (
    EXTREME_LADDER,
    TAIL_LADDER,
    TREND_CONVERGED,
    TREND_FLAT,
    TREND_GROWING,
    WindowLadder,
    lambda_trichotomy_probe,
    sample_window,
    tail_trend,
    window_integral,
    window_variation,
)
from .coefficients import (
    CoefficientModel,
    MissingDerivativeError,
    models_equal,
)

__all__ = [
    "SATISFIED",
    "VIOLATED",
    "INCONCLUSIVE",
    "HypothesisReport",
    "check_a_conditions",
    "check_derivative_sufficiency",
    "check_b_conditions",
    "check_c_conditions",
    "gamma_diagnostics",
    "worst_verdict",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HypothesisReport:
    condition_id: str
    verdict: str
    evidence: dict
    windows: list
    note: str = ""
    auxiliary: bool = False

    def __post_init__(self):
        if self.verdict not in (SATISFIED, VIOLATED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict != INCONCLUSIVE and len(self.windows) < 2:
            raise ValueError("a definite verdict needs at least two ladder "
                             "rungs of evidence")

    def to_dict(self):
        return {"condition": self.condition_id, "verdict": self.verdict,
                "evidence": self.evidence, "windows": self.windows,
                "note": self.note, "auxiliary": self.auxiliary}


_SEVERITY = {SATISFIED: 0, INCONCLUSIVE: 1, VIOLATED: 2}


def _worst(verdicts) -> str:
    """Combined verdict: violated beats inconclusive beats satisfied."""
    return max(verdicts, key=_SEVERITY.__getitem__, default=SATISFIED)


def worst_verdict(reports: Sequence[HypothesisReport],
                  include_auxiliary: bool = False) -> str:
    return _worst(r.verdict for r in reports
                  if include_auxiliary or not r.auxiliary)


# ---------------------------------------------------------------------------
# window evaluation

# window grids for suprema and infima are capped below the tail-rung grids
_EXTREME_POINTS = 100_000


def _per_window(fn: Callable, windows, *reductions,
                n_max: int = 400_000) -> list:
    """Sample the coefficients once per window and reduce each quantity.

    fn maps a window grid to the tuple of coefficient arrays a check reads;
    each reduction maps (r, *arrays) to one number, forming at most one
    derived array, so derived quantities are reduced one at a time rather
    than held side by side.  Returns one array of per-window numbers per
    reduction.
    """
    rows = [[] for _ in reductions]
    with np.errstate(all="ignore"):
        for a, b in windows:
            r, sample = sample_window(fn, a, b, n_max=n_max)
            for row, reduce in zip(rows, reductions):
                row.append(float(reduce(r, *sample)))
    return [np.asarray(row) for row in rows]


# ---------------------------------------------------------------------------
# verdict rules


def _divergence_verdict(minima, maxima, growth: float = 1.5):
    if not np.all(np.isfinite(minima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    increasing = np.all(np.diff(minima) > 0.0)
    if increasing and (minima[0] <= 0.0 < minima[-1]
                       or minima[-1] >= growth * abs(minima[0])):
        return SATISFIED, ""
    if np.all(np.isfinite(maxima)) and maxima[-1] <= maxima[0] * (1 + 1e-9):
        return VIOLATED, "window suprema do not grow"
    return INCONCLUSIVE, ""


def _limsup_below_verdict(maxima, bound: float = 1.0, margin: float = 0.02):
    if not np.all(np.isfinite(maxima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    if np.all(maxima[-2:] <= bound - margin):
        return SATISFIED, ""
    if np.all(maxima[-2:] >= bound - margin) and maxima[-1] >= maxima[-2] * 0.999:
        return VIOLATED, f"window suprema stay at or above {bound - margin:g}"
    return INCONCLUSIVE, ""


def _liminf_positive_verdict(minima, floor: float = 1e-2):
    if not np.all(np.isfinite(minima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    start = max(abs(minima[0]), np.finfo(float).tiny)
    if np.all(minima[-2:] >= floor) and minima[-1] >= 0.25 * start:
        return SATISFIED, ""
    if minima[-1] <= 0.1 * start or np.all(np.abs(minima[-2:]) < floor):
        return VIOLATED, "window infima collapse toward zero"
    return INCONCLUSIVE, ""


def _tail_verdict(values):
    trend = tail_trend(values)
    if trend == TREND_CONVERGED:
        return SATISFIED, ""
    if trend == TREND_GROWING:
        return VIOLATED, "rung values grow"
    if trend == TREND_FLAT:
        return VIOLATED, "rung values neither decay nor grow (non-summable tail)"
    return INCONCLUSIVE, ""


def _listify(windows):
    return [[float(a), float(b)] for a, b in windows]


def _divergence_report(cid, minima, maxima, windows):
    verdict, note = _divergence_verdict(minima, maxima)
    return HypothesisReport(
        cid, verdict, {"window_minima": minima.tolist(),
                       "window_maxima": maxima.tolist()},
        _listify(windows), note)


def _tail_report(cid, key, rungs, windows, auxiliary=False):
    verdict, note = _tail_verdict(rungs)
    return HypothesisReport(cid, verdict, {key: rungs.tolist()},
                            _listify(windows), note, auxiliary=auxiliary)


# ---------------------------------------------------------------------------
# condition sets


def check_a_conditions(model: CoefficientModel, lambdas: Sequence[float], *,
                       extreme_ladder: WindowLadder = EXTREME_LADDER,
                       tail_ladder: WindowLadder = TAIL_LADDER):
    """Diagnose the dominant-potential hypotheses A1-A4 (plus the auxiliary
    stronger probe A4'). The angular index enters none of them."""
    ew = extreme_ladder.windows()
    tw = tail_ladder.windows()

    q_min, q_max, m_min, ratio_max = _per_window(
        lambda r: (model.q.value(r), model.m.value(r)), ew,
        lambda r, q, m: np.min(q), lambda r, q, m: np.max(q),
        lambda r, q, m: np.min(np.abs(m)),
        lambda r, q, m: np.max(np.abs(m / q)), n_max=_EXTREME_POINTS)
    v1, n1 = _liminf_positive_verdict(m_min)
    v2, n2 = _limsup_below_verdict(ratio_max)
    reports = [
        _divergence_report("A1", q_min, q_max, ew),
        HypothesisReport(
            "A2", _worst((v1, v2)),
            {"abs_m_window_minima": m_min.tolist(),
             "m_over_q_window_maxima": ratio_max.tolist()},
            _listify(ew), note="; ".join(x for x in (n1, n2) if x)),
    ]

    probe = lambda_trichotomy_probe(model, lambdas, tail_ladder.start,
                                    factor=tail_ladder.factor,
                                    rungs=tail_ladder.rungs)
    for entry in probe.entries:
        cls = entry["classification"]
        verdict = {"convergent": SATISFIED, "divergent": VIOLATED}.get(
            cls, INCONCLUSIVE)
        reports.append(HypothesisReport(
            f"A3[lambda={entry['lambda']:g}]", verdict,
            {"rung_variations": entry["variations"], "trend": entry["trend"]},
            _listify(entry["windows"]), note=entry.get("note", "")))

    def mixed(r, dm, m, q):
        return window_integral(
            r, np.where(dm == 0.0, 0.0, np.abs(dm / (r * m * q))))

    def stronger(r, dm, m, q):
        return window_integral(
            r, np.where(dm == 0.0, 0.0, np.abs(dm / (r * m ** 2))))

    try:
        a4, a4p = _per_window(
            lambda r: (model.m.derivative(r), model.m.value(r),
                       model.q.value(r)), tw, mixed, stronger)
    except MissingDerivativeError:
        reports.append(HypothesisReport(
            "A4", INCONCLUSIVE, {}, [],
            note="mass coefficient has no usable derivative"))
        return reports
    reports.append(_tail_report("A4", "rung_integrals", a4, tw))
    reports.append(_tail_report("A4'", "rung_integrals", a4p, tw,
                                auxiliary=True))
    return reports


def check_derivative_sufficiency(model: CoefficientModel, *,
                                 tail_ladder: WindowLadder = TAIL_LADDER):
    """Tail integrability of m'/q and m q'/q^2.  When both converge, the
    quotient m/(q - lambda) is of bounded variation for every lambda, so the
    per-lambda probes must all report convergent."""
    tw = tail_ladder.windows()
    try:
        d1, d2 = _per_window(
            lambda r: (model.m.derivative(r), model.m.value(r),
                       model.q.derivative(r), model.q.value(r)), tw,
            lambda r, dm, m, dq, q: window_integral(r, np.abs(dm / q)),
            lambda r, dm, m, dq, q: window_integral(
                r, np.abs(m * dq / q ** 2)))
    except MissingDerivativeError:
        return [HypothesisReport(
            "D1", INCONCLUSIVE, {}, [], "derivatives unavailable",
            auxiliary=True)]
    reports = [_tail_report("D1", "rung_integrals", d1, tw, auxiliary=True),
               _tail_report("D2", "rung_integrals", d2, tw, auxiliary=True)]
    if all(r.verdict == SATISFIED for r in reports):
        reports[-1] = replace(
            reports[-1], note="with D1 this forces the BV quotient condition "
                              "for every lambda")
    return reports


def check_b_conditions(model: CoefficientModel, *,
                       extreme_ladder: WindowLadder = EXTREME_LADDER,
                       tail_ladder: WindowLadder = TAIL_LADDER):
    """Diagnose the borderline-case hypotheses B1-B2 (m identically q),
    plus the auxiliary second-derivative variant B2'."""
    equal, where = models_equal(model)
    if not equal:
        raise ValueError(f"the borderline checks require m == q; first "
                         f"mismatch near r = {where:g}")
    ew = extreme_ladder.windows()
    tw = tail_ladder.windows()

    q_min, q_max = _per_window(
        lambda r: (model.q.value(r),), ew,
        lambda r, q: np.min(q), lambda r, q: np.max(q),
        n_max=_EXTREME_POINTS)
    reports = [_divergence_report("B1", q_min, q_max, ew)]

    try:
        # tabulated data without a derivative raises on the first order
        # already, so a usable q' always comes with a usable q''
        var_rungs, l2_rungs, second, squared = _per_window(
            lambda r: (model.q.value(r), model.q.derivative(r),
                       model.q.derivative(r, order=2)), tw,
            lambda r, q, dq, d2q: window_variation(dq / q ** 1.5),
            lambda r, q, dq, d2q: window_integral(r, (dq / q ** 1.5) ** 2),
            lambda r, q, dq, d2q: window_integral(r, np.abs(d2q / q ** 1.5)),
            lambda r, q, dq, d2q: window_integral(r, dq ** 2 / q ** 2.5))
    except MissingDerivativeError:
        reports.append(HypothesisReport(
            "B2", INCONCLUSIVE, {}, [], "derivative unavailable"))
        return reports
    v1, n1 = _tail_verdict(var_rungs)
    v2, n2 = _tail_verdict(l2_rungs)
    reports.append(HypothesisReport(
        "B2", _worst((v1, v2)),
        {"rung_variations": var_rungs.tolist(),
         "rung_square_integrals": l2_rungs.tolist()},
        _listify(tw), note="; ".join(x for x in (n1, n2) if x)))
    reports.append(HypothesisReport(
        "B2'", _worst((_tail_verdict(second)[0], _tail_verdict(squared)[0])),
        {"rung_second_derivative_integrals": second.tolist(),
         "rung_squared_slope_integrals": squared.tolist()},
        _listify(tw), auxiliary=True))
    return reports


def check_c_conditions(channel, *,
                       extreme_ladder: WindowLadder = EXTREME_LADDER,
                       tail_ladder: WindowLadder = TAIL_LADDER):
    """Diagnose the channel conditions C1-C3 (C3' when one coefficient
    vanishes identically)."""
    ew = extreme_ladder.windows()
    tw = tail_ladder.windows()

    q_min, q_max, ratio_max = _per_window(
        channel.coeffs, ew,
        lambda r, Q, M, L, W: np.min(Q), lambda r, Q, M, L, W: np.max(Q),
        lambda r, Q, M, L, W: np.max(np.where(Q > 0.0, W / Q, np.inf)),
        n_max=_EXTREME_POINTS)
    verdict, note = _limsup_below_verdict(ratio_max)
    reports = [
        _divergence_report("C1", q_min, q_max, ew),
        HypothesisReport("C2", verdict,
                         {"w_over_q_window_maxima": ratio_max.tolist()},
                         _listify(ew), note),
    ]

    # identify vanishing coefficients on a probe grid
    probe = np.geomspace(tw[0][0], tw[-1][1], 512)
    with np.errstate(all="ignore"):
        _, M, L, _ = channel.coeffs(probe)
    m_zero = bool(np.all(M == 0.0))
    l_zero = bool(np.all(L == 0.0))

    gap, = _per_window(channel.coeffs, tw,
                       lambda r, Q, M, L, W: np.min(Q - W),
                       n_max=_EXTREME_POINTS)
    gap_floor = [g if np.isfinite(g) else -math.inf for g in gap.tolist()]
    usable = [i for i, g in enumerate(gap_floor) if g > 0.0]
    if len(usable) < 2 or usable[-1] != len(tw) - 1:
        reports.append(HypothesisReport(
            "C3", INCONCLUSIVE, {"q_minus_w_window_minima": gap_floor},
            _listify(tw),
            note="Q - W not positive on the tail; quotients skipped"))
        return reports

    windows = [tw[i] for i in usable]
    if m_zero:
        cid, quotients = "C3'", {
            "l_over_q_minus_l":
                lambda r, Q, M, L, W: window_variation(L / (Q - L))}
    elif l_zero:
        cid, quotients = "C3'", {
            "m_over_q_minus_m":
                lambda r, Q, M, L, W: window_variation(M / (Q - M))}
    else:
        cid, quotients = "C3", {
            "w_over_q_minus_w":
                lambda r, Q, M, L, W: window_variation(W / (Q - W)),
            "m_over_q_minus_w":
                lambda r, Q, M, L, W: window_variation(M / (Q - W)),
            "l_over_q_minus_w":
                lambda r, Q, M, L, W: window_variation(L / (Q - W)),
        }
    rungs = _per_window(channel.coeffs, windows, *quotients.values())
    evidence = {"q_minus_w_window_minima": gap_floor}
    verdicts, notes = [], []
    for name, values in zip(quotients, rungs):
        evidence[name + "_rung_variations"] = values.tolist()
        v, n = _tail_verdict(values)
        verdicts.append(v)
        if n:
            notes.append(f"{name}: {n}")
    reports.append(HypothesisReport(cid, _worst(verdicts), evidence,
                                    _listify(windows), note="; ".join(notes)))
    return reports


def gamma_diagnostics(model: CoefficientModel, lam: float, *,
                      tail_ladder: WindowLadder = TAIL_LADDER,
                      extreme_ladder: WindowLadder = EXTREME_LADDER):
    """Diagnostics for gamma = 2q - lambda: variation and decay of
    gamma'/gamma^(3/2) and integrability of gamma'/(r gamma^(3/2)).

    Windows on which gamma fails to stay positive are skipped; if no window
    survives, the model/lambda pair is rejected.
    """
    equal, where = models_equal(model)
    if not equal:
        raise ValueError(f"gamma diagnostics require m == q; first mismatch "
                         f"near r = {where:g}")

    def gamma(r):
        return 2.0 * model.q.value(r) - lam

    def q_and_derivative(r):
        return model.q.value(r), model.q.derivative(r)

    def slope(r, q, dq):
        return 2.0 * dq / (2.0 * q - lam) ** 1.5

    tw = [w for w in tail_ladder.windows()
          if np.min(gamma(np.linspace(*w, 512))) > 0.0]
    if len(tw) < 2:
        raise ValueError("gamma = 2q - lambda is not positive on the probe "
                         "ladder")
    variations, integrals = _per_window(
        q_and_derivative, tw,
        lambda *s: window_variation(slope(*s)),
        lambda r, *s: window_integral(r, np.abs(slope(r, *s) / r)))

    ew = [w for w in extreme_ladder.windows()
          if np.min(gamma(np.linspace(*w, 512))) > 0.0]
    maxima, = _per_window(q_and_derivative, ew,
                          lambda *s: np.max(np.abs(slope(*s))),
                          n_max=_EXTREME_POINTS)
    return [_tail_report("G1", "rung_variations", variations, tw),
            _tail_report("G2", "rung_integrals", integrals, tw),
            _tail_report("G3", "abs_slope_window_maxima", maxima, ew)]
