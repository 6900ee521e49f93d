"""Windowed diagnostics for the spectral hypotheses.

Every asymptotic hypothesis (a limit at infinity, a tail integral, a tail
variation) is probed on a geometric ladder of windows and classified as
satisfied, violated, or inconclusive; the checker never extrapolates beyond
the ladder, so "inconclusive" is a first-class verdict.

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
from dataclasses import dataclass
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
    "reports_to_dicts",
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


def reports_to_dicts(reports: Sequence[HypothesisReport]) -> list:
    return [r.to_dict() for r in reports]


def worst_verdict(reports: Sequence[HypothesisReport],
                  include_auxiliary: bool = False) -> str:
    order = {SATISFIED: 0, INCONCLUSIVE: 1, VIOLATED: 2}
    worst = SATISFIED
    for r in reports:
        if r.auxiliary and not include_auxiliary:
            continue
        if order[r.verdict] > order[worst]:
            worst = r.verdict
    return worst


# ---------------------------------------------------------------------------
# window evaluation


def _window_extremes(fn: Callable, windows) -> tuple:
    minima, maxima = [], []
    with np.errstate(all="ignore"):
        for a, b in windows:
            _, vals = sample_window(fn, a, b, n_min=2048, n_max=100_000)
            minima.append(float(np.min(vals)))
            maxima.append(float(np.max(vals)))
    return np.asarray(minima), np.asarray(maxima)


def _rung_values(kind: str, fn: Callable, windows) -> np.ndarray:
    evaluate = window_integral if kind == "integral" else window_variation
    out = []
    for w in windows:
        try:
            with np.errstate(all="ignore"):
                out.append(float(evaluate(fn, w)))
        except (FloatingPointError, OverflowError):
            out.append(float("nan"))
    return np.asarray(out)


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


# ---------------------------------------------------------------------------
# condition sets


def check_a_conditions(model: CoefficientModel, lambdas: Sequence[float], *,
                       extreme_ladder: WindowLadder = EXTREME_LADDER,
                       tail_ladder: WindowLadder = TAIL_LADDER):
    """Diagnose the dominant-potential hypotheses A1-A4 (plus the auxiliary
    stronger probe A4'). The angular index enters none of them."""
    ew = extreme_ladder.windows()
    tw = tail_ladder.windows()
    reports = []

    q_min, q_max = _window_extremes(model.q.value, ew)
    verdict, note = _divergence_verdict(q_min, q_max)
    reports.append(HypothesisReport(
        "A1", verdict, {"window_minima": q_min.tolist(),
                        "window_maxima": q_max.tolist()}, _listify(ew), note))

    m_min, m_max = _window_extremes(lambda r: np.abs(model.m.value(r)), ew)
    ratio_min, ratio_max = _window_extremes(
        lambda r: np.abs(model.m.value(r) / model.q.value(r)), ew)
    v1, n1 = _liminf_positive_verdict(m_min)
    v2, n2 = _limsup_below_verdict(ratio_max)
    if VIOLATED in (v1, v2):
        verdict = VIOLATED
    elif INCONCLUSIVE in (v1, v2):
        verdict = INCONCLUSIVE
    else:
        verdict = SATISFIED
    reports.append(HypothesisReport(
        "A2", verdict,
        {"abs_m_window_minima": m_min.tolist(),
         "m_over_q_window_maxima": ratio_max.tolist()},
        _listify(ew), note="; ".join(x for x in (n1, n2) if x)))

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

    try:
        def a4_integrand(r):
            dm = model.m.derivative(r)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.abs(dm / (r * model.m.value(r) * model.q.value(r)))
            return np.where(dm == 0.0, 0.0, out)

        rungs = _rung_values("integral", a4_integrand, tw)
        verdict, note = _tail_verdict(rungs)
        reports.append(HypothesisReport(
            "A4", verdict, {"rung_integrals": rungs.tolist()}, _listify(tw),
            note))

        def a4p_integrand(r):
            dm = model.m.derivative(r)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.abs(dm / (r * model.m.value(r) ** 2))
            return np.where(dm == 0.0, 0.0, out)

        rungs = _rung_values("integral", a4p_integrand, tw)
        verdict, note = _tail_verdict(rungs)
        reports.append(HypothesisReport(
            "A4'", verdict, {"rung_integrals": rungs.tolist()}, _listify(tw),
            note, auxiliary=True))
    except MissingDerivativeError:
        reports.append(HypothesisReport(
            "A4", INCONCLUSIVE, {}, [],
            note="mass coefficient has no usable derivative"))
    return reports


def check_derivative_sufficiency(model: CoefficientModel, *,
                                 tail_ladder: WindowLadder = TAIL_LADDER):
    """Tail integrability of m'/q and m q'/q^2.  When both converge, the
    quotient m/(q - lambda) is of bounded variation for every lambda, so the
    per-lambda probes must all report convergent."""
    tw = tail_ladder.windows()
    reports = []
    specs = [
        ("D1", lambda r: np.abs(model.m.derivative(r) / model.q.value(r))),
        ("D2", lambda r: np.abs(model.m.value(r) * model.q.derivative(r)
                                / model.q.value(r) ** 2)),
    ]
    try:
        for cid, fn in specs:
            rungs = _rung_values("integral", fn, tw)
            verdict, note = _tail_verdict(rungs)
            reports.append(HypothesisReport(
                cid, verdict, {"rung_integrals": rungs.tolist()}, _listify(tw),
                note, auxiliary=True))
    except MissingDerivativeError:
        return [HypothesisReport(
            "D1", INCONCLUSIVE, {}, [], "derivatives unavailable",
            auxiliary=True)]
    both = all(r.verdict == SATISFIED for r in reports)
    if both:
        reports[-1] = HypothesisReport(
            reports[-1].condition_id, reports[-1].verdict,
            reports[-1].evidence, reports[-1].windows,
            note="with D1 this forces the BV quotient condition for every "
                 "lambda", auxiliary=True)
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
    reports = []

    q_min, q_max = _window_extremes(model.q.value, ew)
    verdict, note = _divergence_verdict(q_min, q_max)
    reports.append(HypothesisReport(
        "B1", verdict, {"window_minima": q_min.tolist(),
                        "window_maxima": q_max.tolist()}, _listify(ew), note))

    def slope(r):
        return model.q.derivative(r) / model.q.value(r) ** 1.5

    try:
        var_rungs = _rung_values("variation", slope, tw)
        l2_rungs = _rung_values(
            "integral", lambda r: slope(r) ** 2, tw)
        v1, n1 = _tail_verdict(var_rungs)
        v2, n2 = _tail_verdict(l2_rungs)
        if VIOLATED in (v1, v2):
            verdict = VIOLATED
        elif INCONCLUSIVE in (v1, v2):
            verdict = INCONCLUSIVE
        else:
            verdict = SATISFIED
        reports.append(HypothesisReport(
            "B2", verdict,
            {"rung_variations": var_rungs.tolist(),
             "rung_square_integrals": l2_rungs.tolist()},
            _listify(tw), note="; ".join(x for x in (n1, n2) if x)))
    except MissingDerivativeError:
        reports.append(HypothesisReport(
            "B2", INCONCLUSIVE, {}, [], "derivative unavailable"))
        return reports

    try:
        second = _rung_values(
            "integral",
            lambda r: np.abs(model.q.derivative(r, order=2)
                             / model.q.value(r) ** 1.5), tw)
        squared = _rung_values(
            "integral",
            lambda r: model.q.derivative(r) ** 2 / model.q.value(r) ** 2.5, tw)
        v1, _ = _tail_verdict(second)
        v2, _ = _tail_verdict(squared)
        if VIOLATED in (v1, v2):
            verdict = VIOLATED
        elif INCONCLUSIVE in (v1, v2):
            verdict = INCONCLUSIVE
        else:
            verdict = SATISFIED
        reports.append(HypothesisReport(
            "B2'", verdict,
            {"rung_second_derivative_integrals": second.tolist(),
             "rung_squared_slope_integrals": squared.tolist()},
            _listify(tw), auxiliary=True))
    except MissingDerivativeError:
        pass
    return reports


def check_c_conditions(channel, *,
                       extreme_ladder: WindowLadder = EXTREME_LADDER,
                       tail_ladder: WindowLadder = TAIL_LADDER):
    """Diagnose the channel conditions C1-C3 (C3' when one coefficient
    vanishes identically)."""
    ew = extreme_ladder.windows()
    tw = tail_ladder.windows()
    reports = []

    def Q(r):
        return channel.coeffs(r)[0]

    q_min, q_max = _window_extremes(Q, ew)
    verdict, note = _divergence_verdict(q_min, q_max)
    reports.append(HypothesisReport(
        "C1", verdict, {"window_minima": q_min.tolist(),
                        "window_maxima": q_max.tolist()}, _listify(ew), note))

    def ratio(r):
        Qv, _, _, Wv = channel.coeffs(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(Qv > 0.0, Wv / Qv, np.inf)

    _, ratio_max = _window_extremes(ratio, ew)
    c2_verdict, note = _limsup_below_verdict(ratio_max)
    reports.append(HypothesisReport(
        "C2", c2_verdict, {"w_over_q_window_maxima": ratio_max.tolist()},
        _listify(ew), note))

    # identify vanishing coefficients on a probe grid
    probe = np.geomspace(tw[0][0], tw[-1][1], 512)
    with np.errstate(all="ignore"):
        _, M, L, _ = channel.coeffs(probe)
    m_zero = bool(np.all(M == 0.0))
    l_zero = bool(np.all(L == 0.0))

    gap_floor = []
    with np.errstate(all="ignore"):
        for a, b in tw:
            _, vals = sample_window(
                lambda r: channel.coeffs(r)[0] - channel.coeffs(r)[3],
                a, b, n_min=2048, n_max=100_000)
            gap = float(np.min(vals))
            gap_floor.append(gap if np.isfinite(gap) else -math.inf)
    usable = [i for i, g in enumerate(gap_floor) if g > 0.0]
    if len(usable) < 2 or usable[-1] != len(tw) - 1:
        reports.append(HypothesisReport(
            "C3", INCONCLUSIVE, {"q_minus_w_window_minima": gap_floor},
            _listify(tw),
            note="Q - W not positive on the tail; quotients skipped"))
        return reports

    windows = [tw[i] for i in usable]
    if m_zero or l_zero:
        cid = "C3'"
        if m_zero:
            quotients = {"l_over_q_minus_l":
                         lambda r: _safe_quot(channel, r, "L")}
        else:
            quotients = {"m_over_q_minus_m":
                         lambda r: _safe_quot(channel, r, "M")}
    else:
        cid = "C3"
        quotients = {
            "w_over_q_minus_w": lambda r: _safe_quot(channel, r, "W"),
            "m_over_q_minus_w": lambda r: _safe_quot(channel, r, "MW"),
            "l_over_q_minus_w": lambda r: _safe_quot(channel, r, "LW"),
        }
    evidence = {"q_minus_w_window_minima": gap_floor}
    verdicts, notes = [], []
    for name, fn in quotients.items():
        rungs = _rung_values("variation", fn, windows)
        evidence[name + "_rung_variations"] = rungs.tolist()
        v, n = _tail_verdict(rungs)
        verdicts.append(v)
        if n:
            notes.append(f"{name}: {n}")
    if VIOLATED in verdicts:
        verdict = VIOLATED
    elif INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = SATISFIED
    reports.append(HypothesisReport(cid, verdict, evidence, _listify(windows),
                                    note="; ".join(notes)))
    return reports


def _safe_quot(channel, r, which):
    Q, M, L, W = channel.coeffs(r)
    if which == "L":
        return L / (Q - L)
    if which == "M":
        return M / (Q - M)
    den = Q - W
    num = {"W": W, "MW": M, "LW": L}[which]
    return num / den


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

    def slope(r):
        return 2.0 * model.q.derivative(r) / gamma(r) ** 1.5

    tw = [w for w in tail_ladder.windows()
          if np.min(gamma(np.linspace(*w, 512))) > 0.0]
    if len(tw) < 2:
        raise ValueError("gamma = 2q - lambda is not positive on the probe "
                         "ladder")
    reports = []

    rungs = _rung_values("variation", slope, tw)
    verdict, note = _tail_verdict(rungs)
    reports.append(HypothesisReport(
        "G1", verdict, {"rung_variations": rungs.tolist()}, _listify(tw), note))

    rungs = _rung_values("integral", lambda r: np.abs(slope(r) / r), tw)
    verdict, note = _tail_verdict(rungs)
    reports.append(HypothesisReport(
        "G2", verdict, {"rung_integrals": rungs.tolist()}, _listify(tw), note))

    ew = [w for w in extreme_ladder.windows()
          if np.min(gamma(np.linspace(*w, 512))) > 0.0]
    _, maxima = _window_extremes(lambda r: np.abs(slope(r)), ew)
    verdict, note = _tail_verdict(maxima)
    reports.append(HypothesisReport(
        "G3", verdict, {"abs_slope_window_maxima": maxima.tolist()},
        _listify(ew), note))
    return reports
