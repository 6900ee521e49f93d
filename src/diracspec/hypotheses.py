"""Windowed diagnostics for the spectral hypotheses.

Every asymptotic hypothesis (a limit at infinity, a tail integral, a tail
variation) is probed on one of two fixed geometric ladders of windows
[T, factor T] and classified as satisfied, violated, or inconclusive: the
suprema and infima on `EXTREME_WINDOWS`, [25, 400] in four doublings, and
the tail variations and integrals on `TAIL_WINDOWS`, [25, 25000] in three
decades.  The checker never extrapolates beyond the ladder, so
"inconclusive" is a first-class verdict.

A window sample is the coefficient values on one window grid, which
`bvcalc.sample_window` picks: 2048 geometric points on every window of a
scale-free model or channel (`coefficients.scale_free`: powers, logs and
exponentials, whose quotients are eventually monotone), else 8 points per
unit length, so that a modulated or tabulated coefficient, and any object
that states nothing of its scale, keeps its resolution.  The checks of a
model share the samples in one pass over each ladder (`_run`, the
package's only loop over ladder windows): per window, q, m and only the
derivatives some check reads are evaluated once, and every check derives
and reduces its quantities from that sample, one at a time, before the
next window is sampled.  Each public check, the trichotomy probe (A3)
included, runs the pass with its own reductions only; `check_hypotheses`
runs it with all of them, and `check_scan` with those of a scan.
The C checks of all (k, lambda) channels of a model share the sample's q
and m, and write L, W, Q, Q - W, each quotient and its increments into
work arrays made once per window (`_Scratch`) and reused by every cell;
they die with the window, so no check holds memory between calls.  The C
gap floor and the C3 quotients read the same window sample, so there is
one grid per window.  A condition made of several ladders takes the worst
of their verdicts.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .bvcalc import (
    TREND_CONVERGED,
    TREND_FLAT,
    TREND_GROWING,
    classify_trichotomy,
    sample_window,
    tail_trend,
    trichotomy_window,
    window_integral,
    window_variation,
)
from .coefficients import (
    CoefficientModel,
    MissingDerivativeError,
    models_equal,
    require_equal,
    scale_free,
)

__all__ = [
    "SATISFIED",
    "VIOLATED",
    "INCONCLUSIVE",
    "HypothesisReport",
    "GENERAL",
    "M_ZERO",
    "L_ZERO",
    "EnvelopeForm",
    "ENVELOPE_FORMS",
    "envelope_form",
    "check_a_conditions",
    "check_derivative_sufficiency",
    "check_b_conditions",
    "check_c_conditions",
    "gamma_diagnostics",
    "check_hypotheses",
    "check_scan",
    "lambda_trichotomy_probe",
    "worst_verdict",
    "EXTREME_WINDOWS",
    "TAIL_WINDOWS",
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


def worst_verdict(reports: Sequence[HypothesisReport]) -> str:
    """Combined verdict of the reports that are not auxiliary."""
    return _worst(r.verdict for r in reports if not r.auxiliary)


# ---------------------------------------------------------------------------
# window samples

# the two ladders of windows [T, factor T] from T = 25 (see the module
# docstring), the only windows any check reads
EXTREME_WINDOWS = tuple((25.0 * 2.0 ** j, 25.0 * 2.0 ** (j + 1))
                        for j in range(4))
TAIL_WINDOWS = tuple((25.0 * 10.0 ** j, 25.0 * 10.0 ** (j + 1))
                     for j in range(3))

# the arrays a model's window sample can hold, in evaluation order, each
# looked up only when read, so a coefficient with `value` alone serves q, m
_EVALUATE = {"q": lambda model, r: model.q.value(r),
             "m": lambda model, r: model.m.value(r),
             "dm": lambda model, r: model.m.derivative(r),
             "dq": lambda model, r: model.q.derivative(r),
             "d2q": lambda model, r: model.q.derivative(r, order=2)}
_READS = tuple(_EVALUATE)
_DERIVATIVES = _READS[2:]


def _model_sampler(model):
    """The window sampler of a model, which maps a grid and the names of the
    arrays read to {name: array}, each evaluated once (a derivative the data
    does not have is left out), and whether the model is scale-free."""
    def sample(r, reads):
        arrays = {}
        for name in _READS:
            if name in reads:
                try:
                    arrays[name] = _EVALUATE[name](model, r)
                except MissingDerivativeError:
                    pass
        return arrays
    return sample, scale_free(model)


def _channel_sampler(channel):
    # a channel's (Q, M, L, W) as q, m, L and W, whatever is read, and
    # whether the channel is scale-free
    def sample(r, reads):
        return dict(zip(("q", "m", "L", "W"), channel.coeffs(r)))
    return sample, scale_free(channel)


def _rows(per_window):
    """One array per reduction from the per-window tuples of reductions."""
    return [np.asarray(row) for row in zip(*per_window)]


class _Check:
    """One condition set in a ladder pass: the arrays it reads of each
    window sample of either ladder and its reduction of one window sample,
    which keeps plain numbers only.  A check that misses an array it needs
    on some window sets `missing`."""

    extreme_reads = tail_reads = ()
    missing = False

    def extreme(self, r, s):
        pass

    def tail(self, r, s):
        pass

    def _has(self, s, *names):
        self.missing = self.missing or any(name not in s for name in names)
        return not self.missing


def _run(sample, geometric, checks):
    """One pass over each ladder for all `checks`, with the window sampler
    `sample` on the window grids of `sample_window`, `geometric` for a
    scale-free source: the package's one loop over ladder windows.

    Each array some check reads is evaluated once per window grid, and
    every check reduces that window sample before the next one is taken.
    A derivative array lives from the first check that reads it to the
    last, so the C work arrays, made by the last check, never meet one, and
    a window's arrays die with its call.
    """
    extreme_reads = {x for check in checks for x in check.extreme_reads}
    tail_reads = {x for check in checks for x in check.tail_reads
                  if x not in _DERIVATIVES}

    def derivatives(check, others):
        # the derivatives a check reads and none of the others does
        return [name for name in _DERIVATIVES if name in check.tail_reads
                and all(name not in other.tail_reads for other in others)]

    # a tail window's derivative arrays are evaluated for the first check
    # that reads them and dropped after the last
    lifetimes = [(derivatives(check, checks[:i]),
                  derivatives(check, checks[i + 1:]))
                 for i, check in enumerate(checks)]

    with np.errstate(all="ignore"):
        if extreme_reads:
            for a, b in EXTREME_WINDOWS:
                r, s = sample_window(lambda r: sample(r, extreme_reads),
                                     a, b, geometric=geometric)
                for check in checks:
                    check.extreme(r, s)
        for a, b in TAIL_WINDOWS:
            r, s = sample_window(lambda r: sample(r, tail_reads), a, b,
                                 geometric=geometric)
            for check, (first, last) in zip(checks, lifetimes):
                if first:
                    s.update(sample(r, first))
                check.tail(r, s)
                for name in last:
                    s.pop(name, None)


# ---------------------------------------------------------------------------
# verdict rules


def _divergence_verdict(minima, maxima):
    if not np.all(np.isfinite(minima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    increasing = np.all(np.diff(minima) > 0.0)
    if increasing and (minima[0] <= 0.0 < minima[-1]
                       or minima[-1] >= 1.5 * abs(minima[0])):
        return SATISFIED, ""
    if np.all(np.isfinite(maxima)) and maxima[-1] <= maxima[0] * (1 + 1e-9):
        return VIOLATED, "window suprema do not grow"
    return INCONCLUSIVE, ""


def _limsup_below_verdict(maxima):
    if not np.all(np.isfinite(maxima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    if np.all(maxima[-2:] <= 0.98):
        return SATISFIED, ""
    # suprema in (0.98, 1) fit a limit below 1
    if np.all(maxima[-2:] >= 1.0) and maxima[-1] >= maxima[-2] * 0.999:
        return VIOLATED, "window suprema stay at or above 1"
    return INCONCLUSIVE, ""


def _liminf_positive_verdict(minima):
    if not np.all(np.isfinite(minima)):
        return INCONCLUSIVE, "nonfinite evaluations on the ladder"
    start = max(abs(minima[0]), np.finfo(float).tiny)
    if np.all(minima[-2:] >= 1e-2) and minima[-1] >= 0.25 * start:
        return SATISFIED, ""
    # small minima that do not fall from their start fit a positive limit
    if minima[-1] <= 0.1 * start:
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
# model condition sets: per-window reductions and report builders


class _A3Checks(_Check):
    """A3, the lambda trichotomy probe (see `lambda_trichotomy_probe`)."""

    tail_reads = ("q", "m")

    def __init__(self, lambdas):
        self.lambdas = [float(lam) for lam in lambdas]
        self.variations = [[] for _ in self.lambdas]

    def tail(self, r, s):
        self.variations = trichotomy_window(s["q"], s["m"], self.lambdas,
                                            self.variations)

    def reports(self):
        verdicts = {"convergent": SATISFIED, "divergent": VIOLATED}
        return [HypothesisReport(
            f"A3[lambda={e['lambda']:g}]",
            verdicts.get(e["classification"], INCONCLUSIVE),
            {"rung_variations": e["variations"], "trend": e["trend"]},
            _listify(e["windows"]), note=e.get("note", ""))
            for e in classify_trichotomy(self.lambdas, TAIL_WINDOWS,
                                         self.variations).entries]


class _AChecks(_A3Checks):
    """A1-A4 and A4' (see `check_a_conditions`): A3 with the extremes of A1
    and A2 and the tail integrals of A4 and A4'."""

    extreme_reads, tail_reads = ("q", "m"), ("q", "m", "dm")

    def __init__(self, lambdas):
        super().__init__(lambdas)
        self.extremes, self.integrals = [], []

    def extreme(self, r, s):
        q, m = s["q"], s["m"]
        self.extremes.append((float(np.min(q)), float(np.max(q)),
                              float(np.min(np.abs(m))),
                              float(np.max(np.abs(m / q)))))

    def tail(self, r, s):
        super().tail(r, s)
        q, m = s["q"], s["m"]
        if self._has(s, "dm"):
            dm = s["dm"]
            self.integrals.append((
                window_integral(r, np.where(dm == 0.0, 0.0,
                                            np.abs(dm / (r * m * q)))),
                window_integral(r, np.where(dm == 0.0, 0.0,
                                            np.abs(dm / (r * m ** 2))))))

    def reports(self):
        q_min, q_max, m_min, ratio_max = _rows(self.extremes)
        v1, n1 = _liminf_positive_verdict(m_min)
        v2, n2 = _limsup_below_verdict(ratio_max)
        reports = [
            _divergence_report("A1", q_min, q_max, EXTREME_WINDOWS),
            HypothesisReport(
                "A2", _worst((v1, v2)),
                {"abs_m_window_minima": m_min.tolist(),
                 "m_over_q_window_maxima": ratio_max.tolist()},
                _listify(EXTREME_WINDOWS),
                note="; ".join(x for x in (n1, n2) if x)),
        ] + super().reports()
        if self.missing:
            reports.append(HypothesisReport(
                "A4", INCONCLUSIVE, {}, [],
                note="mass coefficient has no usable derivative"))
            return reports
        a4, a4p = _rows(self.integrals)
        reports.append(_tail_report("A4", "rung_integrals", a4, TAIL_WINDOWS))
        reports.append(_tail_report("A4'", "rung_integrals", a4p,
                                    TAIL_WINDOWS, auxiliary=True))
        return reports


class _DChecks(_Check):
    """D1 and D2 (see `check_derivative_sufficiency`)."""

    tail_reads = ("q", "m", "dm", "dq")

    def __init__(self):
        self.integrals = []

    def tail(self, r, s):
        if self._has(s, "dm", "dq"):
            dm, m, dq, q = s["dm"], s["m"], s["dq"], s["q"]
            self.integrals.append((
                window_integral(r, np.abs(dm / q)),
                window_integral(r, np.abs(m * dq / q ** 2))))

    def reports(self):
        if self.missing:
            return [HypothesisReport(
                "D1", INCONCLUSIVE, {}, [], "derivatives unavailable",
                auxiliary=True)]
        d1, d2 = _rows(self.integrals)
        reports = [_tail_report("D1", "rung_integrals", d1, TAIL_WINDOWS,
                                auxiliary=True),
                   _tail_report("D2", "rung_integrals", d2, TAIL_WINDOWS,
                                auxiliary=True)]
        if all(r.verdict == SATISFIED for r in reports):
            reports[-1] = replace(
                reports[-1], note="with D1 this forces the BV quotient "
                                  "condition for every lambda")
        return reports


class _BChecks(_Check):
    """B1, B2 and B2' (see `check_b_conditions`)."""

    extreme_reads, tail_reads = ("q",), ("q", "dq", "d2q")

    def __init__(self):
        self.extremes, self.rungs = [], []

    def extreme(self, r, s):
        q = s["q"]
        self.extremes.append((float(np.min(q)), float(np.max(q))))

    def tail(self, r, s):
        # tabulated data without a derivative raises on the first order
        # already, so a usable q' always comes with a usable q''
        if self._has(s, "dq", "d2q"):
            q, dq, d2q = s["q"], s["dq"], s["d2q"]
            self.rungs.append((
                window_variation(dq / q ** 1.5),
                window_integral(r, (dq / q ** 1.5) ** 2),
                window_integral(r, np.abs(d2q / q ** 1.5)),
                window_integral(r, dq ** 2 / q ** 2.5)))

    def reports(self):
        reports = [_divergence_report("B1", *_rows(self.extremes),
                                      EXTREME_WINDOWS)]
        if self.missing:
            reports.append(HypothesisReport(
                "B2", INCONCLUSIVE, {}, [], "derivative unavailable"))
            return reports
        var_rungs, l2_rungs, second, squared = _rows(self.rungs)
        v1, n1 = _tail_verdict(var_rungs)
        v2, n2 = _tail_verdict(l2_rungs)
        reports.append(HypothesisReport(
            "B2", _worst((v1, v2)),
            {"rung_variations": var_rungs.tolist(),
             "rung_square_integrals": l2_rungs.tolist()},
            _listify(TAIL_WINDOWS), note="; ".join(x for x in (n1, n2) if x)))
        reports.append(HypothesisReport(
            "B2'", _worst((_tail_verdict(second)[0],
                           _tail_verdict(squared)[0])),
            {"rung_second_derivative_integrals": second.tolist(),
             "rung_squared_slope_integrals": squared.tolist()},
            _listify(TAIL_WINDOWS), auxiliary=True))
        return reports


class _GChecks(_Check):
    """G1-G3 of the first lambda of a grid that keeps two tail windows (see
    `gamma_diagnostics`); if none does, or q has no q', `reports` raises
    when `required` and is empty otherwise.  A window counts for a lambda
    where gamma = 2q - lambda is positive: its floor is 2 min(q) - lambda,
    exactly, since rounding is monotone; each window reduces every lambda
    of a positive floor, so one pass serves whichever comes first."""

    extreme_reads = tail_reads = ("q", "dq")

    def __init__(self, lambdas, required=True):
        self.lambdas, self.required = lambdas, required
        # per window, {index of a lambda with a positive floor: reduction}
        self.rows = {"extreme": [], "tail": []}

    def _reduce(self, ladder, s, reduce):
        q_floor, rows = float(np.min(s["q"])), {}
        if self._has(s, "dq"):
            for i, lam in enumerate(self.lambdas):
                if 2.0 * q_floor - lam > 0.0:
                    rows[i] = reduce(2.0 * s["dq"]
                                     / (2.0 * s["q"] - lam) ** 1.5)
        self.rows[ladder].append(rows)

    def extreme(self, r, s):
        self._reduce("extreme", s, lambda slope: float(np.max(np.abs(slope))))

    def tail(self, r, s):
        self._reduce("tail", s, lambda slope: (
            window_variation(slope),
            window_integral(r, np.abs(slope / r))))

    def reports(self):
        first = next((i for i in range(len(self.lambdas)) if sum(
            i in rows for rows in self.rows["tail"]) >= 2), None)
        if first is None or self.missing:
            if not self.required:
                return []
            if self.missing:
                raise MissingDerivativeError("gamma diagnostics need q'")
            raise ValueError("gamma = 2q - lambda is not positive on the "
                             "probe ladder")
        (ew, maxima), (tw, rungs) = (
            ([w for w, row in zip(windows, self.rows[ladder]) if first in row],
             [row[first] for row in self.rows[ladder] if first in row])
            for windows, ladder in ((EXTREME_WINDOWS, "extreme"),
                                    (TAIL_WINDOWS, "tail")))
        variations, integrals = _rows(rungs)
        return [_tail_report("G1", "rung_variations", variations, tw),
                _tail_report("G2", "rung_integrals", integrals, tw),
                _tail_report("G3", "abs_slope_window_maxima",
                             np.asarray(maxima, dtype=float), ew)]


# ---------------------------------------------------------------------------
# envelope forms: C3 here, the envelope trace in `boundedness`

GENERAL, M_ZERO, L_ZERO = "general", "M_zero", "L_zero"


def envelope_form(M, L) -> str:
    """The envelope form of a channel from its M and L on one grid: M_ZERO
    or L_ZERO when that coefficient vanishes on the whole grid, else
    GENERAL."""
    if np.all(M == 0.0):
        return M_ZERO
    if np.all(L == 0.0):
        return L_ZERO
    return GENERAL


@dataclass(frozen=True)
class EnvelopeForm:
    """An envelope form: its C3 condition id, the evidence names of its
    quotients, the name of its denominator Q - x (x = W in the general
    form), its value R(u1, u2, |u|^2, Q, M, L, Q - x) and, in a
    single-quotient form, the coefficient x(M, L) that does not vanish."""

    condition_id: str
    names: tuple
    den_name: str
    envelope: Callable
    single: Optional[Callable] = None  # None in the general form

    def denominator(self, Q, M, L, W, out=None):
        """Q - x, written into `out` when one is given."""
        x = W if self.single is None else self.single(M, L)
        return np.subtract(Q, x, out=out)

    def quotients(self, Q, M, L, W, den, out):
        """Yield W, M and L over the form's denominator den, or x/den, each
        written into the work array `out` over the one before (den may be
        `out` in a single-quotient form)."""
        xs = (W, M, L) if self.single is None else (self.single(M, L),)
        yield from (np.divide(x, den, out=out) for x in xs)

    def epsilon(self, Q, M, L) -> float:
        """sup |x|/Q of a single-quotient form, 0 in the general form."""
        return 0.0 if self.single is None else float(
            np.max(np.abs(self.single(M, L)) / Q))

    def factor(self, eps: float) -> float:
        """The almost-monotone bound's factor on the quotient variation:
        2 (1 + eps)/(1 - eps) in a single-quotient form."""
        if self.single is None:
            return 1.0
        return 2.0 * (1.0 + eps) / (1.0 - eps) if eps < 1.0 else math.inf


ENVELOPE_FORMS = {
    GENERAL: EnvelopeForm(
        "C3", ("w_over_q_minus_w", "m_over_q_minus_w", "l_over_q_minus_w"),
        "Q - W", lambda u1, u2, usq, Q, M, L, den:
        (usq * Q + (u1 ** 2 - u2 ** 2) * M + 2.0 * u1 * u2 * L) / den),
    M_ZERO: EnvelopeForm(
        "C3'", ("l_over_q_minus_l",), "Q - L",
        lambda u1, u2, usq, Q, M, L, den: usq + L / den * (u1 + u2) ** 2,
        lambda M, L: L),
    L_ZERO: EnvelopeForm(
        "C3'", ("m_over_q_minus_m",), "Q - M",
        lambda u1, u2, usq, Q, M, L, den: usq + 2.0 * M / den * u1 ** 2,
        lambda M, L: M),
}


# ---------------------------------------------------------------------------
# channel conditions


class _Scratch:
    """Work arrays of one window grid of n points, reused by every cell
    reduced on it and dropped with the window: L and W per k, and per cell
    Q, the gap Q - W, one derived quotient and its n - 1 increments."""

    def __init__(self, n):
        # one array each, no larger than a sample array: freeing a single
        # block of all six raises glibc's mmap threshold, and every process,
        # each scan worker included, then keeps the freed memory in its heap
        self.L, self.W, self.Q, self.gap, self.quotient = (
            np.empty(n) for _ in range(5))
        self.inc = np.empty(n - 1)
        self.positive = np.empty(n, dtype=bool)


def _extreme(Q, W, s):
    # min Q, max Q and max W/Q, with W/Q read as inf where Q is not positive
    s.quotient.fill(np.inf)
    np.divide(W, Q, out=s.quotient, where=np.greater(Q, 0.0, out=s.positive))
    return float(np.min(Q)), float(np.max(Q)), float(np.max(s.quotient))


class _CChecks(_Check):
    """C1-C3 of every (k, lambda) cell of one grid (see `check_c_conditions`):
    a model's k_set x lambda_grid, whose cells derive their coefficients
    from each window sample's q and m, or a channel, the one cell
    (None, None) of its own sample of (Q, M, L, W).

    The grid has one C3 form, fixed up front on a probe grid of the tail
    ladder's span drawn with `sample`: a model's from m alone (L = k/r
    vanishes nowhere), a channel's from its M and L; the general form
    reduces each |k| once.  A tail window is read in one loop over the
    reduced cells: the gap floor min(Q - W) of each, and where that floor
    is positive, its C3 quotients on the same window sample.
    """

    extreme_reads = tail_reads = ("q", "m")

    def __init__(self, source, k_set, lambda_grid, sample):
        self.extremes, self.floors, self.rungs = [], [], []
        # identify a vanishing coefficient on a probe grid
        probe = np.geomspace(TAIL_WINDOWS[0][0], TAIL_WINDOWS[-1][1], 512)
        with np.errstate(all="ignore"):
            s = sample(probe, self.tail_reads)
        model = isinstance(source, CoefficientModel)
        form = envelope_form(s["m"], 1.0 if model else s["L"])
        self.form = ENVELOPE_FORMS[form]
        self.read, self.lams = {None: None}, [None]
        if model:
            # the k reduced for each k of the grid: |k| in the general form
            self.read = {k: abs(k) if form == GENERAL else k
                         for k in map(int, k_set)}
            self.lams = list(dict.fromkeys(map(float, lambda_grid)))

    def cells(self, r, sample):
        """Yield (cell, Q, M, L, W, scratch) for each cell reduced on one
        window sample, in grid order.

        L and W are derived once per reduced k and Q once per cell, into
        work arrays of the window (`_Scratch`) that each cell then reduces
        into; every cell overwrites the arrays of the one before, so read
        them before taking the next.
        """
        s = _Scratch(r.size)
        q, M = sample["q"], sample["m"]
        for k in dict.fromkeys(self.read.values()):
            if k is None:
                L, W = sample["L"], sample["W"]
            else:
                L = np.divide(k, r, out=s.L)
                W = np.hypot(M, L, out=s.W)
            for lam in self.lams:
                Q = q if lam is None else np.subtract(q, lam, out=s.Q)
                yield (k, lam), Q, M, L, W, s

    def extreme(self, r, s):
        self.extremes.append({cell: _extreme(Q, W, sc)
                              for cell, Q, M, L, W, sc in self.cells(r, s)})

    def tail(self, r, s):
        form, floors, rungs = self.form, {}, {}
        for cell, Q, M, L, W, sc in self.cells(r, s):
            floors[cell] = gap = float(np.min(np.subtract(Q, W, out=sc.gap)))
            if 0.0 < gap < math.inf:
                # the general form's denominator is the gap itself
                den = (sc.gap if form.single is None else
                       form.denominator(Q, M, L, W, out=sc.quotient))
                rungs[cell] = tuple(
                    window_variation(quotient, out=sc.inc)
                    for quotient in form.quotients(Q, M, L, W, den,
                                                   sc.quotient))
        self.floors.append(floors)
        self.rungs.append(rungs)

    def reports(self):
        """{cell: [C1, C2, C3 or C3']} in grid order (-k shares |k|'s)."""
        reports = {}
        for cell in self.extremes[0]:  # the reduced cells, in grid order
            q_min, q_max, ratio_max = _rows(window[cell]
                                            for window in self.extremes)
            verdict, note = _limsup_below_verdict(ratio_max)
            reports[cell] = [
                _divergence_report("C1", q_min, q_max, EXTREME_WINDOWS),
                HypothesisReport(
                    "C2", verdict,
                    {"w_over_q_window_maxima": ratio_max.tolist()},
                    _listify(EXTREME_WINDOWS), note),
            ]
            gaps = [window[cell] for window in self.floors]
            use = [i for i, g in enumerate(gaps) if 0.0 < g < math.inf]
            evidence = {"q_minus_w_window_minima": gaps}
            # the quotients need two windows or more, the last among them
            if len(use) < 2 or use[-1] != len(TAIL_WINDOWS) - 1:
                # a floor of +inf or nan is an overflow, not a sign
                why = " or ".join(dict.fromkeys(
                    "not positive" if g <= 0.0 else "not finite (overflow)"
                    for i, g in enumerate(gaps) if i not in use))
                reports[cell].append(HypothesisReport(
                    "C3", INCONCLUSIVE, evidence, _listify(TAIL_WINDOWS),
                    note=f"Q - W {why} on the tail; quotients skipped"))
                continue
            verdicts, notes = [], []
            for name, values in zip(self.form.names,
                                    _rows(self.rungs[i][cell] for i in use)):
                evidence[name + "_rung_variations"] = values.tolist()
                v, n = _tail_verdict(values)
                verdicts.append(v)
                if n:
                    notes.append(f"{name}: {n}")
            reports[cell].append(HypothesisReport(
                self.form.condition_id, _worst(verdicts), evidence,
                _listify([TAIL_WINDOWS[i] for i in use]),
                note="; ".join(notes)))
        return {(k, lam): reports[self.read[k], lam]
                for k in self.read for lam in self.lams}


# ---------------------------------------------------------------------------
# public checks: each runs the ladder pass with its own reductions only


def _ladder_pass(source, checks, cells=None):
    """The reports of `checks` on one pass over each ladder of `source` (a
    model, or a channel: anything with `coeffs`) and the C reports of the
    (k_set, lambdas) grid `cells`, or None; the C checks go last, so every
    derivative array is dropped before their work arrays are made."""
    sample, geometric = (_channel_sampler if hasattr(source, "coeffs")
                         else _model_sampler)(source)
    channels = [] if cells is None else [_CChecks(source, *cells, sample)]
    _run(sample, geometric, checks + channels)
    return ([rep for check in checks for rep in check.reports()],
            channels[0].reports() if channels else None)


def check_a_conditions(model: CoefficientModel, lambdas: Sequence[float]):
    """Diagnose the dominant-potential hypotheses A1-A4 (plus the auxiliary
    stronger probe A4'). The angular index enters none of them."""
    return _ladder_pass(model, [_AChecks(lambdas)])[0]


def lambda_trichotomy_probe(model: CoefficientModel, lambdas: Sequence[float]):
    """A3 alone, bit for bit: the tail variation of m/(q - lambda) for each
    probe lambda on the tail windows, classified; it reads the `value` of q
    and m on the tail windows only."""
    probe = _A3Checks(lambdas)
    _run(*_model_sampler(model), [probe])
    return classify_trichotomy(probe.lambdas, TAIL_WINDOWS, probe.variations)


def check_derivative_sufficiency(model: CoefficientModel):
    """Tail integrability of m'/q and m q'/q^2.  When both converge, the
    quotient m/(q - lambda) is of bounded variation for every lambda, so the
    per-lambda probes must all report convergent."""
    return _ladder_pass(model, [_DChecks()])[0]


def check_b_conditions(model: CoefficientModel):
    """Diagnose the borderline-case hypotheses B1-B2 (m identically q),
    plus the auxiliary second-derivative variant B2'."""
    require_equal(model, "check_b_conditions")
    return _ladder_pass(model, [_BChecks()])[0]


def gamma_diagnostics(model: CoefficientModel, lam: float):
    """Diagnostics for gamma = 2q - lambda: variation and decay of
    gamma'/gamma^(3/2) and integrability of gamma'/(r gamma^(3/2)).

    Windows on which gamma fails to stay positive are skipped: the floor
    min(2q - lambda) of each window is read off the same (q, q') sample as
    its values.  A q without q' raises MissingDerivativeError; if fewer
    than two tail windows survive, the model/lambda pair is rejected with a
    ValueError.
    """
    require_equal(model, "gamma_diagnostics")
    return _ladder_pass(model, [_GChecks([lam])])[0]


def check_c_conditions(source, k_set=(), lambda_grid=()):
    """Diagnose the channel conditions C1-C3 (C3' when one coefficient
    vanishes identically).

    `source` is a CoefficientModel, checked on every cell of the grid
    k_set x lambda_grid, which returns {(k, lambda): reports} in grid order;
    or one channel (anything with `coeffs`), checked as a one-cell grid,
    which returns its reports.  One (q, m) sample per window serves all
    cells of a model (`_CChecks.cells`).  C3 needs a positive gap floor
    min(Q - W) on two or more tail windows, the last among them.

    A model's C3 form is m's alone, since L = k/r vanishes nowhere.  With
    m not identically 0 no C condition sees the sign of k (-k/r is the
    exact negation of k/r), so each (|k|, lambda) is reduced once and the
    cells of k and -k share its reports, bit for bit those of their own
    channels; C3' on L/(Q - L) (m == 0) does see it and reduces every k.
    """
    _, reports = _ladder_pass(source, [], cells=(k_set, lambda_grid))
    return reports[None, None] if hasattr(source, "coeffs") else reports


def check_hypotheses(model: CoefficientModel, k_set: Sequence[int],
                     lambda_grid: Sequence[float]):
    """Every condition of one model in one pass over each ladder.

    Returns the model reports, in order A1-A4 (`check_a_conditions`), D1/D2
    when both coefficients have derivatives, and B1-B2 and G1-G3 when
    m == q, and the C reports {(k, lambda): reports} of the grid
    k_set x lambda_grid (`check_c_conditions`); each report equals the one
    its own check makes.  G is that of the first lambda of the grid that
    keeps two tail windows (`gamma_diagnostics`), and left out if none does.
    """
    lambdas = [float(lam) for lam in lambda_grid]
    equal, _ = models_equal(model)
    checks = [_AChecks(lambdas)]
    if model.m.has_derivative and model.q.has_derivative:
        checks.append(_DChecks())
    if equal:
        checks.append(_BChecks())
        if lambdas:
            checks.append(_GChecks(lambdas, required=False))
    return _ladder_pass(model, checks, cells=(k_set, lambdas))


def check_scan(model: CoefficientModel, k_set: Sequence[int],
               lambda_grid: Sequence[float]):
    """What a scan reads, in one pass over each ladder: A1-A4 on the sorted
    distinct lambdas (`check_a_conditions`) and the C reports {(k, lambda):
    reports} of the grid (`check_c_conditions`); for m == q, B1-B2
    (`check_b_conditions`) and None, since its cells read no C report."""
    lambdas = sorted(set(map(float, lambda_grid)))
    if models_equal(model)[0]:
        return _ladder_pass(model, [_BChecks()])
    return _ladder_pass(model, [_AChecks(lambdas)], cells=(k_set, lambdas))
