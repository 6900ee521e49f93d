"""Grid-based bounded-variation calculus.

Variation on a finite grid is a lower bound of the true variation and is
nondecreasing under grid refinement; every asymptotic statement about
membership in BV(.,inf) is therefore turned into a windowed, trend-based
diagnostic over a geometric ladder of tail windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import trapezoid

from .coefficients import CoefficientModel

__all__ = [
    "SampledFunction",
    "VariationReport",
    "WindowLadder",
    "ProductBoundResult",
    "QuotientBoundResult",
    "TrichotomyProbe",
    "variation",
    "cumulative_variation",
    "jordan_decompose",
    "refinement_trend",
    "variation_report",
    "tail_trend",
    "sample_window",
    "window_variation",
    "window_integral",
    "check_product_bound",
    "check_quotient_bounds",
    "lambda_trichotomy_probe",
]

TREND_CONVERGED = "converged"
TREND_GROWING = "growing"
TREND_FLAT = "flat"
TREND_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SampledFunction:
    """Function samples on a strictly increasing grid, optionally with
    derivative samples on the same grid."""

    grid: np.ndarray
    values: np.ndarray
    deriv: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be one-dimensional with length >= 2")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid shape")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.deriv is not None:
            deriv = np.asarray(self.deriv, dtype=float)
            if deriv.shape != grid.shape:
                raise ValueError("derivative samples must match the grid shape")
            object.__setattr__(self, "deriv", deriv)

    def __len__(self):
        return self.grid.size


def sample(fn: Callable, a: float, b: float, n: int,
           dfn: Callable = None) -> SampledFunction:
    grid = np.linspace(a, b, n)
    deriv = None if dfn is None else np.asarray(dfn(grid), dtype=float)
    return SampledFunction(grid, np.asarray(fn(grid), dtype=float), deriv)


def variation(f: SampledFunction) -> float:
    """Partition sum of |increments| over the sample grid."""
    return window_variation(f.values)


def cumulative_variation(values: np.ndarray) -> np.ndarray:
    """Prefix sums of |increments|; entry i is the grid variation on
    [x_0, x_i]."""
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(np.abs(np.diff(values)), out=out[1:])
    return out


def jordan_decompose(f: SampledFunction):
    """Split f into nondecreasing parts g_plus - g_minus.

    Canonical choice: running positive/negative variation anchored at
    g_plus(a) = f(a), g_minus(a) = 0, which makes the output deterministic
    and the telescoped sum equal to the grid variation.
    """
    d = np.diff(f.values)
    g_plus = np.empty_like(f.values)
    g_minus = np.empty_like(f.values)
    g_plus[0] = f.values[0]
    g_minus[0] = 0.0
    np.cumsum(np.maximum(d, 0.0), out=g_plus[1:])
    g_plus[1:] += f.values[0]
    np.cumsum(np.maximum(-d, 0.0), out=g_minus[1:])
    return (SampledFunction(f.grid, g_plus), SampledFunction(f.grid, g_minus))


# ---------------------------------------------------------------------------
# trends


def tail_trend(values: Sequence[float], *, ratio_converged: float = 0.6,
               ratio_growing: float = 2.0, abs_tol: float = 1e-3,
               flat_band: float = 0.8) -> str:
    """Classify a ladder of nonnegative rung quantities.

    converged: the last two rungs decay geometrically (ratio <= 0.6) or sit
    below the absolute tolerance; growing: they grow by a factor >= 2;
    flat: they neither decay nor grow while staying well above tolerance
    (evidence of a non-summable, e.g. logarithmically divergent, tail).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 or not np.all(np.isfinite(v)):
        return TREND_INCONCLUSIVE
    if np.all(v[-2:] <= abs_tol):
        return TREND_CONVERGED
    prev = v[:-1]
    ratios = np.where(prev > 0.0, v[1:] / np.where(prev > 0.0, prev, 1.0), np.inf)
    last = ratios[-2:] if ratios.size >= 2 else ratios
    if np.all(last <= ratio_converged):
        return TREND_CONVERGED
    if np.all(last >= ratio_growing):
        return TREND_GROWING
    if np.all(last >= flat_band) and np.all(v[-2:] > 100.0 * abs_tol):
        return TREND_FLAT
    return TREND_INCONCLUSIVE


def refinement_trend(fn: Callable, a: float, b: float, *, n0: int = 128,
                     levels: int = 8, rel_tol: float = 1e-3,
                     grow_tol: float = 1e-2):
    """Variation of fn on [a, b] under dyadic grid refinement.

    Returns (trend, variations); the variations are nondecreasing in the
    refinement level, so 'converged' means the increments have died out and
    'growing' means each refinement keeps discovering new variation.
    """
    variations = []
    n = n0
    for _ in range(levels):
        s = sample(fn, a, b, n + 1)
        variations.append(variation(s))
        n *= 2
    v = np.asarray(variations)
    rel_inc = np.diff(v) / np.maximum(v[1:], np.finfo(float).tiny)
    if v[-1] == 0.0 or rel_inc[-1] <= rel_tol:
        trend = TREND_CONVERGED
    elif np.all(rel_inc[-2:] >= grow_tol):
        trend = TREND_GROWING
    else:
        trend = TREND_INCONCLUSIVE
    return trend, variations


@dataclass(frozen=True)
class VariationReport:
    window: tuple
    variation: float
    refinement_trend: str
    tail_windows: list  # (T, variation on [T, b]) pairs

    def __post_init__(self):
        if self.variation < 0:
            raise ValueError("variation must be nonnegative")


def variation_report(fn: Callable, a: float, b: float, *, n: int = 4096,
                     tails: int = 4, refine_levels: int = 6) -> VariationReport:
    s = sample(fn, a, b, n)
    cum = cumulative_variation(s.values)
    total = float(cum[-1])
    starts = np.geomspace(a, b * 0.5, tails) if a > 0 else np.linspace(a, b * 0.5, tails)
    tail_windows = []
    for T in starts:
        i = int(np.searchsorted(s.grid, T))
        i = min(i, len(s.grid) - 2)
        tail_windows.append((float(s.grid[i]), float(total - cum[i])))
    trend, _ = refinement_trend(fn, a, b, n0=max(64, n // 16),
                                levels=refine_levels)
    return VariationReport(window=(a, b), variation=total,
                           refinement_trend=trend, tail_windows=tail_windows)


# ---------------------------------------------------------------------------
# window ladders over the tail


@dataclass(frozen=True)
class WindowLadder:
    """Geometric ladder of tail windows [T, factor*T]."""

    start: float = 25.0
    factor: float = 2.0
    rungs: int = 4

    def __post_init__(self):
        if self.start <= 0 or self.factor <= 1 or self.rungs < 2:
            raise ValueError("ladder needs start > 0, factor > 1, rungs >= 2")

    def windows(self):
        return [(self.start * self.factor ** j, self.start * self.factor ** (j + 1))
                for j in range(self.rungs)]

    def to_dict(self):
        return {"start": self.start, "factor": self.factor, "rungs": self.rungs}


EXTREME_LADDER = WindowLadder(25.0, 2.0, 4)
TAIL_LADDER = WindowLadder(25.0, 10.0, 3)


def sample_window(fn: Callable, a: float, b: float, *,
                  points_per_unit: float = 8.0, n_min: int = 2048,
                  n_max: int = 400_000) -> tuple:
    """Sample fn once on the window grid [a, b].

    fn returns the tuple of coefficient arrays a diagnostic reads; the
    arrays are passed through uncopied, so every quantity derived from one
    window comes from one evaluation.
    """
    n = int(np.clip(points_per_unit * (b - a), n_min, n_max))
    grid = np.linspace(a, b, n)
    return grid, tuple(np.asarray(v, dtype=float) for v in fn(grid))


def window_variation(values) -> float:
    """Grid variation of one window's samples."""
    return float(np.sum(np.abs(np.diff(values))))


def window_integral(grid, values) -> float:
    """Trapezoid integral of |values| over the window grid."""
    return float(trapezoid(np.abs(values), grid))


# ---------------------------------------------------------------------------
# product / quotient variation bounds


@dataclass(frozen=True)
class ProductBoundResult:
    lhs: float
    rhs: float
    integral: float
    sup_f: float
    var_g: float
    allowance: float
    holds: bool

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "integral": self.integral,
                "sup_f": self.sup_f, "var_g": self.var_g,
                "allowance": self.allowance, "holds": self.holds}


def check_product_bound(f: SampledFunction, g: SampledFunction,
                        tol: float = 1e-6) -> ProductBoundResult:
    """Verify Var(fg) <= int |f' g| + sup|f| * Var(g) on a common grid.

    The integral is composite trapezoid; the allowance combines a Richardson
    error estimate on a half-resolution grid with a mesh term that accounts
    for evaluating g at cell endpoints rather than throughout each cell.
    """
    if f.deriv is None:
        raise ValueError("f must carry derivative samples")
    if not np.array_equal(f.grid, g.grid):
        raise ValueError("f and g must share a common grid")
    grid = f.grid
    lhs = float(np.sum(np.abs(np.diff(f.values * g.values))))
    integrand = np.abs(f.deriv * g.values)
    integral = float(trapezoid(integrand, grid))
    integral_coarse = float(trapezoid(integrand[::2], grid[::2]))
    sup_f = float(np.max(np.abs(f.values)))
    var_g = float(np.sum(np.abs(np.diff(g.values))))
    rhs = integral + sup_f * var_g
    h_max = float(np.max(np.diff(grid)))
    mesh_term = float(np.max(np.abs(f.deriv))) * h_max * var_g
    allowance = tol * rhs + abs(integral - integral_coarse) + mesh_term
    return ProductBoundResult(lhs=lhs, rhs=rhs, integral=integral, sup_f=sup_f,
                              var_g=var_g, allowance=allowance,
                              holds=bool(lhs <= rhs + allowance))


@dataclass(frozen=True)
class QuotientBoundResult:
    eps: float
    var_fg: float
    var_f_over_g_minus_f: float
    lower_holds: Optional[bool]
    upper_holds: Optional[bool]
    precondition_met: bool

    @property
    def holds(self) -> Optional[bool]:
        if not self.precondition_met:
            return None
        return self.lower_holds and self.upper_holds

    def to_dict(self):
        return {"eps": self.eps, "var_fg": self.var_fg,
                "var_f_over_g_minus_f": self.var_f_over_g_minus_f,
                "holds": self.holds, "precondition_met": self.precondition_met}


def check_quotient_bounds(f: SampledFunction, g: SampledFunction,
                          tol: float = 1e-9) -> QuotientBoundResult:
    """Verify the two-sided bound
    (1-eps)^2 Var(f/(g-f)) <= Var(f/g) <= (1+eps)^2 Var(f/(g-f))
    with eps = sup |f|/g, on the common grid.

    This inequality holds partition-wise, so no quadrature allowance is
    needed; tol only absorbs floating-point rounding.
    """
    if not np.array_equal(f.grid, g.grid):
        raise ValueError("f and g must share a common grid")
    if np.any(g.values <= 0.0):
        raise ValueError("g must be strictly positive on the grid")
    eps = float(np.max(np.abs(f.values) / g.values))
    var_fg = float(np.sum(np.abs(np.diff(f.values / g.values))))
    if eps >= 1.0:
        return QuotientBoundResult(eps=eps, var_fg=var_fg,
                                   var_f_over_g_minus_f=float("nan"),
                                   lower_holds=None, upper_holds=None,
                                   precondition_met=False)
    var_q = float(np.sum(np.abs(np.diff(f.values / (g.values - f.values)))))
    slack = tol * (1.0 + var_fg + var_q)
    lower = (1.0 - eps) ** 2 * var_q <= var_fg + slack
    upper = var_fg <= (1.0 + eps) ** 2 * var_q + slack
    return QuotientBoundResult(eps=eps, var_fg=var_fg,
                               var_f_over_g_minus_f=var_q,
                               lower_holds=bool(lower), upper_holds=bool(upper),
                               precondition_met=True)


# ---------------------------------------------------------------------------
# the lambda trichotomy probe


@dataclass(frozen=True)
class TrichotomyProbe:
    entries: list
    pattern: str
    consistent: bool

    def to_dict(self):
        return {"entries": self.entries, "pattern": self.pattern,
                "consistent": self.consistent}


def lambda_trichotomy_probe(model: CoefficientModel, lambdas: Sequence[float],
                            tail_start: float = 25.0, *, factor: float = 10.0,
                            rungs: int = 3,
                            points_per_unit: float = 8.0) -> TrichotomyProbe:
    """Windowed tail variation of m/(q - lambda) for each probe lambda.

    Each lambda is classified BV-convergent or BV-divergent from the trend
    of the rung variations; the observed set of convergent lambdas is then
    compared against the admissible patterns: none, exactly one, or all.
    """
    ladder = WindowLadder(tail_start, factor, rungs)
    windows = ladder.windows()
    lambdas = [float(lam) for lam in lambdas]
    with np.errstate(all="ignore"):
        q_floor = [float(np.min(model.q.value(np.linspace(a, b, 512))))
                   for a, b in windows]
        # one (q, m) sample per window serves every lambda whose q - lambda
        # stays positive on the probe tail; the others get no rungs
        variations = [[] if min(f - lam for f in q_floor) > 0.0 else None
                      for lam in lambdas]
        if any(v is not None for v in variations):
            for a, b in windows:
                _, (q, m) = sample_window(
                    lambda r: (model.q.value(r), model.m.value(r)), a, b,
                    points_per_unit=points_per_unit)
                for lam, rungs in zip(lambdas, variations):
                    if rungs is not None:
                        rungs.append(window_variation(m / (q - lam)))
    entries = []
    for lam, rungs in zip(lambdas, variations):
        if rungs is None:
            entries.append({"lambda": lam, "windows": windows,
                            "variations": None, "trend": TREND_INCONCLUSIVE,
                            "classification": "inconclusive",
                            "note": "q - lambda not positive on the probe "
                                    "tail"})
            continue
        trend = tail_trend(rungs)
        if trend == TREND_CONVERGED:
            cls = "convergent"
        elif trend in (TREND_GROWING, TREND_FLAT):
            cls = "divergent"
        else:
            cls = "inconclusive"
        entries.append({"lambda": lam, "windows": windows,
                        "variations": rungs, "trend": trend,
                        "classification": cls})
    classes = [e["classification"] for e in entries]
    n_conv = classes.count("convergent")
    if "inconclusive" in classes:
        pattern = "inconclusive"
    elif n_conv == len(classes):
        pattern = "all"
    elif n_conv == 0:
        pattern = "none"
    elif n_conv == 1:
        pattern = "singleton"
    else:
        pattern = "inconsistent"
    return TrichotomyProbe(entries=entries, pattern=pattern,
                           consistent=pattern != "inconsistent")
