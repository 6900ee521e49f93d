"""Grid-based bounded-variation calculus.

Variation on a finite grid is a lower bound of the true variation and is
nondecreasing under grid refinement; every asymptotic statement about
membership in BV(.,inf) is therefore turned into a windowed, trend-based
diagnostic over a geometric ladder of tail windows.

The lemma checkers (`SampledFunction`, `variation`, `jordan_decompose`,
`check_product_bound`, `check_quotient_bounds`) take one sampled function
or a stack of them: the last axis is the grid, every reduction runs along
it, and a result holds a Python scalar for one function and one value per
row for a stack, each row equal to the call on that row alone.

The window primitives and the trichotomy probe's window reduction and
classes serve the one ladder pass of `hypotheses`, which samples the
windows; this module evaluates no coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SampledFunction",
    "ProductBoundResult",
    "QuotientBoundResult",
    "TrichotomyProbe",
    "variation",
    "cumulative_variation",
    "jordan_decompose",
    "tail_trend",
    "sample_window",
    "window_variation",
    "window_integral",
    "check_product_bound",
    "check_quotient_bounds",
    "trichotomy_window",
    "classify_trichotomy",
]

TREND_CONVERGED = "converged"
TREND_GROWING = "growing"
TREND_FLAT = "flat"
TREND_INCONCLUSIVE = "inconclusive"


def _rows(x):
    """A checker's result: a Python scalar for one sampled function (a 0-d
    array), the array of one value per row for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


@dataclass(frozen=True)
class SampledFunction:
    """Finite function samples on a strictly increasing grid, optionally
    with derivative samples on the same grid.

    A stack: the last axis is the grid, and values (and derivatives) have
    the grid's shape.  The arrays are stored C-contiguous, so each row
    reduces in the order of its 1-D call.
    """

    grid: np.ndarray
    values: np.ndarray
    deriv: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim < 1 or grid.shape[-1] < 2:
            raise ValueError("grid needs at least 2 points along its last "
                             "axis")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid shape")
        if not np.all(np.diff(grid, axis=-1) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.deriv is not None:
            deriv = np.ascontiguousarray(self.deriv, dtype=float)
            if deriv.shape != grid.shape:
                raise ValueError("derivative samples must match the grid shape")
            if not np.all(np.isfinite(deriv)):
                raise ValueError("derivative samples must be finite")
            object.__setattr__(self, "deriv", deriv)


def variation(f: SampledFunction):
    """Partition sum of |increments| over the sample grid (a stack: one
    sum per row)."""
    return window_variation(f.values)


def cumulative_variation(values: np.ndarray) -> np.ndarray:
    """Prefix sums of |increments|; entry i is the grid variation on
    [x_0, x_i]."""
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(np.abs(np.diff(values)), out=out[1:])
    return out


def jordan_decompose(f: SampledFunction):
    """Split f into nondecreasing parts g_plus - g_minus (a stack: row by
    row).

    Canonical choice: running positive/negative variation anchored at
    g_plus(a) = f(a), g_minus(a) = 0, which makes the output deterministic
    and the telescoped sum equal to the grid variation.
    """
    v = f.values
    d = np.diff(v, axis=-1)
    g_plus = np.empty_like(v)
    g_minus = np.empty_like(v)
    g_plus[..., 0] = v[..., 0]
    g_minus[..., 0] = 0.0
    np.cumsum(np.maximum(d, 0.0), axis=-1, out=g_plus[..., 1:])
    g_plus[..., 1:] += v[..., :1]
    np.cumsum(np.maximum(-d, 0.0), axis=-1, out=g_minus[..., 1:])
    return (SampledFunction(f.grid, g_plus), SampledFunction(f.grid, g_minus))


# ---------------------------------------------------------------------------
# trends


def tail_trend(values: Sequence[float]) -> str:
    """Classify a ladder of nonnegative rung quantities.

    converged: the last two rungs decay geometrically (ratio <= 0.6) or sit
    at or below 1e-3; growing: they grow by a factor >= 2; flat: ratios >=
    0.8 on rungs above 0.1 (evidence of a non-summable, e.g. logarithmically
    divergent, tail).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 or not np.all(np.isfinite(v)):
        return TREND_INCONCLUSIVE
    if np.all(v[-2:] <= 1e-3):
        return TREND_CONVERGED
    prev = v[:-1]
    ratios = np.where(prev > 0.0, v[1:] / np.where(prev > 0.0, prev, 1.0), np.inf)
    last = ratios[-2:] if ratios.size >= 2 else ratios
    if np.all(last <= 0.6):
        return TREND_CONVERGED
    if np.all(last >= 2.0):
        return TREND_GROWING
    if np.all(last >= 0.8) and np.all(v[-2:] > 0.1):
        return TREND_FLAT
    return TREND_INCONCLUSIVE


# the points of every geometric window grid, and the fewest of a linear one
_WINDOW_POINTS = 2048


def sample_window(fn: Callable, a: float, b: float, *,
                  geometric: bool = False) -> tuple:
    """Sample fn once on the window grid [a, b].

    The grid is `geometric` for a scale-free source
    (`coefficients.scale_free`: powers, logs and exponentials, whose
    quotients are eventually monotone, so their grid variations do not
    depend on the grid): 2048 geometric points on every window.  Anything
    else gets 8 points per unit length, at least 2048.

    fn returns the coefficient arrays a diagnostic reads (a tuple, or a dict
    by name); they are passed through uncopied, so every quantity derived
    from one window comes from one evaluation.
    """
    if geometric:
        grid = np.geomspace(a, b, _WINDOW_POINTS)
    else:
        grid = np.linspace(a, b, int(max(8.0 * (b - a), _WINDOW_POINTS)))
    return grid, fn(grid)


def window_variation(values, out=None):
    """Grid variation of one window's samples (a stack: the last axis is
    the grid, one variation per row).

    `out`, an array of the increments' shape, takes them in place of a
    fresh array; the sum is the same to the last bit either way.
    """
    inc = np.subtract(values[..., 1:], values[..., :-1], out=out)
    return _rows(np.sum(np.abs(inc, out=inc), axis=-1))


def trapezoid(y, x):
    """Composite trapezoid integral of samples y on the grid x, in the
    operation order of scipy.integrate.trapezoid (a stack: the last axis is
    the grid)."""
    return np.sum(np.diff(x, axis=-1) * (y[..., 1:] + y[..., :-1]) / 2.0,
                  axis=-1)


def window_integral(grid, values) -> float:
    """Trapezoid integral of |values| over the window grid."""
    return float(trapezoid(np.abs(values), grid))


# ---------------------------------------------------------------------------
# product / quotient variation bounds


@dataclass(frozen=True)
class ProductBoundResult:
    """The product bound on one sampled pair (Python scalars) or on a stack
    (one value per row)."""

    lhs: float
    rhs: float
    sup_f: float
    var_g: float
    allowance: float
    holds: bool


def check_product_bound(f: SampledFunction,
                        g: SampledFunction) -> ProductBoundResult:
    """Verify Var(fg) <= int |f' g| + sup|f| * Var(g) on a common grid (a
    stack: the last axis is the grid, row by row).

    The integral is composite trapezoid; the allowance is 1e-6 of the
    right-hand side plus a Richardson error estimate on a half-resolution
    grid and a mesh term that accounts for evaluating g at cell endpoints
    rather than throughout each cell.
    """
    if f.deriv is None:
        raise ValueError("f must carry derivative samples")
    if not np.array_equal(f.grid, g.grid):
        raise ValueError("f and g must share a common grid")
    grid = f.grid
    lhs = window_variation(f.values * g.values)
    integrand = np.abs(f.deriv * g.values)
    integral = trapezoid(integrand, grid)
    integral_coarse = trapezoid(integrand[..., ::2], grid[..., ::2])
    sup_f = np.max(np.abs(f.values), axis=-1)
    var_g = window_variation(g.values)
    rhs = integral + sup_f * var_g
    h_max = np.max(np.diff(grid, axis=-1), axis=-1)
    mesh_term = np.max(np.abs(f.deriv), axis=-1) * h_max * var_g
    allowance = 1e-6 * rhs + np.abs(integral - integral_coarse) + mesh_term
    return ProductBoundResult(lhs=lhs, rhs=_rows(rhs), sup_f=_rows(sup_f),
                              var_g=var_g, allowance=_rows(allowance),
                              holds=_rows(lhs <= rhs + allowance))


@dataclass(frozen=True)
class QuotientBoundResult:
    """The two-sided quotient bound on one sampled pair (Python scalars) or
    on a stack (one value per row); a row whose precondition fails has
    var_f_over_g_minus_f nan and verdicts None."""

    eps: float
    var_fg: float
    var_f_over_g_minus_f: float
    lower_holds: Optional[bool]
    upper_holds: Optional[bool]
    precondition_met: bool

    @property
    def holds(self) -> Optional[bool]:
        both = np.logical_and(np.equal(self.lower_holds, True),
                              np.equal(self.upper_holds, True))
        return _rows(np.where(self.precondition_met, both, None))


def check_quotient_bounds(f: SampledFunction,
                          g: SampledFunction) -> QuotientBoundResult:
    """Verify the two-sided bound
    (1-eps)^2 Var(f/(g-f)) <= Var(f/g) <= (1+eps)^2 Var(f/(g-f))
    with eps = sup |f|/g, on the common grid (a stack: the last axis is the
    grid, row by row).

    This inequality holds partition-wise, so no quadrature allowance is
    needed; a slack of 1e-9 (1 + both variations) only absorbs
    floating-point rounding.
    """
    if not np.array_equal(f.grid, g.grid):
        raise ValueError("f and g must share a common grid")
    if not np.all(g.values > 0.0):
        raise ValueError("g must be strictly positive on the grid")
    eps = np.max(np.abs(f.values) / g.values, axis=-1)
    var_fg = window_variation(f.values / g.values)
    met = eps < 1.0
    # a row with eps >= 1 may divide by g - f = 0; its results are masked
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        var_q = np.where(met, window_variation(f.values
                                               / (g.values - f.values)),
                         np.nan)
    slack = 1e-9 * (1.0 + var_fg + var_q)
    # np.square is x * x for a function and a stack alike; ** 2 is C pow on
    # a float but x * x on an array, which may differ in the last bit
    lower = np.square(1.0 - eps) * var_q <= var_fg + slack
    upper = var_fg <= np.square(1.0 + eps) * var_q + slack
    return QuotientBoundResult(eps=_rows(eps), var_fg=var_fg,
                               var_f_over_g_minus_f=_rows(var_q),
                               lower_holds=_rows(np.where(met, lower, None)),
                               upper_holds=_rows(np.where(met, upper, None)),
                               precondition_met=_rows(met))


# ---------------------------------------------------------------------------
# the lambda trichotomy probe: its window reduction and its classes


@dataclass(frozen=True)
class TrichotomyProbe:
    entries: list
    pattern: str
    consistent: bool


def trichotomy_window(q, m, lambdas: Sequence[float], variations) -> list:
    """One window of the trichotomy probe.

    Appends the variation of m/(q - lambda) on the window sample (q, m) to
    the rungs of each lambda and returns the rungs; a lambda whose q - lambda
    is not positive on some sample has rungs None from then on.  The
    quotient and its increments go to two work arrays of the window.
    """
    floor = float(np.min(q))
    variations = [None if rungs is None or not floor - lam > 0.0 else rungs
                  for lam, rungs in zip(lambdas, variations)]
    quotient, inc = np.empty(q.size), np.empty(q.size - 1)
    for lam, rungs in zip(lambdas, variations):
        if rungs is not None:
            np.subtract(q, lam, out=quotient)
            np.divide(m, quotient, out=quotient)
            rungs.append(window_variation(quotient, out=inc))
    return variations


def classify_trichotomy(lambdas: Sequence[float], windows,
                        variations) -> TrichotomyProbe:
    """Classify each lambda BV-convergent or BV-divergent from the trend of
    its rungs, and the observed set of convergent lambdas against the
    admissible patterns: none, exactly one, or all."""
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
