"""Oscillatory reference solutions for the borderline regime at negative
spectral parameters, and the defect of the associated second-order equation
at strides 0.04, 0.02 and 0.01, read off one solve on nested grids.

The reference pair has components

    ( q^(-1/4) cos(Phi),  sqrt(2/|lambda|) q^(1/4) sin(Phi) )
    ( q^(-1/4) sin(Phi), -sqrt(2/|lambda|) q^(1/4) cos(Phi) )

with phase Phi = int sqrt(lambda^2 - 2 lambda q) dr from the first grid
radius, the integral of the rescaled channel's Q (`subordinacy.transform`),
by `solver.cumulative_integral`.  Numeric solutions are compared against the
span of the pair by windowed least squares; the projection residual is
scale-invariant and insensitive to the reference phase origin, and its decay
along the radius quantifies how fast the asymptotic regime is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientModel, assemble_channel, require_equal
from .solver import (SolveConfig, Trajectory, cumulative_integral,
                     integrate_pruefer)
from .subordinacy import RESCALED_RTOL, transform

__all__ = [
    "WkbReference",
    "wkb_reference",
    "compare_asymptotics",
    "second_order_check",
    "defect_convergence",
    "defect_window",
    "borderline_trajectory",
    "DEFECT_STRIDES",
]

# the stride ladder of `defect_convergence`, coarsest first
DEFECT_STRIDES = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class WkbReference:
    lam: float
    grid: np.ndarray
    phase: np.ndarray
    col_cos: np.ndarray  # shape (2, n)
    col_sin: np.ndarray  # shape (2, n)

    def __post_init__(self):
        if np.any(np.diff(self.phase) <= 0.0):
            raise ValueError("reference phase must be strictly increasing")


def wkb_reference(model: CoefficientModel, lam: float, r_grid) -> WkbReference:
    """Tabulate the reference pair on a grid; the phase integral runs from
    the first grid point."""
    if lam >= 0.0:
        raise ValueError("the reference pair exists for negative spectral "
                         "parameters only")
    grid = np.asarray(r_grid, dtype=float)
    q = model.q.value(grid)
    if np.any(q <= 0.0):
        raise ValueError("potential must be positive on the grid")
    phase = cumulative_integral(
        lambda r: np.sqrt(lam ** 2 - 2.0 * lam * model.q.value(r)), grid)
    amp1 = q ** -0.25
    amp2 = math.sqrt(2.0 / -lam) * q ** 0.25
    col_cos = np.vstack([amp1 * np.cos(phase), amp2 * np.sin(phase)])
    col_sin = np.vstack([amp1 * np.sin(phase), -amp2 * np.cos(phase)])
    return WkbReference(lam=float(lam), grid=grid, phase=phase,
                        col_cos=col_cos, col_sin=col_sin)


def compare_asymptotics(traj: Trajectory, ref: WkbReference,
                        windows: Optional[Sequence] = None):
    """Relative least-squares projection residual of the numeric components
    onto the span of the reference pair, per window (default: 6 geometric).

    Returns a list of dicts (window, center, residual); windows whose
    reference columns have condition number above 1e12 are skipped.
    """
    if not np.array_equal(traj.grid, ref.grid):
        raise ValueError("trajectory and reference must share a grid")
    grid = traj.grid
    if windows is None:
        edges = np.geomspace(grid[0], grid[-1], 7)
        windows = list(zip(edges[:-1], edges[1:]))
    out = []
    for a, b in windows:
        sel = (grid >= a) & (grid <= b)
        if np.count_nonzero(sel) < 8:
            continue
        A = np.column_stack([
            np.concatenate([ref.col_cos[0][sel], ref.col_cos[1][sel]]),
            np.concatenate([ref.col_sin[0][sel], ref.col_sin[1][sel]])])
        rhs = np.concatenate([traj.u1[sel], traj.u2[sel]])
        norm, residual = float(np.linalg.norm(rhs)), 0.0
        if norm != 0.0:
            coef, _, _, sv = np.linalg.lstsq(A, rhs, rcond=None)
            if sv[0] <= 0.0 or sv[0] / max(sv[-1], 1e-300) > 1e12:
                continue
            residual = float(np.linalg.norm(rhs - A @ coef) / norm)
        out.append({"window": (float(a), float(b)),
                    "center": float(math.sqrt(a * b)), "residual": residual})
    return out


def borderline_trajectory(model: CoefficientModel, k: int, lam: float,
                          cfg: SolveConfig) -> Trajectory:
    """Solve the borderline channel for lam < 0 through the rescaled polar
    form and map back to the original components; the angles of the
    rescaled channel (`theta`, `accepted_theta`) are not carried over."""
    tch = transform(model, k, lam)
    vtraj = integrate_pruefer(tch, 1.0, 0.0, cfg)
    u1, u2 = tch.inverse(vtraj.grid, vtraj.u1, vtraj.u2)
    return replace(vtraj, u1=u1, u2=u2, rho=np.hypot(u1, u2), theta=None,
                   accepted_theta=None, mode="transformed",
                   channel=assemble_channel(model, k, lam), log_rho=None)


def second_order_check(traj: Trajectory, model: CoefficientModel, k: int,
                       lam: float) -> dict:
    """Scaled defect of -u1'' + 2 lambda q u1 + k(k+1)/r^2 u1 - lambda^2 u1
    with u1'' by centered differences; the defect vanishes at second order
    in the stride."""
    require_equal(model, "second_order_check")
    d = np.diff(traj.grid)
    h = float(d[0])
    if not np.allclose(d, h, rtol=1e-8):
        raise ValueError("defect measures need a uniform grid stride")
    r = traj.grid[1:-1]
    u1 = traj.u1
    d2 = (u1[2:] - 2.0 * u1[1:-1] + u1[:-2]) / h ** 2
    q = model.q.value(r)
    mid = u1[1:-1]
    defect = -d2 + 2.0 * lam * q * mid + k * (k + 1) / r ** 2 * mid \
        - lam ** 2 * mid
    scale = float(np.max(np.abs(lam ** 2 * mid) + np.abs(2.0 * lam * q * mid)))
    if scale == 0.0:
        return {"max_defect": 0.0, "stride": h}
    return {"max_defect": float(np.max(np.abs(defect)) / scale), "stride": h}


def defect_window(cfg: SolveConfig) -> tuple:
    """The range [max(r_start, 10), min(r_end, 50)] of `defect_convergence`
    on an `asymptotics` config, refused below two coarsest strides."""
    lo, hi = max(cfg.r_start, 10.0), min(cfg.r_end, 50.0)
    if hi - lo < 2.0 * DEFECT_STRIDES[0]:
        raise ValueError(f"the defect window [{lo:g}, {hi:g}] is shorter "
                         f"than two strides of {DEFECT_STRIDES[0]:g}")
    return lo, hi


def defect_convergence(model: CoefficientModel, k: int, lam: float,
                       r_lo: float, r_hi: float) -> dict:
    """Second-order defect at the nested strides `DEFECT_STRIDES`, read off
    one solve: the window's n = round((r_hi - r_lo) / 0.04) intervals cut in
    four, read at every 4th, 2nd and 1st node.  The observed convergence
    orders should sit near 2."""
    cuts = [round(h / DEFECT_STRIDES[-1]) for h in DEFECT_STRIDES]
    n = round((r_hi - r_lo) / DEFECT_STRIDES[0])
    traj = borderline_trajectory(model, k, lam, SolveConfig(
        r_lo, r_hi, RESCALED_RTOL, stride=(r_hi - r_lo) / (n * cuts[0])))
    defects = [second_order_check(replace(traj, grid=traj.grid[::c],
                                          u1=traj.u1[::c]),
                                  model, k, lam)["max_defect"] for c in cuts]
    return {"strides": list(DEFECT_STRIDES), "defects": defects,
            "orders": [math.log2(a / b) for a, b in zip(defects, defects[1:])]}
