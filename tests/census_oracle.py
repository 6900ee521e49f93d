"""The sampled phase census: the oracle that `subordinacy.phase_band` is
checked against.

A solution of the rescaled channel (`subordinacy.transform`, m == q and
lambda < 0) is solved in polar form, and its angle is read against the
bands [-3pi/4, -pi/4] + n pi (J) and [-pi/4, pi/4] + n pi (K) in the
integrated-coefficient variable s = int Q dr: the s-length of each band,
interpolated linearly on the output grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from diracspec.solver import (
    PreconditionError,
    SolveConfig,
    cumulative_integral,
    integrate_pruefer,
)
from diracspec.subordinacy import transform


@dataclass(frozen=True)
class Census:
    ns: list
    J_lengths: list
    K_lengths: list
    violations: list  # lengths outside [pi/3, pi], less 1.5 s-steps of slack
    s_offset: float   # s at the first band edge


def census_from_phase(s, theta) -> Census:
    """Interval census of an increasing phase theta(s)."""
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
    slack = 1.5 * float(np.max(np.diff(s)))
    violations = [{"n": n, "interval": name, "length": val}
                  for n, J, K in zip(ns, J_lengths, K_lengths)
                  for name, val in (("J", J), ("K", K))
                  if not math.pi / 3.0 - slack <= val <= math.pi + slack]
    return Census(ns=ns, J_lengths=J_lengths, K_lengths=K_lengths,
                  violations=violations,
                  s_offset=float(sj[0]) if ns else 0.0)


def s_variable(channel, grid):
    """s = int Q dr from grid[0] to each node of `grid`."""
    return cumulative_integral(lambda r: channel.coeffs(r)[0], grid)


def polar_census(model, k, lam, r0, r_end, *, rtol=1e-11,
                 stride=0.02) -> Census:
    """Census of the solution of the rescaled channel that starts at angle
    0 at r0, solved in polar form up to r_end."""
    tch = transform(model, k, lam)
    traj = integrate_pruefer(tch, 1.0, 0.0, SolveConfig(
        r_start=r0, r_end=r_end, rtol=rtol, stride=stride))
    assert traj.ok
    return census_from_phase(s_variable(tch, traj.grid), traj.theta)
