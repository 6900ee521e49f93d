import math

import numpy as np
import pytest

from diracspec import asymptotics
from diracspec.asymptotics import (
    borderline_trajectory,
    compare_asymptotics,
    defect_convergence,
    second_order_check,
    wkb_reference,
)
from diracspec.coefficients import (
    CoefficientModel,
    ConstantChannel,
    constant,
    power,
)
from diracspec.solver import SolveConfig, Trajectory, integrate_cartesian

EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))


class TestReference:
    def test_closed_form_phase(self):
        grid = np.linspace(1.0, 100.0, 4000)
        ref = wkb_reference(EQUAL, -1.0, grid)
        exact = ((1.0 + 2.0 * grid) ** 1.5 - 3.0 ** 1.5) / 3.0
        assert np.max(np.abs(ref.phase - exact)) < 1e-8

    def test_amplitudes(self):
        grid = np.linspace(1.0, 10.0, 50)
        ref = wkb_reference(EQUAL, -1.0, grid)
        amp1 = np.hypot(ref.col_cos[0], ref.col_sin[0])
        amp2 = np.hypot(ref.col_cos[1], ref.col_sin[1])
        assert np.allclose(amp1, grid ** -0.25, rtol=1e-12)
        assert np.allclose(amp2, math.sqrt(2.0) * grid ** 0.25, rtol=1e-12)

    def test_constant_potential_linear_phase(self):
        model = CoefficientModel(q=constant(4), m=constant(4))
        grid = np.linspace(1.0, 20.0, 400)
        ref = wkb_reference(model, -2.0, grid)
        slope = math.sqrt(4.0 + 16.0)
        assert np.allclose(ref.phase, slope * (grid - 1.0), rtol=1e-10)

    def test_phase_strictly_increasing(self):
        grid = np.geomspace(0.5, 300.0, 777)
        ref = wkb_reference(EQUAL, -0.5, grid)
        assert np.all(np.diff(ref.phase) > 0.0)

    def test_nonnegative_lambda_rejected(self):
        with pytest.raises(ValueError):
            wkb_reference(EQUAL, 0.5, np.linspace(1, 2, 10))


class TestProjection:
    def test_constant_potential_solution_in_span(self):
        # with constant coefficients and no angular term the numeric solution
        # lies in the reference span up to the asymptotic amplitude error
        # O(lambda/q), pushed below tolerance by a tiny spectral parameter
        c, lam = 100.0, -1e-4
        ch = ConstantChannel(c - lam, c, 0.0)
        cfg = SolveConfig(r_start=1.0, r_end=200.0, rtol=1e-12)
        traj = integrate_cartesian(ch, [c ** -0.25, 0.0], cfg)
        model = CoefficientModel(q=constant(c), m=constant(c))
        ref = wkb_reference(model, lam, traj.grid)
        res = compare_asymptotics(traj, ref, windows=[(1.0, 200.0)])
        assert res[0]["residual"] < 1e-6

    def test_residual_decreases_along_radius(self):
        cfg = SolveConfig(r_start=5.0, r_end=210.0, rtol=1e-11,
                          stride=0.02)
        traj = borderline_trajectory(EQUAL, 1, -1.0, cfg)
        ref = wkb_reference(EQUAL, -1.0, traj.grid)
        res = compare_asymptotics(traj, ref, windows=[(10, 20), (100, 200)])
        assert res[1]["residual"] < res[0]["residual"]

    def test_reference_column_has_zero_residual(self):
        grid = np.linspace(2.0, 40.0, 2000)
        ref = wkb_reference(EQUAL, -1.0, grid)
        traj = Trajectory(grid=grid, u1=ref.col_cos[0], u2=ref.col_cos[1],
                          rho=np.hypot(*ref.col_cos), theta=None,
                          mode="synthetic", channel=None)
        res = compare_asymptotics(traj, ref)
        assert all(w["residual"] < 1e-12 for w in res)

    def test_rescaling_invariance(self):
        cfg = SolveConfig(r_start=5.0, r_end=60.0, rtol=1e-10)
        traj = borderline_trajectory(EQUAL, 1, -1.0, cfg)
        ref = wkb_reference(EQUAL, -1.0, traj.grid)
        res1 = compare_asymptotics(traj, ref, windows=[(10, 50)])
        scaled = Trajectory(grid=traj.grid, u1=137.0 * traj.u1,
                            u2=137.0 * traj.u2, rho=137.0 * traj.rho,
                            theta=None, mode="synthetic", channel=None)
        res2 = compare_asymptotics(scaled, ref, windows=[(10, 50)])
        assert res1[0]["residual"] == pytest.approx(res2[0]["residual"],
                                                    rel=1e-9)

    def test_grid_mismatch_rejected(self):
        grid = np.linspace(2.0, 40.0, 100)
        ref = wkb_reference(EQUAL, -1.0, grid)
        traj = Trajectory(grid=grid[:-1], u1=grid[:-1], u2=grid[:-1],
                          rho=grid[:-1], theta=None, mode="synthetic",
                          channel=None)
        with pytest.raises(ValueError):
            compare_asymptotics(traj, ref)


class TestBorderlineTrajectory:
    def test_no_angle_of_the_rescaled_channel(self):
        # the polar solve runs on the rescaled (v1, v2); its angles are not
        # those of the returned (u1, u2)
        cfg = SolveConfig(r_start=5.0, r_end=40.0, rtol=1e-11)
        traj = borderline_trajectory(EQUAL, 1, -1.0, cfg)
        assert traj.mode == "transformed"
        assert traj.theta is None and traj.accepted_theta is None


class TestDefects:
    def test_second_order_convergence(self):
        conv = defect_convergence(EQUAL, 1, -1.0, 10.0, 50.0)
        assert all(1.8 <= o <= 2.2 for o in conv["orders"])
        assert conv["defects"][0] > conv["defects"][-1]

    def test_one_solve_a_ladder(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return borderline_trajectory(*args)

        monkeypatch.setattr(asymptotics, "borderline_trajectory", spy)
        defect_convergence(EQUAL, 1, -1.0, 10.0, 50.0)
        assert len(calls) == 1

    def test_nested_grids_halve(self, monkeypatch):
        # the seed-1 borderline_spectrum window: three grids rounded on
        # their own would have 778, 1555 and 3111 intervals
        lo, hi = 13.331, 44.4367
        n = round((hi - lo) / 0.04)
        grids = []

        def spy(traj, *args):
            grids.append(traj.grid)
            return second_order_check(traj, *args)

        monkeypatch.setattr(asymptotics, "second_order_check", spy)
        conv = defect_convergence(EQUAL, 1, -1.0, lo, hi)
        assert conv["strides"] == [0.04, 0.02, 0.01]
        assert [len(g) - 1 for g in grids] == [n, 2 * n, 4 * n]
        strides = [(g[-1] - g[0]) / (len(g) - 1) for g in grids]
        for g, h in zip(grids, strides):
            assert g[0] == lo and g[-1] == hi
            assert np.allclose(np.diff(g), h, rtol=1e-12, atol=0.0)
        for coarse, fine in zip(strides, strides[1:]):
            assert fine == pytest.approx(coarse / 2.0, rel=1e-12)

    def test_zero_solution_zero_defect(self):
        grid = np.linspace(1.0, 5.0, 401)
        traj = Trajectory(grid=grid, u1=np.zeros_like(grid),
                          u2=np.zeros_like(grid), rho=np.zeros_like(grid),
                          theta=None, mode="synthetic", channel=None)
        assert second_order_check(traj, EQUAL, 1, -1.0)["max_defect"] == 0.0

    def test_nonuniform_grid_rejected(self):
        grid = np.geomspace(1.0, 5.0, 101)
        traj = Trajectory(grid=grid, u1=np.sin(grid), u2=np.cos(grid),
                          rho=np.ones_like(grid), theta=None,
                          mode="synthetic", channel=None)
        with pytest.raises(ValueError):
            second_order_check(traj, EQUAL, 1, -1.0)
