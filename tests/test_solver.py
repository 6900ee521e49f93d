import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracspec.asymptotics import wkb_reference
from diracspec.coefficients import (
    ChannelBatch,
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    coefficient,
    constant,
    power,
)
from diracspec.solver import (
    PreconditionError,
    SolveConfig,
    Trajectory,
    _running,
    _Solve,
    cumulative_integral,
    cumulative_norms,
    frobenius_init,
    frobenius_radius,
    integrate_cartesian,
    integrate_fundamental,
    integrate_pruefer,
    phase_derivative,
    prefer_pruefer,
    propagate,
    s_reparam,
    wronskian,
)
from diracspec.subordinacy import theta_census, transform

CONST = ConstantChannel(2.0, 1.0, 0.0)
ROTATION = ConstantChannel(1.0, 0.0, 0.0)
LINEAR = assemble_channel(CoefficientModel(q=power(1, 1), m=constant(1)), 1, 0.0)
EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))
# A = [[0, 1], [1, 0]]: the direction (1, 1) grows like e^r
HYPERBOLIC = ConstantChannel(0.0, 1.0, 0.0)


def cfg(r0, r1, **kw):
    return SolveConfig(r_start=r0, r_end=r1, **kw)


class TestCartesian:
    def test_constant_coefficients_closed_form(self):
        c = cfg(0.5, 0.5 + 2 * np.pi)
        traj = integrate_cartesian(CONST, [1.0, 0.0], c)
        t = traj.grid - c.r_start
        root3 = math.sqrt(3.0)
        assert np.max(np.abs(traj.u1 - np.cos(root3 * t))) < 1e-8
        assert np.max(np.abs(traj.u2 - root3 * np.sin(root3 * t))) < 1e-8
        # half-turn lands on (-1, 0)
        idx = np.argmin(np.abs(t - np.pi / root3))
        u_half = propagate(CONST, [1.0, 0.0], c.r_start,
                           c.r_start + np.pi / root3, rtol=1e-12)
        assert np.hypot(u_half[0] + 1.0, u_half[1]) < 1e-8
        assert abs(traj.u1[idx]) > 0.99

    def test_pure_rotation_preserves_norm(self):
        traj = integrate_cartesian(ROTATION, [1.0, 0.0], cfg(1.0, 50.0))
        assert np.max(np.abs(traj.rho - 1.0)) < 1e-9

    def test_bounded_solution_with_tight_oracle(self):
        c = cfg(1.0, 200.0, rtol=1e-9, atol=1e-12)
        traj = integrate_cartesian(LINEAR, [1.0, 0.0], c)
        sup = float(np.max(traj.rho))
        assert np.isfinite(sup)
        tight = integrate_cartesian(
            LINEAR, [1.0, 0.0], cfg(1.0, 200.0, rtol=1e-11, atol=1e-14))
        assert sup == pytest.approx(float(np.max(tight.rho)), rel=1e-6)

    def test_zero_initial_data_rejected(self):
        with pytest.raises(ValueError):
            integrate_cartesian(CONST, [0.0, 0.0], cfg(1.0, 2.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", ["integrate_cartesian",
                                       "integrate_pruefer",
                                       "integrate_fundamental", "propagate"])
    def test_coefficient_blowup_gives_partial_trajectory(self, entry):
        model = CoefficientModel(q=coefficient("exp", c=1.0, a=1.0),
                                 m=constant(1))
        ch = assemble_channel(model, 1, 0.0)
        if entry == "propagate":
            with pytest.raises(PreconditionError, match="700 to 720 failed"):
                propagate(ch, [1.0, 0.0], 700.0, 720.0)
            return
        if entry == "integrate_cartesian":
            trajs = [integrate_cartesian(ch, [1.0, 0.0], cfg(700.0, 720.0))]
        elif entry == "integrate_pruefer":
            trajs = [integrate_pruefer(ch, 1.0, 0.0, cfg(700.0, 720.0))]
            assert len(trajs[0].accepted_r) == len(trajs[0].accepted_theta)
        else:
            trajs = integrate_fundamental(ch, cfg(700.0, 720.0))
            assert len(trajs) == 2
            assert np.array_equal(trajs[0].grid, trajs[1].grid)
        for traj in trajs:
            assert traj.status != 0
            assert traj.grid[-1] < 720.0
            assert len(traj.u1) == len(traj.u2) == len(traj.grid)

    def test_linearity(self):
        c = cfg(1.0, 40.0)
        base = integrate_cartesian(LINEAR, [0.3, -0.7], c)
        scaled = integrate_cartesian(LINEAR, [3.0, -7.0], c)
        assert np.max(np.abs(scaled.u1 - 10 * base.u1)) < 1e-8 * np.max(scaled.rho)
        assert np.max(np.abs(scaled.u2 - 10 * base.u2)) < 1e-8 * np.max(scaled.rho)


def dop853_fundamental(channel, grid):
    """Reference fundamental matrices Phi(r, grid[0]) on the grid, shape
    (2, 2, n), from DOP853 at rtol 1e-13."""
    def rhs(r, y):
        Q, M, L, _ = channel.coeffs(r)
        return (np.array([[-L, M - Q], [Q + M, L]]) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (grid[0], grid[-1]), np.eye(2).ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=grid)
    assert sol.status == 0
    return sol.y.reshape(2, 2, -1)


class TestMagnus:
    @pytest.mark.parametrize("max_step", [math.inf, 0.02])
    def test_matches_dop853_oracle(self, max_step):
        ta, tb = integrate_fundamental(LINEAR, cfg(1.0, 60.0,
                                                   max_step=max_step))
        ref = dop853_fundamental(LINEAR, ta.grid)
        got = np.array([[ta.u1, tb.u1], [ta.u2, tb.u2]])
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_unit_determinant(self):
        ta, tb = integrate_fundamental(LINEAR, cfg(1.0, 200.0))
        assert np.max(np.abs(wronskian(ta, tb) - 1.0)) <= 1e-12

    def test_there_and_back(self):
        # a backward solve multiplies its steps in reverse order; taking
        # them in forward order would not return to u0
        u0 = np.array([0.3, -0.7])
        u1 = propagate(LINEAR, u0, 1.0, 30.0)
        assert np.max(np.abs(propagate(LINEAR, u1, 30.0, 1.0) - u0)) <= 1e-10

    def test_no_scalar_coefficient_calls(self, monkeypatch):
        calls = []
        scalar_qml = type(LINEAR).scalar_qml

        def counting(self, r):
            calls.append(r)
            return scalar_qml(self, r)

        monkeypatch.setattr(type(LINEAR), "scalar_qml", counting)
        ta, _ = integrate_fundamental(LINEAR, cfg(1.0, 20.0))
        assert ta.ok and ta.nfev > 0
        assert calls == []

    @pytest.mark.parametrize("stride", [20.0, 40.0])
    def test_overflowing_trial_step_is_refined(self, stride):
        # a first trial step this long overflows cosh in the closed-form
        # exponential; it has to be halved, not end the solve
        ref, _ = integrate_fundamental(LINEAR, cfg(1.0, 201.0))
        ta, _ = integrate_fundamental(LINEAR, cfg(1.0, 201.0, stride=stride))
        assert ta.ok and ta.grid[-1] == 201.0
        at = np.searchsorted(ref.grid, ta.grid - 1e-9)
        assert np.max(np.abs(ta.u1 - ref.u1[at])) <= \
            1e-10 * np.max(np.abs(ref.u1))
        traj = integrate_pruefer(LINEAR, 1.0, 0.0,
                                 cfg(1.0, 201.0, stride=stride))
        assert traj.ok and traj.grid[-1] == 201.0

    def test_propagate_refines_overflowing_piece(self):
        # the last geometric piece of [1, 200] is 57 long
        u0 = np.array([1.0, 0.0])
        u1 = propagate(LINEAR, u0, 1.0, 200.0)
        assert np.max(np.abs(propagate(LINEAR, u1, 200.0, 1.0) - u0)) <= 1e-10


class TestBatch:
    def test_batch_matches_single_calls(self):
        # Phi of every lambda: the batch carries each unit vector once
        lams = np.array([0.5, 1.7, 2.9, 4.1])
        n = lams.size
        U = propagate(ChannelBatch(EQUAL, 1, np.tile(lams, 2)),
                      np.repeat(np.eye(2), n, axis=0), 0.5, 3.0)
        phi = np.stack((U[:n], U[n:]), axis=2)
        single = np.array([[propagate(assemble_channel(EQUAL, 1, lam), e,
                                      0.5, 3.0) for e in np.eye(2)]
                           for lam in lams]).transpose(0, 2, 1)
        assert np.max(np.abs(phi - single) / np.abs(single).max()) <= 1e-13
        det = np.linalg.det(phi)
        assert np.all(np.abs(det - 1.0) <=
                      1e-14 * np.max(np.abs(phi), axis=(1, 2)) ** 2)

    def test_own_range_and_direction_per_channel(self):
        lams = np.array([0.5, 2.0, 3.5])
        r0, r1 = np.array([0.5, 6.0, 1.0]), np.array([3.0, 1.5, 1.2])
        u0 = np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 1.0]])
        got = propagate(ChannelBatch(EQUAL, -1, lams), u0, r0, r1)
        assert got.shape == (3, 2)
        for lam, a, b, u, g in zip(lams, r0, r1, u0, got):
            one = propagate(assemble_channel(EQUAL, -1, lam), u, a, b)
            assert np.max(np.abs(g - one)) <= 1e-13 * np.max(np.abs(one))

    @pytest.mark.parametrize("max_step", [math.inf, 0.02])
    def test_running_product_matches_sequential_product(self, max_step):
        # reference: the kept steps multiplied one at a time in travel order
        solve = _Solve(LINEAR, cfg(1.0, 60.0).grid(), 1e-12, max_step)
        grid = solve.nodes[0]
        now, ref = np.eye(2), [np.eye(2)]
        for P, end in zip(solve.P.T, solve.end):
            now = P.reshape(2, 2) @ now
            if end:
                ref.append(now)
        phi, reached, _ = solve.transfer()
        ref = np.array(ref)
        assert reached[0] == len(ref) == grid.size
        scale = np.max(np.abs(ref), axis=(1, 2))
        assert np.all(np.max(np.abs(phi[0] - ref), axis=(1, 2))
                      <= 1e-13 * scale)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_channel_is_named(self):
        # q = e^r blows up on [700, 720] only; the other channel is fine
        model = CoefficientModel(q=coefficient("exp", c=1.0, a=1.0),
                                 m=constant(1))
        batch = ChannelBatch(model, 1, [0.5, 2.0])
        with pytest.raises(PreconditionError,
                           match=r"of k=1,lambda=2 from 700 to 720 failed"):
            propagate(batch, np.eye(2), [1.0, 700.0], [2.0, 720.0])


def exp_of(x):
    """The power of two that scales the largest entry of x into [1/2, 1)."""
    return int(np.frexp(np.max(np.abs(x)))[1])


class TestRunning:
    def test_products_stay_inside_their_runs(self):
        # runs of 1, 7, 2 and 40 matrices of size ~1e30: the longest run's
        # product is far past the float range
        rng = np.random.default_rng(3)
        sizes = [1, 7, 2, 40]
        X = 1e30 * rng.standard_normal((4, sum(sizes)))
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        R, e = _running(X, first)
        for i, j in enumerate(first):
            now, exp = np.eye(2), 0
            for x in X[:, j:i + 1].T:
                now = x.reshape(2, 2) @ now
                k = exp_of(now)
                now, exp = np.ldexp(now, -k), exp + k
            got = np.ldexp(R[:, i], e[i] - exp).reshape(2, 2)
            assert np.max(np.abs(got - now)) <= 1e-13 * np.max(np.abs(now))

    def test_products_scale_past_the_float_range(self):
        # diag(2^300, 2^-300) forty times: the last product is 2^12000
        X = np.tile([[2.0 ** 300], [0.0], [0.0], [2.0 ** -300]], 40)
        R, e = _running(X, 0)
        assert np.all(np.abs(R[:, 1:]) < 1.0)
        assert np.array_equal(np.log2(R[0]) + e, 300.0 * np.arange(1, 41))

    def test_products_of_a_conjugated_rotation(self):
        # S rot(t) S^-1 taken 20000 times: every product has norm about
        # 2^16, while the norms of the two halves of a product multiply to
        # 2^32, so unscaled products would underflow
        S, t, n = np.diag([256.0, 1.0 / 256.0]), 0.01, np.arange(1, 20001)
        rot = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        X = np.tile((S @ rot @ np.linalg.inv(S)).reshape(4, 1), n.size)
        R, e = _running(X, 0)
        exact = np.array([np.cos(n * t), -2.0 ** 16 * np.sin(n * t),
                          np.sin(n * t) / 2.0 ** 16, np.cos(n * t)])
        assert np.max(np.abs(np.ldexp(R, e) - exact)) <= 1e-12 * 2.0 ** 16


def sequential_norms(channel, U0, nodes, rtol):
    """Reference `cumulative_norms`: the states carried through the steps of
    the solve one at a time, each past its first half and to its end, and
    Simpson's rule on |u|^2 over each step."""
    solve = _Solve(channel, nodes, rtol)
    h = np.diff(np.append(solve.t, nodes[-1]))
    U = np.asarray(U0, dtype=float)
    f = [np.sum(U * U, axis=0)]
    for half, P in zip(solve.half.T, solve.P.T):
        mid = half.reshape(2, 2) @ U
        U = P.reshape(2, 2) @ U
        f += [np.sum(mid * mid, axis=0), np.sum(U * U, axis=0)]
    f = np.array(f).T
    return np.cumsum(h / 6.0 * (f[:, :-1:2] + 4.0 * f[:, 1::2] + f[:, 2::2]),
                     axis=1)[:, solve.end]


class TestCumulativeNorms:
    @pytest.mark.parametrize("channel", [
        LINEAR, assemble_channel(EQUAL, 1, -1.0),
        assemble_channel(EQUAL, -1, 2.0)])
    def test_matches_sequential_carry(self, channel):
        U0 = np.array([[0.3, 2.0], [-0.7, 0.5]])
        nodes = np.geomspace(1.0, 30.0, 15)
        I = cumulative_norms(channel, U0, nodes, 1e-10)
        ref = sequential_norms(channel, U0, nodes, 1e-10)
        assert np.all(np.abs(I - ref) <= 1e-12 * ref)

    def test_rotation_closed_form(self):
        # |u| is constant under a pure rotation, so I = |u0|^2 (r - r0)
        U0 = np.array([[0.3, 2.0], [-0.7, 0.5]])
        nodes = np.geomspace(1.0, 80.0, 12)
        I = cumulative_norms(ROTATION, U0, nodes, 1e-10)
        exact = np.sum(U0 ** 2, axis=0)[:, None] * (nodes[1:] - nodes[0])
        assert I.shape == (2, 11)
        assert np.max(np.abs(I / exact - 1.0)) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_solve_raises(self):
        model = CoefficientModel(q=coefficient("exp", c=1.0, a=1.0),
                                 m=constant(1))
        ch = assemble_channel(model, 1, 0.0)
        with pytest.raises(PreconditionError, match="cumulative norms"):
            cumulative_norms(ch, np.eye(2), np.array([700.0, 720.0]), 1e-10)


def dop853_polar(channel, rho0, theta0, grid):
    """Reference (theta, ln rho) on the grid from DOP853 on the polar
    equations at rtol 1e-13."""
    def rhs(r, y):
        Q, M, L, _ = channel.coeffs(r)
        s2, c2 = math.sin(2.0 * y[0]), math.cos(2.0 * y[0])
        return [Q + M * c2 + L * s2, M * s2 - L * c2]

    sol = solve_ivp(rhs, (grid[0], grid[-1]), [theta0, math.log(rho0)],
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=grid)
    assert sol.status == 0
    return sol.y


def sequential_pruefer(channel, rho0, theta0, c):
    """Reference `integrate_pruefer` (theta, ln rho) on the grid: a unit
    vector carried through the steps of the solve one at a time, each past
    its first half and to its end, renormalized after each step, ln rho
    summing the logs of the norms."""
    solve = _Solve(channel, c.grid(), c.rtol, c.max_step)
    v = np.array([math.cos(theta0), math.sin(theta0)])
    states, norms = [v], [1.0]
    for half, P in zip(solve.half.T, solve.P.T):
        mid = half.reshape(2, 2) @ v
        v = P.reshape(2, 2) @ v
        norms.append(math.hypot(*v))
        v = v / norms[-1]
        states += [mid, v]
    x, y = np.array(states).T
    gain = np.arctan2(x[:-1] * y[1:] - y[:-1] * x[1:],
                      x[:-1] * x[1:] + y[:-1] * y[1:])
    gain += 2.0 * np.pi * np.rint((np.pi * solve.turns.T.ravel() - gain)
                                  / (2.0 * np.pi))
    at = np.flatnonzero(np.append(True, solve.end))
    theta = theta0 + np.append(0.0, np.cumsum(gain))[::2]
    log_rho = math.log(rho0) + np.cumsum(np.log(norms))
    return theta[at], log_rho[at]


class TestPruefer:
    @pytest.mark.parametrize("channel,r1", [
        (LINEAR, 60.0), (assemble_channel(EQUAL, 1, -1.0), 60.0),
        (assemble_channel(EQUAL, -1, 2.0), 12.0)])
    def test_matches_sequential_carry(self, channel, r1):
        c = cfg(1.0, r1)
        traj = integrate_pruefer(channel, 2.0, 0.3, c)
        theta, log_rho = sequential_pruefer(channel, 2.0, 0.3, c)
        assert traj.ok
        for got, ref in ((traj.theta, theta), (traj.log_rho, log_rho)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_dop853_oracle_when_stride_turns_past_pi(self):
        traj = integrate_pruefer(LINEAR, 1.0, 0.1, cfg(40.0, 90.0))
        assert traj.ok and traj.grid[-1] == 90.0
        assert np.max(np.diff(traj.theta)) > np.pi
        theta, lnrho = dop853_polar(LINEAR, 1.0, 0.1, traj.grid)
        assert np.max(np.abs(traj.theta - theta)) <= 1e-8
        assert np.max(np.abs(traj.rho / np.exp(lnrho) - 1.0)) <= 1e-8

    def test_whole_turns_within_one_step(self):
        # Magnus is exact on constant coefficients, so a stride of 5 is one
        # accepted step whose halves each turn by more than pi: only the
        # half-turn count can place the phase
        c = cfg(1.0, 61.0, stride=5.0)
        traj = integrate_pruefer(CONST, 1.0, 0.0, c)
        assert traj.accepted_r.size == traj.grid.size
        assert np.min(np.diff(traj.theta)) > 2.0 * np.pi
        t = np.linspace(0.0, 60.0, 6001)
        root3 = math.sqrt(3.0)
        exact = np.unwrap(np.arctan2(root3 * np.sin(root3 * t),
                                     np.cos(root3 * t)))[::500]
        assert np.max(np.abs(traj.theta - exact)) <= 1e-10

    def test_no_scalar_coefficient_calls(self, monkeypatch):
        calls = []
        scalar_qml = type(LINEAR).scalar_qml

        def counting(self, r):
            calls.append(r)
            return scalar_qml(self, r)

        monkeypatch.setattr(type(LINEAR), "scalar_qml", counting)
        traj = integrate_pruefer(LINEAR, 1.0, 0.0, cfg(1.0, 20.0))
        assert traj.ok and traj.nfev > 0
        assert calls == []

    def test_growth_past_float_range_keeps_log_rho(self):
        c = cfg(1.0, 760.0)
        traj = integrate_pruefer(HYPERBOLIC, 1.0, math.pi / 4, c)
        assert traj.ok
        assert np.all(np.isfinite(traj.log_rho)) and traj.log_rho[-1] > 709.0
        assert np.max(np.abs(traj.log_rho - (traj.grid - 1.0))) <= 1e-9
        assert np.max(np.abs(traj.theta - math.pi / 4)) <= 1e-12

    def test_census_matches_dop853_oracle(self):
        tch = transform(EQUAL, 1, -1.0)
        c = cfg(1.0, 33.0, rtol=1e-11, atol=1e-13, stride=0.02)
        traj = s_reparam(tch, integrate_pruefer(tch, 1.0, 0.0, c))
        theta, _ = dop853_polar(tch, 1.0, 0.0, traj.grid)
        got = theta_census(traj)
        ref = theta_census(Trajectory(
            grid=traj.grid, u1=traj.u1, u2=traj.u2, rho=traj.rho, theta=theta,
            mode="pruefer", channel=tch, s=traj.s))
        assert got.ns == ref.ns
        assert got.violations == ref.violations
        assert np.allclose(got.J_lengths + got.K_lengths,
                           ref.J_lengths + ref.K_lengths, rtol=0.0, atol=1e-9)

    def test_uniform_rotation_phase(self):
        # the long range takes 1.2e5 half steps, whose angle gains would
        # drift by 6.5e-9 in their sum were theta not set on its state angle
        for c, tol in ((cfg(1.0, 30.0), 1e-10),
                       (cfg(1.0, 3000.0, max_step=0.05, stride=0.5), 4e-12)):
            traj = integrate_pruefer(ROTATION, 2.5, 0.3, c)
            assert np.max(np.abs(traj.theta - (0.3 + traj.grid - 1.0))) <= tol
            assert np.max(np.abs(traj.rho - 2.5)) < 1e-10

    @pytest.mark.parametrize("channel", [LINEAR,
                                         assemble_channel(EQUAL, 1, -1.0)])
    def test_states_match_fundamental_solve(self, channel):
        # two readers of the same solve: the polar states at the nodes and
        # Phi applied to the unit vector at theta0
        c = cfg(1.0, 60.0, rtol=1e-12)
        traj = integrate_pruefer(channel, 1.0, 0.3, c)
        ta, tb = integrate_fundamental(channel, c)
        u = np.array([ta.u1, ta.u2]) * math.cos(0.3) + \
            np.array([tb.u1, tb.u2]) * math.sin(0.3)
        assert traj.ok and np.array_equal(traj.grid, ta.grid)
        err = np.hypot(traj.u1 - u[0], traj.u2 - u[1])
        assert np.all(err <= 1e-12 * np.hypot(*u))

    def test_phase_derivative_envelope_constant(self):
        traj = integrate_pruefer(CONST, 1.0, 0.0, cfg(1.0, 60.0))
        dtheta = phase_derivative(CONST, traj.accepted_r, traj.accepted_theta)
        assert np.all(dtheta >= 1.0 - 1e-12)
        assert np.all(dtheta <= 3.0 + 1e-12)

    def test_envelope_on_angular_channel(self):
        traj = integrate_pruefer(LINEAR, 1.0, 0.1, cfg(1.0, 80.0))
        Q, _, _, W = LINEAR.coeffs(traj.accepted_r)
        dtheta = phase_derivative(LINEAR, traj.accepted_r, traj.accepted_theta)
        assert np.all(dtheta >= Q - W - 1e-10)
        assert np.all(dtheta <= Q + W + 1e-10)

    def test_reconstruction_identity(self):
        traj = integrate_pruefer(CONST, 1.0, 0.0, cfg(1.0, 20.0))
        assert np.max(np.abs(traj.u1 - traj.rho * np.cos(traj.theta))) == 0.0
        assert np.allclose(traj.u1 ** 2 + traj.u2 ** 2, traj.rho ** 2, rtol=1e-12)

    def test_theta_continuous(self):
        traj = integrate_pruefer(LINEAR, 1.0, 0.0, cfg(1.0, 40.0, stride=0.01))
        Q, _, _, W = LINEAR.coeffs(traj.grid)
        max_rate = np.max(Q + W)
        assert np.max(np.abs(np.diff(traj.theta))) <= 0.011 * max_rate

    def test_invalid_rho0(self):
        with pytest.raises(ValueError):
            integrate_pruefer(CONST, 0.0, 0.0, cfg(1.0, 2.0))

    def test_cross_representation_agreement(self):
        # moderately oscillatory channel, both representations from the same
        # initial data
        c = cfg(1.0, 60.0, rtol=1e-11, atol=1e-13)
        cart = integrate_cartesian(LINEAR, [1.0, 1.0], c)
        prue = integrate_pruefer(LINEAR, math.sqrt(2.0), math.pi / 4, c)
        assert np.max(np.abs(prue.rho - cart.rho) / cart.rho) < 1e-6


class TestWronskian:
    def test_rotated_pair_gives_initial_norm(self):
        c = cfg(1.0, 30.0)
        u0 = np.array([0.6, -0.8])
        z0 = np.array([0.8, 0.6])  # (-u2, u1)
        ta, tb = integrate_fundamental(LINEAR, c, U0=np.column_stack([u0, z0]))
        w = wronskian(ta, tb)
        assert np.max(np.abs(w - 1.0)) < 1e-9  # |u0|^2 = 1

    def test_identical_solutions(self):
        traj = integrate_cartesian(LINEAR, [1.0, 0.0], cfg(1.0, 10.0))
        assert np.max(np.abs(wronskian(traj, traj))) == 0.0

    def test_drift_small_at_defaults(self):
        ch = assemble_channel(CoefficientModel(q=power(1, 1), m=constant(1)),
                              1, 1.0)
        ta, tb = integrate_fundamental(ch, cfg(1.0, 61.0))
        w = wronskian(ta, tb)
        assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-8

    def test_mismatched_grids_rejected(self):
        t1 = integrate_cartesian(LINEAR, [1.0, 0.0], cfg(1.0, 10.0))
        t2 = integrate_cartesian(LINEAR, [1.0, 0.0], cfg(1.0, 11.0))
        with pytest.raises(ValueError):
            wronskian(t1, t2)


class TestFrobenius:
    @pytest.mark.parametrize("k,lam", [(1, 0.0), (-2, 0.0), (2, 1.0)])
    def test_backward_decay_exponent(self, k, lam):
        ch = assemble_channel(EQUAL, k, lam)
        init = frobenius_radius(ch, r_init=1e-3)
        # continue toward the origin and fit the decay power on a dyadic
        # ladder; the recessive branch decays like r^|k| backward
        radii = init.r0 * 0.5 ** np.arange(0, 3)
        norms = [1.0]
        u = init.u0.copy()
        for ra, rb in zip(radii[:-1], radii[1:]):
            u = propagate(ch, u, ra, rb, rtol=1e-12)
            norms.append(float(np.hypot(u[0], u[1])))
        slopes = np.diff(np.log(norms)) / np.diff(np.log(radii))
        assert np.all(np.abs(slopes - abs(k)) < 0.05 * abs(k))

    def test_dominance_guard(self):
        ch = assemble_channel(EQUAL, 1, 5.0)
        with pytest.raises(PreconditionError) as err:
            frobenius_init(ch, 1e-2)
        assert err.value.suggestion < 1e-2
        init = frobenius_init(ch, err.value.suggestion * 0.9)
        assert init.dominance >= 1e3

    def test_constant_channel_rejected(self):
        with pytest.raises(TypeError):
            frobenius_init(CONST, 1e-3)


class TestSReparam:
    def test_unit_coefficient(self):
        traj = integrate_pruefer(ROTATION, 1.0, 0.0, cfg(1.0, 10.0))
        traj = s_reparam(ROTATION, traj)
        assert np.max(np.abs(traj.s - (traj.grid - 1.0))) < 1e-12

    def test_closed_form_square_root(self):
        ch = ConstantChannel(1.0, 0.0, 0.0)

        class SqrtChannel:
            def coeffs(self, r):
                Q = np.sqrt(2.0 * r + 1.0)
                z = r * 0.0
                return Q, z, z, z

            def scalar_qml(self, r):
                return math.sqrt(2.0 * r + 1.0), 0.0, 0.0

        sch = SqrtChannel()
        traj = integrate_pruefer(sch, 1.0, 0.0, cfg(1.0, 50.0, stride=0.01))
        traj = s_reparam(sch, traj)
        expected = ((2 * traj.grid + 1.0) ** 1.5 - 3.0 ** 1.5) / 3.0
        assert np.max(np.abs(traj.s - expected) / (1.0 + expected)) < 1e-7

    def test_derivative_recovers_coefficient(self):
        traj = integrate_pruefer(LINEAR, 1.0, 0.0, cfg(2.0, 40.0, stride=0.01))
        traj = s_reparam(LINEAR, traj)
        ds = np.gradient(traj.s, traj.grid)
        Q = LINEAR.coeffs(traj.grid)[0]
        interior = slice(1, -1)
        assert np.max(np.abs(ds[interior] - Q[interior])) < 1e-6 * np.max(Q)

    def test_nonpositive_coefficient_rejected(self):
        ch = assemble_channel(CoefficientModel(q=power(1, 1), m=constant(1)),
                              1, 5.0)
        traj = integrate_cartesian(ch, [1.0, 0.0], cfg(1.0, 10.0))
        with pytest.raises(PreconditionError):
            s_reparam(ch, traj)


class TestCumulativeIntegral:
    """One Simpson rule serves s_reparam and the WKB phase; for q = c r the
    phase integral has the closed form
    int sqrt(lam^2 - 2 lam c x) dx = (lam^2 - 2 lam c x)^(3/2) / (-3 lam c)."""

    C, LAM, R0, R1 = 0.8, -1.7, 1.25, 40.0

    def exact(self, r):
        c, lam = self.C, self.LAM
        F = (lam ** 2 - 2.0 * lam * c * r) ** 1.5 / (-3.0 * lam * c)
        return F - F[0]

    def test_exact_on_a_cubic(self):
        grid = np.sort(np.random.default_rng(12).uniform(0.5, 9.0, 300))
        got = cumulative_integral(
            lambda r: 2.0 * r ** 3 - r ** 2 + 3.0 * r - 1.0, grid)
        F = 0.5 * grid ** 4 - grid ** 3 / 3.0 + 1.5 * grid ** 2 - grid
        assert got[0] == 0.0
        assert np.max(np.abs(got - (F - F[0]))) < 1e-13 * np.max(np.abs(F))

    def test_wkb_phase_and_s_agree_with_closed_form(self):
        model = CoefficientModel(q=power(self.C, 1), m=power(self.C, 1))
        tch = transform(model, 1, self.LAM)
        traj = integrate_pruefer(tch, 1.0, 0.0, cfg(self.R0, self.R1))
        s = s_reparam(tch, traj).s
        phase = wkb_reference(model, self.LAM, traj.grid).phase
        exact = self.exact(traj.grid)
        for got in (s, phase):
            assert got[0] == 0.0
            assert np.max(np.abs(got[1:] / exact[1:] - 1.0)) < 1e-10
        assert np.max(np.abs(s[1:] / phase[1:] - 1.0)) < 1e-13


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SolveConfig(r_start=2.0, r_end=1.0)
        with pytest.raises(ValueError):
            SolveConfig(r_start=1.0, r_end=2.0, rtol=2.0)

    @pytest.mark.parametrize("bad", [
        {"r_start": 0.0}, {"r_start": -1.0}, {"max_step": 0.0},
        {"max_step": -1.0}, {"max_step": math.nan}, {"stride": math.nan}])
    def test_range_and_step_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            SolveConfig(**{"r_start": 1.0, "r_end": 2.0, **bad})

    def test_representation_heuristic(self):
        assert prefer_pruefer(LINEAR, 50.0, 200.0)
        assert not prefer_pruefer(LINEAR, 0.1, 1.0)
