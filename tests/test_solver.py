import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracspec import solver
from diracspec.asymptotics import wkb_reference
from diracspec.coefficients import (
    ChannelBatch,
    ChannelSystem,
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
    _GAUSS,
    _magnus_exp,
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
)
from diracspec.subordinacy import transform

from census_oracle import census_from_phase, s_variable

CONST = ConstantChannel(2.0, 1.0, 0.0)
ROTATION = ConstantChannel(1.0, 0.0, 0.0)
LINEAR = assemble_channel(CoefficientModel(q=power(1, 1), m=constant(1)), 1, 0.0)
EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))
# A = [[0, 1], [1, 0]]: the direction (1, 1) grows like e^r
HYPERBOLIC = ConstantChannel(0.0, 1.0, 0.0)


def cfg(r0, r1, **kw):
    return SolveConfig(r_start=r0, r_end=r1, **kw)


def det(phi):
    """det of each 2x2 matrix of a stack (n, 2, 2)."""
    return phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 1, 0] * phi[:, 0, 1]


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
        c = cfg(1.0, 200.0, rtol=1e-9)
        traj = integrate_cartesian(LINEAR, [1.0, 0.0], c)
        sup = float(np.max(traj.rho))
        assert np.isfinite(sup)
        tight = integrate_cartesian(
            LINEAR, [1.0, 0.0], cfg(1.0, 200.0, rtol=1e-11))
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
            grid, phi, failure = integrate_fundamental(ch, cfg(700.0, 720.0))
            assert failure is not None and grid[-1] < 720.0
            assert phi.shape == (len(grid), 2, 2)
            assert np.array_equal(phi[0], np.eye(2))
            assert np.all(np.isfinite(phi))
            return
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
    @pytest.mark.parametrize("stride", [0.05, 0.02])
    def test_matches_dop853_oracle(self, stride):
        grid, phi, failure = integrate_fundamental(
            LINEAR, cfg(1.0, 60.0, stride=stride))
        assert failure is None
        ref = dop853_fundamental(LINEAR, grid)
        got = phi.transpose(1, 2, 0)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("channel", [LINEAR, CONST, HYPERBOLIC])
    def test_identity_at_start(self, channel):
        grid, phi, failure = integrate_fundamental(channel, cfg(1.0, 20.0))
        assert failure is None and grid[0] == 1.0 and grid[-1] == 20.0
        assert phi.shape == (len(grid), 2, 2)
        assert np.array_equal(phi[0], np.eye(2))

    def test_unit_determinant(self):
        _, phi, _ = integrate_fundamental(LINEAR, cfg(1.0, 200.0))
        assert np.max(np.abs(det(phi) - 1.0)) <= 1e-12

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
        _, _, failure = integrate_fundamental(LINEAR, cfg(1.0, 20.0))
        assert failure is None
        assert calls == []

    @pytest.mark.parametrize("stride", [20.0, 40.0])
    def test_overflowing_trial_step_is_refined(self, stride):
        # a first trial step this long overflows cosh in the closed-form
        # exponential; it has to be halved, not end the solve
        ref_grid, ref, _ = integrate_fundamental(LINEAR, cfg(1.0, 201.0))
        grid, phi, failure = integrate_fundamental(
            LINEAR, cfg(1.0, 201.0, stride=stride))
        assert failure is None and grid[-1] == 201.0
        at = np.searchsorted(ref_grid, grid - 1e-9)
        assert np.max(np.abs(phi[:, 0, 0] - ref[at, 0, 0])) <= \
            1e-10 * np.max(np.abs(ref[:, 0, 0]))
        traj = integrate_pruefer(LINEAR, 1.0, 0.0,
                                 cfg(1.0, 201.0, stride=stride))
        assert traj.ok and traj.grid[-1] == 201.0

    def test_crowded_channel_keeps_what_it_reached(self, monkeypatch):
        # a channel with more open steps than `_MAX_OPEN` in a round ends
        # at the node before its first step not yet kept, with the Phi of
        # the unlimited solve up to there, bit for bit
        grid, phi, failure = integrate_fundamental(LINEAR, cfg(1.0, 60.0))
        monkeypatch.setattr(solver, "_MAX_OPEN", 3000)
        short, phi2, failure2 = integrate_fundamental(LINEAR, cfg(1.0, 60.0))
        assert failure is None
        assert failure2.startswith("Magnus step failed at r = ")
        assert 1 < short.size < grid.size
        assert np.array_equal(phi2, phi[:short.size])

    def test_propagate_refines_overflowing_piece(self):
        # the last geometric piece of [1, 200] is 57 long
        u0 = np.array([1.0, 0.0])
        u1 = propagate(LINEAR, u0, 1.0, 200.0)
        assert np.max(np.abs(propagate(LINEAR, u1, 200.0, 1.0) - u0)) <= 1e-10


def one_step(channel, r0, h, n=1):
    """The product of n equal Magnus steps over [r0, r0 + h], as a 2x2
    matrix."""
    hs = h / n
    r = r0 + hs * (np.arange(n) + np.array(_GAUSS)[:, None])
    Q, M, L, _ = channel.coeffs(r)
    E = np.array(_magnus_exp(hs, -L, M - Q, Q + M)[:4])
    P = np.eye(2)
    for e in E.T:
        P = e.reshape(2, 2) @ P
    return P


class TestStep:
    def test_sixth_order(self):
        # one step against 4096 substeps: the local error is O(h^7), so
        # each halving of h divides it by about 2^7 = 128
        err = [np.max(np.abs(one_step(LINEAR, 1.0, h)
                             - one_step(LINEAR, 1.0, h, 4096)))
               for h in (0.4, 0.2, 0.1, 0.05)]
        assert all(a >= 64.0 * b for a, b in zip(err, err[1:]))

    def test_unit_determinant(self):
        # random generators at the three nodes, steps of either sign and
        # of either kind (rotating or growing)
        rng = np.random.default_rng(7)
        p, b, c = rng.standard_normal((3, 3, 1000))
        h = rng.uniform(-3.0, 3.0, 1000)
        e11, e12, e21, e22, _ = _magnus_exp(h, p, b, c)
        size = np.max(np.abs([e11, e12, e21, e22]), axis=0)
        assert np.all(np.abs(e11 * e22 - e12 * e21 - 1.0)
                      <= 2e-15 * np.maximum(size, 1.0) ** 2)


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

    @pytest.mark.parametrize("stride", [0.05, 0.02])
    def test_running_product_matches_sequential_product(self, stride):
        # reference: the kept steps multiplied one at a time in travel order
        solve = _Solve(LINEAR, cfg(1.0, 60.0, stride=stride).grid(), 1e-12)
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
        # in a batch of mixed k, by its own k
        batch = ChannelBatch(model, [1, -2], [0.5, 2.0])
        with pytest.raises(PreconditionError,
                           match=r"of k=-2,lambda=2 from 700 to 720 failed"):
            propagate(batch, np.eye(2), [1.0, 700.0], [2.0, 720.0])

    def test_fundamental_batch_equals_lone_solves(self):
        # each channel from its own start radius, so the node rows differ
        # in length; the shorter ones are padded
        lams, starts = [0.0, 2.5, -1.0], [1.0, 3.7, 0.55]
        c = cfg(1.0, 30.0, rtol=1e-11, stride=0.1)
        got = integrate_fundamental(ChannelBatch(EQUAL, -1, lams), c, starts)
        assert len(got) == len(lams)
        for lam, r0, (grid, phi, failure) in zip(lams, starts, got):
            want = integrate_fundamental(assemble_channel(EQUAL, -1, lam),
                                         cfg(r0, 30.0, rtol=1e-11,
                                             stride=0.1))
            assert np.array_equal(grid, want[0])
            assert np.array_equal(phi, want[1])
            assert failure is None and want[2] is None

    @pytest.mark.parametrize("model", [
        EQUAL, CoefficientModel(q=power(1, 1), m=constant(1))],
        ids=["equal", "dominant_linear"])
    def test_mixed_k_batch_equals_lone_solves(self, model):
        # one k per channel: L = ks[owner]/r, and each channel's propagate
        # and fundamental system are those of its lone solve, bit for bit
        ks, lams, starts = [-2, 1, 3], [2.5, 0.5, 1.5], [1.0, 2.3, 0.7]
        batch = ChannelBatch(model, ks, lams)
        u0 = np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 1.0]])
        r0, r1 = np.array([0.5, 6.0, 1.0]), np.array([3.0, 1.5, 8.0])
        got = propagate(batch, u0, r0, r1)
        fund = integrate_fundamental(
            batch, cfg(1.0, 12.0, rtol=1e-11, stride=0.1), starts)
        for i, (k, lam) in enumerate(zip(ks, lams)):
            lone = assemble_channel(model, k, lam)
            assert batch.label(i) == lone.label()
            assert np.array_equal(got[i], propagate(lone, u0[i], r0[i], r1[i]))
            grid, phi, failure = integrate_fundamental(
                lone, cfg(starts[i], 12.0, rtol=1e-11, stride=0.1))
            assert np.array_equal(fund[i][0], grid)
            assert np.array_equal(fund[i][1], phi)
            assert fund[i][2] is None and failure is None

    def test_padded_interval_is_an_exact_identity_step(self):
        # the zero-length Magnus step is I, whatever A
        rng = np.random.default_rng(5)
        e11, e12, e21, e22, turns = _magnus_exp(
            0.0, *rng.standard_normal((3, 3, 6)))
        assert np.all(e11 == 1.0) and np.all(e22 == 1.0)
        assert np.all(e12 == 0.0) and np.all(e21 == 0.0)
        assert np.all(turns == 0.0)
        # nodes padded with their end radius: one kept step each, exactly
        # I, after the grid's nodes, whose Phi stays bit for bit
        grid = cfg(1.0, 12.0).grid()
        phi, reached, _ = _Solve(LINEAR, grid, 1e-12).transfer()
        padded = np.append(grid, [grid[-1]] * 3)
        solve = _Solve(LINEAR, padded, 1e-12)
        phi2, reached2, _ = solve.transfer()
        pad = solve.seg >= grid.size - 1
        assert np.sum(pad) == 3
        assert np.array_equal(solve.P[:, pad], np.tile([[1.0], [0.0], [0.0],
                                                        [1.0]], 3))
        assert (reached[0], reached2[0]) == (grid.size, padded.size)
        assert np.array_equal(phi2[0, :grid.size], phi[0])


def parent_running(X, first):
    """Oracle: the allocating Hillis-Steele scan `_running` replaced, the
    same operations in the same order."""
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h

    R, e = X.copy(), np.zeros(X.shape[1], dtype=int)
    pos, d = np.arange(X.shape[1]) - first, 1
    while d <= np.max(pos, initial=0):
        P = np.stack(mul(R[:, d:], R[:, :-d]))
        _, x = np.frexp(np.max(np.abs(P), axis=0))
        P, ed = np.ldexp(P, -x), e[d:] + e[:-d] + x
        on = pos[d:] >= d
        if not on.all():
            P, ed = np.where(on, P, R[:, d:]), np.where(on, ed, e[d:])
        R[:, d:], e[d:] = P, ed
        d *= 2
    return R, e


def exp_of(x):
    """The power of two that scales the largest entry of x into [1/2, 1)."""
    return int(np.frexp(np.max(np.abs(x)))[1])


class TestRunning:
    @pytest.mark.parametrize("sizes", [[1000], [1, 7, 2, 40, 300, 3],
                                       [5, 0, 64, 1], [20000],
                                       [9000, 300, 12000, 1]])
    def test_bit_identical_to_allocating_scan(self, sizes):
        # in one run every column takes on its partner at every level; in
        # mixed runs the first columns of a run keep theirs (the masked
        # path); the last two span several blocks; entries span many
        # binades
        rng = np.random.default_rng(11)
        n = sum(sizes)
        X = rng.standard_normal((4, n)) * np.exp2(rng.integers(-60, 60, n))
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        for start in (first, 0) if len(sizes) == 1 else (first,):
            R, e = _running(X, start)
            R0, e0 = parent_running(X, start)
            assert np.array_equal(R, R0) and np.array_equal(e, e0)
            assert e.dtype == e0.dtype

    def test_bit_identical_on_a_solve(self):
        solve = _Solve(ChannelBatch(EQUAL, 1, [-2.0, 0.5]),
                       np.array([cfg(1.0, 25.0).grid(),
                                 cfg(1.0, 25.0).grid()]), 1e-12)
        first = np.searchsorted(solve.owner, solve.owner)
        R0, e0 = parent_running(solve.P, first)
        assert np.array_equal(solve.R, R0) and np.array_equal(solve.e, e0)

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


# floats whose format is easy to get wrong: signed zero, a subnormal, a
# large power of ten, nan and both infinities
SPECIAL = np.array([-0.0, 5e-324, 1e22, np.nan, np.inf, -np.inf, 0.1,
                    -2.5e-310])


class SpecialChannel:
    """Stub channel whose (Q, M, L, W) run through `SPECIAL` shifted."""

    def coeffs(self, r):
        return tuple(np.roll(SPECIAL, i)[:len(r)] for i in range(1, 5))


class TestTrajectoryCsv:
    def test_columns_written_to_their_digits(self, tmp_path):
        # r to 12 significant digits, u1, u2 and rho to 11, theta to 13, and
        # the coefficients Q, M, L, W, which no solve makes, as repr
        cols = [np.roll(SPECIAL, -i) for i in range(5)]
        traj = Trajectory(grid=cols[0], u1=cols[1], u2=cols[2], rho=cols[3],
                          theta=cols[4], mode="cartesian",
                          channel=SpecialChannel())
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == (
            "r,u1,u2,rho,theta,Q,M,L,W\n"
            "-0,4.9406564584e-324,1e+22,nan,inf,-2.5e-310,0.1,-inf,inf\n"
            "4.94065645841e-324,1e+22,nan,inf,-inf,-0.0,-2.5e-310,0.1,-inf\n"
            "1e+22,nan,inf,-inf,0.1,5e-324,-0.0,-2.5e-310,0.1\n"
            "nan,inf,-inf,0.1,-2.5e-310,1e+22,5e-324,-0.0,-2.5e-310\n"
            "inf,-inf,0.1,-2.5e-310,-0,nan,1e+22,5e-324,-0.0\n"
            "-inf,0.1,-2.5e-310,-0,4.940656458412e-324,inf,nan,1e+22,5e-324\n"
            "0.1,-2.5e-310,-0,4.9406564584e-324,1e+22,-inf,inf,nan,1e+22\n"
            "-2.5e-310,-0,4.9406564584e-324,1e+22,nan,0.1,-inf,inf,nan\n")

    def test_missing_theta_written_as_nan(self, tmp_path):
        grid = np.array([1.0, 2.0])
        traj = Trajectory(grid=grid, u1=grid, u2=grid, rho=grid, theta=None,
                          mode="cartesian", channel=ROTATION)
        traj.to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[1] == "1,1,1,1,nan,1.0,0.0,0.0,0.0"


def sequential_norms(channel, U0, nodes, rtol):
    """Reference `cumulative_norms`: the states carried through the steps of
    the solve one at a time, each past its first half and to its end, and
    the end-derivative rule h/30 (7 f0 + 16 f1/2 + 7 f1) + h^2/60 (f0' - f1')
    on f = |u|^2 over each step, with f' = 2 u^T A u at its ends."""
    solve = _Solve(channel, nodes, rtol)
    r = np.append(solve.t, nodes[-1])
    Q, M, L, _ = channel.coeffs(r)
    A = np.array([[-L, M - Q], [Q + M, L]]).transpose(2, 0, 1)
    U = np.asarray(U0, dtype=float)
    I, out = 0.0, []
    for i, (half, P, end) in enumerate(zip(solve.half.T, solve.P.T,
                                           solve.end)):
        mid, V = half.reshape(2, 2) @ U, P.reshape(2, 2) @ U
        f0, fm, f1 = (np.sum(x * x, axis=0) for x in (U, mid, V))
        d0 = 2.0 * np.sum(U * (A[i] @ U), axis=0)
        d1 = 2.0 * np.sum(V * (A[i + 1] @ V), axis=0)
        h = r[i + 1] - r[i]
        I = I + h / 30.0 * (7.0 * f0 + 16.0 * fm + 7.0 * f1) \
            + h * h / 60.0 * (d0 - d1)
        if end:
            out.append(I)
        U = V
    return np.array(out).T


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
    solve = _Solve(channel, c.grid(), c.rtol)
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
        c = cfg(1.0, 33.0, rtol=1e-11, stride=0.02)
        traj = integrate_pruefer(tch, 1.0, 0.0, c)
        theta, _ = dop853_polar(tch, 1.0, 0.0, traj.grid)
        s = s_variable(tch, traj.grid)
        got = census_from_phase(s, traj.theta)
        ref = census_from_phase(s, theta)
        assert got.ns == ref.ns
        assert got.violations == ref.violations
        assert np.allclose(got.J_lengths + got.K_lengths,
                           ref.J_lengths + ref.K_lengths, rtol=0.0, atol=1e-9)

    def test_uniform_rotation_phase(self):
        # the long range takes 1.2e5 half steps, whose angle gains would
        # drift by 6.5e-9 in their sum were theta not set on its state angle
        for c, tol in ((cfg(1.0, 30.0), 1e-10),
                       (cfg(1.0, 3000.0, stride=0.05), 4e-12)):
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
        grid, phi, _ = integrate_fundamental(channel, c)
        u = phi[:, :, 0].T * math.cos(0.3) + phi[:, :, 1].T * math.sin(0.3)
        assert traj.ok and np.array_equal(traj.grid, grid)
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
        c = cfg(1.0, 60.0, rtol=1e-11)
        cart = integrate_cartesian(LINEAR, [1.0, 1.0], c)
        prue = integrate_pruefer(LINEAR, math.sqrt(2.0), math.pi / 4, c)
        assert np.max(np.abs(prue.rho - cart.rho) / cart.rho) < 1e-6


# initial angles of the trap tests: none on a quarter boundary k pi/2
TRAP_ANGLES = ((np.arange(8) + 0.5) * math.pi / 8 - math.pi / 2).tolist()


def quarters(traj):
    """The quarter index floor(theta / (pi/2)) at every step end."""
    return np.floor(traj.accepted_theta / (math.pi / 2))


class TestTrappedAngle:
    """On m = q the polar equation gives theta' = 2q - lambda at theta = 0
    (mod pi) and theta' = -lambda at theta = pi/2 (mod pi), whatever k, as
    L sin 2 theta vanishes there.  Past q = lambda/2 with lambda > 0 an
    angle in an even quarter (n pi, n pi + pi/2) can leave it through
    neither edge, and one in an odd quarter leaves it through either edge
    into an even one, so the quarter index changes at most once, by one.
    For lambda < 0 both edges are crossed upwards only, so the index never
    falls."""

    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_positive_lambda_crosses_at_most_one_quarter(self, k):
        crossed = 0
        for lam in (0.3, 2.0, 3.5107, 4.0, 7.0):
            channel = assemble_channel(EQUAL, k, lam)
            # from r* = lambda/2, where q = lambda/2 on q = m = r
            c = cfg(lam / 2.0, 40.0, rtol=1e-10)
            for theta0 in TRAP_ANGLES:
                traj = integrate_pruefer(channel, 1.0, theta0, c)
                index = quarters(traj)
                assert traj.ok
                assert np.ptp(index) <= 1, (lam, theta0)
                assert np.count_nonzero(np.diff(index)) <= 1, (lam, theta0)
                crossed += index[-1] != index[0]
        assert crossed  # some start leaves its odd quarter

    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_negative_lambda_never_turns_back_a_quarter(self, k):
        for lam in (-0.5, -2.0, -5.0):
            channel = assemble_channel(EQUAL, k, lam)
            c = cfg(0.5, 40.0, rtol=1e-10)
            for theta0 in TRAP_ANGLES:
                traj = integrate_pruefer(channel, 1.0, theta0, c)
                index = quarters(traj)
                assert traj.ok
                assert np.all(np.diff(index) >= 0), (lam, theta0)
                assert index[-1] - index[0] > 100


class WignerVonNeumann:
    """Duck-typed q and m (like `DippedLine` in test_hypotheses) of a
    channel with an embedded eigenvalue: with theta(r) = r^2/2, a < -1,

        m = (a/r) sin r^2,
        q = lambda0 + r - (k/r) sin r^2 - (a/(2r)) sin 2r^2,

    the polar equations hold with theta' = r and
    (ln rho)' = (a/r) sin^2 r^2 - (k/r) cos r^2, so rho ~ r^(a/2) is L^2 and
    lambda0 is an eigenvalue of the channel at k, although q dominates m
    (Wigner & von Neumann, Phys. Z. 30, 1929)."""

    a, lam0, k, r0 = -2.0, 1.0, 1, 3.0

    def __init__(self, part):
        self.part = part

    def value(self, r):
        r = np.asarray(r, dtype=float)
        a, k, sine = self.a, self.k, np.sin(r * r)
        if self.part == "m":
            return a / r * sine
        return self.lam0 + r - k / r * sine - a / (2.0 * r) * np.sin(2 * r * r)

    @classmethod
    def model(cls):
        return SimpleNamespace(q=cls("q"), m=cls("m"))

    @classmethod
    def start(cls):
        """u(r0), the unit vector at the angle theta(r0) = r0^2/2."""
        theta = cls.r0 ** 2 / 2.0
        return np.array([math.cos(theta), math.sin(theta)])


class TestWignerVonNeumann:
    W = WignerVonNeumann
    CHANNEL = ChannelSystem(model=W.model(), k=W.k, lam=W.lam0)

    def test_polar_equations_hold_exactly(self):
        r = np.linspace(self.W.r0, 300.0, 1000)
        Q, M, L, _ = self.CHANNEL.coeffs(r)
        two_theta = r * r
        dtheta = Q + M * np.cos(two_theta) + L * np.sin(two_theta)
        dlog_rho = M * np.sin(two_theta) - L * np.cos(two_theta)
        a, k = self.W.a, self.W.k
        assert np.max(np.abs(dtheta - r) / r) <= 1e-14
        assert np.max(np.abs(dlog_rho - (a / r * np.sin(r * r) ** 2
                                         - k / r * np.cos(r * r)))) <= 1e-15

    def batch(self, n):
        return ChannelBatch(self.W.model(), self.W.k, np.full(n, self.W.lam0))

    def test_propagate_keeps_the_decay(self):
        # rho ~ r^(a/2) = 1/r: r |u(r)| tends to a constant, 3.152 from r0
        r = np.array([10.0, 30.0, 100.0, 300.0])
        u = propagate(self.batch(r.size), np.tile(self.W.start(), (r.size, 1)),
                      self.W.r0, r, rtol=1e-12)
        assert np.all(np.abs(r * np.hypot(*u.T) - 3.152) <= 2e-3)

    def test_propagate_keeps_the_angle(self):
        r = np.array([5.0, 10.0, 20.0, 30.0])
        u = propagate(self.batch(r.size), np.tile(self.W.start(), (r.size, 1)),
                      self.W.r0, r, rtol=1e-12)
        off = np.arctan2(u[:, 1], u[:, 0]) - r * r / 2.0
        assert np.all(np.abs((off + math.pi / 2) % math.pi - math.pi / 2)
                      <= 1e-11)


class TestWronskian:
    """det Phi, the Wronskian of its two columns."""

    def test_rotated_pair_gives_initial_norm(self):
        c = cfg(1.0, 30.0)
        u0 = np.array([0.6, -0.8])
        z0 = np.array([0.8, 0.6])  # (-u2, u1)
        _, phi, _ = integrate_fundamental(LINEAR, c)
        w = det(phi @ np.column_stack([u0, z0]))
        assert np.max(np.abs(w - 1.0)) < 1e-9  # |u0|^2 = 1

    def test_drift_small_at_defaults(self):
        ch = assemble_channel(CoefficientModel(q=power(1, 1), m=constant(1)),
                              1, 1.0)
        _, phi, _ = integrate_fundamental(ch, cfg(1.0, 61.0))
        w = det(phi)
        assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-8


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
        with pytest.raises(PreconditionError,
                           match="does not dominate") as err:
            frobenius_init(ch, 1e-2)
        # the refusal names a smaller radius, and the guard accepts below it
        suggested = float(re.search(r"try r0 <= (\S+)$",
                                    str(err.value)).group(1))
        assert suggested < 1e-2
        init = frobenius_init(ch, suggested * 0.9)
        Q0, M0, _, _ = ch.coeffs(init.r0)
        assert (1.0 / init.r0) / max(abs(Q0 - M0), abs(Q0 + M0)) >= 1e3

    @pytest.mark.parametrize("k", [1, -1, 3, -3])
    @pytest.mark.parametrize("lam", [0.25, 2.0, 4.6])
    def test_radius_search_matches_refusal_driven_search(self, k, lam):
        # the search as a loop over refusals that carry the radius they
        # suggest, each shrinking r0 to min(suggestion / 2, r0 / 4)
        class Refused(Exception):
            def __init__(self, suggestion):
                super().__init__()
                self.suggestion = suggestion

        def reference_init(channel, r0):
            Q0, M0, _, _ = channel.coeffs(r0)
            bound = max(abs(Q0 - M0), abs(Q0 + M0), 1e-300)
            if (abs(channel.k) / r0) / bound < 1e3:
                raise Refused(abs(channel.k) / (1e3 * bound))
            if channel.k > 0:
                u0 = np.array([-(Q0 - M0) * r0 / (2 * channel.k + 1), 1.0])
            else:
                u0 = np.array([1.0, (Q0 + M0) * r0 / (2 * abs(channel.k) + 1)])
            return u0 / np.hypot(u0[0], u0[1]), float(r0)

        def reference_radius(channel, r0=1e-3):
            for _ in range(60):
                try:
                    return reference_init(channel, r0)
                except Refused as err:
                    r0 = min(err.suggestion * 0.5, r0 * 0.25)
            raise AssertionError("no admissible radius")

        ch = assemble_channel(EQUAL, k, lam)
        u0, r0 = reference_radius(ch)
        init = frobenius_radius(ch)
        assert init.r0 == r0 and init.u0.tobytes() == u0.tobytes()

    def test_constant_channel_rejected(self):
        with pytest.raises(TypeError):
            frobenius_init(CONST, 1e-3)


class TestCumulativeIntegral:
    """The Simpson rule of the WKB phase, whose integrand sqrt(lam^2 -
    2 lam q) is the Q of the rescaled channel; for q = c r the phase
    integral has the closed form
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
        s = cumulative_integral(lambda r: tch.coeffs(r)[0], traj.grid)
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
        {"r_start": 0.0}, {"r_start": -1.0}, {"stride": 0.0},
        {"stride": -1.0}, {"r_end": math.nan}, {"stride": math.nan}])
    def test_range_and_step_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            SolveConfig(**{"r_start": 1.0, "r_end": 2.0, **bad})

    def test_representation_heuristic(self):
        assert prefer_pruefer(LINEAR, 50.0, 200.0)
        assert not prefer_pruefer(LINEAR, 0.1, 1.0)


class TestOverflow:
    """A = [[0, 10], [10, 0]] grows like e^(10 r): past r of about 72 no
    state is a float, and every solve says so."""

    STEEP = ConstantChannel(0.0, 10.0, 0.0)

    def test_fundamental_stops_at_last_finite_node(self):
        grid, phi, failure = integrate_fundamental(
            self.STEEP, cfg(1.0, 100.0, stride=1.0))
        assert grid[-1] == 72.0 and len(phi) == len(grid) == 72
        assert np.all(np.isfinite(phi))
        assert failure == "solution overflows before r = 73"

    def test_propagate_raises(self):
        with pytest.raises(PreconditionError, match=re.escape(
                "propagation from 1 to 100 failed: solution overflows "
                "before r = 74.98942093")):
            propagate(self.STEEP, [1.0, 0.0], 1.0, 100.0)

    def test_cumulative_norms_raise(self):
        with pytest.raises(PreconditionError,
                           match="^cumulative norms overflow$"):
            cumulative_norms(self.STEEP, np.eye(2), np.linspace(1.0, 100.0, 10),
                             1e-10)
