from dataclasses import replace

import numpy as np
import pytest

from diracspec.boundedness import (
    BoundednessCertificate,
    RTrace,
    almost_monotone_check,
    auto_start_radius,
    certify,
    comparability_constant,
    completed_square,
    r_eval,
    r_trace,
)
from diracspec.bvcalc import cumulative_variation
from diracspec.coefficients import (
    ChannelBatch,
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    coefficient,
    constant,
    power,
)
from diracspec.hypotheses import (GENERAL, VIOLATED, check_c_conditions,
                                  envelope_form)
from diracspec.solver import (
    PreconditionError,
    SolveConfig,
    integrate_cartesian,
    integrate_fundamental,
)

CONST = ConstantChannel(2.0, 1.0, 0.0)
FREE = ConstantChannel(1.0, 0.0, 0.0)
LINEAR_MODEL = CoefficientModel(q=power(1, 1), m=constant(1))
LINEAR = assemble_channel(LINEAR_MODEL, 1, 0.0)


def cfg(r0, r1, **kw):
    kw.setdefault("rtol", 1e-10)
    return SolveConfig(r_start=r0, r_end=r1, **kw)


def fundamental(channel, r0, r1, **kw):
    """(grid, Phi) of a fundamental solve that reaches r1."""
    grid, phi, failure = integrate_fundamental(channel, cfg(r0, r1, **kw))
    assert failure is None
    return grid, phi


def first_trace(channel, grid, phi):
    # the envelope trace `certify` takes: Phi's first column
    return r_trace(channel, grid, phi[:, :, 0].T)


def traj_trace(traj):
    return r_trace(traj.channel, traj.grid, (traj.u1, traj.u2))


def direction_ratios(phi, n=721):
    """Extreme two-sided norm ratio on the grid for the solutions
    Phi (cos t, sin t), t over n directions of the half circle."""
    out = []
    for t in np.linspace(0.0, np.pi, n):
        u1 = np.cos(t) * phi[:, 0, 0] + np.sin(t) * phi[:, 0, 1]
        u2 = np.cos(t) * phi[:, 1, 0] + np.sin(t) * phi[:, 1, 1]
        nsq = u1 ** 2 + u2 ** 2
        out.append(max(np.max(nsq) / nsq[0], nsq[0] / np.min(nsq)))
    return np.array(out)


class TestREval:
    def test_free_channel_reduces_to_norm(self):
        u = (np.array([0.3]), np.array([-0.4]))
        R = r_eval(u, FREE.coeffs(np.array([1.0])), form="M_zero")
        assert R[0] == pytest.approx(0.25, rel=1e-15)

    def test_constant_channel_formula(self):
        c, s = 0.6, -0.2
        R = r_eval((c, s), (2.0, 1.0, 0.0, 1.0), form="L_zero")
        assert R == pytest.approx(c * c + s * s + 2 * c * c, rel=1e-15)

    def test_conserved_along_constant_solution(self):
        traj = integrate_cartesian(CONST, [1.0, 0.0], cfg(1.0, 101.0))
        trace = traj_trace(traj)
        assert trace.form == "L_zero"
        drift = np.max(np.abs(trace.R - trace.R[0])) / trace.R[0]
        assert drift < 1e-8
        assert trace.R[0] == pytest.approx(3.0, rel=1e-10)

    def test_general_form_matches_completed_square(self):
        traj = integrate_cartesian(LINEAR, [1.0, 0.5], cfg(2.0, 60.0))
        coeffs = LINEAR.coeffs(traj.grid)
        R = r_eval((traj.u1, traj.u2), coeffs)
        R2 = completed_square((traj.u1, traj.u2), coeffs)
        assert np.max(np.abs(R - R2) / np.abs(R)) < 1e-10

    def test_general_form_dominates_norm(self):
        traj = integrate_cartesian(LINEAR, [0.1, 1.0], cfg(2.0, 60.0))
        trace = traj_trace(traj)
        assert np.all(trace.R >= trace.usq * (1 - 1e-12))

    def test_m_zero_lower_bound(self):
        ch = ConstantChannel(4.0, 0.0, 1.0)
        traj = integrate_cartesian(ch, [1.0, -1.0], cfg(1.0, 30.0))
        trace = traj_trace(traj)
        eps = trace.epsilon
        floor = (1 - eps) / (1 + eps)
        assert np.all(trace.R >= floor * trace.usq * (1 - 1e-12))

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(PreconditionError):
            r_eval((1.0, 0.0), (1.0, 2.0, 0.0, 2.0))

    def test_form_detection(self):
        r = np.linspace(1, 10, 32)
        assert envelope_form(*CONST.coeffs(r)[1:3]) == "L_zero"
        assert envelope_form(*FREE.coeffs(r)[1:3]) == "M_zero"
        assert envelope_form(*LINEAR.coeffs(r)[1:3]) == "general"


class TestAlmostMonotone:
    def test_constant_coefficients_zero_rhs(self):
        traj = integrate_cartesian(CONST, [1.0, 0.0], cfg(1.0, 41.0))
        verdicts = almost_monotone_check(traj_trace(traj), n_grid=8)
        assert all(v.ok for v in verdicts)
        assert all(v.rhs == 0.0 for v in verdicts)
        # with zero variation the envelope cannot grow at all
        assert all(v.lhs <= 1e-8 for v in verdicts)

    def test_linear_channel_pairs(self):
        r0 = auto_start_radius(LINEAR)
        traj = integrate_cartesian(LINEAR, [1.0, 0.0],
                                   cfg(max(2.0, r0), 200.0, rtol=1e-9))
        verdicts = almost_monotone_check(traj_trace(traj), n_grid=32)
        assert len(verdicts) == 32 * 31 // 2
        assert all(v.ok for v in verdicts)

    def test_m_zero_variant(self):
        ch = ConstantChannel(5.0, 0.0, 1.0)
        traj = integrate_cartesian(ch, [1.0, 2.0], cfg(1.0, 30.0))
        verdicts = almost_monotone_check(traj_trace(traj))
        assert all(v.ok for v in verdicts)

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["M<0", "M>0"])
    def test_l_zero_variant_on_a_varying_channel(self, sign):
        # L == 0: the trace sums the C3' quotient M/(Q - M) of R's own gap
        # and bounds it with the factor of the M == 0 variant, eps the sup
        # of |M|/Q
        ch = VaryingMassChannel(sign)
        grid, phi = fundamental(ch, 1.0, 40.0)
        Q, M, _, _ = ch.coeffs(grid)
        trace = first_trace(ch, grid, phi)
        assert trace.form == "L_zero"
        np.testing.assert_array_equal(trace.cumvar,
                                      cumulative_variation(M / (Q - M)))
        assert trace.epsilon == np.max(np.abs(M) / Q)
        assert all(almost_monotone_check(trace).ok)


class VaryingMassChannel:
    """Q = r + 3, M = sign (1.2 + sin r)/2 and L = 0: a channel of the
    L == 0 form whose quotient varies; with M < 0 the gap Q - |M| = Q - W of
    the general quotients is not the gap Q - M of R."""

    def __init__(self, sign):
        self.sign = sign

    def coeffs(self, r):
        M = self.sign * (1.2 + np.sin(r)) / 2.0
        return r + 3.0, M, 0.0 * r, np.abs(M)


def reference_pairs(trace, n_grid=32, rel_tol=1e-9):
    """The almost-monotone check pair by pair: (t1, t2, lhs, rhs, ok) for
    every pair of the snapped geometric points."""
    grid, R = trace.grid, trace.R
    pts = np.geomspace(grid[0], grid[-1], n_grid)
    idx = sorted(set(int(i) for i in np.searchsorted(grid, pts)))
    idx = [min(i, len(grid) - 1) for i in idx]
    eps = trace.epsilon
    factor = 1.0 if trace.form == "general" else 2.0 * (1.0 + eps) / (1.0 - eps)
    tol_scale = rel_tol * float(np.max(np.abs(R)))
    rows = []
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1:]:
            var_sum = float(trace.cumvar[j] - trace.cumvar[i])
            sup_R = float(np.max(R[i:j + 1]))
            lhs = float(R[j] - R[i])
            rhs = factor * var_sum * sup_R
            rows.append((float(grid[i]), float(grid[j]), lhs, rhs,
                         lhs <= rhs + tol_scale))
    return rows


def raised(trace):
    # R lifted by a tenth of its maximum at the last grid point, which every
    # pair set contains: pairs ending there whose quotient variation is
    # small grow by more than the bound allows; and by a fifth just past
    # the middle of the grid, between two pair points, where only the sup
    # of the pairs around it sees it
    R = trace.R.copy()
    R[-1] += 0.1 * np.max(R)
    R[len(R) // 2 + 1] += 0.2 * np.max(R)
    return replace(trace, R=R)


class TestAlmostMonotoneReference:
    """The array reduction reproduces the pair-by-pair check exactly."""

    @pytest.mark.parametrize("channel,r0,r1,n_grid,alter", [
        (LINEAR, 2.0, 120.0, 32, None),
        (CONST, 1.0, 41.0, 32, None),
        (ConstantChannel(5.0, 0.0, 1.0), 1.0, 30.0, 32, None),
        (LINEAR, 2.0, 2.3, 32, None),
        (LINEAR, 2.0, 120.0, 32, raised),
        (ConstantChannel(5.0, 0.0, 1.0), 1.0, 30.0, 9, raised),
    ], ids=["linear", "constant-L0", "M0", "short-grid", "raised-R",
            "raised-R-M0"])
    def test_matches_pair_loop(self, channel, r0, r1, n_grid, alter):
        trace = first_trace(channel, *fundamental(channel, r0, r1))
        if alter is not None:
            trace = alter(trace)
        got = almost_monotone_check(trace, n_grid=n_grid)
        want = reference_pairs(trace, n_grid=n_grid)
        assert len(got) == len(want) > 0
        for name, column in zip(("t1", "t2", "lhs", "rhs", "ok"),
                                zip(*want)):
            np.testing.assert_array_equal(got[name], column, err_msg=name)
        if alter is not None:
            assert 0 < np.count_nonzero(~got.ok) < len(got)
        if len(trace.grid) < n_grid:
            assert len(got) < n_grid * (n_grid - 1) // 2

    def test_cumvar_sums_the_quotient_variations(self):
        grid, phi = fundamental(LINEAR, 2.0, 60.0)
        Q, M, L, W = LINEAR.coeffs(grid)
        want = sum(np.sum(np.abs(np.diff(q)))
                   for q in (W / (Q - W), M / (Q - W), L / (Q - W)))
        assert first_trace(LINEAR, grid, phi).cumvar[-1] == \
            pytest.approx(want, rel=1e-12)


class TestComparability:
    def test_constant_channel_exact_ratio(self):
        # envelope R = 3 u1^2 + u2^2 is conserved, so norms range over
        # [R/3, R] and the extreme ratio is exactly 3; it is reached where
        # sqrt(3) (r - 1) is an odd multiple of pi/2, as at the range's end
        r_end = 1.0 + 111 * np.pi / (2.0 * np.sqrt(3.0))
        grid, phi = fundamental(CONST, 1.0, r_end)
        cert = comparability_constant(phi, first_trace(CONST, grid, phi))
        assert cert.C == pytest.approx(3.0, rel=1e-8)
        assert cert.to_dict()["verdict"] == "bounded"

    def test_free_channel_is_isometric(self):
        grid, phi = fundamental(FREE, 1.0, 51.0, rtol=1e-12)
        cert = comparability_constant(phi, first_trace(FREE, grid, phi))
        assert cert.C == pytest.approx(1.0, rel=1e-10)

    def test_linear_channel_certificate(self):
        r0 = auto_start_radius(LINEAR)
        grid, phi = fundamental(LINEAR, r0, 200.0)
        cert = comparability_constant(phi, first_trace(LINEAR, grid, phi))
        assert np.isfinite(cert.C) and cert.C >= 1.0
        assert np.max(direction_ratios(phi)) <= cert.C * (1 + 1e-9)

    def test_linear_channel_exact_against_direction_sweep(self):
        # q = r, m = 1, k = 1, lambda = 0: no initial direction exceeds C,
        # and the sweep's worst direction reaches it
        grid, phi = fundamental(LINEAR, auto_start_radius(LINEAR), 22.0)
        trace = first_trace(LINEAR, grid, phi)
        cert = comparability_constant(phi, trace)
        worst = float(np.max(direction_ratios(phi)))
        assert worst <= cert.C * (1 + 1e-9)
        assert worst >= cert.C * (1 - 1e-6)
        assert comparability_constant(phi, trace).C == cert.C

    def test_refused_on_violated_reports(self):
        from diracspec.coefficients import coefficient
        exp_model = CoefficientModel(q=coefficient("exp", c=1, a=1),
                                     m=coefficient("exp", c=1, a=1))
        ch = assemble_channel(exp_model, 1, 0.0)
        reports = check_c_conditions(ch)
        (refusal,) = certify(ch, SolveConfig(r_start=1.0, r_end=2.0),
                             [reports])
        assert isinstance(refusal, PreconditionError)
        assert "refused" in str(refusal)

    def test_certificate_requires_c_at_least_one(self):
        with pytest.raises(ValueError):
            BoundednessCertificate(r0=1.0, r_end=2.0, sup_R=1.0, C=0.5)

    def test_transitivity_on_samples(self):
        # any combination of two basis solutions obeys the two-sided bound
        # with twice the basis constant
        _, phi = fundamental(CONST, 1.0, 101.0)
        basis_C = 3.0
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 2 * np.pi, 8):
            u1 = np.cos(t) * phi[:, 0, 0] + np.sin(t) * phi[:, 0, 1]
            u2 = np.cos(t) * phi[:, 1, 0] + np.sin(t) * phi[:, 1, 1]
            nsq = u1 ** 2 + u2 ** 2
            assert np.max(nsq) <= 2 * basis_C * nsq[0] * (1 + 1e-9)
            assert np.min(nsq) >= nsq[0] / (2 * basis_C) * (1 - 1e-9)


def lone_channels(channel):
    """The channels of a batch one by one; a lone channel is a batch of
    one."""
    if isinstance(channel, ChannelBatch):
        return [assemble_channel(channel.model, k, lam) for k, lam in
                zip(channel.ks.tolist(), channel.lams.tolist())]
    return [channel]


def recording_solves(monkeypatch):
    """Record each `integrate_fundamental` result `certify` takes, and each
    `Trajectory` built meanwhile."""
    import diracspec.boundedness as boundedness
    from diracspec.solver import Trajectory

    solves, built = [], []
    solve, init = boundedness.integrate_fundamental, Trajectory.__init__

    def counting_solve(*args):
        solves.append(solve(*args))
        return solves[-1]

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(boundedness, "integrate_fundamental", counting_solve)
    monkeypatch.setattr(Trajectory, "__init__", counting_init)
    return solves, built


class TestCertify:
    @pytest.mark.parametrize("channel", [
        CONST, LINEAR, assemble_channel(LINEAR_MODEL, -2, 1.0),
        ChannelBatch(LINEAR_MODEL, -2, [1.0, 0.0, -1.5])])
    def test_one_fundamental_solve_and_no_trajectory(self, channel,
                                                     monkeypatch):
        # one solve per k: a batch's channels share it
        solves, built = recording_solves(monkeypatch)
        results = certify(channel, SolveConfig(r_start=1.0, r_end=40.0))
        assert len(solves) == 1 and built == []
        solved = solves[0] if isinstance(channel, ChannelBatch) else solves
        cells = lone_channels(channel)
        assert len(results) == len(solved) == len(cells)
        for cell, (trace, cert), (grid, phi, _) in zip(cells, results,
                                                       solved):
            assert trace.grid is grid and cert.r_end == grid[-1] == 40.0
            assert cert == comparability_constant(phi, first_trace(cell,
                                                                   grid, phi))

    def test_batch_equals_lone_path_bit_for_bit(self, monkeypatch):
        # q = r, m = 1, k = 1: the start radius grows with lambda; lambda
        # = 25 starts past r_end = 20, Q - W never stabilizes at lambda =
        # 60, and the reports of lambda = 0.5 mark C3 violated
        lams = [-1.0, 0.5, 25.0, 2.0, 60.0, 0.0]
        solver = SolveConfig(r_start=1.0, r_end=20.0, rtol=1e-12)
        reports = [check_c_conditions(assemble_channel(LINEAR_MODEL, 1, lam))
                   for lam in lams]
        reports[1] = [replace(reports[1][0], condition_id="C3",
                              verdict=VIOLATED)]
        solves, _ = recording_solves(monkeypatch)
        batch = certify(ChannelBatch(LINEAR_MODEL, 1, lams), solver, reports)
        (batch_phi,) = solves
        lone = [certify(assemble_channel(LINEAR_MODEL, 1, lam), solver,
                        [reps])[0] for lam, reps in zip(lams, reports)]
        lone_phi = solves[1:]
        refused = [isinstance(x, PreconditionError) for x in batch]
        assert refused == [False, True, True, False, True, False]
        assert "C3 reported violated" in str(batch[1])
        assert "is not below r_end = 20" in str(batch[2])
        assert "does not stabilize" in str(batch[4])
        starts = {float(trace.grid[0]) for trace, _ in
                  (x for x, bad in zip(batch, refused) if not bad)}
        assert len(starts) == 3
        assert len(batch_phi) == 3 and len(lone_phi) == 3
        for (grid, phi, failure), (g, p, f) in zip(batch_phi, lone_phi):
            assert np.array_equal(grid, g) and np.array_equal(phi, p)
            assert failure is None and f is None
        for got, want, bad in zip(batch, lone, refused):
            if bad:
                assert str(got) == str(want)
                continue
            (trace, cert), (trace1, cert1) = got, want
            assert cert == cert1  # C, sup_R, r0 and r_end exactly
            for name in ("grid", "R", "usq", "cumvar"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(trace1, name))
            assert (trace.form, trace.epsilon) == (trace1.form,
                                                   trace1.epsilon)

    def test_failed_solve_refuses_its_cell_only(self):
        # q = e^r overflows the Magnus steps well before r = 750 at every
        # lambda; each cell carries its own refusal
        model = CoefficientModel(q=coefficient("exp", c=1.0, a=1.0),
                                 m=constant(1))
        solver = SolveConfig(r_start=1.0, r_end=750.0, stride=5.0)
        with np.errstate(all="ignore"):
            results = certify(ChannelBatch(model, 1, [0.0, 1.0]), solver)
        for result in results:
            assert isinstance(result, PreconditionError)
            assert str(result).startswith("fundamental solve failed: ")


class GapChannel:
    """Stub channel with Q = 1 whose gap Q - W is 1 on the probes and 0
    (below the margin) on the probe indices in `bad`."""

    def __init__(self, bad=()):
        self.bad = list(bad)

    def coeffs(self, r):
        W = np.zeros_like(r)
        W[self.bad] = 1.0
        return np.ones_like(r), W, 0.0 * r, W


class TestRTraceCsv:
    def test_columns_written_to_their_digits(self, tmp_path):
        # r, R and usq to 12 significant digits (%.12g), on floats whose
        # format is easy to get wrong: signed zero, a subnormal, a large
        # power of ten, nan and both infinities
        special = np.array([-0.0, 5e-324, 1e22, np.nan, np.inf, -np.inf,
                            0.1, -2.5e-310])
        grid, R, usq = (np.roll(special, -i) for i in range(3))
        trace = RTrace(grid=grid, R=R, usq=usq, form=GENERAL,
                       cumvar=np.zeros(8), epsilon=0.0)
        trace.to_csv(tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == (
            "# kind=rtrace\n"
            "r,R,usq\n"
            "-0,4.94065645841e-324,1e+22\n"
            "4.94065645841e-324,1e+22,nan\n"
            "1e+22,nan,inf\n"
            "nan,inf,-inf\n"
            "inf,-inf,0.1\n"
            "-inf,0.1,-2.5e-310\n"
            "0.1,-2.5e-310,-0\n"
            "-2.5e-310,-0,4.94065645841e-324\n")


class TestAutoStartRadius:
    PROBES = np.geomspace(0.5, 50.0, 400)

    def test_good_everywhere_starts_at_first_probe(self):
        assert auto_start_radius(GapChannel()) == 0.5

    def test_late_stabilization_starts_past_last_bad_probe(self):
        # bad on the first 40 probes and on probe 300 alone
        channel = GapChannel([*range(40), 300])
        assert auto_start_radius(channel) == float(self.PROBES[301])

    def test_bad_last_probe_refused(self):
        with pytest.raises(PreconditionError, match="does not stabilize"):
            auto_start_radius(GapChannel([399]))
