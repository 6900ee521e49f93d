import numpy as np
import pytest

from diracspec.boundedness import (
    BoundednessCertificate,
    almost_monotone_check,
    auto_start_radius,
    certify,
    comparability_constant,
    completed_square,
    envelope_form,
    r_eval,
    r_trace,
)
from diracspec.coefficients import (
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    constant,
    power,
)
from diracspec.hypotheses import check_c_conditions
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
    kw.setdefault("atol", 1e-12)
    return SolveConfig(r_start=r0, r_end=r1, **kw)


def pair(channel, r0, r1, **kw):
    return integrate_fundamental(channel, cfg(r0, r1, **kw))


def direction_ratios(ta, tb, n=721):
    """Extreme two-sided norm ratio on the grid for the solutions starting at
    (cos phi, sin phi), phi over n directions of the half circle."""
    out = []
    for phi in np.linspace(0.0, np.pi, n):
        u1 = np.cos(phi) * ta.u1 + np.sin(phi) * tb.u1
        u2 = np.cos(phi) * ta.u2 + np.sin(phi) * tb.u2
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
        trace = r_trace(traj)
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
        trace = r_trace(traj)
        assert np.all(trace.R >= trace.usq * (1 - 1e-12))

    def test_m_zero_lower_bound(self):
        ch = ConstantChannel(4.0, 0.0, 1.0)
        traj = integrate_cartesian(ch, [1.0, -1.0], cfg(1.0, 30.0))
        trace = r_trace(traj)
        eps = trace.epsilon
        floor = (1 - eps) / (1 + eps)
        assert np.all(trace.R >= floor * trace.usq * (1 - 1e-12))

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(PreconditionError):
            r_eval((1.0, 0.0), (1.0, 2.0, 0.0, 2.0))

    def test_form_detection(self):
        assert envelope_form(CONST, np.linspace(1, 10, 32)) == "L_zero"
        assert envelope_form(FREE, np.linspace(1, 10, 32)) == "M_zero"
        assert envelope_form(LINEAR, np.linspace(1, 10, 32)) == "general"


class TestAlmostMonotone:
    def test_constant_coefficients_zero_rhs(self):
        traj = integrate_cartesian(CONST, [1.0, 0.0], cfg(1.0, 41.0))
        verdicts = almost_monotone_check(r_trace(traj), n_grid=8)
        assert all(v.ok for v in verdicts)
        assert all(v.rhs == 0.0 for v in verdicts)
        # with zero variation the envelope cannot grow at all
        assert all(v.lhs <= 1e-8 for v in verdicts)

    def test_linear_channel_pairs(self):
        r0 = auto_start_radius(LINEAR)
        traj = integrate_cartesian(LINEAR, [1.0, 0.0],
                                   cfg(max(2.0, r0), 200.0, rtol=1e-9))
        verdicts = almost_monotone_check(r_trace(traj), n_grid=32)
        assert len(verdicts) == 32 * 31 // 2
        assert all(v.ok for v in verdicts)

    def test_m_zero_variant(self):
        ch = ConstantChannel(5.0, 0.0, 1.0)
        traj = integrate_cartesian(ch, [1.0, 2.0], cfg(1.0, 30.0))
        verdicts = almost_monotone_check(r_trace(traj))
        assert all(v.ok for v in verdicts)


class TestComparability:
    def test_constant_channel_exact_ratio(self):
        # envelope R = 3 u1^2 + u2^2 is conserved, so norms range over
        # [R/3, R] and the extreme ratio is exactly 3; it is reached where
        # sqrt(3) (r - 1) is an odd multiple of pi/2, as at the range's end
        r_end = 1.0 + 111 * np.pi / (2.0 * np.sqrt(3.0))
        cert = comparability_constant(*pair(CONST, 1.0, r_end))
        assert cert.C == pytest.approx(3.0, rel=1e-8)
        assert cert.to_dict()["verdict"] == "bounded"

    def test_free_channel_is_isometric(self):
        cert = comparability_constant(*pair(FREE, 1.0, 51.0, rtol=1e-12,
                                            atol=1e-14))
        assert cert.C == pytest.approx(1.0, rel=1e-10)

    def test_linear_channel_certificate(self):
        r0 = auto_start_radius(LINEAR)
        ta, tb = pair(LINEAR, r0, 200.0)
        cert = comparability_constant(ta, tb)
        assert np.isfinite(cert.C) and cert.C >= 1.0
        assert np.max(direction_ratios(ta, tb)) <= cert.C * (1 + 1e-9)

    def test_linear_channel_exact_against_direction_sweep(self):
        # q = r, m = 1, k = 1, lambda = 0: no initial direction exceeds C,
        # and the sweep's worst direction reaches it
        ta, tb = pair(LINEAR, auto_start_radius(LINEAR), 22.0)
        cert = comparability_constant(ta, tb)
        worst = float(np.max(direction_ratios(ta, tb)))
        assert worst <= cert.C * (1 + 1e-9)
        assert worst >= cert.C * (1 - 1e-6)
        assert comparability_constant(ta, tb).C == cert.C

    def test_refused_on_violated_reports(self):
        from diracspec.coefficients import coefficient
        exp_model = CoefficientModel(q=coefficient("exp", c=1, a=1),
                                     m=coefficient("exp", c=1, a=1))
        ch = assemble_channel(exp_model, 1, 0.0)
        reports = check_c_conditions(ch)
        with pytest.raises(PreconditionError, match="refused"):
            certify(ch, SolveConfig(r_start=1.0, r_end=2.0), reports)

    def test_certificate_requires_c_at_least_one(self):
        with pytest.raises(ValueError):
            BoundednessCertificate(r0=1.0, r_end=2.0, sup_R=1.0, C=0.5)

    def test_transitivity_on_samples(self):
        # any combination of two basis solutions obeys the two-sided bound
        # with twice the basis constant
        from diracspec.solver import integrate_fundamental
        c = cfg(1.0, 101.0)
        ta, tb = integrate_fundamental(CONST, c)
        basis_C = 3.0
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0, 2 * np.pi, 8):
            u1 = np.cos(phi) * ta.u1 + np.sin(phi) * tb.u1
            u2 = np.cos(phi) * ta.u2 + np.sin(phi) * tb.u2
            nsq = u1 ** 2 + u2 ** 2
            assert np.max(nsq) <= 2 * basis_C * nsq[0] * (1 + 1e-9)
            assert np.min(nsq) >= nsq[0] / (2 * basis_C) * (1 - 1e-9)


class GapChannel:
    """Stub channel with Q = 1 whose gap Q - W is 1 on the probes and 0
    (below the margin) on the probe indices in `bad`."""

    def __init__(self, bad=()):
        self.bad = list(bad)

    def coeffs(self, r):
        W = np.zeros_like(r)
        W[self.bad] = 1.0
        return np.ones_like(r), W, 0.0 * r, W


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
