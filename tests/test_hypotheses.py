import numpy as np
import pytest

from diracspec.bvcalc import lambda_trichotomy_probe
from diracspec.coefficients import (
    ChannelSystem,
    CoefficientModel,
    assemble_channel,
    coefficient,
    constant,
    power,
)
from diracspec.hypotheses import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    check_a_conditions,
    check_b_conditions,
    check_c_conditions,
    check_derivative_sufficiency,
    gamma_diagnostics,
    worst_verdict,
)

LINEAR = CoefficientModel(q=power(1, 1), m=constant(1))
MODULATED = CoefficientModel(
    q=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0.25),
    m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))
SQRT_PERIODIC = CoefficientModel(
    q=power(1, 0.5),
    m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))
EQUAL_LINEAR = CoefficientModel(q=power(1, 1), m=power(1, 1))
EQUAL_SQUARE = CoefficientModel(q=power(1, 2), m=power(1, 2))
EQUAL_EXP = CoefficientModel(q=coefficient("exp", c=1, a=1),
                             m=coefficient("exp", c=1, a=1))


def by_id(reports):
    return {r.condition_id: r for r in reports}


class TestAConditions:
    def test_linear_all_satisfied(self):
        reports = by_id(check_a_conditions(LINEAR, [-1.0, 0.0, 1.0]))
        for cid in ("A1", "A2", "A3[lambda=-1]", "A3[lambda=0]",
                    "A3[lambda=1]", "A4"):
            assert reports[cid].verdict == SATISFIED, cid
        # constant mass: the mixed-derivative integrand vanishes identically
        assert reports["A4"].evidence["rung_integrals"] == [0.0, 0.0, 0.0]

    def test_modulated_split(self):
        reports = by_id(check_a_conditions(MODULATED, [0.0, 1.0]))
        assert reports["A1"].verdict == SATISFIED
        assert reports["A2"].verdict == SATISFIED
        assert reports["A4"].verdict == SATISFIED
        assert reports["A3[lambda=0]"].verdict == SATISFIED
        assert reports["A3[lambda=1]"].verdict == VIOLATED

    def test_square_root_potential_periodic_mass(self):
        # A4 converges while the stronger probe A4' log-diverges
        reports = by_id(check_a_conditions(SQRT_PERIODIC, [0.5]))
        assert reports["A4"].verdict == SATISFIED
        assert reports["A4'"].verdict == VIOLATED
        assert reports["A4'"].auxiliary

    def test_reports_reproducible_bit_for_bit(self):
        a = by_id(check_a_conditions(MODULATED, [0.0]))
        b = by_id(check_a_conditions(MODULATED, [0.0]))
        for cid in a:
            assert a[cid].evidence == b[cid].evidence

    def test_definite_verdicts_carry_two_rungs(self):
        for rep in check_a_conditions(LINEAR, [0.0]):
            if rep.verdict != INCONCLUSIVE:
                assert len(rep.windows) >= 2


class TestDerivativeSufficiency:
    def test_linear(self):
        reports = by_id(check_derivative_sufficiency(LINEAR))
        assert reports["D1"].verdict == SATISFIED
        assert reports["D2"].verdict == SATISFIED

    def test_square_closed_form(self):
        # q = r^2, m = sqrt(r): both integrands decay like r^(-5/2), whose
        # tail integral over [T, inf) is c*T^(-3/2)
        model = CoefficientModel(q=power(1, 2), m=power(1, 0.5))
        reports = check_derivative_sufficiency(model)
        assert all(r.verdict == SATISFIED for r in reports)
        rungs = np.asarray(by_id(reports)["D1"].evidence["rung_integrals"])
        windows = by_id(reports)["D1"].windows
        exact = [((1 / 3) * (a ** -1.5 - b ** -1.5)) for a, b in windows]
        assert np.allclose(rungs, exact, rtol=1e-4)

    def test_modulated_diverges(self):
        reports = by_id(check_derivative_sufficiency(MODULATED))
        assert reports["D1"].verdict == VIOLATED

    def test_implication_toward_quotient_probe(self):
        # whenever both derivative integrals converge, every probed lambda
        # must classify convergent
        for model in (LINEAR, CoefficientModel(q=power(1, 2), m=power(1, 0.5))):
            d = check_derivative_sufficiency(model)
            if all(r.verdict == SATISFIED for r in d):
                probe = lambda_trichotomy_probe(model, [-2.0, 0.0, 2.0])
                assert all(e["classification"] == "convergent"
                           for e in probe.entries)


class TestBConditions:
    def test_linear(self):
        reports = by_id(check_b_conditions(EQUAL_LINEAR))
        assert reports["B1"].verdict == SATISFIED
        assert reports["B2"].verdict == SATISFIED

    def test_square_second_derivative_variant(self):
        reports = by_id(check_b_conditions(EQUAL_SQUARE))
        assert reports["B2"].verdict == SATISFIED
        assert reports["B2'"].verdict == SATISFIED

    def test_exponential_overflows_to_inconclusive_but_c2_fails(self):
        # the scaled slope e^(-r/2) decays, but evaluation overflows on the
        # far ladder, so the verdict stays honest; the channel-level envelope
        # condition is where this regime visibly fails
        reports = by_id(check_b_conditions(EQUAL_EXP))
        assert reports["B1"].verdict == SATISFIED
        assert reports["B2"].verdict in (SATISFIED, INCONCLUSIVE)
        ch = assemble_channel(EQUAL_EXP, 1, 0.0)
        c_reports = by_id(check_c_conditions(ch))
        assert c_reports["C2"].verdict == VIOLATED

    def test_mismatch_rejected_with_location(self):
        with pytest.raises(ValueError, match="r ="):
            check_b_conditions(LINEAR)


class TestCConditions:
    def test_linear_channel(self):
        ch = assemble_channel(LINEAR, 1, 0.0)
        reports = by_id(check_c_conditions(ch))
        assert reports["C1"].verdict == SATISFIED
        assert reports["C2"].verdict == SATISFIED
        assert reports["C3"].verdict == SATISFIED

    def test_dominant_model_implies_channel_conditions(self):
        # channels assembled from a model passing the A-conditions must pass
        # the C-conditions on every probed pair
        for k in (1, -1, 2, -2):
            for lam in (-1.0, 0.0, 1.0):
                reports = by_id(check_c_conditions(assemble_channel(LINEAR, k, lam)))
                for cid in ("C1", "C2", "C3"):
                    assert reports[cid].verdict == SATISFIED, (k, lam, cid)

    def test_modulated_channel_at_bv_lambda(self):
        ch = assemble_channel(MODULATED, 1, 0.0)
        reports = by_id(check_c_conditions(ch))
        for cid in ("C1", "C2", "C3"):
            assert reports[cid].verdict == SATISFIED

    def test_single_quotient_form_when_mass_vanishes(self):
        model = CoefficientModel(q=power(1, 1), m=constant(0))
        reports = by_id(check_c_conditions(assemble_channel(model, 1, 0.0)))
        assert "C3'" in reports
        assert reports["C3'"].verdict == SATISFIED

    def test_single_quotient_form_on_rescaled_channel(self):
        from diracspec.subordinacy import transform
        reports = by_id(check_c_conditions(transform(EQUAL_LINEAR, 1, -1.0)))
        assert reports["C1"].verdict == SATISFIED
        assert reports["C2"].verdict == SATISFIED
        assert reports["C3'"].verdict == SATISFIED

    def test_constant_channel_trivial_quotients(self):
        from diracspec.coefficients import ConstantChannel
        reports = by_id(check_c_conditions(ConstantChannel(2.0, 1.0, 0.0)))
        # constants never diverge, but the quotient variations vanish
        assert reports["C1"].verdict == VIOLATED
        assert reports["C2"].verdict == SATISFIED
        assert reports["C3'"].verdict == SATISFIED
        for key, rungs in reports["C3'"].evidence.items():
            if key.endswith("rung_variations"):
                assert rungs == [0.0, 0.0, 0.0]

    def test_one_coefficient_sample_per_window(self, monkeypatch):
        calls = []
        coeffs = ChannelSystem.coeffs

        def counting(self, r):
            calls.append(np.size(r))
            return coeffs(self, r)

        monkeypatch.setattr(ChannelSystem, "coeffs", counting)
        reports = by_id(check_c_conditions(assemble_channel(LINEAR, -1, 0.0)))
        assert reports["C3"].verdict == SATISFIED
        # 4 extreme windows (C1 and C2), 1 vanishing-coefficient probe,
        # 3 gap-floor windows and 3 quotient windows (all of C3)
        assert len(calls) == 11

    def test_worst_verdict_helper(self):
        ch = assemble_channel(MODULATED, 1, 1.0)
        reports = check_c_conditions(ch)
        assert worst_verdict(reports) in (SATISFIED, INCONCLUSIVE, VIOLATED)


class TestGammaDiagnostics:
    @pytest.mark.parametrize("model,lam", [
        (EQUAL_LINEAR, -1.0), (EQUAL_LINEAR, 0.0), (EQUAL_SQUARE, -1.0)])
    def test_satisfied_cases(self, model, lam):
        reports = by_id(gamma_diagnostics(model, lam))
        assert {r for r in reports} == {"G1", "G2", "G3"}
        assert all(r.verdict == SATISFIED for r in reports.values())

    def test_linear_closed_form_decay(self):
        # gamma = 2r + 1, slope = 2 (2r+1)^(-3/2): window maxima land on the
        # left edges of the ladder windows
        reports = by_id(gamma_diagnostics(EQUAL_LINEAR, -1.0))
        maxima = reports["G3"].evidence["abs_slope_window_maxima"]
        lefts = [w[0] for w in reports["G3"].windows]
        exact = [2.0 / (2 * t + 1) ** 1.5 for t in lefts]
        assert np.allclose(maxima, exact, rtol=1e-3)

    def test_rejects_mismatched_model(self):
        with pytest.raises(ValueError):
            gamma_diagnostics(LINEAR, -1.0)

    def test_rejects_gamma_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_diagnostics(EQUAL_LINEAR, 1e9)
