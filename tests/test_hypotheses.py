import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from diracspec import bvcalc, hypotheses
from diracspec.bvcalc import sample_window
from diracspec.cli import _finite, fixture_path, load_config
from diracspec.coefficients import (
    ChannelSystem,
    CoefficientFunction,
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    coefficient,
    constant,
    models_equal,
    power,
)
from diracspec.hypotheses import (
    EXTREME_WINDOWS,
    INCONCLUSIVE,
    SATISFIED,
    TAIL_WINDOWS,
    VIOLATED,
    check_a_conditions,
    check_b_conditions,
    check_c_conditions,
    check_derivative_sufficiency,
    check_hypotheses,
    check_scan,
    gamma_diagnostics,
    lambda_trichotomy_probe,
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


def _tabulated_without_derivative():
    grid = np.geomspace(0.5, 30_000.0, 60)
    return coefficient("tabulated", grid=list(grid), values=list(grid ** 1.1),
                       derivative="none")


def by_id(reports):
    return {r.condition_id: r for r in reports}


class Duck:
    """A duck-typed coefficient: the values, derivatives and descriptor of
    the function it wraps, but no statement of its scale, so its windows
    keep the linear grid."""

    def __init__(self, f):
        self.f = f

    def __getattr__(self, name):
        return getattr(self.f, name)


def duck(model):
    return CoefficientModel(q=Duck(model.q), m=Duck(model.m))


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


    def test_small_constant_mass_is_not_violated(self):
        # liminf |m| = 0.005 > 0 and m/q -> 0, so A2 holds; minima that sit
        # below a fixed floor without falling from their start are no
        # evidence against it
        model = CoefficientModel(q=power(1, 1), m=constant(0.005))
        reports = by_id(check_a_conditions(model, [0.0]))
        assert reports["A2"].verdict in (SATISFIED, INCONCLUSIVE)


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

    def test_mass_without_derivative_leaves_d1_inconclusive(self):
        model = CoefficientModel(q=power(1, 1),
                                 m=_tabulated_without_derivative())
        (d1,) = check_derivative_sufficiency(model)
        assert (d1.condition_id, d1.verdict, d1.note, d1.auxiliary) == \
            ("D1", INCONCLUSIVE, "derivatives unavailable", True)

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

    def test_envelope_limit_just_below_one_is_not_violated(self):
        # W/Q -> 0.99 < 1, so C2 holds; suprema in [1 - margin, 1) cannot
        # show a limit at or above 1
        model = CoefficientModel(q=power(1, 1), m=power(0.99, 1))
        reports = by_id(check_c_conditions(assemble_channel(model, 1, 0.0)))
        assert reports["C2"].verdict in (SATISFIED, INCONCLUSIVE)

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
        # 4 extreme windows (C1 and C2), 1 vanishing-coefficient probe and
        # 3 tail windows, each sample serving the gap floor and the quotients
        assert len(calls) == 8

    def test_model_grid_matches_each_channel(self):
        # one (q, m) sample per window, L and W per k and Q per lambda give
        # every cell the reports of its channel's own coefficients, with
        # and without usable gap windows
        ks, lams = [1, -2], [-1.0, 0.0, 2.0, 30.0]
        grid = check_c_conditions(MODULATED, ks, lams)
        assert list(grid) == [(k, lam) for k in ks for lam in lams]
        skipped = set()
        for (k, lam), reports in grid.items():
            own = check_c_conditions(assemble_channel(MODULATED, k, lam))
            assert [r.to_dict() for r in reports] == \
                [r.to_dict() for r in own], (k, lam)
            skipped.add(reports[-1].note.endswith("quotients skipped"))
        assert skipped == {True, False}
        # at lambda = 2 the gap floor changes sign along the ladder (about
        # -0.66, 1.00, 4.08): the quotients are read on the last two windows
        tw = [[250.0, 2500.0], [2500.0, 25000.0]]
        for k in ks:
            c3 = by_id(grid[k, 2.0])["C3"]
            minima = c3.evidence["q_minus_w_window_minima"]
            assert minima[0] < 0.0 < minima[1] < minima[2], k
            assert c3.windows == tw
            for name in ("w", "m", "l"):
                key = f"{name}_over_q_minus_w_rung_variations"
                assert len(c3.evidence[key]) == 2

    def test_model_grid_samples_q_and_m_once_per_window(self, monkeypatch):
        seen = []
        value = CoefficientFunction.value

        def counting(self, r):
            seen.append((id(self), np.size(r), float(r[0]), float(r[-1])))
            return value(self, r)

        monkeypatch.setattr(CoefficientFunction, "value", counting)

        def evaluations(ks, lams):
            seen.clear()
            reports = check_c_conditions(LINEAR, ks, lams)
            assert all(by_id(r)["C3"].verdict == SATISFIED
                       for r in reports.values())
            return list(seen)

        one = evaluations([1], [0.0])
        assert evaluations([1, -1, 2, -2], [-1.0, 0.0, 0.5, 1.0, 2.0]) == one
        # q and m once on each grid: 4 extreme windows, the probe and 3 tail
        # windows
        assert len(one) == len(set(one)) == 2 * 8

    def test_gap_floor_reads_the_quotients_grid(self):
        # on the last default tail window the floor of Q - W is the minimum
        # over the window's 180,000-point grid, where the quotients are read
        ks, lams = [1, -2], [0.0, 2.0]
        grid = check_c_conditions(MODULATED, ks, lams)
        fine = np.linspace(2500.0, 25000.0, 180_000)
        q, m = MODULATED.q.value(fine), MODULATED.m.value(fine)
        for (k, lam), reports in grid.items():
            c3 = reports[-1]
            assert "w_over_q_minus_w_rung_variations" in c3.evidence
            assert c3.windows[-1] == [2500.0, 25000.0]
            minima = c3.evidence["q_minus_w_window_minima"]
            assert minima[-1] == np.min((q - lam) - np.hypot(m, k / fine))

    def test_model_grid_skips_quotients_on_the_coarse_floors(self,
                                                              monkeypatch):
        # q = r, m = 0.17 r^1.2: Q - W is positive on [25, 250] and
        # [250, 2500] (floors about 17 and 122) but not on [2500, 25000]
        # (about -7209), so C3 is skipped
        model = CoefficientModel(q=power(1, 1), m=power(0.17, 1.2))
        sizes = []
        value = CoefficientFunction.value

        def counting(self, r):
            sizes.append(np.size(r))
            return value(self, r)

        monkeypatch.setattr(CoefficientFunction, "value", counting)
        ks, lams = [1, -2], [0.0, 1.0]
        grid = check_c_conditions(model, ks, lams)
        # q and m once on each grid: the 512-point probe, and 4 extreme and
        # 3 tail windows of 2048 geometric points each (a scale-free model)
        assert sizes.count(2048) == 2 * 7 and len(sizes) == 2 * 8
        monkeypatch.undo()
        fine = np.geomspace(2500.0, 25000.0, 2048)
        q, m = model.q.value(fine), model.m.value(fine)
        for (k, lam), reports in grid.items():
            c3 = reports[-1]
            assert c3.condition_id == "C3" and c3.verdict == INCONCLUSIVE
            assert c3.note == ("Q - W not positive on the tail; "
                               "quotients skipped")
            assert list(c3.evidence) == ["q_minus_w_window_minima"]
            minima = c3.evidence["q_minus_w_window_minima"]
            assert minima[0] > 0.0 and minima[1] > 0.0
            assert minima[2] == np.min((q - lam) - np.hypot(m, k / fine))

    def test_single_quotient_form_on_a_grid(self):
        # with m == 0 every cell reads C3' on L/(Q - L) = k/(r (r - lam) - k),
        # monotone on each tail window: its variation there is the
        # difference of its end values
        model = CoefficientModel(q=power(1, 1), m=constant(0))
        grid = check_c_conditions(model, [1, -2, 3], [-1.0, 0.5])
        assert len(grid) == 6
        for (k, lam), reports in grid.items():
            c3 = by_id(reports)["C3'"]
            assert c3.verdict == SATISFIED

            def quotient(r):
                return k / (r * (r - lam) - k)

            expect = [abs(quotient(b) - quotient(a)) for a, b in c3.windows]
            assert np.allclose(
                c3.evidence["l_over_q_minus_l_rung_variations"], expect,
                rtol=1e-9, atol=0.0), (k, lam)

    def test_model_form_is_read_off_m_on_the_whole_probe(self):
        # m is 0 up to r = 100, inside the probe span [25, 25000], and 1
        # from r = 200 on: every cell reads the general C3, as its lone
        # channel does, and k and -k share the reports of |k|
        m = coefficient("tabulated", grid=[1.0, 100.0, 200.0, 30_000.0],
                        values=[0.0, 0.0, 1.0, 1.0])
        model = CoefficientModel(q=power(1, 1), m=m)
        ks, lams = [1, -1, 2, -2], [-1.0, 0.5]
        grid = check_c_conditions(model, ks, lams)
        assert list(grid) == [(k, lam) for k in ks for lam in lams]
        for (k, lam), reports in grid.items():
            c3 = reports[-1]
            assert c3.condition_id == "C3" and c3.verdict == SATISFIED
            assert "w_over_q_minus_w_rung_variations" in c3.evidence
            own = check_c_conditions(assemble_channel(model, k, lam))
            assert [r.to_dict() for r in reports] == \
                [r.to_dict() for r in own], (k, lam)
            assert reports is grid[-k, lam]

    MIRRORED = {
        "power": LINEAR,
        "modulated": MODULATED,
        "sum": CoefficientModel(
            q=coefficient("sum", terms=[power(1, 1), power(0.5, 0.5)]),
            m=coefficient("sum", terms=[constant(0.5),
                                        coefficient("modulated", a=1, b=0.5,
                                                    omega=1, c=1, p=0)])),
        "tabulated": CoefficientModel(q=_tabulated_without_derivative(),
                                      m=constant(1)),
    }

    @pytest.mark.parametrize("name", list(MIRRORED))
    @pytest.mark.parametrize("ks", [[1, -1, -2, 2], [-1, -3], [2, -2, 2, -1]])
    def test_mirrored_grid_matches_each_channel(self, name, ks):
        # with m not identically 0 a grid reduces each (|k|, lambda) once;
        # every cell still equals the one-cell check of its own channel,
        # which reduces k itself
        model = self.MIRRORED[name]
        lams = [-1.0, 2.0]
        grid = check_c_conditions(model, ks, lams)
        assert list(grid) == [(k, lam) for k in dict.fromkeys(ks)
                              for lam in lams]
        for (k, lam), reports in grid.items():
            own = check_c_conditions(assemble_channel(model, k, lam))
            assert [r.to_dict() for r in reports] == \
                [r.to_dict() for r in own], (k, lam)

    @pytest.mark.parametrize("m, reduced", [(constant(1), [1, 2]),
                                            (constant(0), [1, -1, 2, -2])])
    def test_general_form_reduces_each_abs_k_once(self, monkeypatch, m,
                                                  reduced):
        # one C3 reduction per (|k|, lambda) and tail window in the general
        # form; C3' on L/(Q - L) reads the sign of k, so m == 0 reduces
        # every (k, lambda)
        ks, lams = [1, -1, 2, -2], [-1.0, 0.0, 0.5]
        seen = []
        quotients = hypotheses.EnvelopeForm.quotients

        def counting(form, Q, M, L, W, gap, out):
            # q = r on a uniform window grid: k = L r, and r[0] is the step
            # Q[1] - Q[0] over L[0]/L[1] - 1
            seen.append(round(float(L[0] * L[1] * (Q[1] - Q[0])
                                    / (L[0] - L[1]))))
            return quotients(form, Q, M, L, W, gap, out)

        monkeypatch.setattr(hypotheses.EnvelopeForm, "quotients", counting)
        grid = check_c_conditions(CoefficientModel(q=power(1, 1), m=m),
                                  ks, lams)
        for reports in grid.values():
            assert reports[-1].verdict == SATISFIED
            assert len(reports[-1].windows) == 3
        assert seen == [k for _ in range(3) for k in reduced
                        for _ in lams]

    @staticmethod
    def dipping_channel(dip):
        # Q - W dips below zero at the one radius `dip`
        class DippingChannel:
            def coeffs(self, r):
                Q = np.where(r == dip, 0.5, r)
                M, L = np.ones_like(r), 1.0 / r
                return Q, M, L, np.hypot(M, L)

        return DippingChannel()

    def test_gap_dip_between_floor_nodes_skips_quotients(self):
        # the dip is a node of the last tail window's 180,000-point grid
        # that a grid capped at 100,000 points misses; the quotients must
        # not be read across it
        dip = np.linspace(2500.0, 25000.0, 180_000)[90_001]
        assert not np.isin(dip, np.linspace(2500.0, 25000.0, 100_000))
        reports = by_id(check_c_conditions(self.dipping_channel(dip)))
        assert reports["C1"].verdict == SATISFIED
        assert reports["C2"].verdict == SATISFIED
        c3 = reports["C3"]
        assert c3.verdict == INCONCLUSIVE
        assert c3.note == "Q - W not positive on the tail; quotients skipped"
        minima = c3.evidence["q_minus_w_window_minima"]
        assert minima[0] > 0.0 and minima[1] > 0.0
        assert minima[2] == 0.5 - np.hypot(1.0, 1.0 / dip)

    def test_gap_dip_in_an_inner_window_drops_that_window(self):
        # the dip is a node of the middle tail window's 18,000-point grid,
        # past the extreme windows: that window leaves the ladder as a
        # window with a dip on the gap floor's grid would, and the
        # quotients are read on the other two
        dip = np.linspace(250.0, 2500.0, 18_000)[9_000]
        assert TAIL_WINDOWS[1] == (250.0, 2500.0)
        assert EXTREME_WINDOWS[-1][1] < dip
        reports = by_id(check_c_conditions(self.dipping_channel(dip)))
        assert reports["C1"].verdict == SATISFIED
        assert reports["C2"].verdict == SATISFIED
        c3 = reports["C3"]
        assert c3.windows == [list(TAIL_WINDOWS[i]) for i in (0, 2)]
        minima = c3.evidence["q_minus_w_window_minima"]
        assert minima[1] == 0.5 - np.hypot(1.0, 1.0 / dip)
        assert minima[0] > 0.0 and minima[2] > 0.0
        for name in ("w", "m", "l"):
            variations = c3.evidence[f"{name}_over_q_minus_w_rung_variations"]
            assert len(variations) == 2 and all(map(np.isfinite, variations))
        assert c3.verdict == SATISFIED

    def test_overflowing_gap_is_not_read_as_a_sign(self):
        # q = e^r overflows on the last tail window, where Q - W is +inf:
        # still no quotients there, but the note names the overflow; the
        # report writes that floor as null
        model = CoefficientModel(q=coefficient("exp", c=1, a=1),
                                 m=constant(1))
        c3 = by_id(check_c_conditions(model, [1], [1.0])[1, 1.0])["C3"]
        assert c3.verdict == INCONCLUSIVE
        assert c3.note == ("Q - W not finite (overflow) on the tail; "
                           "quotients skipped")
        minima = c3.evidence["q_minus_w_window_minima"]
        assert 0.0 < minima[0] < minima[1] < np.inf and minima[2] == np.inf
        assert _finite(c3.to_dict())["evidence"] == {
            "q_minus_w_window_minima": [minima[0], minima[1], None]}
        # q = m = e^r: a zero floor, then inf - inf
        c3 = by_id(check_c_conditions(EQUAL_EXP, [1], [-1.0])[1, -1.0])["C3"]
        assert c3.verdict == INCONCLUSIVE
        assert c3.note == ("Q - W not positive or not finite (overflow) on "
                           "the tail; quotients skipped")

    def test_work_arrays_live_for_one_call(self):
        ks, lams = [1, -2], [-1.0, 0.0, 2.0]
        check_c_conditions(MODULATED, ks, lams)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_c_conditions(MODULATED, ks, lams)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one tail window's work arrays alone take several MB
        assert peak - before > 4 * 2 ** 20
        assert after - before < 2 ** 20

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

    def test_windows_with_a_gamma_dip_are_skipped(self):
        # q = m = r except at one node of the [250, 2500] window grid, where
        # q = -5 and gamma = 2q + 1 < 0; a coarser positivity grid misses
        # the node, and G1 and G2 would read nan on that window
        dip = np.linspace(250.0, 2500.0, 18_000)[7777]

        class Line:
            # q = m = r, a duck-typed coefficient: it keeps the linear
            # window grid, whose [250, 2500] window holds the dip's node
            family = "tabulated"

            def value(self, r):
                return r * 1.0

            def derivative(self, r):
                return np.ones_like(r)

        class DippedLine(Line):
            def value(self, r):
                return np.where(r == dip, -5.0, r)

        line = DippedLine()
        reports = by_id(gamma_diagnostics(SimpleNamespace(q=line, m=line),
                                          -1.0))
        # the reference, q = m = r without the dip, on the same grids
        exact = by_id(gamma_diagnostics(SimpleNamespace(q=Line(), m=Line()),
                                        -1.0))
        for cid, key in (("G1", "rung_variations"),
                         ("G2", "rung_integrals")):
            assert reports[cid].windows == [[25.0, 250.0],
                                            [2500.0, 25000.0]]
            values = reports[cid].evidence[key]
            assert np.all(np.isfinite(values))
            assert np.allclose(values, np.asarray(exact[cid].evidence[key])
                               [[0, 2]], rtol=1e-9, atol=0.0)
            assert reports[cid].verdict == SATISFIED

    def test_rejects_gamma_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_diagnostics(EQUAL_LINEAR, 1e9)


def _fixture_grid(name):
    """The model, k_set and lambda_grid of a fixture config."""
    cfg = load_config(fixture_path(name))
    return cfg.model, cfg.k_set, cfg.lambda_grid


class TestOnePass:
    """`check_hypotheses` reads every condition of a model in one pass over
    each ladder; each report must equal the one its own check makes."""

    @staticmethod
    def standalone(model, ks, lams):
        reports = check_a_conditions(model, lams)
        if model.m.has_derivative and model.q.has_derivative:
            reports += check_derivative_sufficiency(model)
        if models_equal(model)[0]:
            reports += check_b_conditions(model)
            # G reads the first lambda that gamma_diagnostics accepts
            for lam in lams:
                try:
                    reports += gamma_diagnostics(model, lam)
                    break
                except ValueError:
                    continue
        return reports, check_c_conditions(model, ks, lams)

    def assert_matches(self, model, ks, lams):
        reports, channels = check_hypotheses(model, ks, lams)
        expect, expect_channels = self.standalone(model, ks, lams)
        assert [r.to_dict() for r in reports] == \
            [r.to_dict() for r in expect]
        assert list(channels) == list(expect_channels)
        for cell, creps in channels.items():
            assert [r.to_dict() for r in creps] == \
                [r.to_dict() for r in expect_channels[cell]], cell
        return reports

    @pytest.mark.parametrize("name", ["dominant_linear", "modulated_quarter",
                                      "sqrt_periodic", "borderline_linear"])
    def test_golden_fixtures(self, name):
        self.assert_matches(*_fixture_grid(name))

    def test_equal_power_model(self):
        model = CoefficientModel(q=power(1.3, 1), m=power(1.3, 1))
        reports = by_id(self.assert_matches(model, [1, -2], [-1.0, 0.5]))
        assert {"B1", "B2", "B2'", "G1", "G2", "G3"} <= set(reports)

    def test_gamma_falls_back_to_the_next_lambda(self):
        # 2q - 1e4 is positive on the last tail window only, so G reads
        # lambda = 300, on the last two, in the same pass
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        reports = by_id(self.assert_matches(model, [1], [1e4, 300.0, -1.0]))
        assert reports["G1"].windows == [[250.0, 2500.0], [2500.0, 25000.0]]

    def test_gamma_skipped_when_no_lambda_leaves_two_windows(self):
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        reports = by_id(self.assert_matches(model, [1], [1e4, 1e5]))
        assert "B2" in reports and "G1" not in reports

    @pytest.mark.parametrize("wrap", [False, True])
    def test_tabulated_without_derivative(self, wrap):
        # the bare tabulated data and a sum holding it both have no
        # derivative, so neither gets D reports
        line = _tabulated_without_derivative()
        if wrap:
            line = coefficient("sum", terms=[line])
        model = CoefficientModel(q=line, m=line)
        reports = by_id(self.assert_matches(model, [1, -2], [-1.0, 0.5]))
        assert reports["A4"].note == "mass coefficient has no usable derivative"
        assert reports["B2"].note == "derivative unavailable"
        assert not any(cid.startswith("D") for cid in reports)
        assert "G1" not in reports

    # the fixture models, and the seed-1 model of the dominant_certify
    # benchmark workload, with their grids
    SCAN_MODELS = {
        **{name: _fixture_grid(name)
           for name in ("dominant_linear", "modulated_quarter",
                        "sqrt_periodic", "borderline_linear")},
        "dominant_certify seed 1": (
            CoefficientModel(q=power(0.810281, 1.0), m=power(1.087803, 0.0)),
            [-2, -1, 1, 2], [-0.6677, -0.1323, 0.8077]),
    }

    @pytest.mark.parametrize("name", SCAN_MODELS)
    def test_scan_pass_matches_its_references(self, name):
        # the model reports of `check_scan` are A's on the sorted distinct
        # lambdas (B's when m == q), and its C reports those of
        # `check_c_conditions` on each |k|-pair chunk of a scan
        model, ks, lams = self.SCAN_MODELS[name]
        reports, channels = check_scan(model, ks, lams)
        lams = sorted(set(lams))
        if models_equal(model)[0]:
            expect = check_b_conditions(model)
            assert channels is None
        else:
            expect = check_a_conditions(model, lams)
            chunks = {}
            for size in sorted({abs(k) for k in ks}):
                chunks.update(check_c_conditions(
                    model, sorted(k for k in ks if abs(k) == size), lams))
            assert sorted(channels) == sorted(chunks)
            for cell, creps in chunks.items():
                assert [r.to_dict() for r in channels[cell]] == \
                    [r.to_dict() for r in creps], cell
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in expect]

    @pytest.mark.parametrize("name", SCAN_MODELS)
    def test_trichotomy_probe_is_a3(self, name):
        # the probe's variations and trends are A3's, bit for bit
        model, _, lams = self.SCAN_MODELS[name]
        probe = lambda_trichotomy_probe(model, lams)
        a3 = [r for r in check_a_conditions(model, lams)
              if r.condition_id.startswith("A3")]
        assert len(a3) == len(probe.entries) == len(lams)
        for entry, report in zip(probe.entries, a3):
            rungs = report.evidence["rung_variations"]
            assert (entry["variations"] is None) == (rungs is None)
            if rungs is not None:
                assert np.asarray(entry["variations"]).tobytes() == \
                    np.asarray(rungs).tobytes()
            assert entry["trend"] == report.evidence["trend"]

    def test_work_arrays_live_for_one_call(self):
        # on the linear grid, whose last tail window has 180,000 points
        model = duck(CoefficientModel(q=power(1.1, 0.8), m=constant(0.9)))
        ks, lams = [1, -2], [-1.0, 0.0, 2.0]

        def memory(check):
            check(model, ks, lams)  # first-call allocations
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                check(model, ks, lams)
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return after - before, peak - before

        kept, peak = memory(check_hypotheses)
        c_kept, c_peak = memory(check_c_conditions)
        assert kept < 2 ** 20
        # the derivative arrays die before the C work arrays are made: one
        # window's arrays at a time, at most one 180,000-point array above
        # the C checks alone
        assert peak <= c_peak + 180_000 * 8


def _sum(*terms):
    return coefficient("sum", terms=list(terms))


_LOG, _EXP = coefficient("log", c=3), coefficient("exp", c=1, a=1e-3)
_WAVE = coefficient("modulated", a=2, b=1, omega=1, c=1, p=0)
_TABLE = coefficient("tabulated", grid=list(np.geomspace(0.5, 3e4, 60)),
                     values=list(np.geomspace(0.5, 3e4, 60)))


class TestWindowGrids:
    """A scale-free source is sampled on 2048 geometric points a window,
    anything else on the linear grid of 8 points per unit length."""

    SCALE_FREE = {
        "power": LINEAR,
        "log": CoefficientModel(q=_LOG, m=coefficient("log", c=1)),
        "exp": CoefficientModel(q=_EXP, m=coefficient("exp", c=1, a=-0.01)),
        "sum": CoefficientModel(q=_sum(power(1, 1), _LOG),
                                m=_sum(constant(1), _EXP)),
        "channel": ChannelSystem(LINEAR, 1, 0.5),
        "constant": ConstantChannel(5.0, 1.0, 1.0),
    }
    LINEAR_GRID = {
        "modulated": MODULATED,
        "tabulated": CoefficientModel(q=_TABLE, m=constant(1)),
        "sum with modulated": CoefficientModel(q=_sum(power(1, 1), _WAVE),
                                               m=constant(1)),
        "sum with tabulated": CoefficientModel(q=_sum(power(1, 1), _TABLE),
                                               m=constant(1)),
        "duck-typed": CoefficientModel(q=Duck(power(1, 1)), m=constant(1)),
        "modulated channel": ChannelSystem(MODULATED, 1, 0.5),
        "duck-typed channel": SimpleNamespace(
            coeffs=ChannelSystem(LINEAR, 1, 0.5).coeffs),
    }

    @staticmethod
    def grids(monkeypatch, source):
        """The window grids of every check of `source`, the trichotomy
        probe of a model included."""
        grids = []

        def recording(fn, a, b, **kwargs):
            r, s = sample_window(fn, a, b, **kwargs)
            grids.append(r)
            return r, s

        monkeypatch.setattr(hypotheses, "sample_window", recording)
        monkeypatch.setattr(bvcalc, "sample_window", recording)
        if isinstance(source, CoefficientModel):
            check_hypotheses(source, [1, -2], [-1.0, 0.5])
            lambda_trichotomy_probe(source, [-1.0, 0.5])
            assert len(grids) == 4 + 3 + 3
        else:
            check_c_conditions(source)
            assert len(grids) == 4 + 3
        return grids

    @pytest.mark.parametrize("name", SCALE_FREE)
    def test_scale_free_sources_read_geometric_grids(self, name,
                                                     monkeypatch):
        for r in self.grids(monkeypatch, self.SCALE_FREE[name]):
            assert np.array_equal(r, np.geomspace(r[0], r[-1], 2048))

    @pytest.mark.parametrize("name", LINEAR_GRID)
    def test_other_sources_keep_the_linear_grid(self, name, monkeypatch):
        grids = self.grids(monkeypatch, self.LINEAR_GRID[name])
        for r in grids:
            assert np.array_equal(r, np.linspace(r[0], r[-1], r.size))
        assert np.array_equal(grids[-1],
                              np.linspace(2500.0, 25000.0, 180_000))

    @staticmethod
    def random_function(rng, family):
        c = float(rng.uniform(0.5, 2.0))
        if family == "power":
            return power(c, float(rng.uniform(0.0, 1.5)))
        if family == "log":
            return coefficient("log", c=c)
        if family == "exp":
            return coefficient("exp", c=c, a=float(rng.uniform(1e-4, 1e-3)))
        return _sum(power(c, float(rng.uniform(0.5, 1.5))),
                    coefficient("log", c=float(rng.uniform(0.5, 2.0))))

    @staticmethod
    def assert_close(geometric, linear, where):
        if isinstance(geometric, dict):
            assert list(geometric) == list(linear), where
            for key in geometric:
                TestWindowGrids.assert_close(geometric[key], linear[key],
                                             f"{where}.{key}")
        elif isinstance(geometric, list):
            assert len(geometric) == len(linear), where
            for i, (g, x) in enumerate(zip(geometric, linear)):
                TestWindowGrids.assert_close(g, x, f"{where}[{i}]")
        elif isinstance(geometric, float):
            assert geometric == pytest.approx(linear, rel=1e-4, abs=0.0), \
                where
        else:
            assert geometric == linear, where

    @pytest.mark.parametrize("q_family", ["power", "log", "exp", "sum"])
    def test_geometric_grid_agrees_with_the_linear_one(self, q_family):
        # q of each scale-free family, m drawn from all of them or equal to
        # q: every verdict, note and window list is the linear grid's, and
        # every evidence number is within 1e-4 of it
        rng = np.random.default_rng(["power", "log", "exp",
                                     "sum"].index(q_family) + 33)
        for m_family in ("power", "log", "exp", "sum", "equal"):
            q = self.random_function(rng, q_family)
            m = q if m_family == "equal" else self.random_function(
                rng, m_family)
            model = CoefficientModel(q=q, m=m)
            ks, lams = [1, -2], sorted(rng.uniform(-2.0, 2.0, 3).tolist())
            reports, channels = check_hypotheses(model, ks, lams)
            expect, expect_channels = check_hypotheses(duck(model), ks, lams)
            where = f"q {q.to_dict()}, m {m.to_dict()}"
            self.assert_close([r.to_dict() for r in reports],
                              [r.to_dict() for r in expect], where)
            assert list(channels) == list(expect_channels)
            for cell, creps in channels.items():
                self.assert_close([r.to_dict() for r in creps],
                                  [r.to_dict() for r in
                                   expect_channels[cell]], f"{where} {cell}")
