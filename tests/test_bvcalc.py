import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracspec.bvcalc import (
    SampledFunction,
    check_product_bound,
    check_quotient_bounds,
    cumulative_variation,
    jordan_decompose,
    lambda_trichotomy_probe,
    refinement_trend,
    sample_window,
    tail_trend,
    variation,
    variation_report,
)
from diracspec.coefficients import (
    CoefficientFunction,
    CoefficientModel,
    coefficient,
    constant,
    power,
)


def sampled(fn, a, b, n, dfn=None):
    g = np.linspace(a, b, n)
    d = None if dfn is None else dfn(g)
    return SampledFunction(g, fn(g), d)


class TestVariation:
    def test_sine_full_period(self):
        s = sampled(np.sin, 0.0, 2 * np.pi, 10 ** 4)
        assert variation(s) == pytest.approx(4.0, abs=1e-3)

    def test_monotone_reciprocal(self):
        for n in (2, 17, 5000):
            s = sampled(lambda r: 1.0 / r, 1.0, 10.0, n)
            assert variation(s) == pytest.approx(0.9, abs=1e-15)

    def test_oscillator_grows_under_refinement(self):
        trend, vs = refinement_trend(lambda r: r * np.sin(1.0 / r), 1e-6, 1e-2)
        assert trend == "growing"
        assert all(b > a for a, b in zip(vs, vs[1:]))

    def test_smooth_converges_under_refinement(self):
        trend, _ = refinement_trend(np.sin, 0.0, 2 * np.pi)
        assert trend == "converged"

    def test_refinement_monotonicity_on_nested_grids(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=513)
        grid = np.linspace(0, 1, 513)
        fine = SampledFunction(grid, vals)
        coarse = SampledFunction(grid[::2], vals[::2])
        assert variation(coarse) <= variation(fine)

    def test_subadditivity_at_grid_point(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0, 3, 301)
        vals = rng.normal(size=301)
        f = SampledFunction(grid, vals)
        left = SampledFunction(grid[:151], vals[:151])
        right = SampledFunction(grid[150:], vals[150:])
        total = variation(f)
        assert variation(left) + variation(right) == pytest.approx(
            total, rel=1e-12, abs=1e-12)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SampledFunction(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_report_fields(self):
        rep = variation_report(np.sin, 0.0, 2 * np.pi)
        assert rep.variation == pytest.approx(4.0, abs=1e-3)
        assert rep.refinement_trend == "converged"
        assert all(v >= 0 for _, v in rep.tail_windows)
        # tail windows shrink as the window shrinks
        tails = [v for _, v in rep.tail_windows]
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))


class TestJordan:
    def test_constant(self):
        f = SampledFunction(np.array([0.0, 1.0, 2.0]), np.full(3, 4.2))
        gp, gm = jordan_decompose(f)
        assert np.array_equal(gp.values, f.values)
        assert np.array_equal(gm.values, np.zeros(3))

    def test_hat(self):
        f = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        gp, gm = jordan_decompose(f)
        assert np.array_equal(gp.values, [0.0, 1.0, 1.0])
        assert np.array_equal(gm.values, [0.0, 0.0, 1.0])
        assert variation(f) == 2.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 100))
        f = SampledFunction(np.arange(n, dtype=float),
                            rng.normal(scale=rng.uniform(0.1, 10), size=n))
        gp, gm = jordan_decompose(f)
        scale = 1.0 + np.max(np.abs(f.values))
        assert np.all(np.diff(gp.values) >= 0)
        assert np.all(np.diff(gm.values) >= 0)
        assert np.max(np.abs(gp.values - gm.values - f.values)) <= 1e-12 * scale
        telescoped = gp.values[-1] + gm.values[-1] - gp.values[0] - gm.values[0]
        assert telescoped == pytest.approx(variation(f), rel=1e-12, abs=1e-12)


class TestProductBound:
    def test_constant_f_is_equality(self):
        g = np.linspace(0, 5, 4001)
        f = SampledFunction(g, np.full_like(g, 3.0), deriv=np.zeros_like(g))
        gs = SampledFunction(g, np.sin(3 * g))
        res = check_product_bound(f, gs)
        assert res.holds
        assert res.lhs == pytest.approx(3.0 * res.var_g, rel=1e-12)
        assert res.rhs == pytest.approx(3.0 * res.var_g, rel=1e-12)

    def test_decaying_times_sine(self):
        res = check_product_bound(
            sampled(lambda r: 1 / (1 + r), 0.0, 10.0, 10 ** 4,
                    dfn=lambda r: -1 / (1 + r) ** 2),
            sampled(np.sin, 0.0, 10.0, 10 ** 4))
        assert res.holds
        assert res.lhs <= res.rhs + res.allowance
        # both sides stable under refinement (brute-force oracle)
        res2 = check_product_bound(
            sampled(lambda r: 1 / (1 + r), 0.0, 10.0, 4 * 10 ** 4,
                    dfn=lambda r: -1 / (1 + r) ** 2),
            sampled(np.sin, 0.0, 10.0, 4 * 10 ** 4))
        assert res2.holds
        assert res2.lhs == pytest.approx(res.lhs, rel=1e-3)

    def test_sine_times_monotone(self):
        res = check_product_bound(
            sampled(np.sin, 1.0, 100.0, 10 ** 5, dfn=np.cos),
            sampled(lambda r: 1.0 / r, 1.0, 100.0, 10 ** 5))
        assert res.holds
        assert res.sup_f == pytest.approx(1.0, abs=1e-6)

    def test_missing_derivative_rejected(self):
        g = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            check_product_bound(SampledFunction(g, g), SampledFunction(g, g))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_smooth_instances(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 8.0, 3001)
        a, b, w = rng.uniform(-2, 2, 3)
        c = rng.uniform(0.2, 3.0)

        fv = a + b * np.sin(w * grid) / (1 + c * grid)
        fd = (b * w * np.cos(w * grid) / (1 + c * grid)
              - b * c * np.sin(w * grid) / (1 + c * grid) ** 2)
        gv = rng.uniform(-2, 2) * np.cos(rng.uniform(0.1, 3) * grid)
        res = check_product_bound(SampledFunction(grid, fv, deriv=fd),
                                  SampledFunction(grid, gv))
        assert res.holds


class TestQuotientBounds:
    def test_zero_numerator(self):
        g = np.linspace(0, 1, 100)
        res = check_quotient_bounds(SampledFunction(g, np.zeros_like(g)),
                                    SampledFunction(g, np.ones_like(g)))
        assert res.holds
        assert res.var_fg == 0.0 and res.var_f_over_g_minus_f == 0.0

    def test_sine_over_two(self):
        g = np.linspace(0, 2 * np.pi, 10 ** 5)
        res = check_quotient_bounds(SampledFunction(g, np.sin(g)),
                                    SampledFunction(g, np.full_like(g, 2.0)))
        assert res.precondition_met
        assert res.eps == pytest.approx(0.5, abs=1e-9)
        assert res.var_fg == pytest.approx(2.0, abs=1e-8)
        # forced band for Var(f/(g-f)): [8/9, 8]; brute force gives 8/3
        assert 8.0 / 9.0 <= res.var_f_over_g_minus_f <= 8.0
        assert res.var_f_over_g_minus_f == pytest.approx(8.0 / 3.0, abs=1e-7)
        assert res.holds

    def test_precondition_violation_reported(self):
        g = np.linspace(0, 1, 50)
        res = check_quotient_bounds(SampledFunction(g, np.full_like(g, 2.0)),
                                    SampledFunction(g, np.ones_like(g)))
        assert not res.precondition_met
        assert res.holds is None

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 6.0, 2001)
        g = 1.5 + 0.4 * np.sin(rng.uniform(0.1, 4) * grid) + rng.uniform(0, 2)
        target_eps = rng.uniform(0.1, 0.8)
        raw = np.sin(rng.uniform(0.1, 5) * grid + rng.uniform(0, 7))
        f = raw * target_eps * np.min(g) / np.max(np.abs(raw))
        res = check_quotient_bounds(SampledFunction(grid, f),
                                    SampledFunction(grid, g))
        assert res.precondition_met and res.holds


class TestTrichotomyProbe:
    def test_constant_mass_always_convergent(self):
        model = CoefficientModel(q=power(1, 1), m=constant(1))
        probe = lambda_trichotomy_probe(model, [-1.0, 0.0, 1.0])
        assert [e["classification"] for e in probe.entries] == ["convergent"] * 3
        assert probe.pattern == "all"
        assert probe.consistent

    def test_modulated_split(self):
        model = CoefficientModel(
            q=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0.25),
            m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))
        probe = lambda_trichotomy_probe(model, [0.0, 1.0])
        by_lam = {e["lambda"]: e["classification"] for e in probe.entries}
        assert by_lam[0.0] == "convergent"
        assert by_lam[1.0] == "divergent"
        assert probe.pattern == "singleton"

    def test_zero_mass(self):
        model = CoefficientModel(q=power(1, 1), m=constant(0))
        probe = lambda_trichotomy_probe(model, [-2.0, 3.0])
        assert [e["classification"] for e in probe.entries] == ["convergent"] * 2

    def test_tail_not_positive_is_inconclusive(self):
        model = CoefficientModel(q=power(1, 1), m=constant(1))
        probe = lambda_trichotomy_probe(model, [1e9])
        assert probe.entries[0]["classification"] == "inconclusive"

    def test_one_sample_per_window_serves_every_lambda(self, monkeypatch):
        calls = []
        value = CoefficientFunction.value

        def counting(self, r):
            calls.append(np.size(r))
            return value(self, r)

        monkeypatch.setattr(CoefficientFunction, "value", counting)
        model = CoefficientModel(q=power(1, 1), m=constant(1))
        lambda_trichotomy_probe(model, [0.0])
        single = len(calls)
        calls.clear()
        lambda_trichotomy_probe(model, [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        # 3 positivity probes of q, then q and m once per window
        assert len(calls) == single == 9


class TestSampleWindow:
    def test_tuple_passes_through_uncopied(self):
        made = []

        def fn(r):
            made[:] = [2.0 * r, r + 1.0]
            return tuple(made)

        grid, out = sample_window(fn, 1.0, 3.0)
        assert isinstance(out, tuple) and len(out) == 2
        assert out[0] is made[0] and out[1] is made[1]
        assert grid.size == 2048


class TestTailTrend:
    def test_paths(self):
        assert tail_trend([1e-5, 1e-6, 1e-7]) == "converged"
        assert tail_trend([1.0, 0.5, 0.25]) == "converged"
        assert tail_trend([1.0, 2.5, 6.0]) == "growing"
        assert tail_trend([1.0, 1.0, 1.05]) == "flat"
        assert tail_trend([1.0, 0.7, 0.9]) == "inconclusive"
        assert tail_trend([1.0, np.nan, 2.0]) == "inconclusive"

    def test_cumulative_variation_matches_total(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=100)
        cum = cumulative_variation(vals)
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(
            variation(SampledFunction(np.arange(100.0), vals)), rel=1e-12)
