import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from diracspec.bvcalc import (
    SampledFunction,
    check_product_bound,
    check_quotient_bounds,
    cumulative_variation,
    jordan_decompose,
    sample_window,
    tail_trend,
    variation,
    window_variation,
)
from diracspec.cli import _bv_instances
from diracspec.coefficients import (
    CoefficientFunction,
    CoefficientModel,
    coefficient,
    constant,
    power,
)
from diracspec.hypotheses import lambda_trichotomy_probe


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        grid = np.arange(5.0)
        samples = np.array([2.0, 2.0, bad, 2.0, 2.0])
        with pytest.raises(ValueError, match="values must be finite"):
            SampledFunction(grid, samples)
        with pytest.raises(ValueError, match="derivative samples must be"):
            SampledFunction(grid, np.ones(5), deriv=samples)
        # a stack is refused for one bad sample in any row
        with pytest.raises(ValueError, match="values must be finite"):
            SampledFunction(np.stack([grid, grid]),
                            np.stack([np.ones(5), samples]))


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

    def test_nan_denominator_is_refused_not_a_counterexample(self):
        # NaN passes a test of g <= 0; it must be refused, not read as a
        # failed bound
        grid = np.arange(5.0)
        with pytest.raises(ValueError):
            check_quotient_bounds(
                SampledFunction(grid, np.full(5, 0.5)),
                SampledFunction(grid, np.array([2.0, 2.0, np.nan, 2.0, 2.0])))

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
        # q and m once per window; the q floor is read off the same sample
        assert len(calls) == single == 6

    def test_floor_read_on_the_fine_window_sample(self):
        # q = r except at one node of the [250, 2500] and one node of the
        # [2500, 25000] window grid, where q = 0.5 < lambda = 1; a coarser
        # positivity grid misses both nodes and the dips read as variation
        dips = [np.linspace(250.0, 2500.0, 18_000)[777],
                np.linspace(2500.0, 25_000.0, 180_000)[12_345]]

        class DippedLine:
            def value(self, r):
                return np.where(np.isin(r, dips), 0.5, r)

        model = SimpleNamespace(q=DippedLine(), m=constant(1))
        (entry,) = lambda_trichotomy_probe(model, [1.0]).entries
        assert entry["classification"] == "inconclusive"
        assert entry["note"] == "q - lambda not positive on the probe tail"
        assert entry["variations"] is None

    def test_work_arrays_live_for_one_call(self):
        model = CoefficientModel(
            q=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0.25),
            m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))
        lambda_trichotomy_probe(model, [0.0])  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lambda_trichotomy_probe(model, [-2.0, 0.0, 1.0, 2.0])
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the probe's last window holds 180,000 points (1.4 MB per array)
        assert peak - before > 2 ** 20
        assert after - before < 2 ** 20


class TestBufferedPrimitives:
    """window_variation writes into a caller-owned work array with the same
    ufuncs in the same order as the one-line reference form, so the results
    agree to the last bit, nonfinite entries included."""

    @staticmethod
    def samples(rng, n):
        v = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        special = rng.random(n) < rng.choice([0.0, 0.01, 0.2])
        v[special] = rng.choice([np.inf, -np.inf, np.nan], special.sum())
        return v

    @seed(271828)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5000))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_reference(self, draw, n):
        rng = np.random.default_rng(draw)
        v = self.samples(rng, n)
        # stale contents in the work array must not leak into the result
        work = rng.standard_normal(n - 1)

        def bits(value):
            return np.float64(value).tobytes()

        with np.errstate(all="ignore"):
            expect = bits(float(np.sum(np.abs(np.diff(v)))))
            assert bits(window_variation(v)) == expect
            assert bits(window_variation(v, out=work)) == expect


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


def instance_block(seed, count):
    """`count` seeded bv-verify instances, one row each."""
    return _bv_instances(np.random.default_rng(seed), count)


class TestStacks:
    """A stack of sampled functions (the last axis is the grid) gives, row
    by row, what each row gives alone."""

    @staticmethod
    def close(stacked, alone):
        assert stacked == pytest.approx(alone, rel=1e-12, abs=0.0, nan_ok=True)

    @pytest.mark.parametrize("seed, count", [(0, 16), (5, 7), (9, 1)])
    def test_product_rows(self, seed, count):
        grid, fv, fd, gv, _, _ = instance_block(seed, count)
        res = check_product_bound(SampledFunction(grid, fv, deriv=fd),
                                  SampledFunction(grid, gv))
        assert res.holds.shape == (count,)
        for i in range(count):
            one = check_product_bound(SampledFunction(grid[i], fv[i],
                                                      deriv=fd[i]),
                                      SampledFunction(grid[i], gv[i]))
            assert res.holds[i] == one.holds
            for name in ("lhs", "rhs", "sup_f", "var_g"):
                self.close(getattr(res, name)[i], getattr(one, name))
            # a Richardson difference of near-equal integrals
            assert abs(res.allowance[i] - one.allowance) <= \
                1e-12 * (one.rhs + one.allowance)

    @pytest.mark.parametrize("seed, count", [(1, 16), (6, 5)])
    def test_quotient_rows(self, seed, count):
        grid, _, _, _, gpos, f2 = instance_block(seed, count)
        # every other row past the precondition: sup |f| / g = 1.5
        f2 = np.where(np.arange(count)[:, None] % 2 == 1,
                      1.5 * gpos, f2)
        res = check_quotient_bounds(SampledFunction(grid, f2),
                                    SampledFunction(grid, gpos))
        assert list(res.precondition_met) == [i % 2 == 0
                                              for i in range(count)]
        for i in range(count):
            one = check_quotient_bounds(SampledFunction(grid[i], f2[i]),
                                        SampledFunction(grid[i], gpos[i]))
            for name in ("precondition_met", "lower_holds", "upper_holds",
                         "holds"):
                assert getattr(res, name)[i] == getattr(one, name)
            for name in ("eps", "var_fg", "var_f_over_g_minus_f"):
                self.close(getattr(res, name)[i], getattr(one, name))

    def test_jordan_and_variation_rows(self):
        grid, fv, _, gv, _, _ = instance_block(2, 8)
        stack = SampledFunction(grid[:, ::30], fv[:, ::30] + gv[:, ::30])
        gp, gm = jordan_decompose(stack)
        total = variation(stack)
        for i in range(8):
            row = SampledFunction(grid[i, ::30], fv[i, ::30] + gv[i, ::30])
            gp1, gm1 = jordan_decompose(row)
            assert np.array_equal(gp.values[i], gp1.values)
            assert np.array_equal(gm.values[i], gm1.values)
            self.close(total[i], variation(row))

    def test_any_leading_shape(self):
        grid = np.broadcast_to(np.linspace(0.0, 1.0, 101), (2, 3, 101))
        values = np.sin(np.arange(1.0, 7.0).reshape(2, 3, 1) * 7.0 * grid)
        f = SampledFunction(grid, values, deriv=np.zeros_like(values))
        res = check_product_bound(f, SampledFunction(grid, np.ones_like(grid)))
        assert res.lhs.shape == res.holds.shape == (2, 3)
        assert variation(f).shape == (2, 3)
        assert res.lhs[1, 2] == variation(SampledFunction(grid[1, 2],
                                                          values[1, 2]))
