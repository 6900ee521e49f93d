import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracspec.coefficients import (
    ChannelBatch,
    ChannelSystem,
    CoefficientModel,
    ConstantChannel,
    DomainError,
    MissingDerivativeError,
    assemble_channel,
    coefficient,
    constant,
    function_from_dict,
    model_from_dict,
    models_equal,
    power,
)
from diracspec import asymptotics, hypotheses, subordinacy
from diracspec.solver import Trajectory
from diracspec.subordinacy import TransformedChannel


def linear_model():
    return CoefficientModel(q=power(1, 1), m=constant(1))


def modulated_model():
    m = coefficient("modulated", a=2, b=1, omega=1, c=1, p=0)
    q = coefficient("modulated", a=2, b=1, omega=1, c=1, p=0.25)
    return CoefficientModel(q=q, m=m)


class TestEval:
    def test_linear_model_point(self):
        q, m = linear_model().q, linear_model().m
        assert (q.value(2.0), m.value(2.0), q.derivative(2.0),
                m.derivative(2.0)) == (2.0, 1.0, 1.0, 0.0)

    def test_origin_rejected(self):
        model = modulated_model()
        for evaluate in (model.q.value, model.m.value, model.q.derivative,
                         model.m.derivative):
            with pytest.raises(DomainError):
                evaluate(0.0)
        with pytest.raises(DomainError):
            model.q.value(-1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_radius_in_an_array_rejected(self, bad):
        model = modulated_model()
        channel = ChannelSystem(model, 1, -1.0)
        r = np.array([0.5, bad, 2.0])
        for evaluate in (model.q.value, model.m.value, model.q.derivative,
                         model.m.derivative, channel.coeffs):
            with pytest.raises(DomainError, match="radius grid"):
                evaluate(r)

    def test_empty_array_accepted(self):
        model = modulated_model()
        r = np.array([])
        for evaluate in (model.q.value, model.m.value, model.q.derivative,
                         model.m.derivative):
            assert evaluate(r).shape == (0,)
        assert all(part.shape == (0,)
                   for part in ChannelSystem(model, 1, -1.0).coeffs(r))

    def test_modulated_point(self):
        r = math.pi / 2
        model = modulated_model()
        assert model.m.value(r) == pytest.approx(3.0, abs=1e-14)
        assert model.q.value(r) == pytest.approx(r ** 0.25 * 3.0, rel=1e-14)

    def test_tabulated_interpolation_and_derivative(self):
        q = coefficient("tabulated", grid=[1.0, 2.0, 3.0], values=[1.0, 4.0, 9.0])
        assert q.value(2.0) == 4.0
        assert q.has_derivative
        # interpolant derivative against a centered difference of the
        # interpolant itself; h small enough that the curvature jump at the
        # knot contributes below tolerance
        h = 1e-7
        fd = (q.value(2.0 + h) - q.value(2.0 - h)) / (2 * h)
        assert q.derivative(2.0) == pytest.approx(fd, abs=1e-6)

    def test_tabulated_knots_exact(self):
        grid = [0.5, 1.25, 2.0, 7.5]
        values = [3.0, -1.0, 2.5, 0.125]
        q = coefficient("tabulated", grid=grid, values=values)
        for g, v in zip(grid, values):
            assert q.value(g) == v

    def test_nonsmooth_tabulated_has_no_derivative(self):
        q = coefficient("tabulated", grid=[1.0, 2.0], values=[1.0, 2.0],
                        derivative="none")
        assert not q.has_derivative
        for order in (1, 2):
            with pytest.raises(MissingDerivativeError):
                q.derivative(1.5, order=order)

    def test_sum_with_nonsmooth_term_has_no_derivative(self):
        rough = coefficient("tabulated", grid=[1.0, 2.0], values=[1.0, 2.0],
                            derivative="none")
        f = coefficient("sum", terms=[power(1, 1), rough])
        assert not rough.has_derivative and not f.has_derivative
        for order in (1, 2):
            with pytest.raises(MissingDerivativeError):
                f.derivative(1.5, order=order)
        assert f.value(1.5) == 3.0
        smooth = coefficient("sum", terms=[power(1, 1), coefficient("log", c=1)])
        assert smooth.has_derivative


class TestSecondDerivatives:
    """The second derivative of each family against mpmath.diff of the
    same function in extended precision."""

    RADII = (0.3, 1.7, 5.0, 23.0)

    @staticmethod
    def assert_matches(f, reference):
        mpmath = pytest.importorskip("mpmath")
        for r in TestSecondDerivatives.RADII:
            ref = float(mpmath.diff(reference, mpmath.mpf(r), 2))
            assert f.derivative(r, order=2) == pytest.approx(ref, rel=1e-13), r

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.25, 2.0])
    def test_modulated(self, p):
        mpmath = pytest.importorskip("mpmath")
        f = coefficient("modulated", a=2, b=1.5, omega=1.3, c=0.7, p=p)
        self.assert_matches(f, lambda r: (2 + 1.5 * mpmath.sin(1.3 * r))
                            * 0.7 * mpmath.power(r, p))

    def test_sum(self):
        mpmath = pytest.importorskip("mpmath")
        f = coefficient("sum", terms=[
            power(1.5, 0.5), coefficient("log", c=2),
            coefficient("exp", c=0.3, a=-0.1),
            coefficient("modulated", a=1, b=0.5, omega=2, c=1, p=1)])
        self.assert_matches(f, lambda r: (
            1.5 * mpmath.sqrt(r) + 2 * mpmath.log(1 + r)
            + 0.3 * mpmath.exp(-0.1 * r) + (1 + 0.5 * mpmath.sin(2 * r)) * r))

    def test_tabulated_interpolant(self):
        # on each grid interval the interpolant is the cubic Hermite
        # polynomial of the knot values and knot slopes
        mpmath = pytest.importorskip("mpmath")
        grid = [0.2, 1.0, 2.5, 4.0, 9.0, 30.0]
        f = coefficient("tabulated", grid=grid, values=[
            0.5, 1.5, 1.2, 3.0, 4.5, 20.0])

        def hermite(r):
            i = int(np.searchsorted(grid, float(r))) - 1
            x0, x1 = grid[i], grid[i + 1]
            h, t = x1 - x0, (r - x0) / (x1 - x0)
            y0, y1 = f.value(x0), f.value(x1)
            m0, m1 = f.derivative(x0), f.derivative(x1)
            return ((2 * t ** 3 - 3 * t ** 2 + 1) * y0
                    + (t ** 3 - 2 * t ** 2 + t) * h * m0
                    + (-2 * t ** 3 + 3 * t ** 2) * y1
                    + (t ** 3 - t ** 2) * h * m1)

        self.assert_matches(f, hermite)


class TestChannelAssembly:
    def test_linear_channel_point(self):
        ch = assemble_channel(linear_model(), k=1, lam=0.0)
        Q, M, L, W = ch.coeffs(2.0)
        assert (Q, M, L) == (2.0, 1.0, 0.5)
        assert W == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            assemble_channel(linear_model(), k=0, lam=0.0)

    @pytest.mark.parametrize("k", [0, 1.5, -0.5])
    def test_every_channel_class_refuses_k_alike(self, k):
        # one check for the plain, the batched and the rescaled channel
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        for build in (lambda: assemble_channel(model, k, -1.0),
                      lambda: ChannelBatch(model, k, [-1.0, -2.0]),
                      lambda: TransformedChannel(model, k, -1.0)):
            with pytest.raises(ValueError, match="^angular quantum number k "
                               "must be a nonzero integer$"):
                build()

    def test_integral_k_kept_as_int(self):
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        for channel in (assemble_channel(model, 2.0, -1.0),
                        TransformedChannel(model, 2.0, -1.0)):
            assert type(channel.k) is int and channel.k == 2
        # a batch keeps one int k per channel; one k serves them all
        ks = ChannelBatch(model, [2.0, np.int64(-3)], [-1.0, 0.5]).ks
        assert ks.dtype.kind == "i" and ks.tolist() == [2, -3]
        assert ChannelBatch(model, np.int64(2), [-1.0, 0.5]).ks.tolist() == \
            [2, 2]

    def test_equal_coefficients_channel_point(self):
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        ch = assemble_channel(model, k=1, lam=-1.0)
        Q, M, L, W = ch.coeffs(4.0)
        assert (Q, M, L) == (5.0, 4.0, 0.25)
        assert W == pytest.approx(math.sqrt(16.0625), rel=1e-15)

    def test_angular_term_exact_on_dyadic_radii(self):
        ch = assemble_channel(linear_model(), k=3, lam=0.5)
        r = 2.0 ** np.arange(-4, 12)
        _, _, L, _ = ch.coeffs(r)
        assert np.all(L * r == ch.k)

    @given(st.integers(-5, 5).filter(lambda k: k != 0),
           st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_lambda_enters_linearly(self, k, n1, n2):
        # dyadic spectral parameters and radii keep every subtraction exact,
        # so the identity is assertable bit-for-bit
        lam1, lam2 = n1 / 4.0, n2 / 4.0
        r = 2.0 ** np.arange(-2, 10, dtype=float)
        q1 = assemble_channel(linear_model(), k, lam1).coeffs(r)[0]
        q2 = assemble_channel(linear_model(), k, lam2).coeffs(r)[0]
        assert np.all(q1 - q2 == lam2 - lam1)

    @given(st.integers(-4, 4).filter(lambda k: k != 0),
           st.floats(-5, 5),
           st.floats(0.01, 500.0))
    @settings(max_examples=80, deadline=None)
    def test_w_is_pythagorean(self, k, lam, r):
        ch = assemble_channel(modulated_model(), k, lam)
        Q, M, L, W = ch.coeffs(r)
        assert W ** 2 == pytest.approx(M ** 2 + L ** 2, rel=1e-12)
        assert W >= abs(M) and W >= abs(L)


class TestSerialization:
    def test_round_trip(self):
        model = modulated_model()
        back = model_from_dict(model.to_dict())
        assert back.q.to_dict() == model.q.to_dict()
        assert back.m.to_dict() == model.m.to_dict()

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="'m'"):
            model_from_dict({"q": {"family": "power", "params": {"c": 1, "p": 1}}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            model_from_dict({"q": {"family": "power", "params": {"c": 1, "p": 1}},
                             "m": {"family": "power", "params": {"c": 1, "p": 0}},
                             "typo": 1})
        with pytest.raises(ValueError, match="unknown"):
            function_from_dict({"family": "power", "params": {"c": 1, "p": 1, "x": 2}})

    def test_tabulated_schema_from_builder(self):
        # grid and values are required; derivative defaults to the
        # interpolant and is written only when it is "none"
        with pytest.raises(ValueError, match=re.escape(
                "function.params: missing keys ['values']")):
            function_from_dict({"family": "tabulated",
                                "params": {"grid": [1.0, 2.0]}})
        with pytest.raises(ValueError, match=re.escape(
                "function.params: unknown keys ['slope'] for family "
                "'tabulated'")):
            function_from_dict({"family": "tabulated", "params": {
                "grid": [1.0, 2.0], "values": [1.0, 2.0], "slope": 1.0}})
        for mode, written in (("interpolant", {}), ("none", {"derivative": "none"})):
            f = coefficient("tabulated", grid=[1.0, 2.0], values=[1.0, 3.0],
                            derivative=mode)
            assert f.to_dict()["params"] == {"grid": [1.0, 2.0],
                                             "values": [1.0, 3.0], **written}
            assert function_from_dict(f.to_dict()).has_derivative == \
                (mode == "interpolant")

    def test_sum_family_round_trip(self):
        f = coefficient("sum", terms=[power(1, 1), constant(2)])
        back = function_from_dict(f.to_dict())
        assert back.value(3.0) == 5.0
        assert back.derivative(3.0) == 1.0


_PICKLE_GRID = np.geomspace(0.5, 40.0, 12)
PICKLED = {
    "power": power(1.3, 0.7),
    "log": coefficient("log", c=0.8),
    "modulated": coefficient("modulated", a=2, b=1, omega=1.7, c=1.1, p=0.25),
    "exp": coefficient("exp", c=1.3, a=0.2),
    "sum": coefficient("sum", terms=[power(1.3, 1.0),
                                     coefficient("log", c=0.8)]),
    "tabulated interpolant": coefficient(
        "tabulated", grid=list(_PICKLE_GRID), values=list(_PICKLE_GRID ** 1.1)),
    "tabulated none": coefficient(
        "tabulated", grid=list(_PICKLE_GRID), values=list(_PICKLE_GRID ** 1.1),
        derivative="none"),
}


def assert_same_function(back, f):
    r = np.geomspace(0.3, 60.0, 97)
    assert back.to_dict() == f.to_dict()
    assert back.has_derivative == f.has_derivative
    assert np.array_equal(back.value(r), f.value(r))
    if f.has_derivative:
        for order in (1, 2):
            assert np.array_equal(back.derivative(r, order=order),
                                  f.derivative(r, order=order))


class TestPickle:
    # a scan hands its model to worker processes pickled
    @pytest.mark.parametrize("name", list(PICKLED))
    def test_function_round_trip(self, name):
        f = PICKLED[name]
        assert_same_function(pickle.loads(pickle.dumps(f)), f)

    def test_model_round_trip(self):
        model = CoefficientModel(q=PICKLED["sum"],
                                 m=PICKLED["tabulated interpolant"])
        back = pickle.loads(pickle.dumps(model))
        assert isinstance(back, CoefficientModel)
        assert back.to_dict() == model.to_dict()
        assert_same_function(back.q, model.q)
        assert_same_function(back.m, model.m)


class TestModelEquality:
    def test_parametric_equal(self):
        model = CoefficientModel(q=power(1, 1), m=power(1, 1))
        eq, where = models_equal(model)
        assert eq and where is None

    def test_mismatch_located(self):
        eq, where = models_equal(modulated_model())
        assert not eq and where is not None

    @pytest.mark.parametrize("name", [
        "check_b_conditions", "gamma_diagnostics", "transform", "eigen_shoot",
        "second_order_check"])
    def test_borderline_entry_refuses_mismatch(self, name):
        # every m == q computation refuses a model with m != q in the words
        # of `require_equal`, at the first mismatch radius
        model = linear_model()
        grid = np.linspace(1.0, 5.0, 101)
        traj = Trajectory(grid=grid, u1=np.sin(grid), u2=np.cos(grid),
                          rho=np.ones_like(grid), theta=None,
                          mode="synthetic", channel=None)
        call = {
            "check_b_conditions": lambda: hypotheses.check_b_conditions(model),
            "gamma_diagnostics": lambda: hypotheses.gamma_diagnostics(model,
                                                                      -1.0),
            "transform": lambda: subordinacy.transform(model, 1, -1.0),
            "eigen_shoot": lambda: subordinacy.eigen_shoot(model, [1],
                                                           (0.0, 2.0)),
            "second_order_check": lambda: asymptotics.second_order_check(
                traj, model, 1, -1.0),
        }[name]
        where = models_equal(model)[1]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} needs m == q (first mismatch near r = {where:g})")):
            call()

    def test_identical_tabulated_equal(self):
        rr = np.geomspace(0.05, 2000.0, 50)
        q, m = (coefficient("tabulated", grid=list(rr), values=list(rr ** 2))
                for _ in range(2))
        assert models_equal(CoefficientModel(q=q, m=m)) == (True, None)

    def test_descriptors_differ_values_agree(self):
        # two sums whose tabulated terms differ only in derivative mode:
        # their descriptors differ, so the pointwise probe decides
        rr = np.geomspace(0.05, 2000.0, 50)
        q, m = (coefficient("sum", terms=[
            power(1, 1), coefficient("tabulated", grid=list(rr),
                                     values=list(np.sqrt(rr)), **mode)])
            for mode in ({}, {"derivative": "none"}))
        assert q.to_dict() != m.to_dict()
        assert models_equal(CoefficientModel(q=q, m=m)) == (True, None)

    def test_first_mismatch_radius(self):
        # m - q = 1e-15 e^(r/50) first exceeds the probe's tolerance at the
        # 62nd of its 64 radii
        m = coefficient("sum", terms=[power(1, 1),
                                      coefficient("exp", c=1e-15, a=0.02)])
        eq, where = models_equal(CoefficientModel(q=power(1, 1), m=m))
        assert not eq and where == np.geomspace(0.1, 1000.0, 64)[61]
        assert where == 746.4760408417113

    def test_tabulated_pointwise(self):
        rr = np.linspace(1, 10, 40)
        tab = coefficient("tabulated", grid=list(rr), values=list(rr))
        eq, _ = models_equal(CoefficientModel(q=tab, m=power(1, 1)),
                             rs=np.linspace(1, 10, 25))
        assert eq


class TestConstantChannel:
    def test_coeffs(self):
        ch = ConstantChannel(2.0, 1.0, 0.0)
        Q, M, L, W = ch.coeffs(np.array([1.0, 5.0]))
        assert np.all(Q == 2.0) and np.all(M == 1.0) and np.all(L == 0.0)
        assert np.all(W == 1.0)


# one function per family; those under CLOSE take a non-integer power, where
# a float's ** and numpy's array power may round differently
_GRID = np.geomspace(0.01, 500.0, 80)
EXACT = {
    "power p=0": power(1.3, 0.0),
    "power p=1": power(1.3, 1.0),
    "log": coefficient("log", c=0.8),
    "modulated p=0": coefficient("modulated", a=2, b=1, omega=1.7, c=1.1, p=0),
    "exp": coefficient("exp", c=1.3, a=0.9),
    "sum": coefficient("sum", terms=[power(1.3, 1.0), coefficient("log", c=0.8),
                                     coefficient("exp", c=1.3, a=0.9)]),
    "tabulated": coefficient("tabulated", grid=list(_GRID),
                             values=list(_GRID ** 1.1)),
}
CLOSE = {
    "power p=0.7": power(1.3, 0.7),
    "modulated p=0.25": coefficient("modulated", a=2, b=1, omega=1.7, c=1.1,
                                    p=0.25),
}


def scalar_and_vector(f):
    """For the plain and the rescaled channel of q = m = f, yields the
    channel and three rows of (Q, M, L) on 4,000 random radii: `scalar_qml`
    at each float radius, `coeffs` on the array of them, and the magnitude
    an ulp is taken of (L - k/r is a separate term of the rescaled L)."""
    r = np.exp(np.random.default_rng(0).uniform(math.log(0.01),
                                                math.log(400.0), 4000))
    model = CoefficientModel(q=f, m=f)
    # lambda = 0 makes Q = q; k = -1 keeps both terms of the rescaled L of
    # one sign
    for channel in (assemble_channel(model, 1, 0.0),
                    TransformedChannel(model, -1, -1.5)):
        vector = np.array(channel.coeffs(r)[:3])
        scalar = np.array([channel.scalar_qml(x) for x in r.tolist()]).T
        angular = channel.k / r
        scale = np.abs([vector[0], vector[1], angular])
        scale[2] += np.abs(vector[2] - angular)
        yield channel, scalar, vector, scale


class TestScalarAgreesWithVector:
    @pytest.mark.parametrize("name", list(EXACT))
    def test_bit_for_bit(self, name):
        for channel, scalar, vector, _ in scalar_and_vector(EXACT[name]):
            assert np.array_equal(scalar, vector), channel.label()

    @pytest.mark.parametrize("name", list(CLOSE))
    def test_non_integer_power_within_two_ulp(self, name):
        for channel, scalar, vector, scale in scalar_and_vector(CLOSE[name]):
            assert np.all(np.abs(scalar - vector) <= 2.0 * np.spacing(scale)), \
                channel.label()
