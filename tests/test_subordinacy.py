import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import ai_zeros

from diracspec import cli, subordinacy
from diracspec.coefficients import (
    ChannelSystem,
    CoefficientModel,
    assemble_channel,
    coefficient,
    constant,
    models_equal,
    power,
)
from diracspec.solver import (
    PreconditionError,
    SolveConfig,
    cumulative_norms,
    integrate_cartesian,
    propagate,
)
from diracspec.subordinacy import (
    TransformedChannel,
    _probe_q,
    _shoot_range,
    _turning_radius,
    decaying_direction,
    eigen_shoot,
    phase_band,
    subordinacy_ratio,
    transform,
)

from census_oracle import census_from_phase, polar_census

EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))
LINEAR = CoefficientModel(q=power(1, 1), m=constant(1))


def shoot(k, bracket, **kw):
    """The eigenvalues of channel k on q = m = r in `bracket`."""
    return [lam for _, lam in eigen_shoot(EQUAL, [k], bracket, **kw)]


class TestTransform:
    def test_point_values(self):
        tch = transform(EQUAL, 1, -1.0)
        assert tch.scale(4.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)
        Q, M, L, W = tch.coeffs(4.0)
        assert Q == pytest.approx(3.0, rel=1e-12)
        assert M == 0.0
        assert L == pytest.approx(1.0 / 4.0 - 2.0 / 36.0, rel=1e-12)
        assert W == abs(L)

    def test_constant_potential_keeps_angular_term(self):
        model = CoefficientModel(q=constant(3), m=constant(3))
        tch = transform(model, 2, -2.0)
        r = np.array([0.5, 1.0, 4.0])
        _, _, L, _ = tch.coeffs(r)
        assert np.allclose(L, 2.0 / r, rtol=0, atol=0)

    def test_nonnegative_lambda_rejected(self):
        with pytest.raises(ValueError):
            transform(EQUAL, 1, 0.5)
        with pytest.raises(ValueError):
            transform(EQUAL, 1, 0.0)

    def test_round_trip_maps(self):
        tch = transform(EQUAL, 1, -2.0)
        rng = np.random.default_rng(5)
        r = rng.uniform(0.5, 50.0, 64)
        u1, u2 = rng.normal(size=(2, 64))
        v1, v2 = tch.forward(r, u1, u2)
        b1, b2 = tch.inverse(r, v1, v2)
        assert np.max(np.abs(b1 - u1)) <= 1e-12 * np.max(np.abs(u1))
        assert np.max(np.abs(b2 - u2)) <= 1e-12 * np.max(np.abs(u2))

    def test_two_path_solution_agreement(self):
        # solve the original components, map them, and compare against a
        # direct solve of the rescaled system from the mapped initial data
        lam, k = -1.0, 1
        ch = assemble_channel(EQUAL, k, lam)
        tch = transform(EQUAL, k, lam)
        cfg = SolveConfig(r_start=1.0, r_end=40.0, rtol=1e-12)
        orig = integrate_cartesian(ch, [1.0, 0.5], cfg)
        v1, v2 = tch.forward(orig.grid, orig.u1, orig.u2)
        v0 = tch.forward(1.0, 1.0, 0.5)
        direct = integrate_cartesian(tch, [v0[0], v0[1]], cfg)
        scale = np.max(np.hypot(v1, v2))
        assert np.max(np.hypot(direct.u1 - v1, direct.u2 - v2)) < 1e-6 * scale

    def test_ratio_diagnostic_decays(self):
        tch = transform(EQUAL, 1, -1.0)
        first = np.linspace(25.0, 50.0, 512)
        last = np.linspace(200.0, 400.0, 512)

        def ratio(r):
            Q, _, L, _ = tch.coeffs(r)
            return np.abs(L) / Q

        assert np.max(ratio(last)) < np.max(ratio(first))
        assert np.max(ratio(last)) < 0.5


class TestCensus:
    def test_uniform_phase(self):
        s = np.linspace(0.0, 40.0, 4001)
        cen = census_from_phase(s, s)  # unit speed starting at theta = 0
        assert cen.violations == []
        assert np.allclose(cen.J_lengths, math.pi / 2, atol=1e-9)
        assert np.allclose(cen.K_lengths, math.pi / 2, atol=1e-9)

    @pytest.mark.parametrize("theta", [[0.0, 1.0, 1.0, 2.0],
                                       [0.0, 2.0, 1.0, 3.0]])
    def test_phase_not_increasing_refused(self, theta):
        with pytest.raises(PreconditionError,
                           match="phase must be strictly increasing"):
            census_from_phase(np.arange(4.0), theta)

    def test_extremal_synthetic_envelope(self):
        # dTheta/ds = 1 + sin(2 Theta)/2 is the extreme phase law allowed by
        # the census guard
        sol = solve_ivp(lambda s, y: [1.0 + 0.5 * math.sin(2.0 * y[0])],
                        (0.0, 120.0), [0.0], method="DOP853", rtol=1e-11,
                        atol=1e-13, t_eval=np.linspace(0, 120, 24001))
        cen = census_from_phase(sol.t, sol.y[0])
        assert cen.violations == []
        assert min(cen.J_lengths + cen.K_lengths) >= math.pi / 3 - 1e-6
        assert max(cen.J_lengths + cen.K_lengths) <= math.pi + 1e-6

    def test_band_edges_match_per_band_reference(self):
        # the bands n = n_lo .. n_hi one at a time, edges (4n-3, 4n-1, 4n+1)
        # pi/4 interpolated into s; the census reads all edges at once and
        # must give the same floats
        rng = np.random.default_rng(31)
        for n in (2, 3, 40, 400):
            theta = np.cumsum(rng.uniform(1e-3, 0.5, n)) + rng.uniform(-9, 9)
            s = np.cumsum(rng.uniform(1e-3, 0.6, n))
            cen = census_from_phase(s, theta)
            n_lo = math.ceil((theta[0] * 4.0 / math.pi + 3.0) / 4.0)
            n_hi = math.floor((theta[-1] * 4.0 / math.pi - 1.0) / 4.0)
            J, K, first = [], [], []
            for band in range(n_lo, n_hi + 1):
                edges = np.array([4 * band - 3, 4 * band - 1, 4 * band + 1])
                sj = np.interp(edges * math.pi / 4.0, theta, s)
                J.append(float(sj[1] - sj[0]))
                K.append(float(sj[2] - sj[1]))
                first.append(float(sj[0]))
            assert cen.ns == list(range(n_lo, n_hi + 1))
            assert (cen.J_lengths, cen.K_lengths) == (J, K)
            assert cen.s_offset == (first[0] if first else 0.0)

    def test_borderline_channel_census(self):
        cen = polar_census(EQUAL, 1, -1.0, 1.0, 33.0)
        assert cen.ns[-1] >= 50
        assert cen.violations == []
        lengths = cen.J_lengths + cen.K_lengths
        assert min(lengths) >= math.pi / 3
        assert max(lengths) <= math.pi

    def test_guard_refused_with_radius(self):
        # |L|/Q = 2.4 at r0 = 0.3
        with pytest.raises(PreconditionError,
                           match=r"exceeds 0\.5 at r = 0\.3;"):
            phase_band(EQUAL, 1, -1.0, 0.3, 10.0)


def guarded_radius(model, k, lam):
    """r1: the first radius of a 4000-point geometric probe of [0.05, 50]
    past which |L|/Q <= 1/2 on the rescaled channel."""
    probe = np.geomspace(0.05, 50.0, 4000)
    Q, _, L, _ = transform(model, k, lam).coeffs(probe)
    bad = np.flatnonzero(np.abs(L) / Q > 0.5)
    return float(probe[bad[-1] + 1]) if bad.size else float(probe[0])


def _band_cells():
    """(model, k, lambda, r_end) of the band test, r_end None for 60 units
    past r1: the 16 cells of q = m = r; the lambda < 0 cells of the
    borderline_linear fixture, to its subordinacy r_end; and those of the
    seed 1-3 borderline_spectrum bench configs (q = m = c r), to theirs."""
    cells = [pytest.param(EQUAL, k, lam, None, id=f"r-k={k}-lambda={lam:g}")
             for k in (-2, -1, 1, 2) for lam in (-0.5, -1.0, -2.0, -4.0)]
    fixture = cli.load_config(cli.fixture_path("borderline_linear"))
    cells += [pytest.param(fixture.model, k, lam, fixture.subordinacy["r_end"],
                           id=f"fixture-k={k}-lambda={lam:g}")
              for k in fixture.k_set for lam in fixture.lambda_grid if lam < 0]
    for seed, c, lam, r_end in ((1, 0.810281, -2.0704, 44.436737),
                                (2, 1.300028, -2.6224, 35.081943),
                                (3, 0.860049, -2.133, 43.131881)):
        model = CoefficientModel(q=power(c, 1), m=power(c, 1))
        cells += [pytest.param(model, k, lam, r_end,
                               id=f"bench-seed{seed}-k={k}")
                  for k in (-1, 1)]
    return cells


class TestPhaseBand:
    @pytest.mark.parametrize("model, k, lam, r_end", _band_cells())
    def test_band_holds_every_census_length(self, model, k, lam, r_end):
        r1 = guarded_radius(model, k, lam)
        r_end = r1 + 60.0 if r_end is None else r_end
        band = phase_band(model, k, lam, r1, r_end)
        assert (band["r0"], band["r_end"]) == (r1, r_end)
        assert 0.0 < band["g"] <= 0.5
        cen = polar_census(model, k, lam, r1, r_end)
        lengths = cen.J_lengths + cen.K_lengths
        assert len(lengths) >= 40
        lo, hi = band["band"]
        assert lo <= min(lengths) and max(lengths) <= hi

    def test_bench_fixture_cell_refused(self):
        # the cell whose refusal the bench uses as its raising invocation:
        # borderline_linear at k = 1, lambda = -0.25, from r0 = 1
        with pytest.raises(PreconditionError,
                           match=r"exceeds 0\.5 at r = 1;"):
            phase_band(EQUAL, 1, -0.25, 1.0, 120.0)


def dop853_norms(batch, U0, nodes, rtol):
    """Reference for `cumulative_norms` on a `ChannelBatch`: one I a
    channel, from `dop853_pair` at its own rtol."""
    rtol = np.broadcast_to(rtol, (len(batch),))
    return [dop853_pair(assemble_channel(batch.model, k, lam), *args)
            for k, lam, *args in zip(batch.ks.tolist(), batch.lams.tolist(),
                                     U0, nodes, rtol.tolist())]


def dop853_pair(channel, U0, nodes, rtol):
    """The weighted Pruefer pair, (theta, ln rho, I) for both columns of U0
    by DOP853 on the scalar coefficients, with I read at nodes[1:].  For
    m == q and lambda < 0 it runs on the rescaled channel, where |u|^2 =
    sqrt(Lambda/gamma) v1^2 + sqrt(gamma/Lambda) v2^2."""
    model, lam = channel.model, channel.lam
    rescaled = lam < 0.0 and models_equal(model)[0]
    if rescaled:
        channel = transform(model, channel.k, lam)
    inits = []
    for u1, u2 in np.transpose(U0):
        if rescaled:
            u1, u2 = channel.forward(nodes[0], u1, u2)
        inits.extend((math.atan2(u2, u1), math.log(math.hypot(u1, u2)), 0.0))

    def rhs(r, y):
        Q, M, L = channel.scalar_qml(r)
        wa = wb = 1.0
        if rescaled:
            wb = math.sqrt((2.0 * model.q.value(r) - lam) / channel.Lambda)
            wa = 1.0 / wb
        out = []
        for th, lr in (y[:2], y[3:5]):
            c, s = math.cos(th), math.sin(th)
            s2, c2 = 2.0 * s * c, c * c - s * s
            out.extend((Q + M * c2 + L * s2, M * s2 - L * c2,
                        (wa * c * c + wb * s * s) * math.exp(2.0 * lr)))
        return out

    sol = solve_ivp(rhs, (nodes[0], nodes[-1]), inits, method="DOP853",
                    rtol=rtol, atol=1e-12, t_eval=nodes[1:])
    assert sol.status == 0
    return sol.y[[2, 5]]


def eigen_side_data(k, lam):
    """(u_dec, generic, r_far): the direction decaying toward r_far carried
    back to r = 1, its normal, and r_far."""
    q = _probe_q(EQUAL)
    r_star = _turning_radius(q, lam)
    r_far = _shoot_range(q, k, lam, max(r_star, 1.5), 15.0)
    ch = assemble_channel(EQUAL, k, lam)
    u_dec = propagate(ch, decaying_direction(EQUAL, k, lam, r_far),
                      r_far, 1.0, rtol=1e-11)
    u_dec = u_dec / np.hypot(*u_dec)
    return u_dec, np.array([-u_dec[1], u_dec[0]]), r_far


def pair_args(k, lam, r_end):
    """(u0_a, u0_b, r0, r_end) of `subordinacy_ratio` on EQUAL: the unit
    vectors from r = 1 to r_end for lam < 0, else `eigen_side_data`."""
    if lam < 0.0:
        return [1.0, 0.0], [0.0, 1.0], 1.0, r_end
    u_dec, generic, r_far = eigen_side_data(k, lam)
    return u_dec, generic, 1.0, r_far


class TestRatio:
    def test_negative_lambda_no_subordinate(self):
        rep = subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], 1.0, 200.0)
        assert rep.classification == "no-subordinate"
        assert rep.liminf_estimate > 0.0
        # oracle: richer range and tighter tolerance agree on positivity and
        # rough magnitude
        oracle = subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], 1.0, 400.0,
                                   rtol=1e-12)
        assert oracle.classification == "no-subordinate"
        assert oracle.liminf_estimate > 0.0

    @pytest.mark.parametrize("model, k, lam, r_end", [
        (EQUAL, 1, -1.0, 200.0), (EQUAL, -1, -1.0, 200.0),
        (LINEAR, 1, -1.0, 120.0), (EQUAL, 1, 1.0, None)],
        ids=["equal-k1", "equal-k-1", "linear-k1", "equal-eigen-side"])
    def test_matches_dop853_pair(self, monkeypatch, model, k, lam, r_end):
        args = pair_args(k, lam, r_end)
        got = subordinacy_ratio(model, k, lam, *args)
        monkeypatch.setattr(subordinacy, "cumulative_norms", dop853_norms)
        ref = subordinacy_ratio(model, k, lam, *args)
        assert got.classification == ref.classification
        r, v = np.transpose(got.ratio_tail)
        r_ref, v_ref = np.transpose(ref.ratio_tail)
        assert np.array_equal(r, r_ref)
        assert np.max(np.abs(v / v_ref - 1.0)) <= 1e-6

    @pytest.mark.parametrize("k, lam, r_end", [(1, -1.0, 200.0),
                                               (1, 1.0, None)],
                             ids=["equal-k1", "equal-eigen-side"])
    def test_norms_match_tight_dop853(self, monkeypatch, k, lam, r_end):
        # the norms of the ratio's own call, at its rtol 1e-10, against
        # DOP853 at 1e-13 on the same nodes
        calls = []

        def recording(*args):
            calls.append((args, cumulative_norms(*args)))
            return calls[-1][1]

        monkeypatch.setattr(subordinacy, "cumulative_norms", recording)
        subordinacy_ratio(EQUAL, k, lam, *pair_args(k, lam, r_end))
        ((batch, U0, nodes, rtol), (I,)), = calls
        assert rtol.tolist() == [1e-10]
        (ref,) = dop853_norms(batch, U0, nodes, 1e-13)
        assert np.max(np.abs(I / ref - 1.0)) <= 1e-8

    def test_no_scalar_coefficient_calls(self, monkeypatch):
        calls = []
        for cls in (ChannelSystem, TransformedChannel):
            scalar_qml = cls.scalar_qml

            def counting(self, r, scalar_qml=scalar_qml):
                calls.append(r)
                return scalar_qml(self, r)

            monkeypatch.setattr(cls, "scalar_qml", counting)
        for model in (EQUAL, LINEAR):
            rep = subordinacy_ratio(model, 1, -1.0, [1, 0], [0, 1], 1.0, 60.0)
            assert rep.classification == "no-subordinate"
        assert calls == []

    @pytest.mark.parametrize("r0, r_end", [(50.0, 50.0), (60.0, 50.0),
                                           (0.0, 50.0), (-1.0, 50.0)])
    def test_range_validated(self, r0, r_end):
        with pytest.raises(ValueError, match="0 < r0 < r_end"):
            subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], r0, r_end)

    @pytest.mark.parametrize("r_end", [1.2, 1.25])
    def test_range_below_ladder_start_refused(self, r_end):
        # the ladder starts at 1.25 r0: [1, 1.2] would run it from 1.25
        # down to 1.2, outside the range
        with pytest.raises(ValueError,
                           match="r_end > 1.25 r0, where its ladder starts"):
            subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], 1.0, r_end)

    def test_positive_lambda_subordinate_found(self):
        u_dec, generic, r_far = eigen_side_data(1, 1.0)
        rep = subordinacy_ratio(EQUAL, 1, 1.0, u_dec, generic, 1.0, r_far)
        assert rep.classification == "subordinate-found"
        assert rep.fit["slope"] < 0.0
        assert rep.fit["r_squared"] > 0.99

    def test_dependent_initial_data_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            subordinacy_ratio(EQUAL, 1, -1.0, [1, 1], [2, 2], 1.0, 50.0)

    def test_ratio_symmetry(self):
        rep = subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], 1.0, 80.0)
        vals = np.array([v for _, v in rep.ratio_tail])
        assert np.max(np.abs(vals * (1.0 / vals) - 1.0)) < 1e-15

    def test_general_route_for_dominant_model(self):
        rep = subordinacy_ratio(LINEAR, 1, -1.0, [1, 0], [0, 1], 1.0, 120.0)
        assert rep.classification == "no-subordinate"


# q = m = r at k = +-1, one lambda of each sign, from r0 = 1: the seed-1
# `borderline_spectrum` cells at c = 1
CELL_RANGE = {"r0": 1.0, "r_end": 40.0}
CELLS = [(1, -2.3), (1, 2.0), (-1, -2.3), (-1, 2.0)]


class TestBorderlineCells:
    def test_two_solves_a_subordinacy_call(self, tmp_path, monkeypatch):
        # one propagate for the decaying directions of both lambda > 0
        # cells, one cumulative_norms for the ratios of all four, each
        # cell at its own tolerance
        calls = []
        for name in ("propagate", "cumulative_norms"):
            def spy(channel, *args, fn=getattr(subordinacy, name), name=name,
                    **kwargs):
                calls.append((name, channel, args, kwargs))
                return fn(channel, *args, **kwargs)

            monkeypatch.setattr(subordinacy, name, spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"q": {"family": "power", "params": {"c": 1, "p": 1}},
                      "m": {"family": "power", "params": {"c": 1, "p": 1}}},
            "k_set": [1, -1], "lambda_grid": [-2.3, 0.0, 2.0],
            "subordinacy": CELL_RANGE}))
        assert cli.main(["subordinacy", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--assert"]) == 0
        (p_name, p_batch, p_args, p_kw), (n_name, n_batch, n_args, _) = calls
        assert (p_name, n_name) == ("propagate", "cumulative_norms")
        assert p_batch.ks.tolist() == [1, -1]
        assert p_batch.lams.tolist() == [2.0, 2.0]
        assert p_kw["rtol"] == subordinacy._SHOOT_RTOL
        assert list(zip(n_batch.ks.tolist(), n_batch.lams.tolist())) == CELLS
        assert n_args[2].tolist() == [1e-10, 1e-9, 1e-10, 1e-9]
        assert len(list((tmp_path / "o").iterdir())) == 4

    def test_cells_equal_their_one_cell_ratios(self):
        # each cell's report is that of `subordinacy_ratio` on its own pair,
        # range and tolerance, number for number
        got = subordinacy.borderline_cells(EQUAL, CELLS + [(2, 0.0)],
                                           CELL_RANGE)
        assert got[-1] == {"classification": "excluded",
                           "path": "boundary-point"}
        q = _probe_q(EQUAL)
        for (k, lam), cell in zip(CELLS, got):
            if lam < 0.0:
                rep = subordinacy_ratio(EQUAL, k, lam, [1, 0], [0, 1],
                                        CELL_RANGE["r0"], CELL_RANGE["r_end"])
                assert cell["classification"] == "ac-candidate"
            else:
                r_far, u = subordinacy._eigen_side_cell(EQUAL, q, k, lam)
                u_dec = propagate(assemble_channel(EQUAL, k, lam), u, r_far,
                                  1.0, rtol=subordinacy._SHOOT_RTOL)
                u_dec = u_dec / np.hypot(*u_dec)
                rep = subordinacy_ratio(EQUAL, k, lam, u_dec,
                                        [-u_dec[1], u_dec[0]], 1.0, r_far,
                                        rtol=1e-9)
                assert cell["classification"] == "subordinate-found"
            assert cell == {"path": "subordinacy",
                            "classification": cell["classification"],
                            "report": rep.to_dict()}

    def test_failed_cell_fails_alone(self):
        # q = m = e^r: the lambda < 0 ratios fail at their Magnus steps,
        # each with the error of its one-cell call; the lambda > 0 cells
        # are those of a call without them
        model = CoefficientModel(q=coefficient("exp", c=1.0, a=1.0),
                                 m=coefficient("exp", c=1.0, a=1.0))
        cells = [(1, -1.0), (1, 3.0), (-1, -1.0), (-1, 3.0)]
        got = subordinacy.borderline_cells(model, cells, {"r0": 1.0,
                                                          "r_end": 60.0})
        alone = subordinacy.borderline_cells(model, [(1, 3.0), (-1, 3.0)],
                                             {"r0": 1.0, "r_end": 60.0})
        assert [got[1], got[3]] == alone
        for k in (1, -1):
            with pytest.raises(PreconditionError) as lone:
                subordinacy_ratio(model, k, -1.0, [1, 0], [0, 1], 1.0, 60.0)
            err = got[cells.index((k, -1.0))]
            assert isinstance(err, PreconditionError)
            assert str(err) == str(lone.value)
            assert str(err).startswith("cumulative norms failed: Magnus step")


class TestDecayingDirection:
    @pytest.mark.parametrize("k", [1, -1, 2, -2])
    @pytest.mark.parametrize("lam, r", [(0.5, 0.5), (0.5, 7.0), (2.0, 2.0),
                                        (2.0, 9.0), (4.5, 4.0), (4.5, 30.0)])
    def test_eigenvector_of_the_frozen_matrix(self, k, lam, r):
        # A(r) = [[-L, M - Q], [Q + M, L]] is traceless, so its eigenvalues
        # are +-sqrt(S) with S = L^2 + M^2 - Q^2 = -det A
        Q, M, L, _ = assemble_channel(EQUAL, k, lam).coeffs(r)
        A = np.array([[-L, M - Q], [Q + M, L]])
        S = -np.linalg.det(A)
        assert S > 0.0
        v = decaying_direction(EQUAL, k, lam, r)
        assert np.hypot(*v) == pytest.approx(1.0, abs=1e-15)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A @ v + math.sqrt(S) * v)) <= 1e-13 * scale

    @pytest.mark.parametrize("k", [1, -1, 2, -2])
    def test_refused_inside_the_oscillatory_region(self, k):
        # lam = 4 at r = 1: S = 2 lam q - lam^2 + (k/r)^2 = k^2 - 8 < 0
        with pytest.raises(PreconditionError, match="no decaying direction"):
            decaying_direction(EQUAL, k, 4.0, 1.0)


class TestEigenShoot:
    @pytest.mark.parametrize("c", [1.0, 0.8])
    def test_turning_radius_exact_on_linear_q(self, c):
        model = CoefficientModel(q=power(c, 1), m=power(c, 1))
        lams = np.linspace(0.05, 5.0, 100)
        exact = lams / (2.0 * c)
        err = np.abs(_turning_radius(_probe_q(model), lams) - exact) / exact
        assert np.max(err) <= 1e-12

    def test_turning_radius_on_nonlinear_q(self):
        model = CoefficientModel(q=power(1, 1.5), m=power(1, 1.5))
        lams = np.linspace(0.05, 5.0, 25)
        got = _turning_radius(_probe_q(model), lams)
        for lam, r in zip(lams.tolist(), got.tolist()):
            ref = brentq(lambda x: model.q.value(x) - lam / 2.0, 1e-6, 1e3,
                         xtol=1e-14, rtol=1e-14)
            assert r == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("c", [1.0, 0.8])
    @pytest.mark.parametrize("k, floor, budget", [(1, 0.004, 27.0),
                                                  (-1, 1.5, 15.0)])
    def test_wkb_exponent_reaches_the_budget(self, c, k, floor, budget):
        # the exponent past the start radius, by adaptive quadrature, up to
        # the far radius
        model = CoefficientModel(q=power(c, 1), m=power(c, 1))
        lams = np.linspace(0.05, 5.0, 12)
        q = _probe_q(model)
        start = np.maximum(_turning_radius(q, lams), floor)
        far = _shoot_range(q, k, lams, start, budget)
        for lam, a, b in zip(lams.tolist(), start.tolist(), far.tolist()):
            def rate(r):
                S = 2.0 * lam * c * r - lam ** 2 + (k / r) ** 2
                return math.sqrt(max(S, 0.0))

            exponent, _ = quad(rate, a, b, limit=200, epsabs=0.0,
                               epsrel=1e-10)
            assert exponent == pytest.approx(budget, rel=1e-2)

    def test_batched_radii_equal_one_lambda_calls(self):
        lams = np.linspace(0.05, 5.0, 40)
        q = _probe_q(EQUAL)
        r_star = _turning_radius(q, lams)
        r_far = _shoot_range(q, 1, lams, np.maximum(r_star, 0.004), 27.0)
        for lam, rs, rf in zip(lams.tolist(), r_star, r_far):
            one = _turning_radius(q, lam)
            assert one == rs
            assert _shoot_range(q, 1, lam, max(one, 0.004), 27.0) == rf

    def test_overflowing_q_reads_inf_far_out(self):
        # e^r overflows on the probe past r = 709 without a warning, and the
        # radii read off the probe's finite part
        exp = coefficient("exp", c=1, a=1)
        model = CoefficientModel(q=exp, m=exp)
        q = _probe_q(model)
        r_star = _turning_radius(q, 4.0)
        assert r_star == pytest.approx(math.log(2.0), rel=1e-3)
        assert r_star < _shoot_range(q, 1, 4.0, r_star, 15.0) < 10.0

    def test_no_turning_radius_on_the_probe(self):
        # log1p(r) stays below 50 up to r = 1e9, the last probe radius
        log = coefficient("log", c=1)
        with pytest.raises(PreconditionError,
                           match="no turning radius found"):
            _turning_radius(_probe_q(CoefficientModel(q=log, m=log)), 100.0)

    def test_bracket_nonempty_and_stable(self, monkeypatch):
        eigs = shoot(1, (0.0, 5.0))
        assert len(eigs) >= 1
        with monkeypatch.context() as patch:
            patch.setattr(subordinacy, "_SHOOT_RTOL", 5e-11)
            tight = shoot(1, (0.0, 5.0))
        assert len(tight) == len(eigs)
        assert max(abs(a - b) for a, b in zip(eigs, tight)) < 1e-6
        # matching at twice the turning radius moves no eigenvalue
        turning = subordinacy._turning_radius
        monkeypatch.setattr(subordinacy, "_turning_radius",
                            lambda q, lam: 2.0 * turning(q, lam))
        wide = shoot(1, (0.0, 5.0))
        assert max(abs(a - b) for a, b in zip(eigs, wide)) < 1e-6

    def test_partition_invariance(self):
        full = shoot(1, (0.0, 5.0))
        halves = shoot(1, (0.0, 2.5)) + shoot(1, (2.5, 5.0))
        assert len(full) == len(halves)
        assert max(abs(a - b) for a, b in zip(full, sorted(halves))) < 1e-6

    def test_airy_oracle(self):
        # q = m = r, k = -1 reduces to Airy's equation: the eigenvalues are
        # sqrt(2) |a_n|^(3/4) with a_n the zeros of Ai
        eigs = shoot(-1, (0.0, 5.5))
        exact = math.sqrt(2.0) * np.abs(ai_zeros(3)[0]) ** 0.75
        assert len(eigs) == 3
        assert np.max(np.abs(np.asarray(eigs) - exact)) < 1e-8

    def test_root_just_above_the_lower_end(self):
        # the first Airy eigenvalue 2.674... lies below the first interior
        # scan point 2.71125 of (2.67, 3.0); the scan samples the lower end
        # of a positive bracket, so this sign change is not lost
        exact = math.sqrt(2.0) * abs(ai_zeros(1)[0][0]) ** 0.75
        eigs = shoot(-1, (2.67, 3.0))
        assert len(eigs) == 1
        assert abs(eigs[0] - exact) < 1e-8

    def test_refinement_reuses_scan_values(self, monkeypatch):
        # one frobenius_radius call per mismatch evaluation: 110 on the scan
        # grid and 13 refining the 3 roots; the refinement starts from the
        # bracket ends the scan already has, which would take 2 more calls
        # per root
        import diracspec.subordinacy as sub

        calls = []
        frobenius_radius = sub.frobenius_radius

        def counting(*args, **kwargs):
            calls.append(args)
            return frobenius_radius(*args, **kwargs)

        monkeypatch.setattr(sub, "frobenius_radius", counting)
        assert len(shoot(-1, (0.0, 5.5))) == 3
        assert len(calls) == 123

    def test_lockstep_equals_the_calls_per_k(self, monkeypatch):
        # every k in one lockstep: exactly the roots of the per-k calls,
        # from one propagate call for the scan grid and one a refinement
        # round, and one frobenius_radius call per (k, lambda) evaluation
        calls = {"propagate": 0, "frobenius_radius": 0, "rounds": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def refine(f, *args):
            return refine_roots(counting("rounds", f), *args)

        refine_roots = subordinacy._refine_roots
        monkeypatch.setattr(subordinacy, "_refine_roots", refine)
        for name in ("propagate", "frobenius_radius"):
            monkeypatch.setattr(subordinacy, name,
                                counting(name, getattr(subordinacy, name)))
        k_set, per_k, rounds, evals = (-2, -1, 1, 2), [], [], 0
        for k in k_set:
            calls.update(dict.fromkeys(calls, 0))
            per_k += eigen_shoot(EQUAL, [k], (0.0, 5.0))
            assert calls["propagate"] == 1 + calls["rounds"]
            rounds.append(calls["rounds"])
            evals += calls["frobenius_radius"]
        calls.update(dict.fromkeys(calls, 0))
        assert eigen_shoot(EQUAL, k_set, (0.0, 5.0)) == sorted(per_k)
        assert calls["rounds"] == max(rounds) > 0
        assert calls["propagate"] == 1 + calls["rounds"]
        assert calls["frobenius_radius"] == evals

    @pytest.mark.parametrize("q, upper", [
        (power(0.5, 1), 8.0), (power(1, 1), 8.0), (power(2, 1), 8.0),
        (power(0.7, 1.5), 6.0)], ids=["0.5r", "r", "2r", "0.7r^1.5"])
    def test_spin_pairs_share_their_eigenvalues(self, q, upper):
        # on m = q, channels k and -k - 1 reduce to one radial Schroedinger
        # equation of angular momentum k (the spin symmetry of equal vector
        # and scalar potentials; Bell & Ruegg, Nucl. Phys. B 98, 1975)
        pairs = eigen_shoot(CoefficientModel(q=q, m=q), [1, 2, 3, -2, -3, -4],
                            (0.0, upper))
        for k in (1, 2, 3):
            plus = [lam for kk, lam in pairs if kk == k]
            minus = [lam for kk, lam in pairs if kk == -k - 1]
            assert len(plus) == len(minus) >= 1
            assert np.max(np.abs(np.subtract(plus, minus))) <= 2e-8

    def test_close_pair_in_adjacent_brackets(self):
        # two roots 1e-6 apart, in brackets that share an end: each is
        # found, inside its own bracket, within the tolerance
        roots = np.array([1.0, 1.0 + 1e-6])
        seen = []

        def f(_, x):
            seen.append(x.size)
            return np.tanh(1e3 * (x - roots[0])) * np.tanh(1e3 * (x - roots[1]))

        lo, hi = np.array([0.9, 1.0 + 4e-7]), np.array([1.0 + 4e-7, 1.2])
        got = subordinacy._refine_roots(f, lo, hi, f(None, lo),
                                        f(None, hi), 1e-10)
        assert np.all(np.abs(got - roots) <= 1e-10)
        assert np.all((lo < got) & (got < hi))
        # lockstep: every round evaluates both open brackets in one call
        assert seen[2] == 2

    def test_refinement_stays_inside_its_bracket(self):
        # a steep step far from the linear guess: every evaluation stays
        # inside the sign-change bracket
        seen = []

        def f(_, x):
            seen.extend(x.tolist())
            return np.tanh(50.0 * (x - 0.97))

        got = subordinacy._refine_roots(f, [0.0], [1.0],
                                        f(None, np.array([0.0])),
                                        f(None, np.array([1.0])), 1e-9)
        assert abs(got[0] - 0.97) <= 1e-9
        assert all(0.0 <= x <= 1.0 for x in seen)

    def test_negative_bracket_rejected(self):
        with pytest.raises(ValueError):
            shoot(1, (-2.0, -1.0))

    @pytest.mark.parametrize("kw", [{"tol_lambda": 0.0}, {"tol_lambda": -1e-8},
                                    {"scan_step": 0.0}])
    def test_nonpositive_step_or_tolerance_rejected(self, kw):
        # a zero tolerance could never end the root refinement
        with pytest.raises(ValueError, match="positive"):
            shoot(1, (0.0, 5.0), **kw)

    def test_no_sign_change_gives_empty_list(self):
        eigs = shoot(1, (0.2, 0.4))
        assert eigs == []

    def test_bracket_well_posed_at_finer_scan(self):
        # a 2.5x finer scan over the same bracket exposes no additional sign
        # changes: each refinement bracket holds exactly one root
        coarse = shoot(1, (3.3, 4.8))
        fine = shoot(1, (3.3, 4.8), scan_step=0.02)
        assert len(coarse) == len(fine) == 2
        assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-6


class TestClassify:
    """The cell classification of `diracspec scan`, with the certificates and
    the ratios both run to r_end, the ratios from r = 1."""

    @staticmethod
    def scan(tmp_path, model, k_set, lambda_grid, r_end, out="o"):
        config = tmp_path / f"{out}.json"
        config.write_text(json.dumps({
            "model": model.to_dict(), "k_set": k_set,
            "lambda_grid": lambda_grid, "solver": {"r_end": r_end},
            "subordinacy": {"r_end": r_end}}))
        code = cli.main(["scan", "--config", str(config),
                         "--out", str(tmp_path / out)])
        return code, tmp_path / out / "scan.json"

    def test_dominant_model_all_ac(self, tmp_path):
        code, path = self.scan(tmp_path, LINEAR, [1, -1], [-1.0, 1.0], 80.0)
        res = json.loads(path.read_text())
        assert code == 0 and not res["heuristic"]
        assert all(c["classification"] == "ac-candidate" for c in res["cells"])
        assert res["summary"]["ac_candidate_lambdas"] == [-1.0, 1.0]

    def test_borderline_model_sign_split(self, tmp_path):
        code, path = self.scan(tmp_path, EQUAL, [1], [-1.0, 0.0, 1.0], 100.0)
        by_lam = {c["lambda"]: c["classification"]
                  for c in json.loads(path.read_text())["cells"]}
        assert code == 0
        assert by_lam[-1.0] == "ac-candidate"
        assert by_lam[0.0] == "excluded"
        assert by_lam[1.0] == "subordinate-found"

    def test_empty_k_set(self, tmp_path, capsys):
        # a scan of no cells is refused as a config error
        code, path = self.scan(tmp_path, EQUAL, [], [1.0], 120.0)
        assert code == 2 and not path.exists()
        assert "config error: need a nonempty 'k_set'" in \
            capsys.readouterr().err

    def test_cells_sorted_and_deterministic(self, tmp_path):
        self.scan(tmp_path, LINEAR, [2, 1], [1.0, -1.0], 60.0, out="a")
        self.scan(tmp_path, LINEAR, [1, 2], [-1.0, 1.0], 60.0, out="b")
        a, b = (json.loads((tmp_path / out / "scan.json").read_text())
                for out in ("a", "b"))
        assert [(c["k"], c["lambda"]) for c in a["cells"]] == \
            [(k, lam) for k in (1, 2) for lam in (-1.0, 1.0)]
        assert a == b

    def test_cell_failure_is_isolated(self, tmp_path, monkeypatch):
        import diracspec.boundedness as bnd

        def boom(*a, **kw):
            raise RuntimeError("synthetic solver failure")

        monkeypatch.setattr(bnd, "comparability_constant", boom)
        code, path = self.scan(tmp_path, LINEAR, [1, 2], [0.5], 50.0)
        res = json.loads(path.read_text())
        assert code == 0
        assert all(c["classification"] == "error" for c in res["cells"])
        assert all("synthetic solver failure" in c["error"]
                   for c in res["cells"])
        assert res["summary"]["n_errors"] == 2
