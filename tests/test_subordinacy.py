import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import ai_zeros

from diracspec import subordinacy
from diracspec.coefficients import (
    ChannelSystem,
    CoefficientModel,
    assemble_channel,
    constant,
    models_equal,
    power,
)
from diracspec.solver import (
    PreconditionError,
    SolveConfig,
    integrate_cartesian,
    integrate_pruefer,
    propagate,
    s_reparam,
)
from diracspec.subordinacy import (
    TransformedChannel,
    _shoot_range,
    _turning_radius,
    census_from_phase,
    classify_spectrum,
    decaying_direction,
    eigen_shoot,
    subordinacy_ratio,
    theta_census,
    transform,
)

EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))
LINEAR = CoefficientModel(q=power(1, 1), m=constant(1))


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

    def test_mismatched_model_rejected(self):
        with pytest.raises(ValueError):
            transform(LINEAR, 1, -1.0)

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
        cfg = SolveConfig(r_start=1.0, r_end=40.0, rtol=1e-12, atol=1e-14)
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
        tch = transform(EQUAL, 1, -1.0)
        cfg = SolveConfig(r_start=1.0, r_end=33.0, rtol=1e-11, atol=1e-13,
                          stride=0.02)
        traj = s_reparam(tch, integrate_pruefer(tch, 1.0, 0.0, cfg))
        cen = theta_census(traj)
        assert cen.ns[-1] >= 50
        assert cen.violations == []
        lengths = cen.J_lengths + cen.K_lengths
        assert min(lengths) >= math.pi / 3
        assert max(lengths) <= math.pi

    def test_guard_refused_with_radius(self):
        tch = transform(EQUAL, 1, -1.0)
        cfg = SolveConfig(r_start=0.3, r_end=10.0, rtol=1e-10, atol=1e-12)
        traj = s_reparam(tch, integrate_pruefer(tch, 1.0, 0.0, cfg))
        with pytest.raises(PreconditionError, match="r ="):
            theta_census(traj)

    def test_census_requires_s(self):
        tch = transform(EQUAL, 1, -1.0)
        cfg = SolveConfig(r_start=1.0, r_end=5.0)
        traj = integrate_pruefer(tch, 1.0, 0.0, cfg)
        with pytest.raises(ValueError, match="s-variable"):
            theta_census(traj)


def dop853_norms(channel, U0, nodes, rtol):
    """Reference for `cumulative_norms`: the weighted Pruefer pair, (theta,
    ln rho, I) for both columns of U0 by DOP853 on the scalar coefficients,
    with I read at nodes[1:].  For m == q and lambda < 0 it runs on the
    rescaled channel, where |u|^2 = sqrt(Lambda/gamma) v1^2 +
    sqrt(gamma/Lambda) v2^2."""
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
    r_star = _turning_radius(EQUAL, lam)
    r_far = _shoot_range(EQUAL, k, lam, max(r_star, 1.5), 15.0)
    ch = assemble_channel(EQUAL, k, lam)
    u_dec = propagate(ch, decaying_direction(EQUAL, k, lam, r_far),
                      r_far, 1.0, rtol=1e-11)
    u_dec = u_dec / np.hypot(*u_dec)
    return u_dec, np.array([-u_dec[1], u_dec[0]]), r_far


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
        if lam < 0.0:
            args = ([1.0, 0.0], [0.0, 1.0], 1.0, r_end)
        else:
            u_dec, generic, r_far = eigen_side_data(k, lam)
            args = (u_dec, generic, 1.0, r_far)
        got = subordinacy_ratio(model, k, lam, *args)
        monkeypatch.setattr(subordinacy, "cumulative_norms", dop853_norms)
        ref = subordinacy_ratio(model, k, lam, *args)
        assert got.classification == ref.classification
        r, v = np.transpose(got.ratio_tail)
        r_ref, v_ref = np.transpose(ref.ratio_tail)
        assert np.array_equal(r, r_ref)
        assert np.max(np.abs(v / v_ref - 1.0)) <= 1e-6

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

    def test_census_attached_on_request(self):
        rep = subordinacy_ratio(EQUAL, 1, -1.0, [1, 0], [0, 1], 1.0, 60.0,
                                with_census=True)
        assert rep.census is not None
        assert rep.census.violations == []

    def test_general_route_for_dominant_model(self):
        rep = subordinacy_ratio(LINEAR, 1, -1.0, [1, 0], [0, 1], 1.0, 120.0)
        assert rep.classification == "no-subordinate"


def scalar_turning_radius(model, lam, lo=1e-6, hi=1.0):
    # reference: one lambda, one float radius at a time
    target = lam / 2.0
    while model.q.value(hi) < target:
        hi *= 2.0
    if model.q.value(lo) >= target:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.q.value(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


def scalar_shoot_range(model, k, lam, r_star, exponent):
    # reference: the march one step at a time
    total, r = 0.0, r_star
    step = max(r_star * 0.05, 0.01)
    while total < exponent:
        S = 2.0 * lam * model.q.value(r + step) - lam ** 2 + \
            (k / (r + step)) ** 2
        if S > 0.0:
            total += math.sqrt(S) * step
        r += step
        if r > 1e6:
            break
    return r


class TestEigenShoot:
    @pytest.mark.parametrize("model", [
        EQUAL, CoefficientModel(q=power(0.8, 1), m=power(0.8, 1))])
    def test_array_march_matches_scalar_reference(self, model):
        # the batched bisection and march reach each lambda's radii bit for
        # bit, whatever the lambda batched with it
        lams = np.linspace(0.05, 5.0, 100)
        r_star = _turning_radius(model, lams)
        for k, floor, exponent in ((1, 0.004, 27.0), (-1, 1.5, 15.0)):
            r_far = _shoot_range(model, k, lams, np.maximum(r_star, floor),
                                 exponent)
            for lam, rs, rf in zip(lams.tolist(), r_star, r_far):
                ref = scalar_turning_radius(model, lam)
                assert rs == ref
                assert rf == scalar_shoot_range(model, k, lam,
                                                max(ref, floor), exponent)
        assert _turning_radius(model, 2.0) == scalar_turning_radius(model, 2.0)

    def test_bracket_nonempty_and_stable(self):
        eigs = eigen_shoot(EQUAL, 1, (0.0, 5.0))
        assert len(eigs) >= 1
        tight = eigen_shoot(EQUAL, 1, (0.0, 5.0), rtol=5e-11)
        assert len(tight) == len(eigs)
        assert max(abs(a - b) for a, b in zip(eigs, tight)) < 1e-6
        wide = eigen_shoot(EQUAL, 1, (0.0, 5.0), match_radius_factor=2.0)
        assert max(abs(a - b) for a, b in zip(eigs, wide)) < 1e-6

    def test_partition_invariance(self):
        full = eigen_shoot(EQUAL, 1, (0.0, 5.0))
        halves = eigen_shoot(EQUAL, 1, (0.0, 2.5)) + \
            eigen_shoot(EQUAL, 1, (2.5, 5.0))
        assert len(full) == len(halves)
        assert max(abs(a - b) for a, b in zip(full, sorted(halves))) < 1e-6

    def test_airy_oracle(self):
        # q = m = r, k = -1 reduces to Airy's equation: the eigenvalues are
        # sqrt(2) |a_n|^(3/4) with a_n the zeros of Ai
        eigs = eigen_shoot(EQUAL, -1, (0.0, 5.5))
        exact = math.sqrt(2.0) * np.abs(ai_zeros(3)[0]) ** 0.75
        assert len(eigs) == 3
        assert np.max(np.abs(np.asarray(eigs) - exact)) < 1e-8

    def test_root_just_above_the_lower_end(self):
        # the first Airy eigenvalue 2.674... lies below the first interior
        # scan point 2.71125 of (2.67, 3.0); the scan samples the lower end
        # of a positive bracket, so this sign change is not lost
        exact = math.sqrt(2.0) * abs(ai_zeros(1)[0][0]) ** 0.75
        eigs = eigen_shoot(EQUAL, -1, (2.67, 3.0))
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
        assert len(eigen_shoot(EQUAL, -1, (0.0, 5.5))) == 3
        assert len(calls) == 123

    def test_close_pair_in_adjacent_brackets(self):
        # two roots 1e-6 apart, in brackets that share an end: each is
        # found, inside its own bracket, within the tolerance
        roots = np.array([1.0, 1.0 + 1e-6])
        seen = []

        def f(x):
            seen.append(x.size)
            return np.tanh(1e3 * (x - roots[0])) * np.tanh(1e3 * (x - roots[1]))

        lo, hi = np.array([0.9, 1.0 + 4e-7]), np.array([1.0 + 4e-7, 1.2])
        got = subordinacy._refine_roots(f, lo, hi, f(lo), f(hi), 1e-10)
        assert np.all(np.abs(got - roots) <= 1e-10)
        assert np.all((lo < got) & (got < hi))
        # lockstep: every round evaluates both open brackets in one call
        assert seen[2] == 2

    def test_refinement_stays_inside_its_bracket(self):
        # a steep step far from the linear guess: every evaluation stays
        # inside the sign-change bracket
        seen = []

        def f(x):
            seen.extend(x.tolist())
            return np.tanh(50.0 * (x - 0.97))

        got = subordinacy._refine_roots(f, [0.0], [1.0], f(np.array([0.0])),
                                        f(np.array([1.0])), 1e-9)
        assert abs(got[0] - 0.97) <= 1e-9
        assert all(0.0 <= x <= 1.0 for x in seen)

    def test_negative_bracket_rejected(self):
        with pytest.raises(ValueError):
            eigen_shoot(EQUAL, 1, (-2.0, -1.0))

    @pytest.mark.parametrize("kw", [{"tol_lambda": 0.0}, {"tol_lambda": -1e-8},
                                    {"scan_step": 0.0}])
    def test_nonpositive_step_or_tolerance_rejected(self, kw):
        # a zero tolerance could never end the root refinement
        with pytest.raises(ValueError, match="positive"):
            eigen_shoot(EQUAL, 1, (0.0, 5.0), **kw)

    def test_requires_equal_coefficients(self):
        with pytest.raises(ValueError):
            eigen_shoot(LINEAR, 1, (0.0, 2.0))

    def test_no_sign_change_gives_empty_list(self):
        eigs = eigen_shoot(EQUAL, 1, (0.2, 0.4))
        assert eigs == []

    def test_bracket_well_posed_at_finer_scan(self):
        # a 2.5x finer scan over the same bracket exposes no additional sign
        # changes: each refinement bracket holds exactly one root
        coarse = eigen_shoot(EQUAL, 1, (3.3, 4.8))
        fine = eigen_shoot(EQUAL, 1, (3.3, 4.8), scan_step=0.02)
        assert len(coarse) == len(fine) == 2
        assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-6


class TestClassify:
    def test_dominant_model_all_ac(self):
        res = classify_spectrum(LINEAR, [1, -1], [-1.0, 1.0], r_end=80.0)
        assert not res["heuristic"]
        assert all(c["classification"] == "ac-candidate" for c in res["cells"])
        assert res["summary"]["ac_candidate_lambdas"] == [-1.0, 1.0]

    def test_borderline_model_sign_split(self):
        res = classify_spectrum(EQUAL, [1], [-1.0, 0.0, 1.0], r_end=100.0)
        by_lam = {c["lambda"]: c["classification"] for c in res["cells"]}
        assert by_lam[-1.0] == "ac-candidate"
        assert by_lam[0.0] == "excluded"
        assert by_lam[1.0] == "subordinate-found"

    def test_empty_k_set(self):
        assert classify_spectrum(EQUAL, [], [1.0])["cells"] == []

    def test_cells_sorted_and_deterministic(self):
        a = classify_spectrum(LINEAR, [2, 1], [1.0, -1.0], r_end=60.0)
        b = classify_spectrum(LINEAR, [1, 2], [-1.0, 1.0], r_end=60.0)
        assert [(c["k"], c["lambda"]) for c in a["cells"]] == \
            [(c["k"], c["lambda"]) for c in b["cells"]]
        assert a == b

    def test_cell_failure_is_isolated(self, monkeypatch):
        import diracspec.boundedness as bnd

        def boom(*a, **kw):
            raise RuntimeError("synthetic solver failure")

        monkeypatch.setattr(bnd, "comparability_constant", boom)
        res = classify_spectrum(LINEAR, [1, 2], [0.5], r_end=50.0)
        assert all(c["classification"] == "error" for c in res["cells"])
        assert all("synthetic solver failure" in c["error"]
                   for c in res["cells"])
        assert res["summary"]["n_errors"] == 2
