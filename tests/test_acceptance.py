"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else."""

import math

import numpy as np

from diracspec import subordinacy
from diracspec.asymptotics import (
    borderline_trajectory,
    compare_asymptotics,
    defect_convergence,
    wkb_reference,
)
from diracspec.boundedness import (
    almost_monotone_check,
    auto_start_radius,
    comparability_constant,
    r_trace,
)
from diracspec.bvcalc import (
    SampledFunction,
    check_product_bound,
    check_quotient_bounds,
    jordan_decompose,
    variation,
)
from diracspec.cli import fixture_path, main
from diracspec.coefficients import (
    CoefficientModel,
    ConstantChannel,
    assemble_channel,
    coefficient,
    constant,
    power,
)
from diracspec.hypotheses import (
    SATISFIED,
    check_a_conditions,
    check_c_conditions,
    lambda_trichotomy_probe,
)
from diracspec.solver import (
    SolveConfig,
    integrate_cartesian,
    integrate_fundamental,
    integrate_pruefer,
    phase_derivative,
)
from diracspec.subordinacy import (
    eigen_shoot,
    phase_band,
    subordinacy_ratio,
    transform,
)

from census_oracle import census_from_phase, s_variable

CONST = ConstantChannel(2.0, 1.0, 0.0)
LINEAR = CoefficientModel(q=power(1, 1), m=constant(1))
EQUAL = CoefficientModel(q=power(1, 1), m=power(1, 1))
MODULATED = CoefficientModel(
    q=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0.25),
    m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))
SQRT_PERIODIC = CoefficientModel(
    q=power(1, 0.5),
    m=coefficient("modulated", a=2, b=1, omega=1, c=1, p=0))


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_constant_coefficient_conservation():
    cfg = SolveConfig(r_start=1.0, r_end=101.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for phi in rng.uniform(0.0, 2.0 * np.pi, 16):
        traj = integrate_cartesian(CONST, [math.cos(phi), math.sin(phi)], cfg)
        trace = r_trace(CONST, traj.grid, (traj.u1, traj.u2))
        worst = max(worst, float(np.max(np.abs(trace.R - trace.R[0]))
                                 / trace.R[0]))
    traj = integrate_cartesian(CONST, [1.0, 0.0], cfg)
    t = traj.grid - 1.0
    root3 = math.sqrt(3.0)
    closed = max(float(np.max(np.abs(traj.u1 - np.cos(root3 * t)))),
                 float(np.max(np.abs(traj.u2 - root3 * np.sin(root3 * t)))))
    report(1, worst < 1e-8 and closed < 1e-8,
           f"envelope drift {worst:.2e} (< 1e-8), closed-form error "
           f"{closed:.2e} (< 1e-8) over 16 random solutions, span 100")


def test_criterion_2_wronskian_drift():
    channels = [
        ("constant", CONST),
        ("q=r,m=1,k=1,lam=1", assemble_channel(LINEAR, 1, 1.0)),
        ("q=m=r,k=1,lam=-1", assemble_channel(EQUAL, 1, -1.0)),
        ("modulated,k=1,lam=0", assemble_channel(MODULATED, 1, 0.0)),
        ("sqrt-periodic,k=2,lam=0.5", assemble_channel(SQRT_PERIODIC, 2, 0.5)),
    ]
    def elliptic_start(channel, gap=0.05):
        rs = np.geomspace(0.5, 50.0, 400)
        Q, _, _, W = channel.coeffs(rs)
        good = Q - W >= gap
        for i in range(len(rs)):
            if np.all(good[i:]):
                return float(rs[i])
        raise AssertionError("no elliptic start radius found")

    worst, worst_name = 0.0, ""
    for name, channel in channels:
        # start where the channel is elliptic (Q > W); below that radius a
        # fundamental system's columns separate exponentially and det Phi
        # loses digits to cancellation regardless of integrator quality
        r0 = max(1.0, elliptic_start(channel))
        cfg = SolveConfig(r_start=r0, r_end=r0 + 200.0)  # default tolerances
        _, phi, _ = integrate_fundamental(channel, cfg)
        w = phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 1, 0] * phi[:, 0, 1]
        drift = float(np.max(np.abs(w - w[0])) / abs(w[0]))
        if drift > worst:
            worst, worst_name = drift, name
    report(2, worst < 1e-8,
           f"max relative Wronskian drift {worst:.2e} (< 1e-8) over span 200 "
           f"at default tolerances, worst channel {worst_name}")


def test_criterion_3_representation_cross_check():
    tch = transform(EQUAL, 1, -1.0)
    cfg = SolveConfig(r_start=1.0, r_end=100.0)
    v0 = tch.forward(1.0, 1.0, 0.5)
    cart = integrate_cartesian(tch, [v0[0], v0[1]], cfg)
    prue = integrate_pruefer(tch, float(np.hypot(*v0)),
                             math.atan2(v0[1], v0[0]), cfg)
    err = float(np.max(np.abs(prue.rho - cart.rho) / cart.rho))
    report(3, err < 1e-6,
           f"polar vs component-wise |u| agreement {err:.2e} (< 1e-6) on the "
           f"rescaled borderline channel, r in [1, 100]")


def test_criterion_4_dominant_potential_desk_scale():
    reports = check_a_conditions(LINEAR, [-1.0, 0.0, 1.0])
    a_ok = all(r.verdict == SATISFIED for r in reports if not r.auxiliary)
    channels_ok = True
    monotone_ok = True
    certified = True
    for k in (1, -1, 2, -2):
        for lam in (-1.0, 0.0, 1.0):
            channel = assemble_channel(LINEAR, k, lam)
            creps = check_c_conditions(channel)
            channels_ok &= all(r.verdict == SATISFIED for r in creps)
            r0 = max(2.0, auto_start_radius(channel))
            cfg = SolveConfig(r_start=r0, r_end=200.0, rtol=1e-6)
            grid, phi, _ = integrate_fundamental(channel, cfg)
            trace = r_trace(channel, grid, phi[:, :, 0].T)
            verdicts = almost_monotone_check(trace, n_grid=32)
            monotone_ok &= all(v.ok for v in verdicts)
            cert = comparability_constant(phi, trace)
            # no initial direction Phi (cos t, sin t), t over 721 of the
            # half circle, exceeds C
            worst = 0.0
            for t in np.linspace(0.0, np.pi, 721):
                u1 = np.cos(t) * phi[:, 0, 0] + np.sin(t) * phi[:, 0, 1]
                u2 = np.cos(t) * phi[:, 1, 0] + np.sin(t) * phi[:, 1, 1]
                nsq = u1 ** 2 + u2 ** 2
                worst = max(worst, np.max(nsq) / nsq[0], nsq[0] / np.min(nsq))
            certified &= bool(np.isfinite(cert.C)) and \
                worst <= cert.C * (1 + 1e-9)
    ok = a_ok and channels_ok and monotone_ok and certified
    report(4, ok,
           f"q=r, m=1: A-conditions satisfied={a_ok}, C-conditions per "
           f"channel={channels_ok}, almost-monotone all pairs={monotone_ok}, "
           f"finite certificates bounding a 721-direction sweep={certified}")


def test_criterion_5_borderline_desk_scale(monkeypatch):
    rep = subordinacy_ratio(EQUAL, 1, -1.0, [1.0, 0.0], [0.0, 1.0],
                            1.0, 200.0)
    ratio_ok = rep.classification == "no-subordinate" and \
        rep.liminf_estimate > 0.0

    tch = transform(EQUAL, 1, -1.0)
    cfg = SolveConfig(r_start=1.0, r_end=33.0, rtol=1e-11,
                      stride=0.02)
    # the guard |L|/Q <= 1/2 on the census range, refused otherwise
    phase_band(EQUAL, 1, -1.0, 1.0, 33.0)
    traj = integrate_pruefer(tch, 1.0, 0.0, cfg)
    census = census_from_phase(s_variable(tch, traj.grid), traj.theta)
    upto = [i for i, n in enumerate(census.ns) if n <= 50]
    lengths = [census.J_lengths[i] for i in upto] + \
        [census.K_lengths[i] for i in upto]
    census_ok = census.ns[-1] >= 50 and \
        all(math.pi / 3 <= v <= math.pi for v in lengths)

    eigs = [lam for _, lam in eigen_shoot(EQUAL, [1], (0.0, 5.0))]
    monkeypatch.setattr(subordinacy, "_SHOOT_RTOL", 5e-11)
    tight = [lam for _, lam in eigen_shoot(EQUAL, [1], (0.0, 5.0))]
    eig_ok = len(eigs) >= 1 and len(tight) == len(eigs) and \
        max(abs(a - b) for a, b in zip(eigs, tight)) < 1e-6
    ok = ratio_ok and census_ok and eig_ok
    report(5, ok,
           f"q=m=r, k=1: lam=-1 no-subordinate with liminf "
           f"{rep.liminf_estimate:.3g} > 0; census n<=50 lengths in "
           f"[pi/3, pi]={census_ok}; eigenvalues in (0,5] "
           f"{[round(e, 6) for e in eigs]} stable to 1e-6 under tolerance "
           f"halving={eig_ok}")


def test_criterion_6_variation_calculus_suite():
    rng = np.random.default_rng(20240817)
    product_ok = quotient_ok = jordan_ok = True
    for _ in range(200):
        grid = np.linspace(0.0, float(rng.uniform(4.0, 10.0)), 3001)
        a, b, w = rng.uniform(-2, 2, 3)
        c = rng.uniform(0.2, 3.0)
        fv = a + b * np.sin(w * grid) / (1 + c * grid)
        fd = (b * w * np.cos(w * grid) / (1 + c * grid)
              - b * c * np.sin(w * grid) / (1 + c * grid) ** 2)
        gv = rng.uniform(-2, 2) * np.cos(rng.uniform(0.1, 3) * grid) \
            + rng.uniform(-1, 1)
        product_ok &= check_product_bound(
            SampledFunction(grid, fv, deriv=fd),
            SampledFunction(grid, gv)).holds

        gpos = 1.5 + 0.4 * np.sin(rng.uniform(0.1, 4) * grid) \
            + rng.uniform(0, 2)
        raw = np.sin(rng.uniform(0.1, 5) * grid + rng.uniform(0, 7))
        eps = rng.uniform(0.1, 0.8)
        f2 = raw * eps * float(np.min(gpos)) / float(np.max(np.abs(raw)))
        qres = check_quotient_bounds(SampledFunction(grid, f2),
                                     SampledFunction(grid, gpos))
        quotient_ok &= bool(qres.precondition_met and qres.holds)

        samples = SampledFunction(grid[::30], (fv + gv)[::30])
        gp, gm = jordan_decompose(samples)
        scale = 1.0 + float(np.max(np.abs(samples.values)))
        tele = gp.values[-1] + gm.values[-1] - gp.values[0] - gm.values[0]
        jordan_ok &= bool(
            np.all(np.diff(gp.values) >= 0)
            and np.all(np.diff(gm.values) >= 0)
            and np.max(np.abs(gp.values - gm.values - samples.values))
            <= 1e-12 * scale
            and abs(tele - variation(samples)) <= 1e-12 * (1.0 + tele))

    probe = lambda_trichotomy_probe(MODULATED, [0.0, 1.0])
    by_lam = {e["lambda"]: e["classification"] for e in probe.entries}
    split_ok = by_lam[0.0] == "convergent" and by_lam[1.0] == "divergent"
    ok = product_ok and quotient_ok and jordan_ok and split_ok
    report(6, ok,
           f"200 randomized instances: product bound={product_ok}, two-sided "
           f"quotient bound={quotient_ok}, decomposition identities "
           f"(1e-12)={jordan_ok}; modulated fixture splits convergent at 0 / "
           f"divergent at 1={split_ok}")


def test_criterion_7_oscillatory_reference():
    cfg = SolveConfig(r_start=5.0, r_end=210.0, rtol=1e-11,
                      stride=0.02)
    traj = borderline_trajectory(EQUAL, 1, -1.0, cfg)
    ref = wkb_reference(EQUAL, -1.0, traj.grid)
    res = compare_asymptotics(traj, ref, windows=[(10.0, 20.0),
                                                  (100.0, 200.0)])
    trend_ok = res[1]["residual"] < res[0]["residual"]
    conv = defect_convergence(EQUAL, 1, -1.0, 10.0, 50.0)
    order_ok = all(1.8 <= o <= 2.2 for o in conv["orders"])
    report(7, trend_ok and order_ok,
           f"projection residual {res[0]['residual']:.2e} @ [10,20] -> "
           f"{res[1]['residual']:.2e} @ [100,200] (decreasing={trend_ok}); "
           f"defect orders {[round(o, 2) for o in conv['orders']]} within "
           f"2 +- 0.2")


def test_criterion_8_phase_envelopes():
    fixtures = [
        (CONST, 1.0, 61.0),
        (assemble_channel(LINEAR, 1, 0.0), 1.0, 61.0),
        (assemble_channel(LINEAR, 2, -1.0), 1.0, 61.0),
        (assemble_channel(EQUAL, 1, -1.0), 1.0, 41.0),
        (assemble_channel(MODULATED, 1, 0.0), 1.0, 61.0),
        (assemble_channel(SQRT_PERIODIC, 2, 0.5), 1.0, 61.0),
        (transform(EQUAL, 1, -1.0), 1.0, 41.0),
    ]
    env_ok = True
    for channel, r0, r1 in fixtures:
        cfg = SolveConfig(r_start=r0, r_end=r1)
        traj = integrate_pruefer(channel, 1.0, 0.2, cfg)
        Q, _, _, W = channel.coeffs(traj.accepted_r)
        dtheta = phase_derivative(channel, traj.accepted_r,
                                  traj.accepted_theta)
        env_ok &= bool(np.all(dtheta >= Q - W - 1e-10)
                       and np.all(dtheta <= Q + W + 1e-10))

    tch = transform(EQUAL, 1, -1.0)
    cfg = SolveConfig(r_start=1.0, r_end=33.0)
    traj = integrate_pruefer(tch, 1.0, 0.0, cfg)
    Qs = tch.coeffs(traj.accepted_r)[0]
    speed = phase_derivative(tch, traj.accepted_r, traj.accepted_theta) / Qs
    guarded_ok = bool(np.all(speed >= 0.5 - 1e-10)
                      and np.all(speed <= 1.5 + 1e-10))
    report(8, env_ok and guarded_ok,
           f"phase rate within [Q-W, Q+W] at every accepted step of every "
           f"fixture={env_ok}; rescaled phase speed within [1/2, 3/2] on the "
           f"guarded range={guarded_ok}")


def test_criterion_9_scan_determinism(tmp_path):
    cfg = fixture_path("borderline_linear")
    for sub in ("a", "b"):
        code = main(["scan", "--config", str(cfg),
                     "--out", str(tmp_path / sub), "--seed", "123"])
        assert code == 0
    identical = True
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    identical &= files_a == files_b
    for rel in files_a:
        identical &= (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()
    report(9, identical,
           f"repeated scan with fixed seed produced byte-identical outputs "
           f"({len(files_a)} files)")
