"""End-to-end acceptance gate.

Twelve numbered criteria, one test each, every test printing a single
"criterion N: PASS" line with its measured margin (visible with -s or -rP;
pytest -v additionally gives the per-test pass/fail line).  Tolerances and
budgets are asserted, not aspirational.
"""

import itertools
import time

import numpy as np
import pytest

import hapbeam.solver as solver
from hapbeam.array_model import (
    AngleBox,
    ArrayConfig,
    analog_beamformer_at,
    detune_q_matrix,
    exact_gain_loss,
    gain_loss_quadratic,
    spectral_bound_l2,
    steering_vector,
)
from hapbeam.calibration import conformal_radius, coverage_check
from hapbeam.channel import ChannelParams, effective_channel, fspl_gain, sinr_and_rates, synthesize_channel
from hapbeam.forecast import (
    AttitudeSeries,
    ForecastOutput,
    ForecastRequest,
    forecast_errors,
    forecast_linear_trend,
)
from hapbeam.geometry import (
    EulerZYX,
    WorldGeometry,
    euler_to_rotation,
    rotation_exp,
    rotation_log_vee,
    rotation_to_euler,
)
from hapbeam.harness import ScenarioConfig, place_users, run_experiment
from hapbeam.io import write_snapshots_csv
from hapbeam.solver import (
    SnapshotProblem,
    kkt_decompose,
    kkt_reconstruct,
    power_dual_bisection,
    predict_admission_and_scalars,
    project_power,
    solve_snapshot,
    transmit_power,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}", flush=True)


def test_criterion_01_rotation_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    yaw = rng.uniform(-np.pi, np.pi, n)
    pitch = rng.uniform(-1.4, 1.4, n)
    roll = rng.uniform(-np.pi, np.pi, n)
    worst_rt = 0.0
    for y, p, r in zip(yaw, pitch, roll):
        att = EulerZYX(y, p, r)
        back = rotation_to_euler(euler_to_rotation(att))
        worst_rt = max(worst_rt, np.max(np.abs(back.as_array() - att.as_array())))
    assert worst_rt < 1e-8, f"euler round-trip error {worst_rt}"

    worst_log = 0.0
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(1e-6, np.pi - 0.1, n)
    base_eulers = zip(
        rng.uniform(-np.pi, np.pi, n), rng.uniform(-1.4, 1.4, n),
        rng.uniform(-np.pi, np.pi, n),
    )
    for axis, ang, (y, p, r) in zip(axes, angles, base_eulers):
        omega = axis * ang
        R_hat = euler_to_rotation(EulerZYX(y, p, r))
        R = R_hat @ rotation_exp(omega)
        got = rotation_log_vee(R_hat, R)
        worst_log = max(worst_log, np.max(np.abs(got - omega)))
    assert worst_log < 1e-8, f"log-vee recovery error {worst_log}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"rotation suite took {elapsed:.2f}s"
    _report(1, f"round-trip {worst_rt:.2e}, recovery {worst_log:.2e}, {elapsed:.2f}s")


def test_criterion_02_constant_modulus():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        m_x, m_y = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        lam = float(rng.uniform(0.005, 0.05))
        K = int(rng.integers(1, 7))
        cfg = ArrayConfig(
            m_x=m_x, m_y=m_y,
            d_x=float(rng.uniform(0.3, 0.7)) * lam,
            d_y=float(rng.uniform(0.3, 0.7)) * lam,
            wavelength=lam, n_rf=K,
        )
        radius = 20e3 * np.sqrt(rng.random(K))
        phi = rng.uniform(0, 2 * np.pi, K)
        users = np.column_stack(
            [radius * np.cos(phi), radius * np.sin(phi), np.zeros(K)]
        )
        geom = WorldGeometry.build([0.0, 0.0, 20e3], users)
        att = EulerZYX(*rng.uniform(-0.17, 0.17, 3))
        A = analog_beamformer_at(cfg, geom, att)
        worst = max(worst, float(np.max(np.abs(np.abs(A) ** 2 - 1.0 / cfg.num_elements))))
    assert worst <= 1e-15, f"modulus deviation {worst}"
    _report(2, f"|entry|^2 deviation {worst:.2e} over 1000 scenarios")


def test_criterion_03_quadratic_loss_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for m in (8, 12):
        cfg = ArrayConfig(m, m, 0.005, 0.005, 0.01, 1)
        cap = 0.1 / m
        xi = rng.uniform(-cap, cap, size=(10_000, 2))
        for x in xi:
            q = gain_loss_quadratic(cfg, x)
            e = exact_gain_loss(cfg, x)
            if e > 1e-14:
                worst = max(worst, abs(q - e) / e)
    assert worst <= 0.05, f"quadratic model off by {worst:.3%}"
    _report(3, f"max relative model error {worst:.3%} on 8x8 and 12x12")


def test_criterion_04_curvature_bound_monte_carlo():
    # non-square array so the curvature actually varies over the box
    cfg = ArrayConfig(12, 8, 0.005, 0.005, 0.01, 1)
    rng = np.random.default_rng(404)
    grid = 33
    violations = 0
    for theta0, phi0 in [(0.15, 0.3), (0.5, -1.2), (0.9, 2.0)]:
        box = AngleBox.around(theta0, phi0, np.deg2rad(3.0))
        l2 = spectral_bound_l2(cfg, box)
        delta = 0.02
        thetas = np.linspace(box.theta_lo, box.theta_hi, grid)
        phis = np.linspace(box.phi_lo, box.phi_hi, grid)
        for _ in range(3334):
            w = rng.standard_normal(3)
            w *= delta * rng.random() ** (1 / 3) / np.linalg.norm(w)
            th = thetas[rng.integers(grid)]
            ph = phis[rng.integers(grid)]
            Q = detune_q_matrix(cfg, th, ph)
            if w @ Q @ w > l2 * delta**2 * (1 + 1e-12):
                violations += 1
    assert violations == 0, f"{violations} certificate violations"
    _report(4, "0 violations over 10002 sampled (residual, grid-angle) pairs")


def test_criterion_05_conformal_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    scores = rng.exponential(1.0, 4000)
    cal, test = scores[:2000], scores[2000:]
    cov = {}
    for rho in (0.01, 0.05, 0.1, 0.2):
        delta = conformal_radius(cal, rho)
        cov[rho] = coverage_check(test, delta)
    assert 0.88 <= cov[0.1] <= 0.93, f"coverage at rho=0.1 was {cov[0.1]:.4f}"
    assert 0.77 <= cov[0.2] <= 0.83, f"coverage at rho=0.2 was {cov[0.2]:.4f}"
    ordered = [cov[r] for r in (0.2, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(ordered, ordered[1:])), (
        f"coverage not monotone in 1-rho: {cov}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, f"coverage rho=0.1: {cov[0.1]:.3f}, rho=0.2: {cov[0.2]:.3f}, "
               f"monotone, {elapsed:.2f}s")


def _fuzz_snapshot(seed: int) -> SnapshotProblem:
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 13))
    cfg = ArrayConfig(6, 6, 0.005, 0.005, 0.01, K)
    users = place_users("uniform", K, 20e3, int(rng.integers(1 << 31)))
    geom = WorldGeometry.build([0.0, 0.0, 20e3], users)
    kappa = np.inf if rng.random() < 0.25 else float(rng.uniform(0.3, 30.0))
    params = ChannelParams.build(
        kappa=kappa,
        beta=fspl_gain(cfg.wavelength, geom.distance),
        noise_power=float(rng.uniform(0.3, 3.0)) * 1e-13,
        bandwidth=1.0,
        num_users=K,
    )
    att_true = EulerZYX(*rng.uniform(-0.1, 0.1, 3))
    att_beam = EulerZYX(*(att_true.as_array() + rng.uniform(-0.02, 0.02, 3)))
    H = synthesize_channel(cfg, geom, att_true, params, rng)
    A = analog_beamformer_at(cfg, geom, att_beam)
    return SnapshotProblem.build(
        effective_channel(H, A),
        r_min=rng.uniform(0.3, 2.5, K),
        p_max=float(rng.uniform(1.0, 20.0)),
        noise_power=params.noise_power,
        bandwidth=1.0,
        certified=rng.random(K) < 0.85,
        analog_gram=A.conj().T @ A,
    )


def test_criterion_06_solver_feasibility_fuzz():
    t0 = time.perf_counter()
    n = 10_000
    for seed in range(n):
        prob = _fuzz_snapshot(seed)
        sol = solve_snapshot(prob, k_min=8)
        assert sol.feasible, f"seed {seed} infeasible"
        p = transmit_power(prob, sol.d_matrix)
        assert p <= prob.p_max, f"seed {seed} power {p} > {prob.p_max}"
        _, rates = sinr_and_rates(prob.h_eff, sol.d_matrix, prob.noise_power, 1.0)
        assert np.all(rates[sol.admitted] >= prob.r_min[sol.admitted]), (
            f"seed {seed} broke an admitted rate floor"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"fuzz took {elapsed:.1f}s"
    _report(6, f"{n} fuzzed snapshots 100% feasible in {elapsed:.1f}s")


def _oracle_qar(prob: SnapshotProblem) -> float:
    scalars = predict_admission_and_scalars(prob, k_min=prob.num_users)
    cert = np.flatnonzero(prob.certified)
    for r in range(len(cert), 0, -1):
        for subset in itertools.combinations(cert, r):
            mask = np.zeros(prob.num_users, bool)
            mask[list(subset)] = True
            _, D, _ = power_dual_bisection(prob, mask, scalars)
            D = project_power(prob, D)
            _, rates = sinr_and_rates(prob.h_eff, D, prob.noise_power, 1.0)
            if np.all(rates[mask] >= prob.r_min[mask]):
                return r / prob.num_users
    return 0.0


def _oracle_problems(total: int = 500):
    """Criterion 7's small instances: K = 2..4 users on K chains."""
    rng = np.random.default_rng(707)
    for _ in range(total):
        K = int(rng.integers(2, 5))
        H = (rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))) / np.sqrt(2 * K)
        yield SnapshotProblem.build(
            H,
            r_min=rng.uniform(0.1, 2.0, K),
            p_max=float(rng.uniform(0.5, 5.0)),
            noise_power=float(rng.uniform(0.01, 0.5)),
            certified=rng.random(K) < 0.9,
        )


def test_criterion_07_small_instance_oracle():
    match = 0
    total = 500
    for case, prob in enumerate(_oracle_problems(total)):
        K = prob.num_users
        got = solve_snapshot(prob, k_min=8).qar
        oracle = _oracle_qar(prob)
        assert got <= oracle + 1e-12, f"case {case}: beat the exhaustive oracle"
        assert oracle - got <= 1.0 / K + 1e-12, (
            f"case {case}: QAR {got} vs oracle {oracle}"
        )
        match += abs(got - oracle) < 1e-12
    rate = match / total
    assert rate >= 0.95, f"oracle match rate {rate:.3f}"
    _report(7, f"oracle QAR match {rate:.1%}, never worse by more than one user")


def test_criterion_08_dual_and_refinement_monotonicity(monkeypatch):
    # power falls along the dual by construction (a secular sum in the
    # Gram-whitened basis); a direct sweep checks it, and refinement must
    # never lower the objective
    rng = np.random.default_rng(808)
    for case in range(500):
        K = int(rng.integers(2, 9))
        H = (rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))) / np.sqrt(2 * K)
        prob = SnapshotProblem.build(
            H,
            r_min=rng.uniform(0.1, 2.0, K),
            p_max=float(rng.uniform(0.5, 4.0)),
            noise_power=float(rng.uniform(0.05, 0.5)),
        )
        scalars = predict_admission_and_scalars(prob, k_min=K)
        eig = kkt_decompose(prob, prob.certified, scalars)
        powers = [
            transmit_power(prob, kkt_reconstruct(prob, eig, nu))
            for nu in np.logspace(-2, 2, 9)
        ]
        assert np.all(np.diff(powers) <= 1e-9 * max(powers)), f"case {case}"
        with monkeypatch.context() as m:
            m.setattr(solver, "MAX_SWEEPS", 0)  # the unrefined solve
            s0 = solve_snapshot(prob)
        s1 = solve_snapshot(prob)
        assert s1.sum_rate >= s0.sum_rate - 1e-12, f"case {case} refinement regressed"
    _report(8, "500 dual sweeps monotone, 500 refinements never regressed")


def test_criterion_09_mode_ordering():
    t0 = time.perf_counter()
    results = {}
    for mode in ("none", "reactive", "forecast", "ideal"):
        cfg = ScenarioConfig.from_dict({"snapshots": 500, "compensation": mode})
        results[mode] = np.asarray(run_experiment(cfg).snapshots["sum_rate"])
    diff = results["ideal"] - results["none"]
    t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
    assert t_stat > 3.0, f"paired t = {t_stat:.2f}"
    m_fc, m_re = results["forecast"].mean(), results["reactive"].mean()
    assert m_fc >= m_re, f"forecast {m_fc:.4f} < reactive {m_re:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"mode ordering took {elapsed:.0f}s"
    _report(9, f"paired t(ideal-none) = {t_stat:.1f}, forecast {m_fc:.3f} >= "
               f"reactive {m_re:.3f}, {elapsed:.0f}s")


def test_criterion_10_user_number_trend():
    qars = []
    for K in (8, 10, 12):
        cfg = ScenarioConfig.from_dict({"snapshots": 500, "users": {"count": K}})
        qars.append(run_experiment(cfg).aggregates["mean_QAR"])
    assert qars[0] > qars[1] > qars[2], f"QAR trend not strict: {qars}"
    _report(10, "mean QAR " + " > ".join(f"{q:.4f}" for q in qars) + " for K = 8/10/12")


def test_criterion_11_forecast_metric_correctness():
    # wrap seam: truth 179 deg, forecast -179 deg -> 2 deg error
    truth = np.zeros((10, 3))
    truth[:, 0] = np.deg2rad(179.0)
    series = AttitudeSeries.build(0.1, truth)
    angles = np.zeros((2, 3))
    angles[:, 0] = np.deg2rad(-179.0)
    out = ForecastOutput(origin=7, angles=angles, tag="fixed")
    rep = forecast_errors(series, [out], d=0)
    assert rep.mae_deg[0] == pytest.approx(2.0, abs=1e-9), rep.mae_deg

    # affine series: linear trend is exact to machine precision
    t = np.arange(240)[:, None]
    affine = AttitudeSeries.build(0.1, t * np.array([[2e-4, -1e-4, 5e-5]]) + 0.01)
    req = ForecastRequest(origin=199, l_win=64, h_pred=12, d=6)
    pred = forecast_linear_trend(affine, req)
    err_deg = np.degrees(
        np.max(np.abs(pred.angles - affine.samples[200:212]))
    )
    assert err_deg < 1e-9, f"linear forecaster error {err_deg} deg"
    _report(11, f"seam error 2 deg exact, affine error {err_deg:.2e} deg")


def test_criterion_12_end_to_end_determinism(tmp_path):
    cfg = ScenarioConfig.from_dict({"snapshots": 40, "users": {"count": 6}})
    paths = []
    for name in ("a", "b"):
        res = run_experiment(cfg)
        p = tmp_path / f"snapshots_{name}.csv"
        write_snapshots_csv(p, res.snapshots)
        paths.append(p)
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b1 == b2, "snapshot tables differ between identical runs"
    _report(12, f"byte-identical snapshots.csv ({len(b1)} bytes)")
