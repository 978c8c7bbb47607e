import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hapbeam.solver as solver
from hapbeam.array_model import ArrayConfig, analog_beamformer_at
from hapbeam.channel import (
    ChannelParams,
    effective_channel,
    fspl_gain,
    sinr_and_rates,
    synthesize_channel,
)
from hapbeam.geometry import EulerZYX, WorldGeometry
from hapbeam.harness import place_users
from hapbeam.errors import ConfigError, InvariantError
from hapbeam.solver import (
    ADMISSION_PRIORITIES,
    REG_REL,
    BeamSolution,
    SnapshotProblem,
    SolverScalars,
    kkt_decompose,
    kkt_reconstruct,
    power_dual_bisection,
    predict_admission_and_scalars,
    project_power,
    refine_qos_safe,
    required_power_proxy,
    solve_snapshot,
    strict_repair,
    transmit_power,
)


def random_problem(seed, k_max=12, p_max=None, certify_frac=0.8):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, k_max + 1))
    N = K
    H = (rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))) / np.sqrt(2 * N)
    return SnapshotProblem.build(
        H,
        r_min=rng.uniform(0.1, 2.0, K),
        p_max=float(rng.uniform(0.5, 5.0)) if p_max is None else p_max,
        noise_power=float(rng.uniform(0.01, 0.5)),
        certified=rng.random(K) < certify_frac,
    )


class TestProblemAndProxy:
    def test_power_proxy_example(self):
        # gamma = 2^2 - 1 = 3, gain 4, noise 1 -> 0.75
        h = np.array([[1 + 1j, 1 - 1j, 0, 0]], dtype=complex)
        prob = SnapshotProblem.build(h, r_min=2.0, p_max=1.0, noise_power=1.0)
        assert required_power_proxy(prob)[0] == pytest.approx(0.75, abs=1e-12)

    def test_power_proxy_zero_floor(self):
        h = np.ones((3, 4), dtype=complex)
        prob = SnapshotProblem.build(h, r_min=0.0, p_max=1.0, noise_power=1.0)
        assert np.all(required_power_proxy(prob) == 0.0)

    def test_build_validation(self):
        h = np.ones((2, 4), dtype=complex)
        with pytest.raises(ConfigError):
            SnapshotProblem.build(h, r_min=-1.0, p_max=1.0, noise_power=1.0)
        with pytest.raises(ConfigError):
            SnapshotProblem.build(h, r_min=1.0, p_max=0.0, noise_power=1.0)
        with pytest.raises(ConfigError):
            SnapshotProblem.build(h, r_min=1.0, p_max=1.0, noise_power=-1.0)
        with pytest.raises(ConfigError):
            SnapshotProblem.build(
                h, r_min=1.0, p_max=1.0, noise_power=1.0, certified=[True] * 3
            )
        bad_gram = np.array([[1.0, 1j], [1j, 1.0]])  # not Hermitian
        with pytest.raises(ConfigError):
            SnapshotProblem.build(
                np.ones((2, 2), dtype=complex),
                r_min=1.0,
                p_max=1.0,
                noise_power=1.0,
                analog_gram=bad_gram,
            )
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # D = [1, -1] has power -2
        with pytest.raises(ConfigError, match="positive semidefinite"):
            SnapshotProblem.build(
                np.ones((2, 2), dtype=complex),
                r_min=1.0,
                p_max=1.0,
                noise_power=1.0,
                analog_gram=indefinite,
            )

    @pytest.mark.parametrize(
        "arg, value",
        [
            ("h_eff", np.nan), ("h_eff", np.inf), ("r_min", np.nan), ("r_min", np.inf),
            ("p_max", np.nan), ("p_max", np.inf), ("noise_power", np.nan),
            ("noise_power", np.inf), ("bandwidth", np.nan), ("bandwidth", np.inf),
            ("circuit_power", np.nan), ("circuit_power", np.inf),
            ("analog_gram", np.nan), ("analog_gram", np.inf),
            pytest.param("p_max", 10**400, id="p_max-huge-int"),
        ],
    )
    def test_build_rejects_non_finite(self, arg, value):
        kwargs = dict(h_eff=np.ones((2, 2), dtype=complex), r_min=[1.0, 1.0], p_max=1.0,
                      noise_power=1.0, bandwidth=1.0, circuit_power=1.0,
                      analog_gram=np.eye(2, dtype=complex))
        if arg in ("h_eff", "r_min", "analog_gram"):
            kwargs[arg] = np.array(kwargs[arg])
            kwargs[arg].flat[0] = value
        else:
            kwargs[arg] = value
        with pytest.raises(ConfigError, match=rf"^{arg} must be"):
            SnapshotProblem.build(**kwargs)

    def test_whitener(self):
        # W = L^{-H} with G = L L^H: exactly I for the identity Gram, and it
        # whitens a steering Gram
        prob = random_problem(2)
        assert np.array_equal(prob.whitener, np.eye(prob.h_eff.shape[1]))
        prob, _ = _kkt_case("analog-gram")
        W = prob.whitener
        assert np.allclose(W.conj().T @ prob.analog_gram @ W, np.eye(8), atol=1e-12)
        assert np.array_equal(W, np.triu(W))

    def test_transmit_power_matches_element_domain(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        D = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        prob = SnapshotProblem.build(
            np.ones((3, 4), dtype=complex),
            r_min=0.1,
            p_max=1.0,
            noise_power=1.0,
            analog_gram=A.conj().T @ A,
        )
        direct = np.linalg.norm(A @ D) ** 2
        assert transmit_power(prob, D) == pytest.approx(direct, rel=1e-12)


class TestPredictor:
    @pytest.mark.parametrize("k_min", [1, 3, 8, 20])
    def test_start_set_structure(self, k_min):
        # the first min(k_min, #certified) certified users in (pi, index) order
        for seed in range(20):
            prob = random_problem(seed, certify_frac=0.6)
            sc = predict_admission_and_scalars(prob, k_min=k_min)
            K = prob.num_users
            order = np.lexsort((np.arange(K), sc.pi))
            order = order[prob.certified[order]]
            expected = np.zeros(K, bool)
            expected[order[:k_min]] = True
            assert sc.start.dtype == bool and sc.start.shape == (K,)
            assert np.array_equal(sc.start, expected)

    def test_uncertified_scored_zero(self):
        prob = random_problem(5, certify_frac=0.5)
        assert not prob.certified.all()
        for priority in ADMISSION_PRIORITIES:
            sc = predict_admission_and_scalars(prob, k_min=8, priority=priority)
            assert not sc.start[~prob.certified].any()

    def test_channel_gain_priority(self):
        # the gain order is the qos-difficulty order under one scalar floor,
        # the only kind the pipeline builds, so it is no longer a priority
        H = np.diag([3.0, 1.0, 2.0]).astype(complex)
        prob = SnapshotProblem.build(H, r_min=1.0, p_max=1.0, noise_power=1.0)
        with pytest.raises(ConfigError, match="channel-gain"):
            predict_admission_and_scalars(prob, k_min=1, priority="channel-gain")

    def test_random_priority_seeded(self):
        prob = random_problem(4, certify_frac=1.0)
        a = predict_admission_and_scalars(prob, k_min=2, priority="random", seed=9)
        b = predict_admission_and_scalars(prob, k_min=2, priority="random", seed=9)
        assert np.array_equal(a.start, b.start)
        assert a.start.sum() == 2

    def test_unseeded_random_priority_deterministic(self):
        # a call without a seed draws the same admission order every time
        prob = SnapshotProblem.build(
            _crandn(np.random.default_rng(10), 10, 6), r_min=0.5, p_max=2.0,
            noise_power=0.1,
        )
        first = solve_snapshot(prob, k_min=5, priority="random")
        for _ in range(20):
            again = solve_snapshot(prob, k_min=5, priority="random")
            assert again.d_matrix.tobytes() == first.d_matrix.tobytes()
            assert again.admitted.tobytes() == first.admitted.tobytes()

    def test_unknown_priority(self):
        prob = random_problem(4)
        with pytest.raises(ConfigError):
            predict_admission_and_scalars(prob, priority="alphabetical")

    def test_weights_clamped(self):
        for seed in range(20):
            sc = predict_admission_and_scalars(random_problem(seed))
            assert np.all(sc.w >= 1.0) and np.all(sc.w <= 1e6)


class TestKKT:
    def test_empty_set_zero(self):
        prob = random_problem(1)
        sc = predict_admission_and_scalars(prob)
        mask = np.zeros(prob.num_users, bool)
        D = kkt_reconstruct(prob, kkt_decompose(prob, mask, sc), 0.0)
        assert not D.any()

    def test_weight_scale_invariance(self):
        # scaling every w by a constant must not move the nu = 0 solution
        prob = random_problem(8, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        mask = prob.certified.copy()
        D1 = kkt_reconstruct(prob, kkt_decompose(prob, mask, sc), 0.0)
        sc2 = SolverScalars(sc.start, sc.u, sc.w * 2.0, sc.pi)
        D2 = kkt_reconstruct(prob, kkt_decompose(prob, mask, sc2), 0.0)
        assert np.allclose(D1, D2, rtol=1e-10, atol=0)

    def test_nonadmitted_columns_zero(self):
        prob = random_problem(13, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        mask = prob.certified.copy()
        mask[0] = False
        D = kkt_reconstruct(prob, kkt_decompose(prob, mask, sc), 0.5)
        assert not D[:, 0].any()
        assert D[:, 1:].any()

    def test_single_user_matched_direction(self):
        # rank-one C: the solve must return a scaled copy of the channel
        rng = np.random.default_rng(6)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        prob = SnapshotProblem.build(h[None, :], 1.0, 4.0, 0.3)
        sc = predict_admission_and_scalars(prob)
        D = kkt_reconstruct(prob, kkt_decompose(prob, np.array([True]), sc), 0.0)
        d = D[:, 0]
        cos = abs(np.vdot(d, h.conj())) / (np.linalg.norm(d) * np.linalg.norm(h))
        assert cos == pytest.approx(1.0, abs=1e-12)


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _kkt_case(name):
    """(problem, admitted mask) for the dense-reference KKT comparison."""
    rng = np.random.default_rng(606)
    N = 8
    gram = None
    if name == "rank-deficient":  # 3 admitted users on 8 chains: C has rank 3
        H = _crandn(rng, 3, N)
    elif name == "near-collinear":  # full rank, two users 1e-7 apart
        H = _crandn(rng, N, N)
        H[1] = H[0] + 1e-7 * _crandn(rng, N)
    elif name == "analog-gram":  # non-identity A^H A, more users than chains
        A = _crandn(rng, 24, N) / np.sqrt(24)
        H = _crandn(rng, 10, N)
        gram = A.conj().T @ A
    prob = SnapshotProblem.build(H, r_min=1.0, p_max=2.0, noise_power=0.1,
                                 analog_gram=gram)
    return prob, np.ones(prob.num_users, bool)


def _dense_kkt(prob, mask, sc, nu):
    """Reference: solve (C + (nu + reg) G) d = rhs with a dense solver, G the
    analog Gram and reg = REG_REL * tr(G^{-1} C)/N_RF."""
    idx = np.flatnonzero(mask)
    Hm = prob.h_eff[idx]
    C = (Hm.conj().T * (sc.w[idx] * np.abs(sc.u[idx]) ** 2)) @ Hm
    G = prob.analog_gram
    N = C.shape[0]
    reg = REG_REL * np.linalg.solve(G, C).trace().real / N
    Cs = C + (nu + reg) * G
    D = np.zeros((N, prob.num_users), dtype=complex)
    D[:, idx] = np.linalg.solve(Cs, Hm.conj().T * (sc.w[idx] * sc.u[idx].conj()))
    return D, np.linalg.cond(Cs)


KKT_SHIFTS = [0.0, *np.logspace(-3, 3, 13)]


class TestKKTEigen:
    @pytest.mark.parametrize("case", ["rank-deficient", "near-collinear", "analog-gram"])
    def test_matches_dense_reference(self, case):
        prob, mask = _kkt_case(case)
        sc = predict_admission_and_scalars(prob, k_min=prob.num_users)
        N = prob.h_eff.shape[1]
        eig = kkt_decompose(prob, mask, sc)
        for nu in KKT_SHIFTS:
            D = kkt_reconstruct(prob, eig, nu)
            ref, cond = _dense_kkt(prob, mask, sc, nu)
            # forward error of two backward-stable solves of one system
            tol = 100 * N * np.finfo(float).eps * cond
            err = np.linalg.norm(D - ref) / np.linalg.norm(ref)
            assert err <= tol, (case, nu, err, tol)

    def test_zero_scalars_give_zero_beamformer(self):
        prob, mask = _kkt_case("analog-gram")
        K = prob.num_users
        sc = SolverScalars(np.ones(K, bool), np.zeros(K, complex), np.ones(K),
                           required_power_proxy(prob))
        eig = kkt_decompose(prob, mask, sc)
        for nu in KKT_SHIFTS:
            D = kkt_reconstruct(prob, eig, nu)
            assert D.shape == (prob.h_eff.shape[1], K)
            assert not D.any()


class TestBisection:
    def test_zero_dual_when_budget_loose(self):
        # orthogonal channels with unit weights: the unconstrained solve has
        # power about 100 * K, far below the budget, so the shortcut fires
        K = 3
        prob = SnapshotProblem.build(
            np.eye(K, dtype=complex), r_min=0.1, p_max=1e4, noise_power=1.0
        )
        sc = SolverScalars(
            start=np.ones(K, bool),
            u=np.full(K, 0.1, dtype=complex),
            w=np.ones(K),
            pi=required_power_proxy(prob),
        )
        nu, D, n_ev = power_dual_bisection(prob, np.ones(K, bool), sc)
        assert nu == 0.0
        assert n_ev == 1
        assert transmit_power(prob, D) == pytest.approx(300.0, rel=1e-6)

    @pytest.mark.parametrize("gram", ["identity", "steering"])
    def test_power_lands_in_band(self, gram):
        steering = _kkt_case("analog-gram")[0].analog_gram  # 8 chains
        searched = 0
        for seed in range(30):
            prob = random_problem(seed, p_max=0.05)
            if gram == "steering":
                rng = np.random.default_rng(seed)
                prob = SnapshotProblem.build(
                    _crandn(rng, 10, 8) / 4.0, r_min=1.0, p_max=0.05, noise_power=0.1,
                    certified=rng.random(10) < 0.8, analog_gram=steering,
                )
            sc = predict_admission_and_scalars(prob)
            mask = prob.certified.copy()
            if not mask.any():
                continue
            nu, D, _ = power_dual_bisection(prob, mask, sc)
            p = transmit_power(prob, D)
            if nu > 0.0:
                assert 0.99 * prob.p_max <= p <= prob.p_max
                searched += 1
        assert searched > 10

    def test_power_monotone_in_dual(self):
        prob = random_problem(33, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        eig = kkt_decompose(prob, prob.certified, sc)
        powers = [
            transmit_power(prob, kkt_reconstruct(prob, eig, nu))
            for nu in np.logspace(-3, 3, 25)
        ]
        assert np.all(np.diff(powers) <= 1e-12)

    @pytest.mark.parametrize("gram", ["none", "identity", "steering"])
    def test_projection_enforces_budget(self, gram):
        # sqrt(P_max / power) and the scaling round, so many draws are needed
        # to meet a scaled power that rounds above the budget
        rng = np.random.default_rng(17)
        N, K = 10, 6
        A = np.exp(2j * np.pi * rng.random((64, N))) / 8.0  # constant-modulus columns
        analog_gram = {"none": None, "identity": np.eye(N), "steering": A.conj().T @ A}[gram]
        H = _crandn(rng, K, N)
        for _ in range(1000):
            p_max = 10.0 ** rng.uniform(-2, 2)
            prob = SnapshotProblem.build(H, r_min=1.0, p_max=p_max, noise_power=0.1,
                                         analog_gram=analog_gram)
            D = _crandn(rng, N, K) * 10.0 ** rng.uniform(-1, 2)
            p = transmit_power(prob, D)
            Dp = project_power(prob, D)
            if p <= p_max:
                assert Dp.tobytes() == D.tobytes()
            else:
                assert (1 - 1e-9) * p_max <= transmit_power(prob, Dp) <= p_max


class TestDualPower:
    """The dual search reads power from the eigenbasis and builds D once."""

    @pytest.mark.parametrize(
        "case", ["rank-deficient", "near-collinear", "analog-gram", "random"]
    )
    def test_eigenbasis_power_matches_beamformer(self, case):
        if case == "random":  # identity analog Gram, K = N_RF
            prob = random_problem(33, certify_frac=1.0)
            mask = prob.certified.copy()
        else:
            prob, mask = _kkt_case(case)
        sc = predict_admission_and_scalars(prob, k_min=prob.num_users)
        eig = kkt_decompose(prob, mask, sc)
        lam, c = solver._secular_terms(eig)
        N = prob.h_eff.shape[1]
        # the same sums of N_RF-term products in another order, weighted by G
        tol = 100 * N * np.finfo(float).eps * np.linalg.cond(prob.analog_gram)
        for nu in KKT_SHIFTS:
            ref = transmit_power(prob, kkt_reconstruct(prob, eig, nu))
            err = abs(np.sum(c / (lam + nu) ** 2) - ref) / ref
            assert err <= tol, (case, nu, err, tol)

    @pytest.mark.parametrize("backoff_db", [0.0, 0.5])
    def test_one_beamformer_per_search(self, monkeypatch, backoff_db):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return kkt_reconstruct(*args, **kwargs)

        monkeypatch.setattr(solver, "kkt_reconstruct", counting)
        searched = 0
        for seed in range(30):
            prob = random_problem(seed, p_max=0.05 * 10 ** (-backoff_db / 10))
            sc = predict_admission_and_scalars(prob)
            mask = prob.certified.copy()
            calls.clear()
            nu, D, n_ev = power_dual_bisection(prob, mask, sc)
            assert calls == [nu]
            ref = kkt_reconstruct(prob, kkt_decompose(prob, mask, sc), nu)
            assert D.tobytes() == ref.tobytes()
            searched += n_ev > 2
        assert searched > 10  # the budget is tight enough to force Newton steps

    @pytest.mark.parametrize("backoff_db", [0.0, 0.5])
    def test_zero_scalars_stop_at_zero_dual(self, backoff_db):
        prob, mask = _kkt_case("analog-gram")
        prob = replace(prob, p_max=prob.p_max * 10 ** (-backoff_db / 10))
        K = prob.num_users
        sc = SolverScalars(np.ones(K, bool), np.zeros(K, complex), np.ones(K),
                           required_power_proxy(prob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu, D, n_ev = power_dual_bisection(prob, mask, sc)
        assert (nu, n_ev) == (0.0, 1)
        assert D.shape == (prob.h_eff.shape[1], prob.num_users) and not D.any()


class TestRepairAndSolve:
    def test_two_user_collinear_drops_one(self):
        # nearly collinear pair: either user alone clears a 3 bit floor
        # (single-user rate about 3.5) but joint service cannot, so the
        # repair keeps exactly one
        h = np.array([[1.0, 0.2], [0.98, 0.21]], dtype=complex)
        prob = SnapshotProblem.build(h, r_min=3.0, p_max=1.0, noise_power=0.1)
        sol = solve_snapshot(prob, k_min=8)
        assert sol.feasible
        assert sol.admitted.sum() == 1
        assert sol.stats["drops"] >= 1

    def test_addback_fills_easy_problem(self):
        H = np.eye(4, dtype=complex) * 2.0
        prob = SnapshotProblem.build(H, r_min=0.5, p_max=8.0, noise_power=0.5)
        sol = solve_snapshot(prob, k_min=2)
        assert sol.admitted.all()
        assert sol.stats["addbacks"] == 2

    def test_no_certified_users(self):
        prob = SnapshotProblem.build(
            np.ones((3, 3), dtype=complex),
            r_min=1.0,
            p_max=1.0,
            noise_power=1.0,
            certified=np.zeros(3, bool),
        )
        sol = solve_snapshot(prob)
        assert sol.feasible
        assert sol.qar == 0.0
        assert sol.sum_rate == 0.0
        assert sol.power == 0.0
        assert not sol.d_matrix.any()

    def test_feasibility_fuzz(self):
        for seed in range(300):
            prob = random_problem(seed)
            sol = solve_snapshot(prob, k_min=8)
            assert sol.feasible
            assert sol.power <= prob.p_max
            assert not sol.d_matrix[:, ~sol.admitted].any()
            # recompute rates independently of the solution object
            _, rates = sinr_and_rates(
                prob.h_eff, sol.d_matrix, prob.noise_power, prob.bandwidth
            )
            assert np.all(rates[sol.admitted] >= prob.r_min[sol.admitted])
            assert np.all(sol.admitted <= prob.certified)

    def test_k1_rate_identity(self):
        # matched single-user beam: SINR = power * ||h||^2 / noise exactly
        rng = np.random.default_rng(44)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        prob = SnapshotProblem.build(h[None, :], 2.0, 10.0, 1.0)
        sol = solve_snapshot(prob)
        expect = prob.bandwidth * np.log2(
            1.0 + sol.power * np.linalg.norm(h) ** 2 / prob.noise_power
        )
        assert sol.rates[0] == pytest.approx(expect, rel=1e-10)
        assert 0.99 * prob.p_max <= sol.power <= prob.p_max

    def test_addback_rescans_after_each_accepted_user(self, monkeypatch):
        # scripted solves on 4 users ranked 0, 1, 2 by pi with user 3 admitted:
        # {0, 3} and any set holding user 2 miss their floors, the rest clear
        # each add-back pass is one stacked solve of all its trials
        prob = SnapshotProblem.build(np.eye(4, dtype=complex), r_min=1.0,
                                     p_max=1.0, noise_power=1.0)
        passes = []

        def scripted(problem, mask, scalars):
            masks = np.atleast_2d(mask)
            users = [tuple(np.flatnonzero(m)) for m in masks]
            passes.append(users)
            ok = np.array([u != (0, 3) and not m[2] for u, m in zip(users, masks)])
            D, rates = np.zeros((len(masks), 4, 4), complex), prob.r_min * ok[:, None]
            if mask.ndim == 1:
                return D[0], rates[0], 1
            return D, rates, np.ones(len(masks), int)

        monkeypatch.setattr(solver, "_solve_projected", scripted)
        sc = SolverScalars(np.zeros(4, bool), np.zeros(4, complex), np.ones(4),
                           np.array([0.1, 0.2, 0.3, 0.0]))
        admitted, _, stats = strict_repair(prob, np.array([0, 0, 0, 1], bool), sc)
        assert admitted.tolist() == [True, True, False, True]
        assert stats["addbacks"] == 2 and stats["drops"] == 0
        # evaluations count the trials up to each accepted one, as a
        # trial-by-trial scan solves them: 1 + 2 + 1 + 1
        assert stats["dual_evals"] == 5
        # the scan restarts at the first-ranked user after each acceptance
        assert passes == [[(3,)], [(0, 3), (1, 3), (2, 3)], [(0, 1, 3), (1, 2, 3)],
                          [(0, 1, 2, 3)]]

    def test_power_on_a_non_admitted_column_is_rejected(self, monkeypatch):
        prob = SnapshotProblem.build(np.array([[1.0, 0.2], [0.98, 0.21]], complex),
                                     r_min=3.0, p_max=1.0, noise_power=0.1)
        refine = solver.refine_qos_safe

        def leaky(problem, admitted, *args):
            D, stats = refine(problem, admitted, *args)
            D = D.copy()
            D[0, np.flatnonzero(~admitted)[0]] = 1e-12
            return D, stats

        monkeypatch.setattr(solver, "refine_qos_safe", leaky)
        with pytest.raises(InvariantError, match="non-admitted"):
            solve_snapshot(prob)

    def test_qar_and_sum_rate_accounting(self):
        prob = random_problem(55, certify_frac=0.7)
        sol = solve_snapshot(prob)
        assert sol.qar == sol.admitted.sum() / prob.num_users
        assert sol.sum_rate == pytest.approx(float(np.sum(sol.rates[sol.admitted])))
        assert sol.energy_efficiency == pytest.approx(
            sol.sum_rate / (sol.power + prob.circuit_power)
        )


def _shared_direction_problem():
    """Four users on a 6x6 array, the first two at the same ground position:
    their analog columns coincide and the Gram is numerically singular."""
    cfg = ArrayConfig(6, 6, 0.005, 0.005, 0.01, 4)
    users = place_users("uniform", 4, 20e3, seed=0)
    users[1] = users[0]
    geom = WorldGeometry.build([0.0, 0.0, 20e3], users)
    params = ChannelParams.build(kappa=10.0, beta=fspl_gain(cfg.wavelength, geom.distance),
                                 noise_power=1e-13, bandwidth=1.0, num_users=4)
    att = EulerZYX(0.05, -0.02, 0.01)
    H = synthesize_channel(cfg, geom, att, params, np.random.default_rng(0))
    A = analog_beamformer_at(cfg, geom, att)
    return SnapshotProblem.build(effective_channel(H, A), r_min=1.0, p_max=10.0,
                                 noise_power=params.noise_power,
                                 analog_gram=A.conj().T @ A)


class TestEdgeCases:
    """Near-singular analog Grams and extreme budgets keep the solve feasible."""

    @staticmethod
    def assert_solution_ok(prob, sol):
        # recompute power and rates independently of the solution object
        assert transmit_power(prob, sol.d_matrix) <= prob.p_max
        _, rates = sinr_and_rates(prob.h_eff, sol.d_matrix, prob.noise_power,
                                  prob.bandwidth)
        assert np.all(rates[sol.admitted] >= prob.r_min[sol.admitted])
        assert np.all(sol.admitted <= prob.certified)
        assert not sol.d_matrix[:, ~sol.admitted].any()
        assert sol.qar == sol.admitted.sum() / prob.num_users

    def test_users_sharing_a_direction(self):
        prob = _shared_direction_problem()
        assert np.linalg.cond(prob.analog_gram) > 1e15
        with pytest.raises(np.linalg.LinAlgError):  # so the ridge retry ran
            np.linalg.cholesky(prob.analog_gram)
        sol = solve_snapshot(prob)
        self.assert_solution_ok(prob, sol)
        assert sol.admitted.any()

    @pytest.mark.parametrize("p_max", [1e-9, 1e9])
    def test_extreme_budgets(self, p_max):
        for seed in range(30):
            prob = random_problem(seed, p_max=p_max)
            self.assert_solution_ok(prob, solve_snapshot(prob))


class TestExhaustiveOracle:
    """Small-K optimality: compare against brute force over every admitted
    subset, reconstructing each with the same scalars and dual procedure."""

    @staticmethod
    def best_subset_size(prob):
        scalars = predict_admission_and_scalars(prob, k_min=prob.num_users)
        cert = np.flatnonzero(prob.certified)
        best = 0
        for r in range(len(cert), 0, -1):
            for subset in itertools.combinations(cert, r):
                mask = np.zeros(prob.num_users, bool)
                mask[list(subset)] = True
                _, D, _ = power_dual_bisection(prob, mask, scalars)
                D = project_power(prob, D)
                _, rates = sinr_and_rates(
                    prob.h_eff, D, prob.noise_power, prob.bandwidth
                )
                if np.all(rates[mask] >= prob.r_min[mask]):
                    best = r
                    break
            if best:
                break
        return best

    def test_matches_brute_force_cardinality(self):
        match = 0
        total = 200
        for seed in range(total):
            prob = random_problem(seed, k_max=4, certify_frac=0.9)
            sol = solve_snapshot(prob, k_min=8)
            oracle = self.best_subset_size(prob)
            got = int(sol.admitted.sum())
            assert got <= oracle  # oracle is exhaustive over the same moves
            assert oracle - got <= 1, f"seed {seed}: oracle {oracle} vs {got}"
            match += got == oracle
        assert match / total >= 0.95


class TestRefinement:
    def test_waterfilling_two_orthogonal_users(self):
        h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        prob = SnapshotProblem.build(h, r_min=0.1, p_max=2.0, noise_power=1.0)
        gains = np.array([4.0, 1.0])
        level = (prob.p_max + np.sum(1.0 / gains)) / 2
        wf = np.sum(np.log2(1.0 + gains * (level - 1.0 / gains)))
        sol = solve_snapshot(prob)
        assert sol.admitted.all()
        assert sol.sum_rate >= 0.99 * wf
        assert sol.sum_rate <= wf + 1e-9

    def test_never_decreases_objective(self, monkeypatch):
        for seed in range(60):
            prob = random_problem(seed, k_max=8, p_max=2.0)
            with monkeypatch.context() as m:
                m.setattr(solver, "MAX_SWEEPS", 0)  # the unrefined solve
                s0 = solve_snapshot(prob)
            s10 = solve_snapshot(prob)
            assert s10.sum_rate >= s0.sum_rate - 1e-12
            assert np.array_equal(s0.admitted, s10.admitted)

    def test_refine_preserves_feasibility(self):
        for seed in range(40):
            prob = random_problem(seed + 500)
            sol = solve_snapshot(prob)
            assert sol.feasible

    def test_refinement_searches_once_per_sweep(self, monkeypatch):
        # every sweep re-derives its scalars from the iterate it starts from,
        # then searches the power dual once with those scalars
        starts, searched, state = [], [], {}
        refine, mmse, dual = (solver.refine_qos_safe, solver._mmse_scalars,
                              solver.power_dual_bisection)

        def refining(problem, admitted, *args):
            state["admitted"] = admitted
            try:
                return refine(problem, admitted, *args)
            finally:
                state.clear()

        def start(problem, D):
            if state:
                starts.append((problem, state["admitted"], D))
            return mmse(problem, D)

        def search(problem, admitted, scalars):
            if state:
                searched.append((admitted, scalars))
            return dual(problem, admitted, scalars)

        monkeypatch.setattr(solver, "refine_qos_safe", refining)
        monkeypatch.setattr(solver, "_mmse_scalars", start)
        monkeypatch.setattr(solver, "power_dual_bisection", search)
        for seed in range(30):
            solve_snapshot(random_problem(seed, p_max=3.0))
        assert len(searched) == len(starts) > 30
        for (prob, admitted, D), (mask, scalars) in zip(starts, searched):
            assert mask is admitted
            u, w = mmse(prob, D)
            assert scalars.u.tobytes() == u.tobytes()
            assert scalars.w.tobytes() == w.tobytes()

    def test_stats_complexity_caps(self):
        for seed in range(50):
            prob = random_problem(seed)
            sol = solve_snapshot(prob)
            assert sol.stats["refine_tried"] <= solver.MAX_SWEEPS
            # each dual solve spends one evaluation at nu = 0 and one per
            # Newton step; repair runs at most K drop solves plus K passes of
            # K add-back trials
            per_solve = solver.MAX_NEWTON + 1
            K = prob.num_users
            assert sol.stats["dual_evals"] <= per_solve * (K + 1) * (K + 2)
