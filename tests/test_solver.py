import itertools
import warnings

import numpy as np
import pytest

import hapbeam.solver as solver
from hapbeam.channel import sinr_and_rates
from hapbeam.errors import ConfigError
from hapbeam.solver import (
    REG_REL,
    BeamSolution,
    SnapshotProblem,
    SolverScalars,
    kkt_decompose,
    kkt_power,
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
    def test_score_structure(self):
        prob = random_problem(11, certify_frac=1.0)
        K = prob.num_users
        sc = predict_admission_and_scalars(prob, k_min=min(8, K))
        k_min = min(8, K)
        assert np.sum(sc.scores == 1.0) == k_min
        below = sc.scores[(sc.scores < 1.0)]
        assert np.all(below < 0.5)
        # non-increasing along the difficulty ranking
        order = np.lexsort((np.arange(K), sc.pi))
        ranked = sc.scores[order]
        assert np.all(np.diff(ranked) <= 1e-15)

    def test_uncertified_scored_zero(self):
        prob = random_problem(5, certify_frac=0.5)
        sc = predict_admission_and_scalars(prob, k_min=8)
        assert np.all(sc.scores[~prob.certified] == 0.0)

    def test_channel_gain_priority(self):
        rng = np.random.default_rng(2)
        H = np.diag([3.0, 1.0, 2.0]).astype(complex)
        prob = SnapshotProblem.build(H, r_min=1.0, p_max=1.0, noise_power=1.0)
        sc = predict_admission_and_scalars(prob, k_min=1, priority="channel-gain")
        assert sc.scores[0] == 1.0  # strongest channel ranked first
        assert sc.scores[1] < sc.scores[2] < 1.0

    def test_random_priority_seeded(self):
        prob = random_problem(4, certify_frac=1.0)
        a = predict_admission_and_scalars(prob, k_min=2, priority="random", seed=9)
        b = predict_admission_and_scalars(prob, k_min=2, priority="random", seed=9)
        assert np.array_equal(a.scores, b.scores)

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
        D = kkt_reconstruct(prob, np.zeros(prob.num_users, bool), sc, 0.0)
        assert not D.any()

    def test_weight_scale_invariance(self):
        # scaling every w by a constant must not move the nu = 0 solution
        prob = random_problem(8, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        mask = prob.certified.copy()
        D1 = kkt_reconstruct(prob, mask, sc, 0.0)
        sc2 = SolverScalars(sc.scores, sc.u, sc.w * 2.0, sc.pi)
        D2 = kkt_reconstruct(prob, mask, sc2, 0.0)
        assert np.allclose(D1, D2, rtol=1e-10, atol=0)

    def test_nonadmitted_columns_zero(self):
        prob = random_problem(13, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        mask = prob.certified.copy()
        mask[0] = False
        D = kkt_reconstruct(prob, mask, sc, 0.5)
        assert not D[:, 0].any()
        assert D[:, 1:].any()

    def test_single_user_matched_direction(self):
        # rank-one C: the solve must return a scaled copy of the channel
        rng = np.random.default_rng(6)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        prob = SnapshotProblem.build(h[None, :], 1.0, 4.0, 0.3)
        sc = predict_admission_and_scalars(prob)
        D = kkt_reconstruct(prob, np.array([True]), sc, 0.0)
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
    """Reference: solve (C + (nu + reg) I) d = rhs with a dense solver."""
    idx = np.flatnonzero(mask)
    Hm = prob.h_eff[idx]
    C = (Hm.conj().T * (sc.w[idx] * np.abs(sc.u[idx]) ** 2)) @ Hm
    N = C.shape[0]
    Cs = C + (nu + REG_REL * C.trace().real / N) * np.eye(N)
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
        for nu in KKT_SHIFTS:
            D = kkt_reconstruct(prob, mask, sc, nu)
            ref, cond = _dense_kkt(prob, mask, sc, nu)
            # forward error of two backward-stable solves of one system
            tol = 100 * N * np.finfo(float).eps * cond
            err = np.linalg.norm(D - ref) / np.linalg.norm(ref)
            assert err <= tol, (case, nu, err, tol)

    def test_zero_scalars_give_zero_beamformer(self):
        prob, mask = _kkt_case("analog-gram")
        K = prob.num_users
        sc = SolverScalars(np.ones(K), np.zeros(K, complex), np.ones(K),
                           required_power_proxy(prob))
        for nu in KKT_SHIFTS:
            for ridge in (0.0, 0.5):
                D = kkt_reconstruct(prob, mask, sc, nu + ridge)
                assert D.shape == (prob.h_eff.shape[1], K)
                assert not D.any()

    @pytest.mark.parametrize("case", ["rank-deficient", "analog-gram"])
    def test_precomputed_decomposition_same_bytes(self, case):
        prob, mask = _kkt_case(case)
        sc = predict_admission_and_scalars(prob, k_min=prob.num_users)
        eig = kkt_decompose(prob, mask, sc)
        for nu in KKT_SHIFTS:
            for ridge in (0.0, 0.5):
                D_own = kkt_reconstruct(prob, mask, sc, nu + ridge)
                D_eig = kkt_reconstruct(prob, mask, sc, nu + ridge, eig)
                assert D_own.tobytes() == D_eig.tobytes()


class TestBisection:
    def test_zero_dual_when_budget_loose(self):
        # orthogonal channels with unit weights: the unconstrained solve has
        # power about 100 * K, far below the budget, so the shortcut fires
        K = 3
        prob = SnapshotProblem.build(
            np.eye(K, dtype=complex), r_min=0.1, p_max=1e4, noise_power=1.0
        )
        sc = SolverScalars(
            scores=np.ones(K),
            u=np.full(K, 0.1, dtype=complex),
            w=np.ones(K),
            pi=required_power_proxy(prob),
        )
        nu, D, n_ev = power_dual_bisection(prob, np.ones(K, bool), sc)
        assert nu == 0.0
        assert n_ev == 1
        assert transmit_power(prob, D) == pytest.approx(300.0, rel=1e-6)

    def test_power_lands_in_band(self):
        for seed in range(30):
            prob = random_problem(seed, p_max=0.05)
            sc = predict_admission_and_scalars(prob)
            mask = prob.certified.copy()
            if not mask.any():
                continue
            nu, D, _ = power_dual_bisection(prob, mask, sc)
            p = transmit_power(prob, D)
            if nu > 0.0:
                assert 0.99 * prob.p_max <= p <= prob.p_max

    def test_power_monotone_in_dual(self):
        prob = random_problem(33, certify_frac=1.0)
        sc = predict_admission_and_scalars(prob)
        mask = prob.certified.copy()
        powers = [
            transmit_power(prob, kkt_reconstruct(prob, mask, sc, nu))
            for nu in np.logspace(-3, 3, 25)
        ]
        assert np.all(np.diff(powers) <= 1e-12)

    def test_projection_enforces_budget(self):
        rng = np.random.default_rng(17)
        prob = random_problem(17, p_max=0.2)
        D = rng.standard_normal((prob.h_eff.shape[1], prob.num_users)) * 10.0
        Dp = project_power(prob, D.astype(complex))
        assert transmit_power(prob, Dp) <= prob.p_max


class TestDualPower:
    """The dual search reads power from the eigenbasis and builds D once."""

    @pytest.mark.parametrize(
        "case", ["rank-deficient", "near-collinear", "analog-gram", "random"]
    )
    def test_eigenbasis_power_matches_beamformer(self, case):
        if case == "random":  # analog_gram None, K = N_RF
            prob = random_problem(33, certify_frac=1.0)
            mask = prob.certified.copy()
        else:
            prob, mask = _kkt_case(case)
        sc = predict_admission_and_scalars(prob, k_min=prob.num_users)
        power = kkt_power(prob, kkt_decompose(prob, mask, sc))
        N = prob.h_eff.shape[1]
        gram = prob.analog_gram
        # the same sums of N_RF-term products in another order, weighted by G
        cond = 1.0 if gram is None else np.linalg.cond(gram)
        tol = 100 * N * np.finfo(float).eps * cond
        for nu in KKT_SHIFTS:
            for ridge in (0.0, 0.5):
                ref = transmit_power(prob, kkt_reconstruct(prob, mask, sc, nu + ridge))
                err = abs(power(nu + ridge) - ref) / ref
                assert err <= tol, (case, nu, ridge, err, tol)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_one_beamformer_per_search(self, monkeypatch, ridge):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return kkt_reconstruct(*args, **kwargs)

        monkeypatch.setattr(solver, "kkt_reconstruct", counting)
        searched = 0
        for seed in range(30):
            prob = random_problem(seed, p_max=0.05)
            sc = predict_admission_and_scalars(prob)
            mask = prob.certified.copy()
            calls.clear()
            nu, D, n_ev = power_dual_bisection(prob, mask, sc, ridge)
            assert calls == [nu + ridge]
            ref = kkt_reconstruct(prob, mask, sc, nu + ridge)
            assert D.tobytes() == ref.tobytes()
            searched += n_ev > 2
        assert searched > 10  # the budget is tight enough to force bisection

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_zero_scalars_stop_at_zero_dual(self, ridge):
        prob, mask = _kkt_case("analog-gram")
        K = prob.num_users
        sc = SolverScalars(np.ones(K), np.zeros(K, complex), np.ones(K),
                           required_power_proxy(prob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu, D, n_ev = power_dual_bisection(prob, mask, sc, ridge)
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

    def test_qar_and_sum_rate_accounting(self):
        prob = random_problem(55, certify_frac=0.7)
        sol = solve_snapshot(prob)
        assert sol.qar == sol.admitted.sum() / prob.num_users
        assert sol.sum_rate == pytest.approx(float(np.sum(sol.rates[sol.admitted])))
        assert sol.energy_efficiency == pytest.approx(
            sol.sum_rate / (sol.power + prob.circuit_power)
        )


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
        sol = solve_snapshot(prob, n_ref=10)
        assert sol.admitted.all()
        assert sol.sum_rate >= 0.99 * wf
        assert sol.sum_rate <= wf + 1e-9

    def test_never_decreases_objective(self):
        for seed in range(60):
            prob = random_problem(seed, k_max=8, p_max=2.0)
            s0 = solve_snapshot(prob, n_ref=0)
            s10 = solve_snapshot(prob, n_ref=10)
            assert s10.sum_rate >= s0.sum_rate - 1e-12
            assert np.array_equal(s0.admitted, s10.admitted)

    def test_refine_preserves_feasibility(self):
        for seed in range(40):
            prob = random_problem(seed + 500)
            sol = solve_snapshot(prob, n_ref=10)
            assert sol.feasible

    def test_ee_objective_feasible_and_bounded(self):
        for seed in range(30):
            prob = random_problem(seed, p_max=3.0)
            se = solve_snapshot(prob, objective="ee")
            sr = solve_snapshot(prob, objective="sum-rate")
            assert se.feasible
            assert np.array_equal(se.admitted, sr.admitted)
            # EE refinement must not fall below the EE of the unrefined point
            s0 = solve_snapshot(prob, n_ref=0)
            assert se.energy_efficiency >= s0.energy_efficiency - 1e-12

    def test_stats_complexity_caps(self):
        for seed in range(50):
            prob = random_problem(seed)
            sol = solve_snapshot(prob)
            assert sol.stats["refine_tried"] <= 10
            # each dual solve spends at most 1 + 61 + 40 evaluations; repair
            # runs at most K drop solves plus K passes of K add-back trials
            per_solve = 102
            K = prob.num_users
            assert sol.stats["bisection_evals"] <= per_solve * (K + 1) * (K + 2)
