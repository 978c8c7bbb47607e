"""The stacked add-back solve against its single-mask calls and against the
trial-by-trial scan it replaced.

Every function that takes a (T, K) stack of masks must give, slice by
slice, the bytes of its single call; `strict_repair`'s one stacked solve per
scan pass must give the admitted set, beamformer, rates and counters of the
reference scan below, which solves one trial at a time.
"""

import numpy as np
import pytest

import hapbeam.harness as harness
import hapbeam.solver as solver
import test_acceptance
import test_solver
from hapbeam.channel import sinr_and_rates
from hapbeam.errors import InvariantError
from hapbeam.harness import ScenarioConfig, run_experiment
from hapbeam.solver import (
    EPS_P,
    EPS_PI,
    SnapshotProblem,
    kkt_decompose,
    kkt_reconstruct,
    power_dual_bisection,
    predict_admission_and_scalars,
    project_power,
    solve_snapshot,
    transmit_power,
)


def screened_in(problem):
    """The certified users that some beamformer W E with ||E||_F^2 = P_max
    could serve alone: gamma_k * noise <= P_max * ||(h_eff W)_k||^2, with
    the solver's relative slack."""
    gamma = 2.0 ** (problem.r_min / problem.bandwidth) - 1.0
    gains = np.sum(np.abs(problem.h_eff @ problem.whitener) ** 2, axis=1)
    reach = problem.p_max * gains * (1.0 + solver.SCREEN_SLACK)
    return problem.certified & (gamma * problem.noise_power <= reach)


def reference_strict_repair(problem, admitted0, scalars):
    """The add-back scan as one `_solve_projected` call per trial, in scan
    order, stopping at the first feasible trial, over the screened-in
    users; the drops are unchanged."""
    K = problem.num_users
    pool = screened_in(problem)
    admitted = np.asarray(admitted0, dtype=bool) & pool
    stats = {"drops": 0, "addbacks": 0, "dual_evals": 0,
             "screened": int(problem.certified.sum() - pool.sum())}

    def solve_for(mask):
        D, rates, n_ev = solver._solve_projected(problem, mask, scalars)
        stats["dual_evals"] += n_ev
        return D, rates

    D = np.zeros((problem.h_eff.shape[1], K), dtype=complex)
    for _ in range(K + 1):
        if not admitted.any():
            D = np.zeros_like(D)
            break
        D, rates = solve_for(admitted)
        gaps = np.maximum(problem.r_min - rates, 0.0)
        gaps[~admitted] = 0.0
        if not gaps.any():
            break
        metric = np.where(admitted, gaps / (scalars.pi + EPS_PI), -np.inf)
        admitted[int(np.argmax(metric))] = False
        stats["drops"] += 1
    else:
        raise InvariantError("repair failed to terminate within K drops")

    order = np.lexsort((np.arange(K), scalars.pi))
    while True:
        for k in order:
            if admitted[k] or not pool[k]:
                continue
            trial = admitted.copy()
            trial[k] = True
            D_t, rates_t = solve_for(trial)
            if solver._feasible(problem, trial, rates_t):
                admitted, D = trial, D_t
                stats["addbacks"] += 1
                break
        else:
            return admitted, D, stats


def assert_same_solution(prob, kwargs, monkeypatch):
    """solve_snapshot with the stacked scan and with the reference scan give
    the same bytes and counters; returns the stacked solution."""
    sol = solve_snapshot(prob, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(solver, "strict_repair", reference_strict_repair)
        ref = solve_snapshot(prob, **kwargs)
    assert sol.admitted.tobytes() == ref.admitted.tobytes()
    assert sol.d_matrix.tobytes() == ref.d_matrix.tobytes()
    assert sol.rates.tobytes() == ref.rates.tobytes()
    assert sol.stats == ref.stats
    return sol


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _stack_case(T, n_rf, seed, backoff_db=0.0):
    """A problem with K = n_rf + 2 users on n_rf chains and a random analog
    Gram, its predictor scalars, and T masks that each add one user to a
    shared set, as one add-back pass does.  The random budget is backed off
    by `backoff_db`."""
    rng = np.random.default_rng(seed)
    K = n_rf + 2
    A = _crandn(rng, 3 * n_rf, n_rf) / np.sqrt(3 * n_rf)
    prob = SnapshotProblem.build(_crandn(rng, K, n_rf), r_min=rng.uniform(0.1, 1.5, K),
                                 p_max=float(rng.uniform(0.2, 5.0)) * 10 ** (-backoff_db / 10),
                                 noise_power=0.1,
                                 analog_gram=A.conj().T @ A)
    sc = predict_admission_and_scalars(prob, k_min=K)
    base = np.zeros(K, bool)
    base[rng.permutation(K)[: K - T]] = True
    masks = np.repeat(base[None], T, axis=0)
    masks[np.arange(T), np.flatnonzero(~base)[:T]] = True
    return prob, sc, masks


def _axis_case(T):
    """T single-user sets on an identity Gram.  The first T - 1 channel rows
    are scaled basis vectors: each C is diagonal, so its eigenvectors are
    exact and all but one secular term is exactly zero.  The last row is
    zero, so its set takes the trace <= 0 branch."""
    n_rf = T + 2
    H = np.zeros((T, n_rf), complex)
    H[np.arange(T - 1), np.arange(T - 1)] = np.linspace(0.5, 2.0, T - 1) * np.exp(0.3j)
    prob = SnapshotProblem.build(H, r_min=0.5, p_max=2.0, noise_power=0.1)
    sc = predict_admission_and_scalars(prob, k_min=T)
    return prob, sc, np.eye(T, dtype=bool)


STACKS = [(T, n_rf) for T in (1, 2, 4, 7) for n_rf in range(max(T, 2), 13)]


class TestStackedCalls:
    """Each slice of a stacked call equals its single call bit for bit."""

    @pytest.mark.parametrize("T, n_rf", STACKS)
    def test_decompose_and_reconstruct(self, T, n_rf):
        prob, sc, masks = _stack_case(T, n_rf, seed=100 * T + n_rf)
        eig = kkt_decompose(prob, masks, sc)
        nus = np.linspace(0.0, 2.0, T)
        D = kkt_reconstruct(prob, eig, nus)
        assert D.shape == (T, n_rf, prob.num_users)
        for t, mask in enumerate(masks):
            one = kkt_decompose(prob, mask, sc)
            for stacked, single in zip(eig, one):
                assert stacked[t].tobytes() == single.tobytes()
            assert D[t].tobytes() == kkt_reconstruct(prob, one, nus[t]).tobytes()

    @pytest.mark.parametrize("T, n_rf", STACKS)
    @pytest.mark.parametrize("backoff_db", [0.0, 0.5])
    def test_dual_projection_and_rates(self, T, n_rf, backoff_db):
        prob, sc, masks = _stack_case(T, n_rf, seed=100 * T + n_rf, backoff_db=backoff_db)
        nu, D, n_ev = power_dual_bisection(prob, masks, sc)
        power = transmit_power(prob, D)
        # grow half of the slices past the budget, so the projection scales them
        grown = D * np.where(np.arange(T) % 2, 3.0, 1.0)[:, None, None]
        Dp = project_power(prob, grown)
        sinr, rates = sinr_and_rates(prob.h_eff, Dp, prob.noise_power, prob.bandwidth)
        for t, mask in enumerate(masks):
            nu_t, D_t, n_ev_t = power_dual_bisection(prob, mask, sc)
            assert (nu[t], n_ev[t]) == (nu_t, n_ev_t)
            assert D[t].tobytes() == D_t.tobytes()
            assert power[t].tobytes() == np.float64(transmit_power(prob, D_t)).tobytes()
            Dp_t = project_power(prob, grown[t])
            assert Dp[t].tobytes() == Dp_t.tobytes()
            sinr_t, rates_t = sinr_and_rates(prob.h_eff, Dp_t, prob.noise_power,
                                             prob.bandwidth)
            assert sinr[t].tobytes() == sinr_t.tobytes()
            assert rates[t].tobytes() == rates_t.tobytes()

    @pytest.mark.parametrize("T", [1, 2, 4, 7])
    def test_exact_zero_terms_and_zero_trace(self, T):
        prob, sc, masks = _axis_case(T)
        eig = kkt_decompose(prob, masks, sc)
        c = (eig[3] * eig[3].conj()).real.sum(axis=-1)
        assert np.count_nonzero(c[:-1] == 0.0) == (T - 1) * (prob.h_eff.shape[1] - 1)
        assert not c[-1].any()  # the zero row
        nu, D, n_ev = power_dual_bisection(prob, masks, sc)
        for t, mask in enumerate(masks):
            nu_t, D_t, n_ev_t = power_dual_bisection(prob, mask, sc)
            assert (nu[t], n_ev[t]) == (nu_t, n_ev_t)
            assert D[t].tobytes() == D_t.tobytes()
        assert (nu[-1], n_ev[-1]) == (0.0, 1)
        assert D[-1].tobytes() == np.zeros_like(D[-1]).tobytes()

    def test_projection_shrink_steps(self):
        # at a large budget the scale sqrt(P_max / p) can round to a D that
        # still measures over budget, and the projection shrinks it further
        rng = np.random.default_rng(5)
        prob = SnapshotProblem.build(np.eye(4, dtype=complex), r_min=1.0, p_max=1e6,
                                     noise_power=1.0)
        D = _crandn(rng, 7, 4, 4)
        D *= np.sqrt(2 * prob.p_max / transmit_power(prob, D))[:, None, None]
        Dp = project_power(prob, D)
        shrunk = 0
        for t in range(7):
            assert Dp[t].tobytes() == project_power(prob, D[t]).tobytes()
            scale = np.sqrt(prob.p_max / (transmit_power(prob, D[t]) + EPS_P))
            shrunk += transmit_power(prob, D[t] * scale) > prob.p_max
        assert 0 < shrunk < 7

    def test_unequal_sets_are_rejected(self):
        prob, sc, masks = _stack_case(2, 4, seed=1)
        masks[0, np.flatnonzero(~masks[0])[0]] = True
        with pytest.raises(ValueError, match="differ in size"):
            kkt_decompose(prob, masks, sc)


class TestScanMatchesReference:
    """The stacked scan against the trial-by-trial reference scan."""

    def test_default_run(self, monkeypatch):
        captured = []
        solve = harness.solve_snapshot

        def capture(problem, **kwargs):
            captured.append((problem, kwargs))
            return solve(problem, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(harness, "solve_snapshot", capture)
            run_experiment(ScenarioConfig())
        assert len(captured) == ScenarioConfig().snapshots
        for prob, kwargs in captured:
            assert_same_solution(prob, kwargs, monkeypatch)

    def test_fuzz_seeds(self, monkeypatch):
        addbacks = 0
        for seed in range(600):
            sol = assert_same_solution(test_acceptance._fuzz_snapshot(seed),
                                       dict(k_min=8), monkeypatch)
            addbacks += sol.stats["addbacks"]
        assert addbacks > 30  # passes that accept a user, not only empty ones


class TestScanEdgeCases:
    """Stacks of one trial, of single-user trials, and with a zero channel."""

    @staticmethod
    def passes(monkeypatch):
        """Record the size of each stacked solve."""
        sizes = []
        solve = solver._solve_projected

        def recording(problem, admitted, scalars):
            if admitted.ndim == 2:
                sizes.append(admitted.shape[0])
            return solve(problem, admitted, scalars)

        monkeypatch.setattr(solver, "_solve_projected", recording)
        return sizes

    def check(self, prob, kwargs, monkeypatch):
        sizes = self.passes(monkeypatch)
        sol = assert_same_solution(prob, kwargs, monkeypatch)
        test_solver.TestEdgeCases.assert_solution_ok(prob, sol)
        return sol, sizes

    def check_repair(self, prob, admitted0, monkeypatch):
        """strict_repair from a given admitted set against the reference
        scan, and the repaired beamformer's feasibility; returns the
        admitted set, the beamformer, the counters and the pass sizes."""
        sc = predict_admission_and_scalars(prob, k_min=1)
        ref = reference_strict_repair(prob, admitted0, sc)
        sizes = self.passes(monkeypatch)
        admitted, D, stats = solver.strict_repair(prob, admitted0, sc)
        assert admitted.tobytes() == ref[0].tobytes()
        assert D.tobytes() == ref[1].tobytes()
        assert stats == ref[2]
        _, rates = sinr_and_rates(prob.h_eff, D, prob.noise_power, prob.bandwidth)
        assert transmit_power(prob, D) <= prob.p_max
        assert np.all(rates[admitted] >= prob.r_min[admitted])
        assert not D[:, ~admitted].any()
        return admitted, D, stats, sizes

    def test_single_candidate_pass(self, monkeypatch):
        rng = np.random.default_rng(7)
        H = np.eye(3, dtype=complex) + 0.1 * _crandn(rng, 3, 3)
        prob = SnapshotProblem.build(H, r_min=[0.5, 0.6, 0.7], p_max=3.0, noise_power=0.1)
        sol, sizes = self.check(prob, dict(k_min=2), monkeypatch)
        assert sizes == [1] and sol.admitted.all()

    def test_empty_admitted_set_after_drops(self, monkeypatch):
        # the strongest user is admitted alone and misses its floor, which
        # lies between the rate its solve reaches alone (9.759 bit) and the
        # screen's full-power bound (9.764 bit)
        rng = np.random.default_rng(8)
        H = _crandn(rng, 4, 4)
        H[0] *= 3
        prob = SnapshotProblem.build(H, r_min=[9.762, 0.5, 0.8, 1.0], p_max=2.0,
                                     noise_power=0.1)
        admitted, _, stats, sizes = self.check_repair(prob, np.eye(4, dtype=bool)[0],
                                                      monkeypatch)
        assert stats["drops"] == 1 and stats["screened"] == 0
        # every other certified user alone; the drop loop already solved user 0 alone
        assert sizes[0] == 3
        assert admitted.tolist() == [False, True, True, True]

    @pytest.mark.parametrize("r_min", [0.0, 0.5])
    def test_zero_channel_candidate(self, monkeypatch, r_min):
        # after the drop (user 0's floor lies between its rate alone, 10.058
        # bit, and the screen's bound, 10.064 bit) the pass tries single
        # users; one has an all-zero row, which the screen keeps for a zero
        # floor only: its trial takes the trace <= 0 branch in the stack and
        # has zero rates, which fit that floor
        rng = np.random.default_rng(9)
        H = _crandn(rng, 5, 4)
        H[0] *= 3
        H[3] = 0.0
        prob = SnapshotProblem.build(H, r_min=[10.06, 0.5, 0.8, r_min, 1.0], p_max=2.0,
                                     noise_power=0.1)
        admitted, D, stats, sizes = self.check_repair(prob, np.eye(5, dtype=bool)[0],
                                                      monkeypatch)
        assert stats["drops"] == 1 and stats["screened"] == (r_min > 0.0)
        assert sizes[0] == 4 - stats["screened"]
        assert admitted[3] == (r_min == 0.0)
        assert not D[:, 3].any()
