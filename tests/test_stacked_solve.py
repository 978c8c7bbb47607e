"""The trials of one add-back pass, solved one mask at a time.

An add-back pass holds T trial masks, each the shared admitted set plus one
candidate; `strict_repair` solves them one `_solve_projected` call at a
time.  Over passes of T = 1, 2, 4 and 7 trials on 2 to 12 RF chains with a
random analog Gram, each trial's decomposition and reconstruction must
match a dense solve of its KKT system, and its dual search, projection and
rates must be the bytes of the chain `_solve_projected` runs.  The rates of
the whole pass, taken as one (T, N_RF, K) stack of beamformers, must equal
the rates of each trial: `sinr_and_rates` is shape-generic.
"""

import numpy as np
import pytest

import hapbeam.solver as solver
import test_solver
from hapbeam.channel import sinr_and_rates
from hapbeam.solver import (
    POWER_BAND,
    SnapshotProblem,
    kkt_decompose,
    kkt_reconstruct,
    power_dual_bisection,
    predict_admission_and_scalars,
    project_power,
    transmit_power,
)


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


STACKS = [(T, n_rf) for T in (1, 2, 4, 7) for n_rf in range(max(T, 2), 13)]


class TestStackedCalls:
    """Each trial of a pass of T masks, one call per mask."""

    @pytest.mark.parametrize("T, n_rf", STACKS)
    def test_decompose_and_reconstruct(self, T, n_rf):
        prob, sc, masks = _stack_case(T, n_rf, seed=100 * T + n_rf)
        G = prob.analog_gram
        nus = np.linspace(0.0, 2.0, T)
        for t, mask in enumerate(masks):
            eig = kkt_decompose(prob, mask, sc)
            idx, B = eig[0], eig[1]
            assert idx.tolist() == np.flatnonzero(mask).tolist()
            # the basis is orthonormal in the analog Gram: B^H G B = I
            ortho = B.conj().T @ G @ B
            assert np.allclose(ortho, np.eye(n_rf), atol=1e3 * np.finfo(float).eps
                               * np.linalg.cond(G))
            D = kkt_reconstruct(prob, eig, nus[t])
            assert D.shape == (n_rf, prob.num_users)
            assert not D[:, ~mask].any()
            ref, cond = test_solver._dense_kkt(prob, mask, sc, nus[t])
            # forward error of two backward-stable solves of one system
            tol = 100 * n_rf * np.finfo(float).eps * cond
            err = np.linalg.norm(D - ref) / np.linalg.norm(ref)
            assert err <= tol, (t, nus[t], err, tol)

    @pytest.mark.parametrize("T, n_rf", STACKS)
    @pytest.mark.parametrize("backoff_db", [0.0, 0.5])
    def test_dual_projection_and_rates(self, T, n_rf, backoff_db):
        prob, sc, masks = _stack_case(T, n_rf, seed=100 * T + n_rf, backoff_db=backoff_db)
        Dps, rates_t = [], []
        for t, mask in enumerate(masks):
            nu, D, n_ev = power_dual_bisection(prob, mask, sc)
            eig = kkt_decompose(prob, mask, sc)
            assert D.tobytes() == kkt_reconstruct(prob, eig, nu).tobytes()
            assert nu >= 0.0 and n_ev >= 1
            p = transmit_power(prob, D)
            assert p <= prob.p_max
            if nu > 0.0:
                assert POWER_BAND * prob.p_max <= p
            # `_solve_projected` is this search, the projection and the rates
            Dp = project_power(prob, D)
            _, rates = sinr_and_rates(prob.h_eff, Dp, prob.noise_power, prob.bandwidth)
            D_s, rates_s, n_ev_s = solver._solve_projected(prob, mask, sc)
            assert D_s.tobytes() == Dp.tobytes()
            assert rates_s.tobytes() == rates.tobytes()
            assert n_ev_s == n_ev
            # grow every other trial past the budget, so the projection scales it
            grown = D * (3.0 if t % 2 else 1.0)
            Dg = project_power(prob, grown)
            if transmit_power(prob, grown) <= prob.p_max:
                assert Dg.tobytes() == grown.tobytes()
            else:
                assert (1 - 1e-9) * prob.p_max <= transmit_power(prob, Dg) <= prob.p_max
            Dps.append(Dg)
            rates_t.append(sinr_and_rates(prob.h_eff, Dg, prob.noise_power, prob.bandwidth))
        sinr, rates = sinr_and_rates(prob.h_eff, np.stack(Dps), prob.noise_power,
                                     prob.bandwidth)
        assert sinr.shape == rates.shape == (T, prob.num_users)
        for t, (sinr_t, r_t) in enumerate(rates_t):
            assert sinr[t].tobytes() == sinr_t.tobytes()
            assert rates[t].tobytes() == r_t.tobytes()
