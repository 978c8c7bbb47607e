"""Per-slot digital beamforming with QoS admission control.

One snapshot fixes an effective channel (analog stage already applied), a
power budget, per-user rate floors, and the set of users whose pointing
error is certified.  The solve pipeline:

1. a lightweight admission predictor ranks certified users by QoS
   difficulty, marks the first k_min of them as the start set, and emits
   WMMSE-style scalars (u_k, w_k) from one MMSE pass at a matched-filter
   equal-power initialization;
2. the digital beamformer is rebuilt in closed form from those scalars and
   one eigendecomposition per admitted set, taken in the basis where the
   analog Gram is the identity; there the transmit power along the dual is
   the diagonal secular function sum c_i / (lam_i + nu)^2, a Newton search
   meets the budget in a few evaluations, and the beamformer is built once,
   at the chosen dual, before a final scaling projection;
3. strict repair first screens out every certified user that no
   beamformer the solver builds could serve even alone at full power, then
   drops the worst-violating admitted user until every admitted rate clears
   its floor, then adds back any screened-in user that fits without
   breaking feasibility: each add-back scan pass solves the admitted set
   plus one candidate at a time, in ascending difficulty, and keeps the
   first feasible trial;
4. refinement sweeps re-derive the scalars from the current beamformer and
   accept an iterate only when it stays feasible and raises the admitted
   sum-rate by more than the relative tolerance REFINE_TOL; the first sweep
   that fails this ends refinement, and MAX_SWEEPS sweeps end it in any
   case.

The output is feasible by construction: transmit power within budget and
every admitted rate at or above its floor, with no exceptions.
"""

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import sinr_and_rates
from .errors import ConfigError, InvariantError

EPS_PI = 1e-12  # guards the per-user power proxy against zero channels
EPS_P = 1e-12  # guards the power projection against zero power
SHRINK = 1.0 - 4 * np.finfo(float).eps  # project_power's step when rounding ends over budget
REG_REL = 1e-9  # relative ridge for the KKT solve and for a singular analog Gram
W_CLAMP = (1.0, 1e6)  # MMSE weight clamp
MAX_NEWTON = 40  # Newton steps per dual search
MAX_SWEEPS = 10  # refinement sweeps per solve, a safety cap
REFINE_TOL = 1e-4  # relative sum-rate gain a refinement sweep must exceed
POWER_BAND = 0.99  # the dual search aims at the middle of [band, 1] * P_max
SCREEN_SLACK = 1e-9  # relative slack that keeps a user on the edge of strict_repair's screen


@dataclass(frozen=True)
class SnapshotProblem:
    """One target slot's digital beamforming problem.

    h_eff rows are h_eff_k^H (effective channel after the analog stage);
    analog_gram is A^H A so transmit power ||A D||_F^2 is measurable
    without the full element-domain beamformer (`build` stores the identity,
    i.e. orthonormal analog columns, when none is given).  whitener is
    W = L^{-H} for the Cholesky factor G = L L^H of the Gram, so the power
    of D = W E is ||E||_F^2; when users share a direction and G is singular,
    L factors G + REG_REL * tr(G)/N_RF * I instead.
    """

    h_eff: np.ndarray  # (K, N_RF) complex
    r_min: np.ndarray  # (K,) rate floors, bit/s
    p_max: float  # watts
    noise_power: float  # watts
    bandwidth: float  # hertz
    circuit_power: float  # watts, enters energy efficiency only
    certified: np.ndarray  # (K,) bool
    analog_gram: np.ndarray  # (N_RF, N_RF) Hermitian PSD
    whitener: np.ndarray  # (N_RF, N_RF) upper triangular L^{-H}

    @classmethod
    def build(
        cls,
        h_eff,
        r_min,
        p_max: float,
        noise_power: float,
        bandwidth: float = 1.0,
        circuit_power: float = 1.0,
        certified=None,
        analog_gram=None,
    ) -> "SnapshotProblem":
        h_eff = np.asarray(h_eff, dtype=complex)
        if h_eff.ndim != 2:
            raise ConfigError(f"h_eff must be (K, N_RF), got shape {h_eff.shape}")
        if not np.all(np.isfinite(h_eff)):
            raise ConfigError("h_eff must be finite")
        K = h_eff.shape[0]
        r_min = np.broadcast_to(np.asarray(r_min, dtype=float), (K,)).copy()
        if not np.all((r_min >= 0) & (r_min < np.inf)):  # False for NaN
            raise ConfigError("r_min must be finite and >= 0")
        # a float max bound (False for NaN) also holds out ints float() cannot take
        for name, value in (
            ("p_max", p_max), ("noise_power", noise_power), ("bandwidth", bandwidth)
        ):
            if not 0 < value <= sys.float_info.max:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0 <= circuit_power <= sys.float_info.max:
            raise ConfigError(f"circuit_power must be finite and >= 0, got {circuit_power}")
        certified = (
            np.ones(K, dtype=bool)
            if certified is None
            else np.asarray(certified, dtype=bool).copy()
        )
        if certified.shape != (K,):
            raise ConfigError(f"certified mask must be ({K},), got {certified.shape}")
        n = h_eff.shape[1]
        if analog_gram is None:
            analog_gram = np.eye(n, dtype=complex)
        analog_gram = np.asarray(analog_gram, dtype=complex)
        if analog_gram.shape != (n, n):
            raise ConfigError(f"analog gram must be ({n}, {n}), got {analog_gram.shape}")
        if not np.all(np.isfinite(analog_gram)):
            raise ConfigError("analog_gram must be finite")
        if np.max(np.abs(analog_gram - analog_gram.conj().T)) > 1e-9 * max(
            1.0, float(np.max(np.abs(analog_gram)))
        ):
            raise ConfigError("analog gram must be Hermitian")
        try:
            chol = np.linalg.cholesky(analog_gram)
        except np.linalg.LinAlgError:
            ridge = REG_REL * analog_gram.trace().real / n
            try:
                chol = np.linalg.cholesky(analog_gram + ridge * np.eye(n))
            except np.linalg.LinAlgError:
                raise ConfigError(
                    "analog_gram must be positive semidefinite and nonzero"
                ) from None
        return cls(
            h_eff,
            r_min,
            float(p_max),
            float(noise_power),
            float(bandwidth),
            float(circuit_power),
            certified,
            analog_gram,
            np.linalg.inv(chol).conj().T,
        )

    @property
    def num_users(self) -> int:
        return self.h_eff.shape[0]


@dataclass(frozen=True)
class SolverScalars:
    """Admission start set and reconstruction scalars from the predictor."""

    start: np.ndarray  # (K,) bool, the users repair starts from
    u: np.ndarray  # (K,) complex MMSE receive scalars
    w: np.ndarray  # (K,) MMSE weights, clamped
    pi: np.ndarray  # (K,) required-power proxy


@dataclass(frozen=True)
class BeamSolution:
    """Feasible digital beamformer and its per-snapshot metrics."""

    d_matrix: np.ndarray  # (N_RF, K)
    admitted: np.ndarray  # (K,) bool
    rates: np.ndarray  # (K,)
    sinr: np.ndarray  # (K,)
    power: float
    feasible: bool
    qar: float
    sum_rate: float
    energy_efficiency: float
    stats: dict = field(default_factory=dict)


def _sinr_targets(problem: SnapshotProblem) -> np.ndarray:
    """SINR target gamma_k = 2^(r_min/B) - 1 of each rate floor; a floor
    beyond float range gives gamma_k = inf, which the screen removes."""
    with np.errstate(over="ignore"):
        return 2.0 ** (problem.r_min / problem.bandwidth) - 1.0


def required_power_proxy(problem: SnapshotProblem) -> np.ndarray:
    """QoS difficulty pi_k = gamma_k * noise / (||h_eff_k||^2 + eps):
    matched-filter transmit power that would hit the SINR target gamma_k
    with no interference."""
    gains = np.sum(np.abs(problem.h_eff) ** 2, axis=1)
    return _sinr_targets(problem) * problem.noise_power / (gains + EPS_PI)


def transmit_power(problem: SnapshotProblem, D: np.ndarray) -> float:
    """||A D||_F^2 through the analog Gram."""
    return float(np.vdot(D, problem.analog_gram @ D).real)


def project_power(problem: SnapshotProblem, D: np.ndarray) -> np.ndarray:
    """Feasibility projection: scale by min(1, sqrt(P_max / power)).  The
    square root and the scaling round, so a scaled D that still measures
    above P_max is shrunk until `transmit_power` is within the budget."""
    p = transmit_power(problem, D)
    scale = min(1.0, np.sqrt(problem.p_max / (p + EPS_P)))
    out = D * scale
    while p > problem.p_max and transmit_power(problem, out) > problem.p_max:
        scale *= SHRINK
        out = D * scale
    return out


ADMISSION_PRIORITIES = ("qos-difficulty", "random")


def predict_admission_and_scalars(
    problem: SnapshotProblem,
    k_min: int = 8,
    priority: str = "qos-difficulty",
    seed: int = 0,
) -> SolverScalars:
    """Admission start set plus one-pass MMSE scalars.

    The start set is the first min(k_min, #certified) certified users in
    priority order: ascending pi_k with ties to the lower index, or a
    permutation drawn from `seed`.  Scalars come from a matched-filter
    equal-power initialization over the certified set: u_k = G_kk /
    (sum_j |G_kj|^2 + noise), w_k = 1 / (1 - Re(u_k^* G_kk)) clamped to
    [1, 1e6].
    """
    K = problem.num_users
    pi = required_power_proxy(problem)
    cert_idx = np.flatnonzero(problem.certified)
    if priority == "qos-difficulty":
        order = cert_idx[np.lexsort((cert_idx, pi[cert_idx]))]
    elif priority == "random":
        order = np.random.default_rng(seed).permutation(cert_idx)
    else:
        raise ConfigError(f"unknown admission priority {priority!r}")
    if k_min < 1:
        raise ConfigError(f"k_min must be >= 1, got {k_min}")
    start = np.zeros(K, dtype=bool)
    start[order[:k_min]] = True

    # matched-filter equal-power start over the certified set
    D0 = np.zeros((problem.h_eff.shape[1], K), dtype=complex)
    if cert_idx.size:
        h = problem.h_eff.conj().T  # columns h_eff_k
        norms = np.linalg.norm(h[:, cert_idx], axis=0)
        cols = np.where(norms > 0, norms, 1.0)
        D0[:, cert_idx] = h[:, cert_idx] / cols * np.sqrt(problem.p_max / cert_idx.size)
        D0 = project_power(problem, D0)
    u, w = _mmse_scalars(problem, D0)
    return SolverScalars(start=start, u=u, w=w, pi=pi)


def _mmse_scalars(problem: SnapshotProblem, D: np.ndarray):
    """MMSE receive scalars u_k = G_kk / (sum_j |G_kj|^2 + noise) and
    weights w_k = 1 / (1 - Re(u_k^* G_kk)) clamped to W_CLAMP, G = H D."""
    G = problem.h_eff @ D
    denom = np.sum(np.abs(G) ** 2, axis=1) + problem.noise_power
    u = np.diagonal(G) / denom
    w = 1.0 / np.maximum(1.0 - (u.conj() * np.diagonal(G)).real, 1.0 / W_CLAMP[1])
    return u, np.clip(w, *W_CLAMP)


def kkt_decompose(
    problem: SnapshotProblem, admitted: np.ndarray, scalars: SolverScalars
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose C = sum over admitted of w |u|^2 h h^H once per
    admitted set, in the whitened basis where the analog Gram G is the
    identity: (idx, B, lam, Z) with W^H C W + reg I = U diag(lam) U^H
    (W = `problem.whitener`, the eigenvalues clamped at 0), basis B = W U
    and Z = U^H W^H rhs.  Then B^H G B = I, so (C + nu G) D = rhs is solved
    by D = B Z / (lam + nu) with power sum ||Z_i||^2 / (lam_i + nu)^2.
    reg = REG_REL * tr(W^H C W)/N_RF keeps rank-deficient C (fewer admitted
    users than chains at nu = 0) solvable as the limit of the regularized
    path.  A set whose trace is <= 0 has D = 0 at every shift, so it keeps
    no users."""
    idx = np.flatnonzero(admitted)
    Hm = problem.h_eff[idx] @ problem.whitener  # rows (W^H h_k)^H
    C = (Hm.conj().T * (scalars.w[idx] * np.abs(scalars.u[idx]) ** 2)) @ Hm
    trace = C.trace().real
    if trace <= 0.0:  # scalars and right-hand sides all vanish: D = 0 at any shift
        idx, Hm = idx[:0], Hm[:0]
    rhs = Hm.conj().T * (scalars.w[idx] * scalars.u[idx].conj())
    lam, U = np.linalg.eigh(C)
    reg = REG_REL * max(trace, 0.0) / C.shape[0]
    return idx, problem.whitener @ U, np.maximum(lam, 0.0) + reg, U.conj().T @ rhs


def kkt_reconstruct(problem: SnapshotProblem, eig: tuple, nu: float) -> np.ndarray:
    """Closed-form beamformer from the weighted-MMSE stationarity system.

    d_k = C(nu)^{-1} (w_k u_k^* h_eff_k) for admitted k, with
    C(nu) = sum over admitted of w |u|^2 h h^H + nu G and G the analog Gram,
    so nu prices the transmit power ||A D||^2 that the budget bounds.
    `eig` is C's eigendecomposition from `kkt_decompose`, taken once per
    admitted set; a shift only rescales its eigenvalues: D = B Z / (lam + nu).
    """
    if nu < 0:
        raise ValueError(f"dual variable must be >= 0, got {nu}")
    idx, B, lam, Z = eig
    D = np.zeros((problem.h_eff.shape[1], problem.num_users), dtype=complex)
    D[:, idx] = B @ (Z / (lam + nu)[:, None])
    return D


def _secular_terms(eig: tuple):
    """(lam_i, c_i = ||Z_i||^2) of the power sum, without the c_i = 0 terms:
    an empty or all-zero admitted set has none and power 0 at every shift."""
    _, _, lam, Z = eig
    c = (Z * Z.conj()).real.sum(axis=-1)
    keep = c > 0.0
    return lam[keep], c[keep]


def _rates(problem: SnapshotProblem, D: np.ndarray):
    return sinr_and_rates(problem.h_eff, D, problem.noise_power, problem.bandwidth)


def _newton_dual(lam, c, p_max: float) -> tuple[float, int]:
    """Newton's method on one set's secular terms: (nu, power evaluations)."""
    target = 0.5 * (1.0 + POWER_BAND) * p_max
    nu = 0.0
    for n_ev in range(1, MAX_NEWTON + 2):
        s = 1.0 / (lam + nu)
        cs2 = c * s * s
        p = float(cs2.sum())
        if p <= p_max:
            return nu, n_ev
        # Newton on 1/sqrt(p): d/dnu p^{-1/2} = p^{-3/2} sum c_i s_i^3
        nu += p * (math.sqrt(p / target) - 1.0) / float(cs2 @ s)
    raise InvariantError(f"power dual did not converge in {MAX_NEWTON} Newton steps")


def power_dual_bisection(
    problem: SnapshotProblem,
    admitted: np.ndarray,
    scalars: SolverScalars,
) -> tuple[float, np.ndarray, int]:
    """Smallest-necessary power dual, found by Newton's method; the name
    stays because bench/spans.py traces it and tests/test_bench_targets.py
    requires every traced name to exist.  nu = 0 when the unconstrained
    reconstruction already fits the budget, otherwise Newton steps from
    nu = 0 on 1/sqrt(power(nu)) - 1/sqrt(target), target the middle of
    [POWER_BAND, 1] * P_max.  That function is concave and increasing
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983), so the iterates rise
    monotonically towards the target and the first with power <= P_max has
    power in [0.995, 1] * P_max.  Refinement, which raises the admitted
    sum-rate, searches it afresh for each sweep's scalars.

    One eigendecomposition serves every nu: each trial nu reads its power
    and slope from the secular terms of `_secular_terms`, and the
    beamformer is built by `kkt_reconstruct` once, at the chosen nu.
    Returns (nu, D, number of power evaluations); more than MAX_NEWTON
    Newton steps raise InvariantError.
    """
    eig = kkt_decompose(problem, admitted, scalars)
    nu, n_ev = _newton_dual(*_secular_terms(eig), problem.p_max)
    return nu, kkt_reconstruct(problem, eig, nu), n_ev


def _solve_projected(problem, admitted, scalars):
    """Power-dual reconstruction, exact power projection and the resulting
    rates: (D, rates, dual evaluations)."""
    _, D, n_ev = power_dual_bisection(problem, admitted, scalars)
    D = project_power(problem, D)
    _, rates = _rates(problem, D)
    return D, rates, n_ev


def _feasible(problem: SnapshotProblem, admitted: np.ndarray, rates: np.ndarray) -> bool:
    """Every admitted rate clears its floor."""
    return bool(np.all((rates >= problem.r_min) | ~admitted))


def _screened_in(problem: SnapshotProblem) -> np.ndarray:
    """Certified users with gamma_k * noise <= P_max * ||(h_eff W)_k||^2,
    up to the relative slack SCREEN_SLACK, W = `problem.whitener`.

    Every beamformer the solver returns is D = W E with ||E||_F^2 <= P_max:
    the dual search stops at the first whitened power within budget, and
    the projection only shrinks D.  So SINR_k <= P_max ||(h_eff W)_k||^2 /
    noise, and no admitted set can hold a user this screen removes."""
    gains = np.sum(np.abs(problem.h_eff @ problem.whitener) ** 2, axis=1)
    reach = problem.p_max * gains * (1.0 + SCREEN_SLACK)
    return problem.certified & (_sinr_targets(problem) * problem.noise_power <= reach)


def strict_repair(
    problem: SnapshotProblem,
    scalars: SolverScalars,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Violation-driven drops to feasibility from `scalars.start`, then
    ascending-difficulty add-backs that must preserve full feasibility.

    Only the users `_screened_in` keeps take part; `stats["screened"]`
    counts the certified users it removes.  The drop metric is
    gap_k / (pi_k + eps) with gap_k = (r_min - R_k)_+: the largest QoS
    shortfall per unit of required power, ties to the lowest index.
    Terminates within K drops.  The add-back pool is every
    screened-in user outside the admitted set, scanned in ascending pi_k
    until a full pass adds no one.  Each trial solves the admitted set plus
    one candidate; the first feasible trial is accepted and restarts the
    scan.  The first pass after a drop skips the last dropped user without
    a solve: its trial is the set the drop loop last solved and found
    infeasible.  `dual_evals` counts the power evaluations of the solves
    that run.
    """
    K = problem.num_users
    pool = _screened_in(problem)
    admitted = scalars.start & pool
    stats = {"drops": 0, "addbacks": 0, "dual_evals": 0,
             "screened": int(np.count_nonzero(problem.certified & ~pool))}
    D = np.zeros((problem.h_eff.shape[1], K), dtype=complex)
    dropped = -1
    for _ in range(K + 1):
        if not admitted.any():
            D = np.zeros_like(D)
            break
        D, rates, n_ev = _solve_projected(problem, admitted, scalars)
        stats["dual_evals"] += n_ev
        gaps = np.maximum(problem.r_min - rates, 0.0)
        gaps[~admitted] = 0.0
        if not gaps.any():
            break
        metric = np.where(admitted, gaps / (scalars.pi + EPS_PI), -np.inf)
        dropped = int(np.argmax(metric))
        admitted[dropped] = False
        stats["drops"] += 1
    else:
        raise InvariantError("repair failed to terminate within K drops")

    # feasibility-preserving add-backs, ascending required power; each
    # accepted user restarts the scan, a scan that accepts no one ends it
    order = np.lexsort((np.arange(K), scalars.pi))
    while True:
        for k in order[pool[order] & ~admitted[order]]:
            if k == dropped:  # the last drop's trial is known infeasible
                continue
            trial = admitted.copy()
            trial[k] = True
            D_t, rates_t, n_ev = _solve_projected(problem, trial, scalars)
            stats["dual_evals"] += n_ev
            if _feasible(problem, trial, rates_t):
                admitted, D = trial, D_t
                stats["addbacks"] += 1
                break
        else:
            return admitted, D, stats
        dropped = -1


def refine_qos_safe(
    problem: SnapshotProblem,
    admitted: np.ndarray,
    D: np.ndarray,
    scalars: SolverScalars,
) -> tuple[np.ndarray, dict]:
    """Monotone-accept WMMSE sweeps over the fixed admitted set.

    Each sweep re-derives (u, w) from the current beamformer, puts them in
    place of those in the predictor's `scalars`, reconstructs through the
    power dual, projects, and accepts only when all admitted rate floors
    still hold and the admitted sum-rate exceeds best * (1 + REFINE_TOL),
    best the sum-rate of the current iterate.  The first sweep that fails
    this ends the loop (the sweep map is deterministic, and a converged
    sweep buys almost nothing), and MAX_SWEEPS sweeps end it in any case.
    `refine_dual_evals` counts the power evaluations of every sweep.
    """
    stats = {"refine_accepted": 0, "refine_tried": 0, "refine_dual_evals": 0}
    if not admitted.any():
        return D, stats
    _, rates = _rates(problem, D)
    best = float(np.sum(rates[admitted]))
    for _ in range(MAX_SWEEPS):
        stats["refine_tried"] += 1
        u, w = _mmse_scalars(problem, D)
        D_new, rates_new, n_ev = _solve_projected(problem, admitted, replace(scalars, u=u, w=w))
        stats["refine_dual_evals"] += n_ev
        val = float(np.sum(rates_new[admitted]))
        if _feasible(problem, admitted, rates_new) and val > best * (1.0 + REFINE_TOL):
            D, best = D_new, val
            stats["refine_accepted"] += 1
        else:
            break
    return D, stats


def solve_snapshot(
    problem: SnapshotProblem,
    k_min: int = 8,
    priority: str = "qos-difficulty",
    seed: int = 0,
) -> BeamSolution:
    """Full per-slot solve: predict, repair from the start set, refine, verify."""
    scalars = predict_admission_and_scalars(problem, k_min, priority, seed)
    admitted, D, stats = strict_repair(problem, scalars)
    D, ref_stats = refine_qos_safe(problem, admitted, D, scalars)
    stats.update(ref_stats)
    sinr, rates = _rates(problem, D)
    power = transmit_power(problem, D)
    feasible = _feasible(problem, admitted, rates) and power <= problem.p_max
    if not feasible:
        raise InvariantError(
            "constructed solution failed final feasibility verification"
        )
    if np.any(D[:, ~admitted]):
        raise InvariantError("non-admitted user received transmit power")
    sum_rate = float(np.sum(rates[admitted]))
    denom = power + problem.circuit_power
    return BeamSolution(
        d_matrix=D,
        admitted=admitted,
        rates=rates,
        sinr=sinr,
        power=power,
        feasible=True,
        qar=float(admitted.sum() / problem.num_users),
        sum_rate=sum_rate,
        energy_efficiency=sum_rate / denom if denom > 0 else 0.0,
        stats=stats,
    )
