"""Per-slot digital beamforming with QoS admission control.

One snapshot fixes an effective channel (analog stage already applied), a
power budget, per-user rate floors, and the set of users whose pointing
error is certified.  The solve pipeline:

1. a lightweight admission predictor ranks certified users by QoS
   difficulty and emits WMMSE-style scalars (u_k, w_k) from one MMSE pass
   at a matched-filter equal-power initialization;
2. the digital beamformer is rebuilt in closed form from those scalars and
   one eigendecomposition per admitted set, with the power constraint met by
   a bisected dual variable and a final exact scaling projection; each
   trial dual reads its power from a small per-set quadratic form in the
   eigenbasis, so the beamformer itself is built once, at the chosen dual;
3. strict repair drops the worst-violating admitted user until every
   admitted rate clears its floor, then adds back any certified user that
   fits without breaking feasibility;
4. optional refinement sweeps re-derive the scalars from the current
   beamformer and accept an iterate only when it stays feasible and does
   not lower the objective.

The output is feasible by construction: transmit power within budget and
every admitted rate at or above its floor, with no exceptions.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import sinr_and_rates
from .errors import ConfigError, InvariantError

EPS_PI = 1e-12  # guards the per-user power proxy against zero channels
EPS_P = 1e-12  # guards the power projection against zero power
REG_REL = 1e-9  # relative ridge for the KKT solve, scaled by tr(C)/N_RF
W_CLAMP = (1.0, 1e6)  # MMSE weight clamp
MAX_DOUBLINGS = 60
MAX_BISECT = 40
POWER_BAND = 0.99  # accept bisection iterates with power in [band, 1] * P_max


@dataclass(frozen=True)
class SnapshotProblem:
    """One target slot's digital beamforming problem.

    h_eff rows are h_eff_k^H (effective channel after the analog stage);
    analog_gram is A^H A so transmit power ||A D||_F^2 is measurable
    without the full element-domain beamformer (None means identity, i.e.
    orthonormal analog columns).
    """

    h_eff: np.ndarray  # (K, N_RF) complex
    r_min: np.ndarray  # (K,) rate floors, bit/s
    p_max: float  # watts
    noise_power: float  # watts
    bandwidth: float  # hertz
    circuit_power: float  # watts, enters energy efficiency only
    certified: np.ndarray  # (K,) bool
    analog_gram: np.ndarray | None  # (N_RF, N_RF) Hermitian PSD or None

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
        if analog_gram is not None:
            analog_gram = np.asarray(analog_gram, dtype=complex)
            n = h_eff.shape[1]
            if analog_gram.shape != (n, n):
                raise ConfigError(
                    f"analog gram must be ({n}, {n}), got {analog_gram.shape}"
                )
            if not np.all(np.isfinite(analog_gram)):
                raise ConfigError("analog_gram must be finite")
            if np.max(np.abs(analog_gram - analog_gram.conj().T)) > 1e-9 * max(
                1.0, float(np.max(np.abs(analog_gram)))
            ):
                raise ConfigError("analog gram must be Hermitian")
        return cls(
            h_eff,
            r_min,
            float(p_max),
            float(noise_power),
            float(bandwidth),
            float(circuit_power),
            certified,
            analog_gram,
        )

    @property
    def num_users(self) -> int:
        return self.h_eff.shape[0]


@dataclass(frozen=True)
class SolverScalars:
    """Admission scores and reconstruction scalars from the predictor."""

    scores: np.ndarray  # (K,) soft admission in [0, 1]
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


def required_power_proxy(problem: SnapshotProblem) -> np.ndarray:
    """QoS difficulty pi_k = gamma_k * noise / (||h_eff_k||^2 + eps):
    matched-filter transmit power that would hit the SINR target
    gamma_k = 2^(r_min/B) - 1 with no interference."""
    gamma = 2.0 ** (problem.r_min / problem.bandwidth) - 1.0
    gains = np.sum(np.abs(problem.h_eff) ** 2, axis=1)
    return gamma * problem.noise_power / (gains + EPS_PI)


def transmit_power(problem: SnapshotProblem, D: np.ndarray) -> float:
    """||A D||_F^2 through the analog Gram (identity when absent)."""
    if problem.analog_gram is None:
        return float(np.sum(np.abs(D) ** 2))
    return float(np.vdot(D, problem.analog_gram @ D).real)


def project_power(problem: SnapshotProblem, D: np.ndarray) -> np.ndarray:
    """Exact feasibility projection: scale by min(1, sqrt(P_max / power))."""
    p = transmit_power(problem, D)
    scale = min(1.0, np.sqrt(problem.p_max / (p + EPS_P)))
    return D * scale


def predict_admission_and_scalars(
    problem: SnapshotProblem,
    k_min: int = 8,
    priority: str = "qos-difficulty",
    seed: int | None = None,
) -> SolverScalars:
    """Admission scores plus one-pass MMSE scalars.

    The first min(k_min, #certified) users in priority order get score 1;
    the rest taper strictly below the admission threshold, non-increasing
    along the ranking.  Scalars come from a matched-filter equal-power
    initialization over the certified set: u_k = G_kk / (sum_j |G_kj|^2 +
    noise), w_k = 1 / (1 - Re(u_k^* G_kk)) clamped to [1, 1e6].
    """
    K = problem.num_users
    pi = required_power_proxy(problem)
    cert_idx = np.flatnonzero(problem.certified)
    if priority == "qos-difficulty":
        order = cert_idx[np.lexsort((cert_idx, pi[cert_idx]))]
    elif priority == "channel-gain":
        gains = np.sum(np.abs(problem.h_eff) ** 2, axis=1)
        order = cert_idx[np.lexsort((cert_idx, -gains[cert_idx]))]
    elif priority == "random":
        order = np.random.default_rng(seed).permutation(cert_idx)
    else:
        raise ConfigError(f"unknown admission priority {priority!r}")
    if k_min < 1:
        raise ConfigError(f"k_min must be >= 1, got {k_min}")
    scores = np.zeros(K)
    for rank, k in enumerate(order):
        scores[k] = 1.0 if rank < k_min else 0.5 * k_min / (rank + 1.0)

    # matched-filter equal-power start over the certified set
    D0 = np.zeros((problem.h_eff.shape[1], K), dtype=complex)
    if cert_idx.size:
        h = problem.h_eff.conj().T  # columns h_eff_k
        norms = np.linalg.norm(h[:, cert_idx], axis=0)
        cols = np.where(norms > 0, norms, 1.0)
        D0[:, cert_idx] = h[:, cert_idx] / cols * np.sqrt(problem.p_max / cert_idx.size)
        D0 = project_power(problem, D0)
    u, w = _mmse_scalars(problem, D0)
    return SolverScalars(scores=scores, u=u, w=w, pi=pi)


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
    admitted set: (idx, U, lam, Z) with C + reg I = U diag(lam) U^H, the
    eigenvalues of C clamped at 0, and Z = U^H rhs.  reg = REG_REL *
    tr(C)/N_RF keeps rank-deficient C (fewer admitted users than chains at
    nu = 0) solvable as the limit of the regularized path."""
    idx = np.flatnonzero(admitted)
    Hm = problem.h_eff[idx]  # rows h_k^H
    C = (Hm.conj().T * (scalars.w[idx] * np.abs(scalars.u[idx]) ** 2)) @ Hm
    trace = C.trace().real
    if trace <= 0.0:  # scalars and right-hand sides all vanish: D = 0 at any shift
        idx, Hm = idx[:0], Hm[:0]
    rhs = Hm.conj().T * (scalars.w[idx] * scalars.u[idx].conj())
    lam, U = np.linalg.eigh(C)
    reg = REG_REL * max(trace, 0.0) / C.shape[0]
    return idx, U, np.maximum(lam, 0.0) + reg, U.conj().T @ rhs


def kkt_reconstruct(
    problem: SnapshotProblem,
    admitted: np.ndarray,
    scalars: SolverScalars,
    nu: float,
    eig: tuple | None = None,
) -> np.ndarray:
    """Closed-form beamformer from the weighted-MMSE stationarity system.

    d_k = C(nu)^{-1} (w_k u_k^* h_eff_k) for admitted k, with
    C(nu) = sum over admitted of w |u|^2 h h^H + nu I.  C is
    eigendecomposed once per admitted set by `kkt_decompose`; pass that as
    `eig` to reuse it across shifts, otherwise it is built here.  A shift
    then only rescales the eigenvalues: D = U Z / (lam + nu).
    """
    if nu < 0:
        raise ValueError(f"dual variable must be >= 0, got {nu}")
    idx, U, lam, Z = kkt_decompose(problem, admitted, scalars) if eig is None else eig
    D = np.zeros((problem.h_eff.shape[1], problem.num_users), dtype=complex)
    D[:, idx] = U @ (Z / (lam + nu)[:, None])
    return D


def kkt_power(problem: SnapshotProblem, eig: tuple):
    """Transmit power along the dual path, read from the eigenbasis.

    Returns power(shift) = transmit_power(problem, kkt_reconstruct(...,
    shift, eig)) for the decomposition `eig` of `kkt_decompose`, without
    building D: with D = U diag(s) Z and s = 1/(lam + shift), the power is
    s^T P s for the real PSD (N_RF, N_RF) matrix P = Re((U^H G U) o conj(Z
    Z^H)), G the analog Gram (P = diag(||Z_i||^2) when G is the identity).
    P is formed once here; each shift then costs one small quadratic form.
    An empty admitted set (no columns, lam = 0) has power 0 at every shift.
    """
    idx, U, lam, Z = eig
    if not idx.size:
        return lambda shift: 0.0
    if problem.analog_gram is None:
        P = np.diag(np.sum(np.abs(Z) ** 2, axis=1))
    else:
        P = ((U.conj().T @ problem.analog_gram @ U) * (Z @ Z.conj().T).conj()).real

    def power(shift: float) -> float:
        s = 1.0 / (lam + shift)
        return float(s @ P @ s)

    return power


def _rates(problem: SnapshotProblem, D: np.ndarray):
    return sinr_and_rates(problem.h_eff, D, problem.noise_power, problem.bandwidth)


def power_dual_bisection(
    problem: SnapshotProblem,
    admitted: np.ndarray,
    scalars: SolverScalars,
    ridge: float = 0.0,
) -> tuple[float, np.ndarray, int]:
    """Smallest-necessary power dual: nu = 0 when the unconstrained
    reconstruction already fits the budget, otherwise geometric growth of
    an upper bracket followed by bisection into [0.99, 1.0] * P_max.
    `ridge` is a fixed extra shift: each nu is evaluated at nu + ridge.

    One eigendecomposition of C serves every nu, and each trial nu reads
    its power from the eigenbasis (`kkt_power`); the beamformer is built
    by `kkt_reconstruct` once, at the chosen nu.  Power is non-increasing
    in nu; every evaluation is recorded and monotonicity asserted per call.
    Returns (nu, D, number of power evaluations).
    """
    evals: list[tuple[float, float]] = []
    eig = kkt_decompose(problem, admitted, scalars)
    power = kkt_power(problem, eig)

    def evaluate(nu: float) -> float:
        p = power(nu + ridge)
        evals.append((nu, p))
        return p

    def check_monotone() -> None:
        seq = sorted(evals)
        for (nu_a, p_a), (nu_b, p_b) in zip(seq, seq[1:]):
            if nu_b > nu_a and p_b > p_a * (1.0 + 1e-6) + 1e-12 * problem.p_max:
                raise InvariantError(
                    f"power increased along the dual: p({nu_a}) = {p_a} -> "
                    f"p({nu_b}) = {p_b}"
                )

    best_nu = 0.0
    if evaluate(0.0) > problem.p_max:
        nu_lo, nu_hi = 0.0, 1.0
        p_hi = evaluate(nu_hi)
        for _ in range(MAX_DOUBLINGS):
            if p_hi <= problem.p_max:
                break
            nu_lo, nu_hi = nu_hi, nu_hi * 2.0
            p_hi = evaluate(nu_hi)
        best_nu = nu_hi
        if p_hi < POWER_BAND * problem.p_max:
            for _ in range(MAX_BISECT):
                mid = 0.5 * (nu_lo + nu_hi)
                p_mid = evaluate(mid)
                if p_mid > problem.p_max:
                    nu_lo = mid
                else:
                    nu_hi = best_nu = mid
                    if p_mid >= POWER_BAND * problem.p_max:
                        break
    check_monotone()
    D = kkt_reconstruct(problem, admitted, scalars, best_nu + ridge, eig)
    return best_nu, D, len(evals)


def _solve_projected(problem, admitted, scalars, ridge: float = 0.0):
    """Power-dual reconstruction, exact power projection and the resulting
    rates: (D, rates, dual evaluations)."""
    _, D, n_ev = power_dual_bisection(problem, admitted, scalars, ridge)
    D = project_power(problem, D)
    _, rates = _rates(problem, D)
    return D, rates, n_ev


def _feasible(problem: SnapshotProblem, admitted: np.ndarray, rates: np.ndarray) -> bool:
    return bool(np.all(rates[admitted] >= problem.r_min[admitted]))


def strict_repair(
    problem: SnapshotProblem,
    admitted0: np.ndarray,
    scalars: SolverScalars,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Violation-driven drops to feasibility, then ascending-difficulty
    add-backs that must preserve full feasibility.

    The drop metric is gap_k / (pi_k + eps) with gap_k = (r_min - R_k)_+:
    the largest QoS shortfall per unit of required power, ties to the lowest
    index.  Terminates within K drops.  The add-back pool is every
    certified user outside the admitted set, scanned in ascending pi_k
    until a full pass adds no one.
    """
    K = problem.num_users
    admitted = np.asarray(admitted0, dtype=bool) & problem.certified
    stats = {"drops": 0, "addbacks": 0, "bisection_evals": 0}

    def solve_for(mask):
        D, rates, n_ev = _solve_projected(problem, mask, scalars)
        stats["bisection_evals"] += n_ev
        return D, rates

    D = np.zeros((problem.h_eff.shape[1], K), dtype=complex)
    rates = np.zeros(K)
    for _ in range(K + 1):
        if not admitted.any():
            D = np.zeros_like(D)
            rates = np.zeros(K)
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

    # feasibility-preserving add-backs, ascending required power
    candidates_order = np.lexsort((np.arange(K), scalars.pi))
    for _ in range(K + 1):
        added = False
        for k in candidates_order:
            if admitted[k] or not problem.certified[k]:
                continue
            trial = admitted.copy()
            trial[k] = True
            D_t, rates_t = solve_for(trial)
            if _feasible(problem, trial, rates_t):
                admitted, D, rates = trial, D_t, rates_t
                stats["addbacks"] += 1
                added = True
                break
        if not added:
            break
    return admitted, D, stats


def _objective(problem, admitted, rates, power, objective: str) -> float:
    total = float(np.sum(rates[admitted]))
    if objective == "sum-rate":
        return total
    if objective == "ee":
        denom = power + problem.circuit_power
        return total / denom if denom > 0 else 0.0
    raise ConfigError(f"unknown objective {objective!r}")


def refine_qos_safe(
    problem: SnapshotProblem,
    admitted: np.ndarray,
    D: np.ndarray,
    n_ref: int = 10,
    objective: str = "sum-rate",
) -> tuple[np.ndarray, dict]:
    """Monotone-accept WMMSE sweeps over the fixed admitted set.

    Each sweep re-derives (u, w) from the current beamformer, reconstructs
    through the power dual, projects, and accepts only when all admitted
    rate floors still hold and the objective did not decrease; the first
    rejected iterate ends the loop (the sweep map is deterministic).  For
    the energy-efficiency objective the current Dinkelbach ratio is folded
    into the reconstruction ridge.
    """
    stats = {"refine_accepted": 0, "refine_tried": 0}
    if not admitted.any() or n_ref < 1:
        return D, stats
    pi = required_power_proxy(problem)
    _, rates = _rates(problem, D)
    power = transmit_power(problem, D)
    best = _objective(problem, admitted, rates, power, objective)
    for _ in range(n_ref):
        stats["refine_tried"] += 1
        u, w = _mmse_scalars(problem, D)
        ridge = 0.0
        if objective == "ee":
            ridge = best if power <= 0 else float(
                np.sum(rates[admitted]) / (power + problem.circuit_power)
            )
        scal = SolverScalars(scores=admitted.astype(float), u=u, w=w, pi=pi)
        D_new, rates_new, _ = _solve_projected(problem, admitted, scal, ridge)
        power_new = transmit_power(problem, D_new)
        val = _objective(problem, admitted, rates_new, power_new, objective)
        if _feasible(problem, admitted, rates_new) and val >= best:
            D, rates, power, best = D_new, rates_new, power_new, val
            stats["refine_accepted"] += 1
        else:
            break
    return D, stats


def solve_snapshot(
    problem: SnapshotProblem,
    k_min: int = 8,
    priority: str = "qos-difficulty",
    seed: int | None = None,
    objective: str = "sum-rate",
    n_ref: int = 10,
) -> BeamSolution:
    """Full per-slot solve: predict, threshold, repair, refine, verify."""
    scalars = predict_admission_and_scalars(problem, k_min, priority, seed)
    admitted0 = problem.certified & (scalars.scores >= 0.5)
    admitted, D, stats = strict_repair(problem, admitted0, scalars)
    D, ref_stats = refine_qos_safe(problem, admitted, D, n_ref, objective)
    stats.update(ref_stats)
    sinr, rates = _rates(problem, D)
    power = transmit_power(problem, D)
    feasible = _feasible(problem, admitted, rates) and power <= problem.p_max
    if not feasible:
        raise InvariantError(
            "constructed solution failed final feasibility verification"
        )
    if not np.allclose(D[:, ~admitted], 0.0):
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
