"""Downlink channel synthesis and rate accounting.

Rician model per user: the line-of-sight component points along the true
attitude's steering vector with deterministic slant-range phase, the diffuse
component is iid circularly-symmetric Gaussian.  Average energy E||h_k||^2 =
M * beta_k for every Rician factor.
"""

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, _steering_matrix
from .geometry import EulerZYX, WorldGeometry


@dataclass(frozen=True)
class ChannelParams:
    """Per-user large-scale parameters and receiver noise.

    kappa: Rician factor(s); np.inf selects a pure line-of-sight channel.
    beta: average path gain(s).  Scalars broadcast over users.
    """

    kappa: np.ndarray
    beta: np.ndarray
    noise_power: float  # watts
    bandwidth: float  # hertz

    @classmethod
    def build(cls, kappa, beta, noise_power: float, bandwidth: float, num_users: int):
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (num_users,)).copy()
        beta = np.broadcast_to(np.asarray(beta, dtype=float), (num_users,)).copy()
        if np.any(kappa < 0):
            raise ValueError("Rician factor must be >= 0")
        if np.any(beta <= 0):
            raise ValueError("path gains must be positive")
        if noise_power <= 0 or bandwidth <= 0:
            raise ValueError("noise power and bandwidth must be positive")
        return cls(kappa, beta, float(noise_power), float(bandwidth))


def fspl_gain(wavelength: float, distance) -> np.ndarray:
    """Free-space path gain (wavelength / (4 pi d))^2."""
    d = np.asarray(distance, dtype=float)
    return (wavelength / (4.0 * np.pi * d)) ** 2


def synthesize_channel(
    cfg: ArrayConfig,
    geom: WorldGeometry,
    attitude_true: EulerZYX | np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator | list[np.random.Generator],
) -> np.ndarray:
    """Draw one channel realization H, shape (M, K).

    h_k = sqrt(kappa/(kappa+1)) h_los + sqrt(1/(kappa+1)) h_nlos with
    h_los = sqrt(beta_k) sqrt(M) a_k(true angles) exp(-j 2 pi d_k / wavelength)
    and h_nlos ~ CN(0, beta_k I).  ``attitude_true`` is an EulerZYX or a
    3x3 body-to-world rotation matrix, as in `analog_beamformer_at`.  The
    diffuse draw order is fixed (one (M, K) block, real then imaginary), so
    a given generator state yields a bit-reproducible matrix.  S attitudes
    with a list of S generators give the (S, M, K) stack of S such draws.
    """
    A = _steering_matrix(cfg, geom, attitude_true)
    M, K = A.shape[-2:]
    gens = [rng] if A.ndim == 2 else rng
    pure = np.isinf(params.kappa)
    kappa = np.where(pure, 1.0, params.kappa)
    w_los = np.where(pure, 1.0, np.sqrt(kappa / (kappa + 1.0)))
    w_nlos = np.where(pure, 0.0, np.sqrt(1.0 / (kappa + 1.0)))
    noise = [g.standard_normal((M, K)) + 1j * g.standard_normal((M, K)) for g in gens]
    noise = np.reshape(noise, A.shape)
    # One scalar exp per user: the slant-range phases run to ~1e7 rad, where
    # the array form of np.exp rounds differently in the last bits.
    phase = np.array(
        [np.exp(-1j * 2.0 * np.pi * d / cfg.wavelength) for d in geom.distance]
    )
    h_los = np.sqrt(params.beta * M) * A * phase
    h_nlos = np.sqrt(params.beta / 2.0) * noise
    return w_los * h_los + w_nlos * h_nlos


def effective_channel(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Analog-combined channel H_eff = H^H A, shape (K, N_RF), per stacked slice."""
    H = np.asarray(H)
    A = np.asarray(A)
    if H.shape[-2] != A.shape[-2]:
        raise ValueError(
            f"element-count mismatch: channel has {H.shape[-2]} rows, "
            f"beamformer {A.shape[-2]}"
        )
    return np.swapaxes(H.conj(), -1, -2) @ A


def sinr_and_rates(
    H_eff: np.ndarray, D: np.ndarray, noise_power: float, bandwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user SINR and Shannon rate for a digital beamformer D.

    G = H_eff @ D; SINR_k = |G_kk|^2 / (sum_{j != k} |G_kj|^2 + noise);
    rate_k = bandwidth * log2(1 + SINR_k).
    """
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    G = H_eff @ D
    p = np.abs(G) ** 2
    sig = p.diagonal(0, -2, -1).copy()
    interf = p.sum(axis=-1) - sig
    sinr = sig / (interf + noise_power)
    return sinr, bandwidth * np.log2(1.0 + sinr)
