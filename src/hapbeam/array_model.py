"""Planar array model: steering, the analog stage, detuning and gain-loss
models, and the per-user curvature certificate.

The panel is an M_x-by-M_y uniform planar array on the platform body frame
x-y plane.  All angles here are body-frame steering angles (theta, phi) as
produced by :func:`hapbeam.geometry.los_to_body_angles`.  Beam detuning is
measured per axis in spacing-scaled direction-cosine units
xi = (d_axis / wavelength) * delta(direction cosine), the natural argument
of the separable array factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OutOfModelError
from .geometry import (
    EulerZYX,
    WorldGeometry,
    ensure_rotation,
    euler_to_rotation,
    los_to_body_angles,
    rotation_exp,
)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array: element counts, spacings, carrier wavelength,
    number of RF chains."""

    m_x: int
    m_y: int
    d_x: float  # meters
    d_y: float  # meters
    wavelength: float  # meters
    n_rf: int

    def __post_init__(self):
        if self.m_x < 1 or self.m_y < 1:
            raise ConfigError(f"element counts must be >= 1, got {self.m_x}x{self.m_y}")
        if self.d_x <= 0 or self.d_y <= 0:
            raise ConfigError("element spacings must be positive")
        if self.wavelength <= 0:
            raise ConfigError("wavelength must be positive")
        if self.n_rf < 1:
            raise ConfigError(f"need at least one RF chain, got {self.n_rf}")

    @property
    def num_elements(self) -> int:
        return self.m_x * self.m_y


def steering_vector(cfg: ArrayConfig, theta, phi) -> np.ndarray:
    """Phase-only steering vector, shape (m_x * m_y,), every entry of
    magnitude 1/sqrt(M).

    Element (m, n) carries phase (2 pi / wavelength) *
    (m * d_x * sin(theta) cos(phi) + n * d_y * sin(theta) sin(phi));
    the flat index runs over m (x axis) fastest.  Angle arrays of shape (K,)
    give the K vectors as the columns of an (M, K) matrix, each column equal
    bit for bit to the call on its own angles.
    """
    sx = np.sin(theta) * np.cos(phi)
    sy = np.sin(theta) * np.sin(phi)
    k0 = 2.0 * np.pi / cfg.wavelength
    px = np.multiply.outer(np.arange(cfg.m_x), k0 * cfg.d_x * sx)  # (m_x, ...)
    py = np.multiply.outer(np.arange(cfg.m_y), k0 * cfg.d_y * sy)  # (m_y, ...)
    phase = py[:, None] + px[None, :]  # (m_y, m_x, ...), m fastest when raveled
    return np.exp(1j * phase).reshape((cfg.num_elements,) + np.shape(sx)) / np.sqrt(
        cfg.num_elements
    )


def _steering_matrix(cfg: ArrayConfig, geom: WorldGeometry, att) -> np.ndarray:
    """Per-user steering vectors, shape (M, K), at an EulerZYX or 3x3 attitude."""
    R = euler_to_rotation(att) if isinstance(att, EulerZYX) else ensure_rotation(att)
    return steering_vector(cfg, *los_to_body_angles(geom.los_unit, R))


def analog_beamformer_at(
    cfg: ArrayConfig, geom: WorldGeometry, attitude: EulerZYX | np.ndarray
) -> np.ndarray:
    """Stack per-user steering vectors at one attitude into A, shape (M, N_RF).

    Column k points at user k's line of sight from the body frame under
    ``attitude``, an EulerZYX or a 3x3 body-to-world rotation matrix
    (ValueError unless orthonormal with det +1).  One RF chain per user.
    """
    if geom.num_users != cfg.n_rf:
        raise ConfigError(
            f"analog stage assigns one chain per user: K={geom.num_users} "
            f"but N_RF={cfg.n_rf}"
        )
    return _steering_matrix(cfg, geom, attitude)


# ---------------------------------------------------------------------------
# Detuning and gain-loss models
# ---------------------------------------------------------------------------


def taper_constants(cfg: ArrayConfig) -> tuple[float, float]:
    """Quadratic loss curvatures (c_x, c_y) = pi^2 (M_axis^2 - 1) / 3."""
    cx = np.pi**2 * (cfg.m_x**2 - 1) / 3.0
    cy = np.pi**2 * (cfg.m_y**2 - 1) / 3.0
    return cx, cy


def detuning(
    cfg: ArrayConfig,
    angles_hat: tuple[float, float],
    delta_omega,
    e_k,
    a_hat: EulerZYX,
) -> np.ndarray:
    """Per-axis beam detuning xi when the attitude is perturbed.

    angles_hat are the steering angles the beam was built for; the true
    attitude is R_hat @ exp(hat(delta_omega)).  Returns
    (d_x/wavelength * delta s_x, d_y/wavelength * delta s_y) where
    (s_x, s_y) = (sin theta cos phi, sin theta sin phi).
    """
    th, ph = angles_hat
    sx = np.sin(th) * np.cos(ph)
    sy = np.sin(th) * np.sin(ph)
    R_true = euler_to_rotation(a_hat) @ rotation_exp(np.asarray(delta_omega, dtype=float))
    th2, ph2 = los_to_body_angles(e_k, R_true)
    sx2 = np.sin(th2) * np.cos(ph2)
    sy2 = np.sin(th2) * np.sin(ph2)
    return np.array(
        [cfg.d_x / cfg.wavelength * (sx2 - sx), cfg.d_y / cfg.wavelength * (sy2 - sy)]
    )


def _jacobian_from_dir(cfg: ArrayConfig, u) -> np.ndarray:
    """Detuning Jacobian d(xi)/d(delta_omega) at body-frame unit direction
    u: diag(d_x, d_y) / wavelength times rows x, y of the cross-product
    matrix [u]_x, since the perturbed direction exp(-hat(dw)) @ u is
    u + u x dw to first order."""
    ux, uy, uz = np.asarray(u, dtype=float)
    scale = np.array([cfg.d_x, cfg.d_y]) / cfg.wavelength
    return np.array([[0.0, -uz, uy], [uz, 0.0, -ux]]) * scale[:, None]


def jacobian(cfg: ArrayConfig, e_k, a_hat: EulerZYX) -> np.ndarray:
    """2x3 sensitivity of detuning to the attitude residual, at residual 0."""
    R = euler_to_rotation(a_hat)
    u = R.T @ np.asarray(e_k, dtype=float)
    return _jacobian_from_dir(cfg, u)


def _angles_to_dir(theta, phi) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta) * np.ones_like(phi)],
        axis=-1,
    )


def detune_q_matrix(cfg: ArrayConfig, theta: float, phi: float) -> np.ndarray:
    """Q = J^T diag(c_x, c_y) J at one steering operating point: the
    quadratic form taking an attitude residual to the quadratic gain loss."""
    J = _jacobian_from_dir(cfg, _angles_to_dir(theta, phi))
    cx, cy = taper_constants(cfg)
    return J.T @ (np.array([cx, cy])[:, None] * J)


def gain_loss_quadratic(cfg: ArrayConfig, xi) -> float:
    """Small-detuning beamforming gain loss c_x xi_x^2 + c_y xi_y^2."""
    cx, cy = taper_constants(cfg)
    xi = np.asarray(xi, dtype=float)
    return float(cx * xi[..., 0] ** 2 + cy * xi[..., 1] ** 2)


def exact_gain_loss(cfg: ArrayConfig, xi) -> float:
    """Exact separable array-factor power loss 1 - (AF_x AF_y)^2 with
    AF(xi) = sin(M pi xi) / (M sin(pi xi)).

    Valid inside the first null per axis: |xi_axis| < 1/M_axis.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(np.abs(xi[..., 0]) >= 1.0 / cfg.m_x) or np.any(
        np.abs(xi[..., 1]) >= 1.0 / cfg.m_y
    ):
        raise OutOfModelError(
            "detuning beyond the first array-factor null; the separable "
            "main-lobe model does not apply"
        )
    af_x = np.sinc(cfg.m_x * xi[..., 0]) / np.sinc(xi[..., 0])
    af_y = np.sinc(cfg.m_y * xi[..., 1]) / np.sinc(xi[..., 1])
    return 1.0 - (af_x * af_y) ** 2


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleBox:
    """Axis-aligned steering-angle box in (theta, phi).  The bounds may be
    arrays of one shape, one box per element."""

    theta_lo: float | np.ndarray
    theta_hi: float | np.ndarray
    phi_lo: float | np.ndarray
    phi_hi: float | np.ndarray

    def __post_init__(self):
        if np.any(np.greater(self.theta_lo, self.theta_hi)) or np.any(
            np.greater(self.phi_lo, self.phi_hi)
        ):
            raise ConfigError("angle box must have lo <= hi per axis")

    @classmethod
    def around(cls, theta, phi, half_width: float) -> "AngleBox":
        return cls(theta - half_width, theta + half_width, phi - half_width, phi + half_width)


def _sin2_range(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (min, max) of sin^2 over [lo, hi].  sin^2 is monotone
    between multiples of pi/2, so each extreme is at an end unless the
    interval holds a zero (k pi, value 0) or a peak (pi/2 + k pi, value 1)."""
    ends = np.sin(lo) ** 2, np.sin(hi) ** 2
    has_zero = np.floor(hi / np.pi) >= np.ceil(lo / np.pi)
    has_peak = np.floor(hi / np.pi - 0.5) >= np.ceil(lo / np.pi - 0.5)
    return (
        np.where(has_zero, 0.0, np.minimum(*ends)),
        np.where(has_peak, 1.0, np.maximum(*ends)),
    )


def spectral_bound_l2(cfg: ArrayConfig, box: AngleBox):
    """Worst-case curvature L^2 >= lambda_max(Q) at every operating point of
    the steering box, in closed form; one value per box element.

    Q = J^T diag(c) J has rank 2, so lambda_max(Q) is the larger eigenvalue
    of diag(sqrt(c)) J J^T diag(sqrt(c)) = [[p, -r], [-r, q]] with
    p = a (1 - u_x^2), q = b (1 - u_y^2), r = sqrt(ab) u_x u_y,
    a = c_x (d_x / wavelength)^2 and b = c_y (d_y / wavelength)^2.  That
    eigenvalue, (p + q) / 2 + hypot((p - q) / 2, r), does not decrease in
    p, q or |r|, so it is bounded by its value at the box maxima of p, q and
    |r|, taken from u_x^2 = sin^2(theta) cos^2(phi), u_y^2 = sin^2(theta)
    sin^2(phi) and |u_x u_y| = sin^2(theta) |sin(2 phi)| / 2.  The bound is
    exact on one-point boxes and is capped at max(a, b), which dominates
    lambda_max(Q) in every direction.
    """
    cx, cy = taper_constants(cfg)
    a = cx * (cfg.d_x / cfg.wavelength) ** 2
    b = cy * (cfg.d_y / cfg.wavelength) ** 2
    st_min, st_max = _sin2_range(box.theta_lo, box.theta_hi)
    sp_min, sp_max = _sin2_range(box.phi_lo, box.phi_hi)
    _, s2p_max = _sin2_range(2.0 * box.phi_lo, 2.0 * box.phi_hi)
    p = a * (1.0 - st_min * (1.0 - sp_max))
    q = b * (1.0 - st_min * sp_min)
    r = np.sqrt(a * b) * st_max * 0.5 * np.sqrt(s2p_max)
    return np.minimum(0.5 * (p + q) + np.hypot(0.5 * (p - q), r), max(a, b))


def certify_users(l2, delta_omega: float, epsilon: float) -> np.ndarray:
    """Per-user worst-case certificate: L_k^2 * delta_omega^2 <= epsilon."""
    l2 = np.asarray(l2, dtype=float)
    if delta_omega < 0 or epsilon <= 0:
        raise ConfigError("need delta_omega >= 0 and epsilon > 0")
    return l2 * delta_omega**2 <= epsilon
