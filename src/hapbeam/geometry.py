"""Attitude and line-of-sight geometry.

Conventions used throughout the library:

* Euler angles are intrinsic Z-Y-X (yaw about z, then pitch about y, then
  roll about x), in radians.  ``euler_to_rotation`` returns the body-to-world
  rotation R = Rz(yaw) @ Ry(pitch) @ Rx(roll); the world-to-body map is its
  transpose.
* Pointing residuals live in the tangent space of SO(3):
  ``rotation_log_vee(R_hat, R)`` returns vee(log(R_hat^T R)), the rotation
  vector taking the reference attitude R_hat to the true attitude R.
* Yaw-like angles are normalized to (-pi, pi].
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousAxisError, DegenerateAttitudeError

_GIMBAL_TOL = 1e-9
_PI_AXIS_TOL = 1e-9
_SMALL_ANGLE = 1e-6


def wrap_pi(x):
    """Wrap angle(s) to the interval (-pi, pi].

    Values already inside the interval pass through bit-identically.
    """
    x = np.asarray(x, dtype=float)
    m = np.mod(x, 2.0 * np.pi)
    w = np.where(m > np.pi, m - 2.0 * np.pi, m)
    return np.where((x > -np.pi) & (x <= np.pi), x, w)


@dataclass(frozen=True)
class EulerZYX:
    """Intrinsic Z-Y-X Euler attitude: yaw, pitch, roll in radians."""

    yaw: float
    pitch: float
    roll: float

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll], dtype=float)

    @classmethod
    def from_array(cls, a) -> "EulerZYX":
        a = np.asarray(a, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"expected 3 Euler angles, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @classmethod
    def level(cls) -> "EulerZYX":
        return cls(0.0, 0.0, 0.0)


def euler_to_rotation(att: EulerZYX) -> np.ndarray:
    """Body-to-world rotation R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cy, sy = np.cos(att.yaw), np.sin(att.yaw)
    cp, sp = np.cos(att.pitch), np.sin(att.pitch)
    cr, sr = np.cos(att.roll), np.sin(att.roll)
    # Products written out; avoids three 3x3 matmuls in a hot path.
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def rotation_to_euler(R: np.ndarray) -> EulerZYX:
    """Recover Z-Y-X Euler angles from a rotation matrix.

    Raises DegenerateAttitudeError within 1e-9 of gimbal lock
    (|R[2,0]| = |sin(pitch)| -> 1), where yaw and roll are not separable.
    """
    R = np.asarray(R, dtype=float)
    s = -R[2, 0]
    if abs(s) > 1.0 - _GIMBAL_TOL:
        raise DegenerateAttitudeError(
            f"pitch within gimbal-lock guard: |sin(pitch)| = {abs(s):.12g}"
        )
    yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    roll = float(np.arctan2(R[2, 1], R[2, 2]))
    # atan2 lies in [-pi, pi], so the wrap to (-pi, pi] only moves -pi
    yaw, roll = (np.pi if a == -np.pi else a for a in (yaw, roll))
    return EulerZYX(yaw, float(np.arcsin(s)), roll)


def rotation_exp(omega) -> np.ndarray:
    """Rodrigues exponential: rotation vector (3,) -> rotation matrix."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    wx, wy, wz = omega
    K = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def rotation_log_vee(R_hat: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Rotation vector vee(log(R_hat^T R)) taking R_hat to R.

    Axis-angle extraction: the angle comes from the trace, the axis from the
    skew-symmetric part.  Below 1e-6 rad the scale factor theta/sin(theta)
    switches to its series to avoid 0/0.  Within 1e-9 of pi the axis sign is
    not determined by the skew part and AmbiguousAxisError is raised; the
    geodesic angle is carried on the exception.
    """
    E = R_hat.T @ R
    c = (E[0, 0] + E[1, 1] + E[2, 2] - 1.0) / 2.0
    theta = float(np.arccos(min(1.0, max(-1.0, c))))
    if theta > np.pi - _PI_AXIS_TOL:
        raise AmbiguousAxisError(
            f"relative rotation angle {theta:.12g} within 1e-9 of pi; "
            "axis is ambiguous",
            angle=theta,
        )
    # v = sin(theta) * axis
    v = 0.5 * np.array(
        [E[2, 1] - E[1, 2], E[0, 2] - E[2, 0], E[1, 0] - E[0, 1]]
    )
    if theta < _SMALL_ANGLE:
        scale = 1.0 + theta * theta / 6.0
    else:
        scale = theta / np.sin(theta)
    return scale * v


def ensure_rotation(R: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate orthonormality (R R^T = I) and det = +1 within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    err = np.max(np.abs(R @ R.T - np.eye(3)))
    if err > tol:
        raise ValueError(f"matrix is not orthonormal: max |R R^T - I| = {err:.3g}")
    det = float(np.linalg.det(R))
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix is not a proper rotation: det = {det:.12g}")
    return R


def los_to_body_angles(e_world, R: np.ndarray):
    """Steering angles (theta, phi) of a world-frame unit vector in the body frame.

    u = R^T e; theta = arccos(u_z) in [0, pi], phi = atan2(u_y, u_x) in
    (-pi, pi] with atan2(0, 0) defined as 0.  R is the body-to-world
    rotation of the platform attitude.  One vector, shape (3,), gives two
    floats; a (K, 3) stack gives two arrays of shape (K,).
    """
    e = np.asarray(e_world, dtype=float)
    u = np.atleast_2d(e) @ R  # row k is R^T e_k
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    phi = np.arctan2(u[:, 1], u[:, 0])
    phi[phi == -np.pi] = np.pi
    if e.ndim == 1:
        return float(theta[0]), float(phi[0])
    return theta, phi


@dataclass(frozen=True)
class WorldGeometry:
    """Static downlink geometry: platform position and user terminals.

    los_unit[k] is the world-frame unit vector from the platform to user k;
    distance[k] the slant range in meters.
    """

    hap_position: np.ndarray  # (3,) meters, world frame
    user_positions: np.ndarray  # (K, 3) meters, world frame
    los_unit: np.ndarray  # (K, 3)
    distance: np.ndarray  # (K,)

    @classmethod
    def build(cls, hap_position, user_positions) -> "WorldGeometry":
        hap = np.asarray(hap_position, dtype=float).reshape(3)
        users = np.atleast_2d(np.asarray(user_positions, dtype=float))
        if users.shape[1] != 3:
            raise ValueError(f"user positions must be (K, 3), got {users.shape}")
        if np.any(users[:, 2] >= hap[2]):
            raise ValueError("platform must sit strictly above every user")
        diff = users - hap[None, :]
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist <= 0.0):
            raise ValueError("zero slant range: a user coincides with the platform")
        e = diff / dist[:, None]
        return cls(hap, users, e, dist)

    @property
    def num_users(self) -> int:
        return self.user_positions.shape[0]
