"""Main-lobe gain loss under attitude detuning, and worst-case certificates.

Compares the separable quadratic loss model against the exact array-factor
loss, then computes the curvature bound L^2 over the cap of each
pointing-error radius and turns it into a per-user certification decision.
"""

import numpy as np

from hapbeam import (
    AngleBox,
    ArrayConfig,
    certify_users,
    detune_q_matrix,
    exact_gain_loss,
    gain_loss_quadratic,
    spectral_bound_l2,
)

cfg = ArrayConfig(m_x=12, m_y=12, d_x=0.005, d_y=0.005, wavelength=0.01, n_rf=8)
rng = np.random.default_rng(11)

cap = 0.1 / max(cfg.m_x, cfg.m_y)
xi = rng.uniform(-cap, cap, size=(5000, 2))
rel = []
for x in xi:
    e = exact_gain_loss(cfg, x)
    if e > 1e-12:
        rel.append(abs(gain_loss_quadratic(cfg, x) - e) / e)
print(f"quadratic loss model vs exact, {len(rel)} detunings:")
print(f"  median relative error {np.median(rel):.4%}, worst {np.max(rel):.4%}")

# curvature of the loss in attitude space at one operating point
Q = detune_q_matrix(cfg, theta=0.4, phi=1.1)
print("attitude-space curvature Q (one steering point):")
print(np.array2string(Q, precision=2))

# certification: admit a user to the robust stage only when the calibrated
# pointing radius keeps the worst-case loss under the epsilon budget.  The
# beam can land anywhere within delta_omega of its nominal direction, so the
# curvature bound is taken over the box holding that cap, in closed form: a
# sound bound at every point of the box, not only on a lattice.  On this
# square array lambda_max(Q) is the same in every direction, so L^2 is too
epsilon = 0.3
for delta_deg in (0.5, 1.5, 2.5, 3.5):
    delta = np.deg2rad(delta_deg)
    box = AngleBox.around(0.4, 1.1, delta)
    l2 = spectral_bound_l2(cfg, box)
    ok = certify_users(np.array([l2]), delta, epsilon)[0]
    margin = l2 * delta**2
    print(f"  delta_omega = {delta_deg:3.1f} deg: L^2 over its cap {l2:.2f}, "
          f"phi +-{np.degrees(box.phi_hi - 1.1):.2f} deg -> worst loss {margin:.3f} "
          f"({'certified' if ok else 'rejected'})")
