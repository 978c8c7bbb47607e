"""One downlink snapshot end to end: channel, analog stage, digital solve.

Builds a 12-user snapshot with a deliberately tight rate floor, walks
through admission, the Newton power-dual search, strict repair, and safe
refinement, and verifies the feasibility claims by direct recomputation.
"""

import numpy as np

from hapbeam import (
    ArrayConfig,
    ChannelParams,
    EulerZYX,
    WorldGeometry,
    analog_beamformer_at,
    effective_channel,
    fspl_gain,
    place_users,
    sinr_and_rates,
    SnapshotProblem,
    solve_snapshot,
    synthesize_channel,
    transmit_power,
)

rng = np.random.default_rng(21)
K = 12

cfg = ArrayConfig(m_x=12, m_y=12, d_x=0.005, d_y=0.005, wavelength=0.01, n_rf=K)
users = place_users("uniform", K, radius=20e3, seed=5)
geom = WorldGeometry.build([0.0, 0.0, 20e3], users)
params = ChannelParams.build(
    kappa=10.0,
    beta=fspl_gain(cfg.wavelength, geom.distance),
    noise_power=1e-13,
    bandwidth=1.0,
    num_users=K,
)

# true attitude vs the attitude the analog stage was steered for
att_true = EulerZYX(0.05, -0.02, 0.01)
att_beam = EulerZYX(0.04, -0.015, 0.012)
H = synthesize_channel(cfg, geom, att_true, params, rng)
A = analog_beamformer_at(cfg, geom, att_beam)

problem = SnapshotProblem.build(
    effective_channel(H, A),
    r_min=np.full(K, 1.3),  # tight enough that not everyone fits
    p_max=10.0,
    noise_power=params.noise_power,
    bandwidth=1.0,
    certified=np.ones(K, bool),
    analog_gram=A.conj().T @ A,
)

sol = solve_snapshot(problem, k_min=8, seed=0)
print(f"admitted {int(sol.admitted.sum())}/{K} users, QAR {sol.qar:.3f}")
print(f"sum rate {sol.sum_rate:.3f} bit/s, power {sol.power:.3f} / {problem.p_max} W")
print(f"energy efficiency {sol.energy_efficiency:.4f} bit/J")
print("solver path:", {k: sol.stats[k] for k in
      ("drops", "addbacks", "refine_accepted", "bisection_evals")})

# trust nothing: recompute rates and power from the returned beamformer
sinr, rates = sinr_and_rates(problem.h_eff, sol.d_matrix, problem.noise_power, 1.0)
p = transmit_power(problem, sol.d_matrix)
print(f"recomputed power {p:.6f} W (budget respected: {p <= problem.p_max})")
worst = np.min(rates[sol.admitted] - problem.r_min[sol.admitted])
print(f"worst admitted rate margin: {worst:+.3e} bit/s")
for k in range(K):
    flag = "admitted" if sol.admitted[k] else "        "
    print(f"  user {k:2d} {flag}  rate {rates[k]:6.3f}  floor {problem.r_min[k]:.1f}")
