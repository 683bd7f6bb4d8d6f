"""Coupled stationary samples of the linear equation and its discretization.

Both fields are built from one shared set of mode normals, so their
difference isolates the discretization effect: its size shrinks like
sqrt(eps) in the sup norm, and the per-mode variances follow the closed
spectra exactly.
"""

import numpy as np

from burgerslab import derive_stream, sample_stationary_pair, sup_norm
from burgerslab.estimators import rate_fit
from burgerslab.noise import discrete_sigmas, stationary_sigmas
from burgerslab.schemes import finite_difference_scheme

scheme = finite_difference_scheme(1, 0)
nu, K = 1.0, 1024

print("== per-mode standard deviations ==")
sig = stationary_sigmas(K, nu)
sigt = discrete_sigmas(scheme, 0.1, nu, K)
for k in (0, 1, 5, 20, 31, 32):
    note = "  (killed: eps*k beyond the symbol cutoff)" if sigt[k] == 0 else ""
    print(f"  k={k:3d}: limit {sig[k]:.5f}   discretized(eps=0.1) {sigt[k]:.5f}{note}")

print("\n== one coupled draw ==")
pair = sample_stationary_pair(scheme, 0.1, nu, K, derive_stream(1, 0, "demo"))
print(f"  sup|psi| = {sup_norm(pair.psi):.4f}, sup|psi_tilde - psi| = "
      f"{sup_norm(pair.psi_tilde - pair.psi):.4f}")

print("\n== ensemble scaling of the coupled difference ==")
eps_list = [2.0**-j for j in range(3, 8)]
means = []
for i, eps in enumerate(eps_list):
    rng = derive_stream(1, i, "demo-scaling")
    vals = [
        sup_norm(p.psi_tilde - p.psi)
        for p in (sample_stationary_pair(scheme, eps, nu, K, rng) for _ in range(100))
    ]
    means.append(np.mean(vals))
    print(f"  eps=2^-{i + 3}: E sup difference = {means[-1]:.4f}")
slope, _, _ = rate_fit(eps_list, means)
print(f"  fitted log-log slope: {slope:.3f}  (square-root scaling)")
