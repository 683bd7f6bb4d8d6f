"""Spatial roughness of the stationary field: Brownian-like quadratic variation.

Summing squared increments over a grid that is coarse relative to the band
recovers the circle total pi/nu, i.e. quadratic-variation density 1/(2 nu)
per unit length.  Sampling finer than the band sees a smooth function and
the measurement collapses; both regimes are shown.
"""

import numpy as np

from burgerslab import derive_stream, expected_qv, quadratic_variation, sample_stationary_pair
from burgerslab.schemes import identity_scheme

nu = 1.0
scheme = identity_scheme(1, 0)

print("== exact expectation of the grid quadratic variation ==")
for K, M in [(8192, 2048), (4096, 512), (512, 2048), (64, 4096)]:
    val = expected_qv(nu, K, M)
    regime = "coarse grid, rough field" if K > M else "fine grid, smooth field"
    print(f"  K={K:5d} modes on M={M:5d} points: {val:.4f}   ({regime}; pi = {np.pi:.4f})")

print("\n== Monte Carlo check at K=2048, M=512 ==")
K, M, nsamp = 2048, 512, 100
rng = derive_stream(4, 0, "qv-demo")
vals = np.array(
    [
        quadratic_variation(sample_stationary_pair(scheme, 0.1, nu, K, rng).psi, M)[0]
        for _ in range(nsamp)
    ]
)
exact = expected_qv(nu, K, M)
print(f"  MC mean {vals.mean():.4f} +- {vals.std(ddof=1) / np.sqrt(nsamp):.4f}, "
      f"exact sum {exact:.4f}, circle total pi/nu = {np.pi / nu:.4f}")
