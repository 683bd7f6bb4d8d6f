"""Where the correction comes from: the difference-quotient tensor.

The squared discrete difference quotients of the band-projected stationary
field concentrate, in expectation, on the finite-resolution mode sums that
converge to the correction constant; the distance between the tensor field
and that constant shrinks like sqrt(eps) in a negative Sobolev norm.  The
same defect appears pathwise in the discrete chain rule: for a quadratic
flux the identity is exact.
"""

import numpy as np

from burgerslab import (
    chain_rule_defect,
    derive_stream,
    lambda_eps,
    lambda_eps_y,
    negative_sobolev_distance,
    sample_stationary_pair,
    xi_eps,
)
from burgerslab.estimators import rate_fit, spatial_means, xi_eps_y
from burgerslab.nonlin import apply_bilinear, apply_pointwise, jacobian, parse_polynomial_map
from burgerslab.schemes import apply_D_eps, finite_difference_scheme
from burgerslab.spectral import band_project

gamma, chi, nu, alpha = 1.0 / 3.0, 1.5, 1.0, 0.75
scheme = finite_difference_scheme(1, 0)

print("== per-atom tensor expectation vs the mode sum ==")
eps = 0.02
K = int(np.ceil(eps**-chi))
rng = derive_stream(9, 0, "chaos-demo")
vals = []
for _ in range(300):
    psit = sample_stationary_pair(scheme, eps, nu, K, rng).psi_tilde
    band = band_project(psit, eps**-gamma, eps**-chi)
    vals.append(spatial_means(xi_eps_y(band, 1.0, eps))[0, 0])
target = lambda_eps_y(scheme, eps, gamma, chi, nu, 1.0)
print(f"  eps={eps}: MC mean {np.mean(vals):.5f} +- {np.std(vals, ddof=1) / np.sqrt(len(vals)):.5f}, "
      f"mode sum {target:.5f}")

print("\n== negative-Sobolev distance shrinks like sqrt(eps) ==")
eps_list = (0.04, 0.02, 0.01)
means = []
for i, eps in enumerate(eps_list):
    K = int(np.ceil(eps**-chi))
    lam = lambda_eps(scheme, eps, gamma, chi, nu)
    rng = derive_stream(9, i, "chaos-demo-dist")
    dists = []
    for _ in range(120):
        psit = sample_stationary_pair(scheme, eps, nu, K, rng).psi_tilde
        band = band_project(psit, eps**-gamma, eps**-chi)
        dists.append(negative_sobolev_distance(xi_eps(band, scheme, eps), lam, alpha))
    means.append(np.mean(dists))
    print(f"  eps={eps:6g}: E distance = {means[-1]:.4f}")
print(f"  fitted slope {rate_fit(eps_list, means)[0]:.3f}")

print("\n== the discrete chain rule, exact for a quadratic flux ==")
G = parse_polynomial_map("0.5*u1^2", 1)
rng = np.random.default_rng(3)
k = np.arange(1, 25)
c = np.zeros((1, 25), dtype=complex)  # modes 0..24; mode -k is the conjugate of mode k
c[0, 1:] = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) / (1 + k)
from burgerslab.spectral import SpectralField

u = SpectralField(24, 1, c)
eps = 0.1
lhs = apply_D_eps(scheme, apply_pointwise(G, u), eps) - apply_bilinear(
    jacobian(G), u, apply_D_eps(scheme, u, eps)
)
rhs = chain_rule_defect(G, u, scheme, eps)
print(f"  |D_eps G(u) - grad G(u).D_eps u - defect| = "
      f"{np.max(np.abs(lhs.coeffs - rhs.coeffs)):.2e}")
