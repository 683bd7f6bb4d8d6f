"""Band-limited fields on the torus and the discrete operators acting on them.

Walks through the basic objects: building a field from Fourier modes or grid
samples, the norms, and how a discretization triple (diffusion symbol, noise
filter, derivative measure) acts mode by mode.  Run as a script; prints a
short narrative.
"""

import numpy as np

from burgerslab import (
    SpectralField,
    apply_D_eps,
    apply_Delta_eps,
    derivative_symbol,
    finite_difference_scheme,
    from_grid,
    identity_scheme,
    sobolev_norm,
    sup_norm,
    to_grid,
)

print("== a field from grid samples ==")
M = 33
x = 2.0 * np.pi * np.arange(M) / M
u = from_grid((np.sin(x) + 0.3 * np.cos(3 * x))[None, :], K=8)
print(f"mode +1 coefficient: {u.mode(1)[0]:.6f}  (sin contributes -i sqrt(pi/2))")
print(f"L2 norm {sobolev_norm(u, 0.0):.6f}, H^0.75 norm {sobolev_norm(u, 0.75):.6f}, "
      f"sup {sup_norm(u):.6f}")

print("\n== round trip through the grid is exact at M = 2K+1 ==")
v = from_grid(to_grid(u, 17), 8)
print(f"max coefficient error: {np.max(np.abs(v.coeffs - u.coeffs)):.3e}")

print("\n== the forward-difference derivative measure ==")
s = identity_scheme(1, 0)  # mu = delta_1 - delta_0, f = h = 1
print(s.validate().summary())

eps = 0.05
du = apply_D_eps(s, u, eps)
exact = u.apply_multiplier(1j * u.modes.astype(complex))
print(f"\n|D_eps u - du/dx| in L2 at eps={eps}: {sobolev_norm(du - exact, 0.0):.4f}")
print(f"same at eps={eps/2}: "
      f"{sobolev_norm(apply_D_eps(s, u, eps / 2) - exact, 0.0):.4f}  (first order)")

print("\n== symbols ==")
for kappa in (0.1, 1.0, np.pi):
    print(f"  derivative symbol at kappa={kappa:.3f}: {derivative_symbol(s, kappa):.4f} "
          f"(ideal i*kappa = {1j * kappa:.4f})")

fd = finite_difference_scheme(1, 0)
w = SpectralField.from_modes(K=8, entries={4: 1.0})
lap = apply_Delta_eps(fd, w, 0.3)
print(f"\n3-point stencil symbol at k=4, eps=0.3: {lap.mode(4)[0].real:.4f} "
      f"(exact -k^2 = -16, stencil -(2/eps)^2 sin^2(eps k/2) = "
      f"{-(2 / 0.3) ** 2 * np.sin(0.6) ** 2:.4f})")
