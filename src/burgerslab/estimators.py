"""Diagnostic functionals of fields: difference-quotient energies, the
difference-quotient tensor whose expectation produces the correction
constant at finite resolution, grid quadratic variation, negative-order
Sobolev distances, and log-log rate fitting.

Shift operators act as exact Fourier multipliers, so these quantities carry
no interpolation bias; the only stochastic error in the experiments is
Monte Carlo.  Difference quotients are evaluated in undivided form
(u(. + eps*y) - u, no division by y), which is well defined at y = 0 and
absorbs the y^2 weights exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .nonlin import alias_free_grid_size, hessian
from .spectral import SQRT_2PI, SpectralField, from_grid, sobolev_norm, to_grid
from .schemes import shift_minus


def theta_eps(u, scheme, eps):
    """Quadratic energy sum_i |w_i| * ||(u(. + eps y_i) - u)/eps||_{L^2}^2.

    Equals the |mu|-integral of y^2 ||difference quotient||^2; computed per
    mode by Parseval, no grids involved, as a weighted sum over the half
    spectrum: mode 0 counts once, modes 1..K twice (for themselves and their
    conjugates at -k, whose multiplier has the same modulus).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    scheme.require_valid()
    k = u.modes.astype(float)
    power = np.sum(np.abs(u.half) ** 2, axis=0)
    power[1:] *= 2.0
    total = 0.0
    for y, w in scheme.mu:
        if w == 0.0:
            continue
        mult2 = np.abs(np.exp(1j * k * eps * y) - 1.0) ** 2 / eps**2
        total += abs(w) * float(np.sum(mult2 * power))
    return total


@dataclass(frozen=True)
class XiMatrixField:
    """The n x n tensor field of weighted difference-quotient products."""

    n: int
    entries: tuple  # tuple of tuples of SpectralField
    scheme_name: str
    eps: float

    def entry(self, i, j):
        return self.entries[i][j]

    def spatial_mean(self):
        """Mean over x of each entry, as an (n, n) real matrix."""
        out = np.empty((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = self.entries[i][j].mode(0)[0].real / SQRT_2PI
        return out


def _xi_entries(u, atoms, eps):
    """Entries of sum over (y, w) atoms of (w/(2 eps)) d (x) d, d = u(. + eps y) - u,
    formed pointwise on the alias-free grid for a product of two fields and
    truncated back to u's band; the y = 0 atom contributes zero."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    M = alias_free_grid_size(u.K, 2)
    acc = np.zeros((u.n, u.n, M))
    for y, w in atoms:
        if w == 0.0 or y == 0.0:
            continue
        d = to_grid(shift_minus(u, eps * y), M)
        acc += (w / (2.0 * eps)) * d[:, None, :] * d[None, :, :]
    return tuple(
        tuple(from_grid(acc[i, j][None, :], u.K) for j in range(u.n))
        for i in range(u.n)
    )


def xi_eps(u, scheme, eps):
    """Weighted tensor sum_i w_i (1/(2 eps)) d_i(x) (x) d_i(x) with
    d_i = u(. + eps y_i) - u.

    The undivided differences absorb the eps y^2 / 2 weights exactly; the
    y = 0 atom contributes zero.  Entries are scalar fields (n = 1 per
    entry) indexed by the two tensor slots.
    """
    scheme.require_valid()
    return XiMatrixField(u.n, _xi_entries(u, scheme.mu, eps), scheme.name, eps)


def xi_eps_y(u, y, eps):
    """Single-atom tensor (eps y^2/2) (difference quotient)^(x)2, unweighted."""
    return XiMatrixField(u.n, _xi_entries(u, ((y, 1.0),), eps), "", eps)


def chain_rule_defect(G, u, scheme, eps):
    """Second-order term of the discrete chain rule:
    sum_i w_i (eps y_i^2 / 2) D^2 G(u)[q_i, q_i] with q_i the difference
    quotients, evaluated in undivided form on the alias-free grid for G's
    degree.

    For G of degree <= 2 the third-order remainder vanishes identically and
    this equals D_eps G(u) - grad G(u) . D_eps u exactly.
    """
    scheme.require_valid()
    H = hessian(G)
    M = alias_free_grid_size(u.K, G.degree)
    ug = to_grid(u, M)
    out = np.zeros((u.n, M))
    for y, w in scheme.mu:
        if w == 0.0 or y == 0.0:
            continue
        d = to_grid(shift_minus(u, eps * y), M)
        scale = w / (2.0 * eps)
        for i in range(u.n):
            for j in range(u.n):
                for l in range(u.n):
                    entry = H[i][j][l]
                    if entry.terms:
                        out[i] += scale * entry(ug) * d[j] * d[l]
    return from_grid(out, u.K)


# -- quadratic variation -------------------------------------------------------


def quadratic_variation(u, M):
    """Grid quadratic variation sum_j |u(x_{j+1}) - u(x_j)|^2 per component.

    Periodic wrap; x_j = 2 pi j / M.  Any M >= 2 is allowed: the field is
    evaluated exactly at the gridpoints (grids coarser than the band are the
    interesting regime, since the increments then see the full roughness).
    """
    M = int(M)
    if M < 2:
        raise ValueError("need at least two gridpoints")
    # the fold path, looked up on the module at call time so that a wrapper
    # installed on spectral.coeffs_to_values (perfbench/spans.py) sees it
    vals = spectral.coeffs_to_values(u.half, M)
    inc = np.roll(vals, -1, axis=1) - vals
    return np.sum(inc**2, axis=1)


def expected_qv(nu, K, M):
    """Exact expectation of the grid quadratic variation of a stationary
    sample of the damped linear equation, band-limited at K, per component.

    (M / 2 pi) * sum_{|k| <= K} (2 - 2 cos(2 pi k / M)) / (2 (1 + nu k^2)).
    Approaches pi/nu when both K and the ratio K/M grow (grid coarse
    relative to the band), matching quadratic-variation density 1/(2 nu)
    over a circle of length 2 pi.
    """
    k = np.arange(1, int(K) + 1, dtype=float)
    weights = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / M)) / (1.0 + nu * k * k)
    return float(M / (2.0 * np.pi) * np.sum(weights))


# -- norms and rate fits ---------------------------------------------------------


def negative_sobolev_distance(A, c, alpha):
    """Frobenius-aggregated H^{-alpha} norm of (c * Identity - A).

    A is an XiMatrixField, c a scalar; entries are measured with
    sobolev_norm at order -alpha and combined in quadrature.
    """
    if alpha <= 0.5:
        raise ValueError("need alpha > 1/2")
    total = 0.0
    for i in range(A.n):
        for j in range(A.n):
            e = A.entries[i][j]
            diff = SpectralField.constant(c if i == j else 0.0, e.K) - e
            total += sobolev_norm(diff, -alpha) ** 2
    return float(np.sqrt(total))


def rate_fit(eps_values, errors):
    """Least-squares line through (log eps, log err): (slope, intercept, residual)."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_values.size < 3 or eps_values.size != errors.size:
        raise ValueError("need at least three matching points")
    if np.any(eps_values <= 0) or np.any(errors <= 0):
        raise ValueError("rate fits need positive scales and errors")
    x = np.log(eps_values)
    y = np.log(errors)
    (slope, intercept), res = np.polyfit(x, y, 1, full=True)[:2]
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return float(slope), float(intercept), residual
