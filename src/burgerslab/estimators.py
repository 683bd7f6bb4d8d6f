"""Diagnostic functionals of fields: the difference-quotient tensor whose
expectation produces the correction constant at finite resolution, grid
quadratic variation (by Parseval on the folded spectrum), negative-order
Sobolev distances, and log-log rate fitting.

Shift operators act as exact Fourier multipliers, so these quantities carry
no interpolation bias; the only stochastic error in the experiments is
Monte Carlo.  Difference quotients are evaluated in undivided form
(u(. + eps*y) - u, no division by y), which is well defined at y = 0 and
absorbs the y^2 weights exactly.

The tensor and its distance are stack-first: ``difference_grids``,
``xi_halves`` and ``negative_sobolev_distances`` take a (rows, n, K+1)
stack of half spectra, with one shift and one transform per live atom and
one transform back per tensor for the whole stack, so a study can share
each atom's difference grid between its tensors and process a chunk of
samples at once.  ``xi_eps``, ``xi_eps_y`` and ``negative_sobolev_distance``
are their one-row calls: a one-row tensor is the (n, n, K+1) array that is
row 0 of its stack form, and every row of a stack is bitwise its one-row
call.
"""

import functools

import numpy as np

from . import spectral
from .nonlin import alias_free_grid_size, hessian
from .spectral import SQRT_2PI, SpectralField, from_grid, sobolev_norms, to_grid
from .schemes import shift_minus

# Not used here since the distances are taken as one stack, but kept as a
# module attribute: perfbench/spans.py wraps it under every module name its
# callers have looked it up by, and checks that the names still exist
# (ROADMAP item 1).
from .spectral import sobolev_norm  # noqa: F401


def xi_grid_size(K):
    """Size of the grid on which the tensor's products are formed: the
    alias-free grid for a product of two fields of band K."""
    return alias_free_grid_size(K, 2)


def difference_grids(half, atoms, eps):
    """Grid values of the undivided differences d = u(. + eps y) - u of each
    row u of a (rows, n, K+1) stack of half spectra, one (rows, n, M) array
    per live atom (w != 0, y != 0) of ``atoms``, as a list of (y, w, d) in
    the atoms' order, on M = xi_grid_size(K) points.  One shift and one
    transform serve the whole stack, and each row's values are those of its
    one-row call."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows, n, width = half.shape
    M = xi_grid_size(width - 1)
    u = SpectralField(width - 1, rows * n, half.reshape(rows * n, width))
    return [
        (y, w, to_grid(shift_minus(u, eps * y), M).reshape(rows, n, M))
        for y, w in atoms
        if w != 0.0 and y != 0.0
    ]


def xi_halves(shape, grids, eps):
    """Half spectra, shape (rows, n, n, K+1), of the tensor
    sum over ``grids`` (y, w, d) of (w/(2 eps)) d (x) d for a (rows, n, K+1)
    stack of the given ``shape`` (see ``difference_grids``).

    The products are formed pointwise and added in the grids' order, then
    truncated back to the band with one transform for the whole stack, and
    Im c_0 is zeroed as a ``SpectralField`` does; each row is bitwise its
    one-row call.  No grids give the zero tensor.
    """
    rows, n, width = shape
    M = xi_grid_size(width - 1)
    acc = np.zeros((rows, n, n, M))
    for _, w, d in grids:
        acc += (w / (2.0 * eps)) * d[:, :, None, :] * d[:, None, :, :]
    # looked up on the module at call time, so that perfbench/spans.py's
    # wrapper sees it
    xi = spectral.values_to_coeffs(acc.reshape(rows * n * n, M), width - 1).reshape(rows, n, n, width)
    xi[..., 0] = xi[..., 0].real
    return xi


def spatial_means(xi):
    """Mean over x of each entry of an (n, n, K+1) tensor or a
    (rows, n, n, K+1) tensor stack, as an (n, n) or (rows, n, n) real
    array."""
    return xi[..., 0].real / SQRT_2PI


def xi_eps(u, scheme, eps):
    """Weighted tensor sum_i w_i (1/(2 eps)) d_i(x) (x) d_i(x) with
    d_i = u(. + eps y_i) - u.

    The undivided differences absorb the eps y^2 / 2 weights exactly; the
    y = 0 atom contributes zero.  Entries are scalar fields (n = 1 per
    entry) indexed by the two tensor slots: an (n, n, K+1) array of half
    spectra whose [i, j] is entry (i, j).  The one-row call of
    ``difference_grids`` and ``xi_halves``.
    """
    h = u.half[None]
    return xi_halves(h.shape, difference_grids(h, scheme.mu, eps), eps)[0]


def xi_eps_y(u, y, eps):
    """Single-atom tensor (eps y^2/2) (difference quotient)^(x)2, unweighted
    (the one-row call of ``xi_halves`` with the atom (y, 1))."""
    h = u.half[None]
    return xi_halves(h.shape, difference_grids(h, ((y, 1.0),), eps), eps)[0]


def chain_rule_defect(G, u, scheme, eps):
    """Second-order term of the discrete chain rule:
    sum_i w_i (eps y_i^2 / 2) D^2 G(u)[q_i, q_i] with q_i the difference
    quotients, evaluated in undivided form on the alias-free grid for G's
    degree.

    For G of degree <= 2 the third-order remainder vanishes identically and
    this equals D_eps G(u) - grad G(u) . D_eps u exactly.
    """
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


@functools.lru_cache(maxsize=None)
def _qv_weights(M):
    """Weights of the bins b = 1..M//2 in the grid quadratic variation on M
    points, as a read-only array (memoized per M):
    (M/2 pi) |e^(2 pi i b/M) - 1|^2 = (2M/pi) sin^2(pi b/M), doubled for
    b < M/2, whose mirror bin M-b holds the conjugate sum."""
    b = np.arange(1, M // 2 + 1)
    w = (2.0 * M / np.pi) * np.sin(np.pi * b / M) ** 2
    w[: (M - 1) // 2] *= 2.0
    w.flags.writeable = False
    return w


def quadratic_variation(u, M):
    """Grid quadratic variation sum_j |u(x_{j+1}) - u(x_j)|^2 per component.

    Periodic wrap; x_j = 2 pi j / M.  Any M >= 2 is allowed (grids coarser
    than the band are the interesting regime, since the increments then see
    the full roughness), and no grid is formed: by Parseval on the M grid
    frequencies the sum is (M/2 pi) sum_b (2 - 2 cos(2 pi b/M)) |B_b|^2,
    where B_b sums the modes k = -K..K with k = b mod M.  Modes 0..K are
    folded by k mod M, and B_b for b = 1..M//2 is bin b plus the conjugate
    of bin M-b; bin 0, which holds c_0, has weight 0 and is left out.  Each
    row's terms are added by one ``np.sum``, so its bits do not depend on
    the other rows.
    """
    M = int(M)
    if M < 2:
        raise ValueError("need at least two gridpoints")
    n, width = u.half.shape
    full = width - width % M  # modes 0..full-1 fill whole rows of M bins
    bins = u.half[:, :full].reshape(n, full // M, M).sum(axis=1)
    bins[:, : width - full] += u.half[:, full:]
    half = M // 2
    B = bins[:, 1 : half + 1] + np.conj(bins[:, M - 1 : M - half - 1 : -1])
    return np.sum((B.real**2 + B.imag**2) * _qv_weights(M), axis=1)


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


def negative_sobolev_distance(xi, c, alpha):
    """Frobenius-aggregated H^{-alpha} norm of (c * Identity - A).

    xi holds the (n, n, K+1) half spectra of the tensor A, c is a scalar;
    the one-row call of ``negative_sobolev_distances``.
    """
    return float(negative_sobolev_distances(xi[None], c, alpha)[0])


def negative_sobolev_distances(xi, c, alpha):
    """Frobenius-aggregated H^{-alpha} norm of (c * Identity - A) for each
    tensor A of a (rows, n, n, K+1) stack of half spectra, as a (rows,)
    array: each entry is measured with ``sobolev_norms`` at order -alpha,
    one stack for all entries, and the squares are added entry by entry in
    row-major order."""
    if alpha <= 0.5:
        raise ValueError("need alpha > 1/2")
    rows, n, _, width = xi.shape
    target = np.zeros((n, n, width), dtype=np.complex128)
    target[range(n), range(n), 0] = c * SQRT_2PI
    norms = sobolev_norms((target - xi).reshape(rows * n * n, 1, width), -alpha).reshape(rows, n * n)
    total = np.zeros(rows)
    for entry in range(n * n):
        total += norms[:, entry] ** 2
    return np.sqrt(total)


def mean_stderr(values):
    """Sample mean of a 1-d sequence and its standard error
    std(ddof=1) / sqrt(n), as floats.  The mean needs one value and the
    standard error two; without them each is None."""
    x = np.asarray(values, dtype=float)
    mean = float(np.mean(x)) if x.size else None
    stderr = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else None
    return mean, stderr


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
