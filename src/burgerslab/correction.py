"""The drift-correction constant and its finite-resolution counterparts.

The asymmetric discrete derivative makes approximations of the gradient
nonlinearity converge to a drift-corrected limit; the size of that
correction is the constant

    Lambda = (1/(2 pi nu)) * sum_i w_i * I(y_i),
    I(y)   = int_0^inf (1 - cos(y t)) h(t)^2 / (t^2 f(t)) dt,

for a scheme with symbols (f, h) and derivative measure mu = sum w_i d_{y_i}.
This module evaluates Lambda by adaptive quadrature (with analytic handling
of the oscillatory tail when h has unbounded support), provides the closed
forms available for the builtin scheme families as independent oracles, and
computes the mode sums that play the same role at finite resolution.  Those
sums run over the integer modes of the band eps^-gamma < k <= eps^-chi, and
``chaos_band`` is the one place that rule is written: the chaos study
projects its samples onto the same modes.

The quadrature is numpy alone.  Each atom's integral starts from panels cut
at the edge of h's support, the table knots and the oscillation periods, and
every panel takes a 10-point and a 21-point Gauss-Legendre rule
(``numpy.polynomial.legendre.leggauss``, made once); all live panels of a
level are evaluated in one call of the vectorized integrand
2 sin^2(|y| t/2) h^2 / (t^2 f).  A panel's error estimate is the larger of
the two rules' difference and a rounding floor of 50 machine epsilons times
the integral of |integrand| over it; panels over their width's share of the
tolerance are bisected, until the summed estimate meets it or the panel
limit is reached.  The summed estimate (with a fixed allowance for the
identity family's analytic tail) is the reported error.  The sine integral,
which the galerkin closed form and that tail take, is the same rule on
sin(x)/x over panels cut at the multiples of pi.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .nonlin import PolynomialMap, laplacian
from .schemes import symbols_at

DEFAULT_GAMMA = 1.0 / 3.0  # low band exponent: modes below eps^-gamma are dropped
DEFAULT_CHI = 1.5  # high band exponent: modes above eps^-chi are dropped
# the tolerance of every Lambda by quadrature that a run resolves, and the
# default of ``lambda --tol``; a Lambda at another one is given explicitly
LAMBDA_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class LambdaResult:
    value: float
    abs_error_estimate: float
    scheme: str
    nu: float
    method: str  # "quadrature" or "closed_form"

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("correction constant must be finite")
        if self.abs_error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")

    def to_dict(self):
        return {
            "value": self.value,
            "abs_error_estimate": self.abs_error_estimate,
            "method": self.method,
            "scheme": self.scheme,
            "nu": self.nu,
        }


# -- quadrature for Lambda -------------------------------------------------------

_GAUSS_N = 10  # the adaptive rule pairs the N- and (2N+1)-point Gauss-Legendre rules
_EPSREL = 1e-12
_LIMIT_SUPPORT = 200  # most panels per knot interval: h of bounded support, and Si
_LIMIT_TAIL = 400  # most panels before the identity family's analytic tail


@functools.cache
def _gauss_rules():
    """The nodes on [-1, 1] of the N-point rule followed by those of the
    (2N+1)-point rule, and the two weight vectors; made once, read-only."""
    from numpy.polynomial.legendre import leggauss

    (x_n, w_n), (x_m, w_m) = leggauss(_GAUSS_N), leggauss(2 * _GAUSS_N + 1)
    nodes = np.concatenate([x_n, x_m])
    for arr in (nodes, w_n, w_m):
        arr.setflags(write=False)
    return nodes, w_n, w_m


def _integrand(scheme, ay, t):
    """2 sin^2(|y| t/2) h^2 / (t^2 f) at the points t > 0, which is
    (1 - cos(yt)) h^2 / (t^2 f) without the cancellation near t = 0;
    0 where f = +inf."""
    fv, killed, hv = symbols_at(scheme, t)
    s = np.sin(0.5 * ay * t)
    return np.where(killed, 0.0, 2.0 * s * s * hv * hv / (t * t * np.where(killed, 1.0, fv)))


def _adaptive_quadrature(fn, knots, epsabs, limit):
    """(integral, error estimate) of the vectorized fn over [knots[0], knots[-1]].

    Starts from the panels between the knots.  At each level every live
    panel's nodes go to fn in one call; a panel's error is the larger of
    |G_2N+1 - G_N| and the rounding floor 50 eps int|fn| (as QUADPACK takes
    it), and a panel whose error is within its width's share of
    max(epsabs, epsrel |integral|) is kept.  The others are bisected until
    the summed error meets that bound, or until bisecting would make more
    than ``limit`` panels per knot interval; the caller then sees an error
    estimate above its tolerance.
    """
    nodes, w_n, w_m = _gauss_rules()
    n = w_n.size
    lo, hi = np.asarray(knots[:-1], dtype=float), np.asarray(knots[1:], dtype=float)
    width = float(knots[-1] - knots[0])
    max_panels = limit * lo.size
    kept_value, kept_error, panels = 0.0, 0.0, lo.size
    while True:
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        vals = fn((mid[:, None] + half[:, None] * nodes).ravel()).reshape(lo.size, nodes.size)
        coarse = half * (vals[:, :n] @ w_n)
        fine = half * (vals[:, n:] @ w_m)
        floor = 50.0 * np.finfo(float).eps * half * (np.abs(vals[:, n:]) @ w_m)
        err = np.maximum(np.abs(fine - coarse), floor)
        value, error = kept_value + float(np.sum(fine)), kept_error + float(np.sum(err))
        bound = max(epsabs, _EPSREL * abs(value))
        bad = err > bound * (hi - lo) / width
        if error <= bound or not bad.any() or panels + np.count_nonzero(bad) > max_panels:
            return value, error
        kept_value += float(np.sum(fine[~bad]))
        kept_error += float(np.sum(err[~bad]))
        panels += np.count_nonzero(bad)
        lo, mid, hi = lo[bad], mid[bad], hi[bad]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def sine_integral(t):
    """Si(t) = int_0^t sin(x)/x dx by the adaptive rule, on panels cut at
    the multiples of pi below |t|.  Odd in t."""
    at = abs(float(t))
    if at == 0.0:
        return 0.0
    cuts = np.pi * np.arange(1, int(at / np.pi) + 1)
    knots = np.concatenate([[0.0], cuts[cuts < at], [at]])
    # the rule's nodes are interior to the panels, so x > 0
    value, _ = _adaptive_quadrature(lambda x: np.sin(x) / x, knots, 0.0, _LIMIT_SUPPORT)
    return value if t > 0 else -value


def _tail_identity(y, T):
    """int_T^inf (1-cos(yt))/t^2 dt for f = h = 1, by parts with a Si remainder."""
    ay = abs(y)
    if ay == 0.0:
        return 0.0
    return (1.0 - np.cos(ay * T)) / T + ay * (np.pi / 2 - sine_integral(ay * T))


def _atom_integral(scheme, y, epsabs):
    """Return (I(y), error_estimate) for one atom location y."""
    if y == 0.0:
        return 0.0, 0.0
    ay = abs(y)
    integrand = functools.partial(_integrand, scheme, ay)

    if scheme.h_support is not None:
        # h vanishes beyond h_support: the tail drops exactly.  Integrate up
        # to the support edge, splitting panels at table breakpoints and at
        # oscillation periods so the indicator jump is never straddled.
        S = float(scheme.h_support)
        pts = {0.0, S}
        if scheme.h_kind == "table":
            pts.update(float(t) for t in scheme.h.knots if 0.0 < t < S)
        if scheme.f_kind == "table":
            pts.update(float(t) for t in scheme.f.knots if 0.0 < t < S)
        period = 2.0 * np.pi / ay
        k = period
        while k < S:
            pts.add(k)
            k += period
        return _adaptive_quadrature(integrand, sorted(pts), epsabs, _LIMIT_SUPPORT)

    if scheme.f_kind == "identity" and scheme.h_kind == "one":
        # unbounded support: integrate a few periods, then the analytic tail
        periods = max(4, int(np.ceil(10.0 * ay / (2.0 * np.pi))))
        T = periods * 2.0 * np.pi / ay
        v, e = _adaptive_quadrature(integrand, [0.0, T], epsabs, _LIMIT_TAIL)
        return v + _tail_identity(y, T), e + 1e-13 * ay

    raise QuadratureError(
        f"no tail handling for scheme '{scheme.name}': h has unbounded support "
        "and (f, h) is not the undiscretized pair"
    )


def lambda_quadrature(scheme, nu, tol=1e-10):
    """Correction constant by adaptive quadrature of the defining integral.

    Raises QuadratureError (carrying the partial result) if the accumulated
    error estimate exceeds tol.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    pref = 1.0 / (2.0 * np.pi * nu)
    total, err = 0.0, 0.0
    for y, w in scheme.mu:
        if w == 0.0:
            continue
        v, e = _atom_integral(scheme, y, epsabs=tol / (4.0 * max(1.0, abs(w))))
        total += w * v
        err += abs(w) * e
    result = LambdaResult(pref * total, pref * err, scheme.name, float(nu), "quadrature")
    if result.abs_error_estimate > tol:
        raise QuadratureError(
            f"quadrature error estimate {result.abs_error_estimate:.3e} exceeds tol {tol:.3e}",
            partial=result,
        )
    return result


# -- closed forms ----------------------------------------------------------------


def lambda_closed_form(builtin, a, b, nu):
    """Closed-form correction constant for the builtin scheme families.

    identity and finite_difference (integer offsets): (a-b)/(4 nu (a+b)).
    galerkin: [cos(pi a) + pi a Si(pi a) - cos(pi b) - pi b Si(pi b)]
              / (2 pi^2 nu (a+b)).
    """
    a, b, nu = float(a), float(b), float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if a < 0 or b < 0 or a + b <= 0:
        raise ValueError("need a, b >= 0 with a + b > 0")
    name = f"{builtin}(a={a},b={b})"
    if builtin in ("identity", "finite_difference"):
        if builtin == "finite_difference" and not (a.is_integer() and b.is_integer()):
            raise ValueError(
                "the finite-difference closed form holds only for integer offsets "
                "(the derivative stencil must live on the gridpoints)"
            )
        value = (a - b) / (4.0 * nu * (a + b))
        return LambdaResult(value, 1e-16, name, nu, "closed_form")
    if builtin == "galerkin":
        num = (
            np.cos(np.pi * a)
            + np.pi * a * sine_integral(np.pi * a)
            - np.cos(np.pi * b)
            - np.pi * b * sine_integral(np.pi * b)
        )
        value = num / (2.0 * np.pi**2 * nu * (a + b))
        return LambdaResult(value, 1e-12, name, nu, "closed_form")
    raise ValueError(f"no closed form for scheme family {builtin!r}")


def lambda_closed_form_for_scheme(scheme, nu):
    if scheme.builtin is None:
        raise ValueError(f"scheme '{scheme.name}' is not a builtin family; no closed form")
    tag, a, b = scheme.builtin
    return lambda_closed_form(tag, a, b, nu)


# -- finite-resolution mode sums --------------------------------------------------


def chaos_band(eps, gamma=DEFAULT_GAMMA, chi=DEFAULT_CHI):
    """``(k_lo, k_hi)``, the first and last integer mode of the band
    eps^-gamma < k <= eps^-chi: k_lo = floor(eps^-gamma) + 1 and
    k_hi = floor(eps^-chi).  The band holds no mode when k_lo > k_hi, as for
    every eps close enough to 1.  ``spectral.band_project`` with thresholds
    k_lo - 1 and k_hi keeps exactly these modes.
    """
    if not 0 < gamma < chi:
        raise ValueError("need 0 < gamma < chi")
    if not 0 < eps < 1:
        raise ValueError("need eps in (0, 1)")
    return int(np.floor(eps**-gamma)) + 1, int(np.floor(eps**-chi))


def lambda_eps_y(scheme, eps, gamma=DEFAULT_GAMMA, chi=DEFAULT_CHI, nu=1.0, y=1.0):
    """Mode sum over the band eps^-gamma < k <= eps^-chi (``chaos_band``)
    approximating the per-atom integral.

    Exact finite sum (1 - cos(eps k y)) h(eps k)^2 / (2 pi eps (1 + nu k^2 f(eps k)))
    over integer k; modes with f = +inf contribute zero since h vanishes there.
    """
    k_lo, k_hi = chaos_band(eps, gamma, chi)
    if k_lo > k_hi:
        warnings.warn("empty mode range in lambda_eps_y; returning 0", stacklevel=2)
        return 0.0
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    t = eps * k
    fv, killed, hv = symbols_at(scheme, t)
    finite = ~killed
    summand = np.zeros_like(t)
    summand[finite] = (
        (1.0 - np.cos(t[finite] * y))
        * hv[finite] ** 2
        / (2.0 * np.pi * eps * (1.0 + nu * k[finite] ** 2 * fv[finite]))
    )
    return float(np.sum(summand))


def lambda_eps(scheme, eps, gamma=DEFAULT_GAMMA, chi=DEFAULT_CHI, nu=1.0):
    """Finite-resolution correction constant: mu-weighted sum of lambda_eps_y."""
    return float(
        sum(
            w * lambda_eps_y(scheme, eps, gamma, chi, nu, y)
            for y, w in scheme.mu
            if w != 0.0
        )
    )


# -- corrected drift ---------------------------------------------------------------


def corrected_drift(F, G, lam):
    """The drift F - lam * (componentwise Laplacian of G), symbolically."""
    if F.n != G.n:
        raise ValueError("F and G must share the component count")
    if lam == 0.0:
        return F
    lap = laplacian(G)
    comps = tuple(f - l.scale(lam) for f, l in zip(F.components, lap.components))
    return PolynomialMap(F.n, comps)
