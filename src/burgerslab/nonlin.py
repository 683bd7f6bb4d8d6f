"""Polynomial maps R^n -> R^n with exact symbolic derivatives.

Drift and flux nonlinearities are restricted to polynomials: the Jacobian,
Laplacian and Hessian are then exact symbolic objects, so differentiation
error never contaminates the experiments downstream.  Evaluation on fields
is pseudospectral: transform to a grid sized for the polynomial degree
(alias_free_grid_size), apply the map pointwise, transform back and
truncate, so the result is the exact product on the band.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .spectral import GridField, evaluate_on_grid, from_grid, odd_fft_size


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial in nvars variables: terms maps exponent tuples to coefficients."""

    nvars: int
    terms: tuple  # ((exponents, coeff), ...), canonically sorted, no zero coeffs
    # per term, in term order: (coeff, ((variable, power), ...)) over the
    # nonzero powers; built once here, walked by every __call__
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = tuple((coeff, tuple((j, e) for j, e in enumerate(expo) if e)) for expo, coeff in self.terms)
        object.__setattr__(self, "plan", plan)

    @staticmethod
    def from_terms(nvars, terms):
        acc = {}
        for expo, coeff in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            acc[expo] = acc.get(expo, 0.0) + float(coeff)
        cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != 0.0))
        return Polynomial(nvars, cleaned)

    @staticmethod
    def zero(nvars):
        return Polynomial(nvars, ())

    @staticmethod
    def constant(nvars, c):
        return Polynomial.from_terms(nvars, [((0,) * nvars, c)])

    @property
    def degree(self):
        return max((sum(e) for e, _ in self.terms), default=0)

    def __call__(self, v):
        """Evaluate at v of shape (nvars,) or (nvars, M); returns scalar or (M,)."""
        if type(v) is not np.ndarray or v.dtype != np.float64:
            v = np.asarray(v, dtype=float)
        shape = v.shape[1:]
        out = None
        for coeff, factors in self.plan:
            term = coeff
            for j, e in factors:
                term = term * (v[j] if e == 1 else v[j] ** e)
            if out is not None:
                out += term
            elif not factors:
                out = np.full(shape, coeff) if shape else np.float64(coeff)
            else:
                term += 0.0  # the sum starts from +0.0: a lone -0.0 term gives 0.0
                out = term
        return np.zeros(shape) if out is None else out

    def diff(self, j):
        terms = []
        for expo, coeff in self.terms:
            if expo[j] == 0:
                continue
            new = list(expo)
            new[j] -= 1
            terms.append((tuple(new), coeff * expo[j]))
        return Polynomial.from_terms(self.nvars, terms)

    def scale(self, s):
        return Polynomial.from_terms(self.nvars, [(e, s * c) for e, c in self.terms])

    def __add__(self, other):
        return Polynomial.from_terms(self.nvars, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __str__(self):
        if not self.terms:
            return "0"
        # a negative term is written as ' - ' and its magnitude, and every
        # coefficient at repr precision where the short form would round it,
        # so that parse_polynomial reads back the same floats
        text = ""
        for expo, coeff in self.terms:
            short = f"{abs(coeff):g}"
            factors = [short if float(short) == abs(coeff) else repr(abs(coeff))]
            for j, e in enumerate(expo):
                if e == 1:
                    factors.append(f"u{j + 1}")
                elif e > 1:
                    factors.append(f"u{j + 1}^{e}")
            sep = (" - " if text else "-") if coeff < 0 else (" + " if text else "")
            text += sep + "*".join(factors)
        return text


@dataclass(frozen=True)
class PolynomialMap:
    """A map R^n -> R^n given by one polynomial per component."""

    n: int
    components: tuple

    @staticmethod
    def from_components(components):
        components = tuple(components)
        n = len(components)
        if any(p.nvars != n for p in components):
            raise ValueError("every component must be a polynomial in n variables")
        return PolynomialMap(n, components)

    @staticmethod
    def zero(n):
        return PolynomialMap(n, tuple(Polynomial.zero(n) for _ in range(n)))

    @staticmethod
    def identity(n):
        comps = []
        for i in range(n):
            expo = tuple(1 if j == i else 0 for j in range(n))
            comps.append(Polynomial.from_terms(n, [(expo, 1.0)]))
        return PolynomialMap(n, tuple(comps))

    @property
    def degree(self):
        return max(p.degree for p in self.components)

    def is_zero(self):
        return all(not p.terms for p in self.components)

    def __str__(self):
        return "; ".join(str(p) for p in self.components)


def evaluate(P, v, out=None):
    """Componentwise evaluation; v of shape (n,) or (n, M).  Component i is
    written to row i of ``out`` (a new (n,) + v.shape[1:] array when None),
    which is returned."""
    if type(v) is not np.ndarray or v.dtype != np.float64:
        v = np.asarray(v, dtype=float)
    if v.shape[0] != P.n:
        raise ValueError(f"expected {P.n} components, got {v.shape[0]}")
    if out is None:
        out = np.empty((P.n,) + v.shape[1:])
    for i, p in enumerate(P.components):
        out[i] = p(v)
    return out


def jacobian(P):
    """Matrix of symbolic partial derivatives, entry (i, j) = dP_i/du_j."""
    return tuple(tuple(p.diff(j) for j in range(P.n)) for p in P.components)


def laplacian(P):
    """Componentwise sum of second derivatives, as a new PolynomialMap."""
    comps = []
    for p in P.components:
        acc = Polynomial.zero(P.n)
        for j in range(P.n):
            acc = acc + p.diff(j).diff(j)
        comps.append(acc)
    return PolynomialMap(P.n, tuple(comps))


def hessian(P):
    """Second-derivative tensor: hessian(P)[i][j][l] = d^2 P_i / du_j du_l."""
    return tuple(
        tuple(tuple(p.diff(j).diff(l) for l in range(P.n)) for j in range(P.n))
        for p in P.components
    )


# -- pseudospectral application ----------------------------------------------


def alias_free_grid_size(K, degree):
    """Odd, 11-smooth grid size on which a product of `degree` fields of
    band K is exact on the band after truncation.

    Orszag's rule M >= (d+1)K + 1 (J. Atmos. Sci. 28:1074, 1971): the
    product has modes |m| <= dK, which the grid aliases to m -+ M, and those
    miss the band |m| <= K exactly when M - dK > K.  Degrees below 1 still
    get M >= 2K+1, which the transform back to the band needs.  Among the
    sizes up to 10% above the bound, ``spectral.odd_fft_size`` picks the one
    with the cheapest modelled FFT (3125 rather than 3087 at K = 1024 and
    degree 2, 405 rather than 385 at K = 128).
    """
    return odd_fft_size((max(degree, 1) + 1) * K + 1)


def apply_pointwise(P, u):
    """Evaluate P(u(x)) pseudospectrally and truncate back to u's band."""
    M = alias_free_grid_size(u.K, P.degree)
    vals = evaluate(P, evaluate_on_grid(u, M))
    return from_grid(GridField(M, vals), u.K)


def apply_bilinear(jac, u, w):
    """Evaluate the matrix field jac(u(x)) acting on w(x), pointwise.

    jac is a jacobian() result; u supplies the point where the entries are
    evaluated and w the vector they multiply.
    """
    n = len(jac)
    if u.n != n or w.n != n or u.K != w.K:
        raise ValueError("field shape mismatch")
    M = alias_free_grid_size(u.K, max(e.degree for row in jac for e in row) + 1)
    ug = evaluate_on_grid(u, M)
    wg = evaluate_on_grid(w, M)
    out = np.zeros_like(wg)
    for i in range(n):
        for j in range(n):
            entry = jac[i][j]
            if entry.terms:
                out[i] += entry(ug) * wg[j]
    return from_grid(GridField(M, out), u.K)


def apply_hessian_form(hess, u, v, w):
    """Pointwise quadratic form sum_{j,l} (d^2 P_i/du_j du_l)(u(x)) v_j(x) w_l(x)."""
    n = len(hess)
    if not (u.n == v.n == w.n == n) or not (u.K == v.K == w.K):
        raise ValueError("field shape mismatch")
    M = alias_free_grid_size(u.K, max(e.degree for mat in hess for row in mat for e in row) + 2)
    ug = evaluate_on_grid(u, M)
    vg = evaluate_on_grid(v, M)
    wg = evaluate_on_grid(w, M)
    out = np.zeros_like(vg)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                entry = hess[i][j][l]
                if entry.terms:
                    out[i] += entry(ug) * vg[j] * wg[l]
    return from_grid(GridField(M, out), u.K)


# -- text format ---------------------------------------------------------------

_TOKEN = re.compile(r"^u(\d+)(?:\^(\d+))?$")


def parse_polynomial(text, nvars):
    """Parse a sum of coef*u1^a*u2^b terms, e.g. '0.5*u1^2 - u1*u2 + 3'."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial")
    # split before +/- signs at term boundaries (not exponents like 1e-3)
    terms = []
    for chunk in re.split(r"(?<![eE])(?=[+-])", cleaned):
        if not chunk:
            continue
        if chunk in "+-":
            raise ValueError(f"dangling sign in polynomial {text!r}")
        coeff = 1.0
        expo = [0] * nvars
        if chunk[0] in "+-":
            coeff = -1.0 if chunk[0] == "-" else 1.0
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            m = _TOKEN.match(factor)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable u{idx + 1} out of range in {text!r}")
                expo[idx] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}") from None
        terms.append((tuple(expo), coeff))
    return Polynomial.from_terms(nvars, terms)


def parse_polynomial_map(spec, n):
    """Parse one polynomial per component; spec is a ';'-joined string or a list."""
    parts = spec.split(";") if isinstance(spec, str) else list(spec)
    if len(parts) != n:
        raise ValueError(f"expected {n} components, got {len(parts)}")
    return PolynomialMap(n, tuple(parse_polynomial(p, n) for p in parts))
