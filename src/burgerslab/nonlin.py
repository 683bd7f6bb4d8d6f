"""Polynomial maps R^n -> R^n with exact symbolic derivatives.

Drift and flux nonlinearities are restricted to polynomials: the Jacobian,
Laplacian and Hessian are then exact symbolic objects, so differentiation
error never contaminates the experiments downstream.  Evaluation on fields
is pseudospectral: transform to a grid sized for the polynomial degree
(alias_free_grid_size), apply the map pointwise, transform back and
truncate, so the result is the exact product on the band.

The pointwise arithmetic is defined once, by ``Polynomial.bind``: it binds
a polynomial's terms on given arrays (the grid, the output row, one buffer
per power v_j ** e and one scratch row) as a flat tuple of zero-argument
ufunc calls.  ``Polynomial.__call__`` and ``evaluate`` bind on the arrays
they are given and run the calls once; the stepper binds its right-hand
side once, on arrays it owns, and runs the same calls at every step.
"""

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .spectral import from_grid, odd_fft_size, to_grid


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial in nvars variables: terms maps exponent tuples to
    coefficients, each finite (checked when the polynomial is made)."""

    nvars: int
    terms: tuple  # ((exponents, coeff), ...), canonically sorted, no zero coeffs
    # per term, in term order: (coeff, first, rest) over the (variable,
    # power) pairs of its nonzero powers, first None for the constant term;
    # built once here, walked by every bind
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = []
        for expo, coeff in self.terms:
            if not np.isfinite(coeff):
                raise ValueError(f"polynomial coefficients must be finite, got {coeff}")
            factors = tuple((j, e) for j, e in enumerate(expo) if e)
            plan.append((coeff, factors[0] if factors else None, factors[1:]))
        object.__setattr__(self, "plan", tuple(plan))

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

    @property
    def degree(self):
        return max((sum(e) for e, _ in self.terms), default=0)

    def bind(self, v, out, powers, scratch):
        """The arithmetic of this polynomial at v (nvars rows), as a tuple of
        zero-argument calls that write its value into ``out`` each time they
        run, reading the rows of v as they are then.

        The value is the sum of the terms in plan order, each term
        coeff * f1 * f2 ... taken left to right with f = v[j] ** e, and the
        first term has 0.0 added (a lone -0.0 term gives 0.0).  The first
        term is built in ``out``, a later one in ``scratch`` (an array of
        out's shape, overlapping neither, that the calls may overwrite).  A
        product with a coefficient of exactly 1.0 is skipped, which changes
        no bit, so that term starts from f1 itself.  A power with e >= 2 is
        read from ``powers[(j, e)]``, which is added, as a new array of out's
        shape, when missing: the calls of ``power_calls(v, powers)`` must run
        before these.  A point (v of shape (nvars,), out 0-d) takes the same
        calls as a grid, so its value is bitwise the grid's at that point.
        This is the one definition of the term arithmetic; ``__call__`` and
        ``evaluate`` bind and run it once, and a Stepper binds it once on its
        own arrays.
        """

        def factor(j, e):
            if e == 1:
                return v[j, ...]
            if (j, e) not in powers:
                powers[j, e] = np.empty(out.shape)
            return powers[j, e]

        calls, first = [], True
        for coeff, head, rest in self.plan:
            if head is None:  # the constant term, first in canonical order
                calls.append(partial(out.fill, coeff) if first else partial(np.add, out, coeff, out))
                first = False
                continue
            dst = out if first else scratch
            term = factor(*head)
            if coeff != 1.0:
                calls.append(partial(np.multiply, coeff, term, dst))
                term = dst
            for j, e in rest:
                calls.append(partial(np.multiply, term, factor(j, e), dst))
                term = dst
            calls.append(partial(np.add, term, 0.0, out) if first else partial(np.add, out, term, out))
            first = False
        if first:
            calls.append(partial(out.fill, 0.0))
        return tuple(calls)

    def __call__(self, v):
        """Evaluate at v of shape (nvars,) or (nvars, M); returns a scalar or
        an (M,) array.  The arithmetic is that of ``bind``; the powers
        v[j] ** e and one scratch array are the only other arrays a call
        makes.
        """
        if type(v) is not np.ndarray or v.dtype != np.float64:
            v = np.asarray(v, dtype=float)
        shape = v.shape[1:]
        out, powers = np.empty(shape), {}
        calls = self.bind(v, out, powers, np.empty(shape))
        run(power_calls(v, powers) + calls)
        return out if shape else out[()]

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
    """A map R^n -> R^n given by one polynomial per component: n
    polynomials in n variables, checked when the map is made."""

    n: int
    components: tuple

    def __post_init__(self):
        nvars = [p.nvars for p in self.components]
        if nvars != [self.n] * self.n:
            raise ValueError(f"a map of R^{self.n} takes {self.n} polynomials in {self.n} variables, got variable counts {nvars}")

    @staticmethod
    def zero(n):
        return PolynomialMap(n, tuple(Polynomial.zero(n) for _ in range(n)))

    @property
    def degree(self):
        return max(p.degree for p in self.components)

    def is_zero(self):
        return all(not p.terms for p in self.components)

    def __str__(self):
        return "; ".join(str(p) for p in self.components)


def power_calls(v, powers):
    """The calls that write v[j] ** e into ``powers[(j, e)]`` for every key
    of ``powers`` (see ``Polynomial.bind``), with the ufunc numpy takes for
    v[j] ** e: square for e = 2, power otherwise."""
    return tuple(
        partial(np.square, v[j, ...], buf) if e == 2 else partial(np.power, v[j, ...], e, buf)
        for (j, e), buf in powers.items()
    )


def bind_rows(P, v, out, powers, scratch):
    """The calls of ``Polynomial.bind`` that write component i of P at v
    into row i of ``out`` (a view, 0-d for a point), component by
    component."""
    return tuple(call for i, p in enumerate(P.components) for call in p.bind(v, out[i, ...], powers, scratch))


def run(calls):
    """Make the bound calls, in order."""
    for call in calls:
        call()


def evaluate(P, v):
    """Componentwise evaluation; v of shape (n,) or (n, M).  Component i is
    written to row i of a new (n,) + v.shape[1:] array, which is returned.
    The components share their powers v[j] ** e and one scratch array."""
    if type(v) is not np.ndarray or v.dtype != np.float64:
        v = np.asarray(v, dtype=float)
    if v.shape[0] != P.n:
        raise ValueError(f"expected {P.n} components, got {v.shape[0]}")
    out, powers = np.empty((P.n,) + v.shape[1:]), {}
    calls = bind_rows(P, v, out, powers, np.empty(v.shape[1:]))
    run(power_calls(v, powers) + calls)
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
    return from_grid(evaluate(P, to_grid(u, M)), u.K)


def apply_bilinear(jac, u, w):
    """Evaluate the matrix field jac(u(x)) acting on w(x), pointwise.

    jac is a jacobian() result; u supplies the point where the entries are
    evaluated and w the vector they multiply.
    """
    n = len(jac)
    if u.n != n or w.n != n or u.K != w.K:
        raise ValueError("field shape mismatch")
    M = alias_free_grid_size(u.K, max(e.degree for row in jac for e in row) + 1)
    ug = to_grid(u, M)
    wg = to_grid(w, M)
    out = np.zeros_like(wg)
    for i in range(n):
        for j in range(n):
            entry = jac[i][j]
            if entry.terms:
                out[i] += entry(ug) * wg[j]
    return from_grid(out, u.K)


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
    return PolynomialMap(n, tuple(parse_polynomial(p, n) for p in parts))
