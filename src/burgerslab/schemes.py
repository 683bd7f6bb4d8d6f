"""Discretization triples (f, h, mu) and the operators they induce.

A scheme bundles a diffusion symbol f (the approximate Laplacian acts as
-k^2 f(eps*|k|) per mode, with +inf meaning the mode is killed), a noise
filter h (modes are scaled by h(eps*|k|)), and a finite atomic signed
measure mu = sum_i w_i * delta_{y_i} generating the approximate derivative

    (D_eps u)(x) = (1/eps) * sum_i w_i * u(x + eps*y_i).

Restricting mu to finite atomic measures keeps every moment exact and all
derived mode sums finite.  Symbols may be builtin tags, tabulated
piecewise-linear interpolants, or user callables (vectorized, pure).

The kill rule lives here, in ``symbols_at``: f = +inf kills a mode, h is
0 there, and a live mode k diffuses at rate nu k^2 f(eps|k|).  The
Laplacian multiplier, the discretized stationary law (noise), the
integrator's per-mode factor tables and the correction constant's
integrand and mode sums all read the symbols through it.

A Scheme is frozen and stores only (name, f, h, mu, q).  It is validated
when it is made: a triple that fails a check of ``validate`` raises
SchemeValidationError, which carries the failed report, so a Scheme that
exists is an admissible one and no operator checks it again.  Everything
else is derived from the fields on read: the kinds of its symbols, where h
is known to vanish, and whether it is one of the builtin families (whose
closed forms then apply).  A variant is made with dataclasses.replace,
which validates it and derives all of these afresh, so no fact can outlive
the fields it was derived from.
"""

import os
from dataclasses import dataclass

import numpy as np



class SchemeValidationError(ValueError):
    """A scheme failed validation and was not made; ``report`` is the
    failed ValidationReport."""

    def __init__(self, report):
        super().__init__(f"scheme '{report.scheme_name}' failed validation:\n{report.summary()}")
        self.report = report


class InfiniteSymbolError(ValueError):
    """A pointwise multiplier was requested on a mode where f = +inf."""


# -- builtin symbols ---------------------------------------------------------


def _f_identity(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _f_finite_difference(t):
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, np.inf)
    inside = t < np.pi
    ts = np.where(inside, t, 1.0)
    val = np.where(ts == 0.0, 1.0, 4.0 * np.sin(ts / 2.0) ** 2 / np.where(ts == 0.0, 1.0, ts) ** 2)
    out[inside] = val[inside]
    return out


def _f_galerkin(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < np.pi, 1.0, np.inf)


def _h_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _h_indicator_pi(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < np.pi, 1.0, 0.0)


_F_BUILTINS = {
    "identity": _f_identity,
    "finite_difference": _f_finite_difference,
    "galerkin": _f_galerkin,
}
_H_BUILTINS = {"one": _h_one, "indicator_pi": _h_indicator_pi}

# the builtin families: f tag -> (h tag, q)
_FAMILIES = {
    "identity": ("one", 1.0),
    "finite_difference": ("indicator_pi", float(4.0 / np.pi**2) * 0.999),  # inf of 4 sin^2(t/2)/t^2 on [0, pi)
    "galerkin": ("indicator_pi", 1.0),
}


def _kind(symbol, builtins):
    """The builtin tag of ``symbol``, else "table" or "callable"."""
    for tag, fn in builtins.items():
        if symbol is fn:
            return tag
    return "table" if isinstance(symbol, TabulatedSymbol) else "callable"


@dataclass(frozen=True, eq=False)
class TabulatedSymbol:
    """Piecewise-linear symbol through (knots, values), fixed value beyond.

    A plain picklable callable, so schemes built on tables survive the trip
    to worker processes.  Two tables are equal (and hash alike) when their
    knots, values and extrapolation are, so two schemes read from one table
    file compare equal.
    """

    knots: np.ndarray
    values: np.ndarray
    extrapolate: float

    def __post_init__(self):
        ts = np.asarray(self.knots, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
            raise ValueError("table needs matching 1-d arrays with at least two rows")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        object.__setattr__(self, "knots", ts)
        object.__setattr__(self, "values", vs)
        object.__setattr__(self, "extrapolate", float(self.extrapolate))

    def _key(self):
        return tuple(self.knots.tolist()), tuple(self.values.tolist()), self.extrapolate

    def __eq__(self, other):
        return isinstance(other, TabulatedSymbol) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots, self.values)
        return np.where(t > self.knots[-1], self.extrapolate, out)


# -- the scheme itself -------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """A discretization triple (frozen; see the module docstring).

    f, h: vectorized maps on [0, inf) (f may return +inf); mu: tuple of
    (location, weight) atoms; q: claimed lower bound of f where finite.
    """

    name: str
    f: object
    h: object
    mu: tuple
    q: float

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple((float(y), float(w)) for y, w in self.mu))
        # the report of ``validate(self)``, kept with the scheme (not a field)
        object.__setattr__(self, "validation", validate(self))
        if not self.validation.ok:
            raise SchemeValidationError(self.validation)

    @property
    def f_kind(self):
        return _kind(self.f, _F_BUILTINS)

    @property
    def h_kind(self):
        return _kind(self.h, _H_BUILTINS)

    @property
    def h_support(self):
        """The point beyond which h is known to vanish, or None."""
        if self.h is _h_indicator_pi:
            return np.pi
        if isinstance(self.h, TabulatedSymbol) and self.h.extrapolate == 0.0:
            return float(self.h.knots[-1])
        return None

    @property
    def builtin(self):
        """(tag, a, b) for the three builtin families, else None."""
        return _detect_builtin(self.f_kind, self.h_kind, self.mu)

    def validate(self):
        """The validation report, made when the scheme was made."""
        return self.validation

    # vectorized symbol evaluation with scalar-or-array passthrough
    def f_at(self, t):
        return np.asarray(self.f(np.asarray(t, dtype=float)), dtype=float)

    def h_at(self, t):
        return np.asarray(self.h(np.asarray(t, dtype=float)), dtype=float)


def atoms_one_sided(a, b):
    """The measure (delta_a - delta_{-b})/(a+b) as atom tuples."""
    a, b = float(a), float(b)
    if a + b <= 0 or a < 0 or b < 0:
        raise ValueError("need a, b >= 0 with a + b > 0")
    return ((a, 1.0 / (a + b)), (-b, -1.0 / (a + b)))


def _family(tag, a, b):
    h_tag, q = _FAMILIES[tag]
    return Scheme(f"{tag}(a={a},b={b})", _F_BUILTINS[tag], _H_BUILTINS[h_tag], atoms_one_sided(a, b), q)


def identity_scheme(a=1.0, b=0.0):
    """No discretization of Laplacian or noise: f = h = 1."""
    return _family("identity", a, b)


def finite_difference_scheme(a=1, b=0):
    """Three-point Laplacian stencil on a grid of spacing eps, cut at mode pi/eps."""
    return _family("finite_difference", a, b)


def galerkin_scheme(a=1.0, b=0.0):
    """Spectral truncation: exact Laplacian and noise on modes below pi/eps."""
    return _family("galerkin", a, b)


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    scheme_name: str
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        lines = [f"validation of scheme '{self.scheme_name}':"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.value:.6g}  {c.detail}".rstrip())
        return "\n".join(lines)


def _one_sided_derivative(fn, s):
    # Richardson-extrapolated forward difference, O(s^2) accurate at 0
    f0 = float(fn(np.array([0.0]))[0])
    return float((4.0 * fn(np.array([s / 2.0]))[0] - fn(np.array([s]))[0] - 3.0 * f0) / s)


def validate(scheme):
    """Run every scheme invariant check and return a ValidationReport.

    Symbol checks are numerical (the symbols may be arbitrary callables):
    derivatives at 0 by two-step Richardson differences, positivity and
    boundedness by sampling a log grid on [1e-6, 1e3].  The sampled total
    variation of h^2/f is recorded for information only, no pass/fail.
    """
    checks = []
    ys = np.array([y for y, _ in scheme.mu])
    ws = np.array([w for _, w in scheme.mu])

    total = float(np.sum(ws))
    checks.append(CheckResult("mu_total_mass_zero", abs(total) < 1e-12, total))
    first = float(np.sum(ws * ys))
    checks.append(CheckResult("mu_first_moment_one", abs(first - 1.0) < 1e-12, first))
    fourth = float(np.sum(np.abs(ws) * np.abs(ys) ** 4))
    checks.append(
        CheckResult("mu_abs_fourth_moment_finite", np.isfinite(fourth), fourth)
    )

    f0 = float(scheme.f_at(0.0))
    checks.append(CheckResult("f_at_zero_is_one", abs(f0 - 1.0) < 1e-12, f0))
    fp = [_one_sided_derivative(scheme.f_at, s) for s in (1e-3, 1e-4)]
    checks.append(
        CheckResult(
            "f_derivative_zero_at_zero",
            all(abs(v) < 1e-4 for v in fp),
            max(abs(v) for v in fp),
            f"estimates at steps 1e-3, 1e-4: {fp[0]:.3e}, {fp[1]:.3e}",
        )
    )

    grid = np.logspace(-6, 3, 400)
    fg = scheme.f_at(grid)
    finite = np.isfinite(fg)
    fmin = float(np.min(fg[finite])) if np.any(finite) else np.inf
    checks.append(
        CheckResult(
            "f_bounded_below_by_q",
            scheme.q > 0 and fmin >= scheme.q - 1e-12,
            fmin,
            f"claimed q = {scheme.q}",
        )
    )

    hg = scheme.h_at(grid)
    hmax = float(np.max(np.abs(hg)))
    checks.append(CheckResult("h_bounded", np.isfinite(hmax), hmax))
    h0 = float(scheme.h_at(0.0))
    checks.append(CheckResult("h_at_zero_is_one", abs(h0 - 1.0) < 1e-12, h0))
    hp = [_one_sided_derivative(scheme.h_at, s) for s in (1e-3, 1e-4)]
    checks.append(
        CheckResult(
            "h_derivative_zero_at_zero",
            all(abs(v) < 1e-4 for v in hp),
            max(abs(v) for v in hp),
            f"estimates at steps 1e-3, 1e-4: {hp[0]:.3e}, {hp[1]:.3e}",
        )
    )

    bad = float(np.max(np.abs(hg[~finite]))) if np.any(~finite) else 0.0
    checks.append(
        CheckResult(
            "h_vanishes_where_f_infinite",
            bad == 0.0,
            bad,
            "sampled on the log grid",
        )
    )

    with np.errstate(divide="ignore", invalid="ignore"):  # f = 0 or h = inf: the ratio reads inf or nan
        ratio = np.where(finite, hg**2 / np.where(finite, fg, 1.0), 0.0)
        bv = float(np.sum(np.abs(np.diff(ratio))))
    checks.append(
        CheckResult(
            "h2_over_f_sampled_variation",
            True,
            bv,
            "recorded for information; not a proof of bounded variation",
        )
    )

    return ValidationReport(scheme.name, tuple(checks))


# -- multiplier operators ----------------------------------------------------


def derivative_symbol(scheme, kappa):
    """The Fourier symbol of the measure, sum_i w_i exp(i*kappa*y_i).

    Equals i*kappa*g(kappa) where g is the derivative multiplier profile.
    Accepts scalars or arrays.  Summed atom by atom, elementwise, so each
    entry depends on its own kappa only, and the symbol at -kappa is the
    exact conjugate of the symbol at kappa.
    """
    kappa = np.asarray(kappa, dtype=float)
    out = np.zeros(kappa.shape, dtype=np.complex128)
    for y, w in scheme.mu:
        out += w * np.exp(1j * (y * kappa))
    return out


def d_eps_multiplier(scheme, eps, modes):
    return derivative_symbol(scheme, eps * np.asarray(modes, dtype=float)) / eps


def apply_D_eps(scheme, u, eps):
    """Approximate derivative: mode k scaled by (1/eps) sum_i w_i e^{i k eps y_i}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return u.apply_multiplier(d_eps_multiplier(scheme, eps, u.modes))


def symbols_at(scheme, t):
    """The symbols at the points t, as (f, killed, h): f(t), the mask of
    the points where f kills (is not finite: +inf for a valid scheme) and
    h(t); mode k at eps is the point eps |k|.

    The one reading of the kill rule (see the module docstring): f is
    returned as it is, +inf where it kills, and h unmasked (a valid scheme
    has h = 0 there).
    """
    f = scheme.f_at(t)
    return f, ~np.isfinite(f), scheme.h_at(t)


def apply_Delta_eps(scheme, u, eps):
    """Approximate Laplacian: mode k scaled by -k^2 f(eps|k|).

    Undefined as a pointwise multiplier on modes where f = +inf; any active
    (nonzero) coefficient there raises InfiniteSymbolError.  Time stepping
    never needs this on such modes: it uses semigroup factors, where the
    convention exp(-inf) = 0 applies.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = u.modes.astype(float)
    fv, killed, _ = symbols_at(scheme, eps * k)
    if np.any(np.abs(u.half[:, killed]) > 0.0):
        raise InfiniteSymbolError("field has active modes where f = +inf; project them out first")
    return u.apply_multiplier(np.where(killed, 0.0, -(k**2) * np.where(killed, 0.0, fv)))


def shift_minus(u, delta):
    """Undivided difference u(. + delta) - u (well defined at delta = 0)."""
    k = u.modes.astype(float)
    return u.apply_multiplier(np.exp(1j * k * delta) - 1.0)


# -- scheme description files -------------------------------------------------


def _load_table(path):
    """Table file: a line 'extrapolate = <real>' then 't,value' rows; a row
    that does not parse is reported by its path and line."""
    extrapolate = None
    ts, vs = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                if key.strip() == "extrapolate":
                    extrapolate = float(value)
                    continue
                t, v = line.split(",")
                ts.append(float(t))
                vs.append(float(v))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 't,value' or 'extrapolate = <real>', got {line!r}") from None
    if extrapolate is None:
        raise ValueError(f"table {path} must declare an explicit 'extrapolate = <real>' value")
    return np.array(ts), np.array(vs), extrapolate


def parse_mu(text):
    """Parse '(y1,w1);(y2,w2);...' into atom tuples; a ValueError names the
    key mu and the atom that does not parse."""
    atoms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError
            y, w = map(float, chunk[1:-1].split(","))
        except ValueError:
            raise ValueError(f"mu: {chunk!r} is not an atom (y,w) of two numbers") from None
        atoms.append((y, w))
    if not atoms:
        raise ValueError(f"mu: {text!r} has no atoms")
    return tuple(atoms)


def scheme_from_mapping(entries, directory=""):
    """Build a Scheme from plain key = value entries (see load_scheme_file);
    a relative ``table:`` path is read from ``directory``.  A value that
    does not parse is reported by its key and text."""
    required = {"name", "f", "h", "mu", "q"}
    missing = required - set(entries)
    if missing:
        raise ValueError(f"scheme description missing keys: {sorted(missing)}")
    unknown = set(entries) - required
    if unknown:
        raise ValueError(f"scheme description has unknown key(s) {sorted(unknown)}")
    try:
        q = float(entries["q"])
    except ValueError:
        raise ValueError(f"q: {entries['q']!r} is not a number") from None
    return Scheme(
        name=entries["name"].strip(),
        f=_symbol(entries["f"].strip(), _F_BUILTINS, "f", directory),
        h=_symbol(entries["h"].strip(), _H_BUILTINS, "h", directory),
        mu=parse_mu(entries["mu"]),
        q=q,
    )


def _symbol(spec, builtins, which, directory):
    """A builtin tag or table:<path> as a symbol, a relative path read from
    ``directory``."""
    if spec in builtins:
        return builtins[spec]
    if spec.startswith("table:"):
        return TabulatedSymbol(*_load_table(os.path.join(directory, spec[len("table:") :])))
    raise ValueError(f"unknown {which} spec {spec!r}")


def _detect_builtin(f_kind, h_kind, mu):
    """Recognize the three builtin families so closed forms stay available."""
    if _FAMILIES.get(f_kind, (None,))[0] != h_kind or len(mu) > 2:
        return None
    atoms = [(y, w) for y, w in mu if w != 0.0]
    pos = [(y, w) for y, w in atoms if w > 0]
    neg = [(y, w) for y, w in atoms if w < 0]
    if len(pos) != 1 or len(neg) > 1:
        return None
    a = pos[0][0]
    b = -neg[0][0] if neg else 0.0
    if a < 0 or b < 0 or a + b <= 0:
        return None
    scale = 1.0 / (a + b)
    if abs(pos[0][1] - scale) > 1e-12 * scale:
        return None
    if neg and abs(neg[0][1] + scale) > 1e-12 * scale:
        return None
    return (f_kind, a, b)


def load_scheme_file(path):
    """Read a plain-text scheme description (one 'key = value' per line).

    Keys: name; f = identity|finite_difference|galerkin|table:<path>;
    h = one|indicator_pi|table:<path>; mu = (y1,w1);(y2,w2);...; q = <real>.
    A key given twice is an error, not an override.  A relative table path
    is read from the directory of the scheme file, not the working one.
    """
    entries, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad line in scheme file: {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in entries:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} (first given on line {first_line[key]})")
            entries[key], first_line[key] = value.strip(), lineno
    return scheme_from_mapping(entries, os.path.dirname(path))
