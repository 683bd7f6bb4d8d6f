"""Coupled time stepping of the discretized and limit equations.

One replicate couples several runs through shared randomness: the smooth
initial profile is perturbed by stationary samples built from one set of
mode normals, and every run consumes the identical Wiener increment
sequence (each run re-derives the same stream, so no mutable state is
shared and thread scheduling cannot change results).

Per Fourier mode the update is exponential Euler with a variance-exact
noise factor,

    u_k <- e^(-lam_k dt) u_k + dt phi1(-lam_k dt) N_k + m_k g(lam_k dt) dW_k,

    phi1(z) = (e^z - 1)/z,      g(z) = sqrt((1 - e^(-2z)) / (2z)),

with lam_k the diffusion rate of the run (nu k^2, or nu k^2 f(eps|k|)
with modes killed where f = +inf, the rule of schemes.symbols_at) and m_k
the noise filter (h(eps|k|), or 1 for the limit equation).  The factor g
(g(0) = 1, g(inf) = 0) injects each step's noise with exactly the
integrated Ornstein-Uhlenbeck variance, so the per-mode stationary law of
the linear part is m_k^2/(2 lam_k) at every step size.  Transporting the raw increment by the semigroup instead would
suppress the stationary variance of stiff modes by 2z/(e^(2z) - 1), and the
drift correction, which feeds on exactly those modes, would shrink with it;
see the drift-correction experiment in the acceptance tests.

The state is stepped as a half spectrum, the (n, K+1) coefficients of
modes 0..K (the layout of rfft and irfft), which is also how a SpectralField
stores itself: the fields are real, so mode -k is the conjugate of mode k,
every per-mode factor respects that symmetry, and the update never needs
the negative modes.  Reality therefore holds by construction; no Hermitian
check and no two-sided array is built anywhere on the way from the initial
field through the time loop.  simulate starts from the initial field's half
spectrum and records the half spectrum itself at the recorded steps, the
errors are normed from those records, and the final limit state that the
diagnostics take as a field is wrapped as it is.

A run is one of two kinds, and its config's eps says which (the read-only
SimConfig.variant names it).  An approximate run, eps > 0, is the
discretized equation at that eps: it applies the literal nonconservative
product grad G(u) . D_eps u, which is exactly the object whose limit
acquires the drift correction.  A limit run, eps None, is the limit
equation, with the flux in conservative form d/dx G(u).  The correction is
a drift: the corrected limit run is the limit run whose F is
corrected_drift(F, G, Lambda) = F - Lambda Laplacian(G), made once by
run_coupled, so nothing below run_coupled knows Lambda.

A run that blows up is an outcome the ensemble measures, not an error:
simulate stops at the first non-finite state and returns no records and the
number of steps it completed, and the replicate's report keeps that count
and the blow-up time (steps * dt).

A coupled ensemble is one dense result.  Each replicate norms the
differences of every eps run to the two limit runs at the recorded steps
into an (E, 4, S) block whose columns are ERRORS (sup and H^ALPHA norms),
NaN for an eps whose run or a limit run blew up, and takes the quadratic
variation of the final corrected limit state once, into its report.
run_coupled stacks the blocks into EnsembleResult.errors, (R, E, 4, S),
next to the (R, E) blow-up mask the replicates return.

A SimConfig is frozen and checks every field when it is made, so a config
that exists is a valid one.  Its per-mode factors (the rates, the killed
modes, m_k, the three update factors above, the D_eps multiplier of an
approximate run, and the per-mode scale of the run's initial draw) are one
frozen ModeTable, which ``mode_table`` evaluates from the config once.
run_coupled takes the limit run's config and makes the configs of the E
approximate runs from it with dataclasses.replace(cfg, eps=e), which checks
each again, and all 2 + E tables before any replicate starts (the two limit
runs differ only in F, so they share one table's arrays); every
replicate steps those same tables, and neither simulate nor Stepper
evaluates anything per mode.

The transforms, the pointwise polynomials and the update of a step write
into arrays the Stepper owns (see its docstring), and the Stepper binds its
pointwise stage once, as a flat program of ufunc calls on those arrays; a
step allocates only the new state.  simulate draws each Wiener increment
into a buffer it owns (and a second one that each later substep's draw is
added from).  The operations and their order are those of the allocating
arithmetic, so every state has the bytes of a step that allocates all its
temporaries.
"""

import math
import numbers
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .correction import (
    LAMBDA_TOL,
    corrected_drift,
    lambda_closed_form_for_scheme,
    lambda_quadrature,
)
from .estimators import mean_stderr, quadratic_variation
from .noise import (
    ModeGaussianDraw,
    derive_stream,
    stationary_sigmas,
    symbol_sigmas,
    wiener_increment_coeffs,
)
from .nonlin import PolynomialMap, alias_free_grid_size, bind_rows, jacobian, power_calls
from .schemes import Scheme, d_eps_multiplier, symbols_at
from .spectral import (
    SpectralField,
    coeffs_to_values,
    embed,
    sobolev_norms,
    sup_norms,
    values_to_coeffs,
)

# Not used here since the errors are taken as stacks, no diagnostic takes
# xi_eps and the Stepper binds its polynomials once, but kept as module
# attributes: perfbench/spans.py wraps each function under every module name
# its callers have looked it up by, and checks that the names still exist.
from .estimators import xi_eps  # noqa: F401
from .nonlin import evaluate  # noqa: F401
from .spectral import sobolev_norm, sup_norm  # noqa: F401

LAMBDA_MODES = ("quadrature", "closed_form")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one run, one field per setting, checked on
    construction and frozen; another run is made with dataclasses.replace,
    which checks it again.

    ``eps`` is the run's kind: a positive finite scale for the discretized
    equation at that eps, None for the limit equation.  ``lambda_mode`` is
    how Lambda is had: one of LAMBDA_MODES, or Lambda itself as a finite
    real number (not a bool).
    """

    nu: float
    n: int
    K: int
    dt: float
    T: float
    eps: float | None
    scheme: Scheme
    F: PolynomialMap
    G: PolynomialMap
    lambda_mode: str | float = "closed_form"
    v0: SpectralField | None = None  # band-limited smooth profile; None = zero
    seed: int = 0
    sample_every: int = 25
    noise_substeps: int = 1

    def __post_init__(self):
        for name in ("n", "K", "sample_every", "noise_substeps"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("nu", "dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, or None for the limit equation, got {self.eps}")
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if not self.T >= self.dt:
            raise ValueError(f"horizon T = {self.T} shorter than one step dt = {self.dt}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"T/dt must be integral, got T = {self.T}, dt = {self.dt}")
        real = isinstance(self.lambda_mode, numbers.Real) and not isinstance(self.lambda_mode, bool)
        if self.lambda_mode not in LAMBDA_MODES and not (real and math.isfinite(self.lambda_mode)):
            raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES} or a finite number, got {self.lambda_mode!r}")
        if not isinstance(self.scheme, Scheme):
            # a Scheme is validated when it is made; nothing else is
            raise ValueError(f"scheme must be a Scheme, got {type(self.scheme).__name__}")
        if self.F.n != self.n or self.G.n != self.n:
            raise ValueError("drift and flux must have n components")
        if self.v0 is not None:
            if self.v0.n != self.n:
                raise ValueError("v0 component count mismatch")
            if self.v0.K > self.K:
                raise ValueError("v0 is not band-limited within K")
            if self.v0.K < self.K:
                object.__setattr__(self, "v0", embed(self.v0, self.K))

    @property
    def variant(self):
        """The run's kind: "approximate" if it has an eps, else "limit"."""
        return "approximate" if self.eps is not None else "limit"

    @property
    def n_steps(self):
        return round(self.T / self.dt)

    def v0_field(self):
        return self.v0 if self.v0 is not None else SpectralField.zeros(self.K, self.n)


def resolve_lambda(cfg):
    """Correction constant per the configured mode; returns (value, detail),
    detail None for a lambda_mode that is Lambda itself (Lambda = 0 is
    lambda_mode 0.0).  Quadrature runs at the tolerance LAMBDA_TOL."""
    if cfg.lambda_mode not in LAMBDA_MODES:
        return float(cfg.lambda_mode), None
    if cfg.lambda_mode == "closed_form":
        res = lambda_closed_form_for_scheme(cfg.scheme, cfg.nu)
    else:
        res = lambda_quadrature(cfg.scheme, cfg.nu, LAMBDA_TOL)
    return res.value, res


def _phi1(z):
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _ou_noise_factor(z):
    """sqrt((1 - e^(-2z))/(2z)) elementwise; 1 at z = 0, 0 at z = inf."""
    out = np.ones_like(z)
    pos = (z > 0.0) & np.isfinite(z)
    out[pos] = np.sqrt(-np.expm1(-2.0 * z[pos]) / (2.0 * z[pos]))
    out[np.isinf(z)] = 0.0
    return out


@dataclass(frozen=True)
class ModeTable:
    """The per-mode factors of one run config on modes k = 0..K, made by
    ``mode_table`` (see the module docstring); every array is read-only.

    ``rates`` holds lam_k (+inf on the ``killed`` modes) and ``m`` the noise
    filter m_k.  ``decay``, ``phi1_dt`` and ``noise_fac`` are the update's
    real factors, stored as complex128 (x + 0j): the update multiplies
    complex states by them, and numpy would cast them on every step.
    ``d_mult`` is the D_eps multiplier of an approximate run (None for a
    limit run) and ``sigma`` the per-mode scale of the run's initial draw,
    the discretized stationary one of an approximate run and the limit
    equation's of a limit run.
    """

    cfg: SimConfig
    rates: np.ndarray
    killed: np.ndarray
    m: np.ndarray
    decay: np.ndarray
    phi1_dt: np.ndarray
    noise_fac: np.ndarray
    d_mult: np.ndarray | None
    sigma: np.ndarray


def mode_table(cfg):
    """The ModeTable of ``cfg``: the scheme's symbols at cfg.eps for an
    approximate run, the continuum for a limit run."""
    k = np.arange(cfg.K + 1, dtype=float)
    if cfg.variant == "approximate":
        symbols = fv, killed_f, m = symbols_at(cfg.scheme, cfg.eps * k)
        rates = np.where(killed_f, np.inf, cfg.nu * k**2 * np.where(killed_f, 0.0, fv))
        d_mult = d_eps_multiplier(cfg.scheme, cfg.eps, np.arange(cfg.K + 1))
        sigma = symbol_sigmas(symbols, cfg.nu)
    else:
        rates, m, d_mult = cfg.nu * k**2, np.ones_like(k), None
        sigma = stationary_sigmas(cfg.K, cfg.nu)
    # a rate that overflows to +inf is killed as f = +inf is
    killed = ~np.isfinite(rates)
    z = np.where(killed, 0.0, -rates * cfg.dt)
    decay = np.where(killed, 0.0, np.exp(z)).astype(np.complex128)
    phi1_dt = np.where(killed, 0.0, cfg.dt * _phi1(z)).astype(np.complex128)
    noise_fac = (
        np.where(killed, 0.0, m) * _ou_noise_factor(np.where(killed, np.inf, rates * cfg.dt))
    ).astype(np.complex128)
    for a in (rates, killed, m, decay, phi1_dt, noise_fac, d_mult, sigma):
        if a is not None:
            a.flags.writeable = False
    return ModeTable(cfg, rates, killed, m, decay, phi1_dt, noise_fac, d_mult, sigma)


class Stepper:
    """Exponential-Euler update for one run, on the factors of its
    ModeTable.

    States, increments and every per-mode factor live on k = 0..K (half
    spectra, see the module docstring).  The factors are even in k, or
    Hermitian for ``d_mult`` and ``ik``, so this is the two-sided update
    restricted to modes 0..K; mode 0 stays real because every term feeding
    it is.  ``decay``, ``phi1_dt``, ``noise_fac`` and ``d_mult`` are the
    table's read-only arrays, shared by every Stepper of its run config.

    Only ``__init__`` reads the run's kind, F and G.  It fixes the right-hand side as
    two row groups of n rows, either of which may be empty:

    - a: the drift cfg.F (which is F - Lambda Laplacian(G) for the
      corrected limit run, see run_coupled) plus, for an approximate run,
      the products dG_i/du_j(u) (D_eps u)_j of ``jac_terms``, taken back to
      the band as it is;
    - b: the flux G(u) of a limit run, taken back and multiplied by ik
      (the conservative form d/dx G(u)).

    ``jac_terms`` is empty for a limit run; the state goes to the grid with
    its D_eps derivative below it only when it is not.

    The stepper owns the scratch of its right-hand side, sized by those
    rows, made once here and overwritten by every step:

    - to the grid: ``stack`` (with ``jac_terms``) holds the state above its
      D_eps derivative, ``padded`` (zero above mode K) their scaled
      spectrum and ``grid`` their values;
    - on the grid: ``grid_out`` holds group a above group b, and ``entry``
      (with ``jac_terms``) one Jacobian entry times its derivative row; the
      polynomials share one buffer per power v_j ** e they take, and one
      row of scratch for their later terms;
    - back: ``spectrum`` receives the real transform of ``grid_out`` and
      ``back`` (with group b) its scaled modes 0..K;
    - ``N`` receives the step's right-hand side and ``update`` each product
      added to the new state; ``finite`` is the blow-up check's mask.

    ``program`` is the pointwise stage bound once on these arrays
    (``nonlin.Polynomial.bind``): a flat tuple of zero-argument ufunc calls
    that computes the powers, then writes group a (the drift rows, or zeros,
    and each Jacobian product added to its row) and group b (the flux rows)
    from ``grid``, reading it as the step's transform has just left it.

    Every array a step writes is one of these, except the new state that
    ``step_coeffs`` returns, and ``nonlinearity`` called without ``out``
    also returns a new array; so what they return is never overwritten by a
    later step.  Writing into owned arrays changes no bit: every product,
    sum and transform is the one the allocating arithmetic takes, with the
    same operands in the same order (``tests/test_integrator.py`` keeps that
    arithmetic as a reference and compares bytes).
    """

    def __init__(self, table):
        cfg = self.cfg = table.cfg
        K, n = cfg.K, cfg.n
        # F - Lambda Laplacian(G) is of degree at most max(F, G), so the
        # corrected limit run steps on the grid of the uncorrected one
        self.M = alias_free_grid_size(K, max(cfg.F.degree, cfg.G.degree))
        approximate = cfg.variant == "approximate"
        self.decay, self.phi1_dt, self.noise_fac, self.d_mult = table.decay, table.phi1_dt, table.noise_fac, table.d_mult
        self.ik = 1j * np.arange(K + 1, dtype=float)
        # the nonzero entries (i, j, dG_i/du_j) of the Jacobian, row by row,
        # for the nonconservative product of an approximate run
        jac = jacobian(cfg.G)
        self.jac_terms = [(i, j, jac[i][j]) for i in range(n) for j in range(n) if approximate and jac[i][j].terms]
        # the row groups (see the class docstring): n rows each, or none
        drift_zero = cfg.F.is_zero()
        self.rows_a = n if not drift_zero or self.jac_terms else 0
        self.rows_b = n if not approximate and not cfg.G.is_zero() else 0

        # scratch, overwritten by every step (see the class docstring)
        w, half_width = K + 1, self.M // 2 + 1
        rows_in, rows_out = 2 * n if self.jac_terms else n, self.rows_a + self.rows_b
        if self.jac_terms:
            self.stack = np.empty((rows_in, w), dtype=np.complex128)
            self.entry = np.empty(self.M)
        self.padded = np.zeros((rows_in, half_width), dtype=np.complex128)
        self.grid = np.empty((rows_in, self.M))
        self.grid_out = np.empty((rows_out, self.M))
        self.spectrum = np.empty((rows_out, half_width), dtype=np.complex128)
        if self.rows_b:
            self.back = np.empty((rows_out, w), dtype=np.complex128)
        self.N = np.empty((n, w), dtype=np.complex128)
        self.update = np.empty((n, w), dtype=np.complex128)
        self.finite = np.empty((n, w), dtype=bool)

        # the pointwise stage, bound once on the arrays above (see the class
        # docstring): group a's drift rows and Jacobian products, then group
        # b's flux rows, after the powers they read
        u, powers, term = self.grid[:n], {}, np.empty(self.M)
        calls = ()
        if self.rows_a:
            a = self.grid_out[:n]
            calls = (partial(a.fill, 0.0),) if drift_zero else bind_rows(cfg.F, u, a, powers, term)
            for i, j, entry in self.jac_terms:
                calls += entry.bind(u, self.entry, powers, term) + (
                    partial(np.multiply, self.entry, self.grid[n + j], self.entry),
                    partial(np.add, a[i], self.entry, a[i]),
                )
        if self.rows_b:
            calls += bind_rows(cfg.G, u, self.grid_out[self.rows_a :], powers, term)
        self.program = power_calls(u, powers) + calls

    def nonlinearity(self, half, out=None):
        """Half spectrum of the drift-plus-flux term, a + ik b over the row
        groups (see the class docstring), written to ``out`` (an (n, K+1)
        complex array) or to a new array when None; 0.0 when both groups
        are empty.

        One stacked transform takes the state, and its D_eps derivative when
        there are Jacobian terms, to the grid, ``program`` evaluates both
        groups there, and one transform takes them back.
        """
        n, rows_a, rows_b = self.cfg.n, self.rows_a, self.rows_b
        if not rows_a + rows_b:
            return 0.0
        if self.jac_terms:
            stack = self.stack
            stack[:n] = half
            np.multiply(half, self.d_mult, out=stack[n:])
            half = stack
        coeffs_to_values(half, self.M, buf=self.padded, out=self.grid)
        for call in self.program:
            call()
        groups = self.grid_out
        if not rows_b:
            return values_to_coeffs(groups, self.cfg.K, buf=self.spectrum, out=out)
        back = values_to_coeffs(groups, self.cfg.K, buf=self.spectrum, out=self.back)
        if not rows_a:
            return np.multiply(self.ik, back, out=out)
        flux = np.multiply(self.ik, back[n:], out=back[n:])
        return np.add(back[:n], flux, out=out)

    def step_coeffs(self, half, dW_half):
        """One step of the half-spectrum state, as a new array; None once it
        is non-finite.

        A state on its way to blowing up overflows; numpy warns of that
        unless the caller silences it, as ``simulate`` does for its loop.
        """
        N = self.nonlinearity(half, self.N)
        new = self.decay * half
        update = self.update
        new += np.multiply(self.phi1_dt, N, out=update)
        new += np.multiply(self.noise_fac, dW_half, out=update)
        if np.count_nonzero(np.isfinite(new, out=self.finite)) < new.size:
            return None
        return new


def sample_steps(cfg):
    """Recorded step indices: every sample_every steps plus the final step."""
    idx = list(range(0, cfg.n_steps + 1, cfg.sample_every))
    if idx[-1] != cfg.n_steps:
        idx.append(cfg.n_steps)
    return idx


def simulate(table, u0, wiener_rng):
    """Run one trajectory of the config of ``table`` (a ModeTable); returns
    ``(records, steps)``.

    ``records`` is one (S, n, K+1) array of the half-spectrum states at the
    S recorded steps (``sample_steps``), in step order, and ``steps`` is
    cfg.n_steps.  A run that blows up is an outcome, not an error: at the
    first non-finite state the run stops and returns ``(None, steps)``, with
    ``steps`` the number of steps completed before it.  The Wiener stream is
    consumed in a fixed order (noise_substeps draws per step, summed), so
    any two runs holding generators derived from the same key see the same
    increments.
    """
    cfg = table.cfg
    steps = sample_steps(cfg)
    stepper = Stepper(table)
    half = u0.half
    records = np.empty((len(steps), cfg.n, cfg.K + 1), dtype=np.complex128)
    records[0] = half
    recorded = 1
    sub = cfg.noise_substeps
    dt_sub = cfg.dt / sub
    # the step's increment, and each later substep's draw before it is added
    dW = np.empty((cfg.n, cfg.K + 1), dtype=np.complex128)
    dW_sub = np.empty_like(dW) if sub > 1 else None
    # non-finite states are legitimate here: they signal blow-up, which ends
    # the run, so the transient warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, cfg.n_steps + 1):
            wiener_increment_coeffs(cfg.K, cfg.n, dt_sub, wiener_rng, out=dW)
            for _ in range(sub - 1):
                dW += wiener_increment_coeffs(cfg.K, cfg.n, dt_sub, wiener_rng, out=dW_sub)
            half = stepper.step_coeffs(half, dW)
            if half is None:
                return None, m - 1
            if m == steps[recorded]:
                records[recorded] = half
                recorded += 1
    return records, cfg.n_steps


# -- coupled ensembles ---------------------------------------------------------


# the error columns of a replicate's block and of the converge tables: sup
# and H^ALPHA distances to the corrected and to the uncorrected limit run
ERRORS = ("sup_err_corrected", "sup_err_uncorrected", "halpha_err_corrected", "halpha_err_uncorrected")
ALPHA = 0.75


def _run_replicate(limit_tables, eps_tables, replicate):
    """All runs of one replicate: the two limit runs of ``limit_tables``
    (corrected, then uncorrected) plus one discretized run per ModeTable of
    ``eps_tables``, sharing the mode draw, each scaled by its table's
    sigma, and the Wiener stream.

    Returns ``(errors, blown_up, report)``.  ``errors`` is an (E, 4, S)
    block: per eps, the ERRORS columns at the S recorded steps.
    ``blown_up`` is the (E,) mask of the eps whose run, or a limit run,
    blew up; their rows of ``errors`` are NaN.  The report holds the
    replicate's wall seconds, the grid quadratic variation of the final
    corrected limit state (None if a limit run blew up) and, per run in the
    order run, its row (``limit_corrected`` or ``limit_uncorrected`` by
    position in ``limit_tables``, or ``approximate`` with its eps), the
    steps it took and its blow-up time (None unless it blew up).  A
    blown-up limit run ends the replicate, so the runs after it are not in
    the report.
    """
    start = time.perf_counter()
    cfg = limit_tables[0].cfg
    errors = np.full((len(eps_tables), len(ERRORS), len(sample_steps(cfg))), np.nan)
    blown_up = np.ones(len(eps_tables), dtype=bool)
    report = {"replicate": replicate, "qv_limit_final": None, "runs": []}

    def run(table, u0, row):
        """The run's (S, n, K+1) records, or None if it blew up."""
        entry = {"row": row, "eps": table.cfg.eps}
        report["runs"].append(entry)
        records, steps = simulate(table, u0, derive_stream(cfg.seed, replicate, "wiener"))
        entry.update(steps=steps, blowup_time=steps * table.cfg.dt if records is None else None)
        return records

    draw = ModeGaussianDraw.sample(cfg.K, cfg.n, derive_stream(cfg.seed, replicate, "ic"))
    v0 = cfg.v0_field()
    u_bar0 = v0 + draw.field(limit_tables[0].sigma)
    limits = []  # corrected, then uncorrected; a blow-up ends the replicate
    for limit_table, row in zip(limit_tables, ("limit_corrected", "limit_uncorrected")):
        if (limit := run(limit_table, u_bar0, row)) is None:
            break
        limits.append(limit)
    if len(limits) == 2:
        final_limit = SpectralField(cfg.K, cfg.n, limits[0][-1])
        report["qv_limit_final"] = float(np.mean(quadratic_variation(final_limit, max(8, cfg.K // 4))))
        for e, eps_table in enumerate(eps_tables):
            approx = run(eps_table, v0 + draw.field(eps_table.sigma), "approximate")
            if approx is None:
                continue
            # one limit run's differences at a time: stacking both raised
            # the peak memory of a K = 1024 replicate by about 1 MiB
            for c, limit in enumerate(limits):
                diff = approx - limit  # at every recorded step
                errors[e, c] = sup_norms(diff)
                errors[e, 2 + c] = sobolev_norms(diff, ALPHA)
            blown_up[e] = False
    report["wall_s"] = round(time.perf_counter() - start, 6)
    return errors, blown_up, report


@dataclass(frozen=True)
class EnsembleResult:
    """The coupled errors of one experiment family and their statistics.

    ``errors[r, e]`` holds replicate r's ERRORS columns at ``eps_list[e]``
    over ``times``; ``blown_up[r, e]`` marks the pairs whose eps run or a
    limit run blew up, whose rows are NaN.
    """

    eps_list: tuple
    times: np.ndarray
    errors: np.ndarray  # (R, E, 4, S)
    blown_up: np.ndarray  # (R, E) bool
    lam: float
    # one report per replicate, in replicate order (see _run_replicate);
    # it carries wall times, so it goes to the manifest only
    replicates: tuple = ()

    @property
    def blowup_fraction(self):
        return int(np.count_nonzero(self.blown_up)) / self.blown_up.size

    def mean_curves(self, eps):
        """Ensemble means over the surviving replicates of the four error
        time series, by ERRORS name, and the times under ``"t"``."""
        e = self.eps_list.index(eps)
        ok = ~self.blown_up[:, e]
        if not ok.any():
            raise ValueError(f"no surviving replicates at eps = {eps}")
        return {"t": self.times, **dict(zip(ERRORS, np.mean(self.errors[ok, e], axis=0)))}

    def summary(self):
        """Per-eps mean and standard error of the trajectory-max sup errors.

        The standard error needs two surviving replicates; with one it is
        None, like every statistic of an eps with none.
        """
        rows = []
        for e, eps in enumerate(self.eps_list):
            ok = ~self.blown_up[:, e]
            nn = int(np.count_nonzero(ok))
            row = {"eps": eps, "n_ok": nn, "n_blowup": ok.size - nn}
            for c, name in enumerate(("corrected", "uncorrected")):
                # each survivor's maximum over time
                row[f"mean_sup_{name}"], row[f"se_sup_{name}"] = mean_stderr(self.errors[ok, e, c].max(axis=1))
            rows.append(row)
        return rows


def run_coupled(cfg, eps_list, replicates, workers=1):
    """Coupled ensemble: per replicate, one corrected and one uncorrected
    limit run plus one discretized run per eps, all on the same Wiener
    stream; per-eps error statistics aggregated over replicates.

    ``cfg`` is the config of the uncorrected limit run, so its eps is None
    (ValueError otherwise); the run at eps e is replace(cfg, eps=e).

    Results are independent of `workers` (replicates are self-contained and
    output order is canonical).  At most one worker process per replicate
    is started, and none when that leaves one: the replicates then run in
    this process.  Every run's config is made, and so checked, and its
    ModeTable built before any replicate starts.  Lambda is resolved once,
    into the corrected limit run's drift F - Lambda Laplacian(G); that run
    shares the per-mode arrays of the uncorrected one, as only F differs.
    """
    if cfg.eps is not None:
        raise ValueError(f"run_coupled takes the limit run's config, with eps None, got eps = {cfg.eps}")
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list:
        raise ValueError("need at least one eps")
    if len(set(eps_list)) < len(eps_list):
        raise ValueError(f"eps values must be distinct, got {eps_list}")
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    eps_tables = tuple(mode_table(replace(cfg, eps=eps)) for eps in eps_list)
    uncorrected = mode_table(cfg)
    lam, _ = resolve_lambda(cfg)
    corrected = replace(uncorrected, cfg=replace(cfg, F=corrected_drift(cfg.F, cfg.G, lam)))
    run = partial(_run_replicate, (corrected, uncorrected), eps_tables)
    # a forked pool starts all its workers at the first task, busy or not
    workers = min(workers, replicates)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(run, range(replicates)))
    else:
        per_rep = list(map(run, range(replicates)))
    errors, blown_up, reports = zip(*per_rep)
    times = np.array(sample_steps(cfg), dtype=float) * cfg.dt
    return EnsembleResult(eps_list, times, np.stack(errors), np.stack(blown_up), lam, reports)
