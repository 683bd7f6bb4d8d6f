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

with lam_k the diffusion rate of the variant (nu k^2, or nu k^2 f(eps|k|)
with modes killed where f = +inf) and m_k the noise filter (h(eps|k|), or 1
for the limit equation).  The factor g (g(0) = 1, g(inf) = 0) injects each
step's noise with exactly the integrated Ornstein-Uhlenbeck variance, so
the per-mode stationary law of the linear part is m_k^2/(2 lam_k) at every
step size.  Transporting the raw increment by the semigroup instead would
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

The limit equation carries the flux in conservative form d/dx G(u); the
discretized equation applies the literal nonconservative product
grad G(u) . D_eps u, which is exactly the object whose limit acquires the
drift correction.
"""

import math
from dataclasses import dataclass, field, replace
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .correction import (
    corrected_drift,
    lambda_closed_form_for_scheme,
    lambda_quadrature,
)
from .estimators import quadratic_variation
from .noise import (
    ModeGaussianDraw,
    derive_stream,
    discrete_sigmas,
    stationary_sigmas,
    wiener_increment_coeffs,
)
from .nonlin import PolynomialMap, alias_free_grid_size, evaluate, jacobian
from .schemes import d_eps_multiplier
from .spectral import (
    SpectralField,
    embed,
    half_to_values,
    sobolev_norms,
    sup_norms,
    values_to_half,
)

# Not used here since the stepper works on half spectra, the errors are
# taken as stacks and no diagnostic takes xi_eps, but kept as module
# attributes: perfbench/spans.py wraps each function under every module
# name its callers have looked it up by, and checks that the names still
# exist.
from .estimators import xi_eps  # noqa: F401
from .spectral import coeffs_to_values, sobolev_norm, sup_norm, values_to_coeffs  # noqa: F401

VARIANTS = ("approximate", "limit_corrected", "limit_uncorrected")


class BlowUpError(RuntimeError):
    """State left the finite range; carries the last valid time."""

    def __init__(self, time):
        super().__init__(f"solution blew up after t = {time:.6g}")
        self.time = time


@dataclass
class SimConfig:
    """Complete description of one experiment."""

    nu: float
    n: int
    K: int
    dt: float
    T: float
    eps: float
    scheme: object
    F: PolynomialMap
    G: PolynomialMap
    lambda_mode: str = "closed_form"  # quadrature | closed_form | explicit | zero
    lambda_value: float | None = None
    lambda_tol: float = 1e-8
    v0: SpectralField | None = None  # band-limited smooth profile; None = zero
    seed: int = 0
    variant: str = "approximate"
    alpha: float = 0.75  # Sobolev order used for error recording
    sample_every: int = 25
    noise_substeps: int = 1

    def __post_init__(self):
        for name in ("nu", "dt", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("nu", "T", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("n", "K", "sample_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.T >= self.dt:
            raise ValueError(f"horizon T = {self.T} shorter than one step dt = {self.dt}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"T/dt must be integral, got T = {self.T}, dt = {self.dt}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.F.n != self.n or self.G.n != self.n:
            raise ValueError("drift and flux must have n components")
        if self.noise_substeps < 1:
            raise ValueError("noise_substeps must be >= 1")
        if self.v0 is not None:
            if self.v0.n != self.n:
                raise ValueError("v0 component count mismatch")
            if self.v0.K > self.K:
                raise ValueError("v0 is not band-limited within K")
            if self.v0.K < self.K:
                self.v0 = embed(self.v0, self.K)

    @property
    def n_steps(self):
        return round(self.T / self.dt)

    def v0_field(self):
        return self.v0 if self.v0 is not None else SpectralField.zeros(self.K, self.n)


def resolve_lambda(cfg):
    """Correction constant per the configured mode; returns (value, detail)."""
    if cfg.lambda_mode == "zero":
        return 0.0, None
    if cfg.lambda_mode == "explicit":
        if cfg.lambda_value is None:
            raise ValueError("explicit lambda_mode requires lambda_value")
        return float(cfg.lambda_value), None
    if cfg.lambda_mode == "closed_form":
        res = lambda_closed_form_for_scheme(cfg.scheme, cfg.nu)
        return res.value, res
    if cfg.lambda_mode == "quadrature":
        res = lambda_quadrature(cfg.scheme, cfg.nu, cfg.lambda_tol)
        return res.value, res
    raise ValueError(f"unknown lambda_mode {cfg.lambda_mode!r}")


def _phi1(z):
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _ou_noise_factor(z):
    """sqrt((1 - e^(-2z))/(2z)) elementwise; 1 at z = 0, 0 at z = inf."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    pos = (z > 0.0) & np.isfinite(z)
    out[pos] = np.sqrt(-np.expm1(-2.0 * z[pos]) / (2.0 * z[pos]))
    out[np.isinf(z)] = 0.0
    return out


class Stepper:
    """Precomputed exponential-Euler update for one (variant, eps) run.

    States, increments and every per-mode factor live on k = 0..K (half
    spectra, see the module docstring).  The factors are even in k, or
    Hermitian for ``d_mult`` and ``ik``, so this is the two-sided update
    restricted to modes 0..K; mode 0 stays real because every term feeding
    it is.
    """

    def __init__(self, cfg, lam):
        cfg.scheme.require_valid()
        self.cfg = cfg
        K = cfg.K
        k = np.arange(K + 1, dtype=float)
        # the corrected drift F - lam Laplacian(G) never exceeds this degree
        self.M = alias_free_grid_size(K, max(cfg.F.degree, cfg.G.degree))

        if cfg.variant == "approximate":
            fv = cfg.scheme.f_at(cfg.eps * np.abs(k))
            lam_k = np.where(np.isfinite(fv), cfg.nu * k**2 * np.where(np.isfinite(fv), fv, 0.0), np.inf)
            self.m = cfg.scheme.h_at(cfg.eps * np.abs(k))
            self.drift = cfg.F
        else:
            lam_k = cfg.nu * k**2
            self.m = np.ones_like(k)
            self.drift = corrected_drift(cfg.F, cfg.G, lam) if cfg.variant == "limit_corrected" else cfg.F

        killed = ~np.isfinite(lam_k)
        z = np.where(killed, -np.inf, -lam_k * cfg.dt)
        self.decay = np.where(killed, 0.0, np.exp(np.where(killed, 0.0, z)))
        self.phi1_dt = np.where(killed, 0.0, cfg.dt * _phi1(np.where(killed, 0.0, z)))
        self.noise_fac = np.where(killed, 0.0, self.m) * _ou_noise_factor(
            np.where(killed, np.inf, lam_k * cfg.dt)
        )

        self.d_mult = d_eps_multiplier(cfg.scheme, cfg.eps, np.arange(K + 1))
        self.ik = 1j * k
        self.jac_G = jacobian(cfg.G)
        self.G_zero = cfg.G.is_zero()
        self.drift_zero = self.drift.is_zero()
        n = cfg.n
        # the nonzero entries (i, j, dG_i/du_j) of the Jacobian, row by row
        self.jac_terms = [(i, j, self.jac_G[i][j]) for i in range(n) for j in range(n) if self.jac_G[i][j].terms]

        # Scratch, owned by this stepper and overwritten by every step; no
        # step returns a view of it.  The padded spectrum of the transforms
        # to the grid (zero above mode K, so only its first K+1 columns are
        # ever written), the approximate variant's stack of the state and its
        # D_eps derivative, and the grid arrays that go back to the band.
        half_width = self.M // 2 + 1
        if cfg.variant == "approximate":
            self.padded = np.zeros((2 * n, half_width), dtype=np.complex128)
            self.stack = np.empty((2 * n, K + 1), dtype=np.complex128)
            self.grid_out = np.empty((n, self.M))
        else:
            self.padded = np.zeros((n, half_width), dtype=np.complex128)
            self.grid_out = np.empty((2 * n, self.M))  # drift rows, then flux rows

    def nonlinearity(self, half):
        """Half spectrum of the drift-plus-flux term for this variant.

        Arrays that go through the same transform are stacked into one call:
        the state and its D_eps derivative on the way to the grid, the drift
        and the conservative flux on the way back.
        """
        cfg = self.cfg
        n, K, M = cfg.n, cfg.K, self.M
        if self.drift_zero and self.G_zero:
            return 0.0
        if self.G_zero:
            grid = half_to_values(half, M, self.padded[:n])
            return values_to_half(evaluate(self.drift, grid, self.grid_out[:n]), K)
        if cfg.variant == "approximate":
            stack = self.stack
            stack[:n] = half
            np.multiply(half, self.d_mult, out=stack[n:])
            both = half_to_values(stack, M, self.padded)
            grid, dgrid = both[:n], both[n:]
            total = self.grid_out
            if self.drift_zero:
                total.fill(0.0)
            else:
                evaluate(self.drift, grid, total)
            for i, j, entry in self.jac_terms:
                total[i] += entry(grid) * dgrid[j]
            return values_to_half(total, K)
        grid = half_to_values(half, M, self.padded)
        if self.drift_zero:
            return self.ik * values_to_half(evaluate(cfg.G, grid, self.grid_out[:n]), K)
        both_grid = self.grid_out
        evaluate(self.drift, grid, both_grid[:n])
        evaluate(cfg.G, grid, both_grid[n:])
        both = values_to_half(both_grid, K)
        return both[:n] + self.ik * both[n:]

    def step_coeffs(self, half, dW_half):
        """One step of the half-spectrum state; None once it is non-finite."""
        # non-finite states are legitimate here: they signal blow-up, which
        # the caller turns into BlowUpError, so silence the transient warnings
        with np.errstate(over="ignore", invalid="ignore"):
            N = self.nonlinearity(half)
            new = self.decay * half
            new += self.phi1_dt * N
            new += self.noise_fac * dW_half
        if not np.isfinite(new).all():
            return None
        return new


def sample_steps(cfg):
    """Recorded step indices: every sample_every steps plus the final step."""
    idx = list(range(0, cfg.n_steps + 1, cfg.sample_every))
    if idx[-1] != cfg.n_steps:
        idx.append(cfg.n_steps)
    return idx


def simulate(cfg, lam, u0, wiener_rng, record_steps=None):
    """Run one trajectory; returns (times, half) at the recorded steps.

    ``half`` is one (steps, n, K+1) array of the half-spectrum states at the
    recorded steps, in step order.  The Wiener stream is consumed in a fixed
    order (noise_substeps draws per step, summed), so any two runs holding
    generators derived from the same key see the same increments.  Raises
    BlowUpError at the first non-finite state.
    """
    if record_steps is None:
        record_steps = sample_steps(cfg)
    steps = sorted({m for m in record_steps if 0 <= m <= cfg.n_steps})
    slot = {m: i for i, m in enumerate(steps)}
    stepper = Stepper(cfg, lam)
    half = u0.half
    records = np.empty((len(steps), cfg.n, cfg.K + 1), dtype=np.complex128)
    if 0 in slot:
        records[0] = half
    sub = cfg.noise_substeps
    dt_sub = cfg.dt / sub
    for m in range(1, cfg.n_steps + 1):
        dW = wiener_increment_coeffs(cfg.K, cfg.n, dt_sub, wiener_rng)
        for _ in range(sub - 1):
            dW += wiener_increment_coeffs(cfg.K, cfg.n, dt_sub, wiener_rng)
        half = stepper.step_coeffs(half, dW)
        if half is None:
            raise BlowUpError((m - 1) * cfg.dt)
        if m in slot:
            records[slot[m]] = half
    times = np.array([m * cfg.dt for m in steps])
    return times, records


# -- coupled ensembles ---------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """Error time series of one (replicate, eps) coupled comparison."""

    eps: float
    replicate: int
    times: np.ndarray
    sup_err_corrected: np.ndarray
    sup_err_uncorrected: np.ndarray
    halpha_err_corrected: np.ndarray
    halpha_err_uncorrected: np.ndarray
    blown_up: bool = False
    blowup_time: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def max_sup_corrected(self):
        return float(np.max(self.sup_err_corrected))

    @property
    def max_sup_uncorrected(self):
        return float(np.max(self.sup_err_uncorrected))


def _run_replicate(cfg, eps_list, replicate, lam):
    """All runs of one replicate: two limit runs plus one discretized run
    per eps, sharing the mode draw and the Wiener stream."""
    record_steps = sample_steps(cfg)
    draw = ModeGaussianDraw.sample(cfg.K, cfg.n, derive_stream(cfg.seed, replicate, "ic"))
    v0 = cfg.v0_field()
    psi = draw.field(stationary_sigmas(cfg.K, cfg.nu))
    u_bar0 = v0 + psi

    def flagged_record(eps, blowup_time):
        nanv = np.full(len(record_steps), np.nan)
        return TrajectoryRecord(
            eps,
            replicate,
            np.array(record_steps, dtype=float) * cfg.dt,
            nanv,
            nanv.copy(),
            nanv.copy(),
            nanv.copy(),
            blown_up=True,
            blowup_time=blowup_time,
        )

    limits = []  # corrected, then uncorrected
    try:
        for variant in ("limit_corrected", "limit_uncorrected"):
            run_cfg = replace(cfg, variant=variant)
            rng = derive_stream(cfg.seed, replicate, "wiener")
            limits.append(simulate(run_cfg, lam, u_bar0, rng, record_steps)[1])
    except BlowUpError as err:
        # a limit run left the finite range: the whole replicate is flagged
        return [flagged_record(eps, err.time) for eps in eps_list]
    final_limit = SpectralField(cfg.K, cfg.n, limits[0][-1])

    records = []
    for eps in eps_list:
        run_cfg = replace(cfg, eps=eps, variant="approximate")
        psit = draw.field(discrete_sigmas(cfg.scheme, eps, cfg.nu, cfg.K))
        u0 = v0 + psit
        rng = derive_stream(cfg.seed, replicate, "wiener")
        try:
            times, approx = simulate(run_cfg, lam, u0, rng, record_steps)
        except BlowUpError as err:
            records.append(flagged_record(eps, err.time))
            continue
        # Stack the differences to one limit run at a time: one stack of
        # both, or both kept, raised the peak memory of a K = 1024 replicate
        # by about 1 MiB.
        sup, halpha = [], []
        for limit in limits:
            diff = approx - limit  # at every recorded step
            sup.append(sup_norms(diff))
            halpha.append(sobolev_norms(diff, cfg.alpha))
        diagnostics = {
            "qv_limit_final": float(np.mean(quadratic_variation(final_limit, max(8, cfg.K // 4)))),
        }
        records.append(
            TrajectoryRecord(
                eps,
                replicate,
                times,
                *sup,
                *halpha,
                diagnostics=diagnostics,
            )
        )
    return records


def _replicate_worker(args):
    cfg, eps_list, replicate, lam = args
    return _run_replicate(cfg, eps_list, replicate, lam)


@dataclass
class EnsembleResult:
    """Aggregated coupled-error statistics for one experiment family."""

    eps_list: tuple
    times: np.ndarray
    records: list
    lam: float

    @property
    def blowup_fraction(self):
        return sum(r.blown_up for r in self.records) / len(self.records)

    def records_for(self, eps):
        return [r for r in self.records if r.eps == eps and not r.blown_up]

    def blowup_count(self, eps=None):
        return sum(
            1 for r in self.records if r.blown_up and (eps is None or r.eps == eps)
        )

    def mean_curves(self, eps):
        """Ensemble means over replicates of the four error time series."""
        recs = self.records_for(eps)
        if not recs:
            raise ValueError(f"no surviving replicates at eps = {eps}")
        stack = lambda name: np.mean([getattr(r, name) for r in recs], axis=0)
        return {
            "t": self.times,
            "sup_err_corrected": stack("sup_err_corrected"),
            "sup_err_uncorrected": stack("sup_err_uncorrected"),
            "halpha_err_corrected": stack("halpha_err_corrected"),
            "halpha_err_uncorrected": stack("halpha_err_uncorrected"),
        }

    def summary(self):
        """Per-eps mean and standard error of the trajectory-max sup errors.

        The standard error needs two surviving replicates; with one it is
        None, like every statistic of an eps with none.
        """
        rows = []
        for eps in self.eps_list:
            recs = self.records_for(eps)
            nn = len(recs)
            row = {"eps": eps, "n_ok": nn, "n_blowup": self.blowup_count(eps)}
            if nn:
                mc = np.array([r.max_sup_corrected for r in recs])
                mu = np.array([r.max_sup_uncorrected for r in recs])
                row.update(
                    mean_sup_corrected=float(np.mean(mc)),
                    se_sup_corrected=float(np.std(mc, ddof=1) / np.sqrt(nn)) if nn > 1 else None,
                    mean_sup_uncorrected=float(np.mean(mu)),
                    se_sup_uncorrected=float(np.std(mu, ddof=1) / np.sqrt(nn)) if nn > 1 else None,
                )
            else:
                row.update(
                    mean_sup_corrected=None,
                    se_sup_corrected=None,
                    mean_sup_uncorrected=None,
                    se_sup_uncorrected=None,
                )
            rows.append(row)
        return rows


def run_coupled(cfg, eps_list, replicates, workers=1):
    """Coupled ensemble: per replicate, one corrected and one uncorrected
    limit run plus one discretized run per eps, all on the same Wiener
    stream; per-eps error statistics aggregated over replicates.

    Results are independent of `workers` (replicates are self-contained and
    output order is canonical).
    """
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list:
        raise ValueError("need at least one eps")
    lam, _ = resolve_lambda(cfg)
    tasks = [(cfg, eps_list, r, lam) for r in range(replicates)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replicate_worker, tasks))
    else:
        per_rep = [_replicate_worker(t) for t in tasks]
    records = [rec for rep in per_rep for rec in rep]
    records.sort(key=lambda r: (r.eps, r.replicate))
    times = np.array(sample_steps(cfg), dtype=float) * cfg.dt
    return EnsembleResult(eps_list, times, records, lam)
