"""Batch experiment runner.

Subcommands wire schemes through the correction constant into coupled
simulations and the diagnostic estimators, with plain-text outputs:

    lambda    correction constant of a scheme (JSON)
    converge  coupled ensemble error tables + summary (CSV + JSON)
    chaos     tensor-expectation and negative-Sobolev slope study (CSV)
    qv        quadratic-variation report (JSON)

Every run writes a manifest listing each output file with its SHA-256
digest; identical configs and seeds reproduce identical digests whatever
the worker count, since replicate tasks are self-contained and outputs are
ordered canonically.  A converge run is fixed by its run config (see
runconfig), the files that config names, and --seed.

Exit codes: 0 ok, 2 validation failure, 3 blow-up quota exceeded,
4 quadrature non-convergence.  A command returns 0 or 3, or raises; ``main``
is the one place that turns an error into its message and exit code.
"""

import argparse
import errno
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .correction import (
    DEFAULT_CHI,
    DEFAULT_GAMMA,
    LAMBDA_TOL,
    QuadratureError,
    chaos_band,
    lambda_closed_form_for_scheme,
    lambda_eps,
    lambda_eps_y,
    lambda_quadrature,
)
from .estimators import (
    difference_grids,
    expected_qv,
    mean_stderr,
    negative_sobolev_distances,
    quadratic_variation,
    rate_fit,
    spatial_means,
    xi_grid_size,
    xi_halves,
)
from .integrator import ERRORS, resolve_lambda, run_coupled
from .noise import derive_stream, discrete_sigmas, sample_stationary_pair, stationary_sigmas, ModeGaussianDraw
from .runconfig import InputError, eps_ladder, load_run_config
from .schemes import SchemeValidationError, identity_scheme, load_scheme_file
from .spectral import band_project, sup_norm

# Not used here since chaos takes its tensors and distances as stacks, but
# kept as module attributes: perfbench/spans.py wraps each function under
# every module name its callers have looked it up by, and checks that the
# names still exist (ROADMAP item 1).
from .estimators import negative_sobolev_distance, xi_eps, xi_eps_y  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_QUADRATURE = 4


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _digest(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


class Manifest:
    """Provenance record: config echo, seed, versions, digests, timings."""

    def __init__(self, command, seed, config_echo="", extra=None):
        self.data = {
            "command": command,
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "seed": seed,
            "config_echo": config_echo,
            "config_sha256": hashlib.sha256(config_echo.encode()).hexdigest(),
            "outputs": {},
            "wall_clock_seconds": {},
        }
        if extra:
            self.data.update(extra)
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    def stage(self, name):
        now = time.perf_counter()
        self.data["wall_clock_seconds"][name] = round(now - self._stage_start, 6)
        self._stage_start = now

    def add_output(self, path):
        self.data["outputs"][Path(path).name] = _digest(path)

    def write(self, path):
        self.data["wall_clock_seconds"]["total"] = round(
            time.perf_counter() - self._t0, 6
        )
        Path(path).write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _require(ok, message):
    if not ok:
        raise InputError(message)


def _positive(x):
    return x > 0 and math.isfinite(x)


def _load_scheme(path):
    try:
        return load_scheme_file(path)
    except SchemeValidationError:
        raise  # a ValueError too, but main reports it as it is
    except (OSError, ValueError) as err:
        raise InputError(f"invalid scheme file {path}: {err}") from err


def _out_dir(path, make, names=(), named_by=None):
    """The output directory ``path``, made if ``make``.  It must be a
    writable directory, or else the nearest path above it that exists must
    be one, and each name still to be made must fit that file system's name
    length, so that it can be made, as must each file name in ``names``
    that the command will write there (too long a one is reported as set by
    ``named_by``); otherwise InputError, with nothing made.  A dry run
    checks it the same way, without ``make``."""
    out = Path(path)
    above = next(p for p in (out, *out.absolute().parents) if os.path.lexists(p))
    try:
        if not (above.is_dir() and os.access(above, os.W_OK | os.X_OK)):
            raise NotADirectoryError(f"{above} is not a writable directory")
        name_max = os.pathconf(above, "PC_NAME_MAX")
        for name in out.absolute().relative_to(above.absolute()).parts:
            if len(os.fsencode(name)) > name_max:
                raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), name)
        for name in names:
            if len(os.fsencode(name)) > name_max:
                raise InputError(f"{named_by} gives the file name {name!r}, over the {name_max} bytes {above} takes")
        if make:
            out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InputError(f"--out {path} cannot be used as the output directory: {err}") from None
    return out


# -- lambda ---------------------------------------------------------------------


def cmd_lambda(args):
    _require(_positive(args.nu), f"--nu must be positive, got {args.nu}")
    _require(_positive(args.tol), f"--tol must be positive, got {args.tol}")
    scheme = _load_scheme(args.scheme)
    if args.closed_form:
        # only a builtin family with admissible offsets has one; know that
        # before the quadrature runs
        try:
            oracle = lambda_closed_form_for_scheme(scheme, args.nu)
        except ValueError as err:
            raise InputError(f"--closed-form: {err}") from None
    if args.dry_run:
        print(json.dumps({"scheme": scheme.name, "valid": True, "dry_run": True}))
        return EXIT_OK
    res = lambda_quadrature(scheme, args.nu, args.tol)
    payload = res.to_dict()
    if args.closed_form:
        payload["closed_form"] = oracle.value
        payload["difference"] = res.value - oracle.value
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# -- converge ---------------------------------------------------------------------


def _gnuplot_script(prefix, eps_list):
    lines = [
        "# gnuplot script for the coupled-error tables",
        "set logscale y",
        "set xlabel 't'",
        "set ylabel 'ensemble mean sup error'",
        "set key left top",
        "plot \\",
    ]
    parts = []
    for eps in eps_list:
        stem = f"{prefix}_eps{eps:g}.csv"
        parts.append(
            f"  '{stem}' using 1:2 with lines title 'corrected eps={eps:g}', \\\n"
            f"  '{stem}' using 1:3 with lines dashtype 2 title 'uncorrected eps={eps:g}'"
        )
    lines.append(", \\\n".join(parts))
    return "\n".join(lines) + "\n"


def _summary_line(row):
    """One eps row of ``EnsembleResult.summary`` as converge prints it."""
    if not row["n_ok"]:
        return f"eps={row['eps']:g}: no surviving replicates ({row['n_blowup']} blowups)"
    se = {key: "n/a" if row[key] is None else f"{row[key]:.2g}" for key in ("se_sup_corrected", "se_sup_uncorrected")}
    return (
        f"eps={row['eps']:g}: sup corrected {row['mean_sup_corrected']:.4g} "
        f"(se {se['se_sup_corrected']}), uncorrected {row['mean_sup_uncorrected']:.4g} "
        f"(se {se['se_sup_uncorrected']}), blowups {row['n_blowup']}"
    )


def _qv_limit_summary(result, nu):
    """Ensemble mean and standard error of the grid quadratic variation of
    the final corrected limit state, next to the stationary density pi/nu
    it approaches.  Each replicate whose limit runs survived reports one
    value; the mean needs one and the standard error two, else they are
    None."""
    qv = [r["qv_limit_final"] for r in result.replicates if r["qv_limit_final"] is not None]
    mean, stderr = mean_stderr(qv)
    return {"n": len(qv), "mean": mean, "stderr": stderr, "pi_over_nu": math.pi / nu}


def cmd_converge(args):
    # read every input and resolve Lambda before anything is written; the
    # run takes the resolved value, so Lambda is computed once
    try:
        spec = load_run_config(args.config)
        cfg = spec.sim_config(seed=args.seed)
        lam, lam_result = resolve_lambda(cfg)
    except SchemeValidationError:
        raise  # a ValueError too, but main reports it as it is
    except (OSError, ValueError) as err:
        raise InputError(f"invalid run config {args.config}: {err}") from err
    tails = [f"_eps{eps:g}.csv" for eps in spec.eps_list] + ["_scaling.csv", "_summary.json", "_plot.gp", "_manifest.json"]
    names = [spec.output_prefix + tail for tail in tails]
    prefix = _out_dir(args.out, not args.dry_run, names, "[output] prefix") / spec.output_prefix

    if args.dry_run:
        plan = {
            "dry_run": True,
            "scheme": spec.scheme.name,
            "eps": list(spec.eps_list),
            "replicates": spec.replicates,
            "steps": cfg.n_steps,
            "lambda": lam,
            "config_sha256": spec.content_hash(),
        }
        print(json.dumps(plan, sort_keys=True))
        return EXIT_OK

    # how Lambda was obtained, and the scheme's validation report; manifests
    # are not digested, so this moves no output byte
    lambda_record = {"lambda_mode": cfg.lambda_mode, "value": lam}
    if lam_result is not None:
        lambda_record.update(method=lam_result.method, abs_error_estimate=lam_result.abs_error_estimate)
    manifest = Manifest(
        "converge", args.seed, spec.echo, extra={"lambda": lambda_record, "scheme_validation": spec.scheme.validation.summary()}
    )
    resolved = replace(cfg, lambda_mode="explicit", lambda_value=lam)
    result = run_coupled(resolved, spec.eps_list, spec.replicates, workers=args.workers)
    manifest.data["diagnostics"] = {"qv_limit_final": _qv_limit_summary(result, cfg.nu)}
    # per replicate: wall seconds, and the steps and any blow-up of each run
    manifest.data["replicates"] = result.replicates
    manifest.stage("simulation")

    outputs = []
    columns = ("t",) + ERRORS
    for e, eps in enumerate(spec.eps_list):
        if result.blown_up[:, e].all():
            print(f"eps={eps:g}: every replicate blew up; no table written", file=sys.stderr)
            continue
        curves = result.mean_curves(eps)
        path = f"{prefix}_eps{eps:g}.csv"
        _write_csv(path, columns, zip(*(curves[name].tolist() for name in columns)))
        outputs.append(path)

    # initial-coupling scaling table: E||psi_tilde(0) - psi(0)||_sup per eps
    scaling_rows = []
    for eps in spec.eps_list:
        sigma = discrete_sigmas(cfg.scheme, eps, cfg.nu, cfg.K)
        vals = []
        for rep in range(spec.replicates):
            draw = ModeGaussianDraw.sample(cfg.K, cfg.n, derive_stream(cfg.seed, rep, "ic"))
            psi = draw.field(stationary_sigmas(cfg.K, cfg.nu))
            psit = draw.field(sigma)
            vals.append(sup_norm(psit - psi))
        scaling_rows.append((eps, *mean_stderr(vals), len(vals)))
    scaling_path = f"{prefix}_scaling.csv"
    _write_csv(scaling_path, ["eps", "mean", "stderr", "n_samples"], scaling_rows)
    outputs.append(scaling_path)
    manifest.stage("scaling_table")

    summary_rows = result.summary()
    slopes = {}
    if len(spec.eps_list) >= 3 and all(r["n_ok"] > 0 for r in summary_rows):
        corr_means = [r["mean_sup_corrected"] for r in summary_rows]
        if all(v > 0 for v in corr_means):
            slopes["sup_corrected"] = rate_fit(spec.eps_list, corr_means)[0]
        coupling_means = [row[1] for row in scaling_rows]
        if all(v > 0 for v in coupling_means):
            slopes["initial_coupling"] = rate_fit(spec.eps_list, coupling_means)[0]
    summary = {
        "config_sha256": spec.content_hash(),
        "seed": args.seed,
        "lambda": result.lam,
        "eps": list(spec.eps_list),
        "replicates": spec.replicates,
        "blowup_fraction": result.blowup_fraction,
        "per_eps": summary_rows,
        "fitted_slopes": slopes,
    }
    summary_path = f"{prefix}_summary.json"
    Path(summary_path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(summary_path)

    plot_path = f"{prefix}_plot.gp"
    Path(plot_path).write_text(_gnuplot_script(prefix.name, spec.eps_list))
    outputs.append(plot_path)
    manifest.stage("reports")

    for path in outputs:
        manifest.add_output(path)
    manifest.write(f"{prefix}_manifest.json")

    for row in summary_rows:
        print(_summary_line(row))
    if result.blowup_fraction > 0.2:
        print(
            f"blow-up fraction {result.blowup_fraction:.1%} exceeds the 20% quota",
            file=sys.stderr,
        )
        return EXIT_BLOWUP
    return EXIT_OK


# -- chaos ---------------------------------------------------------------------


# Grid points of one chaos chunk: each eps takes its samples in chunks of as
# many as fit on its tensor grid (at least one), which bounds each of
# the chunk's grids at about _CHAOS_POINTS doubles, whatever --samples is
# (40 samples at K = 125, 5 at K = 1000).
_CHAOS_POINTS = 1 << 14


def cmd_chaos(args):
    """Second-chaos study over stationary samples of the discretized
    equation, band-projected to eps^-gamma < |k| <= eps^-chi (the modes of
    ``chaos_band``, over which ``lambda_eps_y`` sums).

    Each eps draws its samples one pair at a time from its own stream and
    processes them in chunks of as many samples as fit in ``_CHAOS_POINTS``
    grid points (at least one): the chunk's draws are stacked into one, scaled by the discrete sigmas and
    the band mask, and each live atom's difference grid is taken once for
    the whole chunk, serving both that atom's tensor mean (E xi_eps_y ->
    Lambda_eps_y) and the weighted tensor xi_eps whose H^-alpha distance to
    Lambda_eps * Identity is recorded.  Every row is bitwise its one-sample
    computation, so the chunk size moves no output byte.
    """
    nu, gamma, chi, alpha = args.nu, DEFAULT_GAMMA, DEFAULT_CHI, 0.75
    eps_list = eps_ladder(args.eps, "--eps")
    # the band eps^-gamma < |k| <= eps^-chi is empty or inverted unless eps < 1
    _require(max(eps_list) < 1, f"--eps values must be below 1, got {list(eps_list)}")
    bands = {eps: chaos_band(eps, gamma, chi) for eps in eps_list}
    empty = [eps for eps, (k_lo, k_hi) in bands.items() if k_lo > k_hi]
    _require(not empty, f"--eps values {empty} leave no integer mode k with eps^-{gamma:.4g} < k <= eps^-{chi:g}")
    _require(_positive(nu), f"--nu must be positive, got {nu}")
    _require(args.samples >= 2, f"--samples must be at least 2, got {args.samples}")
    scheme = _load_scheme(args.scheme)
    out = _out_dir(args.out, make=not args.dry_run)
    if args.dry_run:
        print(json.dumps({"scheme": scheme.name, "eps": list(eps_list), "dry_run": True}))
        return EXIT_OK
    manifest = Manifest("chaos", args.seed, extra={"scheme": scheme.name})

    atom_rows, dist_rows, per_eps = [], [], []
    for i, eps in enumerate(sorted(eps_list, reverse=True)):
        start = time.perf_counter()
        k_lo, k_hi = bands[eps]
        K = int(np.ceil(eps**-chi))
        M = xi_grid_size(K)
        chunk = max(1, _CHAOS_POINTS // M)
        lam_eps = lambda_eps(scheme, eps, gamma, chi, nu)
        sigma = discrete_sigmas(scheme, eps, nu, K)
        rng = derive_stream(args.seed, i, "chaos")
        atom_means = {y: [] for y, w in scheme.mu if w != 0.0 and y != 0.0}
        dists = []
        for lo in range(0, args.samples, chunk):
            draw = ModeGaussianDraw.stack(
                [sample_stationary_pair(scheme, eps, nu, K, rng).draw for _ in range(min(chunk, args.samples - lo))]
            )
            half = band_project(draw.field(sigma), k_lo - 1, k_hi).half[:, None, :]
            grids = difference_grids(half, scheme.mu, eps)
            # an atom repeated in mu has the same grid, and one mean
            for y, d in {y: d for y, _, d in grids}.items():
                atom_means[y].append(spatial_means(xi_halves(half.shape, [(y, 1.0, d)], eps))[:, 0, 0])
            dists.append(negative_sobolev_distances(xi_halves(half.shape, grids, eps), lam_eps, alpha))
        for y, vals in sorted(atom_means.items()):
            vals = np.concatenate(vals)
            atom_rows.append((eps, y, *mean_stderr(vals), vals.size, lambda_eps_y(scheme, eps, gamma, chi, nu, y)))
        dists = np.concatenate(dists)
        dist_rows.append((eps, *mean_stderr(dists), dists.size))
        per_eps.append(
            {"eps": eps, "K": K, "M": M, "samples_per_chunk": chunk, "sampling_s": round(time.perf_counter() - start, 6)}
        )
    manifest.data["per_eps"] = per_eps
    manifest.stage("sampling")

    atom_path = out / "chaos_atoms.csv"
    _write_csv(
        atom_path,
        ["eps", "y", "mean", "stderr", "n_samples", "lambda_eps_y"],
        atom_rows,
    )
    dist_path = out / "chaos_distance.csv"
    _write_csv(dist_path, ["eps", "mean", "stderr", "n_samples"], dist_rows)

    summary = {"eps": sorted(eps_list, reverse=True)}
    if len(dist_rows) >= 3:
        slope, intercept, residual = rate_fit(
            [r[0] for r in dist_rows], [r[1] for r in dist_rows]
        )
        summary["distance_slope"] = slope
        summary["distance_residual"] = residual
    print(json.dumps(summary, sort_keys=True))
    manifest.stage("reports")
    for path in (atom_path, dist_path):
        manifest.add_output(path)
    manifest.write(out / "chaos_manifest.json")
    return EXIT_OK


# -- qv ---------------------------------------------------------------------


def cmd_qv(args):
    _require(args.K >= 1, f"--K must be at least 1, got {args.K}")
    _require(args.M >= 2, f"--M must be at least 2 (a quadratic variation needs two gridpoints), got {args.M}")
    _require(args.samples >= 2, f"--samples must be at least 2, got {args.samples}")
    _require(_positive(args.nu), f"--nu must be positive, got {args.nu}")
    if args.dry_run:
        print(json.dumps({"K": args.K, "M": args.M, "samples": args.samples, "dry_run": True}))
        return EXIT_OK
    scheme = identity_scheme(1, 0)
    rng = derive_stream(args.seed, 0, "qv")
    vals = np.empty(args.samples)
    for i in range(args.samples):
        psi = sample_stationary_pair(scheme, 0.1, args.nu, args.K, rng).psi
        vals[i] = quadratic_variation(psi, args.M)[0]
    exact = expected_qv(args.nu, args.K, args.M)
    mc_mean, mc_stderr = mean_stderr(vals)
    payload = {
        "nu": args.nu,
        "K": args.K,
        "M": args.M,
        "n_samples": args.samples,
        "mc_mean": mc_mean,
        "mc_stderr": mc_stderr,
        "exact_sum": exact,
        "circle_total": float(np.pi / args.nu),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="burgerslab",
        description="coupled simulations of discretized Burgers-type equations "
        "and the drift correction they acquire",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="base seed (u64)")
        sp.add_argument("--workers", type=int, default=1, help="parallel worker count")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--dry-run", action="store_true", help="validate configs without computing")

    sp = sub.add_parser("lambda", help="correction constant of a scheme")
    sp.add_argument("--scheme", required=True, help="scheme description file")
    sp.add_argument("--nu", type=float, default=1.0)
    sp.add_argument("--closed-form", action="store_true", help="also print the closed-form oracle")
    sp.add_argument("--tol", type=float, default=LAMBDA_TOL, help="quadrature tolerance for Lambda")
    # lambda draws no sample and writes no file: none of the other common flags
    sp.add_argument("--dry-run", action="store_true", help="validate the scheme without computing")
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("converge", help="coupled ensemble error study")
    sp.add_argument("--config", required=True, help="run config file")
    common(sp)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("chaos", help="tensor expectation and distance slopes")
    sp.add_argument("--scheme", required=True, help="scheme description file")
    sp.add_argument("--eps", default="0.04,0.02,0.01", help="comma list of scales")
    sp.add_argument("--nu", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_chaos)

    sp = sub.add_parser("qv", help="quadratic variation report")
    sp.add_argument("--nu", type=float, default=1.0)
    sp.add_argument("--K", type=int, default=8192)
    sp.add_argument("--M", type=int, default=2048)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_qv)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "workers" in args:  # lambda has no --workers
            _require(args.workers >= 1, f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (InputError, SchemeValidationError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_VALIDATION
    except QuadratureError as err:
        print(f"quadrature did not converge: {err}", file=sys.stderr)
        if err.partial is not None:
            print(json.dumps(err.partial.to_dict(), sort_keys=True), file=sys.stderr)
        return EXIT_QUADRATURE


if __name__ == "__main__":
    sys.exit(main())
