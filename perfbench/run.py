"""burgerslab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  A run repeats whole rounds of the workload's commands through
``burgerslab.cli.main`` (one process, ``--workers 1``, single-threaded
numpy) until ``--seconds`` have passed, checks every round's outputs, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` reports the end-to-end metrics, timed at the
reference speed of one core (reference.py); ``--trace 1`` reports the
per-layer metrics of a traced run.  See README.md in this directory.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# numpy reads the thread limits when it loads, so they are set before checks
# and spans import it
os.environ.update(SINGLE_THREAD)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
SETUP_PROBES = 5  # measured set-ups per run, after one discarded warm-up
PROBE_TIMEOUT_S = 60

# spans reported with both their call count and their inclusive seconds
SPAN_METRICS = (
    "spectral.coeffs_to_values.padded",
    "spectral.coeffs_to_values.fold",
    "spectral.values_to_coeffs",
    "spectral.sup_norm",
    "spectral.sobolev_norm",
    "spectral.SpectralField",
    "noise.wiener_increment_coeffs",
    "noise.sample_stationary_pair",
    "nonlin.evaluate",
    "nonlin.Polynomial",
    "integrator.nonlinearity.approximate",
    "integrator.nonlinearity.limit",
    "integrator.step_coeffs",
    "integrator.simulate",
    "estimators.xi_eps",
    "estimators.xi_eps_y",
    "estimators.negative_sobolev_distance",
    "estimators.quadratic_variation",
    "correction.lambda_quadrature",
    "correction.lambda_eps",
    "schemes.validate",
    "schemes.shift_minus",
    "runconfig.load_run_config",
)
# spans reported by call count only
CALL_METRICS = (
    "noise.ModeGaussianDraw.sample",
    "integrator.Stepper",
    "correction.sine_integral",
    "schemes.d_eps_multiplier",
)
MODULES = ("spectral", "noise", "nonlin", "integrator", "estimators", "correction", "schemes", "runconfig", "cli")
STAGES = ("simulation", "scaling_table", "sampling", "reports")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in CALL_METRICS:
        units[f"{name}.calls"] = "count"
    units["spectral.grid_points"] = "count"
    units["schemes.symbol_evals"] = "count"
    for stage in STAGES:
        units[f"cli.stage.{stage}_s"] = "s"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead"] = "ratio"
    units["trace.body_s"] = "s"
    units["trace.unaccounted_s"] = "s"
    units["trace.spans"] = "count"
    return units


# -- rounds ----------------------------------------------------------------


def run_round(plan, tracer=None):
    """Run the plan's commands once, as one root span of ``tracer`` if given;
    returns (seconds inside cli.main, outputs)."""
    from burgerslab import cli

    shutil.rmtree(plan.out, ignore_errors=True)
    stdout, codes, elapsed = {}, {}, 0.0
    with tracer.round() if tracer else contextlib.nullcontext():
        for label, argv in plan.commands:
            buf = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buf):
                codes[label] = cli.main(list(argv))
            elapsed += perf_counter() - start
            stdout[label] = buf.getvalue()
    files = {p.name: p.read_bytes() for p in sorted(plan.out.iterdir())} if plan.out.is_dir() else {}
    return elapsed, workloads.RoundOutput(files, stdout, codes)


def digested(out):
    """What must repeat byte for byte between rounds: every output file
    except the manifests (which carry timings), and the standard output."""
    files = {k: v for k, v in out.files.items() if not k.endswith("_manifest.json")}
    return files, out.stdout


def verify_rounds(outs, workload):
    """Full checks on the first round; every later round must write the same
    bytes and a manifest whose digests match them."""
    errors = checks.check(outs[0], workload)
    first = digested(outs[0])
    for i, out in enumerate(outs[1:], start=2):
        if digested(out) != first:
            errors.append(f"round {i} wrote different bytes from round 1")
        for name in out.files:
            if name.endswith("_manifest.json"):
                listed = json.loads(out.files[name])["outputs"]
                errors += [f"round {i}: {e}" for e in checks.check_manifest(out, name, list(listed))]
    return errors


def timed_rounds(plan, seconds, outs, tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one), each one
    right after a reference kernel; returns each round's time and its
    kernel's time, and appends the round's outputs to ``outs``."""
    times, kernels = [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        kernels.append(reference.kernel_s())
        elapsed, out = run_round(plan, tracer)
        times.append(elapsed)
        outs.append(out)
    return times, kernels


# -- set-up -----------------------------------------------------------------


def probe_setup(plan):
    """One set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), plan.workload, str(plan.workdir), str(plan.seed)]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=path), cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_times(plan):
    """(seconds, kernel seconds) of each measured set-up probe."""
    probe_setup(plan)  # fills the bytecode and file caches
    pairs = []
    for _ in range(SETUP_PROBES):
        kernel = reference.kernel_s()
        pairs.append((probe_setup(plan), kernel))
    return pairs


# -- the two kinds of run ----------------------------------------------------


def end_to_end_run(plan, seconds):
    """Set-up probes, then timed rounds, all on one core; times are taken at
    the reference speed of that core (see reference.py)."""
    reference.pin_to_one_cpu()
    setups = setup_times(plan)
    outs = []
    times, kernels = timed_rounds(plan, seconds, outs)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    at_ref = reference.at_reference_speed
    ops = plan.ops_per_round * len(times)
    metrics = {
        "setup_s": (statistics.median(at_ref(t, k) for t, k in setups), "s"),
        "ops_per_s": (ops / sum(at_ref(t, k) for t, k in zip(times, kernels)), "op/s"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    print(
        f"wall clock: setup {statistics.median(t for t, _ in setups):.4f} s, {ops / sum(times):.6g} op/s; "
        f"reference kernel median {statistics.median(kernels):.5f} s (reference speed: {reference.REF_KERNEL_S} s)",
        file=sys.stderr,
    )
    return outs, verify_rounds(outs, plan.workload), metrics


def traced_run(plan, seconds):
    """Plain rounds for half the time, then traced rounds for the rest."""
    outs = []
    plain, _ = timed_rounds(plan, seconds / 2.0, outs)
    n_plain = len(outs)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        traced, _ = timed_rounds(plan, seconds / 2.0, outs, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{plan.workload}.npz")

    rounds = tracer.per_round()
    metrics = layer_metrics(rounds, outs[n_plain:])
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    errors = verify_rounds(outs, plan.workload) + check_trace(rounds, plan.workload)
    units = per_layer_units()
    return outs, errors, {name: (metrics[name], units[name]) for name in units}


def round_counts(r):
    return {name: calls for name, (calls, _) in r["spans"].items()}, r["counters"], r["n_spans"]


def check_trace(rounds, workload):
    """Counts must repeat exactly from round to round and match the closed
    forms that follow from the workload's config; the module self times and
    the uncovered remainder must add up to each round's wall time."""
    errors = []
    first = round_counts(rounds[0])
    if any(round_counts(r) != first for r in rounds[1:]):
        errors.append("per-layer counts differ between traced rounds")
    calls = first[0]
    for metric, want in workloads.expected_counts(workload).items():
        got = calls.get(metric[: -len(".calls")], 0)
        if got != want:
            errors.append(f"{metric} = {got}, closed form gives {want}")
    for i, r in enumerate(rounds, start=1):
        if abs(sum(r["self_s"].values()) - r["wall_s"]) > 1e-9 * max(r["wall_s"], 1.0):
            errors.append(f"traced round {i}: self times do not add up to the round's wall time")
    return errors


def layer_metrics(rounds, traced_outs):
    """Per-round figures: counts of the first traced round (they repeat
    exactly), seconds averaged over the traced rounds."""
    mean = statistics.fmean
    calls = round_counts(rounds[0])[0]
    m = {}
    for module in MODULES:
        m[f"{module}.self_s"] = mean(r["self_s"].get(module, 0.0) for r in rounds)
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = mean(r["spans"].get(name, (0, 0.0))[1] for r in rounds)
    for name in CALL_METRICS:
        m[f"{name}.calls"] = calls.get(name, 0)
    m["spectral.grid_points"] = rounds[0]["counters"].get("spectral.grid_points", 0)
    m["schemes.symbol_evals"] = calls.get("schemes.f_at", 0) + calls.get("schemes.h_at", 0)

    stage_sums = dict.fromkeys(STAGES, 0.0)
    for out in traced_outs:
        for name, data in out.files.items():
            if name.endswith("_manifest.json"):
                clock = json.loads(data)["wall_clock_seconds"]
                for stage in STAGES:
                    stage_sums[stage] += clock.get(stage, 0.0)
    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = stage_sums[stage] / len(traced_outs)
    files, stdout = digested(traced_outs[0])
    m["cli.output_bytes"] = sum(len(v) for v in files.values()) + sum(len(v.encode()) for v in stdout.values())

    m["trace.body_s"] = mean(r["wall_s"] for r in rounds)
    m["trace.unaccounted_s"] = mean(r["self_s"].get("bench", 0.0) for r in rounds)
    m["trace.spans"] = rounds[0]["n_spans"]
    return m


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "burgerslab" / "__init__.py").is_file():
        print(f"no burgerslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    plan = workloads.prepare(args.workload, args.seed, workdir)
    try:
        run = traced_run if args.trace else end_to_end_run
        outs, errors, metrics = run(plan, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": plan.ops_per_round * len(outs),
        "failed": sum(checks.failed_ops(out, plan.workload) for out in outs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
