import dataclasses
import importlib
import math
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import burgerslab
from burgerslab import cli
from burgerslab.cli import main
from burgerslab.correction import DEFAULT_CHI
from burgerslab.estimators import xi_grid_size

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_exported_name_resolves():
    assert len(set(burgerslab.__all__)) == len(burgerslab.__all__)
    for name in burgerslab.__all__:
        assert getattr(burgerslab, name) is not None, name


def test_every_dataclass_is_frozen():
    # inputs are checked once, on construction; a field reassigned after
    # that would skip the checks, and a derived fact could go stale
    found = []
    for info in pkgutil.iter_modules(burgerslab.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"burgerslab.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == module.__name__:
                found.append(obj)
                assert obj.__dataclass_params__.frozen, f"{module.__name__}.{obj.__name__} is not frozen"
    assert {"Scheme", "SimConfig", "RunSpec", "EnsembleResult"} <= {cls.__name__ for cls in found}


def _release(version):
    """The leading numeric release of a version string, as a tuple of ints."""
    return tuple(int(part) for part in re.match(r"\d+(?:\.\d+)*", version).group().split("."))


def test_installed_numpy_and_scipy_meet_the_declared_floors():
    # the transforms write into caller-owned arrays (numpy >= 2.0's fft
    # out=); an older install must fail here, not mid-run
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    floors = dict(re.fullmatch(r"([a-z]+)>=([0-9.]+)", dep).groups() for dep in dependencies)
    assert set(floors) == {"numpy", "scipy"} and _release(floors["numpy"]) >= (2, 0)
    for module in (np, scipy):
        assert _release(module.__version__) >= _release(floors[module.__name__]), module.__name__


def import_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_benchmark_patch_targets_exist_and_are_restored():
    # perfbench/spans.py wraps functions under every module name their
    # callers look them up by; a name that a refactor drops fails here
    spans = import_spans()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_traced_converge_call_counts_follow_the_closed_forms(tmp_path):
    # the benchmark's traced run checks these counts on its own configs; a
    # change that adds or drops a call per run, step or draw fails here first
    R, E, steps, s = 2, 2, 10, 2
    config = tmp_path / "run.cfg"
    config.write_text(
        "[scheme]\nname = fd\nf = finite_difference\nh = indicator_pi\nmu = (1,1);(0,-1)\nq = 0.4\n\n"
        "[model]\nnu = 1\nn = 2\nK = 16\nF = -u1; -u2\nG = 0.5*u1^2 + 0.5*u2^2; u1*u2\n"
        f"lambda_mode = closed_form\nv0 = sin:1\neps = 0.25,0.125\nreplicates = {R}\n\n"
        f"[time]\ndt = 1e-3\nT = {steps * 1e-3!r}\nsample_every = 5\nnoise_substeps = {s}\n"
    )
    spans = import_spans()
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        with tracer.round():
            code = main(["converge", "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "4"])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: count for name, (count, _) in tracer.per_round()[0]["spans"].items()}
    want = {
        "integrator.step_coeffs": R * (2 + E) * steps,
        "integrator.nonlinearity.approximate": R * E * steps,
        "integrator.nonlinearity.limit": 2 * R * steps,
        "integrator.Stepper": R * (2 + E),
        "integrator.simulate": R * (2 + E),
        "noise.wiener_increment_coeffs": R * (2 + E) * steps * s,
        "noise.ModeGaussianDraw.sample": R * (2 + E) * steps * s + R * (1 + E),
    }
    assert {name: calls.get(name, 0) for name in want} == want


def test_traced_stationary_call_counts_follow_the_closed_forms(tmp_path):
    # every chaos or qv sample is one stationary pair drawn by one mode draw,
    # each qv sample folds once, each chaos chunk shifts once per live atom,
    # and neither study steps or draws Wiener noise
    eps, chaos_samples, qv_samples = (0.1, 0.07), 3, 4
    scheme = tmp_path / "fd.scheme"
    scheme.write_text("name = fd\nf = finite_difference\nh = indicator_pi\nmu = (1,1);(0,-1)\nq = 0.4\n")
    out = str(tmp_path / "out")
    commands = (
        ["chaos", "--scheme", str(scheme), "--eps", ",".join(map(repr, eps)), "--nu", "1.0",
         "--samples", str(chaos_samples), "--out", out, "--seed", "4"],
        ["qv", "--nu", "1.0", "--K", "64", "--M", "16", "--samples", str(qv_samples), "--out", out, "--seed", "4"],
    )
    spans = import_spans()
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        with tracer.round():
            codes = [main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    calls = {name: count for name, (count, _) in tracer.per_round()[0]["spans"].items()}
    samples = len(eps) * chaos_samples + qv_samples
    # chaos takes its samples in chunks of _CHAOS_POINTS // M (at least one)
    # at each eps, M the tensor grid of the band K = ceil(eps^-chi)
    chunks = sum(
        -(-chaos_samples // max(1, cli._CHAOS_POINTS // xi_grid_size(math.ceil(e**-DEFAULT_CHI)))) for e in eps
    )
    live_atoms = 1  # (1, 1); the atom at 0 shifts nothing
    want = {
        "schemes.shift_minus": live_atoms * chunks,
        "noise.sample_stationary_pair": samples,
        "noise.ModeGaussianDraw.sample": samples,
        "spectral.coeffs_to_values.fold": qv_samples,
        "noise.wiener_increment_coeffs": 0,
        "integrator.Stepper": 0,
        "integrator.step_coeffs": 0,
    }
    assert {name: calls.get(name, 0) for name in want} == want
