import dataclasses
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burgerslab
from burgerslab import cli
from burgerslab.cli import main
from burgerslab.correction import DEFAULT_CHI, lambda_closed_form, lambda_quadrature
from burgerslab.estimators import xi_grid_size
from burgerslab.schemes import load_scheme_file
from burgerslab import spectral
from burgerslab.spectral import odd_fft_size

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""Module docstring\nover two lines."""\n\n'
        "import os  # a comment after code keeps the line\n\n"
        "# a comment alone\n"
        'def f(x):\n    """One line."""\n    s = """not a\n    docstring"""\n    return (x +\n            1)\n\n\n'
        "class C:\n    '''Doc.'''\n    y = 1\n"
    )
    assert tool.code_lines(source) == 8


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


def test_installed_numpy_meets_the_declared_floor():
    # numpy is the one runtime dependency, and the transforms write into
    # caller-owned arrays (numpy >= 2.0's fft out=); an older install must
    # fail here, not mid-run
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    floors = dict(re.fullmatch(r"([a-z]+)>=([0-9.]+)", dep).groups() for dep in dependencies)
    assert set(floors) == {"numpy"} and _release(floors["numpy"]) >= (2, 0)
    assert _release(np.__version__) >= _release(floors["numpy"])


# Runs in a fresh interpreter with scipy blocked (this one already holds
# it, for the oracles): imports the command line, then runs each command
# given as JSON on argv[1] through cli.main, and reports which scipy modules
# and whether the process pool are loaded after the import and after each
# command, with each command's exit code and output.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from burgerslab import cli

def loaded():
    return sorted(
        name for name, module in sys.modules.items()
        if module is not None and (name.split(".")[0] == "scipy" or name == "concurrent.futures.process")
    )

report = {"import": loaded(), "runs": []}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report["runs"].append({"code": code, "out": out.getvalue(), "loaded": loaded()})
print(json.dumps(report))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # numpy is the one runtime dependency: every command runs with scipy
    # blocked, Lambda by quadrature and the sine integral (the galerkin
    # closed form, and the analytic tail of the identity family's
    # quadrature) included, and only --workers > 1 loads the process pool
    fd = "name = fd\nf = finite_difference\nh = indicator_pi\nmu = (1,1);(0,-1)\nq = 0.4\n"
    forward = "name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n"
    (tmp_path / "fd.scheme").write_text(fd)
    (tmp_path / "forward.scheme").write_text(forward)
    model = "[model]\nnu = 1\nK = 8\nG = 0.5*u1^2\nlambda_mode = closed_form\nv0 = sin:1\neps = 0.25\nreplicates = 2\n"
    timing = "[time]\ndt = 1e-3\nT = 0.004\nsample_every = 2\n"
    (tmp_path / "fd.cfg").write_text(f"[scheme]\n{fd}\n{model}\n{timing}")
    galerkin = fd.replace("finite_difference", "galerkin")
    (tmp_path / "galerkin.cfg").write_text(f"[scheme]\n{galerkin}\n{model}\n{timing}")
    quadrature_model = model.replace("closed_form", "quadrature")
    (tmp_path / "quadrature.cfg").write_text(f"[scheme]\n{fd}\n{quadrature_model}\n{timing}")
    commands = [
        ["converge", "--config", "fd.cfg", "--out", "out"],
        ["chaos", "--scheme", "fd.scheme", "--eps", "0.1", "--samples", "2", "--out", "out"],
        ["qv", "--K", "32", "--M", "8", "--samples", "2", "--out", "out"],
        ["lambda", "--scheme", "forward.scheme", "--dry-run"],
        ["lambda", "--scheme", "fd.scheme"],
        ["converge", "--config", "quadrature.cfg", "--dry-run"],
        ["converge", "--config", "galerkin.cfg", "--dry-run"],
        ["lambda", "--scheme", "forward.scheme"],
    ]
    src = str(Path(burgerslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    runs = report["runs"]
    assert [run["code"] for run in runs] == [0] * len(commands)
    assert report["import"] == []
    assert [run["loaded"] for run in runs] == [[]] * len(commands)
    # the values printed without scipy are the ones computed here
    galerkin_run, quadrature_run = runs[-2:]
    assert json.loads(galerkin_run["out"])["lambda"] == lambda_closed_form("galerkin", 1, 0, 1.0).value
    quadrature = lambda_quadrature(load_scheme_file(tmp_path / "forward.scheme"), 1.0, 1e-8)
    assert quadrature_run["out"] == json.dumps(quadrature.to_dict(), sort_keys=True) + "\n"


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
    S, n, K = 3, 2, 16  # recorded steps 0, 5 and 10
    sup_lines = max(1, spectral._SUP_POINTS // odd_fft_size(4 * (2 * K + 1)))

    def chunks(lines):
        return -(-lines // sup_lines)

    want = {
        "integrator.step_coeffs": R * (2 + E) * steps,
        "integrator.nonlinearity.approximate": R * E * steps,
        "integrator.nonlinearity.limit": 2 * R * steps,
        "integrator.Stepper": R * (2 + E),
        "integrator.simulate": R * (2 + E),
        # the D_eps multiplier is read once per eps, into its run config's
        # table, however many replicates step it
        "schemes.d_eps_multiplier": E,
        "noise.wiener_increment_coeffs": R * (2 + E) * steps * s,
        "noise.ModeGaussianDraw.sample": R * (2 + E) * steps * s + R * (1 + E),
        # one stacked transform to the grid and one back per step, under the
        # names the benchmark spans, and one padded transform per sup_norms
        # chunk: each of the R·E·2 error blocks (S·n lines) and each of the
        # R·E sup_norm calls of the scaling table (n lines)
        "spectral.values_to_coeffs": R * (2 + E) * steps,
        "spectral.coeffs_to_values.padded": R * (2 + E) * steps + R * E * (2 * chunks(S * n) + chunks(n)),
    }
    assert {name: calls.get(name, 0) for name in want} == want


def test_traced_stationary_call_counts_follow_the_closed_forms(tmp_path):
    # every chaos or qv sample is one stationary pair drawn by one mode draw,
    # no qv sample forms a coarse grid (its sum is taken on the spectrum),
    # each chaos chunk shifts once per live atom, and neither study steps or
    # draws Wiener noise
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
        "estimators.quadratic_variation": qv_samples,
        "spectral.coeffs_to_values.fold": 0,
        "noise.wiener_increment_coeffs": 0,
        "integrator.Stepper": 0,
        "integrator.step_coeffs": 0,
    }
    assert {name: calls.get(name, 0) for name in want} == want
