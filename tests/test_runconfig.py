import contextlib
import inspect
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.cli import EXIT_OK, EXIT_VALIDATION, main
from burgerslab.integrator import LAMBDA_MODES, SimConfig
from burgerslab.runconfig import RunSpec, load_run_config, parse_v0
from burgerslab.schemes import load_scheme_file
from burgerslab.spectral import to_grid


def _readme_block(heading):
    """The first fenced block after ``heading`` in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(heading) :]
    start = after.index("```\n") + 4
    return after[start : after.index("```", start)]


def test_the_readme_scheme_file_and_run_config_load(tmp_path, monkeypatch):
    # both examples, copied as shown: the run config names the scheme file
    # relative to its own directory, wherever it is loaded from
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "forward.scheme").write_text(_readme_block("### Scheme description file"))
    (tmp_path / "cfg" / "run.cfg").write_text(_readme_block("### Run config file"))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    scheme = load_scheme_file("../cfg/forward.scheme")
    assert scheme.name == "forward" and scheme.builtin[0] == "identity"
    spec = load_run_config("../cfg/run.cfg")
    assert spec.scheme == scheme and spec.output_prefix == "burgers"
    assert spec.eps_list == (0.125, 0.0625, 0.03125, 0.015625) and spec.replicates == 32
    assert (spec.config.K, spec.config.dt, spec.config.noise_substeps) == (1024, 2.5e-4, 1)


class TestParseV0:
    def test_zero(self):
        assert parse_v0("zero", 8, 1) is None

    def test_sine_profile(self):
        u = parse_v0("sin:2", 8, 1)
        x = 2.0 * np.pi * np.arange(33) / 33
        vals = to_grid(u, 33)
        assert np.max(np.abs(vals[0] - 2.0 * np.sin(x))) < 1e-12

    def test_cosine_component_selector(self):
        u = parse_v0("cos:0.5:2", 8, 2)
        x = 2.0 * np.pi * np.arange(33) / 33
        vals = to_grid(u, 33)
        assert np.max(np.abs(vals[0])) == 0.0
        assert np.max(np.abs(vals[1] - 0.5 * np.cos(x))) < 1e-12

    def test_modes_file(self, tmp_path):
        path = tmp_path / "v0.csv"
        path.write_text("k,comp,re,im\n2,1,0.0,-0.5\n")
        u = parse_v0(f"modes:{path}", 8, 1)
        assert u.mode(2)[0] == -0.5j
        assert u.mode(-2)[0] == 0.5j

    def test_modes_file_writes_each_mode_once(self, tmp_path):
        # a line for -k sets the conjugate of mode k, a later line for k or -k
        # overrides it, and a line for 0 gives its real part
        path = tmp_path / "v0.csv"
        path.write_text("k,comp,re,im\n-3,1,0.5,0.25\n0,1,2.0,7.0\n3,1,1.0,0.0\n-3,1,0.0,1.0\n")
        u = parse_v0(f"modes:{path}", 8, 1)
        assert u.mode(3)[0] == -1j and u.mode(-3)[0] == 1j
        assert u.mode(0)[0] == 2.0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,0,1.0,0.0", "component 0 outside 1..2"),
            ("2,3,1.0,0.0", "component 3 outside 1..2"),
            ("9,1,1.0,0.0", "mode 9 outside band"),
            ("-9,2,1.0,0.0", "mode -9 outside band"),
            ("2,1,1.0", "expected 'k,comp,re,im'"),
            ("2,one,1.0,0.0", "cannot parse"),
            ("2,1,nan,0.0", "value must be finite"),
            ("2,1,0.5,-inf", "value must be finite"),
        ],
    )
    def test_modes_file_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "v0.csv"
        path.write_text(f"k,comp,re,im\n# comment\n1,1,0.5,0.0\n{row}\n")
        with pytest.raises(ValueError, match=f"v0.csv:4: {message}"):
            parse_v0(f"modes:{path}", 8, 2)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_v0("bump:1", 8, 1)

    @pytest.mark.parametrize("spec", ["sin:abc", "sin:1:x", "cos:", "cos:1:1.5"])
    def test_unparsable_amplitude_or_component_names_v0(self, spec):
        with pytest.raises(ValueError, match=rf"^v0 takes sin\|cos:<amp>\[:<comp>\], got '{spec}'$"):
            parse_v0(spec, 8, 2)


def test_a_run_is_its_config_at_a_seed():
    # the quadrature tolerance (correction.LAMBDA_TOL) and the Sobolev order
    # of the errors (integrator.ALPHA) are no settings of a run, and
    # Lambda = 0 is spelled explicit:0 only
    assert not {"lambda_tol", "alpha"} & {f.name for f in fields(SimConfig)}
    assert list(inspect.signature(RunSpec.sim_config).parameters) == ["self", "seed"]
    assert LAMBDA_MODES == ("quadrature", "closed_form", "explicit")


@pytest.mark.parametrize("line, other", [("h = table:h.csv", "h = table:g.csv"), ("v0 = sin:1", "v0 = cos:1")])
def test_run_specs_compare_by_value(tmp_path, line, other):
    # each load reads the scheme's table and builds the initial profile
    # anew, into arrays of its own
    (tmp_path / "h.csv").write_text("extrapolate = 0\n0,1\n1,1\n2,0\n")
    (tmp_path / "g.csv").write_text("extrapolate = 0\n0,1\n1,1\n3,0\n")
    text = (
        "[scheme]\nname = tab\nf = identity\nh = table:h.csv\nmu = (1,1);(0,-1)\nq = 1\n\n"
        "[model]\nK = 8\nlambda_mode = quadrature\nv0 = sin:1\n\n[time]\ndt = 1e-3\nT = 0.01\n"
    )
    (tmp_path / "run.cfg").write_text(text)
    (tmp_path / "other.cfg").write_text(text.replace(line, other))
    first, second = load_run_config(tmp_path / "run.cfg"), load_run_config(tmp_path / "run.cfg")
    assert first.scheme.h is not second.scheme.h and first.config.v0 is not second.config.v0
    assert first == second and hash(first) == hash(second)
    assert first.sim_config(seed=4) == second.sim_config(seed=4)
    assert first.sim_config(seed=4) != second.sim_config(seed=5)
    other = load_run_config(tmp_path / "other.cfg")
    assert other != first and other.config != first.config


def test_load_run_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    text = (
        "[scheme]\nname = s\nf = finite_difference\nh = indicator_pi\n"
        "mu = (1,1);(0,-1)\nq = 0.4\n\n"
        "[model]\nnu = 2\nK = 12\nG = 0.5*u1^2\neps = 0.1,0.05\nreplicates = 3\n"
        "lambda_mode = explicit:0.125\n\n"
        "[time]\ndt = 1e-3\nT = 0.01\nsample_every = 2\n\n"
        "[output]\nprefix = sweep\n"
    )
    path.write_text(text)
    spec = load_run_config(path)
    assert spec.eps_list == (0.1, 0.05)
    assert spec.replicates == 3
    assert spec.output_prefix == "sweep"
    assert spec.echo == text
    assert len(spec.content_hash()) == 64
    cfg = spec.sim_config(seed=9)
    assert cfg.nu == 2.0
    assert cfg.lambda_mode == "explicit"
    assert cfg.lambda_value == 0.125
    assert cfg.seed == 9
    assert cfg.scheme.builtin == ("finite_difference", 1.0, 0.0)


_PREFIX_CONFIG = (
    "[scheme]\nname = s\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\n"
    "[model]\nK = 8\n\n[time]\ndt = 1e-3\nT = 0.01\n\n"
)


@pytest.mark.parametrize("prefix", ["", ".", "..", "../escaped", "sub/run", "/tmp/run", "..\\escaped"])
def test_output_prefix_outside_the_output_directory_rejected(tmp_path, prefix):
    path = tmp_path / "run.cfg"
    path.write_text(_PREFIX_CONFIG + f"[output]\nprefix = {prefix}\n")
    with pytest.raises(ValueError, match=r"\[output\] prefix must name files inside the output directory"):
        load_run_config(path)


@pytest.mark.parametrize("prefix", ["run", "run.v2", "..run", "a..b"])
def test_output_prefix_that_is_a_file_name_stem_kept(tmp_path, prefix):
    path = tmp_path / "run.cfg"
    path.write_text(_PREFIX_CONFIG + f"[output]\nprefix = {prefix}\n")
    assert load_run_config(path).output_prefix == prefix


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[scheme]\nname = s\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
    with pytest.raises(ValueError, match="model"):
        load_run_config(path)


# -- generated run configs through ``converge --dry-run`` ------------------------

# few derandomized examples, so the suite's time and outcome stay fixed
_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
_SCHEME = {"name": "forward", "f": "identity", "h": "one", "mu": "(1,1);(0,-1)", "q": "1"}
_ALLOWED = {
    "scheme": set(_SCHEME) | {"file"},
    "model": {"nu", "n", "K", "F", "G", "lambda_mode", "v0", "eps", "replicates"},
    "time": {"dt", "T", "sample_every", "noise_substeps"},
    "output": {"prefix"},
}
_FLUX = {1: ("0", "0.5*u1^2"), 2: ("0; 0", "0.5*u1^2 + 0.5*u2^2; u1*u2")}


@st.composite
def run_configs(draw):
    """A valid run config as {section: {key: text}}, with the eps ladder and
    step count it must echo; no two eps share a converge table name."""
    n = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(1, 64))
    dt = draw(st.sampled_from([1e-4, 2.5e-4, 5e-4, 1e-3, 0.01, 0.1]))
    steps = draw(st.integers(1, 500))
    eps = draw(st.lists(st.floats(1e-3, 0.9), min_size=1, max_size=4, unique_by=lambda e: f"{e:g}"))
    amp = draw(st.floats(-4.0, 4.0))
    comp = draw(st.integers(1, n))
    v0 = draw(st.sampled_from(["zero", f"sin:{amp!r}", f"sin:{amp!r}:{comp}"]))
    F, G = _FLUX[n]
    sections = {
        "scheme": dict(_SCHEME),
        "model": {"nu": repr(draw(st.floats(0.05, 20.0))), "n": str(n), "K": str(K), "F": F, "G": G,
                  "lambda_mode": draw(st.sampled_from(["closed_form", "explicit:0"])), "v0": v0,
                  "eps": ",".join(repr(e) for e in eps), "replicates": str(draw(st.integers(2, 64)))},
        "time": {"dt": repr(dt), "T": repr(steps * dt), "sample_every": str(draw(st.integers(1, 50))),
                 "noise_substeps": str(draw(st.integers(1, 4)))},
        "output": {"prefix": "run"},
    }
    return sections, eps, steps


def _render(sections):
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())


def _dry_run(workdir, sections, dry_run=True):
    """Write the config and run ``converge --dry-run`` on it, or ``converge``
    without ``dry_run``: (exit code, stdout, stderr, output directory)."""
    workdir = Path(workdir)
    config = workdir / "run.cfg"
    config.write_text(_render(sections))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["converge", "--config", str(config), "--out", str(out)] + ["--dry-run"] * dry_run)
    return code, stdout.getvalue(), stderr.getvalue(), out


@_PROPERTY
@given(run_configs())
def test_generated_valid_configs_pass_the_dry_run(case):
    sections, eps, steps = case
    with tempfile.TemporaryDirectory() as work:
        code, stdout, stderr, out = _dry_run(work, sections)
        assert code == EXIT_OK, stderr
        plan = json.loads(stdout)
        assert plan["eps"] == eps and plan["steps"] == steps
        assert plan["replicates"] == int(sections["model"]["replicates"])
        assert not out.exists()


def _assert_rejected(code, stderr, out, reason):
    assert code == EXIT_VALIDATION
    assert reason in stderr
    assert not out.exists()


_KEY = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@_PROPERTY
@given(run_configs(), st.data())
def test_generated_unknown_keys_exit_2(case, data):
    sections = case[0]
    section = data.draw(st.sampled_from(sorted(_ALLOWED)), label="section")
    key = data.draw(_KEY.filter(lambda k: k not in _ALLOWED[section]), label="key")
    sections[section][key] = "1"
    with tempfile.TemporaryDirectory() as work:
        code, _, stderr, out = _dry_run(work, sections)
        _assert_rejected(code, stderr, out, key)


_POSITIVE = [("model", "nu"), ("model", "n"), ("model", "K"), ("model", "replicates"), ("model", "eps"),
             ("time", "dt"), ("time", "T"), ("time", "sample_every"), ("time", "noise_substeps")]
_INTEGRAL = {"n", "K", "replicates", "sample_every", "noise_substeps"}


@_PROPERTY
@given(run_configs(), st.sampled_from(_POSITIVE), st.data())
def test_generated_non_positive_numbers_exit_2(case, where, data):
    sections = case[0]
    section, key = where
    if key in _INTEGRAL:
        bad = str(data.draw(st.integers(-5, 0), label=key))
    else:
        bad = repr(data.draw(st.one_of(st.just(-0.0), st.floats(-1e3, 0.0)), label=key))
    if key == "eps":
        ladder = sections[section][key].split(",")
        ladder.insert(data.draw(st.integers(0, len(ladder)), label="position"), bad)
        bad = ",".join(ladder)
    sections[section][key] = bad
    with tempfile.TemporaryDirectory() as work:
        code, _, stderr, out = _dry_run(work, sections)
        _assert_rejected(code, stderr, out, key)


_FINITE = [("model", "nu"), ("time", "T")]


@_PROPERTY
@given(run_configs(), st.sampled_from(_FINITE), st.sampled_from(["inf", "-inf", "nan"]))
def test_generated_non_finite_numbers_exit_2(case, where, bad):
    sections = case[0]
    section, key = where
    sections[section][key] = bad
    with tempfile.TemporaryDirectory() as work:
        code, _, stderr, out = _dry_run(work, sections)
        _assert_rejected(code, stderr, out, key)


@st.composite
def bad_mode_rows(draw, K, n):
    """A row of a modes: file that parse_v0 must refuse."""
    k, comp = draw(st.integers(1, K)), draw(st.integers(1, n))
    return draw(st.sampled_from([
        f"{k},{comp},0.5",  # three fields
        f"{k},{comp},0.5,0.0,1.0",  # five fields
        f"{k},{comp},half,0.0",  # not a number
        f"{k},{comp},{draw(st.sampled_from(['nan', 'inf', '-inf']))},0.0",  # not finite
        f"{k},{comp},0.5,{draw(st.sampled_from(['nan', 'inf', '-inf']))}",
        f"{k}.5,{comp},0.5,0.0",  # fractional mode
        f"{k},{draw(st.sampled_from([0, n + 1]))},0.5,0.0",  # no such component
        f"{draw(st.sampled_from([-1, 1])) * (K + draw(st.integers(1, 9)))},{comp},0.5,0.0",  # outside the band
    ]))


@_PROPERTY
@given(run_configs(), st.data())
def test_generated_bad_modes_rows_exit_2_with_file_and_line(case, data):
    sections = case[0]
    K, n = int(sections["model"]["K"]), int(sections["model"]["n"])
    good = st.builds(lambda k, c, re, im: f"{k},{c},{re!r},{im!r}", st.integers(1, K), st.integers(1, n),
                     st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    lines = ["k,comp,re,im"] + data.draw(st.lists(st.one_of(good, st.just(""), st.just("# note")), max_size=6))
    where = data.draw(st.integers(1, len(lines)), label="bad row index")
    lines.insert(where, data.draw(bad_mode_rows(K, n), label="bad row"))
    with tempfile.TemporaryDirectory() as work:
        modes = Path(work) / "modes.csv"
        modes.write_text("\n".join(lines) + "\n")
        sections["model"]["v0"] = f"modes:{modes}"
        code, _, stderr, out = _dry_run(work, sections)
        _assert_rejected(code, stderr, out, f"{modes}:{where + 1}:")


@_PROPERTY
@given(run_configs(), st.sampled_from(["sin", "cos"]), st.sampled_from(["nan", "inf", "-inf"]), st.booleans())
def test_generated_non_finite_v0_exit_2(case, kind, bad, with_component):
    sections = case[0]
    sections["model"]["v0"] = f"{kind}:{bad}" + (f":{sections['model']['n']}" if with_component else "")
    with tempfile.TemporaryDirectory() as work:
        code, _, stderr, out = _dry_run(work, sections)
        _assert_rejected(code, stderr, out, "v0 amplitude must be finite")


@_PROPERTY
@given(run_configs(), st.one_of(st.none(), st.sampled_from(_POSITIVE + _FINITE)))
def test_generated_configs_dry_run_exits_2_exactly_when_the_run_does(case, broken):
    # at tiny sizes (K <= 16, 2 replicates, at most 3 steps), a config,
    # valid or with one number out of range, is refused by the dry run
    # exactly when the run refuses it, and a refused one writes nothing
    sections, _, steps = case
    model, clock = sections["model"], sections["time"]
    model["K"], model["replicates"] = str(min(int(model["K"]), 16)), "2"
    clock["T"] = repr(min(steps, 3) * float(clock["dt"]))
    if broken is not None:
        section, key = broken
        sections[section][key] = "0" if broken in _POSITIVE else "nan"
    with tempfile.TemporaryDirectory() as work:
        dry = _dry_run(work, sections)[0]
        inputs = sorted(p.name for p in Path(work).iterdir())
        code, _, stderr, out = _dry_run(work, sections, dry_run=False)
        assert (dry == EXIT_VALIDATION) == (code == EXIT_VALIDATION), (sections, dry, code, stderr)
        if code == EXIT_VALIDATION:
            assert sorted(p.name for p in Path(work).iterdir()) == inputs and not out.exists()
