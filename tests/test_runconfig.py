import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.cli import EXIT_OK, EXIT_VALIDATION, main
from burgerslab.runconfig import load_run_config, parse_v0
from burgerslab.spectral import to_grid


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
    "model": {"nu", "n", "K", "F", "G", "lambda_mode", "v0", "alpha", "eps", "replicates"},
    "time": {"dt", "T", "sample_every", "noise_substeps"},
    "output": {"prefix"},
}
_FLUX = {1: ("0", "0.5*u1^2"), 2: ("0; 0", "0.5*u1^2 + 0.5*u2^2; u1*u2")}


@st.composite
def run_configs(draw):
    """A valid run config as {section: {key: text}}, with the eps ladder and
    step count it must echo."""
    n = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(1, 64))
    dt = draw(st.sampled_from([1e-4, 2.5e-4, 5e-4, 1e-3, 0.01, 0.1]))
    steps = draw(st.integers(1, 500))
    eps = draw(st.lists(st.floats(1e-3, 0.9), min_size=1, max_size=4))
    amp = draw(st.floats(-4.0, 4.0))
    comp = draw(st.integers(1, n))
    v0 = draw(st.sampled_from(["zero", f"sin:{amp!r}", f"sin:{amp!r}:{comp}"]))
    F, G = _FLUX[n]
    sections = {
        "scheme": dict(_SCHEME),
        "model": {"nu": repr(draw(st.floats(0.05, 20.0))), "n": str(n), "K": str(K), "F": F, "G": G,
                  "lambda_mode": draw(st.sampled_from(["closed_form", "zero"])), "v0": v0,
                  "eps": ",".join(repr(e) for e in eps), "replicates": str(draw(st.integers(2, 64)))},
        "time": {"dt": repr(dt), "T": repr(steps * dt), "sample_every": str(draw(st.integers(1, 50))),
                 "noise_substeps": str(draw(st.integers(1, 4)))},
        "output": {"prefix": "run"},
    }
    return sections, eps, steps


def _render(sections):
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())


def _dry_run(workdir, sections):
    """Write the config and run ``converge --dry-run`` on it: (exit code,
    stdout, stderr, output directory)."""
    workdir = Path(workdir)
    config = workdir / "run.cfg"
    config.write_text(_render(sections))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["converge", "--config", str(config), "--out", str(out), "--dry-run"])
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


_FINITE = [("model", "nu"), ("model", "alpha"), ("time", "T")]


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
