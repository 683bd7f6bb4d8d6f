import numpy as np
import pytest

from burgerslab.runconfig import load_run_config, parse_v0
from burgerslab.spectral import evaluate_on_grid


class TestParseV0:
    def test_zero(self):
        assert parse_v0("zero", 8, 1) is None

    def test_sine_profile(self):
        u = parse_v0("sin:2", 8, 1)
        x = 2.0 * np.pi * np.arange(33) / 33
        vals = evaluate_on_grid(u, 33)
        assert np.max(np.abs(vals[0] - 2.0 * np.sin(x))) < 1e-12

    def test_cosine_component_selector(self):
        u = parse_v0("cos:0.5:2", 8, 2)
        x = 2.0 * np.pi * np.arange(33) / 33
        vals = evaluate_on_grid(u, 33)
        assert np.max(np.abs(vals[0])) == 0.0
        assert np.max(np.abs(vals[1] - 0.5 * np.cos(x))) < 1e-12

    def test_modes_file(self, tmp_path):
        path = tmp_path / "v0.csv"
        path.write_text("k,comp,re,im\n2,1,0.0,-0.5\n")
        u = parse_v0(f"modes:{path}", 8, 1)
        assert u.mode(2)[0] == -0.5j
        assert u.mode(-2)[0] == 0.5j

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,0,1.0,0.0", "component 0 outside 1..2"),
            ("2,3,1.0,0.0", "component 3 outside 1..2"),
            ("9,1,1.0,0.0", "mode 9 outside band"),
            ("-9,2,1.0,0.0", "mode -9 outside band"),
            ("2,1,1.0", "expected 'k,comp,re,im'"),
            ("2,one,1.0,0.0", "cannot parse"),
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
