import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab import cli, correction, integrator
from burgerslab.cli import EXIT_BLOWUP, EXIT_OK, EXIT_QUADRATURE, EXIT_VALIDATION, _qv_limit_summary, _summary_line, main
from burgerslab.estimators import xi_grid_size
from burgerslab.runconfig import eps_ladder, load_run_config


@pytest.fixture
def scheme_file(tmp_path):
    path = tmp_path / "forward.scheme"
    path.write_text(
        "name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n"
    )
    return path


@pytest.fixture
def galerkin_file(tmp_path):
    path = tmp_path / "galerkin.scheme"
    path.write_text(
        "name = spectral-cutoff\nf = galerkin\nh = indicator_pi\nmu = (1,1);(0,-1)\nq = 1\n"
    )
    return path


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[scheme]\n"
        "name = forward\n"
        "f = identity\n"
        "h = one\n"
        "mu = (1,1);(0,-1)\n"
        "q = 1\n"
        "\n"
        "[model]\n"
        "nu = 1\n"
        "n = 1\n"
        "K = 16\n"
        "F = 0\n"
        "G = 0.5*u1^2\n"
        "lambda_mode = closed_form\n"
        "v0 = sin:1\n"
        "eps = 0.25,0.125\n"
        "replicates = 2\n"
        "\n"
        "[time]\n"
        "dt = 1e-3\n"
        "T = 0.02\n"
        "sample_every = 5\n"
        "\n"
        "[output]\n"
        "prefix = demo\n"
    )
    return path


class TestLambdaCommand:
    def test_forward_difference_value(self, scheme_file, capsys):
        assert main(["lambda", "--scheme", str(scheme_file), "--nu", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - 0.25) < 1e-8
        assert payload["method"] == "quadrature"
        assert payload["nu"] == 1.0

    def test_symmetric_offsets_vanish(self, tmp_path, capsys):
        path = tmp_path / "centered.scheme"
        path.write_text(
            "name = centered\nf = identity\nh = one\nmu = (1,0.5);(-1,-0.5)\nq = 1\n"
        )
        assert main(["lambda", "--scheme", str(path), "--tol", "1e-8"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"]) < 1e-8

    def test_closed_form_comparison(self, galerkin_file, capsys):
        code = main(
            ["lambda", "--scheme", str(galerkin_file), "--nu", "1", "--closed-form"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["difference"]) < 1e-6

    @pytest.mark.parametrize(
        "f, mu, reason",
        [
            ("finite_difference", "(1,1.5);(-1,0.5);(0,-2)", "not a builtin family"),
            ("finite_difference", "(0.5,2);(0,-2)", "only for integer offsets"),
        ],
    )
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_closed_form_of_a_scheme_without_one_exits_2_before_the_quadrature(
        self, tmp_path, monkeypatch, capsys, f, mu, reason, dry_run
    ):
        # both schemes are valid; neither has a closed form
        path = tmp_path / "other.scheme"
        path.write_text(f"name = other\nf = {f}\nh = indicator_pi\nmu = {mu}\nq = 0.4\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "lambda_quadrature", lambda *a: pytest.fail("quadrature ran"))
        argv = ["lambda", "--scheme", str(path), "--closed-form"] + ["--dry-run"] * dry_run
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--closed-form" in captured.err and reason in captured.err and captured.out == ""

    def test_invalid_scheme_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.scheme"
        path.write_text("name = bad\nf = identity\nh = one\nmu = (1,1)\nq = 1\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_4(self, scheme_file, capsys):
        code = main(["lambda", "--scheme", str(scheme_file), "--tol", "1e-18"])
        assert code == EXIT_QUADRATURE
        err = capsys.readouterr().err
        # the partial result goes with the message
        assert "quadrature did not converge" in err and '"method": "quadrature"' in err

    def test_unreadable_scheme_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbled.scheme"
        path.write_text("name = forward\ngarbage\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "garbled.scheme" in err and "garbage" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("extrapolate = 0\n0,1\n1;1\n2,0\n", "1;1"),
            ("extrapolate = 0\n0,1\n1,abc\n2,0\n", "1,abc"),
            ("# h\nextrapolate = none\n1,abc\n", "extrapolate = none"),
        ],
        ids=["separator", "number", "extrapolate"],
    )
    def test_unreadable_table_row_names_the_table_and_line(self, tmp_path, capsys, text, line):
        table = tmp_path / "bad.tbl"
        table.write_text(text)
        path = tmp_path / "s1.scheme"
        path.write_text("name = s1\nf = identity\nh = table:bad.tbl\nmu = (1,1);(0,-1)\nq = 1\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{table}:{text.splitlines().index(line) + 1}: expected 't,value' or 'extrapolate = <real>', got {line!r}" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("q = 1", "q = abc", "q: 'abc' is not a number"),
            ("mu = (1,1);(0,-1)", "mu = (1,x);(0,-1)", "mu: '(1,x)' is not an atom (y,w) of two numbers"),
            ("mu = (1,1);(0,-1)", "mu = (1,1,2);(0,-1)", "mu: '(1,1,2)' is not an atom (y,w) of two numbers"),
        ],
        ids=["q", "mu-number", "mu-arity"],
    )
    def test_unreadable_scheme_value_names_its_key(self, tmp_path, scheme_file, capsys, old, new, message):
        path = tmp_path / "bad.scheme"
        path.write_text(scheme_file.read_text().replace(old, new))
        assert main(["lambda", "--scheme", str(path), "--dry-run"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"invalid scheme file {path}: {message}" in captured.err and captured.out == ""

    def test_dry_run(self, scheme_file, capsys):
        assert main(["lambda", "--scheme", str(scheme_file), "--dry-run"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dry_run"] is True


class TestConvergeCommand:
    def test_outputs_and_zero_lambda_columns(self, tmp_path, run_config, capsys):
        cfg_zero = tmp_path / "zero.cfg"
        cfg_zero.write_text(run_config.read_text().replace("closed_form", "explicit:0"))
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg_zero), "--out", str(out), "--seed", "3"])
        assert code == EXIT_OK
        table = np.loadtxt(out / "demo_eps0.25.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1], table[:, 2])  # corrected == uncorrected
        assert np.array_equal(table[:, 3], table[:, 4])
        summary = json.loads((out / "demo_summary.json").read_text())
        assert summary["lambda"] == 0.0
        assert summary["blowup_fraction"] == 0.0

    def test_worker_count_reproduces_bytes(self, tmp_path, run_config):
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["converge", "--config", str(run_config), "--out", str(out1), "--seed", "5"]) == EXIT_OK
        assert main(
            ["converge", "--config", str(run_config), "--out", str(out8), "--seed", "5", "--workers", "8"]
        ) == EXIT_OK
        for name in ("demo_eps0.25.csv", "demo_eps0.125.csv", "demo_scaling.csv", "demo_summary.json"):
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name

    def test_manifest_lists_digests(self, tmp_path, run_config):
        out = tmp_path / "m"
        main(["converge", "--config", str(run_config), "--out", str(out), "--seed", "1"])
        manifest = json.loads((out / "demo_manifest.json").read_text())
        assert manifest["tool_version"]
        assert set(manifest["outputs"]) >= {
            "demo_eps0.25.csv",
            "demo_scaling.csv",
            "demo_summary.json",
            "demo_plot.gp",
        }
        assert all(len(d) == 64 for d in manifest["outputs"].values())
        assert "simulation" in manifest["wall_clock_seconds"]

    def test_manifest_reports_each_replicate(self, tmp_path, run_config):
        # wall seconds and per-run steps go to the manifest only: the
        # digested outputs stay byte-identical across worker counts
        outs = {workers: tmp_path / f"w{workers}" for workers in (1, 2)}
        for workers, out in outs.items():
            argv = ["converge", "--config", str(run_config), "--out", str(out), "--seed", "2", "--workers", str(workers)]
            assert main(argv) == EXIT_OK
        manifests = {w: json.loads((out / "demo_manifest.json").read_text()) for w, out in outs.items()}
        reports = manifests[1]["replicates"]
        assert [r["replicate"] for r in reports] == [0, 1]
        for report in reports:
            assert report["wall_s"] > 0.0
            assert report["runs"] == [
                {"row": "limit_corrected", "eps": None, "steps": 20, "blowup_time": None},
                {"row": "limit_uncorrected", "eps": None, "steps": 20, "blowup_time": None},
                {"row": "approximate", "eps": 0.25, "steps": 20, "blowup_time": None},
                {"row": "approximate", "eps": 0.125, "steps": 20, "blowup_time": None},
            ]
        assert [r["runs"] for r in manifests[2]["replicates"]] == [r["runs"] for r in reports]
        assert manifests[1]["outputs"] == manifests[2]["outputs"]

    def test_manifest_reports_the_final_limit_qv(self, tmp_path, run_config):
        out = tmp_path / "qv"
        assert main(["converge", "--config", str(run_config), "--out", str(out), "--seed", "1"]) == EXIT_OK
        manifest = json.loads((out / "demo_manifest.json").read_text())
        spec = load_run_config(run_config)
        result = integrator.run_coupled(spec.sim_config(seed=1), spec.eps_list, 2)
        # one value per replicate, in its report
        qv = np.array([r["qv_limit_final"] for r in result.replicates])
        assert qv.shape == (2,) and qv[0] != qv[1]
        assert [r["qv_limit_final"] for r in manifest["replicates"]] == qv.tolist()
        assert manifest["diagnostics"]["qv_limit_final"] == {
            "n": 2,
            "mean": float(np.mean(qv)),
            "stderr": float(np.std(qv, ddof=1) / np.sqrt(2.0)),
            "pi_over_nu": np.pi,
        }

    def test_final_limit_qv_is_taken_once_per_replicate(self, tmp_path, run_config, monkeypatch):
        # the final corrected limit state is one per replicate, whatever the
        # number of eps runs, so its quadratic variation is taken R times
        calls = []
        qv = integrator.quadratic_variation
        monkeypatch.setattr(integrator, "quadratic_variation", lambda *a: calls.append(a) or qv(*a))
        text = run_config.read_text().replace("eps = 0.25,0.125", "eps = 0.25,0.125,0.0625")
        run_config.write_text(text.replace("replicates = 2", "replicates = 3"))
        assert main(["converge", "--config", str(run_config), "--out", str(tmp_path / "q"), "--seed", "1"]) == EXIT_OK
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["closed_form", "quadrature", "explicit:0"])
    def test_manifest_records_lambda_and_validation(self, tmp_path, run_config, mode):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(run_config.read_text().replace("closed_form", mode))
        out = tmp_path / "m"
        assert main(["converge", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == EXIT_OK
        manifest = json.loads((out / "demo_manifest.json").read_text())
        summary = json.loads((out / "demo_summary.json").read_text())
        record = manifest["lambda"]
        assert record["lambda_mode"] == mode.split(":")[0] and record["value"] == summary["lambda"]
        if mode == "explicit:0":
            assert set(record) == {"lambda_mode", "value"}
        else:
            assert record["method"] == mode and record["abs_error_estimate"] >= 0.0
        assert manifest["scheme_validation"].startswith("validation of scheme 'forward':")
        assert "FAIL" not in manifest["scheme_validation"]
        assert manifest["numpy_version"] == np.__version__ and "scipy_version" not in manifest
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_quadrature_lambda_is_resolved_once(self, tmp_path, run_config, monkeypatch):
        # converge resolves Lambda before it writes and hands the value on
        calls = []
        quadrature = integrator.lambda_quadrature
        monkeypatch.setattr(integrator, "lambda_quadrature", lambda *a: calls.append(a) or quadrature(*a))
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(run_config.read_text().replace("closed_form", "quadrature"))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "q"), "--seed", "1"]) == EXIT_OK
        assert len(calls) == 1

    def test_quadrature_runs_at_the_one_tolerance(self, tmp_path, scheme_file, run_config, monkeypatch, capsys):
        # converge's Lambda by quadrature and lambda's default take LAMBDA_TOL
        tols = []
        quadrature = integrator.lambda_quadrature

        def recording(scheme, nu, tol):
            tols.append(tol)
            return quadrature(scheme, nu, tol)

        monkeypatch.setattr(integrator, "lambda_quadrature", recording)
        monkeypatch.setattr(cli, "lambda_quadrature", recording)
        run_config.write_text(run_config.read_text().replace("closed_form", "quadrature"))
        assert main(["converge", "--config", str(run_config), "--dry-run"]) == EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["lambda"] - 0.25) < 1e-8
        assert main(["lambda", "--scheme", str(scheme_file)]) == EXIT_OK
        assert tols == [correction.LAMBDA_TOL] * 2 and correction.LAMBDA_TOL == 1e-8

    def test_a_lambda_at_another_tolerance_is_given_explicitly(self, tmp_path, scheme_file, run_config, capsys):
        # a Lambda taken at another tolerance enters the config, whose echo
        # the manifest keeps
        assert main(["lambda", "--scheme", str(scheme_file), "--tol", "1e-12"]) == EXIT_OK
        lam = json.loads(capsys.readouterr().out)["value"]
        line = f"lambda_mode = explicit:{lam!r}"
        run_config.write_text(run_config.read_text().replace("lambda_mode = closed_form", line))
        out = tmp_path / "x"
        assert main(["converge", "--config", str(run_config), "--out", str(out), "--dry-run"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["lambda"] == lam
        assert main(["converge", "--config", str(run_config), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "demo_manifest.json").read_text())
        assert line in manifest["config_echo"]
        assert manifest["lambda"] == {"lambda_mode": "explicit", "value": lam}
        assert json.loads((out / "demo_summary.json").read_text())["lambda"] == lam

    @pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
    def test_a_manifest_reruns_its_run(self, tmp_path, run_config, mode):
        # the config echo, saved next to the config (its relative paths are
        # read from there), and the seed give the same outputs byte for byte
        (tmp_path / "v0.csv").write_text("k,comp,re,im\n2,1,0.0,-0.5\n")
        text = run_config.read_text().replace("v0 = sin:1", "v0 = modes:v0.csv")
        run_config.write_text(text.replace("lambda_mode = closed_form", f"lambda_mode = {mode}"))
        first = tmp_path / "first"
        assert main(["converge", "--config", str(run_config), "--out", str(first), "--seed", "6"]) == EXIT_OK
        manifest = json.loads((first / "demo_manifest.json").read_text())
        (tmp_path / "echo.cfg").write_text(manifest["config_echo"])
        again = tmp_path / "again"
        argv = ["converge", "--config", str(tmp_path / "echo.cfg"), "--out", str(again), "--seed", str(manifest["seed"])]
        assert main(argv) == EXIT_OK
        rerun = json.loads((again / "demo_manifest.json").read_text())
        assert rerun["outputs"] == manifest["outputs"] and len(rerun["outputs"]) == 5
        assert rerun["config_sha256"] == manifest["config_sha256"]

    def test_dry_run_validates_without_outputs(self, tmp_path, run_config, capsys):
        out = tmp_path / "dry"
        code = main(["converge", "--config", str(run_config), "--out", str(out), "--dry-run"])
        assert code == EXIT_OK
        plan = json.loads(capsys.readouterr().out)
        assert plan["dry_run"] is True
        assert abs(plan["lambda"] - 0.25) < 1e-12
        assert not (out / "demo_summary.json").exists()

    def test_gnuplot_script_references_tables(self, tmp_path, run_config):
        out = tmp_path / "gp"
        main(["converge", "--config", str(run_config), "--out", str(out), "--seed", "2"])
        script = (out / "demo_plot.gp").read_text()
        assert "demo_eps0.25.csv" in script
        assert "demo_eps0.125.csv" in script

    def test_invalid_scheme_exits_2(self, tmp_path, run_config, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(run_config.read_text().replace("mu = (1,1);(0,-1)", "mu = (1,1)"))
        assert main(["converge", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        # the validation report, not the missing closed form it implies
        assert "[FAIL] mu_total_mass_zero" in capsys.readouterr().err

    def test_dry_run_unreachable_tolerance_exits_4(self, tmp_path, run_config, capsys):
        # h is a table that does not vanish beyond its last knot, and the
        # quadrature has a tail rule only for f = identity with h = one
        (tmp_path / "h.csv").write_text("extrapolate = 0.5\n0,1\n1,1\n2,0.5\n")
        cfg = tmp_path / "quad.cfg"
        text = run_config.read_text().replace("h = one", "h = table:h.csv")
        cfg.write_text(text.replace("lambda_mode = closed_form", "lambda_mode = quadrature"))
        inputs = _tree(tmp_path)
        for extra in ([], ["--dry-run"]):
            assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "q")] + extra) == EXIT_QUADRATURE
            captured = capsys.readouterr()
            assert "quadrature did not converge: no tail handling for scheme 'forward'" in captured.err
            assert captured.out == ""
            assert _tree(tmp_path) == inputs

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("K = 16\n", "K = 16\ntypo_key = 3\n", "typo_key"),
            ("K = 16\n", "K = 16\npad = 2\n", "pad"),
            ("K = 16\n", "K = 16\nlambda_tol = 1e-8\n", "lambda_tol"),
            ("sample_every = 5\n", "sample_every = 5\nsubsteps = 2\n", "substeps"),
            ("prefix = demo\n", "prefix = demo\nsuffix = x\n", "suffix"),
            ("K = 16\n", "", "'K'"),
            ("K = 16\n", "K = 16\nK = 17\n", "'K'"),
            ("v0 = sin:1", "v0 = modes:{modes}", "modes.csv:2: component 0 outside 1..1"),
            ("v0 = sin:1", "v0 = modes:{missing}", "missing.csv"),
            ("v0 = sin:1", "v0 = sin:1:1:junk", "v0 takes"),
            (
                "f = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1",
                "f = finite_difference\nh = indicator_pi\nmu = (0.5,1);(-0.5,-1)\nq = 0.4",
                "closed form holds only for integer offsets",
            ),
            # a number that does not parse is named by its key
            ("K = 16", "K = sixteen", "[model] K: 'sixteen' is not an integer"),
            ("nu = 1\n", "nu = fast\n", "[model] nu: 'fast' is not a number"),
            ("lambda_mode = closed_form", "lambda_mode = explicit:abc", "[model] lambda_mode: 'abc' is not a number"),
            ("sample_every = 5", "sample_every = 5.5", "[time] sample_every: '5.5' is not an integer"),
            # one spelling per setting: the Sobolev order is no key, and
            # Lambda = 0 is explicit:0
            ("K = 16\n", "K = 16\nalpha = 0.75\n", "unknown key(s) ['alpha'] in [model]"),
            ("lambda_mode = closed_form", "lambda_mode = zero", "lambda_mode must be one of ('quadrature', 'closed_form', 'explicit'), got 'zero'"),
            ("eps = 0.25,0.125", "eps = 0.25,0", "eps"),
            ("eps = 0.25,0.125", "eps = ,", "eps"),
            ("replicates = 2", "replicates = 1", "replicates"),
            ("lambda_mode = closed_form", "lambda_mode = explicit:nan", "finite lambda_value"),
            ("lambda_mode = closed_form", "lambda_mode = bogus", "lambda_mode must be one of"),
            ("eps = 0.25,0.125", "eps = 0.25,0.25,0.125", "eps values 0.25 and 0.25 share the table name eps0.25"),
            ("eps = 0.25,0.125", "eps = 0.1234567,0.1234568", "share the table name eps0.123457"),
            # outputs are <out>/<prefix>_...; "../escaped" would write them all
            # into the parent of --out
            ("prefix = demo\n", "prefix = ../escaped\n", "[output] prefix"),
            ("prefix = demo\n", "prefix = sub/demo\n", "[output] prefix"),
            ("prefix = demo\n", "prefix = ..\n", "[output] prefix"),
            ("prefix = demo\n", "prefix = .\n", "[output] prefix"),
            ("prefix = demo\n", "prefix =\n", "[output] prefix"),
            # a non-finite coefficient would blow up every replicate
            ("F = 0\n", "F = nan*u1\n", "[model] F: polynomial coefficients must be finite"),
            ("G = 0.5*u1^2", "G = 1e400*u1^2", "[model] G: polynomial coefficients must be finite"),
            # the eps and replicate rules, whose one source is the config
            ("eps = 0.25,0.125", "eps = 0.25,-0.1", "eps must be a list of positive finite numbers"),
            ("eps = 0.25,0.125", "eps = 0.25,x", "eps must be a comma list of numbers, got '0.25,x'"),
            ("eps = 0.25,0.125", "eps =", "eps must be a comma list of numbers, got ''"),
            ("replicates = 2", "replicates = 0", "replicates must be at least 2"),
            ("replicates = 2", "replicates = -1", "replicates must be at least 2"),
            ("v0 = sin:1", "v0 = sin:abc", "v0 takes sin|cos:<amp>[:<comp>], got 'sin:abc'"),
            ("v0 = sin:1", "v0 = sin:1:x", "v0 takes sin|cos:<amp>[:<comp>], got 'sin:1:x'"),
            # an inline scheme's value that does not parse is named by its key
            ("mu = (1,1);(0,-1)", "mu = (1,x);(0,-1)", "bad.cfg: mu: '(1,x)' is not an atom (y,w) of two numbers"),
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, run_config, capsys, old, new, message):
        modes = tmp_path / "modes.csv"
        modes.write_text("k,comp,re,im\n2,0,1.0,0.0\n")
        text = run_config.read_text()
        assert old in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new.format(modes=modes, missing=tmp_path / "missing.csv")))
        for extra in ([], ["--dry-run"]):
            code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "x")] + extra)
            assert code == EXIT_VALIDATION
            assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "modes.csv", "run.cfg"]

    @pytest.mark.parametrize("command", [["chaos", "--scheme", "s"], ["qv"], ["converge", "--config", "c"]])
    def test_tol_only_where_quadrature_runs(self, command, capsys):
        # converge takes Lambda by quadrature at LAMBDA_TOL, or from its config
        with pytest.raises(SystemExit) as err:
            main(command + ["--tol", "1e-8"])
        assert err.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--eps", "0.25"], ["--replicates", "3"]])
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_the_config_is_the_one_source_of_each_setting(self, tmp_path, run_config, capsys, flag, dry_run):
        # the command line overrides nothing in the config
        out = tmp_path / "out"
        argv = ["converge", "--config", str(run_config), "--out", str(out), *flag]
        with pytest.raises(SystemExit) as err:
            main(argv + (["--dry-run"] if dry_run else []))
        assert err.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_no_override(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["converge", "--help"])
        assert err.value.code == EXIT_OK
        usage = capsys.readouterr().out
        assert "--config" in usage and "--seed" in usage
        assert not any(flag in usage for flag in ("--eps", "--replicates", "--tol"))

    def test_blowup_quota_exits_3(self, tmp_path, capsys):
        # cubic self-amplification from a large profile: every replicate
        # leaves the finite range within a few steps
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "[scheme]\nname = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\n"
            "[model]\nnu = 1\nn = 1\nK = 8\nF = u1^3\nG = 0\n"
            "lambda_mode = explicit:0\nv0 = sin:10\neps = 0.25\nreplicates = 2\n\n"
            "[time]\ndt = 0.01\nT = 0.2\nsample_every = 2\n\n"
            "[output]\nprefix = boom\n"
        )
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "boom")])
        assert code == EXIT_BLOWUP
        summary = json.loads((tmp_path / "boom" / "boom_summary.json").read_text())
        assert summary["blowup_fraction"] > 0.2


def test_relative_paths_are_read_from_the_file_that_names_them(tmp_path, run_config, monkeypatch, capsys):
    # run from another directory: the run config names its scheme file and
    # its modes file, and the scheme its table, relative to its own directory
    inputs = tmp_path / "cfg"
    (inputs / "tables").mkdir(parents=True)
    (inputs / "tables" / "h.csv").write_text("extrapolate = 0\n0,1\n1,1\n2,0\n")
    (inputs / "tables" / "tab.scheme").write_text("name = tab\nf = identity\nh = table:h.csv\nmu = (1,1);(0,-1)\nq = 1\n")
    (inputs / "v0.csv").write_text("k,comp,re,im\n2,1,0.0,-0.5\n")
    text = run_config.read_text().replace("v0 = sin:1", "v0 = modes:v0.csv")
    text = text.replace("lambda_mode = closed_form", "lambda_mode = explicit:0.25")
    inline = "name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n"
    (inputs / "file.cfg").write_text(text.replace(inline, "file = tables/tab.scheme\n"))
    (inputs / "inline.cfg").write_text(text.replace("h = one", "h = table:tables/h.csv"))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    for name, scheme in (("file.cfg", "tab"), ("inline.cfg", "forward")):
        assert main(["converge", "--config", f"../cfg/{name}", "--out", "out", "--dry-run"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scheme"] == scheme
    assert load_run_config(inputs / "file.cfg").config.v0.mode(2)[0] == -0.5j


@pytest.mark.parametrize("command", ["lambda", "chaos", "converge"])
def test_scheme_file_with_a_repeated_key_exits_2(tmp_path, scheme_file, run_config, capsys, command):
    # kept, the second mu would flip Lambda from 0.25 to -0.25
    twice = tmp_path / "twice.scheme"
    twice.write_text(scheme_file.read_text() + "mu = (0,1);(-1,-1)\n")
    if command == "converge":
        config = tmp_path / "file.cfg"
        inline = "name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n"
        config.write_text(run_config.read_text().replace(inline, f"file = {twice}\n"))
        argv = ["converge", "--config", str(config), "--dry-run"]
    else:
        argv = [command, "--scheme", str(twice), "--dry-run"]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "twice.scheme:6: duplicate key 'mu'" in captured.err and captured.out == ""


class TestChaosCommand:
    def test_missing_scheme_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.scheme"
        assert main(["chaos", "--scheme", str(missing), "--dry-run"]) == EXIT_VALIDATION
        assert "missing.scheme" in capsys.readouterr().err

    def test_smoke(self, tmp_path, scheme_file, capsys):
        out = tmp_path / "chaos"
        code = main(
            [
                "chaos",
                "--scheme",
                str(scheme_file),
                "--eps",
                "0.08,0.06,0.04",
                "--samples",
                "20",
                "--out",
                str(out),
                "--seed",
                "4",
            ]
        )
        assert code == EXIT_OK
        atoms = (out / "chaos_atoms.csv").read_text().strip().split("\n")
        assert atoms[0] == "eps,y,mean,stderr,n_samples,lambda_eps_y"
        assert len(atoms) == 4  # one live atom per eps
        summary = json.loads(capsys.readouterr().out)
        assert "distance_slope" in summary


@pytest.mark.parametrize(
    "args, message",
    [
        (["qv", "--K", "0"], "--K"),
        (["qv", "--M", "0"], "--M"),
        (["qv", "--M", "1"], "--M"),
        (["qv", "--M", "1", "--dry-run"], "--M"),
        (["qv", "--nu", "-1"], "--nu"),
        (["qv", "--samples", "0"], "--samples"),
        (["qv", "--samples", "1", "--dry-run"], "--samples"),
        (["chaos", "--eps", "0"], "--eps"),
        (["chaos", "--eps", "0.04,-0.1"], "--eps"),
        (["chaos", "--eps", "0.04,x"], "--eps"),
        (["chaos", "--eps", "0.1,0.1,0.05"], "--eps values 0.1 and 0.1 share the table name eps0.1"),
        (["chaos", "--eps", "0.1,0.1,0.05", "--dry-run"], "--eps values 0.1 and 0.1 share the table name eps0.1"),
        (["chaos", "--eps", "2,1.5,1.2", "--samples", "4"], "--eps values must be below 1"),
        (["chaos", "--eps", "2,1.5,1.2", "--samples", "4", "--dry-run"], "--eps values must be below 1"),
        # eps^-1/3 < k <= eps^-1.5 holds no integer k at any of these
        (["chaos", "--eps", "0.9,0.85,0.8", "--samples", "4"], "--eps values [0.9, 0.85, 0.8] leave no integer mode"),
        (["chaos", "--eps", "0.9,0.85,0.8", "--samples", "4", "--dry-run"], "leave no integer mode"),
        (["chaos", "--eps", "0.1,0.08,0.8", "--samples", "4"], "--eps values [0.8] leave no integer mode"),
        (["chaos", "--nu", "0"], "--nu"),
        (["chaos", "--samples", "0"], "--samples"),
        (["chaos", "--samples", "1"], "--samples"),
        (["lambda", "--nu", "0"], "--nu"),
        (["lambda", "--tol", "0"], "--tol"),
    ],
)
def test_numeric_arguments_validated_up_front(tmp_path, scheme_file, capsys, args, message):
    # rejected before any sampling or output, with the reason on stderr
    out = tmp_path / "out"
    extra = ["--scheme", str(scheme_file)] if args[0] in ("chaos", "lambda") else []
    # lambda writes no files, so it takes no --out
    extra += ["--out", str(out)] if args[0] != "lambda" else []
    assert main(args + extra) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize(
    "where, text",
    [("config", "0.25,,0.125,"), ("config", "0.25,,0.125"), ("chaos", "0.04,"), ("chaos", ",0.04")],
)
def test_an_empty_eps_entry_exits_2_from_the_config_and_the_command_line(
    tmp_path, scheme_file, run_config, capsys, where, text, dry_run
):
    # one rule reads the eps ladder from text wherever it is given: an empty
    # entry is refused, naming where it came from, before anything is written
    out = tmp_path / "out"
    if where == "config":
        run_config.write_text(run_config.read_text().replace("eps = 0.25,0.125", f"eps = {text}"))
        argv, source = ["converge", "--config", str(run_config)], ": eps must be a comma list of numbers"
    else:
        argv = ["chaos", "--scheme", str(scheme_file), "--eps", text, "--samples", "4"]
        source = "--eps must be a comma list of numbers"
    assert main(argv + ["--out", str(out)] + (["--dry-run"] if dry_run else [])) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert source in captured.err and repr(text) in captured.err and captured.out == ""
    assert not out.exists()


def test_the_eps_ladder_reads_the_same_floats_from_a_config_and_the_command_line(tmp_path, run_config):
    # perfbench's chaos ladder, and a ladder with blanks around its entries
    original = run_config.read_text()
    for text in ("0.04,0.028284,0.02,0.014142,0.01", "0.25 , 0.125"):
        want = tuple(float(e) for e in text.split(","))
        assert eps_ladder(text, "--eps") == want
        run_config.write_text(original.replace("eps = 0.25,0.125", f"eps = {text}"))
        assert load_run_config(run_config).eps_list == want


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["converge", "chaos", "qv"])
def test_workers_below_one_exit_2_before_writing(tmp_path, scheme_file, run_config, capsys, command, workers):
    # every subcommand that takes --workers refuses fewer than one
    out = tmp_path / "out"
    extra = {"chaos": ["--scheme", str(scheme_file)], "converge": ["--config", str(run_config)], "qv": []}[command]
    assert main([command, *extra, "--workers", workers, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "--workers" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--workers", "2"], ["--out", "x"]])
def test_lambda_takes_no_run_flags(scheme_file, capsys, flag):
    # lambda neither samples, nor runs in parallel, nor writes a file
    with pytest.raises(SystemExit) as err:
        main(["lambda", "--scheme", str(scheme_file), *flag])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _inputs(command, scheme_file, run_config):
    """The input flags of a small run of ``command`` (converge or chaos)."""
    if command == "converge":
        return ["--config", str(run_config)]
    return ["--scheme", str(scheme_file), "--eps", "0.3,0.25,0.2", "--samples", "2"]


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("command", ["converge", "chaos"])
def test_out_naming_a_file_exits_2_before_writing(tmp_path, scheme_file, run_config, capsys, command, dry_run):
    # a dry run refuses the --out that the run would refuse
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    extra = _inputs(command, scheme_file, run_config) + ["--dry-run"] * dry_run
    for out in (taken, taken / "below"):
        assert main([command, *extra, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"--out {out} cannot be used as the output directory" in captured.err and captured.out == ""
    assert taken.read_text() == "keep\n" and sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command", ["converge", "chaos"])
def test_dry_run_makes_no_out_directory(tmp_path, scheme_file, run_config, capsys, command):
    # a missing --out can be made, so the dry run passes, and makes nothing
    out = tmp_path / "new" / "out"
    assert main([command, *_inputs(command, scheme_file, run_config), "--out", str(out), "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dry_run"] is True
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("command", ["converge", "chaos"])
def test_out_name_too_long_exits_2_before_writing(tmp_path, scheme_file, run_config, capsys, command, dry_run):
    # a name longer than the file system takes is refused by the dry run
    # as by the run, and nothing is made: a directory of --out, or for
    # converge an output file named from [output] prefix, which fits alone
    # but not with _eps0.25.csv after it
    cases = [(_inputs(command, scheme_file, run_config), tmp_path / ("a" * 300) / "out", "File name too long")]
    if command == "converge":
        long_prefix = tmp_path / "long.cfg"
        long_prefix.write_text(run_config.read_text().replace("prefix = demo", "prefix = " + "p" * 245))
        cases.append((["--config", str(long_prefix)], tmp_path / "out", "[output] prefix gives the file name"))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    for extra, out, message in cases:
        assert main([command, *extra, *["--dry-run"] * dry_run, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_chaos_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, capsys):
    # two live atoms with unequal weights, and 7 samples: one sample per
    # chunk, chunks of 3 at the finer eps (7 is no multiple of 3), and one
    # chunk for all; every digested byte and the standard output agree
    scheme = tmp_path / "two.scheme"
    scheme.write_text("name = two\nf = finite_difference\nh = indicator_pi\nmu = (1,1.5);(-1,0.5);(0,-2)\nq = 0.4\n")
    fine_M = xi_grid_size(int(np.ceil(0.07**-1.5)))
    results, chunks = [], []
    for points in (1, 3 * fine_M, 10 * fine_M):
        monkeypatch.setattr(cli, "_CHAOS_POINTS", points)
        out = tmp_path / f"points{points}"
        argv = ["chaos", "--scheme", str(scheme), "--eps", "0.1,0.07", "--samples", "7", "--seed", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        files = {name: (out / name).read_bytes() for name in ("chaos_atoms.csv", "chaos_distance.csv")}
        results.append((files, capsys.readouterr().out))
        per_eps = json.loads((out / "chaos_manifest.json").read_text())["per_eps"]
        assert [row["M"] for row in per_eps] == [xi_grid_size(row["K"]) for row in per_eps]
        assert all(row["sampling_s"] >= 0 for row in per_eps)
        chunks.append([row["samples_per_chunk"] for row in per_eps])
    assert chunks[0] == [1, 1] and chunks[1][1] == 3 and min(chunks[2]) >= 7
    assert results[0] == results[1] == results[2]
    assert len(results[0][0]["chaos_atoms.csv"].decode().strip().split("\n")) == 1 + 2 * 2  # two atoms per eps


class TestQvCommand:
    def test_report_fields(self, capsys):
        code = main(["qv", "--K", "256", "--M", "64", "--samples", "50", "--seed", "2"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["circle_total"] - np.pi) < 1e-12
        assert payload["n_samples"] == 50
        # Monte Carlo consistency with the exact band-limited expectation
        assert abs(payload["mc_mean"] - payload["exact_sum"]) < 5 * payload["mc_stderr"]


def test_qv_limit_summary_counts_each_surviving_replicate_once():
    def result(*values):
        # a replicate whose limit run blew up reports None
        return SimpleNamespace(replicates=[{"replicate": r, "qv_limit_final": v} for r, v in enumerate(values)])

    assert _qv_limit_summary(result(3.0, None), 2.0) == {"n": 1, "mean": 3.0, "stderr": None, "pi_over_nu": np.pi / 2.0}
    assert _qv_limit_summary(result(3.0, 5.0), 1.0) == {"n": 2, "mean": 4.0, "stderr": 1.0, "pi_over_nu": np.pi}
    assert _qv_limit_summary(result(None), 1.0) == {"n": 0, "mean": None, "stderr": None, "pi_over_nu": np.pi}


def test_summary_line_without_a_standard_error():
    row = {"eps": 0.125, "n_ok": 1, "n_blowup": 1, "mean_sup_corrected": 0.01, "se_sup_corrected": None,
           "mean_sup_uncorrected": 0.02, "se_sup_uncorrected": None}
    assert _summary_line(row) == (
        "eps=0.125: sup corrected 0.01 (se n/a), uncorrected 0.02 (se n/a), blowups 1"
    )
    row.update(n_ok=2, se_sup_corrected=0.00123, se_sup_uncorrected=0.5)
    assert "(se 0.0012)" in _summary_line(row) and "(se 0.5)" in _summary_line(row)


# -- generated scheme files through ``lambda`` and ``chaos --dry-run`` ---------

_VALID = {
    "name": st.sampled_from(["fd", "my scheme"]),
    "f": st.sampled_from(["identity", "finite_difference", "galerkin"]),
    "h": st.sampled_from(["one", "indicator_pi"]),
    "mu": st.sampled_from(["(1,1);(0,-1)", "(0.5,1);(-0.5,-1)", "(2,0.5);(0,-0.5)", "(1,0.5);(-1,-0.5)"]),
    "q": st.sampled_from(["0.4", "0.1", "1"]),
}
_REAL = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]))
_BROKEN = {
    "name": st.just(""),
    "f": st.sampled_from(["bogus", "table:missing.tbl", ""]),
    "h": st.sampled_from(["bogus", "table:missing.tbl", ""]),
    "mu": st.one_of(
        st.sampled_from(["", ";", "(1,1", "(1,2,3)", "(a,b)", "1,1;0,-1"]),
        st.lists(st.tuples(_REAL, _REAL), min_size=1, max_size=3).map(
            lambda atoms: ";".join(f"({y!r},{w!r})" for y, w in atoms)
        ),
    ),
    "q": st.one_of(st.sampled_from(["abc", "", "nan", "inf", "-1", "0"]), _REAL.map(repr)),
}
_JUNK = st.sampled_from(["# comment", "", "garbage", "extra = 1", "= 1", "mu"])


@st.composite
def scheme_files(draw):
    """The text of a scheme file: every key takes a value that some valid
    scheme uses, except for at most two keys that are malformed or missing,
    and up to two junk lines may be mixed in."""
    broken = draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True))
    lines = []
    for key in _VALID:
        if key in broken and draw(st.booleans()):
            continue  # missing
        value = draw(_BROKEN[key] if key in broken else _VALID[key])
        lines.append(f"{key} = {value}")
    for line in draw(st.lists(_JUNK, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scheme_files())
def test_generated_scheme_files_exit_0_or_2(text):
    # a scheme file, however malformed, is rejected with exit 2 or used;
    # no input of this kind ends in a traceback
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "gen.scheme"
        path.write_text(text)
        for argv in (["lambda", "--scheme", str(path)], ["chaos", "--scheme", str(path), "--dry-run"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_VALIDATION), (argv[0], text)


# -- generated command lines through every subcommand ---------------------------

_RUN_CONFIG = (
    "[scheme]\nname = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\n"
    "[model]\nnu = 1\nn = 1\nK = 16\nF = 0\nG = 0.5*u1^2\nlambda_mode = closed_form\nv0 = sin:1\n"
    "eps = 0.25,0.125\nreplicates = 2\n\n"
    "[time]\ndt = 1e-3\nT = 0.01\nsample_every = 5\n\n"
    "[output]\nprefix = demo\n"
)
_NU = (["1", "0.5"], ["0", "-1", "nan", "inf", "x"])
_TOL = (["1e-6"], ["0", "-1", "nan", "inf"])
_SAMPLES = (["2", "3"], ["1", "0", "-2", "x"])
_BAD_EPS = ["0", "0.3,0.3", "0.3,-0.1", "x", ""]
# per subcommand, each flag's (usable, out-of-range or malformed) values; a
# chaos ladder is out of range when eps^-1/3 < k <= eps^-1.5 holds no
# integer k at one of its eps, as above eps = 2^(-2/3) ~ 0.63
_ARGS = {
    "lambda": {"--nu": _NU, "--tol": _TOL},
    "converge": {},  # a converge run is its config (below) and seed
    "chaos": {
        "--eps": (["0.3,0.25,0.2", "0.25,0.125"], _BAD_EPS + ["0.9,0.85,0.8", "0.3,0.8", "2,0.5"]),
        "--nu": _NU,
        "--samples": _SAMPLES,
    },
    "qv": {"--nu": _NU, "--K": (["8"], ["0", "-1"]), "--M": (["16"], ["1", "0"]), "--samples": _SAMPLES},
}


@st.composite
def command_lines(draw):
    """(argv, out_is_a_file) for one subcommand with tiny sizes: every flag
    takes a usable value except for at most two that are out of range or
    malformed (``--workers`` among them), and --out, for a subcommand that
    takes it, is a fresh path or an existing file."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    # lambda takes neither --workers nor --out
    flags = {**_ARGS[command], **({"--workers": (["1"], ["0", "-1"])} if command != "lambda" else {})}
    broken = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    argv = [command]
    for flag, (usable, bad) in flags.items():
        argv += [flag, draw(st.sampled_from(bad if flag in broken else usable))]
    argv += ["--dry-run"] * draw(st.booleans())
    return argv, draw(st.booleans())


def _tree(root):
    """Every path below ``root`` with its bytes (None for a directory)."""
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None) for p in root.rglob("*"))


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as err:  # argparse rejects what it cannot parse
            return err.code


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_generated_command_lines_dry_run_exits_2_exactly_when_the_run_does(case):
    # the dry run is the run's own checks: the one refuses a command line
    # exactly when the other does, and a refused one writes nothing
    argv, out_is_a_file = case
    argv = [a for a in argv if a != "--dry-run"]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "forward.scheme").write_text("name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
        (work / "run.cfg").write_text(_RUN_CONFIG)
        out = work / "out"
        if out_is_a_file:
            out.write_text("keep\n")
        source = {"converge": ["--config", str(work / "run.cfg")], "qv": []}.get(
            argv[0], ["--scheme", str(work / "forward.scheme")]
        )
        argv += source + (["--out", str(out)] if argv[0] != "lambda" else [])
        inputs = _tree(work)
        dry = _exit_code(argv + ["--dry-run"])
        assert _tree(work) == inputs, argv  # a dry run writes nothing
        code = _exit_code(argv)
        assert (dry == EXIT_VALIDATION) == (code == EXIT_VALIDATION), (argv, dry, code)
        if code == EXIT_VALIDATION:
            assert _tree(work) == inputs, argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_generated_command_lines_exit_0_or_2(case):
    # no argument of this kind ends in a traceback, and a rejected command
    # line writes nothing, not even into --out
    argv, out_is_a_file = case
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "forward.scheme").write_text("name = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
        (work / "run.cfg").write_text(_RUN_CONFIG)
        out = work / "out"
        if out_is_a_file:
            out.write_text("keep\n")
        inputs = sorted(p.name for p in work.iterdir())
        source = {"converge": ["--config", str(work / "run.cfg")], "qv": []}.get(
            argv[0], ["--scheme", str(work / "forward.scheme")]
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv + source + (["--out", str(out)] if argv[0] != "lambda" else []))
            except SystemExit as err:  # argparse rejects what it cannot parse
                code = err.code
        assert code in (EXIT_OK, EXIT_VALIDATION), (argv, out_is_a_file)
        if code == EXIT_VALIDATION:
            assert sorted(p.name for p in work.iterdir()) == inputs, (argv, out_is_a_file)
            assert not out_is_a_file or out.read_text() == "keep\n"
