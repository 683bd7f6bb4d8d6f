import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from burgerslab import integrator
from burgerslab.cli import EXIT_BLOWUP, EXIT_OK, EXIT_QUADRATURE, EXIT_VALIDATION, _summary_line, main


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

    def test_invalid_scheme_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.scheme"
        path.write_text("name = bad\nf = identity\nh = one\nmu = (1,1)\nq = 1\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_4(self, scheme_file, capsys):
        code = main(["lambda", "--scheme", str(scheme_file), "--tol", "1e-18"])
        assert code == EXIT_QUADRATURE

    def test_unreadable_scheme_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbled.scheme"
        path.write_text("name = forward\ngarbage\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
        assert main(["lambda", "--scheme", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "garbled.scheme" in err and "garbage" in err

    def test_dry_run(self, scheme_file, capsys):
        assert main(["lambda", "--scheme", str(scheme_file), "--dry-run"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dry_run"] is True


class TestConvergeCommand:
    def test_outputs_and_zero_lambda_columns(self, tmp_path, run_config, capsys):
        cfg_zero = tmp_path / "zero.cfg"
        cfg_zero.write_text(run_config.read_text().replace("closed_form", "zero"))
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

    @pytest.mark.parametrize("mode", ["closed_form", "quadrature", "zero"])
    def test_manifest_records_lambda_and_validation(self, tmp_path, run_config, mode):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(run_config.read_text().replace("closed_form", mode))
        out = tmp_path / "m"
        assert main(["converge", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == EXIT_OK
        manifest = json.loads((out / "demo_manifest.json").read_text())
        summary = json.loads((out / "demo_summary.json").read_text())
        record = manifest["lambda"]
        assert record["lambda_mode"] == mode and record["value"] == summary["lambda"]
        if mode == "zero":
            assert set(record) == {"lambda_mode", "value"}
        else:
            assert record["method"] == mode and record["abs_error_estimate"] >= 0.0
        assert manifest["scheme_validation"].startswith("validation of scheme 'forward':")
        assert "FAIL" not in manifest["scheme_validation"]
        assert manifest["numpy_version"] == np.__version__ and manifest["scipy_version"]
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

    def test_dry_run_unreachable_tolerance_exits_4(self, tmp_path, run_config, capsys):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(run_config.read_text().replace("closed_form", "quadrature"))
        args = ["converge", "--config", str(cfg), "--out", str(tmp_path / "q"), "--dry-run"]
        assert main(args) == EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["lambda"] - 0.25) < 1e-8
        assert main(args + ["--tol", "1e-18"]) == EXIT_QUADRATURE
        assert "quadrature did not converge" in capsys.readouterr().err

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
            (
                "f = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1",
                "f = finite_difference\nh = indicator_pi\nmu = (0.5,1);(-0.5,-1)\nq = 0.4",
                "closed form holds only for integer offsets",
            ),
            ("K = 16", "K = sixteen", "sixteen"),
            ("eps = 0.25,0.125", "eps = 0.25,0", "eps"),
            ("eps = 0.25,0.125", "eps = ,", "eps"),
            ("replicates = 2", "replicates = 1", "replicates"),
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
        assert not (tmp_path / "x" / "demo_summary.json").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--replicates", "0"], "--replicates"),
            (["--replicates", "-1"], "--replicates"),
            (["--replicates", "1"], "--replicates"),
            (["--eps", "0"], "--eps"),
            (["--eps", "0.25,-0.1"], "--eps"),
            (["--eps", "0.25,x"], "--eps"),
            (["--eps", ""], "--eps"),
        ],
    )
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_bad_arguments_exit_2_before_writing(self, tmp_path, run_config, capsys, args, message, dry_run):
        out = tmp_path / "out"
        argv = ["converge", "--config", str(run_config), "--out", str(out)] + args
        assert main(argv + (["--dry-run"] if dry_run else [])) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [["chaos", "--scheme", "s"], ["qv"]])
    def test_tol_only_where_quadrature_runs(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main(command + ["--tol", "1e-8"])
        assert err.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_blowup_quota_exits_3(self, tmp_path, capsys):
        # cubic self-amplification from a large profile: every replicate
        # leaves the finite range within a few steps
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "[scheme]\nname = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\n"
            "[model]\nnu = 1\nn = 1\nK = 8\nF = u1^3\nG = 0\n"
            "lambda_mode = zero\nv0 = sin:10\neps = 0.25\nreplicates = 2\n\n"
            "[time]\ndt = 0.01\nT = 0.2\nsample_every = 2\n\n"
            "[output]\nprefix = boom\n"
        )
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "boom")])
        assert code == EXIT_BLOWUP
        summary = json.loads((tmp_path / "boom" / "boom_summary.json").read_text())
        assert summary["blowup_fraction"] > 0.2


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
        (["qv", "--nu", "-1"], "--nu"),
        (["qv", "--samples", "0"], "--samples"),
        (["qv", "--samples", "1", "--dry-run"], "--samples"),
        (["chaos", "--eps", "0"], "--eps"),
        (["chaos", "--eps", "0.04,-0.1"], "--eps"),
        (["chaos", "--eps", "0.04,x"], "--eps"),
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
    assert main(args + extra + ["--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


class TestQvCommand:
    def test_report_fields(self, capsys):
        code = main(["qv", "--K", "256", "--M", "64", "--samples", "50", "--seed", "2"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["circle_total"] - np.pi) < 1e-12
        assert payload["n_samples"] == 50
        # Monte Carlo consistency with the exact band-limited expectation
        assert abs(payload["mc_mean"] - payload["exact_sum"]) < 5 * payload["mc_stderr"]


def test_summary_line_without_a_standard_error():
    row = {"eps": 0.125, "n_ok": 1, "n_blowup": 1, "mean_sup_corrected": 0.01, "se_sup_corrected": None,
           "mean_sup_uncorrected": 0.02, "se_sup_uncorrected": None}
    assert _summary_line(row) == (
        "eps=0.125: sup corrected 0.01 (se n/a), uncorrected 0.02 (se n/a), blowups 1"
    )
    row.update(n_ok=2, se_sup_corrected=0.00123, se_sup_uncorrected=0.5)
    assert "(se 0.0012)" in _summary_line(row) and "(se 0.5)" in _summary_line(row)
