"""Tests of the benchmark itself: its output checks reject corrupted
outputs, tracing leaves the outputs unchanged, and the traced counts follow
their closed forms.

    python3 -m pytest perfbench/tests -q

One plain and one traced round of each workload run once per test run
(about half a minute in all).
"""

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """workload -> (plain round output, traced round output, traced rounds)."""
    result = {}
    for name in workloads.NAMES:
        plan = workloads.prepare(name, 0, tmp_path_factory.mktemp(name))
        _, plain = run.run_round(plan)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            _, traced = run.run_round(plan, tracer)
        finally:
            tracer.uninstall()
        result[name] = (plain, traced, tracer.per_round())
    return result


def corrupted(out, edit_files=None, edit_stdout=None):
    """Copy of a round with edited files or stdout; manifests are re-digested
    so that only the check under test can notice the edit."""
    out = copy.deepcopy(out)
    if edit_files:
        edit_files(out.files)
    if edit_stdout:
        edit_stdout(out.stdout)
    for name, data in list(out.files.items()):
        if name.endswith("_manifest.json"):
            manifest = json.loads(data)
            for fname in manifest["outputs"]:
                manifest["outputs"][fname] = hashlib.sha256(out.files[fname]).hexdigest()
            out.files[name] = json.dumps(manifest).encode()
    return out


def edit_json(files, name, edit):
    data = json.loads(files[name])
    edit(data)
    files[name] = json.dumps(data).encode()


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_real_outputs_pass(rounds, workload):
    plain, traced, _ = rounds[workload]
    assert checks.check(plain, workload) == []
    assert checks.failed_ops(plain, workload) == 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_round_writes_the_same_bytes(rounds, workload):
    plain, traced, _ = rounds[workload]
    assert run.digested(traced) == run.digested(plain)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_trace_counts_and_self_times_check_out(rounds, workload):
    _, _, traced = rounds[workload]
    assert run.check_trace(traced, workload) == []


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_self_times_add_up_to_the_body(rounds, workload):
    _, traced_out, traced = rounds[workload]
    m = run.layer_metrics(traced, [traced_out])
    total = sum(m[f"{module}.self_s"] for module in run.MODULES) + m["trace.unaccounted_s"]
    assert total == pytest.approx(m["trace.body_s"], rel=1e-9)
    assert set(m) | {"trace.overhead"} == set(run.per_layer_units())


@pytest.mark.parametrize("workload", ["converge-burgers", "converge-system"])
def test_swapped_columns_rejected(rounds, workload):
    prefix = (workloads.BURGERS if workload == "converge-burgers" else workloads.SYSTEM)["prefix"]

    def swap(files):
        def rows(summary):
            for row in summary["per_eps"]:
                row["mean_sup_corrected"], row["mean_sup_uncorrected"] = (
                    row["mean_sup_uncorrected"],
                    row["mean_sup_corrected"],
                )

        edit_json(files, f"{prefix}_summary.json", rows)

    assert checks.check(corrupted(rounds[workload][0], swap), workload)


@pytest.mark.parametrize("workload", ["converge-burgers", "converge-system"])
def test_swapped_table_columns_rejected(rounds, workload):
    prefix = (workloads.BURGERS if workload == "converge-burgers" else workloads.SYSTEM)["prefix"]

    def swap(files):
        for name in files:
            if name.startswith(f"{prefix}_eps"):
                header, *lines = files[name].decode().splitlines()
                cols = [line.split(",") for line in lines]
                rows = [",".join([c[0], c[2], c[1]] + c[3:]) for c in cols]
                files[name] = "\n".join([header] + rows).encode() + b"\n"

    errors = checks.check(corrupted(rounds[workload][0], swap), workload)
    assert any("exceeds the summary" in e for e in errors)


@pytest.mark.parametrize("workload", ["converge-burgers", "converge-system"])
def test_lambda_off_by_1e_6_rejected(rounds, workload):
    prefix = (workloads.BURGERS if workload == "converge-burgers" else workloads.SYSTEM)["prefix"]

    def shift(files):
        edit_json(files, f"{prefix}_summary.json", lambda s: s.update({"lambda": s["lambda"] + 1e-6}))

    errors = checks.check(corrupted(rounds[workload][0], shift), workload)
    assert any("Lambda" in e for e in errors)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tampered_digest_rejected(rounds, workload):
    out = copy.deepcopy(rounds[workload][0])
    name = next(n for n in out.files if n.endswith("_manifest.json"))
    manifest = json.loads(out.files[name])
    first = sorted(manifest["outputs"])[0]
    manifest["outputs"][first] = hashlib.sha256(b"tampered").hexdigest()
    out.files[name] = json.dumps(manifest).encode()
    assert any("digest" in e for e in checks.check(out, workload))


def test_tampered_file_rejected(rounds):
    out = copy.deepcopy(rounds["stationary"][0])
    out.files["chaos_distance.csv"] += b"\n"
    assert any("digest" in e for e in checks.check(out, "stationary"))


def test_qv_mean_moved_by_10_se_rejected(rounds):
    def move(stdout):
        qv = json.loads(stdout["qv"])
        qv["mc_mean"] += 10.0 * qv["mc_stderr"]
        stdout["qv"] = json.dumps(qv)

    errors = checks.check(corrupted(rounds["stationary"][0], edit_stdout=move), "stationary")
    assert any("QV mean" in e for e in errors)


def test_chaos_atom_mean_moved_rejected(rounds):
    def move(files):
        lines = files["chaos_atoms.csv"].decode().splitlines()
        cols = lines[1].split(",")
        exact = checks.atom_mode_sum(float(cols[0]), float(cols[1]))
        cols[2] = repr(exact + 6.0 * float(cols[3]))
        lines[1] = ",".join(cols)
        files["chaos_atoms.csv"] = ("\n".join(lines) + "\n").encode()

    errors = checks.check(corrupted(rounds["stationary"][0], move), "stationary")
    assert any("within 5 se" in e for e in errors)


def test_blown_up_replicates_counted_as_failed(rounds):
    def blow(files):
        def one(summary):
            summary["per_eps"][0]["n_blowup"] = 1
            summary["blowup_fraction"] = 0.125

        edit_json(files, "burgers_summary.json", one)

    out = corrupted(rounds["converge-burgers"][0], blow)
    assert checks.failed_ops(out, "converge-burgers") == 1
    assert checks.check(out, "converge-burgers")


def test_reference_sums_match_the_program():
    from burgerslab.correction import lambda_eps_y
    from burgerslab.estimators import expected_qv
    from burgerslab.schemes import finite_difference_scheme

    scheme = finite_difference_scheme(1, 0)
    for eps in workloads.CHAOS["eps"]:
        assert checks.atom_mode_sum(eps, 1.0) == pytest.approx(lambda_eps_y(scheme, eps, y=1.0), rel=1e-12)
    assert checks.qv_exact(1.0, 8192, 2048) == pytest.approx(expected_qv(1.0, 8192, 2048), rel=1e-12)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mib"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.prepare("converge-system", 3, tmp_path / "a")
    b = workloads.prepare("converge-system", 3, tmp_path / "b")
    c = workloads.prepare("converge-system", 4, tmp_path / "c")
    assert a.seed == b.seed != c.seed
    assert (tmp_path / "a" / workloads.CONFIG_FILE).read_bytes() == (tmp_path / "b" / workloads.CONFIG_FILE).read_bytes()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stationary", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
