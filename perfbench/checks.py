"""Output checks, computed apart from the program.

Each check reads one round's outputs (file bytes by name, the standard
output of each command and its exit code) and returns a list of failure
messages; an empty list means the round is correct.  Reference values are
closed forms and mode sums evaluated here with numpy, never by calling
burgerslab.
"""

import csv
import hashlib
import io
import json
import numpy as np

import workloads as W


def lambda_closed_form(a=W.OFFSET_A, b=W.OFFSET_B, nu=W.NU):
    """Correction constant of the one-sided measure (delta_a - delta_-b)/(a+b)."""
    return (a - b) / (4.0 * nu * (a + b))


def fd_symbols(t):
    """Finite-difference scheme: f(t) = 4 sin^2(t/2)/t^2 and h = 1 below pi;
    f = inf and h = 0 from pi on."""
    t = np.asarray(t, dtype=float)
    inside = t < np.pi
    f = np.full(t.shape, np.inf)
    f[inside] = np.sinc(t[inside] / (2.0 * np.pi)) ** 2  # = (sin(t/2)/(t/2))^2
    return f, inside.astype(float)


def atom_mode_sum(eps, y, nu=W.NU, gamma=W.CHAOS["gamma"], chi=W.CHAOS["chi"]):
    """E of the spatial mean of (1/(2 eps)) (u(. + eps y) - u)^2 for the
    band-projected discretized stationary sample: the modes eps^-gamma < k
    <= eps^-chi each add (1 - cos(eps k y)) h^2 / (2 pi eps (1 + nu k^2 f))."""
    k = np.arange(1, int(np.ceil(eps**-chi)) + 1, dtype=float)
    k = k[(k > eps**-gamma) & (k <= eps**-chi)]
    f, h = fd_symbols(eps * k)
    live = np.isfinite(f)
    k, f, h = k[live], f[live], h[live]
    terms = (1.0 - np.cos(eps * k * y)) * h**2 / (2.0 * np.pi * eps * (1.0 + nu * k**2 * f))
    return float(np.sum(terms))


def qv_exact(nu, K, M):
    """E of sum_j (u(x_{j+1}) - u(x_j))^2 on M points for the stationary
    sample with modes |k| <= K of variance 1/(2(1 + nu k^2))."""
    k = np.arange(1, K + 1, dtype=float)
    return float(M / (2.0 * np.pi) * np.sum((2.0 - 2.0 * np.cos(2.0 * np.pi * k / M)) / (1.0 + nu * k * k)))


def read_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], [[float(v) for v in row] for row in rows[1:] if row]


def check_manifest(out, name, expected_outputs):
    """Every expected output is listed, and each listed digest is the
    SHA-256 of the file's bytes."""
    errors = []
    if name not in out.files:
        return [f"{name} missing"]
    listed = json.loads(out.files[name])["outputs"]
    if sorted(listed) != sorted(expected_outputs):
        errors.append(f"{name} lists {sorted(listed)}, expected {sorted(expected_outputs)}")
    for fname, digest in sorted(listed.items()):
        data = out.files.get(fname)
        if data is None:
            errors.append(f"{fname} listed in {name} but not written")
        elif hashlib.sha256(data).hexdigest() != digest:
            errors.append(f"{fname}: digest in {name} does not match the file")
    return errors


def check_converge(out, workload):
    p = W.BURGERS if workload == "converge-burgers" else W.SYSTEM
    prefix, ladder = p["prefix"], p["eps"]
    errors = []
    if out.exit_codes["converge"] != 0:
        errors.append(f"converge exited {out.exit_codes['converge']}")
    summary_name = f"{prefix}_summary.json"
    if summary_name not in out.files:
        return errors + [f"{summary_name} missing"]
    summary = json.loads(out.files[summary_name])
    rows = summary["per_eps"]
    if [r["eps"] for r in rows] != list(ladder):
        return errors + [f"summary eps {[r['eps'] for r in rows]} != ladder {list(ladder)}"]
    if summary["blowup_fraction"] != 0 or any(r["n_blowup"] or r["n_ok"] != p["replicates"] for r in rows):
        return errors + ["blow-ups reported"]

    lam, want = summary["lambda"], lambda_closed_form()
    tol = 1e-12 if workload == "converge-burgers" else 1e-8
    if not abs(lam - want) <= tol:
        errors.append(f"Lambda {lam!r} differs from the closed form {want!r} by more than {tol:g}")

    corr = [r["mean_sup_corrected"] for r in rows]
    unc = [r["mean_sup_uncorrected"] for r in rows]
    if not all(c0 > c1 for c0, c1 in zip(corr, corr[1:])):
        errors.append(f"corrected sup error not strictly decreasing along the ladder: {corr}")

    steps = list(range(0, W.n_steps(p) + 1, p["sample_every"]))
    for eps, c_max, u_max in zip(ladder, corr, unc):
        name = f"{prefix}_eps{eps:g}.csv"
        if name not in out.files:
            errors.append(f"{name} missing")
            continue
        header, table = read_csv(out.files[name])
        if header != ["t", "sup_err_corrected", "sup_err_uncorrected",
                      "halpha_err_corrected", "halpha_err_uncorrected"]:
            errors.append(f"{name}: unexpected header {header}")
            continue
        t = np.array([row[0] for row in table])
        if t.size != len(steps) or not np.allclose(t, np.array(steps) * p["dt"], rtol=0, atol=1e-12):
            errors.append(f"{name}: sample times are not the recorded steps")
            continue
        # the mean over replicates of a curve never exceeds the mean of the
        # replicates' maxima over time, which is what the summary reports
        slack = 1.0 + 1e-12
        if max(row[1] for row in table) > c_max * slack or max(row[2] for row in table) > u_max * slack:
            errors.append(f"{name}: a mean curve exceeds the summary's mean maximum")
        if workload == "converge-burgers" and (table[0][1] != 0.0 or table[0][2] != 0.0):
            errors.append(f"{name}: sup errors at t = 0 are {table[0][1]!r}, {table[0][2]!r}, not 0")

    if workload == "converge-burgers":
        for i in (-2, -1):
            if not corr[i] < 0.5 * unc[i]:
                errors.append(f"eps {ladder[i]:g}: corrected {corr[i]:.6g} not < 0.5 x uncorrected {unc[i]:.6g}")
        if not unc[-1] >= 0.8 * unc[-2]:
            errors.append(f"uncorrected error fell by more than 20% on the last rung: {unc[-2]:.6g} -> {unc[-1]:.6g}")
    else:
        if not corr[-1] < unc[-1]:
            errors.append(f"smallest eps: corrected {corr[-1]:.6g} not below uncorrected {unc[-1]:.6g}")
        scaling_name = f"{prefix}_scaling.csv"
        header, table = read_csv(out.files.get(scaling_name, b"eps,mean\n"))
        means = [row[1] for row in table]
        if [row[0] for row in table] != list(ladder):
            errors.append(f"{scaling_name}: rows do not follow the ladder")
        elif not (all(m > 0 for m in means) and all(m0 > m1 for m0, m1 in zip(means, means[1:]))):
            errors.append(f"{scaling_name}: means {means} not positive and decreasing with eps")

    outputs = [f"{prefix}_eps{eps:g}.csv" for eps in ladder]
    outputs += [f"{prefix}_scaling.csv", summary_name, f"{prefix}_plot.gp"]
    return errors + check_manifest(out, f"{prefix}_manifest.json", outputs)


def check_stationary(out):
    errors = [f"{label} exited {code}" for label, code in out.exit_codes.items() if code != 0]
    if errors:
        return errors
    ladder, n = W.CHAOS["eps"], W.CHAOS["samples"]

    header, atoms = read_csv(out.files.get("chaos_atoms.csv", b"eps\n"))
    if [row[0] for row in atoms] != list(ladder):
        return [f"chaos_atoms.csv: expected one row per eps of {list(ladder)}"]
    for eps, y, mean, stderr, count, reported in atoms:
        exact = atom_mode_sum(eps, y)
        if count != n:
            errors.append(f"chaos atom eps={eps:g}: {count:g} samples, expected {n}")
        if not abs(mean - exact) < 5.0 * stderr:
            errors.append(f"chaos atom eps={eps:g} y={y:g}: mean {mean:.8g} is not within 5 se ({stderr:.3g}) of {exact:.8g}")
        if not abs(reported - exact) <= 1e-9 * abs(exact):
            errors.append(f"chaos atom eps={eps:g} y={y:g}: reported mode sum {reported!r} != {exact!r}")

    slope = json.loads(out.stdout["chaos"])["distance_slope"]
    header, dist = read_csv(out.files.get("chaos_distance.csv", b"eps\n"))
    if [row[0] for row in dist] != list(ladder):
        errors.append("chaos_distance.csv: expected one row per eps")
    else:
        fit = np.polyfit(np.log([r[0] for r in dist]), np.log([r[1] for r in dist]), 1)[0]
        if not abs(fit - slope) <= 1e-9:
            errors.append(f"reported distance slope {slope!r} differs from the fit {fit!r} of chaos_distance.csv")
    if not 0.35 <= slope <= 0.65:
        errors.append(f"distance slope {slope:.4f} outside [0.35, 0.65]")
    errors += check_manifest(out, "chaos_manifest.json", ["chaos_atoms.csv", "chaos_distance.csv"])

    qv = json.loads(out.stdout["qv"])
    exact = qv_exact(W.NU, W.QV["K"], W.QV["M"])
    total = np.pi / W.NU
    if qv["n_samples"] != W.QV["samples"]:
        errors.append(f"qv processed {qv['n_samples']} samples, expected {W.QV['samples']}")
    if not abs(exact - total) < 0.03 * total:
        errors.append(f"exact QV sum {exact:.6g} is not within 3% of pi/nu")
    if not abs(qv["exact_sum"] - exact) <= 1e-12 * exact:
        errors.append(f"reported exact QV sum {qv['exact_sum']!r} != {exact!r}")
    if not abs(qv["mc_mean"] - exact) < 5.0 * qv["mc_stderr"]:
        errors.append(f"QV mean {qv['mc_mean']:.6g} not within 5 se ({qv['mc_stderr']:.3g}) of {exact:.6g}")
    return errors


def check(out, workload):
    if workload == "stationary":
        return check_stationary(out)
    return check_converge(out, workload)


def failed_ops(out, workload):
    """Operations of the round that failed.  A converge operation is a
    replicate: all of them fail without a summary, and otherwise each
    blown-up run is counted against a replicate of its own, at most R."""
    if workload == "stationary":
        per_command = {"chaos": len(W.CHAOS["eps"]) * W.CHAOS["samples"], "qv": W.QV["samples"]}
        return sum(per_command[label] for label, code in out.exit_codes.items() if code != 0)
    p = W.BURGERS if workload == "converge-burgers" else W.SYSTEM
    summary = out.files.get(f"{p['prefix']}_summary.json")
    if summary is None:
        return p["replicates"]
    return min(p["replicates"], sum(row["n_blowup"] for row in json.loads(summary)["per_eps"]))
