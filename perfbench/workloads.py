"""The three workloads: their configs, the input files made from the seed,
and the program commands one round runs.

Only the standard library is imported here, so the set-up probe can load
this module before it starts its clock.  Every round of a run executes the
same commands on the same inputs, so rounds repeat each other byte for byte.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

NU = 1.0
# forward difference (delta_1 - delta_0): a = 1, b = 0 in the closed form
OFFSET_A, OFFSET_B = 1.0, 0.0
FORWARD_MU = "(1,1);(0,-1)"

BURGERS = {
    "prefix": "burgers",
    "K": 1024,
    "eps": (0.125, 0.0625, 0.03125, 0.015625),
    "replicates": 2,
    "dt": 2.5e-4,
    "T": 0.1,
    "sample_every": 25,
    "noise_substeps": 2,
}
SYSTEM = {
    "prefix": "system",
    "K": 128,
    "eps": (0.125, 0.0625, 0.03125),
    "replicates": 4,
    "dt": 5e-4,
    "T": 0.15,
    "sample_every": 25,
    "noise_substeps": 1,
}
CHAOS = {
    "eps": (0.04, 0.028284, 0.02, 0.014142, 0.01),
    "samples": 200,
    "gamma": 1.0 / 3.0,
    "chi": 1.5,
}
QV = {"K": 8192, "M": 2048, "samples": 1000}

NAMES = ("converge-burgers", "converge-system", "stationary")
CONFIG_FILE = "run.cfg"
SCHEME_FILE = "fd.scheme"


def n_steps(params):
    return round(params["T"] / params["dt"])


def program_seed(workload, seed):
    """The seed handed to the program: a 63-bit hash of workload and seed."""
    digest = hashlib.sha256(f"{workload}/{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _eps_text(eps):
    return ",".join(repr(e) for e in eps)


def burgers_config():
    p = BURGERS
    return (
        "[scheme]\nname = forward\nf = identity\nh = one\n"
        f"mu = {FORWARD_MU}\nq = 1\n\n"
        f"[model]\nnu = {NU!r}\nn = 1\nK = {p['K']}\nF = 0\nG = 0.5*u1^2\n"
        "lambda_mode = closed_form\nv0 = zero\n"
        f"eps = {_eps_text(p['eps'])}\nreplicates = {p['replicates']}\n\n"
        f"[time]\ndt = {p['dt']!r}\nT = {p['T']!r}\nsample_every = {p['sample_every']}\n"
        f"noise_substeps = {p['noise_substeps']}\n\n"
        f"[output]\nprefix = {p['prefix']}\n"
    )


def system_config():
    p = SYSTEM
    return (
        "[scheme]\nname = fd\nf = finite_difference\nh = indicator_pi\n"
        f"mu = {FORWARD_MU}\nq = 0.4\n\n"
        f"[model]\nnu = {NU!r}\nn = 2\nK = {p['K']}\nF = -u1; -u2\n"
        "G = 0.5*u1^2 + 0.5*u2^2; u1*u2\nlambda_mode = quadrature\nv0 = sin:1\n"
        f"eps = {_eps_text(p['eps'])}\nreplicates = {p['replicates']}\n\n"
        f"[time]\ndt = {p['dt']!r}\nT = {p['T']!r}\nsample_every = {p['sample_every']}\n"
        f"noise_substeps = {p['noise_substeps']}\n\n"
        f"[output]\nprefix = {p['prefix']}\n"
    )


FD_SCHEME = f"name = fd\nf = finite_difference\nh = indicator_pi\nmu = {FORWARD_MU}\nq = 0.4\n"


@dataclass
class RoundOutput:
    """What one round left behind: file bytes by name, and each command's
    standard output and exit code by label."""

    files: dict
    stdout: dict
    exit_codes: dict


@dataclass(frozen=True)
class Plan:
    """What one run of a workload executes, prepared in ``workdir``."""

    workload: str
    seed: int  # the program's seed
    workdir: Path
    commands: tuple  # ((label, argv), ...) run in order, once per round
    ops_per_round: int

    @property
    def out(self):
        return self.workdir / "out"


def prepare(workload, seed, workdir):
    """Write the workload's input files into ``workdir`` and return its plan."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    pseed = program_seed(workload, seed)
    common = ["--seed", str(pseed), "--workers", "1"]
    out = str(workdir / "out")
    if workload == "stationary":
        scheme = workdir / SCHEME_FILE
        scheme.write_text(FD_SCHEME)
        chaos = ["chaos", "--scheme", str(scheme), "--eps", _eps_text(CHAOS["eps"]),
                 "--nu", repr(NU), "--samples", str(CHAOS["samples"]), "--out", out] + common
        qv = ["qv", "--nu", repr(NU), "--K", str(QV["K"]), "--M", str(QV["M"]),
              "--samples", str(QV["samples"]), "--out", out] + common
        commands = (("chaos", chaos), ("qv", qv))
        ops = len(CHAOS["eps"]) * CHAOS["samples"] + QV["samples"]
    else:
        params = BURGERS if workload == "converge-burgers" else SYSTEM
        text = burgers_config() if workload == "converge-burgers" else system_config()
        config = workdir / CONFIG_FILE
        config.write_text(text)
        commands = (("converge", ["converge", "--config", str(config), "--out", out] + common),)
        ops = params["replicates"]
    return Plan(workload, pseed, workdir, commands, ops)


def expected_counts(workload):
    """Per-round call counts that follow in closed form from the config.

    With R replicates, E eps rungs, n steps and s noise substeps, a converge
    round steps R(2+E) runs; each step of each run draws s Wiener increments,
    and every draw is one ModeGaussianDraw.  The replicate's initial draw and
    the scaling table's re-draw of it (once per eps) add R(1+E) more.
    """
    if workload == "stationary":
        samples = len(CHAOS["eps"]) * CHAOS["samples"] + QV["samples"]
        return {
            "noise.sample_stationary_pair.calls": samples,
            "noise.ModeGaussianDraw.sample.calls": samples,
            "noise.wiener_increment_coeffs.calls": 0,
            "integrator.Stepper.calls": 0,
            "integrator.step_coeffs.calls": 0,
        }
    p = BURGERS if workload == "converge-burgers" else SYSTEM
    R, E, n, s = p["replicates"], len(p["eps"]), n_steps(p), p["noise_substeps"]
    return {
        "noise.wiener_increment_coeffs.calls": R * (2 + E) * n * s,
        "noise.ModeGaussianDraw.sample.calls": R * (2 + E) * n * s + R * (1 + E),
        "noise.sample_stationary_pair.calls": 0,
        "integrator.nonlinearity.approximate.calls": R * E * n,
        "integrator.nonlinearity.limit.calls": 2 * R * n,
        "integrator.step_coeffs.calls": R * (2 + E) * n,
        "integrator.Stepper.calls": R * (2 + E),
        "integrator.simulate.calls": R * (2 + E),
    }
