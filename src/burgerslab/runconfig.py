"""Plain-text experiment descriptions.

A run config has four sections of key = value lines:

    [scheme]   either  file = <scheme description path>  or the scheme keys
               inline (name, f, h, mu, q; see schemes.load_scheme_file)
    [model]    nu, n, K, F, G (polynomial text per component),
               lambda_mode (quadrature|closed_form|explicit:<v>|zero),
               v0 (zero | sin:<amp>[:<comp>] | cos:<amp>[:<comp>] |
               modes:<path>), alpha, eps (comma list), replicates
    [time]     dt, T, sample_every, noise_substeps
    [output]   prefix

K, dt and T are required.  A key outside these lists, in any section, is
rejected by name rather than ignored.  Everything is inspectable text; the
parsed object echoes its source exactly, and a content hash of that echo
rides along in every output sidecar.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .integrator import SimConfig
from .nonlin import parse_polynomial_map
from .schemes import scheme_from_mapping, load_scheme_file
from .spectral import SpectralField


def parse_v0(spec, K, n):
    """Initial-profile spec -> band-limited SpectralField (or None for zero)."""
    spec = spec.strip()
    if spec == "zero":
        return None
    if spec.startswith(("sin:", "cos:")):
        parts = spec.split(":")
        amp = float(parts[1])
        if not math.isfinite(amp):
            raise ValueError(f"v0 amplitude must be finite, got {spec!r}")
        comp = int(parts[2]) - 1 if len(parts) > 2 else 0
        if not 0 <= comp < n:
            raise ValueError(f"v0 component out of range in {spec!r}")
        coeff = amp * np.sqrt(np.pi / 2.0)
        value = -1j * coeff if spec.startswith("sin:") else coeff
        c = np.zeros((n, K + 1), dtype=np.complex128)
        c[comp, 1] = value
        return SpectralField(K, n, c)
    if spec.startswith("modes:"):
        path = spec[len("modes:") :]
        c = np.zeros((n, K + 1), dtype=np.complex128)
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#") or line.startswith("k,"):
                    continue
                where = f"{path}:{lineno}"
                fields = line.split(",")
                if len(fields) != 4:
                    raise ValueError(f"{where}: expected 'k,comp,re,im', got {line!r}")
                try:
                    k, comp = int(fields[0]), int(fields[1]) - 1
                    val = float(fields[2]) + 1j * float(fields[3])
                except ValueError:
                    raise ValueError(f"{where}: cannot parse {line!r}") from None
                if not np.isfinite(val):
                    raise ValueError(f"{where}: value must be finite, got {line!r}")
                if not 0 <= comp < n:
                    raise ValueError(f"{where}: component {comp + 1} outside 1..{n}")
                if abs(k) > K:
                    raise ValueError(f"{where}: mode {k} outside band [-{K}, {K}]")
                # one entry per mode: a line for -k gives the conjugate of
                # mode k, a line for 0 its real part
                c[comp, abs(k)] = val if k > 0 else np.conj(val) if k < 0 else val.real
        return SpectralField(K, n, c)
    raise ValueError(f"unknown v0 spec {spec!r}")


@dataclass
class RunSpec:
    """Parsed run config: a SimConfig factory plus experiment-level settings."""

    scheme: object
    model: dict
    time: dict
    output_prefix: str
    eps_list: tuple
    replicates: int
    echo: str

    def content_hash(self):
        return hashlib.sha256(self.echo.encode("utf-8")).hexdigest()

    def sim_config(self, seed=0, lambda_tol=1e-8):
        m, t = self.model, self.time
        n = int(m.get("n", 1))
        K = int(m["K"])
        for name, value in (("n", n), ("K", K)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        lam_mode = m.get("lambda_mode", "closed_form")
        lam_value = None
        if lam_mode.startswith("explicit:"):
            lam_value = float(lam_mode.split(":", 1)[1])
            lam_mode = "explicit"
        return SimConfig(
            nu=float(m.get("nu", 1.0)),
            n=n,
            K=K,
            dt=float(t["dt"]),
            T=float(t["T"]),
            eps=self.eps_list[0],
            scheme=self.scheme,
            F=parse_polynomial_map(m.get("F", ";".join(["0"] * n)), n),
            G=parse_polynomial_map(m.get("G", ";".join(["0"] * n)), n),
            lambda_mode=lam_mode,
            lambda_value=lam_value,
            lambda_tol=lambda_tol,
            v0=parse_v0(m.get("v0", "zero"), K, n),
            seed=int(seed),
            alpha=float(m.get("alpha", 0.75)),
            sample_every=int(t.get("sample_every", 25)),
            noise_substeps=int(t.get("noise_substeps", 1)),
        )


_KEYS = {
    "model": {"nu", "n", "K", "F", "G", "lambda_mode", "v0", "alpha", "eps", "replicates"},
    "time": {"dt", "T", "sample_every", "noise_substeps"},
    "output": {"prefix"},
}
_REQUIRED = {"model": {"K"}, "time": {"dt", "T"}, "output": set()}


def load_run_config(path):
    """Parse a run config.  Unparsable text, a missing section or required key
    and an unknown key raise ValueError; RunSpec.sim_config parses the values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        raise ValueError(f"cannot read run config: {err}") from None
    for section in ("scheme", "model", "time"):
        if section not in parser:
            raise ValueError(f"run config missing [{section}] section")
    for section, allowed in _KEYS.items():
        keys = set(parser[section]) if section in parser else set()
        if keys - allowed:
            raise ValueError(f"{path}: unknown key(s) {sorted(keys - allowed)} in [{section}]")
        if _REQUIRED[section] - keys:
            raise ValueError(f"{path}: [{section}] lacks {sorted(_REQUIRED[section] - keys)}")

    scheme_section = dict(parser["scheme"])
    if "file" in scheme_section:
        if len(scheme_section) > 1:
            raise ValueError(f"{path}: [scheme] takes a file or the scheme keys, not both: {sorted(scheme_section)}")
        scheme = load_scheme_file(scheme_section["file"])
    else:
        scheme = scheme_from_mapping(scheme_section)

    model = dict(parser["model"])
    time_sec = dict(parser["time"])
    output = dict(parser["output"]) if "output" in parser else {}

    eps_list = tuple(float(x) for x in model.get("eps", "0.125").split(",") if x.strip())
    replicates = int(model.get("replicates", 8))
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ValueError(f"{path}: eps must be a list of positive numbers, got {model.get('eps')!r}")
    if replicates < 2:
        raise ValueError(f"{path}: replicates must be at least 2, got {replicates}")
    return RunSpec(
        scheme=scheme,
        model=model,
        time=time_sec,
        output_prefix=output.get("prefix", "run"),
        eps_list=eps_list,
        replicates=replicates,
        echo=text,
    )
