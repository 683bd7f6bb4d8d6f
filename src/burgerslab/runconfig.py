"""Plain-text experiment descriptions.

A run config has four sections of key = value lines:

    [scheme]   either  file = <scheme description path>  or the scheme keys
               inline (name, f, h, mu, q; see schemes.load_scheme_file)
    [model]    nu, n, K, F, G (polynomial text per component),
               lambda_mode (quadrature|closed_form|explicit:<v>|zero),
               v0 (zero | sin:<amp>[:<comp>] | cos:<amp>[:<comp>] |
               modes:<path>), alpha, eps (comma list), replicates
    [time]     dt, T, sample_every, noise_substeps
    [output]   prefix (a file-name stem inside the output directory)

K, dt and T are required.  A key outside these lists, in any section, is
rejected by name rather than ignored.  Everything is inspectable text; the
parsed object echoes its source exactly, and a content hash of that echo
rides along in every output sidecar.

The whole config is parsed and checked when it is loaded: the RunSpec holds
a frozen SimConfig, which checks its own fields, and the experiment-level
eps ladder and replicate count pass the rules below, which the command line
applies to its overrides too (each names the place its value came from).
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .integrator import SimConfig
from .nonlin import PolynomialMap, parse_polynomial_map
from .schemes import scheme_from_mapping, load_scheme_file
from .spectral import SpectralField


class InputError(ValueError):
    """A command-line input or input file that cannot be used (exit 2)."""


def eps_ladder(values, source):
    """``values`` as a tuple, if it is non-empty, every value is positive
    and finite, and no two share a table name (``f"{eps:g}"``: one table
    would overwrite the other); else InputError naming ``source``."""
    values = tuple(values)
    if not values or not all(0 < e < math.inf for e in values):
        raise InputError(f"{source} must be a list of positive finite numbers, got {values}")
    seen = {}
    for eps in values:
        name = f"{eps:g}"
        if name in seen:
            raise InputError(f"{source} values {seen[name]!r} and {eps!r} share the table name eps{name}")
        seen[name] = eps
    return values


def replicate_count(value, source):
    """``value``, if it is at least 2 (a standard error needs two); else
    InputError naming ``source``."""
    if value < 2:
        raise InputError(f"{source} must be at least 2 (for a standard error), got {value}")
    return value


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


def _polynomial_map(model, key, n):
    """The map of [model] ``key`` (zero if absent); an error names the key."""
    try:
        return parse_polynomial_map(model.get(key, ";".join(["0"] * n)), n)
    except ValueError as err:
        raise ValueError(f"[model] {key}: {err}") from None


@dataclass(frozen=True)
class RunSpec:
    """Parsed run config: the SimConfig it describes (at seed 0) plus
    experiment-level settings."""

    config: SimConfig
    output_prefix: str
    eps_list: tuple
    replicates: int
    echo: str

    @property
    def scheme(self):
        return self.config.scheme

    def content_hash(self):
        return hashlib.sha256(self.echo.encode("utf-8")).hexdigest()

    def sim_config(self, seed=0, lambda_tol=1e-8):
        return replace(self.config, seed=int(seed), lambda_tol=lambda_tol)


_KEYS = {
    "model": {"nu", "n", "K", "F", "G", "lambda_mode", "v0", "alpha", "eps", "replicates"},
    "time": {"dt", "T", "sample_every", "noise_substeps"},
    "output": {"prefix"},
}
_REQUIRED = {"model": {"K"}, "time": {"dt", "T"}, "output": set()}


def load_run_config(path):
    """Parse and check a run config.  Unparsable text, a missing section or
    required key, an unknown key and a value that breaks a rule raise
    ValueError."""
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

    m, t = dict(parser["model"]), dict(parser["time"])
    output = dict(parser["output"]) if "output" in parser else {}
    prefix = output.get("prefix", "run")
    if prefix in ("", ".", "..") or "/" in prefix or "\\" in prefix:
        # the outputs are named <out>/<prefix>_...; such a prefix would put
        # them outside <out>, or name them after the directory itself
        raise ValueError(
            f"{path}: [output] prefix must name files inside the output directory "
            f"(not empty, '.' or '..', and no path separator), got {prefix!r}"
        )

    eps_list = eps_ladder((float(x) for x in m.get("eps", "0.125").split(",") if x.strip()), "eps")
    replicates = replicate_count(int(m.get("replicates", 8)), "replicates")
    lam_mode, lam_value = m.get("lambda_mode", "closed_form"), None
    if lam_mode.startswith("explicit:"):
        lam_mode, lam_value = "explicit", float(lam_mode.split(":", 1)[1])
    n = int(m.get("n", 1))
    config = SimConfig(
        nu=float(m.get("nu", 1.0)),
        n=n,
        K=int(m["K"]),
        dt=float(t["dt"]),
        T=float(t["T"]),
        eps=eps_list[0],
        scheme=scheme,
        F=PolynomialMap.zero(n),
        G=PolynomialMap.zero(n),
        lambda_mode=lam_mode,
        lambda_value=lam_value,
        alpha=float(m.get("alpha", 0.75)),
        sample_every=int(t.get("sample_every", 25)),
        noise_substeps=int(t.get("noise_substeps", 1)),
    )
    # n and K have passed their checks, so the texts sized by them can be parsed
    config = replace(
        config,
        F=_polynomial_map(m, "F", n),
        G=_polynomial_map(m, "G", n),
        v0=parse_v0(m.get("v0", "zero"), config.K, n),
    )
    return RunSpec(
        config=config,
        output_prefix=prefix,
        eps_list=eps_list,
        replicates=replicates,
        echo=text,
    )
