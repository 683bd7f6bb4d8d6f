"""Plain-text experiment descriptions.

A run config has four sections of key = value lines:

    [scheme]   either  file = <scheme description path>  or the scheme keys
               inline (name, f, h, mu, q; see schemes.load_scheme_file)
    [model]    nu, n, K, F, G (polynomial text per component),
               lambda_mode (quadrature|closed_form|explicit:<v>),
               v0 (zero | sin:<amp>[:<comp>] | cos:<amp>[:<comp>] |
               modes:<path>), eps (comma list), replicates
    [time]     dt, T, sample_every, noise_substeps
    [output]   prefix (a file-name stem inside the output directory)

K, dt and T are required.  A key outside these lists, in any section, is
rejected by name rather than ignored, and so is a number that does not
parse.  Each setting has one spelling: Lambda = 0 is explicit:0, and the
Sobolev order of the H^alpha errors is integrator.ALPHA, no key.  A
relative path (the scheme file, a table: symbol, a modes: file) is read
from the directory of the file that names it, not from the working
directory; an absolute one as it is.
Everything is inspectable text; the parsed object echoes its source
exactly, and a content hash of that echo rides along in every output
sidecar.

The whole config is parsed and checked when it is loaded: the RunSpec holds
a frozen SimConfig, which checks its own fields, the eps ladder passes
``eps_ladder`` (the rule of ``chaos --eps`` too), and the replicate count
is at least 2.  A converge run is its config, the files the config names
(a scheme file, a table: symbol, a modes: file) and a seed: the command
line overrides none of it.  A manifest records the config echo and seed,
but a named file only by its path, so the echo reruns the run only next to
the files it names.  Lambda by quadrature is taken at
correction.LAMBDA_TOL; a Lambda at another tolerance is given as
explicit:<v>.
"""

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .integrator import SimConfig
from .nonlin import PolynomialMap, parse_polynomial_map
from .schemes import scheme_from_mapping, load_scheme_file
from .spectral import SpectralField


class InputError(ValueError):
    """A command-line input or input file that cannot be used (exit 2)."""


def eps_ladder(text, source):
    """The eps ladder of ``text``, a comma list, as a tuple of floats, if
    every entry is a positive finite number (an empty entry is not a
    number) and no two share a table name (``f"{eps:g}"``: one table would
    overwrite the other); else InputError naming ``source``.  The run
    config's ``eps`` and ``chaos --eps`` are both read here."""
    try:
        values = tuple(float(entry) for entry in text.split(","))
    except ValueError:
        raise InputError(f"{source} must be a comma list of numbers, got {text!r}") from None
    if not all(0 < e < math.inf for e in values):
        raise InputError(f"{source} must be a list of positive finite numbers, got {values}")
    seen = {}
    for eps in values:
        name = f"{eps:g}"
        if name in seen:
            raise InputError(f"{source} values {seen[name]!r} and {eps!r} share the table name eps{name}")
        seen[name] = eps
    return values


def parse_v0(spec, K, n, directory=""):
    """Initial-profile spec -> band-limited SpectralField (or None for zero);
    a relative modes: path is read from ``directory``."""
    spec = spec.strip()
    if spec == "zero":
        return None
    if spec.startswith(("sin:", "cos:")):
        parts = spec.split(":")
        try:
            # the component is 1 if not given; a fourth field cannot unpack
            _, amp, comp = parts if len(parts) > 2 else (*parts, "1")
            amp, comp = float(amp), int(comp) - 1
        except ValueError:
            raise ValueError(f"v0 takes sin|cos:<amp>[:<comp>], got {spec!r}") from None
        if not math.isfinite(amp):
            raise ValueError(f"v0 amplitude must be finite, got {spec!r}")
        if not 0 <= comp < n:
            raise ValueError(f"v0 component out of range in {spec!r}")
        coeff = amp * np.sqrt(np.pi / 2.0)
        value = -1j * coeff if spec.startswith("sin:") else coeff
        c = np.zeros((n, K + 1), dtype=np.complex128)
        c[comp, 1] = value
        return SpectralField(K, n, c)
    if spec.startswith("modes:"):
        path = os.path.join(directory, spec[len("modes:") :])
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


def _number(kind, section, key, text):
    """``text``, the value of [section] ``key``, as ``kind`` (int or
    float); a ValueError names the key and the text."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"[{section}] {key}: {text!r} is not {what}") from None


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

    def sim_config(self, seed=0):
        return replace(self.config, seed=int(seed))


_KEYS = {
    "model": {"nu", "n", "K", "F", "G", "lambda_mode", "v0", "eps", "replicates"},
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

    directory = os.path.dirname(path)
    scheme_section = dict(parser["scheme"])
    if "file" in scheme_section:
        if len(scheme_section) > 1:
            raise ValueError(f"{path}: [scheme] takes a file or the scheme keys, not both: {sorted(scheme_section)}")
        scheme = load_scheme_file(os.path.join(directory, scheme_section["file"]))
    else:
        scheme = scheme_from_mapping(scheme_section, directory)

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

    eps_list = eps_ladder(m.get("eps", "0.125"), "eps")
    replicates = _number(int, "model", "replicates", m.get("replicates", 8))
    if replicates < 2:
        raise ValueError(f"replicates must be at least 2 (for a standard error), got {replicates}")
    lam_mode, lam_value = m.get("lambda_mode", "closed_form"), None
    if lam_mode.startswith("explicit:"):
        lam_mode, lam_value = "explicit", _number(float, "model", "lambda_mode", lam_mode[len("explicit:") :])
    n = _number(int, "model", "n", m.get("n", 1))
    config = SimConfig(
        nu=_number(float, "model", "nu", m.get("nu", 1.0)),
        n=n,
        K=_number(int, "model", "K", m["K"]),
        dt=_number(float, "time", "dt", t["dt"]),
        T=_number(float, "time", "T", t["T"]),
        eps=eps_list[0],
        scheme=scheme,
        F=PolynomialMap.zero(n),
        G=PolynomialMap.zero(n),
        lambda_mode=lam_mode,
        lambda_value=lam_value,
        sample_every=_number(int, "time", "sample_every", t.get("sample_every", 25)),
        noise_substeps=_number(int, "time", "noise_substeps", t.get("noise_substeps", 1)),
    )
    # n and K have passed their checks, so the texts sized by them can be parsed
    config = replace(
        config,
        F=_polynomial_map(m, "F", n),
        G=_polynomial_map(m, "G", n),
        v0=parse_v0(m.get("v0", "zero"), config.K, n, directory),
    )
    return RunSpec(
        config=config,
        output_prefix=prefix,
        eps_list=eps_list,
        replicates=replicates,
        echo=text,
    )
