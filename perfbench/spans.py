"""In-memory span recorder that wraps burgerslab's public functions.

Each wrapped call records one span (name, start, end, parent) in flat
arrays; nothing is aggregated while the program runs.  Wrappers are
installed where the calling modules look the functions up (for example
both ``spectral.coeffs_to_values`` and ``integrator.coeffs_to_values``),
and on class attributes for constructors and methods, so every call path
of the program is seen without changing a file under ``src/``.

A span's self time is its duration minus the durations of its direct
children; a module's self time is the sum over its spans.  Spans named
``bench.*`` belong to the benchmark itself: the self time of the per-round
root span is the part of the round that no wrapped call covers.
"""

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

ROUND = "bench.round"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.counters = {}
        self.round_roots = []
        self.round_counters = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def round(self):
        """One round of the workload: the root span, with its own counters."""
        self.round_roots.append(len(self.start))
        self.counters = {}
        idx = self._open(self._nid(ROUND))
        try:
            yield
        finally:
            self._close(idx)
            self.round_counters.append(self.counters)

    def wrap(self, fn, name, hook=None):
        """Return fn wrapped in a span.  ``name`` is a string or a function of
        the call arguments returning one; ``hook`` sees the arguments too and
        may add to the counters."""
        fixed = None if callable(name) else self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            idx = tracer._open(fixed if fixed is not None else tracer._nid(name(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, modules, attr, name, hook=None):
        """Wrap the function that ``modules[0].attr`` names, and install the
        one wrapper under ``attr`` in every module of ``modules``."""
        original = getattr(modules[0], attr)
        wrapped = self.wrap(original, name, hook)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {modules[0].__name__}.{attr}")
            self._patches.append((module, attr, module.__dict__[attr]))
            setattr(module, attr, wrapped)

    def patch_method(self, cls, attr, name, hook=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, hook))
        else:
            replacement = self.wrap(raw, name, hook)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            round_roots=np.array(self.round_roots, dtype=np.int64),
        )

    def per_round(self):
        """Per round: {span name: (calls, inclusive seconds)}, per-module self
        seconds, the round's counters and its wall time.  A call nested in a
        call of the same name adds no inclusive time a second time."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name_id, parent, start, end = self.arrays()
        if np.flatnonzero(parent < 0).tolist() != self.round_roots:
            raise RuntimeError("a span was recorded outside every round")
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_time = dur - child
        modules = sorted({n.split(".")[0] for n in self.names})
        module_of = np.array([modules.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        nested = np.zeros(dur.size, dtype=bool)
        has_parent = parent >= 0
        nested[has_parent] = name_id[parent[has_parent]] == name_id[has_parent]
        bounds = self.round_roots + [dur.size]
        rounds = []
        for (lo, hi), counters in zip(zip(bounds, bounds[1:]), self.round_counters):
            ids = name_id[lo:hi]
            calls = np.bincount(ids, minlength=len(self.names))
            incl = np.bincount(ids, weights=np.where(nested[lo:hi], 0.0, dur[lo:hi]), minlength=len(self.names))
            mod_self = np.bincount(module_of[ids], weights=self_time[lo:hi], minlength=len(modules))
            rounds.append(
                {
                    "spans": {n: (int(calls[i]), float(incl[i])) for i, n in enumerate(self.names) if calls[i]},
                    "self_s": dict(zip(modules, mod_self.tolist())),
                    "counters": counters,
                    "wall_s": float(dur[lo]),
                    "n_spans": int(hi - lo),
                }
            )
        return rounds


def _grid_points_in(tracer, args, kwargs):
    coeffs, M = args
    tracer.count("spectral.grid_points", coeffs.shape[0] * int(M))


def _grid_points_out(tracer, args, kwargs):
    values = args[0]
    tracer.count("spectral.grid_points", values.shape[0] * values.shape[1])


def _transform_path(args, kwargs):
    coeffs, M = args
    # M >= 2K+1 samples the band without folding; coarser grids fold modes
    return "spectral.coeffs_to_values." + ("padded" if M >= coeffs.shape[1] else "fold")


def _nonlinearity_variant(args, kwargs):
    variant = args[0].cfg.variant
    return "integrator.nonlinearity." + ("approximate" if variant == "approximate" else "limit")


def instrument(tracer):
    """Install spans on every public function the workloads reach, under each
    name a calling module looks it up by."""
    from burgerslab import (
        cli,
        correction,
        estimators,
        integrator,
        noise,
        nonlin,
        runconfig,
        schemes,
        spectral,
    )

    fn = tracer.patch_function
    fn([spectral, integrator], "coeffs_to_values", _transform_path, _grid_points_in)
    fn([spectral, integrator], "values_to_coeffs", "spectral.values_to_coeffs", _grid_points_out)
    fn([spectral, integrator, cli], "sup_norm", "spectral.sup_norm")
    fn([spectral, integrator, estimators], "sobolev_norm", "spectral.sobolev_norm")
    tracer.patch_method(spectral.SpectralField, "__post_init__", "spectral.SpectralField")

    fn([noise, integrator], "wiener_increment_coeffs", "noise.wiener_increment_coeffs")
    fn([noise, cli], "sample_stationary_pair", "noise.sample_stationary_pair")
    tracer.patch_method(noise.ModeGaussianDraw, "sample", "noise.ModeGaussianDraw.sample")

    fn([nonlin, integrator], "evaluate", "nonlin.evaluate")
    tracer.patch_method(nonlin.Polynomial, "__call__", "nonlin.Polynomial")

    tracer.patch_method(integrator.Stepper, "__init__", "integrator.Stepper")
    tracer.patch_method(integrator.Stepper, "nonlinearity", _nonlinearity_variant)
    tracer.patch_method(integrator.Stepper, "step_coeffs", "integrator.step_coeffs")
    fn([integrator], "simulate", "integrator.simulate")
    fn([integrator, cli], "run_coupled", "integrator.run_coupled")

    fn([estimators, integrator, cli], "xi_eps", "estimators.xi_eps")
    fn([estimators, cli], "xi_eps_y", "estimators.xi_eps_y")
    fn([estimators, cli], "negative_sobolev_distance", "estimators.negative_sobolev_distance")
    fn([estimators, integrator, cli], "quadratic_variation", "estimators.quadratic_variation")

    fn([correction, integrator, cli], "lambda_quadrature", "correction.lambda_quadrature")
    fn([correction], "sine_integral", "correction.sine_integral")
    fn([correction, cli], "lambda_eps", "correction.lambda_eps")

    fn([schemes], "validate", "schemes.validate")
    tracer.patch_method(schemes.Scheme, "f_at", "schemes.f_at")
    tracer.patch_method(schemes.Scheme, "h_at", "schemes.h_at")
    fn([schemes, integrator], "d_eps_multiplier", "schemes.d_eps_multiplier")
    fn([schemes, estimators], "shift_minus", "schemes.shift_minus")

    fn([runconfig, cli], "load_run_config", "runconfig.load_run_config")
    fn([cli], "main", "cli.main")
