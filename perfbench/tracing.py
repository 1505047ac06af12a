"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`Tracer` replaces module attributes of ``phasesync`` with thin
wrappers that append one span per call: name, start, end, parent span and
trial id. Aliases are replaced too: every ``phasesync`` module attribute that
is the same function object as a wrapped one (``from .hermitian import
extreme_eigs`` in ``solver``, ``certificate``, ``model``, ``z2``, ...) points
at the wrapper while the tracer is installed. The two eigensolvers that
``hermitian.extreme_eigs`` calls, ``numpy.linalg.eigh`` and
``scipy.sparse.linalg.eigsh``, are wrapped the same way, so every
decomposition is counted and fingerprinted. Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.

:func:`layer_metrics` turns the spans of one traced phase into the per-layer
metrics listed in README.md.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions get spans, as the layer names of the metrics.
LAYER_MODULES = ("model", "hermitian", "solver", "certificate", "metrics", "z2",
                 "experiment", "serialize")

# A span with one of these names opens a trial when no trial is open yet.
TRIAL_FUNCTIONS = ("experiment.run_trial", "experiment.run_trial_detailed",
                   "experiment.run_real_trial")
SERIALIZE_FUNCTIONS = ("serialize.write_instance", "serialize.read_instance")
# The benchmark's own span around one `solve` plus `certify` CLI round trip.
CLI_PAIR = "cli.pair"

# The eigensolver entry points ``hermitian.extreme_eigs`` calls: the dense
# one and the Lanczos one.
DENSE_EIG = ("numpy.linalg", "eigh")
LANCZOS_EIG = ("scipy.sparse.linalg", "eigsh")
EIG_PREFIX = "eig."

# Span fields, kept as a list per span to keep tracing cheap.
NAME, START, END, PARENT, TRIAL, NOTE = range(6)


def _fingerprint(args, kwargs, result):
    mat = args[0] if args else next(iter(kwargs.values()))
    data = np.ascontiguousarray(mat)
    return hashlib.blake2b(data.view(np.uint8), digest_size=8).hexdigest()


def _solver_outcome(args, kwargs, result):
    return (result.iterations, result.escapes, bool(result.converged))


def _certify_outcome(args, kwargs, result):
    return (bool(result.tight), result.error is not None)


def _written_size(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _read_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Small facts kept from a call's arguments or result, by span name.
OBSERVERS = {
    "solver.solve_second_order": _solver_outcome,
    "certificate.certify": _certify_outcome,
    "serialize.write_instance": _written_size,
    "serialize.read_instance": _read_size,
}


def phasesync_modules():
    """The phasesync package and every submodule except ``__main__``."""
    import phasesync
    mods = [phasesync]
    for info in pkgutil.iter_modules(phasesync.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"phasesync.{info.name}"))
    return mods


def public_functions(only=None):
    """``{function: span name}`` for the public functions of the layer
    modules, restricted to the span names in ``only`` when given."""
    found = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"phasesync.{short}")
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            if only is None or name in only:
                found[value] = name
    return found


def eig_backends():
    return {getattr(importlib.import_module(home), attr): f"{EIG_PREFIX}{home}.{attr}"
            for home, attr in (DENSE_EIG, LANCZOS_EIG)}


class Tracer:
    """In-memory span recorder that patches functions in place.

    ``install`` replaces each given function wherever a phasesync module, or
    its home module for the numpy/scipy backends, holds it; ``uninstall``
    puts the originals back. Not thread-safe: the benchmark traces serial
    runs only.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial: int | None = None
        self._trials = 0
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        opens_trial = self._trial is None and (name in TRIAL_FUNCTIONS or name == CLI_PAIR)
        if opens_trial:
            self._trial = self._trials
            self._trials += 1
        span = [name, 0.0, 0.0, parent, self._trial, None]
        spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            if opens_trial:
                self._trial = None
        observe = OBSERVERS.get(name)
        if observe is None and name.startswith(EIG_PREFIX):
            observe = _fingerprint
        if observe is not None:
            span[NOTE] = observe(args, kwargs, result)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, functions):
        """Wrap every function in ``functions`` (``{function: span name}``)."""
        by_id = {id(fn): (fn, self._wrapper(name, fn)) for fn, name in functions.items()}
        homes = [importlib.import_module(home) for home, _ in (DENSE_EIG, LANCZOS_EIG)]
        for mod in phasesync_modules() + homes:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def roots(self) -> list[int]:
        """Indices of the spans that opened a trial, in call order."""
        spans = self.spans
        return [i for i, s in enumerate(spans) if s[TRIAL] is not None
                and (s[PARENT] < 0 or spans[s[PARENT]][TRIAL] != s[TRIAL])]

    def root_durations(self) -> list[float]:
        return [self.spans[i][END] - self.spans[i][START] for i in self.roots()]

    def notes(self, name):
        return [s[NOTE] for s in self.spans if s[NAME] == name]

    def write(self, path):
        with open(path, "w") as f:
            for index, s in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": s[NAME], "start": s[START],
                                    "end": s[END], "parent": s[PARENT], "trial": s[TRIAL],
                                    "note": s[NOTE]}, default=str) + "\n")


def percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100] of a nonempty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced phase. Times are seconds per trial
    unless the README says otherwise; a layer that never ran reports 0."""
    spans = tracer.spans
    incl = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for s in spans:
        dur = s[END] - s[START]
        incl[s[NAME]] += dur
        calls[s[NAME]] += 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
    self_time = defaultdict(float)
    for index, s in enumerate(spans):
        self_time[s[NAME]] += s[END] - s[START] - child_time[index]

    roots = tracer.roots()
    trials = len(roots)
    root_time = sum(spans[i][END] - spans[i][START] for i in roots)

    def per_trial(total):
        return total / trials if trials else 0.0

    eig_dense = eig_lanczos = 0
    eig_time = 0.0
    distinct = defaultdict(set)
    dense_name = EIG_PREFIX + ".".join(DENSE_EIG)
    for s in spans:
        if not s[NAME].startswith(EIG_PREFIX):
            continue
        eig_time += s[END] - s[START]
        if s[NAME] == dense_name:
            eig_dense += 1
        else:
            eig_lanczos += 1
        distinct[s[TRIAL]].add(s[NOTE])

    solves = [n for n in tracer.notes("solver.solve_second_order") if n is not None]
    iterations = [n[0] for n in solves]
    certs = [n for n in tracer.notes("certificate.certify") if n is not None]
    written = tracer.notes("serialize.write_instance")
    read = tracer.notes("serialize.read_instance")
    read_mb = sum(read) / 1e6

    trial_fn_self = sum(self_time[name] for name in TRIAL_FUNCTIONS)
    grid_overhead = 0.0
    for index, s in enumerate(spans):
        if s[NAME] == "experiment.run_grid":
            inner = sum(spans[i][END] - spans[i][START] for i in roots if spans[i][PARENT] == index)
            grid_overhead += s[END] - s[START] - inner

    return {
        "hermitian.eig_calls_per_trial": per_trial(eig_dense + eig_lanczos),
        "hermitian.eig_distinct_per_trial": per_trial(sum(len(v) for k, v in distinct.items()
                                                          if k is not None)),
        "hermitian.eig_dense_calls": per_trial(eig_dense),
        "hermitian.eig_lanczos_calls": per_trial(eig_lanczos),
        "hermitian.eig_s_per_trial": per_trial(eig_time),
        "hermitian.eig_share": eig_time / root_time if root_time else 0.0,
        "solver.spectral_init_s": per_trial(incl["solver.spectral_init"]),
        "solver.solve_s": per_trial(incl["solver.solve_second_order"]),
        "solver.power_loop_self_s": per_trial(self_time["solver.solve_second_order"]),
        "solver.escape_check_s": per_trial(incl["solver.escape_direction"]),
        "solver.iterations_p50": percentile(iterations, 50) if iterations else 0.0,
        "solver.iterations_p90": percentile(iterations, 90) if iterations else 0.0,
        "solver.escapes_per_trial": per_trial(sum(n[1] for n in solves)),
        "solver.converged_frac": (sum(n[2] for n in solves) / len(solves)) if solves else 0.0,
        "solver.step_s": (self_time["solver.solve_second_order"] / sum(iterations)
                          if sum(iterations) else 0.0),
        "certificate.build_s": per_trial(incl["certificate.build_certificate"]),
        "certificate.certify_s": per_trial(incl["certificate.certify"]),
        "certificate.error_count": float(sum(n[1] for n in certs)),
        "certificate.tight_frac": (sum(n[0] for n in certs) / len(certs)) if certs else 0.0,
        "model.sample_s": per_trial(incl["model.random_signal"] + incl["model.sample_wigner"]
                                    + incl["z2.random_signs"] + incl["z2.sample_real_wigner"]),
        "model.assemble_s": per_trial(incl["model.assemble_instance"]),
        "model.discordance_s": per_trial(incl["model.is_discordant"]),
        "metrics.evaluate_bounds_s": per_trial(incl["metrics.evaluate_bounds"]),
        "z2.real_certificate_s": per_trial(incl["z2.real_certificate"]),
        "serialize.write_instance_s": (incl["serialize.write_instance"] / calls["serialize.write_instance"]
                                       if calls["serialize.write_instance"] else 0.0),
        "serialize.read_instance_s": (incl["serialize.read_instance"] / calls["serialize.read_instance"]
                                      if calls["serialize.read_instance"] else 0.0),
        "serialize.instance_mb": (sum(written) / len(written) / 1e6) if written else 0.0,
        "serialize.read_mb_per_s": (read_mb / incl["serialize.read_instance"]
                                    if incl["serialize.read_instance"] else 0.0),
        "experiment.trial_self_s": per_trial(trial_fn_self),
        "experiment.grid_overhead_s": (grid_overhead / calls["experiment.run_grid"]
                                       if calls["experiment.run_grid"] else 0.0),
    }
