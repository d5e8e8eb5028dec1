"""Span tracing of hsswitness from outside the library.

``Tracer.install`` wraps every public function of each layer module and
rebinds every reference to it in the ``hsswitness`` module namespaces (so
``witnesses.evolve`` is wrapped as well as ``dynamics.evolve``).  It also
wraps ``numpy.linalg.eigh``/``eigvalsh`` (counted in the hilbert layer) and
``DensityMatrix.__post_init__`` (one span per density matrix built).

Each call records a span: name, start, end, parent span and the id of the
series it belongs to.  Spans live in flat arrays in memory and are written
out by ``save``.  A layer's self time is its spans' durations minus the
part covered by their child spans.

Functions the metrics need (``EXPECTED``) that a later version of the
library removes or renames are reported as absent with a count of 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

#: the library modules traced, one layer each
LAYERS = ("decoherence", "dynamics", "hilbert", "witnesses", "plotting",
          "cli", "validation")

#: functions the per-layer metrics are built from
EXPECTED = {
    "decoherence": ("gamma_squeezed", "gamma_thermal", "rtn_dn",
                    "rtn_dn_montecarlo"),
    "dynamics": ("bath_gamma", "element_factor", "evolve"),
    "hilbert": ("DensityMatrix",),
    "witnesses": ("hss", "negativity", "mid", "compute_series",
                  "extrema_report"),
    "plotting": ("series_svg",),
    "cli": ("load_config", "series_to_csv", "main"),
    "validation": ("run_validation",),
}

EIGENSOLVERS = ("eigh", "eigvalsh")


def _matrices(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _trajectories(args, kwargs):
    if "trials" in kwargs:
        return int(kwargs["trials"])
    return int(args[3]) if len(args) > 3 else 0


#: extra work counters: span name -> function of the call's arguments
AMOUNTS = {
    "hilbert.eigh": _matrices,
    "hilbert.eigvalsh": _matrices,
    "decoherence.rtn_dn_montecarlo": _trajectories,
}


class Tracer:
    """Records spans of calls into the library while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._series = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self.series = -1
        self.amounts: dict[str, int] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.error_kinds: dict[str, int] = {}
        self._last_error: dict[str, BaseException] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()

    # --- installation -------------------------------------------------------

    def install(self):
        importlib.import_module("hsswitness.cli")  # loads every layer
        self.absent = []
        mods = {name: sys.modules[f"hsswitness.{name}"] for name in LAYERS
                if f"hsswitness.{name}" in sys.modules}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "hsswitness"
                                            or n.startswith("hsswitness."))]
        for layer in LAYERS:
            mod = mods.get(layer)
            public = {} if mod is None else {
                n: f for n, f in vars(mod).items()
                if inspect.isfunction(f) and f.__module__ == mod.__name__
                and not n.startswith("_")}
            for name in EXPECTED[layer]:
                if name not in public and not (
                        mod is not None and inspect.isclass(getattr(mod, name, None))):
                    self.absent.append(f"{layer}.{name}")
            for name, fn in public.items():
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapper)
        dm = getattr(mods.get("hilbert"), "DensityMatrix", None)
        post = getattr(dm, "__post_init__", None)
        if post is not None:
            self._set(dm, "__post_init__",
                      self._wrap("hilbert.DensityMatrix", "hilbert", post))
        for name in EIGENSOLVERS:
            fn = getattr(np.linalg, name)
            self._set(np.linalg, name, self._wrap(f"hilbert.{name}", "hilbert", fn))
        return self

    def uninstall(self):
        for obj, key, val in reversed(self._restore):
            setattr(obj, key, val)
        self._restore.clear()

    def _set(self, obj, key, val):
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, val)

    def _wrap(self, name, layer, fn):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        amount = AMOUNTS.get(name)
        names, parents, series = self._name, self._parent, self._series
        t0s, t1s, stack = self._t0, self._t1, self._stack
        owner = self._owner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            sid = len(t0s)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            series.append(self.series)
            t1s.append(math.nan)
            if amount is not None:
                self.amounts[name] = self.amounts.get(name, 0) + amount(args, kwargs)
            stack.append(sid)
            t0s.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                t1s[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _error(self, layer, exc):
        # an exception passing through nested spans of one layer counts once
        if self._last_error.get(layer) is exc:
            return
        self._last_error[layer] = exc
        self.errors[layer] += 1
        kind = f"{layer}: {type(exc).__name__}: {exc}"
        self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1

    # --- results ----------------------------------------------------------------

    def arrays(self):
        """Copies, so that no view pins the buffers while spans are added."""
        return (np.frombuffer(self._name, dtype=np.int32).copy(),
                np.frombuffer(self._parent, dtype=np.int64).copy(),
                np.frombuffer(self._series, dtype=np.int64).copy(),
                np.frombuffer(self._t0, dtype=float).copy(),
                np.frombuffer(self._t1, dtype=float).copy())

    def self_times(self):
        """(count, self seconds) per span name."""
        name, parent, _, t0, t1 = self.arrays()
        dur = t1 - t0
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        selft = dur - child
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=selft, minlength=k)
        return {n: (int(counts[i]), float(selfs[i]))
                for i, n in enumerate(self.names)}

    def counts_of_series(self, sid):
        name, _, series, _, _ = self.arrays()
        counts = np.bincount(name[series == sid], minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names) if counts[i]}

    def save(self, path):
        name, parent, series, t0, t1 = self.arrays()
        np.savez(path, name=name, parent=parent, series=series, t0=t0, t1=t1,
                 names=np.array(self.names))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit)."""
    st = tracer.self_times()

    def calls(*names):
        return sum(st.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    def layer_self(layer):
        return sum(v[1] for n, v in st.items() if n.startswith(layer + "."))

    gamma = ("decoherence.gamma_squeezed", "decoherence.gamma_thermal")
    bath_calls = calls("dynamics.bath_gamma")
    m = {
        "decoherence.gamma_calls": (calls(*gamma), "count"),
        "decoherence.gamma_self_s": (self_s(*gamma), "s"),
        "decoherence.rtn_dn_calls": (calls("decoherence.rtn_dn"), "count"),
        "decoherence.rtn_dn_self_s": (self_s("decoherence.rtn_dn"), "s"),
        "decoherence.mc_self_s": (self_s("decoherence.rtn_dn_montecarlo"), "s"),
        "decoherence.mc_trajectories": (
            tracer.amounts.get("decoherence.rtn_dn_montecarlo", 0), "count"),
        "dynamics.bath_gamma_calls": (bath_calls, "count"),
        "dynamics.gamma_cache_hit_ratio": (
            1.0 - calls(*gamma) / bath_calls if bath_calls else 0.0, "ratio"),
        "dynamics.element_factor_calls": (calls("dynamics.element_factor"), "count"),
        "dynamics.evolve_calls": (calls("dynamics.evolve"), "count"),
        "dynamics.evolve_self_s": (self_s("dynamics.evolve"), "s"),
        "hilbert.eigensolve_calls": (calls("hilbert.eigh", "hilbert.eigvalsh"), "count"),
        "hilbert.eigensolve_matrices": (
            tracer.amounts.get("hilbert.eigh", 0)
            + tracer.amounts.get("hilbert.eigvalsh", 0), "count"),
        "hilbert.density_matrix_count": (calls("hilbert.DensityMatrix"), "count"),
        "witnesses.mid_self_s": (self_s("witnesses.mid"), "s"),
        "witnesses.negativity_self_s": (self_s("witnesses.negativity"), "s"),
        "witnesses.hss_self_s": (self_s("witnesses.hss"), "s"),
        "witnesses.series_self_s": (self_s("witnesses.compute_series"), "s"),
        "witnesses.extrema_self_s": (self_s("witnesses.extrema_report"), "s"),
        "plotting.svg_self_s": (self_s("plotting.series_svg"), "s"),
        "cli.csv_self_s": (self_s("cli.series_to_csv"), "s"),
        "cli.config_self_s": (self_s("cli.load_config"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
    m["trace.spans"] = (len(tracer._t0), "count")
    m["trace.absent"] = (len(tracer.absent), "count")
    return m
