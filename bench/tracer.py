"""Per-layer tracing of aluthge_lab from outside the package.

The library has no spans of its own, so the traced run wraps the layer
functions listed in LAYERS.  The modules import each other's functions
by name (`from .diagrams import truncate`), so a function is replaced in
every `aluthge_lab` namespace that holds it, not only in the module that
defines it; `WeightDiagram.weight_arrays` is wrapped on the class, and
the `reproduce` check functions are wrapped inside `reproduce.TARGETS`.

Each wrapped call pushes a frame on one in-memory stack.  On return its
duration is added to the parent frame, so a layer's self time is its
duration minus the time spent in wrapped callees.  `Tracer.remove()`
puts every original object back; untraced passes never install one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

PACKAGE = "aluthge_lab"

# module -> functions wrapped under "<module>.<function>".  `sampling`
# is special: every public function it defines is wrapped and their self
# times are summed into one `sampling.self_s`.
LAYERS = {
    "diagrams": ("truncate", "moments"),
    "positivity": ("joint_hyponormal", "k_hyponormal_verdict", "psd_check",
                   "one_var_k_hyponormal"),
    "linalg": ("min_eig", "operator_norm"),
    "transforms": ("toral_transform", "spherical_transform", "continuity_probe",
                   "transform_distance"),
    "measures": ("quasinormality_routes", "berger_atomic_verify",
                 "qt_power_identity_check"),
    "regions": ("classify", "region_scan"),
}
WEIGHT_ARRAYS = "diagrams.weight_arrays"
# Layers whose first argument is a matrix; they also report sum(dim^3).
EIGENSOLVES = ("positivity.psd_check", "linalg.min_eig")


class Stat:
    __slots__ = ("calls", "errors", "self_s", "total_s", "points", "hits", "dim3_sum")

    def __init__(self):
        self.calls = self.errors = self.points = self.hits = self.dim3_sum = 0
        self.self_s = self.total_s = 0.0


def _matrix_dim3(args, kwargs):
    shape = np.shape(args[0] if args else kwargs["M"])
    return shape[0] ** 3 if shape else 0


class Tracer:
    """Wraps the layer functions on install() and restores them on remove()."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [[0.0]]
        self._restore = []  # (setter, target, key, original)
        self._last_arrays = {}  # (id(diagram), shape) -> alpha array last returned

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        wrapper._bench_traced = True
        return wrapper

    def _weight_arrays_after(self, stat, args, kwargs, result):
        alpha = result[0]
        key = (id(args[0]), alpha.shape)
        # A hit hands back the array object an earlier call materialized.
        if self._last_arrays.get(key) is alpha:
            stat.hits += 1
        else:
            stat.points += alpha.size
            self._last_arrays[key] = alpha

    def _eigensolve_after(self, stat, args, kwargs, result):
        stat.dim3_sum += _matrix_dim3(args, kwargs)

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((setattr, mod, attr, original))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        lab = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in (*LAYERS, "sampling", "reproduce")}

        cls = lab.WeightDiagram
        original = cls.__dict__.get("weight_arrays")
        if original is not None:
            setattr(cls, "weight_arrays",
                    self._wrap(WEIGHT_ARRAYS, original, self._weight_arrays_after))
            self._restore.append((setattr, cls, "weight_arrays", original))

        for modname, names in LAYERS.items():
            for fname in names:
                fn = getattr(mods[modname], fname, None)
                if fn is None:
                    continue
                name = f"{modname}.{fname}"
                after = self._eigensolve_after if name in EIGENSOLVES else None
                self._replace_everywhere(fn, self._wrap(name, fn, after))

        sampling = mods["sampling"]
        for fname, fn in list(vars(sampling).items()):
            if (not fname.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == sampling.__name__
                    and not isinstance(fn, type)):
                self._replace_everywhere(fn, self._wrap(f"sampling:{fname}", fn))

        targets = getattr(mods["reproduce"], "TARGETS", {})
        for target, checks in list(targets.items()):
            wrapped = tuple(self._wrap(f"reproduce.{c.__name__}", c) for c in checks)
            targets[target] = wrapped
            self._restore.append((dict.__setitem__, targets, target, checks))
        return self

    def remove(self):
        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()
        self._last_arrays.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Flat {metric name: value} over the layers that were called."""
        out = {}
        sampling_self = 0.0
        for name, st in self.stats.items():
            if name.startswith("sampling:"):
                sampling_self += st.self_s
            elif name.startswith("reproduce."):
                out[f"{name}.total_s"] = st.total_s
            elif name == WEIGHT_ARRAYS:
                out[f"{name}.calls"] = st.calls
                out[f"{name}.self_s"] = st.self_s
                out[f"{name}.points"] = st.points
                out[f"{name}.hit_ratio"] = st.hits / st.calls if st.calls else 0.0
            elif name in EIGENSOLVES:
                out[f"{name}.calls"] = st.calls
                out[f"{name}.self_s"] = st.self_s
                out[f"{name}.dim3_sum"] = st.dim3_sum
            else:
                out[f"{name}.calls"] = st.calls
                out[f"{name}.self_s"] = st.self_s
                out[f"{name}.errors"] = st.errors
        out["sampling.self_s"] = sampling_self
        return out


def installed_wrappers() -> list:
    """Names in loaded aluthge_lab namespaces that currently hold a wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "_bench_traced", False):
                found.append(f"{modname}.{attr}")
        targets = vars(mod).get("TARGETS")
        if isinstance(targets, dict):
            for target, checks in targets.items():
                found += [f"{modname}.TARGETS[{target}]" for c in checks
                          if getattr(c, "_bench_traced", False)]
    lab = sys.modules.get(PACKAGE)
    if lab is not None and getattr(vars(lab.WeightDiagram).get("weight_arrays"),
                                   "_bench_traced", False):
        found.append(f"{PACKAGE}.WeightDiagram.weight_arrays")
    return found
