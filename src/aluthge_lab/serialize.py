"""JSON round-trip for diagrams, weight sequences, and atomic measures.

Only exactly reconstructible objects serialize: every built-in diagram
kind stores a finite parameter set, and a weight sequence stores either
its value list or its two-atom triple (and a "shift" past 0), and a
completion's core its "core" depth past 0.  Derived diagrams (transform
outputs) are defined only through their parent's windows, so they
intentionally do not round-trip; the CLI writes those as window reports
instead.

Decoding is the one place JSON data meets the library: text that does not
parse, and fields of the wrong type or length, raise DomainError naming
the field.
"""

from __future__ import annotations

import json

import numpy as np

from .diagrams import (
    OneVarWeights,
    WeightDiagram,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    require_integer,
)
from .errors import DomainError
from .limits import MAX_WINDOW_POINTS
from .measures import AtomicMeasure2D, completion_core


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{where} must be a number, got {type(value).__name__}") from None


def _numbers(value, where: str, length: int | None = None) -> tuple:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise DomainError(f"{where} must be a list of {count}numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _rectangle(value, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{where} must be a rectangle of numbers") from None


def omega_to_obj(om: OneVarWeights) -> dict:
    if om.values is not None:
        return {"values": list(om.values)}
    shift = {"shift": om.shift} if om.shift else {}
    return {"stampfli": list(om.triple), **shift}


def omega_from_obj(obj, where: str = "omega") -> OneVarWeights:
    if isinstance(obj, (list, tuple)):
        return OneVarWeights(values=_numbers(obj, where))
    if isinstance(obj, dict):
        if "values" in obj:
            return OneVarWeights(values=_numbers(obj["values"], f"{where}.values"))
        if "stampfli" in obj:
            row = OneVarWeights(triple=_numbers(obj["stampfli"], f"{where}.stampfli", 3))
            shift = require_integer(f"{where}.shift", obj.get("shift", 0), 0, MAX_WINDOW_POINTS)
            return row.shifted(shift)
    raise DomainError("weight sequence JSON must be a list, {'values': ...}, or {'stampfli': [a,b,c]}")


# kind -> (builder, the JSON params it takes, in argument order)
_BUILDERS = {
    "theta": (build_theta, ("omega",)),
    "prop2": (build_prop2, ("x", "y")),
    "thm1": (build_thm1, ("omega", "y")),
    "table": (build_table, ("alpha", "beta")),
    "quasinormal-completion": (completion_core, ("omega", "constant")),
}


def diagram_to_obj(diagram: WeightDiagram) -> dict:
    kind = diagram.kind
    if kind not in _BUILDERS or kind == "table" and diagram.table is None:
        raise DomainError(f"diagram kind {kind!r} has no exact JSON form")
    p = diagram.params
    if kind == "table":
        p = {"alpha": diagram.table[0].tolist(), "beta": diagram.table[1].tolist()}
    params = {name: omega_to_obj(p[name]) if name == "omega" else p[name]
              for name in (*_BUILDERS[kind][1], "core") if name in p}
    return {"kind": kind, "params": params}


def _param(name: str, value):
    where = f"params.{name}"
    if name == "omega":
        return omega_from_obj(value, where)
    if name in ("alpha", "beta"):
        return _rectangle(value, where)
    return _number(value, where)


def diagram_from_obj(obj) -> WeightDiagram:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("diagram JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise DomainError(f"unknown diagram kind {kind!r}")
    p = obj.get("params", {})
    if not isinstance(p, dict):
        raise DomainError("diagram JSON 'params' must be an object")
    build, names = _BUILDERS[kind]
    for name in names:
        if name not in p:
            raise DomainError(f"diagram JSON for kind {kind!r} is missing {name!r}")
    args = [_param(name, p[name]) for name in names]
    if kind == "quasinormal-completion":  # and its optional core depth
        args.append(require_integer("params.core", p.get("core", 0), 0, MAX_WINDOW_POINTS))
    return build(*args)


def measure_from_obj(obj) -> AtomicMeasure2D:
    if isinstance(obj, dict) and isinstance(obj.get("atoms"), list):
        atoms = tuple(_numbers(a, f"atoms[{i}]", 3) for i, a in enumerate(obj["atoms"]))
        return AtomicMeasure2D(atoms=atoms)
    raise DomainError("measure JSON must be {'atoms': [[s, t, mass], ...]}")


def measure_to_obj(mu: AtomicMeasure2D) -> dict:
    return {"atoms": [[s, t, r] for s, t, r in mu.atoms]}


def load_json(path: str):
    """Parsed JSON from a file; text that does not parse raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8
            raise DomainError(f"{path} is not valid JSON: {exc}") from None


def _builtin(x):
    """json.dumps's default hook: a numpy array or scalar as its tolist(), nested
    lists of Python bool, int and float, or a scalar of those."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline at EOF;
    numpy arrays and scalars are written as their Python values."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_builtin) + "\n"
