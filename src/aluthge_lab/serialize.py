"""JSON round-trip for diagrams, weight sequences, and atomic measures.

Only exactly reconstructible objects serialize: every built-in diagram
kind stores a finite parameter set, and a weight sequence stores either
its value list or the three-weight canonical-row tag.  Derived diagrams
(transform outputs) are defined only through their parent's windows, so
they intentionally do not round-trip; the CLI writes those as window
reports instead.
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
)
from .errors import DomainError
from .measures import AtomicMeasure2D, quasinormal_completion, stampfli


def omega_to_obj(om: OneVarWeights) -> dict:
    if om.values is not None:
        return {"values": list(om.values)}
    if om.tag.startswith("stampfli:"):
        a, b, c = (float(s) for s in om.tag.split(":", 1)[1].split(","))
        return {"stampfli": [a, b, c]}
    raise DomainError(f"weight sequence {om.tag!r} has no exact JSON form")


def omega_from_obj(obj) -> OneVarWeights:
    if isinstance(obj, (list, tuple)):
        return OneVarWeights(values=tuple(float(v) for v in obj))
    if isinstance(obj, dict):
        if "values" in obj:
            return OneVarWeights(values=tuple(float(v) for v in obj["values"]))
        if "stampfli" in obj:
            a, b, c = (float(v) for v in obj["stampfli"])
            return stampfli(a, b, c).weights
    raise DomainError("weight sequence JSON must be a list, {'values': ...}, or {'stampfli': [a,b,c]}")


def diagram_to_obj(diagram: WeightDiagram) -> dict:
    kind = diagram.kind
    p = diagram.params
    if kind == "theta":
        return {"kind": kind, "params": {"omega": omega_to_obj(p["omega"])}}
    if kind == "prop2":
        return {"kind": kind, "params": {"x": p["x"], "y": p["y"]}}
    if kind == "thm1":
        return {"kind": kind, "params": {"omega": omega_to_obj(p["omega"]), "y": p["y"]}}
    if kind == "table":
        A, B = diagram.table
        return {"kind": kind, "params": {"alpha": A.tolist(), "beta": B.tolist()}}
    if kind == "quasinormal-completion":
        return {
            "kind": kind,
            "params": {"omega": omega_to_obj(p["omega"]), "constant": p["constant"]},
        }
    raise DomainError(f"diagram kind {kind!r} has no exact JSON form")


def diagram_from_obj(obj) -> WeightDiagram:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("diagram JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    p = obj.get("params", {})
    try:
        if kind == "theta":
            return build_theta(omega_from_obj(p["omega"]))
        if kind == "prop2":
            return build_prop2(float(p["x"]), float(p["y"]))
        if kind == "thm1":
            return build_thm1(omega_from_obj(p["omega"]), float(p["y"]))
        if kind == "table":
            return build_table(np.asarray(p["alpha"], dtype=float),
                               np.asarray(p["beta"], dtype=float))
        if kind == "quasinormal-completion":
            return quasinormal_completion(omega_from_obj(p["omega"]), float(p["constant"]))
    except KeyError as missing:
        raise DomainError(f"diagram JSON for kind {kind!r} is missing {missing}") from None
    raise DomainError(f"unknown diagram kind {kind!r}")


def measure_from_obj(obj) -> AtomicMeasure2D:
    if isinstance(obj, dict) and "atoms" in obj:
        atoms = tuple((float(s), float(t), float(r)) for s, t, r in obj["atoms"])
        return AtomicMeasure2D(atoms=atoms)
    raise DomainError("measure JSON must be {'atoms': [[s, t, mass], ...]}")


def measure_to_obj(mu: AtomicMeasure2D) -> dict:
    return {"atoms": [[s, t, r] for s, t, r in mu.atoms]}


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline at EOF."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
