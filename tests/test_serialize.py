"""Exact JSON round-trips for the finitely describable objects."""

import json

import numpy as np
import pytest

from aluthge_lab import (
    AtomicMeasure2D,
    DomainError,
    OneVarWeights,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    diagram_from_obj,
    diagram_to_obj,
    dumps,
    measure_from_obj,
    measure_to_obj,
    omega_from_obj,
    omega_to_obj,
    quasinormal_completion,
    spherical_transform,
    stampfli,
)


def weights_equal(W1, W2, n=8):
    A1, B1 = W1.weight_arrays(n, n)
    A2, B2 = W2.weight_arrays(n, n)
    return np.array_equal(A1, A2) and np.array_equal(B1, B2)


# ---------------------------------------------------------------------------
# weight sequences


def test_omega_values_round_trip():
    om = OneVarWeights(values=(0.5, 0.7, 1.0))
    obj = omega_to_obj(om)
    assert obj == {"values": [0.5, 0.7, 1.0]}
    back = omega_from_obj(json.loads(json.dumps(obj)))
    assert back.values == om.values


def test_omega_stampfli_round_trip():
    # numpy scalars must write the same tag as Python floats
    for triple in ((1.0, 2.0, 3.0), tuple(np.float64(v) for v in (1.0, 2.0, 3.0))):
        d = stampfli(*triple)
        obj = omega_to_obj(d.weights)
        assert obj == {"stampfli": [1.0, 2.0, 3.0]}
        back = omega_from_obj(obj)
        assert all(back(j) == d.weights(j) for j in range(10))
        quasinormal_completion(d.weights, d.phi1).weight_arrays(4, 4)


def test_omega_accepts_bare_lists():
    om = omega_from_obj([0.5, 0.8])
    assert om.values == (0.5, 0.8)


def test_omega_rejects_opaque_callables_and_junk():
    with pytest.raises(DomainError):
        omega_to_obj(OneVarWeights(fn=lambda j: 1.0, tag="mystery"))
    with pytest.raises(DomainError):
        omega_from_obj({"novel": 1})
    with pytest.raises(DomainError):
        omega_from_obj("0.5, 0.8")


# ---------------------------------------------------------------------------
# diagrams


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_theta(OneVarWeights(values=(0.5, 0.8, 1.0))),
        lambda: build_prop2(0.62, 0.41),
        lambda: build_thm1(OneVarWeights(values=(0.6, 0.8, 1.0)), 0.35),
        lambda: build_table(
            np.array([[0.5, 0.6], [0.9, 0.9]]), np.array([[0.5, 0.6], [0.6, 0.6]])
        ),
        lambda: quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0),
        lambda: quasinormal_completion(OneVarWeights(values=(0.8, 0.9, 1.0)), 2.5),
    ],
    ids=["theta", "prop2", "thm1", "table", "completion-stampfli", "completion-list"],
)
def test_diagram_round_trip(make):
    W = make()
    text = dumps(diagram_to_obj(W))
    back = diagram_from_obj(json.loads(text))
    assert back.kind == W.kind
    assert weights_equal(W, back)


def test_derived_diagrams_do_not_serialize():
    sph = spherical_transform(build_prop2(0.5, 0.5))
    with pytest.raises(DomainError):
        diagram_to_obj(sph)


def test_diagram_from_obj_error_paths():
    with pytest.raises(DomainError):
        diagram_from_obj([1, 2, 3])
    with pytest.raises(DomainError):
        diagram_from_obj({"kind": "spectral"})
    with pytest.raises(DomainError):
        diagram_from_obj({"kind": "prop2", "params": {"x": 0.5}})  # missing y


# ---------------------------------------------------------------------------
# measures


def test_measure_round_trip():
    mu = AtomicMeasure2D(atoms=((0.25, 0.75, 0.5), (0.75, 0.25, 0.5)))
    back = measure_from_obj(measure_to_obj(mu))
    assert back.atoms == mu.atoms
    with pytest.raises(DomainError):
        measure_from_obj({"points": []})


# ---------------------------------------------------------------------------
# canonical text form


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [1.5, True]})
    assert text == '{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})
