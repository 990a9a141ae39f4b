"""Exact JSON round-trips for the finitely describable objects."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    AtomicMeasure2D,
    DomainError,
    OneVarWeights,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    core_of,
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


@st.composite
def rows(draw):
    if draw(st.booleans()):
        return OneVarWeights(values=draw(st.lists(
            st.floats(min_value=1e-300, max_value=1e150), min_size=1, max_size=12)))
    a = draw(st.floats(min_value=0.01, max_value=10.0))
    b = a * (1.0 + draw(st.floats(min_value=1e-3, max_value=1.0)))
    c = b * (1.0 + draw(st.floats(min_value=1e-3, max_value=1.0)))
    return stampfli(a, b, c).weights


@settings(max_examples=60, deadline=None)
@given(rows())
def test_omega_json_round_trip_is_bit_exact(om):
    back = omega_from_obj(json.loads(json.dumps(omega_to_obj(om))))
    assert back == om
    assert np.array_equal(back.prefix(20), om.prefix(20))


def test_omega_accepts_bare_lists():
    om = omega_from_obj([0.5, 0.8])
    assert om.values == (0.5, 0.8)


def test_omega_rejects_junk():
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


_TWO_ATOM = stampfli(1.0, 2.0, 3.0).weights


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_theta(OneVarWeights(values=(0.5, 0.8, 1.0))),
        lambda: build_theta(_TWO_ATOM),
        lambda: build_prop2(0.62, 0.41),
        lambda: build_thm1(OneVarWeights(values=(0.6, 0.8, 1.0)), 0.35),
        lambda: build_thm1(_TWO_ATOM, 0.35),
        lambda: build_table(
            np.array([[0.5, 0.6], [0.9, 0.9]]), np.array([[0.5, 0.6], [0.6, 0.6]])
        ),
        lambda: quasinormal_completion(_TWO_ATOM, 4.0),
        lambda: quasinormal_completion(OneVarWeights(values=(0.8, 0.9, 1.0)), 2.5),
    ],
    ids=["theta", "theta-stampfli", "prop2", "thm1", "thm1-stampfli", "table",
         "completion-stampfli", "completion-list"],
)
def test_core_round_trip(make):
    K = core_of(make())
    back = diagram_from_obj(json.loads(dumps(diagram_to_obj(K))))
    assert back.kind == K.kind
    for X, Y in zip(K.weight_arrays(8, 8), back.weight_arrays(8, 8)):
        assert np.array_equal(X, Y)


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


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.0**-1074 * 7, 1.0, -3.0,
               2.0**53, 1e308, -1e308, 0.1]


def test_dumps_writes_numpy_values_as_their_builtins():
    # numpy arrays and scalars take the default hook, and np.float64, a float
    # subclass, float.__repr__: the bytes are those of the builtin values
    A = np.array(EDGE_FLOATS)
    cases = [
        (np.float64(-0.0), -0.0), (np.float64(5e-324), 5e-324), (np.float64(2.0), 2.0),
        (np.bool_(True), True), (np.bool_(False), False),
        (np.int64(-7), -7), (np.int32(3), 3), (np.uint8(255), 255),
        (A, EDGE_FLOATS), (A.reshape(1, -1), [EDGE_FLOATS]),
        (np.array([[True, False]]), [[True, False]]),
        (np.arange(3, dtype=np.int64), [0, 1, 2]),
        ({"x": [np.float64(1.5), (np.int64(2), A[:2])]}, {"x": [1.5, [2, [-0.0, 0.0]]]}),
    ]
    for value, builtin in cases:
        assert dumps(value) == dumps(builtin), value
    assert dumps(np.float64(-0.0)) == "-0.0\n" and dumps(np.int64(1)) == "1\n"
    with pytest.raises(TypeError):
        dumps({"x": object()})
