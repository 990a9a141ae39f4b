"""Property suite over the library boundary: every export, called in-process.

Each exported name of `aluthge_lab` has a strategy that draws one call of
it, built from one strategy per kind of parameter: integers from -3 to
40, floats at the ends of their range, NaN, inf, subnormals, bools and
numpy scalars, one-variable rows, diagrams of every kind, tables, atomic
measures, points and JSON data.  Whatever is drawn, the call returns or
raises a DomainError subclass: never InternalConsistencyError or a bare
numpy or Python error.  An export with no strategy fails the suite.  The
window budget is lowered to 30x30 lattice points and the block budget to
2^16 floats, as in test_cli_fuzz.py, so that integers up to 40 reach
values at and just past each budget while every example stays small.
"""

import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aluthge_lab as lab
from aluthge_lab import diagrams, positivity, sampling
from aluthge_lab.errors import DomainError

WINDOW_SIDE = 30
BLOCK_FLOATS = 2**16

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class Call:
    """A library call drawn as data and made inside the test: its arguments
    that are Calls are made first, since building an argument (a diagram, a
    row, a measure) is a library call too."""

    def __init__(self, function, args):
        self.function, self.args = function, args

    def __call__(self):
        return self.function(*(a() if isinstance(a, Call) else a for a in self.args))

    def __repr__(self):
        return f"{self.function.__name__}({', '.join(map(repr, self.args))})"


def _call(function, *arguments):
    """A strategy of Calls of function with arguments drawn from the given strategies."""
    return st.tuples(*arguments).map(lambda args: Call(function, args))


def _listed(*items):
    return list(items)


def _list_of(strategy):
    return st.lists(strategy, max_size=3).map(lambda items: Call(_listed, items))


# ---------------------------------------------------------------------------
# one strategy per parameter kind

INT = st.one_of(
    st.integers(-3, 40),
    st.integers(WINDOW_SIDE - 4, WINDOW_SIDE + 1),  # at and past the window budget
    st.integers(-3, 40).flatmap(lambda i: st.sampled_from([np.int64(i), np.int32(i), np.int8(i)])),
    st.sampled_from([True, False, 1.5, 2.0, -0.0, math.nan, math.inf, np.float64(3.0)]),
)
# an order k or a grid: small, since an order-k test needs a level of 4k+2
SMALL_INT = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0, np.int64(2)]))
EDGE_FLOATS = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-160, 1e154, 1.4e154,
               1e308, -1e308, -0.0, 0.0, 1.0, 0.5, math.nan, math.inf, -math.inf]
FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.floats(0.5, 5.0),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(EDGE_FLOATS).map(np.float64),
    st.booleans(),
    st.integers(-2, 5),
)
TOL = st.one_of(FLOAT, st.sampled_from([1e-10, 1e-12, 1e-8]))
TRIPLE = st.one_of(st.tuples(FLOAT, FLOAT, FLOAT),
                   st.sampled_from([(1.0, 2.0, 3.0), (0.6, 1.5, 2.0), (0.01, 0.02, 0.03)]))


def _two_atom_row(triple, shift):
    return lab.stampfli(*triple).weights.shifted(shift)


def _value_row(values):
    return lab.OneVarWeights(values=values)


def _rows(floats):
    """A row as the builders take it: a list, or either backing of OneVarWeights."""
    values = st.lists(floats, max_size=6)
    return st.one_of(values, _call(_value_row, values),
                     _call(_two_atom_row, TRIPLE, st.one_of(st.just(0), INT)))


def _rects(floats):
    return st.one_of(
        st.lists(st.lists(floats, min_size=1, max_size=4), max_size=4),
        st.integers(0, 2**32 - 1).map(
            lambda seed: np.random.default_rng(seed).uniform(0.5, 1.0, (3, 3))),
    )


def _build_table(alpha, beta, window):
    return lab.build_table(alpha, beta, window=window)


def _random_table(seed):
    return sampling.random_commuting_tables(np.random.default_rng(seed), 1)[0]


def _hand_built(value):
    """A diagram built by hand, its float windows flat at value, whatever value is."""
    return lab.WeightDiagram(kind="table", params={}, _window=lambda n1, n2: (
        np.full((n1, n2), value, dtype=float), np.full((n1, n2), value, dtype=float)))


def _spherical(W):
    return lab.spherical_transform(W, window=4)


def _diagrams(floats):
    """A diagram of every kind, built from the given floats: each builder, a
    random table, a diagram built by hand, a core and a spherical transform."""
    row, rect = _rows(floats), _rects(floats)
    base = st.one_of(
        _call(lab.build_prop2, floats, floats),
        _call(lab.build_prop2, st.sampled_from([0.5, 0.72, 0.95]),
              st.sampled_from([0.4, 0.5, 0.6])),
        _call(lab.build_theta, row),
        _call(lab.build_thm1, row, floats),
        _call(_build_table, rect, rect, st.one_of(st.none(), INT)),
        _call(_random_table, st.integers(0, 2**32 - 1)),
        _call(lab.quasinormal_completion, row, floats),
        _call(lab.quasinormal_completion, _call(_two_atom_row, st.just((1.0, 2.0, 3.0)), INT),
              st.sampled_from([3.5, 4.0])),
        _call(_hand_built, floats),
    )
    return st.one_of(base, _call(lab.core_of, base), _call(_spherical, base))


ROW = _rows(FLOAT)
WEIGHTS = _call(diagrams.as_one_var_weights, ROW)
RECT = _rects(FLOAT)
DIAGRAM = _diagrams(FLOAT)
DIAGRAMS = _list_of(DIAGRAM)
# The quasinormality reconciliation raises InternalConsistencyError on valid
# diagrams holding weights below about 1e-10 next to weights near 1: the
# fixed-point route's cut is absolute, so it misses their change
# (test_quasinormality_routes_disagree_at_tiny_weights).  Until that is
# mended, its two exports draw no float in (0, 1e-8).
NOT_TINY_DIAGRAM = _diagrams(FLOAT.filter(lambda v: not 0.0 < abs(v) < 1e-8))


def _atoms(*atoms):
    return lab.AtomicMeasure2D(atoms=atoms)


MEASURE = st.one_of(
    _call(lambda triple: lab.quasinormal2_measure(*triple), TRIPLE),
    st.lists(st.tuples(FLOAT, FLOAT, FLOAT), max_size=3).map(lambda atoms: Call(_atoms, atoms)),
)
POINTS = st.lists(st.tuples(FLOAT, FLOAT), max_size=3)
WHICH = st.sampled_from(["toral", "spherical", "both", ""])
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
OMEGA_JSON = st.one_of(
    JSON_VALUE,
    st.fixed_dictionaries({"stampfli": st.just([1.0, 2.0, 3.0])},
                          optional={"shift": st.one_of(INT, JSON_VALUE)}),
)
DIAGRAM_JSON = st.one_of(
    JSON_VALUE,
    st.fixed_dictionaries({
        "kind": st.sampled_from(["theta", "prop2", "thm1", "table", "quasinormal-completion"]),
        "params": st.fixed_dictionaries({}, optional={
            "omega": OMEGA_JSON, "x": JSON_VALUE, "y": JSON_VALUE,
            "constant": st.one_of(JSON_VALUE, st.just(4.0)), "core": st.one_of(INT, JSON_VALUE),
            "alpha": JSON_VALUE, "beta": JSON_VALUE}),
    }),
)
FILE_BYTES = st.one_of(JSON_VALUE.map(lambda v: json.dumps(v).encode()),
                       st.sampled_from([b"", b"{", b"\xff\xfe", b"NaN", b"[1,"]))


# ---------------------------------------------------------------------------
# one call strategy per export: a class or value is reached through what
# reads it


def _raised(cls):
    return st.just(Call(cls, ("drawn message",)))


def _load_json_at(path):
    def load_json(data):
        path.write_bytes(data)
        return lab.load_json(str(path))
    return load_json


@functools.cache
def export_calls(path) -> dict:
    def m(name, function):
        function.__name__ = name
        return function

    return {
        **{name: _raised(getattr(lab, name))
           for name in ("DomainError", "InfeasibleConstantError", "InternalConsistencyError",
                        "InvalidWeightsError", "NonCommutingInputError", "WindowError")},
        "COMMUTATIVITY_TOL": st.just(Call(m("tol", lambda: lab.COMMUTATIVITY_TOL), ())),
        # diagrams
        "MomentTable": _call(m("gamma", lambda W, d, i, j: lab.moments(W, d).gamma(i, j)),
                             DIAGRAM, INT, INT, INT),
        "OneVarWeights": st.one_of(
            _call(m("omega", lambda row, j: row(j)), WEIGHTS, INT),
            _call(m("shifted", lambda row, j: row.shifted(j)(0)), WEIGHTS, INT),
            _call(m("triple", lambda t: lab.OneVarWeights(triple=t)), TRIPLE),
        ),
        "WeightDiagram": st.one_of(
            _call(m("alpha", lambda W, i, j: W.alpha(i, j)), DIAGRAM, INT, INT),
            _call(m("beta", lambda W, i, j: W.beta(i, j)), DIAGRAM, INT, INT),
        ),
        "build_prop2": _call(lab.build_prop2, FLOAT, FLOAT),
        "build_table": _call(_build_table, RECT, RECT, st.one_of(st.none(), INT)),
        "build_theta": _call(m("theta", lambda row, i: lab.build_theta(row).alpha(i, 0)),
                             ROW, INT),
        "build_thm1": _call(m("thm1", lambda row, y, i: lab.build_thm1(row, y).beta(0, i)),
                            ROW, FLOAT, INT),
        "commutativity_residual": _call(lab.commutativity_residual, DIAGRAM, INT),
        "core_of": _call(m("core", lambda W, i: lab.core_of(W).alpha(i, i)), DIAGRAM, INT),
        "moments": _call(lab.moments, DIAGRAM, INT),
        "moments_1var": _call(lab.moments_1var, ROW, INT),
        "validate_commuting": _call(lab.validate_commuting, DIAGRAM, INT),
        # measures
        "AtomicMeasure2D": _call(m("moment", lambda mu, i, j: mu.moment(i, j)), MEASURE, INT, INT),
        "StampfliData": _call(m("gamma", lambda t, j: lab.stampfli(*t).gamma(j)), TRIPLE, INT),
        "berger_atomic_verify": _call(lab.berger_atomic_verify, DIAGRAM, MEASURE, INT),
        "is_spherical_isometry": _call(lab.is_spherical_isometry, NOT_TINY_DIAGRAM, INT),
        "is_spherically_quasinormal": _call(lab.is_spherically_quasinormal, NOT_TINY_DIAGRAM,
                                            INT),
        "quasinormal2_measure": _call(m("measure", lambda t: lab.quasinormal2_measure(*t)),
                                      TRIPLE),
        "quasinormal_completion": _call(
            m("completion", lambda row, C, i: lab.quasinormal_completion(row, C).alpha(i, i)),
            ROW, FLOAT, INT),
        "quasinormality_routes": _call(lab.quasinormality_routes, DIAGRAM, INT, INT),
        "stampfli": _call(m("stampfli", lambda t: lab.stampfli(*t)), TRIPLE),
        # positivity
        "HypoReport": _call(m("report", lambda W, N: lab.joint_hyponormal_reports([W], N)),
                            DIAGRAM, INT),
        "PsdVerdict": _call(lab.k_hyponormal_verdict, DIAGRAM, SMALL_INT, INT),
        "full_hypo_report": _call(m("full", lambda W, N, k: lab.full_hypo_report(W, N, kmax=k)),
                                  DIAGRAM, INT, SMALL_INT),
        "hypo_orders": _call(
            m("orders", lambda Ws, N, k: lab.hypo_orders(
                Ws, lab.joint_hyponormal_reports(Ws, N), N, k)),
            DIAGRAMS, INT, SMALL_INT),
        "joint_hyponormal": _call(lab.joint_hyponormal, DIAGRAM, INT, TOL),
        "joint_hyponormal_reports": _call(lab.joint_hyponormal_reports, DIAGRAMS, INT, TOL),
        "k_hyponormal_verdict": _call(lab.k_hyponormal_verdict, DIAGRAM, SMALL_INT, INT, TOL),
        "k_hyponormal_verdicts": _call(lab.k_hyponormal_verdicts, DIAGRAMS, SMALL_INT, INT, TOL),
        # regions
        "RegionReport": _call(m("classify", lambda x, y: lab.classify(x, y, N=6, kmax=1)),
                              FLOAT, FLOAT),
        "ThresholdCurves": _call(lab.thresholds, FLOAT),
        "classify": _call(m("classify", lambda x, y, N, k: lab.classify(x, y, N=N, kmax=k)),
                          FLOAT, FLOAT, INT, SMALL_INT),
        "classify_many": _call(m("classify_many", lambda p, N, k: lab.classify_many(p, N=N, kmax=k)),
                               POINTS, INT, SMALL_INT),
        "crossing_q": st.just(Call(lab.crossing_q, ())),
        "region_scan": _call(m("scan", lambda g, N, ladder: lab.region_scan(g, N=N, ladder=ladder)),
                             SMALL_INT, INT, SMALL_INT),
        "thresholds": _call(lab.thresholds, FLOAT),
        # serialize
        "diagram_from_obj": _call(m("load", lambda obj, i: lab.diagram_from_obj(obj).alpha(i, i)),
                                  DIAGRAM_JSON, INT),
        "diagram_to_obj": _call(m("write", lambda W: lab.dumps(lab.diagram_to_obj(W))), DIAGRAM),
        "dumps": _call(m("dumps", lambda mu: lab.dumps(lab.measure_to_obj(mu))), MEASURE),
        "load_json": _call(_load_json_at(path), FILE_BYTES),
        "measure_from_obj": _call(lab.measure_from_obj, JSON_VALUE),
        "measure_to_obj": _call(lab.measure_to_obj, MEASURE),
        "omega_from_obj": _call(m("omega", lambda obj, j: lab.omega_from_obj(obj)(j)),
                                OMEGA_JSON, INT),
        "omega_to_obj": _call(m("write", lambda row: lab.dumps(lab.omega_to_obj(row))), WEIGHTS),
        # transforms
        "ContinuityProbe": _call(lab.continuity_probe, DIAGRAM, INT, INT),
        "ToralResult": _call(m("toral", lambda W, w: lab.toral_transform(W, window=w)),
                             DIAGRAM, INT),
        "continuity_probe": _call(lab.continuity_probe, DIAGRAM, INT, INT),
        "spherical_transform": _call(m("spherical", lambda W, w: lab.spherical_transform(
            W, window=w).alpha(0, 0)), DIAGRAM, INT),
        "spherical_transforms": _call(m("sphericals", lambda Ws, w: lab.spherical_transforms(
            Ws, window=w)), DIAGRAMS, INT),
        "toral_transform": _call(m("toral", lambda W, w, tol: lab.toral_transform(
            W, window=w, tol=tol)), DIAGRAM, INT, TOL),
        "toral_transforms": _call(m("torals", lambda Ws, w, tol: lab.toral_transforms(
            Ws, window=w, tol=tol)), DIAGRAMS, INT, TOL),
        "transform_distance": _call(lab.transform_distance, DIAGRAM, DIAGRAM, WHICH, INT),
    }


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def test_every_export_has_a_call_strategy(json_path):
    assert sorted(export_calls(json_path)) == sorted(lab.__all__)


@FUZZ
@pytest.mark.parametrize("name", lab.__all__)
@given(data=st.data())
def test_every_export_returns_or_raises_a_domain_error(json_path, name, data):
    call = data.draw(export_calls(json_path)[name], label=name)
    with mock.patch.object(diagrams, "MAX_WINDOW_POINTS", WINDOW_SIDE**2), \
            mock.patch.object(positivity, "MAX_BLOCK_FLOATS", BLOCK_FLOATS):
        try:
            call()
        except DomainError:
            pass


@pytest.mark.xfail(strict=True, raises=lab.InternalConsistencyError,
                   reason="the fixed-point route's absolute cut misses tiny weights")
def test_quasinormality_routes_disagree_at_tiny_weights():
    # prop2(1e-20, 1e-20) is no spherically quasinormal pair (alpha^2 + beta^2
    # is 2e-40 at the corner and 2 inside), and its spherical transform moves
    # the edge weights by about 0.19e-20, below the fixed-point cut of 1e-10:
    # the routes disagree decisively on a valid diagram
    assert lab.is_spherically_quasinormal(lab.build_prop2(1e-20, 1e-20), 10) == (False, None)


# Each call below ended in something other than a return or a DomainError
# before the boundary was mended; the fuzz met each of them.
FOUND = {
    "ragged-table": lambda: lab.build_table([[0.5], [0.5, 0.6]], [[0.5, 0.6], [0.5, 0.6]]),
    "hand-built-zero": lambda: lab.joint_hyponormal(_hand_built(0.0), 6),
    "hand-built-inf": lambda: lab.spherical_transform(_hand_built(math.inf), window=3),
    "hand-built-core": lambda: lab.core_of(_hand_built(0.5)),
    "hand-built-json": lambda: lab.diagram_to_obj(_hand_built(0.5)),
    # alpha^2 + beta^2 overflowed for weights below the old bound sqrt(float max)
    "near-largest-weight": lambda: lab.quasinormality_routes(
        lab.build_table([[1.3e154, 1.3e154]], [[1.3e154, 1.3e154]]), 2, 3),
    "moments-overflow": lambda: lab.moments(lab.build_thm1([1e154 / 2, 2.0, 1e154 / 2], 1.0), 12),
    "moments-zero-times-inf": lambda: lab.moments(lab.quasinormal_completion([1e-292], 1e154), 3),
    "thm1-beta-overflow": lambda: lab.spherical_transform(lab.build_thm1([1e-300, 1.0], 1e150),
                                                          window=2),
    "toral-tol-zero": lambda: lab.toral_transform(lab.build_prop2(0.5, 0.5), tol=0.0),
    "measure-negative-degree": lambda: _atoms((0.0, 0.5, 1.0)).moment(-1, 0),
    "measure-overflow": lambda: _atoms((1e10, 0.5, 1.0)).moment(40, 0),
    "measure-mass-overflow": lambda: _atoms((0.5, 0.5, np.float64(1e308)),
                                            (0.6, 0.5, np.float64(1e308))),
}


@pytest.mark.parametrize("call", FOUND.values(), ids=list(FOUND))
def test_each_found_call_raises_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_narrow_numpy_integers_compute_as_python_ints():
    # np.int8 arithmetic wraps: 30 * 30 read as a window budget was -124
    W = lab.build_prop2(0.5, 0.5)
    assert lab.moments(W, np.int8(30)).gamma(3, 4) == lab.moments(W, 30).gamma(3, 4)
    assert lab.joint_hyponormal(W, np.int8(40))[1] == lab.joint_hyponormal(W, 40)[1]
    assert lab.k_hyponormal_verdict(W, np.int8(3), np.int8(40)) == lab.k_hyponormal_verdict(W, 3, 40)
    assert lab.classify(0.7, 0.4, np.int8(126), 1) == lab.classify(0.7, 0.4, 126, 1)
    assert (lab.transform_distance(W, lab.build_prop2(0.6, 0.5), "toral", np.int8(127))
            == lab.transform_distance(W, lab.build_prop2(0.6, 0.5), "toral", 127))


def test_a_tolerance_past_the_float_range_passes_quietly():
    # a cut that overflows is inf, which every set passes, with no warning;
    # weights up to 4 put the scales and the eigenvalues above 1
    W = lab.build_theta([1.0, 2.0, 3.0, 4.0])
    for tol in (1e308, np.float64(1e308)):
        assert lab.joint_hyponormal(W, 6, tol=tol)[0]
        assert lab.k_hyponormal_verdict(W, 1, 6, tol=tol).is_psd
        assert lab.toral_transform(W, tol=tol).commutes
