"""Property suite over the CLI boundary: argv and JSON files, run in-process.

Whatever the flags and input files, `cli.main` returns a documented exit
code (0, 1 for i/o, 2 for domain, 3 for internal, 64 for usage), writes
at most one line to stderr and raises nothing, so no traceback reaches
the user.  The window budget is lowered to 30x30 lattice points and the
block budget to 2^16 floats, so that integers up to 40 reach values at
and just past each budget while every example stays small.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aluthge_lab import cli, diagrams, limits, positivity

EXIT_CODES = {0, 1, 2, 3, 64}
WINDOW_SIDE = 30
BLOCK_FLOATS = 2**16

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# flag values, as the text argparse receives

NOT_A_NUMBER = st.sampled_from(["", "x", "1,5", "--", "0x10", "1e", "nan", "inf", "-inf"])
INT_TEXT = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(WINDOW_SIDE - 4, WINDOW_SIDE + 1).map(str),  # at and past the window budget
    st.sampled_from(["1.5", "1e3", " 7", "-0"]),
    NOT_A_NUMBER,
)
SMALL_INT_TEXT = st.one_of(st.integers(-2, 4).map(str), NOT_A_NUMBER)
# the ends of the float range: subnormal, the smallest normal, weights
# near diagrams.MAX_WEIGHT (1.34e154) and near the largest float
EDGE_FLOATS = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-160,
               1e154, 1.4e154, 1e308, -1e308, -0.0, 0.0, 1.0]
FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(EDGE_FLOATS).map(repr),
    st.sampled_from(["0", "1", "4"]),
    NOT_A_NUMBER,
)
TRIPLE_TEXT = st.one_of(
    st.lists(FLOAT_TEXT, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["1,2,3", "1,2", "3,2,1", "1,1,1"]),
)


def _flag(name, values):
    """No flag, or `name value`, or `name=value`."""
    return st.one_of(
        st.just([]),
        values.map(lambda v: [name, v]),
        values.map(lambda v: [f"{name}={v}"]),
    )


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# ---------------------------------------------------------------------------
# JSON inputs

JSON_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.1, 2.0),
    st.integers(-1000, 1000),
    st.sampled_from(EDGE_FLOATS),
)
JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(JSON_NUMBER, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_NUMBER, max_size=2),
)
# a row's "shift" and a completion's "core": depths up to and past the
# lowered window budget, and the non-integers a JSON file can hold
DEPTH = st.one_of(
    st.integers(-3, 40),
    st.integers(WINDOW_SIDE**2 - 1, WINDOW_SIDE**2 + 1),
    st.sampled_from([1.5, 2.0, True, 1e300, "3"]),
    JSON_JUNK,
)
OMEGA = st.one_of(
    st.lists(JSON_NUMBER, max_size=6),
    st.fixed_dictionaries({"values": st.one_of(st.lists(JSON_NUMBER, max_size=6), JSON_JUNK)}),
    st.fixed_dictionaries({"stampfli": st.one_of(st.lists(JSON_NUMBER, max_size=4), JSON_JUNK)}),
    st.just({"stampfli": [1.0, 2.0, 3.0]}),
    st.fixed_dictionaries({"stampfli": st.just([1.0, 2.0, 3.0]), "shift": DEPTH}),
    JSON_JUNK,
)
RECT = st.one_of(
    st.lists(st.lists(JSON_NUMBER, min_size=1, max_size=4), max_size=4),
    st.lists(st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3), min_size=3, max_size=3),
    JSON_JUNK,
)
PARAMS = {
    "theta": {"omega": OMEGA},
    "prop2": {"x": JSON_NUMBER, "y": JSON_NUMBER},
    "thm1": {"omega": OMEGA, "y": JSON_NUMBER},
    "table": {"alpha": RECT, "beta": RECT},
    "quasinormal-completion": {"omega": OMEGA, "constant": JSON_NUMBER, "core": DEPTH},
}
WELL_FORMED = [
    {"kind": "prop2", "params": {"x": 0.5, "y": 0.5}},
    {"kind": "prop2", "params": {"x": 0.95, "y": 0.6}},
    {"kind": "quasinormal-completion",
     "params": {"omega": {"stampfli": [1.0, 2.0, 3.0]}, "constant": 4.0}},
    {"kind": "quasinormal-completion",
     "params": {"omega": {"stampfli": [1.0, 2.0, 3.0], "shift": 2}, "constant": 4.0, "core": 3}},
]


@st.composite
def diagram_objects(draw):
    kind = draw(st.one_of(st.sampled_from(sorted(PARAMS)), JSON_JUNK))
    fields = PARAMS[kind] if isinstance(kind, str) and kind in PARAMS else {"x": JSON_NUMBER}
    params = {name: draw(st.one_of(value, JSON_JUNK)) for name, value in fields.items()}
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=1)):
        del params[name]  # a missing field
    return draw(st.one_of(
        st.just({"kind": kind, "params": params}),
        st.sampled_from(WELL_FORMED),
        JSON_JUNK,
    ))


MEASURE = st.one_of(
    st.fixed_dictionaries({"atoms": st.lists(st.lists(JSON_NUMBER, max_size=4), max_size=3)}),
    st.just({"atoms": [[1.0, 2.0, 0.5], [2.0, 1.0, 0.5]]}),
    st.fixed_dictionaries({"atoms": JSON_JUNK}),
    JSON_JUNK,
)
# file contents that are not JSON at all, or not UTF-8
RAW = st.sampled_from([b"", b"{", b"[1,", b"\xff\xfe", b"NaN", b"{\"kind\": \"prop2\""])


def _file_text(obj):
    return obj if isinstance(obj, bytes) else json.dumps(obj).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """cli.main(argv) under the lowered budgets: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(diagrams, "MAX_WINDOW_POINTS", WINDOW_SIDE**2), \
            mock.patch.object(positivity, "MAX_BLOCK_FLOATS", BLOCK_FLOATS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _command_argvs(diagram, measure, omega):
    """Each subcommand's argv strategy, reading the given JSON file paths."""
    return {
        "transform": _argv(
            st.just(["transform", "--input", diagram]),
            st.sampled_from([["--kind", "toral"], ["--kind", "spherical"]]),
            _flag("-w", INT_TEXT), _flag("--tol", FLOAT_TEXT)),
        "hypo": _argv(
            st.just(["hypo", "--input", diagram]), _flag("-N", INT_TEXT),
            _flag("--kmax", SMALL_INT_TEXT), _flag("--tol", FLOAT_TEXT)),
        "khypo": _argv(
            st.just(["khypo", "--input", diagram]), _flag("--k", SMALL_INT_TEXT),
            _flag("-N", INT_TEXT), _flag("--tol", FLOAT_TEXT)),
        "quasinormal-check": _argv(
            st.just(["quasinormal", "check", "--input", diagram]), _flag("-w", INT_TEXT),
            _flag("-N", INT_TEXT)),
        "quasinormal-complete": _argv(
            st.just(["quasinormal", "complete", "--omega", omega]),
            _flag("--constant", FLOAT_TEXT), _flag("-w", INT_TEXT)),
        "probe-continuity": _argv(
            st.just(["probe-continuity", "--input", diagram]), _flag("--n", INT_TEXT),
            _flag("-N", INT_TEXT)),
        "berger": _argv(
            st.just(["berger", "verify"]),
            st.one_of(st.just(["--input", diagram, "--measure", measure]),
                      st.just(["--input", diagram]),
                      TRIPLE_TEXT.map(lambda t: ["--triple", t])),
            _flag("--maxdeg", INT_TEXT), _flag("--tol", FLOAT_TEXT)),
        "stampfli": _argv(
            st.just(["stampfli"]), _flag("--triple", TRIPLE_TEXT), _flag("--count", INT_TEXT)),
        "regions": st.one_of(
            st.just(["regions", "q"]),
            _argv(st.just(["regions", "classify"]), _flag("--x", FLOAT_TEXT),
                  _flag("--y", FLOAT_TEXT), _flag("-N", INT_TEXT),
                  _flag("--kmax", SMALL_INT_TEXT)),
            _argv(st.just(["regions", "scan"]), _flag("--grid", SMALL_INT_TEXT),
                  _flag("--ladder", SMALL_INT_TEXT), _flag("-N", INT_TEXT))),
        "reproduce": _argv(
            st.just(["reproduce"]),
            st.lists(st.sampled_from([*limits.TARGETS, "all", "nope"]), max_size=2),
            _flag("--seed", INT_TEXT)),
    }


COMMANDS = list(_command_argvs("", "", ""))


@FUZZ
@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_every_command_exits_cleanly(workdir, command, data):
    paths = []
    for name, contents in (("diagram", diagram_objects()), ("measure", MEASURE),
                           ("omega", OMEGA)):
        path = workdir / f"{name}.json"
        path.write_bytes(_file_text(data.draw(st.one_of(contents, RAW), label=name)))
        paths.append(str(path))
    argv = data.draw(_command_argvs(*paths)[command], label="argv")
    out = data.draw(st.sampled_from([[], ["--out", str(workdir / "out.txt")],
                                     ["--out", str(workdir / "missing" / "out.txt")]]))
    code, err = _run(argv + out)
    assert code in EXIT_CODES, (argv, code, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)
