"""The seeded stream against numpy's default generator, its reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab.sampling import PCG64Stream, random_commuting_table, random_completion

# One draw: ("random",), ("uniform", low, span, shape or None) or ("integers", low, count).
_bounds = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_spans = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_shapes = st.none() | st.integers(0, 9) | st.tuples(st.integers(0, 8), st.integers(0, 8))
_DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _bounds, _spans, _shapes),
    # counts near 2**31 and 2**32 reject often; 2**32 takes the unbounded path
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40),
              st.integers(1, 7) | st.integers(1, 2**32) | st.integers(2**31, 2**32)),
)


def _draw(rng, draw):
    """The draw's value as bytes, so that floats compare bit for bit."""
    if draw[0] == "random":
        return float(rng.random()).hex()
    if draw[0] == "uniform":
        _, low, span, shape = draw
        value = rng.uniform(low, low + span, size=shape)
        return float(value).hex() if shape is None else np.asarray(value).tobytes()
    _, low, count = draw
    return int(rng.integers(low, low + count))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**256) | st.integers(2**128, 2**256), st.lists(_DRAWS, max_size=40))
def test_stream_matches_numpy_default_rng(seed, draws):
    ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
    assert [_draw(ours, d) for d in draws] == [_draw(ref, d) for d in draws]


@pytest.mark.parametrize(
    "seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 17],
    ids=["0", "7", "2**32-1", "2**32", "2**64+5", "2**200+17"],
)
def test_rejection_and_buffered_halves_match(seed):
    # 3 * 2**30 values rejects a quarter of the 32-bit draws; random() in
    # between must leave the buffered upper half of the last output in place
    ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
    for _ in range(200):
        assert ours.integers(0, 3 * 2**30) == ref.integers(0, 3 * 2**30)
        assert ours.random().hex() == ref.random().hex()


def test_stream_returns_builtin_scalars_and_float_arrays():
    rng = PCG64Stream(7)
    assert type(rng.random()) is float and type(rng.uniform(0.0, 1.0)) is float
    assert type(rng.integers(0, 5)) is int
    arr = rng.uniform(0.0, 1.0, size=(2, 3))
    assert arr.dtype == np.float64 and arr.shape == (2, 3)


@pytest.mark.parametrize(
    "call",
    [lambda r: r.integers(3, 3), lambda r: r.integers(0, 2**32 + 1),
     lambda r: r.uniform(1.0, 0.0), lambda r: r.uniform(0.0, float("inf"))],
    ids=["empty", "over-2**32", "reversed", "infinite"],
)
def test_stream_refuses_what_it_cannot_draw(call):
    with pytest.raises(ValueError):
        call(PCG64Stream(7))


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        PCG64Stream(-1)


@pytest.mark.parametrize("seed", [1, 7])
def test_samplers_build_the_same_diagrams_from_either_generator(seed):
    ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
    for make in (random_commuting_table, random_completion):
        a, b = make(ours).weight_arrays(8, 8), make(ref).weight_arrays(8, 8)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

