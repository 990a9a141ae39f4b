"""The seeded stream against numpy's default generator, its reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import OneVarWeights, quasinormal_completion, sampling, stampfli
from aluthge_lab.sampling import (
    PCG64Stream,
    bumped_thm1_tables,
    random_commuting_tables,
    random_completion,
    random_monotone_tables,
)

# One draw: ("random",), ("uniform", low, span, shape or None) or ("integers", low, count).
_bounds = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_spans = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_shapes = (st.none() | st.integers(0, 9) | st.integers(0, 9).map(np.int64)
           | st.tuples(st.integers(0, 8), st.integers(0, 8).map(np.int32)))
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


@pytest.mark.parametrize(
    "size",
    [np.int64(3), np.uint8(2), np.array(4), (np.int64(2), 3), [np.int16(1), np.int32(2)],
     np.array([2, 3]), 0, (0, 3), ()],
    ids=["int64", "uint8", "0-d array", "tuple", "list", "array", "0", "(0, 3)", "()"],
)
def test_uniform_reads_sizes_as_numpy_does(size):
    ours, ref = PCG64Stream(5), np.random.default_rng(5)
    got, want = ours.uniform(-1.0, 2.0, size=size), ref.uniform(-1.0, 2.0, size=size)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert ours.random().hex() == ref.random().hex()


@pytest.mark.parametrize(
    "size, error",
    [(True, TypeError), (np.True_, TypeError), ((2, False), TypeError), (2.0, TypeError),
     ("3", TypeError), (-1, ValueError), ((2, np.int64(-1)), ValueError)],
    ids=["True", "np.True_", "bool in tuple", "float", "str", "-1", "negative in tuple"],
)
def test_uniform_refuses_the_sizes_numpy_refuses(size, error):
    for rng in (PCG64Stream(5), np.random.default_rng(5)):
        with pytest.raises(error):
            rng.uniform(size=size)


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        PCG64Stream(-1)


@pytest.mark.parametrize("seed", [1, 7])
def test_samplers_build_the_same_diagrams_from_either_generator(seed):
    ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
    for make in (lambda rng: random_commuting_tables(rng, 1)[0], random_completion):
        a, b = make(ours).weight_arrays(8, 8), make(ref).weight_arrays(8, 8)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _span(low, high):
    return st.floats(min_value=low, max_value=high, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(a=_span(0.6, 1.0), ab=_span(0.7, 1.0), bc=_span(0.3, 0.6), w=_span(0.6, 1.3))
def test_random_completion_is_feasible_by_construction(a, ab, bc, w):
    # both of random_completion's families over its whole parameter box: a
    # two-atom row at C = phi1 = s0 + s1 and a flat row at C = 2 w^2 read a
    # 40 x 40 window with no InfeasibleConstantError, so nothing is resampled
    data = stampfli(a, a + ab, a + ab + bc)
    for W in (quasinormal_completion(data.weights, data.phi1),
              quasinormal_completion(OneVarWeights(values=(w,)), 2.0 * w * w)):
        A, B = W.weight_arrays(40, 40)
        assert (A > 0).all() and (B > 0).all()


def test_random_completion_reads_no_weight():
    for seed in range(20):
        assert random_completion(PCG64Stream(seed))._cache == {}



def _tail(rng):
    """The stream's next draws: they differ if its state or its buffered
    32-bit half differs."""
    return int(rng.integers(0, 1000)), rng.random().hex(), int(rng.integers(0, 1000))


def _same_bits(W, V):
    return all(np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))
               for x, y in zip(W.table + W.weight_arrays(16, 16), V.table + V.weight_arrays(16, 16)))


_GENERATORS = st.sampled_from([PCG64Stream, np.random.default_rng])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([random_commuting_tables, random_monotone_tables, bumped_thm1_tables]),
    _GENERATORS, st.integers(0, 2**64), st.integers(0, 7),
)
def test_each_list_form_equals_one_table_calls(many, generator, seed, count):
    stacked_rng, alone_rng = generator(seed), generator(seed)
    stacked = many(stacked_rng, count)
    alone = [many(alone_rng, 1)[0] for _ in range(count)]
    assert len(stacked) == count
    assert all(_same_bits(W, V) for W, V in zip(stacked, alone))
    assert _tail(stacked_rng) == _tail(alone_rng)


def _scalar_monotone_field(rng, side=6):
    """The log moment field of one monotone table, drawn by one scalar
    uniform call per value in the order random_monotone_tables documents."""
    c = rng.uniform(0.0, 0.02)
    boost = c * side

    def convex_profile(count):
        steps = [rng.uniform(boost, boost + 0.06) for _ in range(count - 2)]
        diffs = rng.uniform(-0.2, 0.1) + np.concatenate(([0.0], np.cumsum(steps)))
        return np.concatenate(([0.0], np.cumsum(diffs)))

    A = convex_profile(side + 1)
    B = convex_profile(side + 1)
    m = np.arange(side + 1)[:, None]
    n = np.arange(side + 1)[None, :]
    return A[:, None] + B[None, :] + c * m * n


@settings(max_examples=30, deadline=None)
@given(_GENERATORS, st.integers(0, 2**64), st.integers(0, 7))
def test_monotone_tables_map_each_draw_as_a_scalar_uniform_call(generator, seed, count):
    stacked_rng, scalar_rng = generator(seed), generator(seed)
    stacked = random_monotone_tables(stacked_rng, count)
    fields = [_scalar_monotone_field(scalar_rng) for _ in range(count)]
    scalar = sampling._tables_from_log_fields(np.array(fields).reshape(count, 7, 7))
    assert all(_same_bits(W, V) for W, V in zip(stacked, scalar, strict=True))
    assert _tail(stacked_rng) == _tail(scalar_rng)
