"""Core diagram mechanics: weights, commutativity, moments, cores."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    DomainError,
    InvalidWeightsError,
    NonCommutingInputError,
    OneVarWeights,
    WindowError,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    classify,
    commutativity_residual,
    core_of,
    is_spherically_quasinormal,
    moments,
    moments_1var,
    quasinormal_completion,
    quasinormality_routes,
    spherical_transform,
    stampfli,
    toral_transform,
    toral_transforms,
    validate_commuting,
)
from aluthge_lab import (diagrams, measures, positivity, regions, reproduce, sampling,
                         transforms)
from aluthge_lab.diagrams import WeightDiagram, stacked_windows
from aluthge_lab.sampling import random_commuting_tables

from oracles import dense_pair


# ---------------------------------------------------------------------------
# one-variable sequences


def test_one_var_flat_tail_clamp():
    om = OneVarWeights(values=(0.5, 0.7, 0.9))
    assert om(0) == 0.5
    assert om(2) == 0.9
    assert om(17) == 0.9  # clamps to the last stored value


def test_one_var_needs_exactly_one_backing():
    with pytest.raises(DomainError):
        OneVarWeights()
    with pytest.raises(DomainError):
        OneVarWeights(values=(1.0,), triple=(1.0, 2.0, 3.0))


def test_one_var_rejects_bad_values():
    with pytest.raises(InvalidWeightsError):
        OneVarWeights(values=(1.0, -0.5))
    with pytest.raises(InvalidWeightsError):
        OneVarWeights(values=(1.0, float("nan")))
    with pytest.raises(WindowError):
        OneVarWeights(values=(1.0,))(-1)


TOP = f"{diagrams.MAX_WEIGHT:.3e}"


@pytest.mark.parametrize(
    "values, message",
    [
        ([], "must be non-empty"),
        ([1.0, math.nan], "must be positive and finite"),
        ([1.0, math.inf], "must be positive and finite"),
        ([0.0, 1.0], "must be positive and finite"),
        ([1.0, -0.5], "must be positive and finite"),
        ([1.0, 2.0 * diagrams.MAX_WEIGHT], f"must not exceed {TOP}"),
        # the finiteness message wins over the size one, whatever the order
        ([2.0 * diagrams.MAX_WEIGHT, math.nan], "must be positive and finite"),
        ([math.inf, -1.0], "must be positive and finite"),
    ],
)
def test_weight_checks_name_each_failure(values, message):
    with pytest.raises(InvalidWeightsError) as row:
        OneVarWeights(values=values)
    assert str(row.value) == f"omega {message}"
    rect = np.ones((2, max(len(values), 1)))
    if values:
        rect[1] = values
    else:
        rect = rect[:0]
    with pytest.raises(InvalidWeightsError) as table:
        build_table(rect, np.ones_like(rect))
    assert str(table.value) == f"alpha table {message}"


def test_weight_checks_pass_the_largest_and_smallest_weights():
    OneVarWeights(values=(diagrams.MAX_WEIGHT, 5e-324, 1.0))


def test_one_var_shifted():
    om = OneVarWeights(values=(0.5, 0.7, 0.9))
    assert om.shifted(1).prefix(3).tolist() == [0.7, 0.9, 0.9]
    assert om.shifted(5).prefix(2).tolist() == [0.9, 0.9]


def test_two_atom_shift_keeps_the_parent_row():
    # a shifted row keeps its triple and solve: every weight is the
    # parent's, bit for bit, as deep as the parent's moments stay normal
    om = stampfli(1.0, 2.0, 3.0).weights
    assert om.shifted(0) is om
    ref = om.prefix(578)
    for by in range(1, 578):
        row = om.shifted(by)
        assert (row.triple, row.solve, row.shift) == (om.triple, om.solve, by)
        assert np.array_equal(row.prefix(578 - by), ref[by:])
    assert om.shifted(3).shifted(4) == om.shifted(7) != om.shifted(6)


def test_two_atom_shift_refuses_only_past_the_moment_range():
    om = stampfli(1.0, 2.0, 3.0).weights
    assert om.shifted(21)(0) == om(21)
    for by, n in ((577, 2), (570, 9), (600, 1)):
        with pytest.raises(DomainError, match=f"up to gamma_{by + n} leave the range of "
                                              "normal positive floats$"):
            om.shifted(by).prefix(n)
    with pytest.raises(WindowError, match="shift must be >= 0$"):
        OneVarWeights(values=(0.5,)).shifted(-1)
    most = diagrams.MAX_WINDOW_POINTS
    assert om.shifted(most).shift == most
    for row, by in ((om, most + 1), (om.shifted(most), 1), (OneVarWeights(values=(0.5,)), most + 1)):
        with pytest.raises(WindowError, match=f"shift must be <= {most}$"):
            row.shifted(by)


# ---------------------------------------------------------------------------
# builders


def test_theta_lift_weights_and_commutativity():
    om = OneVarWeights(values=(0.5, 0.8, 1.0))
    W = build_theta(om)
    for k1, k2 in ((0, 0), (1, 2), (3, 0)):
        assert W.alpha(k1, k2) == om(k1 + k2)
        assert W.beta(k1, k2) == om(k1 + k2)
    resid, _ = commutativity_residual(W, 8)
    assert resid == 0.0


def test_prop2_weight_layout():
    W = build_prop2(0.6, 0.8)
    assert W.alpha(0, 0) == 0.6
    assert W.beta(0, 0) == 0.6
    assert W.alpha(0, 3) == 0.8
    assert W.beta(3, 0) == 0.8
    assert W.alpha(1, 0) == 1.0
    assert W.beta(2, 5) == 1.0
    resid, _ = commutativity_residual(W, 10)
    assert resid == 0.0


def test_prop2_rejects_out_of_range_parameters():
    for x, y in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.2)):
        with pytest.raises(DomainError):
            build_prop2(x, y)


def test_thm1_rows_proportional():
    om = OneVarWeights(values=(0.5, 0.8, 1.0))
    W = build_thm1(om, 0.3)
    ratio = 0.3 / 0.5
    for k1, k2 in ((0, 0), (2, 1), (0, 4)):
        assert W.alpha(k1, k2) == om(k1 + k2)
        assert W.beta(k1, k2) == pytest.approx(ratio * om(k1 + k2), rel=1e-15)
    resid, _ = commutativity_residual(W, 8)
    assert resid <= 1e-16


def test_table_flat_tail_and_validation():
    # hand-solved so every identity holds exactly, tail seams included:
    # the last alpha row and last beta column are constant
    A = np.array([[0.5, 0.6], [0.9, 0.9]])
    B = np.array([[0.5, 0.6], [0.6, 0.6]])
    W = build_table(A, B)
    assert W.alpha(0, 1) == 0.6
    assert W.alpha(5, 9) == 0.9  # clamped
    resid, _ = commutativity_residual(W, 6)
    assert resid == 0.0


def test_table_rejects_noncommuting_rectangles():
    A = np.array([[0.5, 0.6], [0.7, 0.9]])
    B = np.array([[0.5, 0.7], [0.6, 0.8]])
    with pytest.raises(NonCommutingInputError) as err:
        build_table(A, B)
    assert err.value.witness is not None
    assert err.value.residual > 1e-12


def _stepped_beta(step):
    """All alpha weights 1 and beta 1 + step from k1 = 1 on: the residual
    alpha_k beta_{k+e1} - beta_k alpha_{k+e2} is step, exactly, on k1 = 0."""
    return np.ones((2, 2)), np.array([[1.0, 1.0], [1.0 + step, 1.0 + step]])


def test_commutativity_cut_is_pinned_from_both_sides():
    # dyadic steps, so that 1 + step - 1 is the step itself, of 0.45 and 1.8
    # times the cut of 1e-12: a cut raised 1.8-fold or lowered 2.2-fold fails
    below, above = 2.0**-41, 2.0**-39
    W = build_table(*_stepped_beta(below))
    validate_commuting(W, 6)
    assert commutativity_residual(W, 6) == (below, (0, 0))
    with pytest.raises(NonCommutingInputError) as err:
        build_table(*_stepped_beta(above))
    assert (err.value.residual, err.value.witness) == (above, (0, 0))


def test_table_rejects_shape_mismatch_and_bad_entries():
    with pytest.raises(DomainError):
        build_table(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(InvalidWeightsError):
        build_table(np.array([[1.0, -1.0]]), np.ones((1, 2)))


def test_negative_lattice_indices_rejected():
    W = build_prop2(0.5, 0.5)
    row = OneVarWeights(values=(0.5, 0.7))
    for call, message in (
        (lambda: W.alpha(-1, 0), "lattice index must be >= 0$"),
        (lambda: W.beta(0, -2), "lattice index must be >= 0$"),
        (lambda: moments(W, 3).gamma(-1, 0), r"\(m, n\) = \(-1, 0\) outside degree bound 3"),
        (lambda: row(-1), "omega index must be >= 0$"),
        (lambda: row.shifted(-1), "shift must be >= 0$"),
    ):
        with pytest.raises(WindowError, match=message):
            call()


def test_weights_too_large_to_square_rejected():
    big = math.sqrt(np.finfo(float).max) * 1.01
    with pytest.raises(InvalidWeightsError):
        build_table(np.full((2, 2), big), np.full((2, 2), big))
    with pytest.raises(InvalidWeightsError):
        OneVarWeights(values=(1.0, big))
    ok = build_table(np.full((2, 2), 1e150), np.full((2, 2), 1e150))
    assert ok.alpha(0, 0) == 1e150


def test_nan_commutativity_residual_fails_validation():
    def window(n1, n2):
        A = np.ones((n1, n2))
        A[1, 1] = np.nan
        return A, np.ones((n1, n2))

    broken = WeightDiagram(kind="table", params={}, _window=window)
    with pytest.raises(NonCommutingInputError):
        validate_commuting(broken, 4)


def _refusal(build, *args, **kwargs):
    with pytest.raises(Exception) as err:
        build(*args, **kwargs)
    return type(err.value), str(err.value), getattr(err.value, "witness", None), \
        getattr(err.value, "residual", None)


def _three_tables():
    rng = np.random.default_rng(11)
    A, B = zip(*(W.table for W in random_commuting_tables(rng, 3)))
    return np.array(A), np.array(B)


@pytest.mark.parametrize(
    "spoil",
    [lambda A, B: B.__setitem__((1, 4, 1), B[1, 4, 1] * 1.3),
     lambda A, B: A.__setitem__((1, 0, 3), math.nan),
     lambda A, B: B.__setitem__((1, 2, 2), -1.0),
     lambda A, B: B.__setitem__((1, 5, 5), math.inf),
     lambda A, B: A.__setitem__((1, 1, 1), 1.01 * diagrams.MAX_WEIGHT)],
    ids=["non-commuting", "nan", "negative", "infinite", "over MAX_WEIGHT"],
)
def test_a_stack_of_tables_refuses_as_its_failing_table_alone(spoil):
    A, B = _three_tables()
    spoil(A, B)
    # table 2 breaks commutativity too: the first failing table is the one reported
    B[2, 3, 1] *= 1.5
    assert _refusal(diagrams.build_tables, A, B) == _refusal(build_table, A[1], B[1])


def test_a_stack_of_tables_refuses_a_window_over_the_budget_as_one_table():
    A, B = _three_tables()
    side = math.isqrt(diagrams.MAX_WINDOW_POINTS) + 1
    stacked = _refusal(diagrams.build_tables, A, B, window=side - 2)
    assert stacked == _refusal(build_table, A[0], B[0], window=side - 2)
    assert stacked[:2] == (WindowError, f"a {side}x{side} weight window exceeds the budget of "
                                        f"{diagrams.MAX_WINDOW_POINTS} lattice points")


@pytest.mark.parametrize(
    "alpha, beta, error, message",
    [(np.ones((2, 3, 3)), np.ones((2, 3, 4)), DomainError, "must share a 2-d shape"),
     (np.ones((3, 3)), np.ones((3, 3)), DomainError, "must share a 2-d shape"),
     (np.ones((2, 0, 3)), np.ones((2, 0, 3)), InvalidWeightsError, "alpha table must be non-empty")],
    ids=["shapes differ", "one rectangle", "empty rectangles"],
)
def test_a_stack_of_tables_refuses_bad_shapes(alpha, beta, error, message):
    with pytest.raises(error, match=message):
        diagrams.build_tables(alpha, beta)


def test_a_stack_of_no_tables_builds_none():
    assert diagrams.build_tables(np.ones((0, 3, 3)), np.ones((0, 3, 3))) == []


def test_stacked_tables_equal_tables_built_alone():
    A, B = _three_tables()
    for window in (None, 3):
        for W, (a, b) in zip(diagrams.build_tables(A, B, window=window), zip(A, B)):
            V = build_table(a, b, window=window)
            assert W.kind == V.kind and W.params == V.params
            assert list(W._cache) == list(V._cache)  # the validation window, kept
            for x, y in zip(W.table + W.weight_arrays(20, 20), V.table + V.weight_arrays(20, 20)):
                assert not x.flags.writeable
                assert x.view(np.uint64).tobytes() == y.view(np.uint64).tobytes()


# ---------------------------------------------------------------------------
# point reads share cached windows


def test_point_scan_keeps_one_window():
    W = build_prop2(0.7, 0.6)
    dense_pair(W, 14)
    assert len(W._cache) <= 2


_POINT_DIAGRAMS = {
    "prop2": lambda: build_prop2(0.7, 0.6),
    "table": lambda: random_commuting_tables(np.random.default_rng(31), 1)[0],
    "thm1": lambda: build_thm1(OneVarWeights(values=(0.6, 0.8, 0.9)), 0.4),
    "two-atom completion": lambda: quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0),
    "finite-row completion": lambda: quasinormal_completion(OneVarWeights(values=(0.8, 1.0)), 2.5),
    "spherical": lambda: spherical_transform(build_prop2(0.7, 0.6)),
    "toral": lambda: toral_transform(
        random_commuting_tables(np.random.default_rng(31), 1)[0]).diagram,
}


@pytest.mark.parametrize("name", sorted(_POINT_DIAGRAMS))
def test_point_values_match_fresh_windows(name):
    W = _POINT_DIAGRAMS[name]()
    dense_pair(W, 9)  # fills the point cache in scan order
    fresh = _POINT_DIAGRAMS[name]()
    for k1 in range(10):
        for k2 in range(10):
            A, B = fresh.weight_arrays(k1 + 1, k2 + 1)
            assert W.alpha(k1, k2) == A[k1, k2]
            assert W.beta(k1, k2) == B[k1, k2]


@pytest.mark.parametrize("name", sorted(_POINT_DIAGRAMS))
def test_window_slices_match_fresh_windows(name):
    W = _POINT_DIAGRAMS[name]()
    W.weight_arrays(20, 20)
    for n1, n2 in ((20, 20), (1, 1), (7, 3), (3, 12), (16, 16)):
        A, B = W.weight_arrays(n1, n2)
        fresh = _POINT_DIAGRAMS[name]()._window(n1, n2)
        assert np.array_equal(A, fresh[0]) and np.array_equal(B, fresh[1])
        assert not (A.flags.writeable or B.flags.writeable)
    assert len(W._cache) == 1
    # a read the kept window does not cover grows it to the bounding box
    A, _ = W.weight_arrays(24, 5)
    assert A.shape == (24, 5)
    assert list(W._cache) == [(24, 20)]


def test_the_window_budget_counts_the_bounding_box(monkeypatch):
    monkeypatch.setattr(diagrams, "MAX_WINDOW_POINTS", 100)
    W = build_prop2(0.7, 0.6)
    W.weight_arrays(10, 10)
    # 11 x 1 fits alone, but the window it would replace the kept one with is 11 x 10
    with pytest.raises(WindowError, match="^a 11x10 weight window exceeds the budget of 100 "):
        W.weight_arrays(11, 1)
    assert list(W._cache) == [(10, 10)]
    assert W.weight_arrays(4, 9)[0].shape == (4, 9)  # reads inside the kept window still serve


def test_classify_computes_one_window_per_transform(monkeypatch):
    counts = {"toral": 0, "spherical": 0}
    corner_reads = []
    build = regions.build_prop2

    def counted_corner(x, y):
        W = build(x, y)

        def window(n1, n2):
            corner_reads.append((n1, n2))
            return W._window(n1, n2)

        return WeightDiagram(kind=W.kind, params=W.params, _window=window)

    def counting(name, rule):
        def wrapped(A, B):
            counts[name] += 1
            return rule(A, B)

        return wrapped

    monkeypatch.setattr(transforms, "_toral_rule", counting("toral", transforms._toral_rule))
    monkeypatch.setattr(
        transforms, "_spherical_rule", counting("spherical", transforms._spherical_rule)
    )
    monkeypatch.setattr(regions, "build_prop2", counted_corner)
    classify(0.72, 0.4)
    assert counts == {"toral": 1, "spherical": 1}
    # the widest read, the toral condition's (N + 5)^2, comes first
    assert corner_reads == [(17, 17)]


def _computed_windows(monkeypatch, kind, run):
    """Counter of the windows computed for diagrams of `kind` while run() runs."""
    computed = collections.Counter()
    read = WeightDiagram.weight_arrays

    def counting(self, n1, n2):
        before = list(self._cache)
        out = read(self, n1, n2)
        if self.kind == kind and list(self._cache) != before:
            computed.update(list(self._cache))
        return out

    with monkeypatch.context() as m:
        m.setattr(WeightDiagram, "weight_arrays", counting)
        run()
    return computed


def test_reproduce_reads_each_window_at_its_widest_first(monkeypatch):
    def quasinormal2_randomized():
        reproduce._routes_fixture.cache_clear()
        reproduce.quasinormal_route_agreement(7)
        reproduce.completion_khypo_qt(7)

    # the routes' (10 + 3)^2 read, the sampler reading nothing; every later
    # read, power identity and k-hyponormality included, is a slice
    assert _computed_windows(monkeypatch, "quasinormal-completion", quasinormal2_randomized) == {
        (13, 13): 25}
    # the transforms' (10 + 3)^2 read, then the joint test's 12^2 slice
    assert _computed_windows(monkeypatch, "theta", lambda: reproduce.lift_transform_hypo(7)) == {
        (13, 13): 20}


# ---------------------------------------------------------------------------
# commutativity of the sampled tables is exact by construction


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gamma_field_tables_commute(seed):
    rng = np.random.default_rng(seed)
    W = random_commuting_tables(rng, 1)[0]
    resid, _ = commutativity_residual(W, 10)
    top = max(float(X.max()) for X in W.weight_arrays(11, 11))
    assert resid <= 1e-14 * top**2


def _residuals_by_max_and_argmax(A, B):
    R = np.abs(A[:, :-1, :-1] * B[:, 1:, :-1] - B[:, :-1, :-1] * A[:, :-1, 1:])
    R = R.reshape(len(R), -1)
    return [(r, divmod(i, A.shape[2] - 1))
            for r, i in zip(R.max(axis=1).tolist(), R.argmax(axis=1).tolist())]


def test_residual_scan_reads_the_worst_point_once():
    rng = np.random.default_rng(12)
    A = rng.uniform(0.5, 1.5, (4, 7, 7))
    B = rng.uniform(0.5, 1.5, (4, 7, 7))
    A[3] = B[3] = 1.0  # a commuting slice: every residual is 0, the first point reports
    got = diagrams.commutativity_residuals(A, B)
    assert [(r.hex(), k) for r, k in got] == [
        (r.hex(), k) for r, k in _residuals_by_max_and_argmax(A, B)]
    assert got[3] == (0.0, (0, 0))
    assert diagrams.commutativity_residuals(A[:0], B[:0]) == []


def test_residual_scan_reports_a_nan():
    A = np.ones((2, 6, 6))
    B = np.ones((2, 6, 6))
    B[1, 3, 2] = 2.0  # residual 1 at k = (2, 2)
    A[1, 4, 1] = math.nan  # NaN at k = (4, 0) and (4, 1), which scan after (2, 2)
    (clean, k0), (resid, k) = diagrams.commutativity_residuals(A, B)
    assert (clean, k0) == (0.0, (0, 0))
    assert math.isnan(resid) and k == (4, 0)
    with pytest.raises(NonCommutingInputError, match=r"k=\(4, 0\): residual nan"):
        diagrams.require_commuting([(clean, k0), (resid, k)])


# ---------------------------------------------------------------------------
# moments


def test_moments_match_measure_oracle():
    # weights from an explicit product measure: gamma(m,n) = mu_m nu_n with
    # mu, nu the moments of point masses at 0.49 and 0.81
    W = build_table(np.full((2, 2), 0.7), np.full((2, 2), 0.9))
    table = moments(W, 6)
    for m in range(5):
        for n in range(5 - m):
            assert table.gamma(m, n) == pytest.approx(0.49**m * 0.81**n, rel=1e-14)


def test_moments_cumprod_identity():
    rng = np.random.default_rng(3)
    W = random_commuting_tables(rng, 1)[0]
    G = sampling._gamma_rectangles([W])[0]
    # both fill the moment field by one routine, so they agree bit for bit
    for maxdeg in (5, 6):
        table = moments(W, maxdeg)
        for m in range(maxdeg + 1):
            for n in range(maxdeg + 1 - m):
                assert table.gamma(m, n) == G[m, n]


def test_moments_window_errors():
    W = build_prop2(0.5, 0.5)
    table = moments(W, 4)
    with pytest.raises(WindowError):
        table.gamma(3, 2)
    with pytest.raises(WindowError):
        moments(W, -1)


def _one_beta_step(step):
    """Every weight 1 but beta(1, 0) = 1 + step, built past validation: the
    rows-first moment at (1, 1) is (1 + step)^2 and the columns-first one 1."""
    def window(n1, n2):
        A, B = np.ones((n1, n2)), np.ones((n1, n2))
        B[1:2, :1] = 1.0 + step
        return A, B

    return WeightDiagram(kind="table", params={}, _window=window)


def test_moment_path_cut_is_pinned_from_both_sides():
    # relative path gaps 1 - (1 + step)^-2 of 0.58 and 2.33 times the cut of
    # 1e-10 at dyadic steps 2^-35 and 2^-33: a cut scaled by 4 or by 1/4 fails
    below, above = 2.0**-35, 2.0**-33
    gap = lambda step: 1.0 - (1.0 + step) ** -2
    assert 0.58e-10 < gap(below) < 0.59e-10 and 2.32e-10 < gap(above) < 2.33e-10
    assert moments(_one_beta_step(below), 2).gamma(1, 1) == (1.0 + below) ** 2
    with pytest.raises(NonCommutingInputError) as err:
        moments(_one_beta_step(above), 2)
    assert err.value.witness == (1, 1) and err.value.residual == pytest.approx(gap(above))


# each ended in a bare numpy ValueError (an empty argmax, a zero-size
# reduction or a reshape) before the window was checked
NEGATIVE_WINDOW_CALLS = {
    "build_table": lambda W: build_table(*W.weight_arrays(3, 3), window=-1),
    "commutativity_residual": lambda W: commutativity_residual(W, -1),
    "validate_commuting": lambda W: validate_commuting(W, -1),
    "toral_transform-1": lambda W: toral_transform(W, window=-1),
    "toral_transform-2": lambda W: toral_transform(W, window=-2),
    "toral_transforms-empty": lambda W: toral_transforms([], window=-1),
    "spherical_transform-2": lambda W: spherical_transform(W, window=-2),
    "spherical_transform-3": lambda W: spherical_transform(W, window=-3),
    "is_spherically_quasinormal": lambda W: is_spherically_quasinormal(W, -1),
    "quasinormality_routes": lambda W: quasinormality_routes(W, -2, 3),
}


@pytest.mark.parametrize("call", NEGATIVE_WINDOW_CALLS.values(), ids=NEGATIVE_WINDOW_CALLS)
def test_a_negative_window_is_refused_with_window_error(call):
    with pytest.raises(WindowError, match="evaluation window must be >= 0$"):
        call(build_prop2(0.5, 0.5))


def test_moments_1var_cumprod():
    om = OneVarWeights(values=(0.5, 0.8))
    gam = moments_1var(om, 4)
    assert gam[0] == 1.0
    assert gam[1] == pytest.approx(0.25)
    assert gam[2] == pytest.approx(0.25 * 0.64)
    assert gam[3] == pytest.approx(0.25 * 0.64 * 0.64)


# ---------------------------------------------------------------------------
# stacked-window widths: a stage reads the leading square it needs


def _width_diagrams():
    d = stampfli(1.0, 2.0, 3.0)
    return [build_prop2(0.5, 0.5), build_prop2(0.7, 0.4), build_theta([0.5, 0.7, 0.9]),
            build_thm1([0.6, 0.8, 0.9], 0.5), quasinormal_completion(d.weights, d.phi1)]


# stage -> (its call on stacked windows A, B, the width it reads), at window 6;
# joint_window_reports has its own test in test_positivity.py
WIDTH_STAGES = {
    "max_weight_gaps": (lambda A, B: diagrams.max_weight_gaps((A, B), (A[::-1], B[::-1]), 6), 7),
    "spherical_windows": (lambda A, B: transforms.spherical_windows(A, B, 6), 9),
    "lattice_block_eigs-1": (lambda A, B: positivity._lattice_block_eigs(A, B, 1, 7), 8),
    "lattice_block_eigs-2": (lambda A, B: positivity._lattice_block_eigs(A, B, 2, 6), 8),
    "constant_sums": (lambda A, B: measures._constant_sums(A, B, 7), 7),
    "route_window_deviations": (lambda A, B: measures.route_window_deviations(A, B, 6, 7), 9),
    "qt_power_window_checks": (lambda A, B: measures.qt_power_window_checks(A, B, 2, 5), 9),
    "moment_window_tables": (lambda A, B: [t._values for t in diagrams.moment_window_tables(A, B, 6)],
                             7),
    "continuity_window_probes": (lambda A, B: [
        (p.A_n_diag, p.bound_report, p.v_components)
        for p in transforms.continuity_window_probes(A, B, 6, 10)], 7),
    "transform_window_distances": (
        lambda A, B: [transforms.transform_window_distances(A, B, which, 6)
                      for which in ("toral", "spherical")], 17),
}


def _bits(result):
    """Every float of a stage's result as bytes, for a bit-for-bit comparison."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, (list, tuple)):
        return [_bits(x) for x in result]
    if isinstance(result, float):
        return result.hex()
    return result


@pytest.mark.parametrize("stage, width", WIDTH_STAGES.values(), ids=WIDTH_STAGES)
def test_a_stage_reads_the_leading_square_of_a_wider_stack(stage, width):
    exact = stacked_windows(_width_diagrams(), width)
    wider = stacked_windows(_width_diagrams(), width + 3)
    assert _bits(stage(*wider)) == _bits(stage(*exact))


NARROW_CALLS = {
    "max_weight_gaps": lambda A, B: diagrams.max_weight_gaps((A, B), (A, B), 10),
    "spherical_windows": lambda A, B: transforms.spherical_windows(A, B, 10),
    "lattice_block_eigs": lambda A, B: positivity._lattice_block_eigs(A, B, 1, 7),
    "constant_sums": lambda A, B: measures._constant_sums(A, B, 10),
    "route_window_deviations": lambda A, B: measures.route_window_deviations(A, B, 10, 8),
    "qt_power_window_checks": lambda A, B: measures.qt_power_window_checks(A, B, 5, 6),
    "moment_window_tables": lambda A, B: diagrams.moment_window_tables(A, B, 10),
    "continuity_window_probes": lambda A, B: transforms.continuity_window_probes(A, B, 10, 1),
    "transform_window_distances":
        lambda A, B: transforms.transform_window_distances(A, B, "spherical", 10),
}


@pytest.mark.parametrize("call", NARROW_CALLS.values(), ids=NARROW_CALLS)
def test_a_stage_refuses_a_stack_narrower_than_it_reads(call):
    # a 4-wide stack, narrower than any of these reads: no stage may answer
    # from the windows it has (a gap of 0.0, a 3 x 3 transform)
    A, B = stacked_windows([build_prop2(0.5, 0.5), build_prop2(0.7, 0.4)], 4)
    with pytest.raises(WindowError, match=r"reads weight windows \[0, \d+\)\^2, "
                                          r"given \(4, 4\) and \(4, 4\)$"):
        call(A, B)


# ---------------------------------------------------------------------------
# cores


def test_core_of_theta_shifts_the_sequence():
    om = OneVarWeights(values=(0.5, 0.7, 0.9, 1.0))
    K = core_of(build_theta(om))
    for k1, k2 in ((0, 0), (1, 1), (2, 0)):
        assert K.alpha(k1, k2) == om(k1 + k2 + 2)


def test_core_of_prop2_is_flat():
    K = core_of(build_prop2(0.3, 0.7))
    A, B = K.weight_arrays(4, 4)
    assert np.all(A == 1.0)
    assert np.all(B == 1.0)


@pytest.mark.parametrize("builder", ["table", "thm1", "thm1-two-atom", "theta-two-atom"])
def test_core_matches_shifted_parent(builder):
    rng = np.random.default_rng(23)
    if builder == "table":
        W = random_commuting_tables(rng, 1)[0]
    elif builder == "thm1":
        W = build_thm1(OneVarWeights(values=(0.6, 0.8, 0.9)), 0.4)
    elif builder == "thm1-two-atom":
        W = build_thm1(stampfli(1.0, 2.0, 3.0).weights, 0.4)
    else:
        W = build_theta(stampfli(0.6, 1.5, 2.0).weights)
    K = core_of(W)
    for k1 in range(4):
        for k2 in range(4):
            assert K.alpha(k1, k2) == pytest.approx(W.alpha(k1 + 1, k2 + 1), rel=1e-13)
            assert K.beta(k1, k2) == pytest.approx(W.beta(k1 + 1, k2 + 1), rel=1e-13)


_TWO_ATOM = stampfli(1.0, 2.0, 3.0).weights
RESTRICTED = {
    "theta": lambda: build_theta(OneVarWeights(values=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0))),
    "theta-two-atom": lambda: build_theta(stampfli(0.6, 1.5, 2.0).weights),
    "prop2": lambda: build_prop2(0.3, 0.7),
    "table": lambda: random_commuting_tables(np.random.default_rng(23), 1)[0],
    "completion-list": lambda: quasinormal_completion(OneVarWeights(values=(0.8, 1.0)), 2.5),
    "completion-two-atom": lambda: quasinormal_completion(_TWO_ATOM, 4.0),
    "completion-shifted": lambda: quasinormal_completion(_TWO_ATOM.shifted(3), 4.0),
}


@pytest.mark.parametrize("make", RESTRICTED.values(), ids=list(RESTRICTED))
def test_core_is_the_restriction_bit_for_bit(make):
    W = make()
    A0, B0 = W.weight_arrays(13, 13)
    K = W
    for d in range(1, 6):
        K = core_of(K)
        A, B = K.weight_arrays(8, 8)
        assert np.array_equal(A, A0[d:d + 8, d:d + 8])
        assert np.array_equal(B, B0[d:d + 8, d:d + 8])


def test_completion_of_a_shifted_row_reads_the_parent_completion_further_on():
    W = quasinormal_completion(_TWO_ATOM, 4.0)
    A0, B0 = W.weight_arrays(12, 8)
    for by in (1, 4):
        A, B = quasinormal_completion(_TWO_ATOM.shifted(by), 4.0).weight_arrays(8, 8)
        assert np.array_equal(A, A0[by:by + 8]) and np.array_equal(B, B0[by:by + 8])


def test_thm1_core_moves_beta_only_by_its_stored_ratio():
    # alpha is the restriction bit for bit; beta = (y / omega_0) alpha, and the
    # core stores y' = y omega_2 / omega_0 rounded, so its ratio y' / omega_2
    # may leave y / omega_0 by a rounding or two per step
    W = build_thm1(_TWO_ATOM, 0.4)
    A0, _ = W.weight_arrays(13, 13)
    ratio = 0.4 / _TWO_ATOM(0)
    K = W
    for d in range(1, 6):
        K = core_of(K)
        A, B = K.weight_arrays(8, 8)
        assert np.array_equal(A, A0[d:d + 8, d:d + 8])
        core_ratio = K.params["y"] / K.params["omega"](0)
        assert np.array_equal(B, core_ratio * A)
        assert abs(core_ratio - ratio) <= 3 * d * math.ulp(ratio)


# ---------------------------------------------------------------------------
# validation memo


def _count_residual_scans(monkeypatch):
    """The window of every diagram scanned, one entry per diagram of a stack."""
    calls = []
    original = diagrams.commutativity_residuals

    def counting(A, B):
        calls.extend(A.shape[1] - 2 for _ in A)
        return original(A, B)

    monkeypatch.setattr(diagrams, "commutativity_residuals", counting)
    monkeypatch.setattr(transforms, "commutativity_residuals", counting)
    return calls


def test_classify_validates_the_corner_diagram_once(monkeypatch):
    calls = _count_residual_scans(monkeypatch)
    classify(0.72, 0.4)
    # the corner diagram once, then each transform's output once
    assert len(calls) == 3
