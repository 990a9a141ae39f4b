"""Core diagram mechanics: weights, commutativity, moments, truncation."""

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
    commutativity_residual,
    core_of,
    moments,
    moments_1var,
    quasinormal_completion,
    spherical_transform,
    stampfli,
    toral_transform,
    truncate,
    validate_commuting,
)
from aluthge_lab.diagrams import WeightDiagram
from aluthge_lab.sampling import gamma_rectangle, random_commuting_table

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
        OneVarWeights(values=(1.0,), fn=lambda j: 1.0)


def test_one_var_rejects_bad_values():
    with pytest.raises(InvalidWeightsError):
        OneVarWeights(values=(1.0, -0.5))
    with pytest.raises(InvalidWeightsError):
        OneVarWeights(values=(1.0, float("nan")))
    with pytest.raises(WindowError):
        OneVarWeights(values=(1.0,))(-1)


def test_one_var_shifted():
    om = OneVarWeights(values=(0.5, 0.7, 0.9))
    assert om.shifted(1).prefix(3) == [0.7, 0.9, 0.9]
    assert om.shifted(5).prefix(2) == [0.9, 0.9]


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


def test_table_rejects_shape_mismatch_and_bad_entries():
    with pytest.raises(DomainError):
        build_table(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(InvalidWeightsError):
        build_table(np.array([[1.0, -1.0]]), np.ones((1, 2)))


def test_negative_lattice_indices_rejected():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(WindowError):
        W.alpha(-1, 0)
    with pytest.raises(WindowError):
        W.beta(0, -2)


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


# ---------------------------------------------------------------------------
# point reads share cached windows


def test_point_scan_keeps_one_window():
    W = build_prop2(0.7, 0.6)
    dense_pair(W, 14)
    assert len(W._cache) <= 2


_POINT_DIAGRAMS = {
    "prop2": lambda: build_prop2(0.7, 0.6),
    "table": lambda: random_commuting_table(np.random.default_rng(31)),
    "thm1": lambda: build_thm1(OneVarWeights(values=(0.6, 0.8, 0.9)), 0.4),
    "two-atom completion": lambda: quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0),
    "finite-row completion": lambda: quasinormal_completion(OneVarWeights(values=(0.8, 1.0)), 2.5),
    "spherical": lambda: spherical_transform(build_prop2(0.7, 0.6)),
    "toral": lambda: toral_transform(random_commuting_table(np.random.default_rng(31))).diagram,
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


# ---------------------------------------------------------------------------
# commutativity of the sampled tables is exact by construction


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gamma_field_tables_commute(seed):
    rng = np.random.default_rng(seed)
    W = random_commuting_table(rng)
    resid, _ = commutativity_residual(W, 10)
    assert resid <= 1e-14 * W.weight_bound(10) ** 2


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
    W = random_commuting_table(rng)
    G = gamma_rectangle(W, 6, 6)
    table = moments(W, 5)
    for m in range(6):
        for n in range(6 - m):
            assert table.gamma(m, n) == pytest.approx(G[m, n], rel=1e-12)


def test_moments_window_errors():
    W = build_prop2(0.5, 0.5)
    table = moments(W, 4)
    with pytest.raises(WindowError):
        table.gamma(3, 2)
    with pytest.raises(WindowError):
        moments(W, -1)


def test_moments_1var_cumprod():
    om = OneVarWeights(values=(0.5, 0.8))
    gam = moments_1var(om, 4)
    assert gam[0] == 1.0
    assert gam[1] == pytest.approx(0.25)
    assert gam[2] == pytest.approx(0.25 * 0.64)
    assert gam[3] == pytest.approx(0.25 * 0.64 * 0.64)


# ---------------------------------------------------------------------------
# truncation against the hand-built dense pair


def test_truncate_matches_dense_oracle():
    rng = np.random.default_rng(11)
    W = random_commuting_table(rng)
    t = truncate(W, 5)
    T1, T2 = dense_pair(W, 5)
    assert np.array_equal(t.T1, T1)
    assert np.array_equal(t.T2, T2)
    k = t.index(2, 3)
    assert t.P_diag[k] == pytest.approx(math.hypot(W.alpha(2, 3), W.beta(2, 3)))


def test_truncate_index_bounds():
    t = truncate(build_prop2(0.5, 0.5), 3)
    assert t.index(3, 3) == 15
    with pytest.raises(WindowError):
        t.index(4, 0)
    with pytest.raises(WindowError):
        truncate(build_prop2(0.5, 0.5), -1)


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


@pytest.mark.parametrize("builder", ["table", "thm1"])
def test_core_matches_shifted_parent(builder):
    rng = np.random.default_rng(23)
    if builder == "table":
        W = random_commuting_table(rng)
    else:
        W = build_thm1(OneVarWeights(values=(0.6, 0.8, 0.9)), 0.4)
    K = core_of(W)
    for k1 in range(4):
        for k2 in range(4):
            assert K.alpha(k1, k2) == pytest.approx(W.alpha(k1 + 1, k2 + 1), rel=1e-13)
            assert K.beta(k1, k2) == pytest.approx(W.beta(k1 + 1, k2 + 1), rel=1e-13)
