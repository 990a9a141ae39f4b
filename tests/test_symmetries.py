"""Metamorphic relations of the transforms and the joint test.

Each relation follows from a definition in the paper: the swap
(T1, T2) -> (T2, T1), a joint scaling (cT1, cT2) and separate scalings
(aT1, bT2) of a commuting pair.  Where the arithmetic the library does is
itself symmetric or exact under the relation, the relation holds bit for
bit, and that is what is asserted.  Elsewhere the verdicts are asserted
equal wherever the relation cannot move them across their cut.  Scalings
are powers of two, so every scaled weight is exact.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    WeightDiagram,
    build_prop2,
    joint_hyponormal_reports,
    k_hyponormal_verdicts,
)
from aluthge_lab.diagrams import stacked_windows
from aluthge_lab.measures import quasinormality_routes_many
from aluthge_lab.positivity import PSD_TOL
from aluthge_lab.regions import BOUNDARY_MARGIN, thresholds
from aluthge_lab.sampling import random_commuting_tables, random_completion
from aluthge_lab.transforms import aluthge_windows

WINDOW = 8
N = 8
# order k -> the truncation level of its test; order 1 is the joint test
LEVELS = {1: N, 2: 10, 3: 14}


def _swapped(W: WeightDiagram) -> WeightDiagram:
    """(T2, T1): alpha'_(k1,k2) = beta_(k2,k1) and beta'_(k1,k2) = alpha_(k2,k1)."""

    def window(n1, n2):
        A, B = W.weight_arrays(n2, n1)
        return B.T.copy(), A.T.copy()

    return WeightDiagram(kind="derived", params={"op": "swap"}, _window=window)


def _scaled(W: WeightDiagram, a: float, b: float) -> WeightDiagram:
    """(a T1, b T2): every alpha times a, every beta times b."""

    def window(n1, n2):
        A, B = W.weight_arrays(n1, n2)
        return a * A, b * B

    return WeightDiagram(kind="derived", params={"op": "scale"}, _window=window)


@st.composite
def _diagrams(draw, completions=False):
    """Random commuting tables, corner diagrams, and corner diagrams within
    2 BOUNDARY_MARGIN of one of the four curves s, h, CA and PA; with
    `completions`, also random quasinormal completions."""
    coordinate = st.floats(0.05, 0.95)
    seeds = st.integers(0, 10_000)
    table = seeds.map(lambda seed: random_commuting_tables(np.random.default_rng(seed), 1)[0])
    corner = st.tuples(coordinate, coordinate).map(lambda xy: build_prop2(*xy))
    offset = st.floats(-2 * BOUNDARY_MARGIN, 2 * BOUNDARY_MARGIN)
    near = st.tuples(coordinate, st.integers(0, 3), offset).map(
        lambda ycd: build_prop2(tuple(thresholds(ycd[0]))[ycd[1]] + ycd[2], ycd[0]))
    kinds = [table, corner, near]
    if completions:
        kinds.append(seeds.map(lambda seed: random_completion(np.random.default_rng(seed))))
    return draw(st.lists(st.one_of(*kinds), min_size=1, max_size=5))


def _windows(diagrams):
    """(TA, TB), (SA, SB): both transforms of the diagrams, as stacked windows."""
    (TA, TB, _), spherical = aluthge_windows(*stacked_windows(diagrams, WINDOW + 3), WINDOW)
    return (TA, TB), spherical


def _bits(X):
    return np.ascontiguousarray(X).view(np.uint64)


def _joint_minima(diagrams):
    return np.array([r.joint_min_eig for r in joint_hyponormal_reports(diagrams, N)])


@settings(max_examples=30, deadline=None)
@given(_diagrams())
def test_the_swap_exchanges_the_components_of_both_transforms(diagrams):
    """The toral rule alpha~_k = sqrt(alpha_k alpha_(k+e1)), beta~_k =
    sqrt(beta_k beta_(k+e2)) and the spherical rule alpha^_k = alpha_k
    sqrt(P_(k+e1) / P_k), beta^_k = beta_k sqrt(P_(k+e2) / P_k) each treat
    T1 along e1 as they treat T2 along e2, and P_k = sqrt(alpha_k^2 +
    beta_k^2) is symmetric in the two weights; so transforming (T2, T1)
    gives the swap of the transform of (T1, T2)."""
    (TA, TB), (SA, SB) = _windows(diagrams)
    (TA2, TB2), (SA2, SB2) = _windows([_swapped(W) for W in diagrams])
    for got, want in ((TA2, TB), (TB2, TA), (SA2, SB), (SB2, SA)):
        assert np.array_equal(_bits(got), _bits(want.transpose(0, 2, 1)))


@settings(max_examples=30, deadline=None)
@given(_diagrams())
def test_the_swap_keeps_the_joint_minimum(diagrams):
    """Joint hyponormality asks M(k) >= 0 at every k.  The swap maps M(k)
    of (T1, T2) to M(k1 <-> k2) of (T2, T1) with its diagonal entries
    exchanged, a congruence by the coordinate swap, which keeps the
    eigenvalues."""
    assert np.array_equal(_bits(_joint_minima([_swapped(W) for W in diagrams])),
                          _bits(_joint_minima(diagrams)))


@settings(max_examples=30, deadline=None)
@given(_diagrams())
def test_doubling_both_weights_scales_the_joint_minimum_by_4_and_the_spherical_transform_by_2(
    diagrams,
):
    """M(k) is quadratic in the weights, so (2 T1, 2 T2) has 4 M(k).  P_k
    is homogeneous of degree 1, so the ratios P_(k+e_i) / P_k of the
    spherical rule do not move, and the spherical transform of (2 T1, 2 T2)
    is twice that of (T1, T2)."""
    doubled = [_scaled(W, 2.0, 2.0) for W in diagrams]
    assert np.array_equal(_bits(_joint_minima(doubled)), _bits(4.0 * _joint_minima(diagrams)))
    _, (SA, SB) = _windows(diagrams)
    _, (SA2, SB2) = _windows(doubled)
    assert np.array_equal(_bits(SA2), _bits(2.0 * SA))
    assert np.array_equal(_bits(SB2), _bits(2.0 * SB))


@settings(max_examples=30, deadline=None)
@given(_diagrams(), st.integers(-4, 4), st.integers(-4, 4))
def test_the_toral_transform_commutes_with_separate_scalings(diagrams, i, j):
    """The toral rule transforms each component on its own, and
    sqrt(a alpha_k a alpha_(k+e1)) = a sqrt(alpha_k alpha_(k+e1)) for a > 0;
    so the toral transform of (a T1, b T2) is (a T1~, b T2~)."""
    a, b = math.ldexp(1.0, i), math.ldexp(1.0, j)
    (TA, TB), _ = _windows(diagrams)
    (TA2, TB2), _ = _windows([_scaled(W, a, b) for W in diagrams])
    assert np.array_equal(_bits(TA2), _bits(a * TA))
    assert np.array_equal(_bits(TB2), _bits(b * TB))


def _verdicts(diagrams, k, tol=PSD_TOL):
    """Order-k verdict of each diagram at level LEVELS[k], the joint one for k = 1."""
    if k == 1:
        return [r.joint for r in joint_hyponormal_reports(diagrams, LEVELS[k], tol)]
    return [v.is_psd for v in k_hyponormal_verdicts(diagrams, k, LEVELS[k], tol)]


def _spread(i, j, k):
    """How far (2^i T1, 2^j T2) can move an order-k minimum eigenvalue
    relative to its cut, as a factor on the cut, doubled for rounding.

    The order-k matrix of (a T1, b T2) is D M D for the diagonal D whose
    entry at the multi-index p (1 <= |p| <= k) is a^p1 b^p2, so each of
    its eigenvalues is that of M times a factor between the least and the
    largest entry of D^2 (Ostrowski), and the cut's scale, max(1, largest
    squared weight) at order 1 and max(1, largest |eigenvalue|) above,
    moves by a factor between min(1, least) and max(1, largest).
    """
    exponents = [2 * (i * p1 + j * p2)
                 for p1 in range(k + 1) for p2 in range(k + 1 - p1) if p1 + p2]
    return 2.0 ** (1 + max(0, *exponents) - min(0, *exponents))


def _assert_verdicts_kept(diagrams, mapped, i, j):
    """At every order, the mapped diagrams' verdicts equal those of the
    diagrams wherever these are the same at PSD_TOL / s and PSD_TOL * s,
    s = _spread(i, j, k), and so cannot cross the cut under the map."""
    for k in LEVELS:
        spread = _spread(i, j, k)
        strict = _verdicts(diagrams, k, PSD_TOL / spread)
        lenient = _verdicts(diagrams, k, PSD_TOL * spread)
        got = _verdicts(mapped, k)
        assert all(s != l or s == g for s, l, g in zip(strict, lenient, got)), k


@settings(max_examples=20, deadline=None)
@given(_diagrams())
def test_the_swap_keeps_the_joint_and_order_k_verdicts(diagrams):
    """Each order-k matrix of (T2, T1) is that of (T1, T2) with its rows
    and columns permuted (T^p becomes T^(p2, p1)), a congruence by a
    permutation, which keeps the eigenvalues; only rounding moves them."""
    _assert_verdicts_kept(diagrams, [_swapped(W) for W in diagrams], 0, 0)


@settings(max_examples=20, deadline=None)
@given(_diagrams(), st.integers(-2, 2))
def test_a_joint_scaling_keeps_the_joint_and_order_k_verdicts(diagrams, i):
    """(c T1, c T2) has the order-k matrix D M D with D = c^|p| on the
    multi-index p, a congruence, so PSD-ness is kept."""
    c = math.ldexp(1.0, i)
    _assert_verdicts_kept(diagrams, [_scaled(W, c, c) for W in diagrams], i, i)


@settings(max_examples=20, deadline=None)
@given(_diagrams(), st.integers(-1, 1), st.integers(-1, 1))
def test_separate_scalings_keep_the_joint_and_order_k_verdicts(diagrams, i, j):
    """(a T1, b T2) has the order-k matrix D M D with D = a^p1 b^p2 on the
    multi-index p, a congruence, so PSD-ness is kept."""
    a, b = math.ldexp(1.0, i), math.ldexp(1.0, j)
    _assert_verdicts_kept(diagrams, [_scaled(W, a, b) for W in diagrams], i, j)


def _routes(diagrams):
    return quasinormality_routes_many(diagrams, window=WINDOW, N=N)


@settings(max_examples=30, deadline=None)
@given(_diagrams(completions=True))
def test_the_swap_keeps_spherical_quasinormality(diagrams):
    """Spherical quasinormality asks alpha_k^2 + beta_k^2 = C for every k.
    The swap reads the sum at (k1, k2) as beta^2 + alpha^2 at (k2, k1),
    the same floats added in the other order, and swaps the spherical
    transform; so every route's flag and the constant C are kept."""
    assert _routes([_swapped(W) for W in diagrams]) == _routes(diagrams)


@settings(max_examples=30, deadline=None)
@given(_diagrams(completions=True), st.integers(-2, 2))
def test_a_joint_scaling_keeps_spherical_quasinormality(diagrams, i):
    """(c T1, c T2) has the sums c^2 (alpha_k^2 + beta_k^2), constant
    exactly when those of (T1, T2) are, with constant c^2 C; c is a power
    of two, so c^2 C is exact."""
    c = math.ldexp(1.0, i)
    for got, want in zip(_routes([_scaled(W, c, c) for W in diagrams]), _routes(diagrams)):
        flags = ("constant_sum", "fixed_point", "interior_diagonal")
        assert [got[f] for f in flags] == [want[f] for f in flags]
        assert got["constant"] == (None if want["constant"] is None else c * c * want["constant"])
