"""Transform formulas against dense-conjugation oracles, plus continuity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    NonCommutingInputError,
    build_prop2,
    build_theta,
    build_thm1,
    commutativity_residual,
    continuity_probe,
    joint_partial_isometry_check,
    quasinormal_completion,
    spherical_polar,
    spherical_transform,
    stampfli,
    toral_commutativity_test,
    toral_transform,
    transform_distance,
)
from aluthge_lab.diagrams import OneVarWeights
from aluthge_lab.sampling import bump_gamma, random_commuting_table

from oracles import spherical_entries, toral_entries


# ---------------------------------------------------------------------------
# weight formulas vs dense matrix conjugation


def test_spherical_matches_dense_conjugation():
    rng = np.random.default_rng(5)
    W = random_commuting_table(rng)
    sph = spherical_transform(W, window=10)
    N = 8
    Ah, Bh = spherical_entries(W, N)
    A, B = sph.weight_arrays(N - 1, N - 1)
    assert np.max(np.abs(A - Ah)) <= 1e-13
    assert np.max(np.abs(B - Bh)) <= 1e-13


def test_toral_matches_dense_aluthge():
    rng = np.random.default_rng(6)
    W = random_commuting_table(rng)
    cand = toral_transform(W, window=10).diagram
    N = 8
    Ah, Bh = toral_entries(W, N)
    A, B = cand.weight_arrays(N - 1, N - 1)
    assert np.max(np.abs(A - Ah)) <= 1e-13
    assert np.max(np.abs(B - Bh)) <= 1e-13


def test_spherical_frozen_corner_value():
    # alpha^(0,0) of the corner diagram at x = y = 1/2:
    # alpha sqrt(P(1,0)/P(0,0)) with P(0,0) = sqrt(1/2), P(1,0) = sqrt(1+1/4)
    sph = spherical_transform(build_prop2(0.5, 0.5))
    expected = 0.5 * math.sqrt(math.sqrt(1.25) / math.sqrt(0.5))
    assert sph.alpha(0, 0) == pytest.approx(expected, abs=1e-15)
    assert sph.alpha(0, 0) == pytest.approx(0.6287167148414676, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_toral_of_corner_is_corner_of_roots(x, y):
    # the corner family is closed under the toral transform with parameters
    # (sqrt x, sqrt y); both sides evaluate through math.sqrt, so the match
    # is exact, not approximate
    cand = toral_transform(build_prop2(x, y), window=8).diagram
    ref = build_prop2(math.sqrt(x), math.sqrt(y))
    A1, B1 = cand.weight_arrays(8, 8)
    A2, B2 = ref.weight_arrays(8, 8)
    assert np.array_equal(A1, A2)
    assert np.array_equal(B1, B2)


def test_theta_lift_transforms_coincide():
    om = OneVarWeights(values=(0.5, 0.7, 0.8, 1.0))
    W = build_theta(om)
    tor = toral_transform(W, window=8).diagram
    sph = spherical_transform(W, window=8)
    A1, B1 = tor.weight_arrays(8, 8)
    A2, B2 = sph.weight_arrays(8, 8)
    assert np.max(np.abs(A1 - A2)) <= 1e-15
    assert np.max(np.abs(B1 - B2)) <= 1e-15
    # and the common value is the one-variable Aluthge rule on the diagonal
    assert tor.alpha(1, 1) == pytest.approx(math.sqrt(om(2) * om(3)), rel=1e-15)


# ---------------------------------------------------------------------------
# commutativity bookkeeping


def test_spherical_output_commutes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        W = random_commuting_table(rng)
        sph = spherical_transform(W, window=10)
        resid, _ = commutativity_residual(sph, 10)
        assert resid <= 1e-13


def test_toral_candidate_verdict_both_ways():
    # theta lifts keep commuting under the toral transform
    W = build_theta(OneVarWeights(values=(0.5, 0.7, 1.0)))
    flag, cond = toral_commutativity_test(W, window=8)
    assert flag
    assert cond <= 1e-14

    # corner diagrams stay corner diagrams (so commuting) under the toral
    # rule, but past x = (1+y)/2 the candidate loses hyponormality
    res = toral_transform(build_prop2(0.72, 0.4), window=10)
    assert res.commutes
    assert res.direct_residual <= 1e-14
    assert res.diagram.alpha(0, 0) == pytest.approx(math.sqrt(0.72))
    from aluthge_lab import joint_hyponormal

    assert not joint_hyponormal(res.diagram, 8)[0]


def test_gamma_bump_breaks_toral_commutativity():
    # a local moment bump keeps the pair commuting but knocks the toral
    # candidate out of the commuting class
    W = bump_gamma(build_prop2(0.8, 0.5), 1.4, at=(1, 1), rows=6, cols=6)
    resid, _ = commutativity_residual(W, 8)
    assert resid <= 1e-13
    flag, cond = toral_commutativity_test(W, window=8)
    assert not flag
    assert cond > 1e-6
    sph = spherical_transform(W, window=8)
    resid_s, _ = commutativity_residual(sph, 8)
    assert resid_s <= 1e-13


def test_transform_rejects_noncommuting_input():
    bad = build_theta(OneVarWeights(values=(0.5, 0.7, 1.0)))
    # sabotage beta only, off the theta diagonal
    from aluthge_lab.diagrams import WeightDiagram

    def window(n1, n2):
        A, B = bad.weight_arrays(n1, n2)
        B = B.copy()
        B[2:3, 1:2] *= 1.3
        return A, B

    broken = WeightDiagram(kind="derived", params={}, _window=window)
    with pytest.raises(NonCommutingInputError):
        spherical_transform(broken, window=6)
    with pytest.raises(NonCommutingInputError):
        toral_transform(broken, window=6)


def test_iterated_spherical_transform_follows_parameter_maps():
    # the corner family maps to itself under the closed-form parameter map
    # of the regions module; a quasinormal completion is a fixed point
    def iterate(W, depth=5):
        for _ in range(depth):
            W = spherical_transform(W)
        return W.weight_arrays(12, 12)

    for x, y in ((0.72, 0.4), (0.84, 0.6), (0.3, 0.9)):
        got = iterate(build_prop2(x, y))
        for _ in range(5):
            x, y = math.sqrt(x) * ((1 + y * y) / 2) ** 0.25, y * (2 / (1 + y * y)) ** 0.25
        want = build_prop2(x, y).weight_arrays(12, 12)
        assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-13

    data = stampfli(1.0, 2.0, 3.0)
    W = quasinormal_completion(data.weights, data.phi1)
    got = iterate(W)
    want = W.weight_arrays(12, 12)
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-13


# ---------------------------------------------------------------------------
# polar data


def test_polar_directions_are_unit():
    rng = np.random.default_rng(9)
    W = random_commuting_table(rng)
    polar = spherical_polar(W, window=8)
    assert polar.isometry_residual() <= 1e-15
    assert polar.P_diag[1, 2] == pytest.approx(math.hypot(W.alpha(1, 2), W.beta(1, 2)))


def test_joint_partial_isometry_identity():
    rng = np.random.default_rng(10)
    W = random_commuting_table(rng)
    dev, ok = joint_partial_isometry_check(W, 6)
    assert ok
    assert dev <= 1e-12


# ---------------------------------------------------------------------------
# continuity machinery


def test_continuity_probe_cutoff_diagonal():
    W = build_prop2(0.5, 0.5)
    probe = continuity_probe(W, N=6, n=100)
    t_vals = np.hypot(*W.weight_arrays(7, 7)).ravel()
    assert np.allclose(probe.A_n_diag, np.sqrt(np.maximum(0.01, t_vals)), atol=1e-15)
    assert set(probe.bound_report) == {"i", "ii", "iii", "iv", "v"}
    assert probe.all_hold


def test_continuity_bound_iii_is_tightest_near_cut():
    # the sup of |sqrt(max(1/n, t)) - sqrt(t)| over t >= 0 is attained at
    # t = 0 with value n^(-1/2); diagrams with weights above the cut leave
    # slack in (iii), which the probe must report as nonnegative
    W = build_prop2(0.5, 0.5)
    for n in (1, 10, 10_000):
        probe = continuity_probe(W, N=8, n=n)
        report = probe.bound_report
        assert report["iii"]["rhs"] == pytest.approx(n**-0.5)
        for key in ("i", "ii", "iii", "iv", "v"):
            assert report[key]["slack"] >= -1e-10


def test_transform_distance_zero_for_identical_inputs():
    W = build_prop2(0.5, 0.5)
    assert transform_distance(W, W, "spherical", N=8) == 0.0
    assert transform_distance(W, W, "toral", N=8) == 0.0


def test_transform_distance_scales_with_perturbation():
    W = build_prop2(0.5, 0.5)
    d2 = transform_distance(W, build_prop2(0.5 + 1e-2, 0.5), "spherical", N=8)
    d3 = transform_distance(W, build_prop2(0.5 + 1e-3, 0.5), "spherical", N=8)
    assert d2 > d3 > 0.0
    # locally Lipschitz in the parameter: the ratio tracks the step ratio
    assert d2 / d3 == pytest.approx(10.0, rel=0.2)


def test_transform_distance_rejects_unknown_kind():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(Exception):
        transform_distance(W, W, "diagonal", N=6)


def test_spherical_consistency_guard_is_quiet_on_real_input():
    # thm1 diagrams exercise the guard path with nontrivial weights
    W = build_thm1(OneVarWeights(values=(0.6, 0.8, 1.0)), 0.45)
    sph = spherical_transform(W, window=10)
    resid, _ = commutativity_residual(sph, 10)
    assert resid <= 1e-13


def test_continuity_probe_rejects_bad_n():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(Exception):
        continuity_probe(W, N=6, n=0)
