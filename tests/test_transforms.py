"""Transform formulas against dense-conjugation oracles, plus continuity."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    COMMUTATIVITY_TOL,
    DomainError,
    NonCommutingInputError,
    WindowError,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    commutativity_residual,
    continuity_probe,
    quasinormal_completion,
    quasinormality_routes,
    spherical_transform,
    spherical_transforms,
    stampfli,
    toral_transform,
    toral_transforms,
    transform_distance,
)
from aluthge_lab import diagrams, sampling, transforms
from aluthge_lab.diagrams import OneVarWeights, WeightDiagram
from aluthge_lab.errors import InternalConsistencyError
from aluthge_lab.sampling import random_commuting_tables

import oracles
from oracles import (
    joint_partial_isometry_check,
    oracle_diagrams,
    spherical_entries,
    toral_entries,
)


# ---------------------------------------------------------------------------
# weight formulas vs dense matrix conjugation


def test_spherical_matches_dense_conjugation():
    rng = np.random.default_rng(5)
    W = random_commuting_tables(rng, 1)[0]
    sph = spherical_transform(W, window=10)
    N = 8
    Ah, Bh = spherical_entries(W, N)
    A, B = sph.weight_arrays(N - 1, N - 1)
    assert np.max(np.abs(A - Ah)) <= 1e-13
    assert np.max(np.abs(B - Bh)) <= 1e-13


def test_toral_matches_dense_aluthge():
    rng = np.random.default_rng(6)
    W = random_commuting_tables(rng, 1)[0]
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
        W = random_commuting_tables(rng, 1)[0]
        sph = spherical_transform(W, window=10)
        resid, _ = commutativity_residual(sph, 10)
        assert resid <= 1e-13


def test_toral_candidate_verdict_both_ways():
    # theta lifts keep commuting under the toral transform
    W = build_theta(OneVarWeights(values=(0.5, 0.7, 1.0)))
    res = toral_transform(W, window=8)
    flag, cond = res.commutes, res.condition_residual
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
    W = sampling._bumped_tables([build_prop2(0.8, 0.5)], [1.4], [(1, 1)])[0]
    resid, _ = commutativity_residual(W, 8)
    assert resid <= 1e-13
    res = toral_transform(W, window=8)
    flag, cond = res.commutes, res.condition_residual
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
    for _ in range(2):  # a failed validation is not remembered
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


def test_joint_partial_isometry_identity():
    rng = np.random.default_rng(10)
    W = random_commuting_tables(rng, 1)[0]
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


def test_continuity_probe_list_form_equals_one_diagram_calls():
    diagrams = oracle_diagrams()  # the probe reads weights, commuting or not
    for N, n in ((0, 10), (4, 1), (10, 100), (10, 10_000)):
        stacked = transforms.continuity_probes(diagrams, N, n)
        assert len(stacked) == len(diagrams)
        for W, probe in zip(diagrams, stacked):
            one = continuity_probe(W, N, n)
            assert (probe.N, probe.n, probe.all_hold) == (one.N, one.n, one.all_hold)
            assert probe.A_n_diag.shape == ((N + 1) ** 2,)
            assert np.array_equal(probe.A_n_diag, one.A_n_diag)
            assert list(probe.bound_report) == ["i", "ii", "iii", "iv", "v"]
            for key, entry in probe.bound_report.items():
                assert list(entry) == ["lhs", "rhs", "slack"]
                assert [v.hex() for v in entry.values()] == [
                    v.hex() for v in one.bound_report[key].values()]
            assert [[v.hex() for v in c] for c in probe.v_components] == [
                [v.hex() for v in c] for c in one.v_components]
    assert transforms.continuity_probes([], 10, 100) == []
    with pytest.raises(WindowError):
        transforms.continuity_probes(diagrams, -1, 100)


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


def test_transform_distance_refuses_a_negative_level_before_reading_a_window():
    def unreadable(n1, n2):
        raise AssertionError("no window may be read")

    W = diagrams.WeightDiagram(kind="table", params={}, _window=unreadable)
    for which in ("toral", "spherical"):
        with pytest.raises(WindowError):
            transform_distance(W, W, which, N=-1)


def test_transform_distance_rejects_unknown_kind():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(Exception):
        transform_distance(W, W, "diagonal", N=6)

    def unreadable(n1, n2):
        raise AssertionError("no window may be read")

    W = diagrams.WeightDiagram(kind="table", params={}, _window=unreadable)
    with pytest.raises(DomainError, match="unknown transform"):
        transform_distance(W, W, "diagonal", N=6)


def _derived_distance(W, Wp, which, N):
    """transform_distance by the derived diagrams: transform both in one
    stack, then read each output's weights at level N."""
    window = max(transforms.DEFAULT_WINDOW, N + 2)
    if which == "toral":
        d1, d2 = (r.diagram for r in toral_transforms([W, Wp], window=window))
    else:
        d1, d2 = spherical_transforms([W, Wp], window=window)
    (A1, B1), (A2, B2) = (d.weight_arrays(N + 1, N + 1) for d in (d1, d2))
    return max(float(np.max(np.abs(A1[:-1] - A2[:-1]), initial=0.0)),
               float(np.max(np.abs(B1[:, :-1] - B2[:, :-1]), initial=0.0)))


@pytest.mark.parametrize("N", [0, 1, 10])
@pytest.mark.parametrize("which", ["toral", "spherical"])
def test_transform_distance_equals_the_derived_diagram_route(which, N):
    rng = np.random.default_rng(17)
    pairs = [(build_prop2(0.5, 0.5), build_prop2(0.51, 0.5)),
             (build_prop2(0.72, 0.4), build_prop2(0.3, 0.6)),
             (random_commuting_tables(rng, 1)[0], random_commuting_tables(rng, 1)[0])]
    for W, Wp in pairs:
        got = transform_distance(W, Wp, which, N)
        assert got.hex() == _derived_distance(W, Wp, which, N).hex()
        assert (got > 0.0) is (N > 0)


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


# ---------------------------------------------------------------------------
# stacked transforms against one diagram at a time


def _commuting_oracle_diagrams():
    """oracle_diagrams() without its two non-commuting toral candidates, built afresh."""
    return [W for W in oracle_diagrams() if W.kind != "derived"]


def _assert_same_windows(d1, d2, n):
    for a, b in zip(d1.weight_arrays(n, n), d2.weight_arrays(n, n)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("window", [6, 14])
def test_stacked_transforms_equal_one_diagram_transforms(window):
    torals = toral_transforms(_commuting_oracle_diagrams(), window=window)
    sphericals = spherical_transforms(_commuting_oracle_diagrams(), window=window)
    for W, tor, sph in zip(_commuting_oracle_diagrams(), torals, sphericals):
        one = toral_transform(W, window=window)
        assert tor.commutes is one.commutes
        assert tor.condition_residual.hex() == one.condition_residual.hex()
        assert tor.direct_residual.hex() == one.direct_residual.hex()
        assert tor.direct_witness == one.direct_witness
        assert tor.direct_commutes is one.direct_commutes
        one_sph = spherical_transform(W, window=window)
        # the window a stack leaves in each output, and a wider one read later
        for n in (window + 2, window + 5):
            _assert_same_windows(tor.diagram, one.diagram, n)
            _assert_same_windows(sph, one_sph, n)
        # the kept window is what the output's own window function computes
        for d in (tor.diagram, sph):
            kept = d.weight_arrays(window + 2, window + 2)
            fresh = d._window(window + 2, window + 2)
            assert all(np.array_equal(a, b) for a, b in zip(kept, fresh))


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_both_transforms_from_one_read_equal_the_separate_stacks():
    window = 10
    parents = diagrams.stacked_windows(_commuting_oracle_diagrams(), window + 3)
    (TA, TB, verdicts), (SA, SB) = transforms.aluthge_windows(*parents, window)
    want_torals = toral_transforms(_commuting_oracle_diagrams(), window=window)
    want_sphericals = spherical_transforms(_commuting_oracle_diagrams(), window=window)
    for ta, tb, (commutes, cond, direct, witness, direct_commutes), sa, sb, want_tor, want_sph \
            in zip(TA, TB, verdicts, SA, SB, want_torals, want_sphericals, strict=True):
        assert commutes is want_tor.commutes
        assert cond.hex() == want_tor.condition_residual.hex()
        assert direct.hex() == want_tor.direct_residual.hex()
        assert witness == want_tor.direct_witness
        assert direct_commutes is want_tor.direct_commutes
        # each derived diagram's cached window is its slice of the stacked result
        n = window + 2
        wants = (*want_tor.diagram.weight_arrays(n, n), *want_sph.weight_arrays(n, n))
        for got, want in zip((ta, tb, sa, sb), wants, strict=True):
            _same_bits(got, want)
    (TA, TB, verdicts), (SA, SB) = transforms.aluthge_windows(
        *diagrams.stacked_windows([], window + 3), window)
    assert verdicts == [] and all(len(X) == 0 for X in (TA, TB, SA, SB))


@pytest.mark.parametrize("tol", [COMMUTATIVITY_TOL, 1e-3])
def test_direct_commutes_is_the_direct_residual_on_the_cut(tol):
    window = 8
    bumped = sampling._bumped_tables([build_prop2(0.8, 0.5)], [1.4], [(1, 1)])[0]
    stack = [*_commuting_oracle_diagrams(), bumped]
    results = toral_transforms(stack, window=window, tol=tol)
    for W, res in zip(stack, results, strict=True):
        A, B = W.weight_arrays(window + 1, window + 1)
        cut = tol * max(1.0, max(float(A.max()), float(B.max())) ** 2)
        assert res.direct_commutes is (res.direct_residual <= cut)
    assert {res.direct_commutes for res in results} == {True, False}


def _count_stack_reads(monkeypatch):
    """Sizes of the stacks read through diagrams.stacked_windows, by any module."""
    calls = []
    original = diagrams.stacked_windows

    def counting(stack, n):
        calls.append(len(stack))
        return original(stack, n)

    monkeypatch.setattr(diagrams, "stacked_windows", counting)
    monkeypatch.setattr(transforms, "stacked_windows", counting)
    return calls


def test_a_stack_is_validated_from_the_windows_it_read(monkeypatch):
    stages = (lambda ds: transforms.aluthge_windows(*diagrams.stacked_windows(ds, 11), 8),
              lambda ds: toral_transforms(ds, window=8),
              lambda ds: spherical_transforms(ds, window=8))
    fresh = [_commuting_oracle_diagrams() for _ in stages]
    calls = _count_stack_reads(monkeypatch)
    for stage, ds in zip(stages, fresh):
        stage(ds)
    assert calls == [len(ds) for ds in fresh]


@pytest.mark.parametrize("which", ["toral", "spherical"])
def test_transform_distance_transforms_both_diagrams_in_one_stack(monkeypatch, which):
    calls = _count_stack_reads(monkeypatch)
    transform_distance(build_prop2(0.5, 0.5), build_prop2(0.51, 0.5), which, N=10)
    assert calls == [2]


def test_spherical_guard_cut_is_pinned_from_both_sides(monkeypatch):
    # a flat diagram is its own spherical transform; alpha^ at (0, 0) moved by
    # dyadic steps of 0.58 and 2.33 times the cut of 1e-10 leaves exactly that
    # residual there: a cut scaled by 4 or by 1/4 fails
    def flat(n1, n2):
        return np.ones((n1, n2)), np.ones((n1, n2))

    W = WeightDiagram(kind="table", params={}, _window=flat)
    rule = transforms._spherical_rule

    def moved(A, B, step):
        SA, SB = rule(A, B)
        SA = SA.copy()
        SA[:, 0, 0] += step
        return SA, SB

    for step in (2.0**-34, 2.0**-32):
        monkeypatch.setattr(transforms, "_spherical_rule", lambda A, B, s=step: moved(A, B, s))
        if step < 1e-10:
            assert spherical_transform(W, window=4).weight_arrays(1, 1)[0][0, 0] == 1.0 + step
        else:
            with pytest.raises(InternalConsistencyError, match=f"residual {step:.3e}"):
                spherical_transform(W, window=4)


def test_decisive_band_is_pinned_from_both_sides(monkeypatch):
    # the lift's toral candidate commutes exactly, so its direct residual is
    # decisive; a condition residual reported at 0.5 and 2 times a band of
    # 100 cuts (weights below 1: the cut is COMMUTATIVITY_TOL) disagrees with
    # it inside the band, where the condition's flag stands, and then
    # decisively, which raises: a band scaled by 4 or by 1/4 fails
    W = build_theta([0.5, 0.7, 0.9])
    assert (toral_transform(W).direct_residual, toral_transform(W).commutes) == (0.0, True)
    for factor in (0.5, 2.0):
        reported = factor * 100 * COMMUTATIVITY_TOL
        monkeypatch.setattr(transforms, "_toral_condition_residuals",
                            lambda A, B, r=reported: [r] * len(A))
        if factor < 1:
            result = toral_transform(W)
            assert (result.commutes, result.direct_commutes) == (False, True)
            assert (result.condition_residual, result.direct_residual) == (reported, 0.0)
        else:
            with pytest.raises(InternalConsistencyError, match=f"condition residual {reported:.3e}, "
                                                               "direct residual 0.000e"):
                toral_transform(W)


def test_a_non_commuting_table_in_a_stack_raises_as_when_alone():
    rng = np.random.default_rng(11)
    A, B = random_commuting_tables(rng, 1)[0].table
    B = B.copy()
    B[4, 1] *= 1.3  # breaks commutativity at k = (3, 1) and (4, 1) only
    for transform in (toral_transforms, spherical_transforms):
        bad = build_table(A, B, window=2)
        with pytest.raises(NonCommutingInputError) as alone:
            transform([bad], window=6)
        good = [random_commuting_tables(rng, 1)[0] for _ in range(2)]
        stack = [good[0], build_table(A, B, window=2), good[1]]
        with pytest.raises(NonCommutingInputError) as stacked:
            transform(stack, window=6)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.witness == alone.value.witness
        assert stacked.value.residual == alone.value.residual
    # the witness is the worst point of the residual, scanned point by point
    Aw, Bw = bad.weight_arrays(8, 8)
    scan = {(i, j): abs(Aw[i, j] * Bw[i + 1, j] - Bw[i, j] * Aw[i, j + 1])
            for i in range(7) for j in range(7)}
    assert alone.value.witness == max(scan, key=scan.get)
    assert alone.value.residual == scan[alone.value.witness]


# ---------------------------------------------------------------------------
# operator norms from weights against dense SVD oracles

CUTS = (1, 10, 10_000)


def _assert_probe_matches_dense(W, N, n):
    probe = continuity_probe(W, N=N, n=n)
    got = {key: (e["lhs"], e["rhs"]) for key, e in probe.bound_report.items()}
    assert got.pop("v") in probe.v_components
    got["v1"], got["v2"] = probe.v_components
    want = oracles.continuity_sides(W, N, n)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_max_ulp(np.array(got[key]), np.array(want[key]), maxulp=4)
    assert probe.bound_report["v"]["slack"] == min(r - l for l, r in probe.v_components)


def _assert_distance_matches_dense(W, Wp, N):
    for which in ("toral", "spherical"):
        got = transform_distance(W, Wp, which, N)
        want = oracles.transform_distance(W, Wp, which, N)
        np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_weight_level_norms_match_dense_oracles():
    diagrams = oracle_diagrams()
    for W in diagrams:
        for N in range(9):
            for n in CUTS:
                _assert_probe_matches_dense(W, N, n)
    commuting = diagrams[:-2]
    for W, Wp in zip(commuting, commuting[1:]):
        for N in range(9):
            _assert_distance_matches_dense(W, Wp, N)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(CUTS),
)
def test_weight_level_norms_match_dense_oracles_on_random_tables(seed, N, n):
    rng = np.random.default_rng(seed)
    W, Wp = random_commuting_tables(rng, 1)[0], random_commuting_tables(rng, 1)[0]
    _assert_probe_matches_dense(W, N, n)
    _assert_distance_matches_dense(W, Wp, N)


def test_level_zero_and_negative_levels():
    # level 0 keeps no weight of either shift, so every shift norm is 0
    W, Wp = build_prop2(0.5, 0.5), build_prop2(0.6, 0.5)
    for which in ("toral", "spherical"):
        assert transform_distance(W, Wp, which, 0) == 0.0
    assert continuity_probe(W, N=0, n=10).v_components == ((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(WindowError):
        continuity_probe(W, N=-1, n=1)
    with pytest.raises(WindowError):
        transform_distance(W, Wp, "spherical", -1)


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_level_40_routes_hold_no_dense_operator():
    # the dense routes peaked at about 108, 108 and 86 MiB here
    W, Wp = build_prop2(0.5, 0.5), build_prop2(0.6, 0.5)
    Q = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    assert _traced_peak_mib(lambda: continuity_probe(W, N=40, n=10)) < 2
    assert _traced_peak_mib(lambda: transform_distance(W, Wp, "spherical", 40)) < 2
    assert _traced_peak_mib(lambda: quasinormality_routes(Q, window=40, N=40)) < 2


def test_joint_modulus_is_elementwise_math_hypot():
    rng = np.random.default_rng(3)
    # np.hypot differs from math.hypot in the last bit on about 0.5% of
    # such draws, so each shape is large enough to meet some of them
    shapes = ((60, 60), (40, 70), (70, 40), (1, 900))
    ranges = ((0.0, 2.0), (1e150, 1.3e154), (1e-320, 1e-300), (1e-300, 1e150))
    for shape, (lo, hi) in zip(shapes, ranges):
        A = rng.uniform(lo, hi, shape)
        B = rng.uniform(lo, hi, shape)[::-1]  # a strided view
        want = [[math.hypot(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A.tolist(), B.tolist())]
        got = transforms._joint_modulus(A, B)
        assert got.dtype == float and np.array_equal(got, np.array(want))


# normal magnitudes up to the largest weight a diagram may hold, as exponents of 2
_NORMAL_EXPONENTS = (math.log2(sys.float_info.min), math.log2(diagrams.MAX_WEIGHT))


def _log_uniform(rng, shape, lo=_NORMAL_EXPONENTS[0], hi=_NORMAL_EXPONENTS[1]):
    return np.clip(np.exp2(rng.uniform(lo, hi, shape)), 2.0**lo, 2.0**hi)


@st.composite
def _hypot_arguments(draw):
    """(A, B) of one shape: stacks of windows of 4 to 400 or 512 to 2304
    floats, on both sides of HYPOT_PORT_FLOATS, with magnitudes
    log-uniform over the normal range up to MAX_WEIGHT.  B is drawn alone,
    equal to A, or A times 2^j or a ratio near 2^27 or 2^-27, where
    Veltkamp's split changes which half holds the bits.  Zero or subnormal
    entries, or a zero or subnormal larger argument, may be mixed in, and
    the arrays may be reversed or strided views."""
    if draw(st.booleans()):  # at least 512 floats
        shape = (draw(st.integers(2, 4)), draw(st.integers(16, 24)), draw(st.integers(16, 24)))
    else:  # at most 400
        shape = (1, draw(st.integers(2, 20)), draw(st.integers(2, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = _log_uniform(rng, shape)
    relation = draw(st.sampled_from(["alone", "equal", "power of 2", "split", "narrow"]))
    if relation == "alone":
        B = _log_uniform(rng, shape)
    elif relation == "equal":
        B = A.copy()
    elif relation == "power of 2":
        B = A * 2.0 ** draw(st.integers(-60, 60))
    elif relation == "split":
        B = A * np.exp2(draw(st.sampled_from([27, -27])) + rng.uniform(-1, 1, shape))
    else:  # weights around 1, as most diagrams hold
        B = rng.uniform(0.3, 1.0, shape)
        A = rng.uniform(0.3, 1.0, shape)
    B = np.clip(B, 0.0, diagrams.MAX_WEIGHT)
    for edge in draw(st.sets(st.sampled_from(["zero", "subnormal", "zero max", "subnormal max"]))):
        at = tuple(rng.integers(0, n) for n in shape)
        if edge == "zero":
            B[at] = 0.0
        elif edge == "subnormal":
            B[at] = 5e-324 * rng.integers(1, 2**52)
        elif edge == "zero max":
            A[at] = B[at] = 0.0
        else:
            A[at], B[at] = 5e-324 * rng.integers(1, 2**52), 5e-324 * rng.integers(1, 2**52)
    if draw(st.booleans()):
        A, B = B, A
    view = draw(st.sampled_from(["contiguous", "reversed", "strided"]))
    if view == "reversed":
        A, B = A[::-1, ::-1], B[:, ::-1]
    elif view == "strided":
        A, B = (np.repeat(X, 2, axis=2)[..., ::2] for X in (A, B))
    return A, B


def _map_hypot(A, B):
    want = [math.hypot(a, b) for a, b in zip(A.ravel().tolist(), B.ravel().tolist())]
    return np.array(want).reshape(A.shape)


@settings(max_examples=300, deadline=None)
@given(_hypot_arguments())
def test_joint_modulus_equals_math_hypot_bit_for_bit(AB):
    A, B = AB
    got = transforms._joint_modulus(A, B)
    assert got.shape == A.shape
    assert np.array_equal(got.view(np.uint64), _map_hypot(A, B).view(np.uint64))


@pytest.mark.parametrize("chunk", [1, 7, 1000, 2**20])
def test_joint_modulus_chunks_keep_every_bit(monkeypatch, chunk):
    # the port runs over chunks of STACK_FLOATS floats of the flattened
    # input, strided views included; a last chunk may be short
    monkeypatch.setattr(transforms, "STACK_FLOATS", chunk)
    rng = np.random.default_rng(5)
    A = _log_uniform(rng, (3, 21, 23))
    B = np.repeat(A * rng.uniform(0.5, 2.0, A.shape), 2, axis=2)[..., ::2]
    got = transforms._joint_modulus(A, B)
    assert np.array_equal(got.view(np.uint64), _map_hypot(A, B).view(np.uint64))


def test_joint_modulus_scratch_is_bounded_by_the_stack_budget(monkeypatch):
    # beyond the result and the exponents, each the input's size, the port's
    # scratch arrays hold one chunk; unchunked they held about nine inputs
    monkeypatch.setattr(transforms, "STACK_FLOATS", 2**10)
    rng = np.random.default_rng(1)
    A, B = rng.uniform(0.3, 1.0, (400, 400)), rng.uniform(0.3, 1.0, (400, 400))
    tracemalloc.start()
    try:
        transforms._joint_modulus(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * A.nbytes


@settings(max_examples=100, deadline=None)
@given(st.integers(-400, 400), st.integers(1, 3), st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_joint_modulus_scales_exactly_by_powers_of_two(j, stack, side, seed):
    # the drawn magnitudes keep A, B, 2^j A and 2^j B normal and below MAX_WEIGHT
    lo, hi = _NORMAL_EXPONENTS[0] + max(0, -j), _NORMAL_EXPONENTS[1] - max(0, j)
    rng = np.random.default_rng(seed)
    shape = (stack, side, side)
    A = _log_uniform(rng, shape, lo + 28, hi)
    near_split = A * 2.0**-28 * rng.uniform(1.0, 2.0, shape)
    B = np.where(rng.random(shape) < 0.5, near_split, _log_uniform(rng, shape, lo, hi))
    scaled = transforms._joint_modulus(2.0**j * A, 2.0**j * B)
    want = 2.0**j * transforms._joint_modulus(A, B)
    assert np.array_equal(scaled.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("window, error", [(-1, WindowError), (2.5, DomainError),
                                           (True, DomainError)])
@pytest.mark.parametrize("body", [transforms.aluthge_windows, transforms.spherical_windows],
                         ids=["aluthge_windows", "spherical_windows"])
def test_the_transform_window_bodies_refuse_a_bad_window(body, window, error):
    # the parents' check, as the diagram forms refuse before their read
    A, B = diagrams.stacked_windows([build_prop2(0.5, 0.5)], 10)
    with pytest.raises(error, match="^evaluation window must be "):
        body(A, B, window)
