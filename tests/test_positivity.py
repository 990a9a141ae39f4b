"""Positivity tests against operator-level oracles and closed-form regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    DomainError,
    InternalConsistencyError,
    OneVarWeights,
    WindowError,
    build_prop2,
    build_theta,
    componentwise_hyponormal,
    full_hypo_report,
    joint_hyponormal,
    k_hyponormal,
    k_hyponormal_verdict,
    moment_matrix_psd,
    moments,
    one_var_k_hyponormal,
    psd_check,
    six_point_test,
)
from aluthge_lab import positivity
from aluthge_lab.measures import quasinormal_completion, stampfli
from aluthge_lab.sampling import (
    bump_gamma,
    random_commuting_table,
    random_completion,
    random_monotone_table,
    random_nondecreasing_omega,
)
from aluthge_lab.transforms import toral_transform

from oracles import block_commutator_spectrum, one_var_block_min_eig

PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# psd_check basics


def test_psd_check_verdicts():
    assert psd_check(np.eye(3)).is_psd
    v = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(-1.0)
    assert v.dim == 2


def test_psd_check_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(DomainError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        psd_check(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# six-point test on the corner family: closed-form region oracle


def test_six_point_corner_family_threshold():
    # jointly hyponormal iff x <= h(y) = sqrt((1+y^2)/2); probe both sides
    y = 0.6
    h = np.sqrt((1 + y * y) / 2)
    below, _ = joint_hyponormal(build_prop2(h - 0.01, y), 10)
    above, report = joint_hyponormal(build_prop2(h + 0.01, y), 10)
    assert below
    assert not above
    k, M = report.worst_witness
    assert k == (0, 0)  # the corner is the only non-flat lattice point
    _, verdict = six_point_test(build_prop2(h + 0.01, y), k)
    assert not verdict.is_psd


def test_six_point_single_point_matches_scan():
    W = build_prop2(0.9, 0.3)
    M, verdict = six_point_test(W, (0, 0))
    # hand values: p = 1 - x^2, r = 1 - x^2, q = y^2 - x^2
    assert M[0, 0] == pytest.approx(1 - 0.81)
    assert M[0, 1] == pytest.approx(0.09 - 0.81)
    assert not verdict.is_psd


def test_componentwise_on_monotone_tables():
    rng = np.random.default_rng(2)
    for _ in range(5):
        W = random_monotone_table(rng)
        a_ok, b_ok = componentwise_hyponormal(W, 8)
        assert a_ok and b_ok


def test_componentwise_flags_are_directional():
    om = OneVarWeights(values=(0.9, 0.7, 1.0))  # dips, then recovers
    W = build_theta(om)
    a_ok, b_ok = componentwise_hyponormal(W, 6)
    assert not a_ok and not b_ok


# ---------------------------------------------------------------------------
# joint test carries its own operator-level cross-check; these runs would
# raise InternalConsistencyError if the spectral identity ever failed


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_joint_hyponormal_cross_check_runs_clean(seed):
    rng = np.random.default_rng(seed)
    W = random_commuting_table(rng)
    joint_hyponormal(W, 7)


# ---------------------------------------------------------------------------
# one-variable route vs dense operator blocks


def _decisive(val, scale, factor=100.0):
    return abs(val) > factor * PSD_TOL * scale


def test_one_var_hankel_matches_operator_blocks():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(12):
        om = random_nondecreasing_omega(rng, length=8)
        for k in (1, 2):
            nmax = 4 * k + 6
            hankel = one_var_k_hyponormal(om, k, nmax)
            me = one_var_block_min_eig(om, k, nmax + 2 * k)
            scale = max(1.0, om(0) ** 2) ** k
            if _decisive(me, scale):
                assert hankel == (me > 0), f"k={k}, min eig {me:.3e}"
                checked += 1
    assert checked >= 12  # the draws must actually exercise both routes


def test_one_var_decreasing_fails_k1_both_routes():
    om = OneVarWeights(values=(1.0, 0.6, 1.1))
    assert not one_var_k_hyponormal(om, 1)
    assert one_var_block_min_eig(om, 1, 10) < -1e-3


def test_one_var_two_atom_rows_fully_hyponormal():
    # rows of a two-atom measure are subnormal, so every order passes
    om = stampfli(1.0, 2.0, 3.0).weights
    for k in (1, 2, 3):
        assert one_var_k_hyponormal(om, k)
    assert one_var_block_min_eig(om, 3, 12) > -1e-12


def test_one_var_k_must_be_positive():
    with pytest.raises(DomainError):
        one_var_k_hyponormal(OneVarWeights(values=(1.0,)), 0)


# ---------------------------------------------------------------------------
# two-variable k-hyponormality


def test_k1_block_matches_six_point_verdict():
    for x, y, expect in ((0.70, 0.6, True), (0.95, 0.6, False)):
        W = build_prop2(x, y)
        assert k_hyponormal(W, 1, 8) is expect
        assert joint_hyponormal(W, 8)[0] is expect


def _agrees_with_dense_oracle(W, k, N):
    v = k_hyponormal_verdict(W, k, N)
    lo, top, dim = block_commutator_spectrum(W, k, N)
    scale = max(1.0, top)
    assert v.dim == dim
    assert v.is_psd == (lo >= -PSD_TOL * scale), f"k={k}, N={N}: {v} vs {lo:.3e}"
    assert abs(v.min_eigenvalue - lo) <= 1e-12 * scale


def _oracle_diagrams():
    rng = np.random.default_rng(5)
    y = 0.6
    s = np.sqrt(1 / (2 - y * y))
    h = np.sqrt((1 + y * y) / 2)
    out = [build_prop2(x, y) for x in (s - 0.02, 0.5 * (s + h), h + 0.02)]
    out += [random_monotone_table(rng), random_commuting_table(rng)]
    out += [build_theta(random_nondecreasing_omega(rng, length=8)), random_completion(rng)]
    bumped = bump_gamma(build_prop2(0.8, 0.5), 1.4, at=(1, 1), rows=6, cols=6)
    for parent in (bumped, random_commuting_table(rng)):
        res = toral_transform(parent)
        assert not res.commutes
        out.append(res.diagram)
    return out


def test_khypo_blocks_match_dense_oracle():
    for W in _oracle_diagrams():
        for k in (1, 2, 3):
            for N in sorted({4 * k + 2, 14}):
                _agrees_with_dense_oracle(W, k, N)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2]))
def test_khypo_blocks_match_dense_oracle_on_random_tables(seed, k):
    W = random_commuting_table(np.random.default_rng(seed))
    _agrees_with_dense_oracle(W, k, 4 * k + 2)


def _order1_agrees_with_dense_oracle(W, N):
    block = float(positivity._lattice_block_eigs(W, 1, N - 2).min())
    lo, top, _ = block_commutator_spectrum(W, 1, N)
    assert abs(block - lo) <= 1e-12 * max(1.0, top), f"N={N}: {block:.3e} vs {lo:.3e}"


def test_joint_cross_check_blocks_match_dense_oracle():
    # N = 4 and 5 are below the k = 1 window that k_hyponormal_verdict accepts
    for W in _oracle_diagrams():
        for N in range(4, 15):
            _order1_agrees_with_dense_oracle(W, N)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
def test_joint_cross_check_blocks_match_dense_oracle_on_random_tables(seed, N):
    _order1_agrees_with_dense_oracle(random_commuting_table(np.random.default_rng(seed)), N)


def test_joint_cross_check_catches_a_wrong_six_point_field(monkeypatch):
    fields = positivity._six_point_fields

    def shifted(W, N):
        p, q, r, mineigs = fields(W, N)
        return p, q, r, mineigs - 1e-3

    monkeypatch.setattr(positivity, "_six_point_fields", shifted)
    with pytest.raises(InternalConsistencyError):
        joint_hyponormal(build_prop2(0.7, 0.6), 12)


def test_k_hierarchy_downward():
    # failure at order 1 forces failure at every higher order
    W = build_prop2(0.95, 0.6)
    assert not k_hyponormal(W, 1, 10)
    assert not k_hyponormal(W, 2, 10)


def test_khypo_window_requirement():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(WindowError):
        k_hyponormal_verdict(W, 2, 9)  # needs N >= 10
    with pytest.raises(DomainError):
        k_hyponormal_verdict(W, 0, 8)


def test_subnormal_completion_k_hyponormal_and_moment_psd():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    for k in (1, 2):
        assert k_hyponormal(W, k, 4 * k + 2)
    table = moments(W, 8)
    for k in (1, 2):
        assert moment_matrix_psd(table, k).is_psd
    assert moment_matrix_psd(table, 2, base=(1, 1)).is_psd


def test_moment_matrix_detects_nonsubnormal():
    # hyponormal but past the subnormality curve: s(y) < x < h(y)
    y = 0.8
    s = np.sqrt(1 / (2 - y * y))
    h = np.sqrt((1 + y * y) / 2)
    x = 0.5 * (s + h)
    W = build_prop2(x, y)
    assert joint_hyponormal(W, 10)[0]
    table = moments(W, 12)
    bad = False
    for k in (2, 3):
        for base in ((0, 0), (1, 0), (0, 1), (1, 1)):
            if not moment_matrix_psd(table, k, base=base).is_psd:
                bad = True
    assert bad  # some truncated moment matrix must witness non-subnormality


def test_full_report_levels_and_orders():
    W = build_prop2(0.5, 0.5)
    report = full_hypo_report(W, 10, kmax=2)
    assert report.joint
    assert report.k_hypo[1] and report.k_hypo[2]
    assert report.levels[1] == 10
    assert report.levels[2] == 10  # max(N, 4k+2) with N = 10
    assert report.worst_witness is None
    assert report.componentwise == (True, True)


def test_full_report_witness_on_failure():
    W = build_prop2(0.95, 0.6)
    report = full_hypo_report(W, 8)
    assert not report.joint
    k, M = report.worst_witness
    assert k == (0, 0)
    assert not psd_check(M).is_psd
