"""Positivity tests against operator-level oracles and closed-form regions."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

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
    classify,
    classify_many,
    full_hypo_report,
    hypo_orders,
    joint_hyponormal,
    joint_hyponormal_reports,
    k_hyponormal_verdict,
    k_hyponormal_verdicts,
    moments,
)
from aluthge_lab import diagrams, positivity
from aluthge_lab.diagrams import WeightDiagram, build_table, stacked_windows
from aluthge_lab.measures import quasinormal_completion, stampfli
from aluthge_lab.sampling import (
    random_commuting_tables,
    random_monotone_tables,
    random_nondecreasing_omega,
)
from aluthge_lab.transforms import spherical_transform, toral_transform

from oracles import (
    block_commutator_spectrum,
    eigvalsh_is_psd,
    exact_six_point_flags,
    lattice_block_spectra,
    moment_matrix_psd,
    one_var_block_min_eig,
    oracle_diagrams,
    scaled_schur_complement,
)

PSD_TOL = 1e-10


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
    assert not eigvalsh_is_psd(M)


def test_six_point_single_point_matches_scan():
    W = build_prop2(0.9, 0.3)
    flag, report = joint_hyponormal(W, 10)
    k, M = report.worst_witness
    assert k == (0, 0)
    # hand values: p = 1 - x^2, r = 1 - x^2, q = y^2 - x^2
    assert M[0, 0] == pytest.approx(1 - 0.81)
    assert M[0, 1] == pytest.approx(0.09 - 0.81)
    assert not flag
    assert not eigvalsh_is_psd(M)


def _componentwise(diagrams, N):
    """Componentwise flags on [0, N]^2 of the diagrams' stacked windows."""
    return positivity.componentwise_window_flags(*stacked_windows(diagrams, N + 2))


def test_componentwise_on_monotone_tables():
    rng = np.random.default_rng(2)
    for _ in range(5):
        W = random_monotone_tables(rng, 1)[0]
        ((a_ok, b_ok),) = _componentwise([W], 8)
        assert a_ok and b_ok


def test_componentwise_flags_are_directional():
    om = OneVarWeights(values=(0.9, 0.7, 1.0))  # dips, then recovers
    W = build_theta(om)
    ((a_ok, b_ok),) = _componentwise([W], 6)
    assert not a_ok and not b_ok


def test_componentwise_list_form_equals_one_diagram_calls():
    diagrams = _stack_diagrams()
    for N in (0, 3, 8):
        stacked = _componentwise(diagrams, N)
        assert len(stacked) == len(diagrams)
        for W, flags in zip(diagrams, stacked):
            assert [flags] == _componentwise([W], N)
            assert all(type(f) is bool for f in flags)
        # a slice of a wider window gives the same flags
        A, B = stacked_windows(diagrams, N + 5)
        assert positivity.componentwise_window_flags(A[:, : N + 2, : N + 2],
                                                     B[:, : N + 2, : N + 2]) == stacked
    assert _componentwise([], 8) == []


# ---------------------------------------------------------------------------
# joint test carries its own operator-level cross-check; these runs would
# raise InternalConsistencyError if the spectral identity ever failed


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_joint_hyponormal_cross_check_runs_clean(seed):
    rng = np.random.default_rng(seed)
    W = random_commuting_tables(rng, 1)[0]
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
            (hankel,) = positivity.one_var_k_hyponormal_many([om], k, nmax)
            me = one_var_block_min_eig(om, k, nmax + 2 * k)
            scale = max(1.0, om(0) ** 2) ** k
            if _decisive(me, scale):
                assert hankel == (me > 0), f"k={k}, min eig {me:.3e}"
                checked += 1
    assert checked >= 12  # the draws must actually exercise both routes


def test_one_var_decreasing_fails_k1_both_routes():
    om = OneVarWeights(values=(1.0, 0.6, 1.1))
    assert positivity.one_var_k_hyponormal_many([om], 1) == [False]
    assert one_var_block_min_eig(om, 1, 10) < -1e-3


def test_one_var_two_atom_rows_fully_hyponormal():
    # rows of a two-atom measure are subnormal, so every order passes
    om = stampfli(1.0, 2.0, 3.0).weights
    for k in (1, 2, 3):
        assert positivity.one_var_k_hyponormal_many([om], k) == [True]
    assert one_var_block_min_eig(om, 3, 12) > -1e-12


def test_one_var_stacked_verdict_equals_psd_check_loop():
    rng = np.random.default_rng(23)
    rows = [random_nondecreasing_omega(rng, length=8) for _ in range(6)]
    rows += [OneVarWeights(values=tuple(rng.uniform(0.5, 1.5, 6))) for _ in range(6)]
    seen = set()
    for om in rows:
        for k in (1, 2, 3):
            nmax = 4 * k + 6
            gam = diagrams.moments_1var(om, nmax + 2 * k)
            steps = np.add.outer(np.arange(k + 1), np.arange(k + 1))
            want = all(eigvalsh_is_psd(gam[n + steps]) for n in range(nmax + 1))
            assert positivity.one_var_k_hyponormal_many([om], k) == [want]
            seen.add(want)
    assert seen == {True, False}


def test_one_var_refuses_moments_past_the_float_range():
    # the verdict is scale-invariant, so these rows would pass as
    # (0.5, 1, 1) does; their moments overflow instead
    rows = [OneVarWeights(values=(0.5, 1.0, 1.0))]
    assert positivity.one_var_k_hyponormal_many(rows, 3) == [True]
    for w in (1e7, 9e153):  # 9e153: near the largest weight accepted
        with pytest.raises(DomainError, match="normal positive floats"):
            positivity.one_var_k_hyponormal_many([OneVarWeights(values=(0.5, w, w))], 3)


def test_one_var_list_form_equals_one_row_calls():
    rng = np.random.default_rng(31)
    rows = [random_nondecreasing_omega(rng, length=8) for _ in range(8)]
    rows += [OneVarWeights(values=tuple(rng.uniform(0.5, 1.5, 6))) for _ in range(4)]
    rows += [stampfli(1.0, 2.0, 3.0).weights, [0.9, 0.7, 1.0]]
    seen = set()
    for k in (1, 2, 3):
        for nmax in (None, 0, 3):
            stacked = positivity.one_var_k_hyponormal_many(rows, k, nmax)
            alone = [positivity.one_var_k_hyponormal_many([om], k, nmax) for om in rows]
            assert [[v] for v in stacked] == alone
            assert all(type(v) is bool for v in stacked)
            seen.update(stacked)
    assert seen == {True, False}
    assert positivity.one_var_k_hyponormal_many([], 2) == []


def test_one_var_list_form_refuses_the_first_row_past_the_float_range():
    fine, huge = OneVarWeights(values=(0.5, 1.0, 1.0)), OneVarWeights(values=(0.5, 1e7, 1e7))
    with pytest.raises(DomainError) as alone:
        positivity.one_var_k_hyponormal_many([huge], 3)
    with pytest.raises(DomainError) as stacked:
        positivity.one_var_k_hyponormal_many([fine, huge, fine], 3)
    assert str(stacked.value) == str(alone.value)


def test_one_var_k_must_be_positive():
    with pytest.raises(DomainError):
        positivity.one_var_k_hyponormal_many([OneVarWeights(values=(1.0,))], 0)


@pytest.mark.parametrize("k, nmax, error, message", [
    (1, -1, WindowError, "nmax must be >= 0"),
    (1, 2.5, DomainError, "nmax must be an integer, got 2.5"),
    (1.5, None, DomainError, "k must be an integer"),
    (True, None, DomainError, "k must be an integer"),
])
def test_one_var_refuses_a_bad_k_or_nmax(k, nmax, error, message):
    # the row is not hyponormal, so an empty range of n must not pass it
    row = OneVarWeights(values=(0.9, 0.5, 1.0))
    assert positivity.one_var_k_hyponormal_many([row], 1, 0) == [False]
    with pytest.raises(error, match=message) as info:
        positivity.one_var_k_hyponormal_many([row], k, nmax)
    assert type(info.value) is error


# ---------------------------------------------------------------------------
# two-variable k-hyponormality


def test_k1_block_matches_six_point_verdict():
    for x, y, expect in ((0.70, 0.6, True), (0.95, 0.6, False)):
        W = build_prop2(x, y)
        assert k_hyponormal_verdict(W, 1, 8).is_psd is expect
        assert joint_hyponormal(W, 8)[0] is expect


def _agrees_with_dense_oracle(W, k, N):
    v = k_hyponormal_verdict(W, k, N)
    lo, top, dim = block_commutator_spectrum(W, k, N)
    scale = max(1.0, top)
    assert v.dim == dim
    assert v.is_psd == (lo >= -PSD_TOL * scale), f"k={k}, N={N}: {v} vs {lo:.3e}"
    assert abs(v.min_eigenvalue - lo) <= 1e-12 * scale


def test_khypo_blocks_match_dense_oracle():
    for W in oracle_diagrams():
        for k in (1, 2, 3):
            for N in sorted({4 * k + 2, 14}):
                _agrees_with_dense_oracle(W, k, N)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2]))
def test_khypo_blocks_match_dense_oracle_on_random_tables(seed, k):
    W = random_commuting_tables(np.random.default_rng(seed), 1)[0]
    _agrees_with_dense_oracle(W, k, 4 * k + 2)


def _block_eigs(diagrams, k, size):
    windows = [W.weight_arrays(size + k, size + k) for W in diagrams]
    A = np.stack([a for a, _ in windows])
    B = np.stack([b for _, b in windows])
    return positivity._lattice_block_eigs(A, B, k, size)


def _order1_agrees_with_dense_oracle(W, N):
    block = float(_block_eigs([W], 1, N - 2).min())
    lo, top, _ = block_commutator_spectrum(W, 1, N)
    assert abs(block - lo) <= 1e-12 * max(1.0, top), f"N={N}: {block:.3e} vs {lo:.3e}"


def test_joint_cross_check_blocks_match_dense_oracle():
    # N = 4 and 5 are below the k = 1 window that k_hyponormal_verdict accepts
    for W in oracle_diagrams():
        for N in range(4, 15):
            _order1_agrees_with_dense_oracle(W, N)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
def test_joint_cross_check_blocks_match_dense_oracle_on_random_tables(seed, N):
    _order1_agrees_with_dense_oracle(random_commuting_tables(np.random.default_rng(seed), 1)[0], N)


def _shift_six_point_min_eigs(monkeypatch, where):
    fields = positivity._six_point_fields

    def shifted(A, B):
        p, q, r, mineigs = fields(A, B)
        mineigs = mineigs.copy()
        mineigs[where] -= 1e-3
        return p, q, r, mineigs

    monkeypatch.setattr(positivity, "_six_point_fields", shifted)


def test_joint_cross_check_catches_a_wrong_six_point_field(monkeypatch):
    _shift_six_point_min_eigs(monkeypatch, ...)
    with pytest.raises(InternalConsistencyError):
        joint_hyponormal(build_prop2(0.7, 0.6), 12)


@pytest.mark.parametrize("where", [1, 2], ids=["toral", "spherical"])
def test_classify_cross_checks_each_transform(monkeypatch, where):
    # classify stacks (diagram, toral, spherical); a wrong field in one
    # slice alone must still trip that slice's cross-check.  No verdict
    # holds at this point, so the shift flips none of them.
    _shift_six_point_min_eigs(monkeypatch, where)
    with pytest.raises(InternalConsistencyError, match="order-1 operator block"):
        classify(0.99, 0.3)


def _stack_diagrams():
    out = []
    for W in oracle_diagrams():
        out.append(W)
        if W.kind != "derived":  # the toral candidates do not commute
            out += [toral_transform(W).diagram, spherical_transform(W)]
    return out


def _same_report(a, b):
    assert a.componentwise == b.componentwise
    assert a.joint is b.joint
    assert a.k_hypo == b.k_hypo and a.levels == b.levels
    assert a.joint_min_eig.hex() == b.joint_min_eig.hex()  # bit for bit
    assert (a.worst_witness is None) == (b.worst_witness is None)
    if a.worst_witness is not None:
        assert a.worst_witness[0] == b.worst_witness[0]
        assert a.worst_witness[1].tobytes() == b.worst_witness[1].tobytes()


def test_stacked_reports_equal_one_diagram_reports():
    diagrams = _stack_diagrams()
    for N in (4, 8, 12):
        stacked = joint_hyponormal_reports(diagrams, N)
        for W, report in zip(diagrams, stacked):
            _same_report(report, joint_hyponormal(W, N)[1])


def test_joint_window_reports_read_the_leading_square():
    # a lift whose weights drop from 1 to 0.5 at k1 + k2 = 14: the six-point
    # test on [0, N]^2 reads k1 + k2 <= 2N + 1, so it passes up to N = 6;
    # a verdict sized by the window would see the drop at level 6
    diagrams = _stack_diagrams() + [build_theta([1.0] * 14 + [0.5])]
    failing = 0
    for N in (2, 4, 6, 8, 12):
        A, B = stacked_windows(diagrams, N + 5)
        n = N + 2
        want = positivity.joint_window_reports(A[:, :n, :n], B[:, :n, :n], N)
        got = positivity.joint_window_reports(A, B, N)
        for report, wanted in zip(got, want, strict=True):
            _same_report(report, wanted)
        failing += sum(not r.joint for r in want)
        assert got[-1].joint is (N <= 6)
        for narrow in ((A[:, :n - 1, :n - 1], B), (A, B[:, :n, : n - 1])):
            with pytest.raises(WindowError, match=f"level {N} reads"):
                positivity.joint_window_reports(*narrow, N)
    assert failing


def test_witness_is_the_six_point_matrix_at_the_worst_point():
    checked = 0
    for W in _stack_diagrams():
        flag, report = joint_hyponormal(W, 8)
        if flag:
            continue
        k, M = report.worst_witness
        k1, k2 = k
        a, b = W.alpha, W.beta
        # the module docstring's M(k), from point values
        want = [[a(k1 + 1, k2) ** 2 - a(k1, k2) ** 2,
                 a(k1, k2 + 1) * b(k1 + 1, k2) - a(k1, k2) * b(k1, k2)],
                [a(k1, k2 + 1) * b(k1 + 1, k2) - a(k1, k2) * b(k1, k2),
                 b(k1, k2 + 1) ** 2 - b(k1, k2) ** 2]]
        np.testing.assert_allclose(M, want, rtol=1e-13, atol=1e-15)
        p, q, r, mineigs = positivity._six_point_fields(*(X[None] for X in W.weight_arrays(10, 10)))
        assert mineigs[0][k] == report.joint_min_eig == mineigs.min()
        checked += k[0] != k[1]
    assert checked  # an off-diagonal witness, where swapping k1 and k2 shows


def test_witness_is_the_verdict_fields_bit_for_bit():
    # the witness reads M(k) from the arrays that decide the verdict, where
    # Python-float ** and numpy products can differ in the last bit
    rng = np.random.default_rng(5)
    tables = random_commuting_tables(rng, 40) + random_monotone_tables(rng, 20)
    witnesses = 0
    for W, report in zip(tables, joint_hyponormal_reports(tables, 8)):
        if report.worst_witness is None:
            continue
        k, M = report.worst_witness
        p, q, r, _ = positivity._six_point_fields(*stacked_windows([W], 10))
        assert [float(v).hex() for v in M.ravel()] == [float(X[0][k]).hex() for X in (p, q, q, r)]
        witnesses += 1
    assert witnesses


def test_joint_cutoff_scales_with_the_squared_weights():
    # joint hyponormality is invariant under scaling both weight arrays by c,
    # and the min eigenvalue scales by c^2; so does the cutoff
    y = 0.6
    x = math.sqrt((1 + y * y) / 2 + 2.5e-11)  # min eig about -5e-11, inside the cutoff
    W = build_prop2(x, y)

    def scaled(c):
        return WeightDiagram(
            kind="table", params={}, _window=lambda n1, n2: tuple(c * X for X in W.weight_arrays(n1, n2))
        )

    for c in (1.0, 1e3):
        flag, report = joint_hyponormal(scaled(c), 8)
        assert flag, c
        assert -1e-9 * c * c < report.joint_min_eig < 0.0


def test_stacked_block_eigs_equal_one_diagram_block_eigs():
    diagrams = _stack_diagrams()
    for k in (1, 2, 3):
        size = 2 * k + 2
        stacked = _block_eigs(diagrams, k, size)
        for i, W in enumerate(diagrams):
            assert np.array_equal(stacked[i], _block_eigs([W], k, size)[0])


def _matches_lapack_oracle(W, k, size):
    got = np.sort(_block_eigs([W], k, size)[0], axis=1)
    assert np.array_equal(got, lattice_block_spectra(W, k, size)), (W.kind, k, size)


def test_block_eigs_equal_all_lapack_oracle():
    # only coupled blocks are eigensolved; every block's spectrum, as a
    # multiset, must still be what LAPACK returns for it bit for bit
    for W in oracle_diagrams():
        for k in (1, 2, 3):
            for size in sorted({2 * k + 2, 14 - 2 * k}):
                _matches_lapack_oracle(W, k, size)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3]))
def test_block_eigs_equal_all_lapack_oracle_on_random_tables(seed, k):
    _matches_lapack_oracle(random_commuting_tables(np.random.default_rng(seed), 1)[0], k, 2 * k + 2)


def _count_solves(monkeypatch):
    """Lists of the coupled blocks per _coupled_eigs call and of the blocks per eigvalsh call."""
    coupled_eigs, eigvalsh = positivity._coupled_eigs, np.linalg.eigvalsh
    coupled, solved = [], []

    def counting_coupled(diag, pairs):
        coupled.append(len(diag))
        return coupled_eigs(diag, pairs)

    def counting(a):
        solved.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(positivity, "_coupled_eigs", counting_coupled)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return coupled, solved


def test_only_coupled_blocks_are_eigensolved(monkeypatch):
    # classify(0.72, 0.4, N=12, kmax=3) assembles 3 x 121 order-1 blocks
    # (the diagram and its two transforms), 100 order-2 blocks at level 12
    # and 121 order-3 blocks at level 14; most of them are diagonal, and
    # at orders 2 and 3 most coupled ones repeat another byte for byte
    coupled, solved = _count_solves(monkeypatch)
    classify(0.72, 0.4, 12, kmax=3)
    assert coupled == [3, 31, 48]
    assert solved == [3, 13, 24]


def test_a_stack_eigensolves_each_distinct_block_once(monkeypatch):
    # 5 corner diagrams of one ladder row share most blocks: one stacked
    # eigensolve per order, where one call per diagram and order made 11
    # calls that solved 410 blocks
    coupled, solved = _count_solves(monkeypatch)
    classify_many([(x, 0.4) for x in (0.3, 0.5, 0.72, 0.75, 0.9)], 12, kmax=3)
    assert coupled == [15, 155, 240]
    assert solved == [15, 25, 48]


def test_block_dedup_falls_back_to_every_block_on_a_fingerprint_collision(monkeypatch):
    A, B = stacked_windows([build_prop2(x, 0.4) for x in (0.3, 0.5, 0.72)], 11)
    coupled, solved = _count_solves(monkeypatch)
    want = positivity._lattice_block_eigs(A, B, 3, 8)
    assert solved[0] < coupled[0]
    # every block in one group: the byte check fails and every block is solved
    monkeypatch.setattr(positivity, "_fingerprint", lambda rows: np.zeros(len(rows), np.uint64))
    got = positivity._lattice_block_eigs(A, B, 3, 8)
    assert solved[1] == coupled[1] == coupled[0]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def _mixed_diagrams(draw):
    corner = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).map(lambda xy: build_prop2(*xy))
    table = st.integers(0, 10_000).map(
        lambda seed: random_commuting_tables(np.random.default_rng(seed), 1)[0])
    return draw(st.lists(st.one_of(corner, table), min_size=1, max_size=7))


@st.composite
def _diagrams_near_the_cut(draw):
    """Corner diagrams whose six-point minimum lies within a few cuts of 0
    (x within 4e-10 of h(y)), mixed with _mixed_diagrams."""
    y = st.floats(0.05, 0.95)
    near = st.tuples(y, st.floats(-4e-10, 4e-10)).map(
        lambda yd: build_prop2(math.sqrt((1 + yd[0] ** 2) / 2) + yd[1], yd[0]))
    return draw(_mixed_diagrams()) + draw(st.lists(near, min_size=1, max_size=4))


# stacks of one diagram up to all of them: order-1 blocks take 36 to 484
# floats per diagram at N = 4 to 12
@settings(max_examples=25, deadline=None)
@given(_diagrams_near_the_cut(), st.integers(4, 12), st.integers(1, 6000))
def test_order_one_flags_equal_the_exact_verdicts_off_the_cut(diagrams, N, budget):
    with mock.patch.object(positivity, "STACK_FLOATS", budget):
        reports = joint_hyponormal_reports(diagrams, N)
    for W, report in zip(diagrams, reports, strict=True):
        # exact verdicts at c / 2 and 2 c, c = PSD_TOL x scale: where they
        # agree, the cut at c cannot decide otherwise
        half, double = exact_six_point_flags(W, N, (Fraction(1, 2), 2), PSD_TOL)
        for flag, lo, hi in zip((report.joint, *report.componentwise), half, double):
            if lo == hi:
                assert flag == lo


def _verdict_bits(v):
    return v.is_psd, v.dim, v.tol, v.min_eigenvalue.hex()


@settings(max_examples=20, deadline=None)
@given(_mixed_diagrams(), st.sampled_from([2, 3]), st.data())
def test_stacked_verdicts_equal_one_diagram_verdicts(diagrams, k, data):
    N = data.draw(st.integers(max(10, 4 * k + 2), 16))
    # from one diagram per kernel call to all of them in one
    with mock.patch.object(positivity, "STACK_FLOATS", data.draw(st.integers(1, 2**17))):
        got = k_hyponormal_verdicts(diagrams, k, N)
    assert [_verdict_bits(v) for v in got] == [
        _verdict_bits(k_hyponormal_verdict(W, k, N)) for W in diagrams
    ]


def test_a_stack_of_order_3_blocks_holds_less_than_two_full_block_arrays():
    # two (stack, nu, nu, m, m) float arrays of order 3 at level 14: 2 x 5 x 121 x 81 x 8 bytes
    diagrams = [build_prop2(x, 0.4) for x in (0.3, 0.5, 0.72, 0.75, 0.9)]
    reports = joint_hyponormal_reports(diagrams, 12)
    hypo_orders(diagrams, reports, 12, 3)  # block plans and weight windows
    tracemalloc.start()
    try:
        hypo_orders(diagrams, reports, 12, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 5 * 121 * 81 * 8


def test_block_budget_bounds_one_kernel_call(monkeypatch):
    diagrams = _stack_diagrams()[:7]
    joint = joint_hyponormal_reports(diagrams, 8)
    orders = k_hyponormal_verdicts(diagrams, 2, 10)
    kernel, calls = positivity._lattice_block_eigs, []

    def counting(A, B, k, size):
        calls.append(len(A))
        return kernel(A, B, k, size)

    monkeypatch.setattr(positivity, "_lattice_block_eigs", counting)
    # order 1 at N = 8 takes 4 x 7^2 = 196 floats per diagram, order 2 at
    # level 10 takes 5^2 x 8^2 = 1600: the default budget fits all 7 at both
    for a, b in zip(joint_hyponormal_reports(diagrams, 8), joint):
        _same_report(a, b)
    assert k_hyponormal_verdicts(diagrams, 2, 10) == orders
    assert calls == [7, 7]
    calls.clear()
    monkeypatch.setattr(positivity, "STACK_FLOATS", 3 * 196)
    for a, b in zip(joint_hyponormal_reports(diagrams, 8), joint):
        _same_report(a, b)
    assert calls == [3, 3, 1]
    calls.clear()
    monkeypatch.setattr(positivity, "STACK_FLOATS", 2 * 1600)
    assert k_hyponormal_verdicts(diagrams, 2, 10) == orders
    assert calls == [2, 2, 2, 1]
    calls.clear()
    # a budget below one diagram's blocks runs each diagram alone
    monkeypatch.setattr(positivity, "STACK_FLOATS", 1599)
    assert k_hyponormal_verdicts(diagrams, 2, 10) == orders
    assert calls == [1] * 7


def test_stacks_over_the_budget_refused_before_any_window(monkeypatch):
    def window(n1, n2):
        raise AssertionError(f"window ({n1}, {n2}) read before the budget check")

    traps = [WeightDiagram(kind="table", params={}, _window=window) for _ in range(3)]
    monkeypatch.setattr(positivity, "MAX_BLOCK_FLOATS", 195)
    with pytest.raises(DomainError, match="budget"):
        joint_hyponormal_reports(traps, 8)
    monkeypatch.setattr(positivity, "MAX_BLOCK_FLOATS", 1599)
    with pytest.raises(DomainError, match="budget"):
        k_hyponormal_verdicts(traps, 2, 10)


def test_overflow_names_the_first_overflowing_diagram_of_a_stack():
    def flat(w):
        return build_table([[w, w], [w, w]], [[w, w], [w, w]])

    fine, huge, huger = flat(1.0), flat(1e100), flat(1e150)
    with pytest.raises(DomainError) as alone:
        k_hyponormal_verdict(huge, 2, 10)
    assert "weights up to 1.000e+100" in str(alone.value)
    with pytest.raises(DomainError) as stacked:
        k_hyponormal_verdicts([fine, huge, huger], 2, 10)
    assert str(stacked.value) == str(alone.value)


def test_cross_check_cut_is_pinned_from_both_sides(monkeypatch):
    # the order-1 block route moved by 0.5 and 2 times the cut of 1e-8 on a
    # diagram of weight scale 1: a cut scaled by 4 or by 1/4 fails
    W = build_prop2(0.5, 0.5)
    A, B = stacked_windows([W], 12)
    assert max(A.max(), B.max()) <= 1.0
    kernel = positivity._lattice_block_eigs
    for shift in (0.5e-8, 2e-8):
        monkeypatch.setattr(positivity, "_lattice_block_eigs",
                            lambda *args, shift=shift: kernel(*args) + shift)
        if shift < 1e-8:
            assert joint_hyponormal(W, 10)[0]
        else:
            with pytest.raises(InternalConsistencyError, match="order-1 operator block"):
                joint_hyponormal(W, 10)


def test_block_plan_is_read_only():
    arrays = [a for a in positivity._block_plan(2, 6) if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_oversized_blocks_refused_before_any_window():
    def window(n1, n2):
        raise AssertionError(f"window ({n1}, {n2}) read before the budget check")

    trap = WeightDiagram(kind="table", params={}, _window=window)
    # 4 * 1458^2 and 90^2 * 38^2 floats, both above MAX_BLOCK_FLOATS
    with pytest.raises(DomainError, match="budget"):
        joint_hyponormal(trap, 1460)
    with pytest.raises(DomainError, match="budget"):
        k_hyponormal_verdict(trap, 12, 50)
    # order 1 at N = 10 is in budget, order 12 at level 50 is not
    with pytest.raises(DomainError, match="budget"):
        full_hypo_report(trap, 10, kmax=12)


def test_k_hierarchy_downward():
    # failure at order 1 forces failure at every higher order
    W = build_prop2(0.95, 0.6)
    assert not k_hyponormal_verdict(W, 1, 10).is_psd
    assert not k_hyponormal_verdict(W, 2, 10).is_psd


def test_khypo_window_requirement():
    W = build_prop2(0.5, 0.5)
    with pytest.raises(WindowError):
        k_hyponormal_verdict(W, 2, 9)  # needs N >= 10
    with pytest.raises(DomainError):
        k_hyponormal_verdict(W, 0, 8)


def test_subnormal_completion_k_hyponormal_and_moment_psd():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    for k in (1, 2):
        assert k_hyponormal_verdict(W, k, 4 * k + 2).is_psd
    table = moments(W, 8)
    for k in (1, 2):
        assert moment_matrix_psd(table, k)
    assert moment_matrix_psd(table, 2, base=(1, 1))


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
            if not moment_matrix_psd(table, k, base=base):
                bad = True
    assert bad  # some truncated moment matrix must witness non-subnormality


def test_full_blocks_are_scaled_schur_complements_of_moment_matrices():
    # module docstring: for u >= 0, diag sqrt(gamma_{u+p}) B_u diag sqrt(gamma_{u+p})
    # is the Schur complement at gamma_u of (gamma_{u+p+q})_{|p|,|q|<=k}
    size = 6
    diagrams = (
        build_prop2(0.7, 0.6),
        build_theta(OneVarWeights(values=(0.5, 0.7, 0.8, 0.95, 1.0))),
        quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0),
    )
    for W in diagrams:
        table = moments(W, 2 * (size - 1))
        for k in (1, 2):
            nu = size + k
            eigs = _block_eigs([W], k, size)[0]
            # full blocks: u + p stays in [0, size-1]^2 for every |p| <= k
            for u1 in range(size - k):
                for u2 in range(size - k):
                    want = np.linalg.eigvalsh(scaled_schur_complement(table, k, (u1, u2)))
                    # decoupled blocks come back in row order, not ascending
                    got = np.sort(eigs[(u1 + k) * nu + (u2 + k)])
                    tol = 1e-12 * max(1.0, float(np.max(np.abs(want))))
                    assert np.max(np.abs(got - want)) <= tol, (W.kind, k, u1, u2)


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
    assert not eigvalsh_is_psd(M)


def test_hypo_orders_without_higher_orders_hands_back_the_order_1_reports(monkeypatch):
    def replace(*args, **kwargs):
        raise AssertionError("no order >= 2 to add")

    rng = np.random.default_rng(4)
    diagrams = [build_prop2(0.5, 0.5), build_prop2(0.95, 0.6), random_monotone_tables(rng, 1)[0]]
    reports = joint_hyponormal_reports(diagrams, 8)
    # what the reports were extended to when every call rebuilt them
    rebuilt = [dataclasses.replace(r, k_hypo=dict(r.k_hypo), levels={**r.levels})
               for r in reports]
    monkeypatch.setattr(dataclasses, "replace", replace)
    for kmax in (0, 1):
        out = hypo_orders(diagrams, reports, 8, kmax)
        assert len(out) == len(rebuilt)
        for a, b in zip(out, rebuilt):
            _same_report(a, b)
    with pytest.raises(ValueError):
        hypo_orders(diagrams[:2], reports, 8, 1)


def test_hierarchy_inversion_raises_on_every_route(monkeypatch):
    # order 2 made PSD with a positive minimum where order 1 fails decisively
    def psd_order_two(A, B, k, N, tol=PSD_TOL):
        return [positivity.PsdVerdict(is_psd=True, min_eigenvalue=1.0, tol=tol, dim=1)
                for _ in A]

    monkeypatch.setattr(positivity, "k_window_verdicts", psd_order_two)
    W = build_prop2(0.95, 0.6)
    assert joint_hyponormal(W, 10)[1].joint_min_eig < -100 * PSD_TOL
    with pytest.raises(InternalConsistencyError, match="between k=1 and k=2"):
        full_hypo_report(W, 10, kmax=2)
    with pytest.raises(InternalConsistencyError, match="between k=1 and k=2"):
        classify(0.95, 0.6, kmax=2)


def test_budget_refuses_a_huge_order_without_listing_its_multi_indices(monkeypatch):
    # 5e9 multi-indices at k = 1e5: the count comes from k alone
    def listing(k):
        raise AssertionError(f"order-{k} multi-indices listed before the budget check")

    monkeypatch.setattr(positivity, "_graded_multi_indices", listing)
    with pytest.raises(DomainError, match="budget"):
        k_hyponormal_verdict(build_prop2(0.5, 0.5), 100_000, 400_002)


def test_graded_multi_indices_are_built_once_per_order():
    for k in (1, 2, 3, 7):
        ps = positivity._graded_multi_indices(k)
        assert ps is positivity._graded_multi_indices(k)
        assert len(ps) == k * (k + 3) // 2
        assert sorted(ps, key=lambda p: (sum(p), p)) == list(ps)
