"""Two-atom measures, constant-sum completions, and their detections."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    AtomicMeasure2D,
    DomainError,
    InfeasibleConstantError,
    OneVarWeights,
    WindowError,
    berger_atomic_verify,
    build_prop2,
    commutativity_residual,
    core_of,
    is_spherically_quasinormal,
    moments,
    quasinormal2_measure,
    quasinormal_completion,
    quasinormality_routes,
    stampfli,
)
from aluthge_lab import measures
from aluthge_lab.diagrams import DENOM_FLOOR, WeightDiagram, stacked_windows
from aluthge_lab.measures import QUASINORMAL_TOL, is_spherical_isometry
from aluthge_lab.sampling import random_commuting_tables, random_completion

from oracles import interior_p2, oracle_diagrams


# ---------------------------------------------------------------------------
# stampfli: frozen values for (1, 2, 3) solved by hand from the recursion
# gamma_{j+2} = phi1 gamma_{j+1} + phi0 gamma_j


def test_stampfli_frozen_123():
    d = stampfli(1.0, 2.0, 3.0)
    assert d.phi0 == pytest.approx(-2.0, abs=1e-14)
    assert d.phi1 == pytest.approx(4.0, abs=1e-14)
    assert d.s0 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)
    assert d.s1 == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)
    assert d.rho0 == pytest.approx(0.8535533905932738, abs=1e-14)
    assert d.rho0 + d.rho1 == pytest.approx(1.0, abs=1e-14)


def test_stampfli_reproduces_prescribed_weights():
    d = stampfli(1.5, 2.25, 3.5)
    om = d.weights
    assert om(0) ** 2 == pytest.approx(1.5, rel=1e-13)
    assert om(1) ** 2 == pytest.approx(2.25, rel=1e-13)
    assert om(2) ** 2 == pytest.approx(3.5, rel=1e-13)
    # weights increase toward sqrt(s1)
    assert om(30) ** 2 == pytest.approx(d.s1, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=1.5),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_stampfli_moment_recursion(a, da, db):
    b, c = a + da, a + da + db
    d = stampfli(a, b, c)
    for j in range(6):
        lhs = d.gamma(j + 2)
        rhs = d.phi1 * d.gamma(j + 1) + d.phi0 * d.gamma(j)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_stampfli_rejects_unordered():
    for bad in ((2.0, 1.0, 3.0), (1.0, 1.0, 3.0), (0.0, 1.0, 2.0)):
        with pytest.raises(DomainError):
            stampfli(*bad)


def test_stampfli_refuses_triples_beyond_float_range():
    # ordered, but inf, overflowing products, or atoms that underflow
    for bad in ((1.0, 2.0, math.inf), (1e150, 2e150, 3e150), (1e-320, 2e-320, 3e-320)):
        with pytest.raises(DomainError):
            stampfli(*bad)


def test_two_atom_prefix_is_the_pointwise_moment_ratio():
    d = stampfli(1.5, 2.25, 3.5)

    def gamma(j):
        return d.rho0 * d.s0**j + d.rho1 * d.s1**j

    pointwise = [math.sqrt(gamma(j + 1) / gamma(j)) for j in range(40)]
    assert d.weights.prefix(40).tolist() == pointwise
    assert d.weights(17) == pointwise[17]


def test_two_atom_prefix_refuses_moments_past_the_float_range():
    om = stampfli(1.0, 2.0, 3.0).weights  # s1 = 2 + sqrt(2), s1**600 overflows
    om.prefix(570)
    with pytest.raises(DomainError, match="normal positive floats"):
        om.prefix(600)


# ---------------------------------------------------------------------------
# completions: frozen entries, closed form vs recursion, feasibility


def test_completion_frozen_first_step():
    # C = 4 and row (1, 2, 3): beta(0,0)^2 = 4 - 1 = 3 and commutativity
    # forces alpha(0,1) = alpha(0,0) beta(1,0)/beta(0,0) = sqrt(2/3)
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    assert W.beta(0, 0) == pytest.approx(math.sqrt(3.0), abs=1e-14)
    assert W.alpha(0, 1) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)


def test_completion_constant_sum_everywhere():
    W = quasinormal_completion(stampfli(1.0, 2.0, 4.0).weights, stampfli(1.0, 2.0, 4.0).phi1)
    A, B = W.weight_arrays(14, 14)
    C = A[0, 0] ** 2 + B[0, 0] ** 2
    assert np.max(np.abs(A**2 + B**2 - C)) <= 1e-12 * max(1.0, C)
    resid, _ = commutativity_residual(W, 12)
    assert resid <= 1e-13


def test_two_atom_route_agrees_with_recursion():
    om = stampfli(1.0, 2.0, 3.0).weights
    closed = quasinormal_completion(om, 4.0)
    # the same weights as a value row force the row-by-row recursion
    rec = quasinormal_completion(OneVarWeights(values=om.prefix(12)), 4.0)
    for m in range(6):
        for n in range(6):
            assert closed.alpha(m, n) == pytest.approx(rec.alpha(m, n), abs=1e-10)
            assert closed.beta(m, n) == pytest.approx(rec.beta(m, n), abs=1e-10)


def test_completion_of_a_shifted_two_atom_row():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights.shifted(1), 4.0)
    A, B = W.weight_arrays(11, 11)
    assert np.max(np.abs(A**2 + B**2 - 4.0)) <= 1e-12


def test_completion_refuses_windows_past_the_float_range():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    W.weight_arrays(571, 571)
    with pytest.raises(DomainError, match="normal positive floats"):
        W.weight_arrays(601, 601)
    small = quasinormal_completion(stampfli(0.01, 0.02, 0.03).weights, 0.05)
    small.weight_arrays(20, 20)
    with pytest.raises(DomainError, match="normal positive floats"):
        small.weight_arrays(101, 101)


def test_completion_from_finite_row_flat_tail():
    # one free weight then a flat tail: the row measure is
    # 0.36 delta_0 + 0.64 delta_1, so gamma(m, n) has the closed form below
    # and the completion is feasible at every depth for C > 1
    W = quasinormal_completion(OneVarWeights(values=(0.8, 1.0)), 2.5)
    A, B = W.weight_arrays(12, 12)
    assert np.max(np.abs(A**2 + B**2 - 2.5)) <= 1e-12
    resid, _ = commutativity_residual(W, 10)
    assert resid <= 1e-13
    # deep entries repeat the flat value exactly
    assert W.alpha(9, 7) == W.alpha(5, 7)
    for n in (0, 3, 11):
        want = 0.64 * 1.5**n / (0.36 * 2.5**n + 0.64 * 1.5**n)
        assert W.alpha(0, n) ** 2 == pytest.approx(want, rel=1e-12)


def test_completion_rejects_row_without_subnormal_tail():
    # two distinct values ahead of the flat tail force zero mass on (0, 1)
    # in any candidate row measure while keeping gamma_1 > gamma_2, which is
    # contradictory, so the recursion must go infeasible at some finite depth
    W = quasinormal_completion(OneVarWeights(values=(0.8, 0.9, 1.0)), 2.5)
    with pytest.raises(InfeasibleConstantError):
        W.weight_arrays(14, 14)


def test_completion_infeasible_constants():
    om = stampfli(1.0, 2.0, 3.0).weights
    with pytest.raises(InfeasibleConstantError):
        quasinormal_completion(om, 3.0)  # below the top atom 2 + sqrt(2)
    with pytest.raises(InfeasibleConstantError):
        # finite rows check lazily, on the first evaluation that needs beta
        quasinormal_completion(OneVarWeights(values=(1.0, 1.2)), 1.44).weight_arrays(4, 4)
    with pytest.raises(InfeasibleConstantError):
        quasinormal_completion(om, -1.0)


def test_completion_core_is_completion_again():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    K = core_of(W)
    assert K.kind == "quasinormal-completion"
    assert K.params["constant"] == 4.0
    for m in range(8):
        for n in range(8):
            assert K.alpha(m, n) == pytest.approx(W.alpha(m + 1, n + 1), abs=1e-13)


# ---------------------------------------------------------------------------
# quasinormality detection routes


def test_routes_agree_on_completion_and_generic():
    rng = np.random.default_rng(21)
    W = random_completion(rng)
    r = quasinormality_routes(W, window=10, N=8)
    assert r["constant_sum"] and r["fixed_point"] and r["interior_diagonal"]
    assert r["constant"] == pytest.approx(W.alpha(0, 0) ** 2 + W.beta(0, 0) ** 2)

    G = random_commuting_tables(rng, 1)[0]
    r2 = quasinormality_routes(G, window=10, N=8)
    assert not (r2["constant_sum"] or r2["fixed_point"] or r2["interior_diagonal"])
    assert r2["constant"] is None


def _route_diagrams():
    """Commuting diagrams on both sides of quasinormality, built afresh."""
    rng = np.random.default_rng(8)
    out = [W for W in oracle_diagrams() if W.kind != "derived"]
    return out + [random_completion(rng) for _ in range(4)] + [random_commuting_tables(rng, 1)[0]]


def test_quasinormality_route_list_form_equals_one_diagram_calls():
    seen = set()
    for window, N in ((10, 8), (4, 9), (0, 1)):
        stacked = measures.quasinormality_routes_many(_route_diagrams(), window, N)
        for W, r in zip(_route_diagrams(), stacked, strict=True):
            one = quasinormality_routes(W, window=window, N=N)
            assert r.keys() == one.keys()
            for key in ("constant_sum", "fixed_point", "interior_diagonal"):
                assert type(r[key]) is bool and r[key] is one[key]
            assert (r["constant"] is None) == (one["constant"] is None)
            if r["constant"] is not None:
                assert r["constant"].hex() == one["constant"].hex()
            seen.add(r["constant_sum"])
    assert seen == {True, False}
    assert measures.quasinormality_routes_many([], 10, 8) == []
    with pytest.raises(WindowError):
        measures.quasinormality_routes_many(_route_diagrams(), 10, 0)


def test_quasinormality_routes_read_each_window_once(monkeypatch):
    ds = _route_diagrams()
    sizes = []

    def counting(stack, n, _original=stacked_windows):
        stack = list(stack)
        sizes.append(len(stack))
        return _original(stack, n)

    # every module that reads through stacked_windows
    for name, module in list(sys.modules.items()):
        if name.startswith("aluthge_lab.") and hasattr(module, "stacked_windows"):
            monkeypatch.setattr(module, "stacked_windows", counting)
    measures.quasinormality_routes_many(ds, window=10, N=8)
    # the fixed-point route transforms a slice of that read; 4 reads when it
    # transformed the diagrams and read the derived ones back
    assert sizes == [len(ds)]


def _interior_diagonal(diagrams, N):
    """(flag, C) of the interior_diagonal route on [0, N)^2, per diagram.

    The route's own arithmetic, measures._constant_sums, read directly:
    quasinormality_routes_many also runs the fixed-point route, which
    refuses the non-commuting oracle diagrams.
    """
    return [(dev <= cut, C)
            for C, dev, cut in measures._constant_sums(*stacked_windows(diagrams, N), N)]


def _assert_interior_matches_dense(W, N):
    ((flag, C),) = _interior_diagonal([W], N)
    vals = interior_p2(W, N)
    assert flag == bool(np.max(np.abs(vals - vals[0])) <= QUASINORMAL_TOL * max(1.0, vals[0]))
    np.testing.assert_array_max_ulp(C, vals[0], maxulp=4)


def test_interior_diagonal_matches_dense_oracle():
    diagrams = oracle_diagrams()
    assert any(flag for flag, _ in _interior_diagonal(diagrams, 8))
    for W in diagrams:
        for N in range(1, 9):
            _assert_interior_matches_dense(W, N)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
def test_interior_diagonal_matches_dense_oracle_on_random_diagrams(seed, N):
    rng = np.random.default_rng(seed)
    for W in (random_commuting_tables(rng, 1)[0], random_completion(rng)):
        _assert_interior_matches_dense(W, N)


def _alpha_bumped_at(W, k):
    """W with alpha scaled at the lattice point k, so alpha^2 + beta^2 moves there only."""

    def window(n1, n2):
        A, B = W.weight_arrays(n1, n2)
        A = A.copy()
        A[k[0] : k[0] + 1, k[1] : k[1] + 1] *= 1.1
        return A, B

    return WeightDiagram(kind="derived", params={}, _window=window)


def test_interior_diagonal_stops_at_the_truncation_boundary():
    # constant on [0, 4)^2 and not at (4, 1) or (1, 4): only levels N >= 5 see it
    Q = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    for k in ((4, 1), (1, 4)):
        W = _alpha_bumped_at(Q, k)
        assert [_interior_diagonal([W], N)[0][0] for N in range(1, 8)] == [True] * 4 + [False] * 3
        for N in range(1, 8):
            _assert_interior_matches_dense(W, N)


def test_interior_diagonal_needs_an_interior():
    with pytest.raises(WindowError):
        quasinormality_routes(random_completion(np.random.default_rng(3)), window=0, N=0)


def test_is_spherically_quasinormal_returns_constant():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    flag, C = is_spherically_quasinormal(W, window=10)
    assert flag
    assert C == pytest.approx(4.0, abs=1e-13)


def test_spherical_isometry_needs_constant_one():
    W = quasinormal_completion(OneVarWeights(values=(0.6,)), 1.0)
    assert is_spherical_isometry(W, window=8)
    W2 = quasinormal_completion(OneVarWeights(values=(0.6,)), 1.21)
    assert not is_spherical_isometry(W2, window=8)


# ---------------------------------------------------------------------------
# atomic measures and Berger verification


def test_measure_validation():
    with pytest.raises(DomainError):
        AtomicMeasure2D(atoms=())
    with pytest.raises(DomainError):
        AtomicMeasure2D(atoms=((0.5, 0.5, 0.7), (0.5, 0.5, 0.3)))  # duplicate atom
    with pytest.raises(DomainError):
        AtomicMeasure2D(atoms=((0.5, 0.5, 0.4),))  # masses must sum to 1
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            AtomicMeasure2D(atoms=((0.5, 0.5, bad),))  # non-finite mass
        with pytest.raises(DomainError):
            AtomicMeasure2D(atoms=((bad, 0.5, 1.0),))  # non-finite coordinate
    mu = AtomicMeasure2D(atoms=((0.25, 0.75, 0.5), (0.75, 0.25, 0.5)))
    assert mu.moment(0, 0) == pytest.approx(1.0)
    assert mu.moment(1, 0) == pytest.approx(0.5)
    assert mu.moment(2, 1) == pytest.approx(0.5 * (0.25**2 * 0.75 + 0.75**2 * 0.25))


def test_quasinormal2_measure_reproduces_completion_moments():
    for triple in ((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (2.0, 3.0, 5.0)):
        d = stampfli(*triple)
        W = quasinormal_completion(d.weights, d.phi1)
        err = berger_atomic_verify(W, quasinormal2_measure(*triple), maxdeg=10)
        assert err <= 1e-10


def test_berger_verify_catches_wrong_measure():
    d = stampfli(1.0, 2.0, 3.0)
    W = quasinormal_completion(d.weights, d.phi1)
    wrong = AtomicMeasure2D(atoms=((d.s0, d.s1, 0.5), (d.s1, d.s0, 0.5)))
    assert berger_atomic_verify(W, wrong, maxdeg=6) > 1e-2


def _berger_moment_loop(W, mu, maxdeg):
    # reference: one moment at a time, as berger_atomic_verify once did
    table = moments(W, maxdeg)
    worst = 0.0
    for m in range(maxdeg + 1):
        for n in range(maxdeg + 1 - m):
            g = table.gamma(m, n)
            worst = max(worst, abs(g - mu.moment(m, n)) / max(abs(g), DENOM_FLOOR))
    return worst


def test_berger_verify_equals_the_moment_loop():
    cases = [((1.0, 2.0, 3.0), 10), ((1.0, 2.0, 4.0), 10), ((2.0, 3.0, 5.0), 10),
             ((1.0, 2.0, 3.0), 300)]
    for triple, maxdeg in cases:
        d = stampfli(*triple)
        W = quasinormal_completion(d.weights, d.phi1)
        mu = quasinormal2_measure(*triple)
        assert berger_atomic_verify(W, mu, maxdeg) == _berger_moment_loop(W, mu, maxdeg)
    W = build_prop2(0.7, 0.6)
    mu = AtomicMeasure2D(atoms=((0.3, 0.0, 0.25), (0.9, 0.5, 0.5), (0.2, 1.1, 0.25)))
    assert berger_atomic_verify(W, mu, 9) == _berger_moment_loop(W, mu, 9)


def test_berger_verify_refuses_measure_moments_past_the_float_range():
    W = build_prop2(0.7, 0.6)
    power = AtomicMeasure2D(atoms=((1e200, 1.0, 0.5), (1.0, 2.0, 0.5)))  # s^2 overflows
    product = AtomicMeasure2D(atoms=((1e160, 1e160, 0.5), (1.0, 2.0, 0.5)))  # s t overflows
    for mu in (power, product):
        with pytest.raises(DomainError, match="float range"):
            berger_atomic_verify(W, mu, 2)
    # s t has degree 2, outside the moments compared at maxdeg 1
    assert berger_atomic_verify(W, product, 1) == _berger_moment_loop(W, product, 1)


def test_theta_lift_of_two_atom_row_has_diagonal_measure():
    # the lift alpha = beta = omega_{k1+k2} of a subnormal row has Berger
    # measure supported on the diagonal t = s
    d = stampfli(1.0, 2.0, 3.0)
    from aluthge_lab import build_theta

    W = build_theta(d.weights)
    mu = AtomicMeasure2D(atoms=((d.s0, d.s0, d.rho0), (d.s1, d.s1, d.rho1)))
    assert berger_atomic_verify(W, mu, maxdeg=8) <= 1e-12


# ---------------------------------------------------------------------------
# the power identity Q^n(I) = (Q(I))^n characterizes constant row sums


def test_qt_identity_zero_on_completions():
    W = quasinormal_completion(stampfli(1.0, 2.0, 3.0).weights, 4.0)
    assert measures.qt_power_identity_checks([W], nmax=5, N=6)[0] <= 1e-10


def test_qt_identity_positive_off_the_class():
    rng = np.random.default_rng(33)
    W = random_commuting_tables(rng, 1)[0]
    assert measures.qt_power_identity_checks([W], nmax=3, N=5)[0] > 1e-6


def test_qt_identity_trivial_cases():
    W = quasinormal_completion(OneVarWeights(values=(0.7,)), 1.5)
    assert measures.qt_power_identity_checks([W], nmax=0, N=4) == [0.0]
    assert measures.qt_power_identity_checks([W], nmax=1, N=4) == [0.0]


def _qt_on_the_full_window(W, nmax, N):
    """The power identity residual with every iterate kept on the whole window,
    zero past its edge: the values on [0, N]^2 are those of the full operators."""
    m = N + nmax + 1
    A, B = W.weight_arrays(m + 1, m + 1)
    cur = np.ones((m + 1, m + 1))
    first = None
    worst = 0.0
    for n in range(1, nmax + 1):
        up = np.vstack([cur[1:, :], np.zeros((1, m + 1))])
        right = np.hstack([cur[:, 1:], np.zeros((m + 1, 1))])
        cur = A**2 * up + B**2 * right
        if first is None:
            first = power = cur[: N + 1, : N + 1].copy()
            continue
        power = power * first  # (Q(I))^n as a running product, as the library forms it
        worst = max(worst, float(np.max(np.abs(cur[: N + 1, : N + 1] - power))))
    return worst


def test_qt_identity_list_form_equals_one_diagram_calls():
    diagrams = _route_diagrams()
    for nmax, N in ((0, 4), (1, 0), (3, 5), (5, 6)):
        stacked = measures.qt_power_identity_checks(diagrams, nmax, N)
        assert len(stacked) == len(diagrams)
        for W, got in zip(diagrams, stacked):
            assert type(got) is float
            (alone,) = measures.qt_power_identity_checks([W], nmax, N)
            assert got.hex() == alone.hex()
            assert got.hex() == _qt_on_the_full_window(W, nmax, N).hex()
    assert measures.qt_power_identity_checks([], 3, 4) == []


def test_moments_of_completion_match_closed_field():
    # gamma(m, n) = rho0 s0^m (C-s0)^n + rho1 s1^m (C-s1)^n for any C above s1
    d = stampfli(1.0, 2.0, 3.0)
    C = 6.0
    W = quasinormal_completion(d.weights, C)
    table = moments(W, 8)
    for m in range(6):
        for n in range(6 - m):
            expected = d.rho0 * d.s0**m * (C - d.s0) ** n + d.rho1 * d.s1**m * (C - d.s1) ** n
            assert table.gamma(m, n) == pytest.approx(expected, rel=1e-12)
