"""Threshold curves, the crossing point, classification, and scans."""

import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    DomainError,
    InternalConsistencyError,
    build_prop2,
    classify,
    classify_many,
    crossing_q,
    full_hypo_report,
    joint_hyponormal_reports,
    region_scan,
    spherical_transforms,
    thresholds,
    toral_transforms,
)
from aluthge_lab import positivity, regions, reproduce, transforms
from aluthge_lab.regions import (
    BOUNDARY_MARGIN,
    SCAN_HEADER,
    curve_pa,
    probe_ladder,
)


def test_curve_values_at_reference_points():
    t = thresholds(0.5)
    assert t.s == pytest.approx(math.sqrt(1 / 1.75), abs=1e-15)
    assert t.h == pytest.approx(math.sqrt(0.625), abs=1e-15)
    assert t.CA == pytest.approx(0.75, abs=1e-15)
    assert t.PA == pytest.approx(
        (math.sqrt(1.25) + math.sqrt(2.0) * 0.25) / (math.sqrt(2.0) * 1.25), abs=1e-15
    )


def test_curve_limits():
    # both ends of the spherical threshold: 1/sqrt(2) at y -> 0 and 1 at y -> 1
    assert curve_pa(1e-9) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert curve_pa(1 - 1e-12) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_curve_ordering_everywhere(y):
    t = thresholds(y)
    assert t.s <= t.h + 1e-15
    assert t.CA <= t.h + 1e-15
    assert t.h <= t.PA + 1e-15


def test_thresholds_domain():
    for y in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            thresholds(y)


def test_crossing_q_solves_the_closed_equation():
    q = crossing_q()
    assert abs(q - 0.52138) <= 1e-4
    # root of (1 + y)^2 (2 - y^2) = 4, equivalent to CA(y) = s(y)
    assert (1 + q) ** 2 * (2 - q * q) == pytest.approx(4.0, abs=1e-8)
    t = thresholds(q)
    assert t.CA == pytest.approx(t.s, abs=1e-9)


def test_crossing_orders_flip_across_q():
    q = crossing_q()
    below, above = thresholds(q - 0.05), thresholds(q + 0.05)
    assert below.CA < below.s
    assert above.CA > above.s


def test_classify_flags_region_by_region():
    # x below every curve at y = 0.5: subnormal, all transforms hyponormal
    rep = classify(0.3, 0.5)
    assert all(rep.closed.values())
    assert all(rep.numeric.values())

    # between CA and s at y = 0.4 (CA = 0.70 < s = 0.737): toral lost
    rep = classify(0.72, 0.4)
    assert rep.closed == {
        "subnormal_by_s": True,
        "hyponormal_by_h": True,
        "toral_by_CA": False,
        "spherical_by_PA": True,
    }
    assert rep.numeric == {"joint": True, "toral": False, "spherical": True}

    # above h but below PA at y = 0.6: only the spherical transform helps
    rep = classify(0.84, 0.6)
    assert not rep.closed["hyponormal_by_h"]
    assert rep.closed["spherical_by_PA"]
    assert rep.numeric == {"joint": False, "toral": False, "spherical": True}

    # above everything
    rep = classify(0.99, 0.3)
    assert not any(rep.numeric.values())


def test_classify_k_orders_on_request():
    rep = classify(0.3, 0.5, kmax=2)
    assert rep.k_hypo == {2: True}
    rep = classify(0.3, 0.5)
    assert rep.k_hypo == {}


def test_classify_domain():
    with pytest.raises(DomainError):
        classify(0.0, 0.5)
    with pytest.raises(DomainError):
        classify(0.5, 1.0)


def test_probe_ladder_avoids_curves():
    xs = probe_ladder(0.5, 20)
    assert len(xs) == 20
    curves = list(thresholds(0.5))
    for x in xs:
        assert all(abs(x - c) >= 1e-6 for c in curves)
    assert xs == sorted(xs)


def test_region_scan_shape_and_determinism():
    lines = region_scan(3, N=8, ladder=4)
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 1 + 3 * 4
    row = lines[1].split(",")
    assert len(row) == len(SCAN_HEADER.split(","))
    assert {c for c in ",".join(l.rsplit(",", 5)[0] for l in lines[1:])} <= set("0123456789.,e-+")
    # identical call, identical bytes
    assert region_scan(3, N=8, ladder=4) == lines


def test_scan_matches_golden_csv():
    golden = Path(__file__).resolve().parent.parent / "bench" / "golden"
    expected = (golden / "corner-scan-grid4-ladder10-N12.csv").read_text(encoding="utf-8")
    assert region_scan(4, N=12, ladder=10) == expected.splitlines()


def test_scan_orders_are_those_of_the_hypo_report():
    # one order-k route: at every point of the golden scan, classify gives
    # the orders and the joint verdict that full_hypo_report gives
    for y in (i / 5 for i in range(1, 5)):
        for x in probe_ladder(y, 10):
            r = full_hypo_report(build_prop2(x, y), 12, kmax=3)
            rep = classify(x, y, 12, kmax=3)
            assert rep.k_hypo == {2: r.k_hypo[2], 3: r.k_hypo[3]}
            assert rep.numeric["joint"] == r.joint


def test_region_scan_rejects_tiny_grid():
    with pytest.raises(DomainError):
        region_scan(1)


# ---------------------------------------------------------------------------
# stacked classification


def _near_curve_point(draw):
    """A point up to 2 BOUNDARY_MARGIN off one of the four curves, or anywhere."""
    y = draw(st.floats(min_value=0.01, max_value=0.99))
    which = draw(st.sampled_from(["s", "h", "CA", "PA", None]))
    if which is None:
        return draw(st.floats(min_value=0.01, max_value=0.99)), y
    offset = draw(st.floats(min_value=-2 * BOUNDARY_MARGIN, max_value=2 * BOUNDARY_MARGIN))
    return getattr(thresholds(y), which) + offset, y


@st.composite
def _point_lists(draw):
    return [_near_curve_point(draw) for _ in range(draw(st.integers(1, 13)))]


def _bits(report):
    return {key: value.hex() for key, value in report.joint_min_eig.items()}


# stacks of one point, of 5 (three order-1 block sets of 484 floats each at
# N = 12), and of every point
@settings(max_examples=25, deadline=None)
@given(_point_lists(), st.sampled_from([1, 2]), st.sampled_from([1, 5 * 3 * 484, 2**16]))
def test_classify_many_equals_one_point_calls(points, kmax, budget):
    try:
        expected = [classify(x, y, kmax=kmax) for x, y in points]
    except (DomainError, InternalConsistencyError) as exc:  # the stack raises the same
        with mock.patch.object(positivity, "STACK_FLOATS", budget), \
                pytest.raises(type(exc), match=re.escape(str(exc))):
            classify_many(points, kmax=kmax)
        return
    with mock.patch.object(positivity, "STACK_FLOATS", budget):
        got = classify_many(points, kmax=kmax)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.x, a.y, a.curves, a.closed, a.numeric, a.k_hypo) == (
            b.x, b.y, b.curves, b.closed, b.numeric, b.k_hypo
        )
        assert _bits(a) == _bits(b)


def test_a_stack_reads_its_parent_windows_once(monkeypatch):
    parent_windows, calls = transforms._parent_windows, []

    def counting(A, B, window):
        calls.append(len(A))
        return parent_windows(A, B, window)

    monkeypatch.setattr(transforms, "_parent_windows", counting)
    # at N = 12 a point's 3 diagrams take 3 x 4 x 11^2 = 1452 order-1 block
    # floats: the budget of 49152 fits 33 points
    classify_many([(x, 0.5) for x in probe_ladder(0.5, 35)], kmax=2)
    assert calls == [33, 2]


def test_classify_many_checks_every_order_budget_before_any_window(monkeypatch):
    def transforms_first(*args, **kwargs):
        raise AssertionError("the transforms ran before the budget check")

    monkeypatch.setattr(regions, "aluthge_windows", transforms_first)
    # order 1 fits at N = 1449; order 2 at that level does not
    with pytest.raises(DomainError, match="order-2 blocks"):
        classify_many([(0.5, 0.5)], N=1449, kmax=3)
    with pytest.raises(DomainError, match="order-1 blocks"):
        classify_many([(0.5, 0.5)], N=1460)


def test_classify_many_splits_stacks_over_the_block_budget(monkeypatch):
    points = [(x, 0.4) for x in probe_ladder(0.4, 5)]
    want = classify_many(points, kmax=2)
    kernel, calls = positivity._lattice_block_eigs, []

    def counting(A, B, k, size):
        calls.append((k, len(A)))
        return kernel(A, B, k, size)

    monkeypatch.setattr(positivity, "_lattice_block_eigs", counting)
    # at N = 12 one diagram's order-2 blocks take 5^2 x 10^2 = 2500 floats,
    # its order-1 blocks 4 x 11^2 = 484: stacks of 10 // 3 = 3 points, and
    # order-2 kernel calls of 2 corner diagrams
    monkeypatch.setattr(positivity, "STACK_FLOATS", 2 * 2500)
    got = classify_many(points, kmax=2)
    assert calls == [(1, 9), (2, 2), (2, 1), (1, 6), (2, 2)]
    for a, b in zip(got, want, strict=True):
        assert (a.closed, a.numeric, a.k_hypo) == (b.closed, b.numeric, b.k_hypo)
        assert _bits(a) == _bits(b)


def test_stacked_calls_on_no_points_return_nothing():
    assert classify_many([]) == []
    assert toral_transforms([]) == spherical_transforms([]) == []
    assert joint_hyponormal_reports([], 12) == []


def test_classify_many_refuses_a_point_outside_the_square():
    with pytest.raises(DomainError, match=re.escape("got (1.0, 0.5)")):
        classify_many([(0.3, 0.5), (1.0, 0.5)])


def test_threshold_grid_counts_each_mismatch(monkeypatch):
    # Lowering CA by 0.15 y makes the closed form wrong for the ladder
    # points just below the true curve: none at y = 0.1, one up to y = 0.5
    # and two from y = 0.6.  The grid's call raises on its first mismatch,
    # and each row still reports how many points disagree.
    curve_ca = regions.curve_ca
    monkeypatch.setattr(regions, "curve_ca", lambda y: curve_ca(y) - 0.15 * y)
    ladder_rows = reproduce.threshold_grid().rows[:-1]
    counts = [0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert [r.value for r in ladder_rows] == counts
    assert [r.detail for r in ladder_rows] == [f"{20 - c}/20" for c in counts]
    assert [r.ok for r in ladder_rows] == [c == 0 for c in counts]


def test_scan_rows_longer_than_one_stack_match_one_point_calls(monkeypatch):
    # at N = 8 a point's order-1 blocks take 3 x 4 x 7^2 = 588 floats:
    # stacks of 5 points
    monkeypatch.setattr(positivity, "STACK_FLOATS", 5 * 588)
    ladder = 8
    lines = region_scan(2, N=8, ladder=ladder)[1:]
    points = [(x, y) for y in (1 / 3, 2 / 3) for x in probe_ladder(y, ladder)]
    assert len(lines) == len(points)
    for line, (x, y) in zip(lines, points):
        rep = classify(x, y, 8, kmax=3)
        bits = [rep.numeric[k] for k in ("joint", "toral", "spherical")]
        bits += [rep.k_hypo[2], rep.k_hypo[3]]
        assert line.split(",")[5:] == [f"{x:.12g}", *(str(int(b)) for b in bits)]
