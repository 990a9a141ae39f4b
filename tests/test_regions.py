"""Threshold curves, the crossing point, classification, and scans."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge_lab import (
    DomainError,
    classify,
    crossing_q,
    region_scan,
    thresholds,
)
from aluthge_lab.regions import SCAN_HEADER, curve_pa, probe_ladder


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


def test_region_scan_shape_and_determinism(tmp_path):
    lines = region_scan(3, N=8, ladder=4)
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 1 + 3 * 4
    row = lines[1].split(",")
    assert len(row) == len(SCAN_HEADER.split(","))
    assert {c for c in ",".join(l.rsplit(",", 5)[0] for l in lines[1:])} <= set("0123456789.,e-+")
    # identical call, identical bytes
    assert region_scan(3, N=8, ladder=4) == lines
    # file output round-trips
    out = tmp_path / "scan.csv"
    region_scan(3, N=8, out=str(out), ladder=4)
    assert out.read_text().splitlines() == lines


def test_region_scan_rejects_tiny_grid():
    with pytest.raises(DomainError):
        region_scan(1)
