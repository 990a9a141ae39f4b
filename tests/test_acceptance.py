"""Acceptance gate: the twelve headline experiments, one test each.

Every test runs the same experiment code the `reproduce` CLI command uses
and then re-asserts the advertised tolerances against the measured values
carried in the result rows, so a pass here is a pass of the published
claims, not just of an `ok` bit.  `pytest -v` prints one verdict line per
experiment.
"""

import time
from pathlib import Path

from aluthge_lab import reproduce

_T0 = time.perf_counter()
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


def golden_block(target, index):
    """Table `index` of the seed-7 `reproduce <target>` stdout, byte for byte."""
    text = (GOLDEN / f"reproduce-{target}-seed7.txt").read_text(encoding="utf-8")
    return text.rstrip("\n").split("\n\n")[index]


def row(result, prefix):
    for r in result.rows:
        if r.label.startswith(prefix):
            return r
    raise AssertionError(f"no row starting with {prefix!r} in:\n{result.table()}")


def check_passed(result):
    assert result.passed, "\n" + result.table()


# --- corner family ---------------------------------------------------------


def test_01_crossing_point():
    res = reproduce.crossing_point()
    check_passed(res)
    q = row(res, "q within").value
    assert abs(q - 0.52138) <= 1e-4
    assert abs(q - 0.5213797067757697) <= 1e-8  # bisection pinned to 1e-10
    assert row(res, "runtime").value < 1.0
    assert res.table() == golden_block("prop2", 0)


def test_02_threshold_grid_agreement():
    res = reproduce.threshold_grid()
    check_passed(res)
    ladder_rows = [r for r in res.rows if "ladder" in r.label]
    assert len(ladder_rows) == 9
    assert all(r.value == 0 for r in ladder_rows)  # zero mismatches anywhere
    assert row(res, "runtime").value < 30.0
    assert res.table() == golden_block("prop2", 1)


def test_03_counterexample_points():
    res = reproduce.counterexample_points()
    check_passed(res)
    assert res.table() == golden_block("prop2", 2)


def test_04_subnormal_region_khypo():
    res = reproduce.subnormal_khypo()
    check_passed(res)
    for k in (1, 2, 3):
        assert row(res, f"k = {k}").value == 0
    assert res.table() == golden_block("prop2", 3)


# --- transform structure ---------------------------------------------------


def test_05_table_transform_checks():
    res = reproduce.table_transform_checks()
    check_passed(res)
    assert row(res, "spherical residual").value <= 1e-12
    assert row(res, "toral condition").value == 0
    assert row(res, "componentwise").value == 50
    assert res.table() == golden_block("prop1", 0)


def test_06_lift_equivalence():
    res = reproduce.lift_equivalence()
    check_passed(res)
    for k in (1, 2, 3):
        assert row(res, f"k = {k}").value == 0
    assert res.table() == golden_block("propscaling2", 0)


def test_07_lift_transform_hyponormality():
    res = reproduce.lift_transform_hypo()
    check_passed(res)
    assert row(res, "all 20 lifts").value == 20
    assert row(res, "toral and spherical weights coincide").value <= 1e-12
    assert row(res, "toral transforms").value == 20
    assert row(res, "spherical transforms").value == 20
    assert res.table() == golden_block("prehypo", 0)


def test_08_proportional_rows_agree():
    res = reproduce.proportional_rows_agree()
    check_passed(res)
    assert row(res, "20 proportional-row diagrams").value <= 1e-12
    assert row(res, "20 perturbed diagrams").value > 1e-6
    assert res.table() == golden_block("thm1", 0)


# --- quasinormality and Berger measures ------------------------------------


def test_09_quasinormality_routes():
    res = reproduce.quasinormal_route_agreement()
    check_passed(res)
    assert row(res, "no route disagreements").value == 0
    assert row(res, "every completion detected").value == 25
    assert res.table() == golden_block("quasinormal2", 0)


def test_10_berger_verification():
    res = reproduce.berger_verification()
    check_passed(res)
    for triple in ("(1, 2, 3)", "(1, 2, 4)", "(2, 3, 5)"):
        assert row(res, f"moments of {triple}").value <= 1e-10
    assert abs(row(res, "beta(0,0)").value - 3.0**0.5) <= 1e-12
    assert abs(row(res, "alpha(0,1)").value - (2.0 / 3.0) ** 0.5) <= 1e-12
    assert res.table() == golden_block("quasinormal2", 1)


def test_11_completion_khypo_and_power_identity():
    res = reproduce.completion_khypo_qt()
    check_passed(res)
    for k in (1, 2, 3):
        assert row(res, f"k = {k}").value == 0
    assert row(res, "power identity").value <= 1e-10
    assert res.table() == golden_block("quasinormal2", 2)


# --- continuity -------------------------------------------------------------


def test_12_continuity_bounds_and_sweep():
    bounds = reproduce.continuity_bounds()
    check_passed(bounds)
    for n in (1, 10, 100, 10_000):
        assert row(bounds, f"five bounds hold at n = {n}").value >= -1e-10
    assert bounds.table() == golden_block("re4", 0)

    sweep = reproduce.continuity_sweep()
    check_passed(sweep)
    assert row(sweep, "distance below 1e-2").value < 1e-2
    assert sweep.table() == golden_block("re4", 1)


def test_suite_runtime_budget():
    # the experiments above dominate the suite; they must fit comfortably
    # inside the two-minute budget
    assert time.perf_counter() - _T0 < 120.0
