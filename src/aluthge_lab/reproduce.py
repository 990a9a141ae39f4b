"""Experiment runners behind the `reproduce` command.

Each function runs one self-contained numerical experiment and returns a
CheckResult of labeled pass/fail rows with the measured numbers, which the
CLI prints as tables and the acceptance suite re-asserts.  Diagrams are
drawn from one seed through a sampling.PCG64Stream (numpy's default
generator rebuilt from the stdlib), a fixture's random tables drawn and
built as one stack by sampling's list forms, and each check passes its
whole fixture to the library's list forms, or reads it once, at the widest
square its stages read, and passes the windows to their window bodies; the
positivity stages size their stacks by limits.STACK_FLOATS.  A fixed seed
reproduces every row byte for byte: each stack gives its diagrams the
arithmetic they get alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagrams import (
    build_prop2,
    build_theta,
    commutativity_residuals,
    max_weight_gaps,
    stacked_windows,
)
from .errors import InternalConsistencyError
from .limits import (
    BERGER_TOL,
    CROSSING_Q_TOL,
    CROSSING_RUNTIME_S,
    DEFAULT_SEED,
    GRID_RUNTIME_S,
    PERTURBED_GAP,
    POWER_IDENTITY_TOL,
    RE4_SLACK,
    ROUNDOFF_GAP,
    SWEEP_DISTANCE_CAP,
)
from .measures import (
    berger_atomic_verify,
    qt_power_window_checks,
    quasinormal2_measure,
    quasinormal_completion,
    quasinormality_routes_many,
    stampfli,
)
from .positivity import (
    componentwise_window_flags,
    joint_window_reports,
    k_window_verdicts,
    one_var_k_hyponormal_many,
)
from .regions import classify, classify_many, crossing_q, probe_ladder
from .sampling import (
    PCG64Stream,
    bumped_thm1_tables,
    random_commuting_tables,
    random_completion,
    random_monotone_tables,
    random_nondecreasing_omega,
    random_thm1,
    sample_below_s,
)
from .transforms import (
    aluthge_windows,
    continuity_window_probes,
    distance_window,
    spherical_windows,
    transform_window_distances,
)


@dataclass(frozen=True)
class Row:
    label: str
    ok: bool
    value: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class CheckResult:
    name: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def table(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [self.name]
        for r in self.rows:
            mark = "pass" if r.ok else "FAIL"
            tail = f"  {r.detail}" if r.detail else ""
            lines.append(f"  [{mark}] {r.label.ljust(width)}{tail}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# corner family: curves and regions


def crossing_point(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    q = crossing_q()
    dt = time.perf_counter() - t0
    return CheckResult(
        "crossing point of the toral and subnormality curves",
        (
            Row("q within 1e-4 of 0.52138", abs(q - 0.52138) <= CROSSING_Q_TOL, q,
                f"q = {q:.10f}"),
            # wall time stays out of the detail text so output bytes are stable
            Row("runtime below 1 s", dt < CROSSING_RUNTIME_S, dt),
        ),
    )


def _mismatch(x: float, y: float) -> bool:
    try:
        classify(x, y, N=12)
    except InternalConsistencyError:
        return True
    return False


def threshold_grid(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-form vs numerical verdicts on a 9 x 20 ladder grid, N = 12."""
    t0 = time.perf_counter()
    ladders = [(i / 10, probe_ladder(i / 10, 20)) for i in range(1, 10)]
    try:
        classify_many([(x, y) for y, xs in ladders for x in xs], N=12)
        counts = [0] * len(ladders)
    except InternalConsistencyError:
        # a stack raises for its first mismatch: count them point by point
        counts = [sum(_mismatch(x, y) for x in xs) for y, xs in ladders]
    rows = [Row(f"y = {y:.1f}: ladder verdicts agree", mismatches == 0,
                float(mismatches), f"{20 - mismatches}/20")
            for (y, _), mismatches in zip(ladders, counts)]
    dt = time.perf_counter() - t0
    rows.append(Row("runtime below 30 s", dt < GRID_RUNTIME_S, dt))
    return CheckResult("threshold curves vs six-point verdicts on the grid", tuple(rows))


def counterexample_points(seed: int = DEFAULT_SEED) -> CheckResult:
    r1, r2 = classify_many([(0.72, 0.4), (0.84, 0.6)], N=12)
    return CheckResult(
        "regions where exactly one transform improves hyponormality",
        (
            Row("(0.72, 0.4): jointly hyponormal", r1.numeric["joint"]),
            Row("(0.72, 0.4): toral transform not hyponormal", not r1.numeric["toral"]),
            Row("(0.84, 0.6): not jointly hyponormal", not r2.numeric["joint"]),
            Row("(0.84, 0.6): spherical transform hyponormal", r2.numeric["spherical"]),
        ),
    )


def subnormal_khypo(seed: int = DEFAULT_SEED) -> CheckResult:
    """x <= s(y) implies k-hyponormality for k = 1, 2, 3 at N = 14."""
    rng = PCG64Stream(seed)
    # one read at [0, 13)^2, the widest square of the three orders at level 14
    A, B = stacked_windows([build_prop2(*sample_below_s(rng)) for _ in range(20)], 13)
    rows = []
    for k in (1, 2, 3):
        bad = sum(not v.is_psd for v in k_window_verdicts(A, B, k, 14))
        rows.append(Row(f"k = {k} holds on 20 samples below s", bad == 0, float(bad),
                        f"{20 - bad}/20"))
    return CheckResult("subnormal region is k-hyponormal through k = 3", tuple(rows))


# ---------------------------------------------------------------------------
# transform structure on random diagrams


def table_transform_checks(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = PCG64Stream(seed)
    window = 10
    n = window + 1

    tables = stacked_windows(random_commuting_tables(rng, 50), window + 3)
    (_, _, torals), spherical = aluthge_windows(*tables, window)
    worst_resid = max(0.0, *(resid for resid, _ in commutativity_residuals(*spherical)))
    toral_disagreements = sum(commutes != direct_commutes
                              for commutes, *_, direct_commutes in torals)
    toral_commuting = sum(commutes for commutes, *_ in torals)

    # one read of the monotone tables: their (window+2)^2 windows and their transforms'
    A, B = stacked_windows(random_monotone_tables(rng, 50), window + 3)
    before = componentwise_window_flags(A[:, : n + 1, : n + 1], B[:, : n + 1, : n + 1])
    after = componentwise_window_flags(*spherical_windows(A, B, window))
    preserved = sum(all(b) and all(a) for b, a in zip(before, after))

    return CheckResult(
        "transform behaviour on random commuting tables",
        (
            Row("spherical residual <= 1e-12 on 50 tables", worst_resid <= ROUNDOFF_GAP,
                worst_resid, f"worst {worst_resid:.2e}"),
            Row("toral condition route = direct route on 50 tables",
                toral_disagreements == 0, float(toral_disagreements),
                f"{toral_commuting} of 50 candidates commute"),
            Row("componentwise hyponormality preserved on 50 monotone tables",
                preserved == 50, float(preserved), f"{preserved}/50"),
        ),
    )


def lift_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    """1-variable k-hyponormality of omega == joint test of its lift."""
    rng = PCG64Stream(seed)
    omegas = [random_nondecreasing_omega(rng) for _ in range(20)]
    # order k at level 4k+4 reads [0, 3k+4)^2: one read at order 3's [0, 13)^2
    A, B = stacked_windows([build_theta(om) for om in omegas], 13)
    rows = []
    for k in (1, 2, 3):
        # a row's Hankel matrices are few and small: all 20 rows in one call
        ones = one_var_k_hyponormal_many(omegas, k)
        verdicts = k_window_verdicts(A, B, k, 4 * k + 4)
        mismatches = sum(one != v.is_psd for one, v in zip(ones, verdicts))
        rows.append(Row(f"k = {k}: both routes agree on 20 sequences", mismatches == 0,
                        float(mismatches), f"{sum(ones)}/20 are k-hyponormal"))
    return CheckResult("lifted diagrams inherit exactly the 1-variable k-hyponormality", tuple(rows))


def lift_transform_hypo(seed: int = DEFAULT_SEED) -> CheckResult:
    """On hyponormal lifts the transforms coincide and stay hyponormal."""
    rng = PCG64Stream(seed)
    window = 10
    Ws = [build_theta(random_nondecreasing_omega(rng)) for _ in range(20)]
    # each joint test reads the leading square of the windows it is given
    A, B = stacked_windows(Ws, window + 3)
    (TA, TB, _), (SA, SB) = aluthge_windows(A, B, window)
    base_hypo = sum(r.joint for r in joint_window_reports(A, B, 10))
    worst_gap = max(0.0, *max_weight_gaps((TA, TB), (SA, SB), window))
    both = (np.concatenate(pair) for pair in ((TA, SA), (TB, SB)))
    reports = joint_window_reports(*both, 8)  # both transforms, one test
    toral_hypo = sum(r.joint for r in reports[: len(Ws)])
    spherical_hypo = sum(r.joint for r in reports[len(Ws) :])
    return CheckResult(
        "transforms of hyponormal lifted diagrams",
        (
            Row("all 20 lifts jointly hyponormal", base_hypo == 20, float(base_hypo),
                f"{base_hypo}/20"),
            Row("toral and spherical weights coincide <= 1e-12", worst_gap <= ROUNDOFF_GAP,
                worst_gap, f"worst gap {worst_gap:.2e}"),
            Row("toral transforms jointly hyponormal", toral_hypo == 20,
                float(toral_hypo), f"{toral_hypo}/20"),
            Row("spherical transforms jointly hyponormal", spherical_hypo == 20,
                float(spherical_hypo), f"{spherical_hypo}/20"),
        ),
    )


def _transform_gaps(diagrams, window: int) -> list:
    """Weight gap between the toral and the spherical transform of each diagram."""
    (TA, TB, _), spherical = aluthge_windows(*stacked_windows(diagrams, window + 3), window)
    return max_weight_gaps((TA, TB), spherical, window)


def proportional_rows_agree(seed: int = DEFAULT_SEED) -> CheckResult:
    """Transforms coincide exactly on proportional-row diagrams, and only there."""
    rng = PCG64Stream(seed)
    window = 8
    worst_family = max(0.0, *_transform_gaps([random_thm1(rng) for _ in range(20)], window))
    perturbed = _transform_gaps(bumped_thm1_tables(rng, 20), window)
    min_perturbed = min(float("inf"), *perturbed)

    return CheckResult(
        "transform agreement characterizes proportional rows",
        (
            Row("20 proportional-row diagrams: gap <= 1e-12", worst_family <= ROUNDOFF_GAP,
                worst_family, f"worst {worst_family:.2e}"),
            Row("20 perturbed diagrams: gap > 1e-6", min_perturbed > PERTURBED_GAP,
                min_perturbed, f"smallest {min_perturbed:.2e}"),
        ),
    )


# ---------------------------------------------------------------------------
# quasinormality and Berger verification


@lru_cache(maxsize=4)
def _routes_fixture(seed: int):
    rng = PCG64Stream(seed)
    completions = tuple(random_completion(rng) for _ in range(25))
    generics = tuple(random_commuting_tables(rng, 25))
    return completions, generics


def quasinormal_route_agreement(seed: int = DEFAULT_SEED) -> CheckResult:
    completions, generics = _routes_fixture(seed)
    disagreements = 0
    quasinormal_count = 0
    for r in quasinormality_routes_many(completions + generics, window=10, N=8):
        flags = (r["constant_sum"], r["fixed_point"], r["interior_diagonal"])
        disagreements += int(len(set(flags)) != 1)
        quasinormal_count += int(all(flags))
    return CheckResult(
        "three quasinormality detections agree on 50 diagrams",
        (
            Row("no route disagreements", disagreements == 0, float(disagreements),
                f"{quasinormal_count} of 50 are quasinormal"),
            Row("every completion detected, no generic table detected",
                quasinormal_count == len(completions), float(quasinormal_count),
                f"{len(completions)} completions in the fixture"),
        ),
    )


def berger_verification(seed: int = DEFAULT_SEED) -> CheckResult:
    rows = []
    for triple in ((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (2.0, 3.0, 5.0)):
        data = stampfli(*triple)
        W = quasinormal_completion(data.weights, data.phi1)
        err = berger_atomic_verify(W, quasinormal2_measure(*triple), maxdeg=10)
        label = f"moments of ({triple[0]:g}, {triple[1]:g}, {triple[2]:g}) completion match"
        rows.append(Row(label, err <= BERGER_TOL, err, f"max rel err {err:.2e}"))

    data = stampfli(1.0, 2.0, 3.0)
    A, B = quasinormal_completion(data.weights, 4.0).weight_arrays(1, 2)
    b00, a01 = float(B[0, 0]), float(A[0, 1])
    rows.append(Row("beta(0,0) = sqrt(3) for (1,2,3) with C = 4",
                    abs(b00 - np.sqrt(3.0)) <= ROUNDOFF_GAP, b00, f"{b00:.12f}"))
    rows.append(Row("alpha(0,1) = sqrt(2/3) for (1,2,3) with C = 4",
                    abs(a01 - np.sqrt(2.0 / 3.0)) <= ROUNDOFF_GAP, a01, f"{a01:.12f}"))
    return CheckResult("two-atom Berger measures of canonical completions", tuple(rows))


def completion_khypo_qt(seed: int = DEFAULT_SEED) -> CheckResult:
    completions, _ = _routes_fixture(seed)
    # one read at [0, 13)^2: order 1 at level 14 and the identity to n = 5 on [0, 6]^2
    A, B = stacked_windows(completions, 13)
    rows = []
    for k in (1, 2, 3):
        bad = sum(not v.is_psd for v in k_window_verdicts(A, B, k, 14))
        rows.append(Row(f"k = {k} on all 25 completions", bad == 0, float(bad),
                        f"{25 - bad}/25"))
    worst_qt = max(qt_power_window_checks(A, B, nmax=5, N=6))
    rows.append(Row("power identity residual <= 1e-10 for n <= 5",
                    worst_qt <= POWER_IDENTITY_TOL, worst_qt, f"worst {worst_qt:.2e}"))
    return CheckResult("completions are k-hyponormal and satisfy the power identity", tuple(rows))


# ---------------------------------------------------------------------------
# continuity of the spherical transform


def continuity_bounds(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = PCG64Stream(seed)
    A, B = stacked_windows(random_commuting_tables(rng, 10), 11)  # level 10 reads [0, 10]^2
    rows = []
    for n in (1, 10, 100, 10_000):
        worst = min(min(e["slack"] for e in probe.bound_report.values())
                    for probe in continuity_window_probes(A, B, N=10, n=n))
        rows.append(Row(f"five bounds hold at n = {n}", worst >= -RE4_SLACK, worst,
                        f"min slack {worst:.2e}"))
    return CheckResult("regularization bounds on 10 random diagrams", tuple(rows))


def continuity_sweep(seed: int = DEFAULT_SEED) -> CheckResult:
    # W = build_prop2(0.5, 0.5) and its three perturbations, transformed as one stack
    diagrams = [build_prop2(0.5 + delta, 0.5) for delta in (0.0, 1e-2, 1e-3, 1e-4)]
    A, B = stacked_windows(diagrams, distance_window("spherical", 10) + 3)
    distances = transform_window_distances(A, B, "spherical", N=10)
    decreasing = distances[0] > distances[1] > distances[2]
    return CheckResult(
        "spherical transform distance shrinks with the perturbation",
        (
            Row("distances decrease over delta = 1e-2, 1e-3, 1e-4", decreasing,
                None, ", ".join(f"{d:.3e}" for d in distances)),
            Row("distance below 1e-2 at delta = 1e-4", distances[2] < SWEEP_DISTANCE_CAP,
                distances[2], f"{distances[2]:.3e}"),
        ),
    )


# ---------------------------------------------------------------------------
# targets

TARGETS = {
    "prop2": (crossing_point, threshold_grid, counterexample_points, subnormal_khypo),
    "prop1": (table_transform_checks,),
    "propscaling2": (lift_equivalence,),
    "prehypo": (lift_transform_hypo,),
    "thm1": (proportional_rows_agree,),
    "quasinormal2": (quasinormal_route_agreement, berger_verification, completion_khypo_qt),
    "re4": (continuity_bounds, continuity_sweep),
}


def run_target(name: str, seed: int = DEFAULT_SEED):
    """All checks for one reproduce target, as a list of CheckResults."""
    if name not in TARGETS:
        raise KeyError(name)
    return [check(seed) for check in TARGETS[name]]
