"""Threshold curves and region classification for the corner family.

For the corner-perturbed diagram with parameters (x, y), four curves in
the unit square separate the qualitative regimes:

    s(y)  = sqrt(1 / (2 - y^2))    subnormality boundary
    h(y)  = sqrt((1 + y^2) / 2)    joint hyponormality boundary
    CA(y) = (1 + y) / 2            hyponormality boundary of the toral transform
    PA(y)                          hyponormality boundary of the spherical transform

PA comes from composing two exact facts.  The spherical transform maps
the corner family to itself with parameters

    x^ = sqrt(x) ((1 + y^2) / 2)^{1/4},    y^ = y (2 / (1 + y^2))^{1/4},

and a corner diagram is jointly hyponormal iff x <= h(y).  Solving
x^ <= h(y^) for x gives

    PA(y) = (sqrt(1 + y^2) + sqrt(2) y^2) / (sqrt(2) (1 + y^2)).

The classifier never uses these parameter identities: its numerical
verdicts run the actual transforms through the six-point machinery, and
any off-boundary disagreement with the closed forms raises
InternalConsistencyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import build_prop2, require_integer
from .errors import DomainError, InternalConsistencyError
from .limits import (
    BISECTION_TOL,
    BOUNDARY_MARGIN,
    CURVE_ORDER_SLACK,
    DEFAULT_KMAX,
    DEFAULT_LADDER,
    DEFAULT_SCAN_LEVEL,
)
from .positivity import hypo_orders, joint_stack_size, joint_window_reports, order_levels
from .transforms import aluthge_windows


def curve_s(y: float) -> float:
    return math.sqrt(1.0 / (2.0 - y * y))


def curve_h(y: float) -> float:
    return math.sqrt((1.0 + y * y) / 2.0)


def curve_ca(y: float) -> float:
    return (1.0 + y) / 2.0


def curve_pa(y: float) -> float:
    r = 1.0 + y * y
    return (math.sqrt(r) + math.sqrt(2.0) * y * y) / (math.sqrt(2.0) * r)


@dataclass(frozen=True)
class ThresholdCurves:
    s: float
    h: float
    CA: float
    PA: float

    def __iter__(self):
        return iter((self.s, self.h, self.CA, self.PA))


def thresholds(y: float) -> ThresholdCurves:
    """The four curve values at y, with the ordering invariants enforced.

    s <= h <= PA and CA <= h hold on all of (0,1); a violation would mean
    a broken formula, not an interesting input.
    """
    if not (0.0 < y < 1.0):
        raise DomainError(f"require 0 < y < 1, got {y}")
    t = ThresholdCurves(s=curve_s(y), h=curve_h(y), CA=curve_ca(y), PA=curve_pa(y))
    if not (t.s <= t.h + CURVE_ORDER_SLACK and t.h <= t.PA + CURVE_ORDER_SLACK
            and t.CA <= t.h + CURVE_ORDER_SLACK):
        raise InternalConsistencyError(f"curve ordering failed at y={y}: {t}")
    return t


def crossing_q() -> float:
    """The unique y in (0,1) where CA and s cross, by bisection.

    CA < s below the crossing and CA > s above it; the root solves
    (1 + y)^2 (2 - y^2) = 4.  Bracketed on (0.1, 0.9), resolved to 1e-10.
    """
    lo, hi = 0.1, 0.9

    def f(y):
        return curve_ca(y) - curve_s(y)

    flo = f(lo)
    if flo >= 0.0 or f(hi) <= 0.0:
        raise InternalConsistencyError("crossing bracket lost its sign change")
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RegionReport:
    """Closed-form and numerical verdicts for one (x, y) sample."""

    x: float
    y: float
    curves: ThresholdCurves
    closed: dict  # keys: subnormal_by_s, hyponormal_by_h, toral_by_CA, spherical_by_PA
    numeric: dict  # keys: joint, toral, spherical
    joint_min_eig: dict  # keys as numeric: the six-point minimum behind each verdict
    k_hypo: dict  # order -> verdict, empty when not requested


def classify(x: float, y: float, N: int = DEFAULT_SCAN_LEVEL,
             kmax: int = DEFAULT_KMAX) -> RegionReport:
    """Verdicts for the corner diagram at (x, y) on truncation level N.

    The one-point case of classify_many.
    """
    return classify_many([(x, y)], N, kmax)[0]


def classify_many(points, N: int = DEFAULT_SCAN_LEVEL, kmax: int = DEFAULT_KMAX) -> list:
    """Verdicts for the corner diagram at each (x, y) of points, in order.

    Closed-form flags compare x against the four curves; numerical flags
    run the six-point test on the diagram and on both of its transforms.
    Off the curves by at least BOUNDARY_MARGIN, closed-form and numerical
    flags must agree, and a mismatch raises InternalConsistencyError.

    Every order's block budget is checked before any stack runs.  Points
    go through in consecutive stacks of as many as fit three diagrams'
    order-1 blocks in limits.STACK_FLOATS (33 at N = 12).  Per stack,
    one read of the parent windows serves both transforms and their
    checks (transforms.aluthge_windows, which builds no derived diagram);
    one joint_window_reports call covers the windows of each point's
    diagram and its two transforms; and one hypo_orders call (the order-k
    route of full_hypo_report) runs each order 2..kmax over the corner
    diagrams, in kernel calls sized by the same budget.  Every slice of a stack
    gets exactly the arithmetic it would get alone, so the reports equal
    those of one-point calls bit for bit.  Of several failing points, the
    first failing point of the first failing stage raises, within a
    stack whose size the budget sets, so a request with several failures
    may name a different point under another budget.
    """
    points = [(x, y) for x, y in points]
    for x, y in points:
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise DomainError(f"require (x, y) in the open unit square, got ({x}, {y})")
    order_levels(N, kmax)
    per = max(1, joint_stack_size(N) // 3)
    out = []
    for i in range(0, len(points), per):
        out += _classify_stack(points[i : i + per], N, kmax)
    return out


def _classify_stack(points: list, N: int, kmax: int) -> list:
    curves = [thresholds(y) for _, y in points]
    diagrams = [build_prop2(x, y) for x, y in points]
    n = N + 2
    (A, B), (TA, TB, _), (SA, SB) = aluthge_windows(diagrams, n)
    # each diagram, then its toral and its spherical transform, point after point
    trios = [np.concatenate((P[:, None, :n, :n], T[:, None, :n, :n], S[:, None, :n, :n]), 1)
             .reshape(-1, n, n) for P, T, S in ((A, TA, SA), (B, TB, SB))]
    # freed before the joint test, which then reuses their memory: measured faster
    del A, B, TA, TB, SA, SB
    reports = joint_window_reports(*trios, N)
    corners = hypo_orders(diagrams, reports[0::3], N, kmax)

    out = []
    for i, ((x, y), t, corner) in enumerate(zip(points, curves, corners)):
        closed = {
            "subnormal_by_s": x <= t.s,
            "hyponormal_by_h": x <= t.h,
            "toral_by_CA": x <= t.CA,
            "spherical_by_PA": x <= t.PA,
        }
        by_key = dict(zip(("joint", "toral", "spherical"), reports[3 * i : 3 * i + 3]))
        numeric = {key: rep.joint for key, rep in by_key.items()}
        for curve, closed_key, numeric_key in (
            (t.h, "hyponormal_by_h", "joint"),
            (t.CA, "toral_by_CA", "toral"),
            (t.PA, "spherical_by_PA", "spherical"),
        ):
            if abs(x - curve) >= BOUNDARY_MARGIN and closed[closed_key] != numeric[numeric_key]:
                raise InternalConsistencyError(
                    f"closed-form and numerical verdicts disagree at (x, y) = "
                    f"({x}, {y}): {closed_key}={closed[closed_key]}, "
                    f"{numeric_key}={numeric[numeric_key]}"
                )
        out.append(RegionReport(
            x=x, y=y, curves=t, closed=closed, numeric=numeric,
            joint_min_eig={key: rep.joint_min_eig for key, rep in by_key.items()},
            k_hypo={k: v for k, v in corner.k_hypo.items() if k >= 2},
        ))
    return out


def probe_ladder(y: float, count: int) -> list:
    """count x-values spread over (0,1), each >= BOUNDARY_MARGIN off every curve."""
    curves = list(thresholds(y))
    xs = []
    for j in range(1, count + 1):
        x = j / (count + 1)
        while any(abs(x - c) < BOUNDARY_MARGIN for c in curves):
            x += 2.0 * BOUNDARY_MARGIN
        xs.append(x)
    return xs


SCAN_HEADER = "y,s,h,CA,PA,x,joint_hypo,toral_hypo,spherical_hypo,khypo2,khypo3"


def region_scan(grid: int, N: int = DEFAULT_SCAN_LEVEL, ladder: int = DEFAULT_LADDER):
    """CSV scan over y_i = i/(grid+1) with a per-row ladder of x values.

    Each (y, x) sample runs the full classifier including orders 2 and 3,
    one ladder row per classify_many call.  Time grows with grid x ladder,
    and memory stays bounded by one stack, which limits.STACK_FLOATS
    sizes, for any ladder; floats carry 12 significant digits and verdicts
    are 1/0.  Rows come out in (y, x) order.  Returns the CSV lines.
    """
    require_integer("grid", grid, 2)
    require_integer("ladder", ladder, 1)
    lines = [SCAN_HEADER]
    for y in (i / (grid + 1) for i in range(1, grid + 1)):
        xs = probe_ladder(y, ladder)
        for x, rep in zip(xs, classify_many([(x, y) for x in xs], N, kmax=3)):
            vals = [y, *rep.curves, x]
            bits = [
                rep.numeric["joint"],
                rep.numeric["toral"],
                rep.numeric["spherical"],
                rep.k_hypo[2],
                rep.k_hypo[3],
            ]
            lines.append(
                ",".join(f"{v:.12g}" for v in vals) + "," + ",".join(str(int(b)) for b in bits)
            )
    return lines
