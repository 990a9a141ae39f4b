"""The three benchmark workloads, run against the public aluthge_lab API.

`run(workload, seed, size)` makes one pass.  It builds the workload's
inputs from the seed and runs them piece by piece: the targets of
`reproduce`, the y rows of `corner-ladder`, the one `region_scan` call of
`corner-scan`.  The pass returns its wall time, one output row per
operation and the operations that failed.  Untraced passes also compare
their bytes against the committed golden output; run.py compares the
rows of later passes against the first one.

Library names are looked up on the package at call time, never imported
by name here, so that a traced pass reaches the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from functools import partial
from pathlib import Path
from time import perf_counter

import aluthge_lab as lab
from aluthge_lab import cli, reproduce

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 7

# Level and grid of the corner workloads.  "tiny" only serves the smoke test.
LEVEL = 12
SCAN = {"full": (4, 10), "tiny": (2, 2)}  # (grid, ladder)
LADDER = {"full": (9, 20), "tiny": (2, 3)}  # (y values, x values per y)
# The reproduce targets of a tiny pass: the two cheapest.
TINY_TARGETS = ("prehypo", "thm1")
# classify skips its closed-form comparison this close to a curve; the
# ladder keeps its points at least twice as far away.
BOUNDARY_MARGIN = 1e-6

def reproduce_targets(size: str) -> list:
    return list(TINY_TARGETS) if size == "tiny" else sorted(reproduce.TARGETS)


def golden_reproduce(target: str) -> Path:
    return GOLDEN / f"reproduce-{target}-seed{DEFAULT_SEED}.txt"


def golden_scan(size: str) -> Path:
    grid, ladder = SCAN[size]
    return GOLDEN / f"corner-scan-grid{grid}-ladder{ladder}-N{LEVEL}.csv"


def _compare(lines, golden_lines, rows_at):
    """Indices in rows_at whose line differs from the golden line.

    When the line structure itself differs, every row counts as changed.
    """
    if len(lines) != len(golden_lines) or any(
        lines[i] != golden_lines[i] for i in range(len(lines)) if i not in rows_at
    ):
        return set(rows_at)
    return {i for i in rows_at if lines[i] != golden_lines[i]}


# ---------------------------------------------------------------------------
# reproduce: every target through the CLI entry point, in this process.
#
# An operation is one check row.  It fails when it reads [FAIL], when its
# target raises or exits non-zero, or (seed 7, untraced) when it differs
# from the golden stdout.


def _reproduce_target(target: str, seed: int, check_golden: bool) -> dict:
    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(["reproduce", target, "--seed", str(seed)])
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code, err = 3, io.StringIO(f"{type(exc).__name__}: {exc}")
    if code != 0:
        return {"rows": [], "attempted": 1,
                "failures": [f"{target}: exit {code}: {err.getvalue().strip()}"]}
    lines = buf.getvalue().split("\n")
    rows_at = [i for i, line in enumerate(lines) if line.startswith("  [")]
    bad = {i for i in rows_at if lines[i].startswith("  [FAIL]")}
    if check_golden and seed == DEFAULT_SEED:
        golden = golden_reproduce(target).read_text(encoding="utf-8").split("\n")
        bad |= _compare(lines, golden, rows_at)
    return {"rows": [f"{target}: {lines[i]}" for i in rows_at], "attempted": len(rows_at),
            "failures": [f"{target}: {lines[i].strip()}" for i in sorted(bad)]}


def _reproduce(seed: int, size: str, check_golden: bool) -> list:
    return [partial(_reproduce_target, t, seed, check_golden) for t in reproduce_targets(size)]


# ---------------------------------------------------------------------------
# corner-scan: region_scan, whose lines are what `regions scan` prints.
# An operation is one scan point; the scan takes no seed.


def _scan(size: str, check_golden: bool) -> dict:
    grid, ladder = SCAN[size]
    try:
        lines = lab.region_scan(grid, N=LEVEL, ladder=ladder)
    except Exception as exc:
        return {"rows": [], "attempted": grid * ladder,
                "failures": [f"{type(exc).__name__}: {exc}"] * (grid * ladder)}
    rows_at = list(range(1, len(lines)))
    bad = set()
    if check_golden:
        golden = golden_scan(size).read_text(encoding="utf-8").split("\n")
        bad = _compare([*lines, ""], golden, rows_at)
    return {"rows": lines[1:], "attempted": len(rows_at),
            "failures": [f"scan row {i}: {lines[i]}" for i in sorted(bad)]}


def _corner_scan(seed: int, size: str, check_golden: bool) -> list:
    return [partial(_scan, size, check_golden)]


# ---------------------------------------------------------------------------
# corner-ladder: classify(kmax=1) over seeded (y, x-ladder) points.
# An operation is one point; it fails when classify raises or when a
# numerical verdict contradicts the closed-form curve computed here.


def _curves(y: float):
    """h, CA and PA of the corner family, from their closed forms."""
    r = 1.0 + y * y
    return (math.sqrt(r / 2.0), (1.0 + y) / 2.0,
            (math.sqrt(r) + math.sqrt(2.0) * y * y) / (math.sqrt(2.0) * r))


def ladder_points(seed: int, size: str) -> list:
    """Seeded y values, each with an evenly spread x ladder: [(y, [x, ...])]."""
    count_y, count_x = LADDER[size]
    rng = random.Random(seed)
    rows = []
    for y in sorted(rng.uniform(0.05, 0.95) for _ in range(count_y)):
        s = math.sqrt(1.0 / (2.0 - y * y))
        xs = []
        for j in range(1, count_x + 1):
            x = j / (count_x + 1)
            while any(abs(x - c) < 2 * BOUNDARY_MARGIN for c in (s, *_curves(y))):
                x += 4 * BOUNDARY_MARGIN
            xs.append(x)
        rows.append((y, xs))
    return rows


def _ladder_row(y: float, xs: list) -> dict:
    rows, failures = [], []
    for x in xs:
        try:
            rep = lab.classify(x, y, N=LEVEL, kmax=1)
        except Exception as exc:
            failures.append(f"({y!r}, {x!r}): {type(exc).__name__}: {exc}")
            continue
        got = tuple(bool(rep.numeric[key]) for key in ("joint", "toral", "spherical"))
        want = tuple(x <= c for c in _curves(y))
        if got != want:
            failures.append(f"({y!r}, {x!r}): numeric {got}, closed form {want}")
        rows.append(f"{y!r},{x!r}," + ",".join(str(int(b)) for b in got))
    return {"rows": rows, "failures": failures, "attempted": len(xs)}


def _corner_ladder(seed: int, size: str, check_golden: bool) -> list:
    return [partial(_ladder_row, y, xs) for y, xs in ladder_points(seed, size)]


WORKLOADS = {
    "reproduce": _reproduce,
    "corner-scan": _corner_scan,
    "corner-ladder": _corner_ladder,
}


def run(workload: str, seed: int, size: str = "full", check_golden: bool = True) -> dict:
    """One pass: its wall time, one row per operation, and the failed ones."""
    out = {"rows": [], "failures": [], "attempted": 0}
    t0 = perf_counter()
    for piece in WORKLOADS[workload](seed, size, check_golden):
        part = piece()
        for key in ("rows", "failures", "attempted"):
            out[key] += part[key]
    out["wall_s"] = perf_counter() - t0
    return out
