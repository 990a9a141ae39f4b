"""Mutation runner for the named cuts in src/aluthge_lab/limits.py.

For each cut it copies src/ to a temporary directory, scales the cut's
value there by 4 and by 1/4, one mutant at a time, and runs the Tier-1
suite against the copy with test_help_text_matches_golden deselected (that
golden prints some cuts, so it would catch them without pinning them).  A
mutant survives when every test passes.  The table it prints has one row
per cut: the first failing test of each mutant, or "survives".

    python tests/mutants.py                      # every cut, both ways
    python tests/mutants.py CROSS_CHECK_TOL      # named cuts only

Run from the root of a checkout; it needs only the stdlib and the test
dependencies.  A full sweep runs the suite 48 times, stopping each run at
its first failure.  Its filename matches no test_*.py pattern, so Tier-1
does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMITS = Path("aluthge_lab") / "limits.py"
# a cut is a tolerance, slack, band, gap, floor, margin, allowance or cap
CUT_SUFFIXES = ("_TOL", "_SLACK", "_BAND", "_GAP", "_FLOOR", "_MARGIN", "_ROUNDOFF", "_CAP")
FACTORS = (("x4", "4"), ("x1/4", "0.25"))
HELP_GOLDEN = "tests/test_cli.py::test_help_text_matches_golden"


def named_cuts(source: str) -> dict:
    """{name: its assignment node} of each cut in source, in order."""
    cuts = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", "")
            if name.endswith(CUT_SUFFIXES):
                cuts[name] = node
    return cuts


def mutate(source: str, name: str, factor: str) -> str:
    """source with the assignment of name rewritten as name = (value) * factor."""
    node = named_cuts(source)[name]
    lines = source.splitlines(keepends=True)
    value = ast.get_source_segment(source, node.value)
    lines[node.lineno - 1 : node.end_lineno] = [f"{name} = ({value}) * {factor}\n"]
    return "".join(lines)


def run_suite(src: Path) -> str:
    """The first failing test of Tier-1 run against src, or '' when all pass."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as cwd:  # hypothesis' database goes here
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
             str(ROOT / "tests"), "--deselect", HELP_GOLDEN],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return ""
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0].split("::", 1)[-1] if failed else f"exit {proc.returncode}"


def main(argv: list) -> int:
    source = (ROOT / "src" / LIMITS).read_text(encoding="utf-8")
    cuts = list(named_cuts(source))
    unknown = [name for name in argv if name not in cuts]
    if unknown:
        print(f"not a named cut: {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows, survivors = [], []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for name in argv or cuts:
            results = []
            for label, factor in FACTORS:
                (src / LIMITS).write_text(mutate(source, name, factor), encoding="utf-8")
                caught = run_suite(src)
                results.append(caught or "survives")
                if not caught:
                    survivors.append(f"{name} {label}")
                print(f"{name} {label}: {caught or 'survives'}", file=sys.stderr, flush=True)
            rows.append(f"| `{name}` | {' | '.join(results)} |")
        (src / LIMITS).write_text(source, encoding="utf-8")
    print("| cut | x4 | x1/4 |\n| --- | --- | --- |")
    print("\n".join(rows))
    print(f"\n{len(survivors)} surviving mutants: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
