"""Benchmark of aluthge-lab: end-to-end and per-layer numbers.

    python3 bench/run.py --workload reproduce --seed 7 --seconds 32 --trace 0

Run from the root of a checkout.  Workloads (see bench/NOTES.md):

  reproduce      every `reproduce` target for the given seed
  corner-scan    region_scan on a fixed 4 x 10 grid at N = 12 (no seed)
  corner-ladder  classify(kmax=1) at N = 12 on seeded (y, x-ladder) points

Each pass runs in a fresh worker process (bench/worker.py) with
ALUTHGE_LAB_THREADS cleared, so the library's serial default is what is
measured, and with BLAS pinned to one thread for steadiness.  Passes
repeat until the next one would overrun --seconds, but at least three.  With --trace 0 the
result holds the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and holds the per-layer metrics, including
the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a run that cannot measure
exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_THREADS = "1"
# Cold starts timed for setup_s; the median is reported.
SETUP_REPEATS = 11
# Untraced passes a --trace 0 run makes even past --seconds, so that
# wall_s is a true median even for 13-s reproduce passes.
MIN_PASSES = 3
# Every run ends within this many seconds, worker time included.
RUN_LIMIT_S = 170.0
COUNT_SUFFIXES = (".calls", ".points", ".dim3_sum", ".errors", ".hit_ratio")


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ALUTHGE_LAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _setup_s(env: dict) -> float:
    """Median cold start: fresh interpreter, import, CLI parser built, --help."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "aluthge_lab.cli", "--help"],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"aluthge-lab --help exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(times)


def _pass(args, traced: bool, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           args.size, "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def _row_mismatches(rows, reference) -> int:
    if len(rows) != len(reference):
        return max(len(rows), len(reference))
    return sum(a != b for a, b in zip(rows, reference))


def _layer_metrics(traced: list, untraced: list, notes: list) -> dict:
    first = traced[0]["layers"]
    for later in traced[1:]:
        changed = [k for k in first if k.endswith(COUNT_SUFFIXES)
                   and later["layers"].get(k) != first[k]]
        if changed:
            notes.append(f"per-layer counts differ between traced passes: {changed}")
    out = {}
    for name, value in first.items():
        if name.endswith(COUNT_SUFFIXES):
            out[name] = value
        else:
            out[name] = statistics.median(p["layers"][name] for p in traced)
    plain = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / plain
    return out


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per pass, for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "aluthge_lab" / "__init__.py").is_file():
        return _fail(f"no src/aluthge_lab in {ROOT}; run from the root of a checkout")

    # SIGTERM unwinds like an exception, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    env = _env()
    notes = []
    metrics = {}
    try:
        if not args.trace:
            metrics["setup_s"] = _setup_s(env)
        modes = (False, True) if args.trace else (False,)
        min_passes = 2 if args.trace else MIN_PASSES
        passes = []
        deadline = time.perf_counter() + args.seconds
        last = {}
        while True:
            traced = modes[len(passes) % len(modes)]
            t0 = time.perf_counter()
            passes.append(_pass(args, traced, env, RUN_LIMIT_S - (t0 - started)))
            last[traced] = time.perf_counter() - t0
            upcoming = modes[len(passes) % len(modes)]
            if len(passes) >= min_passes and (
                    time.perf_counter() + last.get(upcoming, last[traced]) > deadline):
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    attempted = failed = 0
    for r in passes:
        bad = len(r["failures"])
        if not r["traced"]:
            bad += _row_mismatches(r["rows"], untraced[0]["rows"])
        attempted += r["attempted"]
        failed += min(bad, r["attempted"])
        notes += r["failures"]
    if any(_row_mismatches(r["rows"], untraced[0]["rows"]) for r in untraced):
        notes.append("rows differ between untraced passes of the same seed")

    if args.trace:
        measured = _layer_metrics(traced, untraced, notes)
        wanted = spec["per_layer"]
    else:
        measured = {
            **metrics,
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        # A layer function the library no longer has reads as never called.
        notes.append(f"not measured, reported as 0: {missing}")

    print("env " + json.dumps(untraced[0]["env"], sort_keys=True))
    walls = sorted(r["wall_s"] for r in untraced)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(untraced)} untraced, {len(traced)} traced passes; untraced pass "
          f"min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    if args.trace:
        layers = sorted(((k, v) for k, v in measured.items() if k.endswith("self_s")),
                        key=lambda kv: -kv[1])
        total = sum(v for _, v in layers) or 1.0
        for name, value in layers:
            if value:
                print(f"  {name:<44} {value:10.4f} s  {100 * value / total:5.1f}%")
        print(f"  tracing overhead {measured['trace.overhead_s']:.3f} s "
              f"({100 * measured['trace.overhead_ratio']:.1f}% of the untraced pass)")
    else:
        for m in wanted:
            print(f"  {m['name']:<12} {measured[m['name']]:.6g} {m['unit']}")
    print(f"  failed_share {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    for line in notes[:20]:
        sys.stderr.write(f"bench: {line}\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
