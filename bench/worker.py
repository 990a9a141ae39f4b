"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED SIZE TRACE, from the root of
a checkout.  run.py starts one worker per pass, so every pass starts
with the library's caches empty and reports its own peak RSS.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import aluthge_lab  # noqa: E402

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "aluthge_lab_threads": os.environ.get("ALUTHGE_LAB_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def main(argv) -> int:
    workload, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    source = Path(aluthge_lab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.stderr.write(f"aluthge_lab imported from {source}, not from {ROOT / 'src'}\n")
        return 2
    leftover = tracer.installed_wrappers()
    if leftover:
        sys.stderr.write(f"wrappers installed before the pass: {leftover}\n")
        return 2
    if trace:
        with tracer.Tracer() as t:
            out = workloads.run(workload, seed, size, check_golden=False)
        out["layers"] = t.layer_metrics()
    else:
        out = workloads.run(workload, seed, size, check_golden=True)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
