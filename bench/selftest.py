"""Tests of the benchmark itself: tracer hygiene and a tiny smoke run.

    python3 -m pytest -q bench/selftest.py

from the root of a checkout.  The file name keeps these tests out of the
library's own suite, which collects only test_*.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import aluthge_lab as lab  # noqa: E402
from aluthge_lab import positivity, regions  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_traced_counts_match_a_hand_count():
    # classify at kmax=1 runs the joint test on the diagram and on both of
    # its transforms, and no order-k block.
    with tracer.Tracer() as t:
        lab.classify(0.5, 0.5, N=12, kmax=1)
    m = t.layer_metrics()
    assert m["regions.classify.calls"] == 1
    assert m["positivity.joint_hyponormal.calls"] == 3
    assert m["positivity.k_hyponormal_verdict.calls"] == 0
    # one order-1 block per joint test, of dimension 2 (N - 2)^2
    assert m["linalg.min_eig.calls"] == 3
    assert m["linalg.min_eig.dim3_sum"] == 3 * (2 * 10 * 10) ** 3
    assert 0.0 < m["diagrams.weight_arrays.hit_ratio"] < 1.0


def test_tracer_restores_every_original():
    originals = {
        "positivity": vars(positivity).copy(),
        "regions": vars(regions).copy(),
        "package": vars(lab).copy(),
    }
    weight_arrays = vars(lab.WeightDiagram)["weight_arrays"]
    checks = {k: v for k, v in lab.reproduce.TARGETS.items()}
    with tracer.Tracer():
        assert regions.joint_hyponormal is not originals["regions"]["joint_hyponormal"]
        assert lab.classify is not originals["package"]["classify"]
        assert tracer.installed_wrappers()
    assert tracer.installed_wrappers() == []
    assert vars(lab.WeightDiagram)["weight_arrays"] is weight_arrays
    assert lab.reproduce.TARGETS == checks
    for name, before in originals.items():
        after = {"positivity": vars(positivity), "regions": vars(regions),
                 "package": vars(lab)}[name]
        assert all(after[k] is v for k, v in before.items() if callable(v))


def test_untraced_pass_calls_unwrapped_functions():
    calls = []
    real = positivity.joint_hyponormal

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    t = tracer.Tracer()
    t.install()
    t.remove()
    # after removal the modules hold the originals again: a spy placed on
    # the original name sees the calls and the tracer's counters do not
    regions.joint_hyponormal = spy
    try:
        out = workloads.run("corner-ladder", 3, "tiny")
    finally:
        regions.joint_hyponormal = real
    assert out["failures"] == []
    assert len(calls) == 3 * out["attempted"]
    assert t.stats["positivity.joint_hyponormal"].calls == 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert "failed_share 0 " in proc.stdout
    assert "not measured" not in proc.stderr
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "corner-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
