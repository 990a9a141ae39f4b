"""The package namespace: names load on first use and are never cached."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aluthge_lab

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [(name, module) for module, names in aluthge_lab._EXPORTS.items() for name in names]


def test_the_public_surface_has_59_names():
    assert len(aluthge_lab.__all__) == len(EXPORTS) == 59
    assert sorted(aluthge_lab.__all__) == sorted(name for name, _ in EXPORTS)


def _names_used_by_the_library() -> set:
    """Every name read, attribute taken or name imported by a module under
    src/aluthge_lab/ other than __init__.py; a def or class alone is no use."""
    used = set()
    for path in (ROOT / "src" / "aluthge_lab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _readme_library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library in one minute", 1)[1].split("\n## ", 1)[0]


def test_every_export_is_used_by_the_library_or_named_in_the_readme():
    used = _names_used_by_the_library()
    section = _readme_library_section()
    unused = [name for name, _ in EXPORTS
              if name not in used and not re.search(rf"\b{name}\b", section)]
    assert unused == []


@pytest.mark.parametrize("name, module", EXPORTS, ids=[name for name, _ in EXPORTS])
def test_each_name_reads_its_defining_module(monkeypatch, name, module):
    source = importlib.import_module(f"aluthge_lab.{module}")
    value = getattr(source, name)
    assert getattr(aluthge_lab, name) is value
    # the table names the module that defines the object, not one that re-imports it
    assert getattr(value, "__module__", source.__name__) == source.__name__
    stand_in = object()
    monkeypatch.setattr(source, name, stand_in)
    assert getattr(aluthge_lab, name) is stand_in
    assert name not in vars(aluthge_lab)


def test_dir_lists_every_name():
    assert set(aluthge_lab.__all__) <= set(dir(aluthge_lab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'aluthge_lab' has no attribute 'nope'$"):
        aluthge_lab.nope


def test_star_import_binds_every_name():
    namespace = {}
    exec("from aluthge_lab import *", namespace)
    assert set(aluthge_lab.__all__) <= set(namespace)
    assert namespace["classify"] is aluthge_lab.regions.classify


def test_submodules_resolve_after_a_bare_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import aluthge_lab; print(aluthge_lab.diagrams.__name__, aluthge_lab.reproduce.__name__)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["aluthge_lab.diagrams", "aluthge_lab.reproduce"]


# ---------------------------------------------------------------------------
# bench/tracer.py wraps library functions wherever an aluthge_lab namespace
# holds them; a traced pass must reach the wrappers and leave none behind

TRACED_PASS = """
import json, sys
sys.path[:0] = [{bench!r}]
import tracer, workloads
with tracer.Tracer() as t:
    run = workloads.run({workload!r}, 7, "tiny", check_golden=False)
print(json.dumps({{"failures": run["failures"], "layers": t.layer_metrics(),
                  "left": tracer.installed_wrappers()}}))
"""


@pytest.mark.parametrize("workload", ["reproduce", "corner-scan", "corner-ladder"])
def test_traced_tiny_pass(workload):
    code = TRACED_PASS.format(bench=str(ROOT / "bench"), workload=workload)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failures"] == []
    assert out["left"] == []
    if workload == "corner-ladder":
        assert out["layers"]["regions.classify.calls"] == 6
    if workload == "corner-scan":
        assert out["layers"]["regions.region_scan.calls"] == 1
