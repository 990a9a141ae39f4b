"""The package namespace: names load on first use and are never cached."""

import ast
import importlib
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aluthge_lab
from aluthge_lab import measures

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [(name, module) for module, names in aluthge_lab._EXPORTS.items() for name in names]


def test_the_public_surface_has_59_names():
    assert len(aluthge_lab.__all__) == len(EXPORTS) == 59
    assert sorted(aluthge_lab.__all__) == sorted(name for name, _ in EXPORTS)


def _names_used_by_the_library(outside=("__init__.py",)) -> set:
    """Every name read, attribute taken or name imported by a module under
    src/aluthge_lab/ other than those named in outside; a def or class alone
    is no use."""
    used = set()
    for path in (ROOT / "src" / "aluthge_lab").glob("*.py"):
        if path.name in outside:
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


# ---------------------------------------------------------------------------
# limits.py: one home for every cut, budget and default

SOURCES = sorted((ROOT / "src" / "aluthge_lab").glob("*.py"))
LIMITS = ROOT / "src" / "aluthge_lab" / "limits.py"


def _numeric(node) -> bool:
    """Whether node is a number, a name or arithmetic on those with at least one number."""
    def leaves(n):
        if isinstance(n, ast.BinOp):
            return leaves(n.left) + leaves(n.right)
        if isinstance(n, ast.UnaryOp):
            return leaves(n.operand)
        return [n]
    parts = leaves(node)
    numbers = [n for n in parts if isinstance(n, ast.Constant)
               and isinstance(n.value, (int, float)) and not isinstance(n.value, bool)]
    return bool(numbers) and all(n in numbers or isinstance(n, ast.Name) for n in parts)


def test_each_value_has_one_definition_in_limits():
    # private constants of an algorithm (_SPLIT, the PCG and mask words,
    # _LOG_FLOAT_MAX) stay beside it
    strays = []
    for path in SOURCES:
        if path.name == "limits.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if any(n.isupper() and not n.startswith("_") for n in names) and _numeric(node.value):
                    strays.append(f"{path.name}:{node.lineno} {names[0]}")
    assert strays == []


def test_limits_holds_values_only():
    from aluthge_lab import limits

    tree = ast.parse(Path(limits.__file__).read_text(encoding="utf-8"))
    imports = [alias.name for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names]
    assert imports == ["math", "sys"]
    assert all(isinstance(node, (ast.Import, ast.Assign))
               or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               for node in tree.body)
    assigned = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    assert len(assigned) == len(set(assigned))


def _operands(node):
    """node and what it is computed from, not descending into calls."""
    yield node
    if not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _operands(child)


def test_no_comparison_holds_an_unnamed_cut():
    """A literal of magnitude at most 1e-2 or at least 100 compared, or scaling
    what is compared, is a cut.  Arguments of calls (bit patterns) are not."""
    cuts = []
    for path in SOURCES:
        for compare in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(compare, ast.Compare):
                cuts += [f"{path.name}:{node.lineno} {node.value!r}" for node in _operands(compare)
                         if isinstance(node, ast.Constant) and type(node.value) in (int, float)
                         and node.value and not 1e-2 < abs(node.value) < 100]
    assert cuts == []


# ---------------------------------------------------------------------------
# integer arguments of the exports: refused as the CLI refuses them


def _prop2():
    return aluthge_lab.build_prop2(0.5, 0.5)


@pytest.mark.parametrize("call, error", [
    (lambda: aluthge_lab.joint_hyponormal(_prop2(), -5), aluthge_lab.WindowError),
    (lambda: aluthge_lab.classify(0.7, 0.4, N=-1), aluthge_lab.WindowError),
    (lambda: aluthge_lab.joint_hyponormal(_prop2(), 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.k_hyponormal_verdict(_prop2(), 1, math.nan), aluthge_lab.DomainError),
    (lambda: aluthge_lab.full_hypo_report(_prop2(), 10, kmax=2.0), aluthge_lab.DomainError),
    (lambda: aluthge_lab.region_scan(2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.classify_many([(0.7, 0.4)], N=12.0), aluthge_lab.DomainError),
    (lambda: aluthge_lab.k_hyponormal_verdicts([_prop2()], True, 6), aluthge_lab.DomainError),
    (lambda: aluthge_lab.toral_transform(_prop2(), window=2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.toral_transform(_prop2(), window=True), aluthge_lab.DomainError),
    (lambda: aluthge_lab.spherical_transform(_prop2(), window=2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.is_spherically_quasinormal(_prop2(), 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.quasinormality_routes(_prop2(), 10, 8.0), aluthge_lab.DomainError),
    (lambda: aluthge_lab.moments(_prop2(), 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.moments(_prop2(), True), aluthge_lab.DomainError),
    (lambda: aluthge_lab.validate_commuting(_prop2(), 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.commutativity_residual(_prop2(), 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.transform_distance(_prop2(), _prop2(), "toral", 2.5),
     aluthge_lab.DomainError),
    (lambda: aluthge_lab.continuity_probe(_prop2(), 2.5, 1), aluthge_lab.DomainError),
    (lambda: aluthge_lab.continuity_probe(_prop2(), 10, 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.continuity_probe(_prop2(), 10, True), aluthge_lab.DomainError),
    (lambda: aluthge_lab.berger_atomic_verify(_prop2(), aluthge_lab.quasinormal2_measure(1, 2, 3),
                                              2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.build_table(np.ones((2, 2)), np.ones((2, 2)), window=2.5),
     aluthge_lab.DomainError),
    (lambda: aluthge_lab.moments_1var([0.5, 0.7], 2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.moments_1var([0.5, 0.7], -3), aluthge_lab.WindowError),
    (lambda: measures.qt_power_identity_checks([_prop2()], 2, -5), aluthge_lab.WindowError),
    (lambda: measures.qt_power_identity_checks([_prop2()], 2, 2.5), aluthge_lab.DomainError),
    (lambda: _prop2().alpha(0.5, 0), aluthge_lab.DomainError),
    (lambda: _prop2().beta(0, True), aluthge_lab.DomainError),
    (lambda: aluthge_lab.moments(_prop2(), 3).gamma(0.5, 0), aluthge_lab.DomainError),
    (lambda: aluthge_lab.OneVarWeights(values=(0.5, 0.7))(2.5), aluthge_lab.DomainError),
    (lambda: aluthge_lab.OneVarWeights(values=(0.5, 0.7)).shifted(1.5), aluthge_lab.DomainError),
], ids=["joint-negative", "classify-negative", "joint-float", "khypo-nan", "kmax-float",
        "scan-float", "classify-many-float", "order-bool", "toral-float", "toral-bool",
        "spherical-float", "quasinormal-float", "routes-level-float", "moments-float",
        "moments-bool", "validate-float", "residual-float", "distance-float",
        "probe-level-float", "probe-n-float", "probe-n-bool", "berger-float", "table-float",
        "moments-1var-float", "moments-1var-negative", "qt-level-negative", "qt-level-float",
        "alpha-float", "beta-bool", "gamma-float", "omega-float", "shifted-float"])
def test_integer_arguments_are_refused_with_domain_errors(call, error):
    with pytest.raises(error) as info:
        call()
    # a non-integer is a DomainError of its own, never a WindowError
    assert (type(info.value) is aluthge_lab.WindowError) == (error is aluthge_lab.WindowError)


def test_numpy_integers_pass_the_integer_check():
    W = _prop2()
    assert aluthge_lab.joint_hyponormal(W, np.int64(10))[1] == aluthge_lab.joint_hyponormal(W, 10)[1]
    assert aluthge_lab.k_hyponormal_verdict(W, np.int32(1), np.int64(6)) == \
        aluthge_lab.k_hyponormal_verdict(W, 1, 6)
    row = aluthge_lab.OneVarWeights(values=(0.5, 0.7, 0.9))
    assert (W.alpha(np.int64(1), np.int32(2)), W.beta(np.int64(2), 0)) == (W.alpha(1, 2), W.beta(2, 0))
    assert aluthge_lab.moments(W, 3).gamma(np.int64(1), 1) == aluthge_lab.moments(W, 3).gamma(1, 1)
    assert row(np.int64(1)) == row(1) == 0.7 and row.shifted(np.int64(1)) == row.shifted(1)


def _completion():
    d = aluthge_lab.stampfli(1.0, 2.0, 3.0)
    return aluthge_lab.quasinormal_completion(d.weights, d.phi1)


# README: every integer argument of an export below its least value raises
# WindowError, "<name> must be >= <least>", and its least value is accepted.
# (name, call of the argument's value, least value)
BELOW_LEAST = [
    ("alpha", lambda v: _prop2().alpha(v, 0), 0),
    ("beta", lambda v: _prop2().beta(0, v), 0),
    ("omega", lambda v: aluthge_lab.OneVarWeights(values=(0.5, 0.7))(v), 0),
    ("shifted", lambda v: aluthge_lab.OneVarWeights(values=(0.5, 0.7)).shifted(v), 0),
    ("commutativity_residual", lambda v: aluthge_lab.commutativity_residual(_prop2(), v), 0),
    ("validate_commuting", lambda v: aluthge_lab.validate_commuting(_prop2(), v), 0),
    ("build_table", lambda v: aluthge_lab.build_table(np.ones((2, 2)), np.ones((2, 2)), window=v),
     0),
    ("moments", lambda v: aluthge_lab.moments(_prop2(), v), 0),
    ("moments_1var", lambda v: aluthge_lab.moments_1var([0.5, 0.7], v), 0),
    ("berger_atomic_verify", lambda v: aluthge_lab.berger_atomic_verify(
        _completion(), aluthge_lab.quasinormal2_measure(1.0, 2.0, 3.0), v), 0),
    ("is_spherically_quasinormal",
     lambda v: aluthge_lab.is_spherically_quasinormal(_completion(), v), 0),
    ("is_spherical_isometry", lambda v: aluthge_lab.is_spherical_isometry(_completion(), v), 0),
    ("quasinormality_routes-window", lambda v: aluthge_lab.quasinormality_routes(_prop2(), v, 3),
     0),
    ("quasinormality_routes-N", lambda v: aluthge_lab.quasinormality_routes(_prop2(), 10, v), 1),
    ("joint_hyponormal", lambda v: aluthge_lab.joint_hyponormal(_prop2(), v), 0),
    ("joint_hyponormal_reports", lambda v: aluthge_lab.joint_hyponormal_reports([_prop2()], v), 0),
    ("full_hypo_report-N", lambda v: aluthge_lab.full_hypo_report(_prop2(), v, kmax=1), 0),
    ("full_hypo_report-kmax", lambda v: aluthge_lab.full_hypo_report(_prop2(), 6, kmax=v), 0),
    ("hypo_orders-N", lambda v: aluthge_lab.hypo_orders(
        [_prop2()], aluthge_lab.joint_hyponormal_reports([_prop2()], 6), v, 1), 0),
    ("hypo_orders-kmax", lambda v: aluthge_lab.hypo_orders(
        [_prop2()], aluthge_lab.joint_hyponormal_reports([_prop2()], 6), 6, v), 0),
    ("k_hyponormal_verdict-k", lambda v: aluthge_lab.k_hyponormal_verdict(_prop2(), v, 6), 1),
    ("k_hyponormal_verdict-N", lambda v: aluthge_lab.k_hyponormal_verdict(_prop2(), 1, v), 6),
    ("k_hyponormal_verdicts-N", lambda v: aluthge_lab.k_hyponormal_verdicts([_prop2()], 2, v), 10),
    ("classify-N", lambda v: aluthge_lab.classify(0.7, 0.4, N=v, kmax=1), 0),
    ("classify-kmax", lambda v: aluthge_lab.classify(0.7, 0.4, N=12, kmax=v), 0),
    ("classify_many-N", lambda v: aluthge_lab.classify_many([(0.7, 0.4)], N=v, kmax=1), 0),
    ("classify_many-kmax", lambda v: aluthge_lab.classify_many([(0.7, 0.4)], N=12, kmax=v), 0),
    ("region_scan-grid", lambda v: aluthge_lab.region_scan(v, N=12, ladder=1), 2),
    ("region_scan-ladder", lambda v: aluthge_lab.region_scan(2, N=12, ladder=v), 1),
    ("region_scan-N", lambda v: aluthge_lab.region_scan(2, N=v, ladder=1), 0),
    ("continuity_probe-N", lambda v: aluthge_lab.continuity_probe(_prop2(), v, 1), 0),
    ("continuity_probe-n", lambda v: aluthge_lab.continuity_probe(_prop2(), 10, v), 1),
    ("toral_transform", lambda v: aluthge_lab.toral_transform(_prop2(), window=v), 0),
    ("toral_transforms", lambda v: aluthge_lab.toral_transforms([_prop2()], window=v), 0),
    ("spherical_transform", lambda v: aluthge_lab.spherical_transform(_prop2(), window=v), 0),
    ("spherical_transforms", lambda v: aluthge_lab.spherical_transforms([_prop2()], window=v), 0),
    ("transform_distance",
     lambda v: aluthge_lab.transform_distance(_prop2(), _prop2(), "toral", v), 0),
]


@pytest.mark.parametrize("call, least", [case[1:] for case in BELOW_LEAST],
                         ids=[case[0] for case in BELOW_LEAST])
def test_an_integer_below_its_least_value_raises_window_error(call, least):
    with pytest.raises(aluthge_lab.WindowError, match=f"must be >= {least}$"):
        call(least - 1)
    call(least)


def test_every_export_with_an_integer_argument_has_a_least_value_case():
    # the exports whose signature names an integer argument, as README lists them
    integer_args = {"window", "N", "n", "k", "kmax", "maxdeg", "nmax", "grid", "ladder"}
    functions = [getattr(aluthge_lab, name) for name, _ in EXPORTS]
    exports = {f.__name__ for f in functions if inspect.isfunction(f)
               and integer_args & set(inspect.signature(f).parameters)}
    covered = {case[0].split("-")[0] for case in BELOW_LEAST}
    assert exports and exports <= covered


def _calls_by_function(path: Path):
    """(qualified name of the enclosing def, name called, keywords passed) for
    every call in a module."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}{child.name}.")
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    yield (scope.rstrip("."), getattr(func, "id", getattr(func, "attr", None)),
                           {keyword.arg for keyword in child.keywords})
                yield from visit(child, scope)
    yield from visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")


def test_one_body_checks_the_lower_bound_of_an_integer():
    # require_integer is the one lower-bound check; MomentTable.gamma keeps
    # its two-sided degree check
    callers = {scope for path in SOURCES for scope, name, _ in _calls_by_function(path)
               if name == "as_integer"}
    assert callers == {"diagrams.require_integer", "diagrams.MomentTable.gamma"}
    defined = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert "require_window" not in defined and "require_integer" in defined


def test_every_limit_is_read_by_the_library():
    # a deleted path must not leave its knob behind: every name assigned in
    # limits.py is loaded by another module that imports it from .limits
    # (or reads it as limits.NAME); an import alone reads nothing
    assigned = [target.id for node in ast.parse(LIMITS.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign) for target in node.targets]
    read = set()
    for path in SOURCES:
        if path == LIMITS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "limits" for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(imported.get(node.id))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "limits":
                read.add(node.attr)
    assert len(assigned) > 40 and [name for name in assigned if name not in read] == []


# ---------------------------------------------------------------------------
# one body per quantity: no runner keeps a copy of the library's


def test_a_two_atom_row_is_solved_only_from_a_given_triple():
    # stampfli and the JSON loader solve the triple they are handed (and
    # sampling may draw one); no module re-solves a row from its own weights,
    # since a shifted row keeps its parent's triple and solve
    callers = {scope for path in SOURCES for scope, name, keywords in _calls_by_function(path)
               if name == "OneVarWeights" and "triple" in keywords}
    assert "measures.stampfli" in callers
    assert all(scope == "measures.stampfli" or scope.split(".")[0] in ("sampling", "serialize")
               for scope in callers), callers


def test_every_public_sampler_is_used_by_the_lab():
    tree = ast.parse((ROOT / "src" / "aluthge_lab" / "sampling.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    used = _names_used_by_the_library(outside=("__init__.py", "sampling.py"))
    assert public and [name for name in public if name not in used] == []


def test_only_the_verdict_modules_compute_weight_scales():
    # a runner that scaled a cut itself would hold a second copy of a verdict
    callers = {path.stem for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "weight_scales"}
    assert {"transforms", "positivity"} <= callers <= {"diagrams", "transforms", "positivity"}
