"""Numerical lab for toral and spherical Aluthge transforms of
2-variable weighted shifts: diagram construction, hyponormality tests,
quasinormal completions, atomic Berger measures, and the threshold
curves of the corner family.

Every exported name is loaded from its module on first use (PEP 562),
so `import aluthge_lab` and the CLI's --help import no numpy.  Nothing
is cached here: each access reads the defining module's current value.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "diagrams": (
        "MomentTable", "OneVarWeights", "WeightDiagram",
        "build_prop2", "build_table", "build_theta", "build_thm1",
        "commutativity_residual", "core_of", "moments", "moments_1var",
        "validate_commuting",
    ),
    "errors": (
        "DomainError", "InfeasibleConstantError", "InternalConsistencyError",
        "InvalidWeightsError", "NonCommutingInputError", "WindowError",
    ),
    "limits": ("COMMUTATIVITY_TOL",),
    "measures": (
        "AtomicMeasure2D", "StampfliData", "berger_atomic_verify",
        "is_spherical_isometry", "is_spherically_quasinormal", "quasinormal2_measure",
        "quasinormal_completion", "quasinormality_routes", "stampfli",
    ),
    "positivity": (
        "HypoReport", "PsdVerdict", "full_hypo_report", "hypo_orders",
        "joint_hyponormal", "joint_hyponormal_reports", "k_hyponormal_verdict",
        "k_hyponormal_verdicts",
    ),
    "regions": (
        "RegionReport", "ThresholdCurves", "classify", "classify_many", "crossing_q",
        "region_scan", "thresholds",
    ),
    "serialize": (
        "diagram_from_obj", "diagram_to_obj", "dumps", "load_json", "measure_from_obj",
        "measure_to_obj", "omega_from_obj", "omega_to_obj",
    ),
    "transforms": (
        "ContinuityProbe", "ToralResult", "continuity_probe", "spherical_transform",
        "spherical_transforms", "toral_transform", "toral_transforms",
        "transform_distance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "linalg", "reproduce", "sampling"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
