"""Numerical lab for toral and spherical Aluthge transforms of
2-variable weighted shifts: diagram construction, hyponormality tests,
quasinormal completions, atomic Berger measures, and the threshold
curves of the corner family.
"""

from .diagrams import (
    COMMUTATIVITY_TOL,
    MomentTable,
    OneVarWeights,
    WeightDiagram,
    build_prop2,
    build_table,
    build_theta,
    build_thm1,
    commutativity_residual,
    core_of,
    moments,
    moments_1var,
    validate_commuting,
)
from .errors import (
    DomainError,
    InfeasibleConstantError,
    InternalConsistencyError,
    InvalidWeightsError,
    NonCommutingInputError,
    WindowError,
)
from .measures import (
    AtomicMeasure2D,
    StampfliData,
    berger_atomic_verify,
    constant_interior_p2,
    is_spherical_isometry,
    is_spherically_quasinormal,
    qt_power_identity_check,
    quasinormal2_measure,
    quasinormal_completion,
    quasinormality_routes,
    stampfli,
)
from .positivity import (
    HypoReport,
    PsdVerdict,
    componentwise_hyponormal,
    full_hypo_report,
    hypo_orders,
    joint_hyponormal,
    joint_hyponormal_reports,
    k_hyponormal,
    k_hyponormal_verdict,
    k_hyponormal_verdicts,
    one_var_k_hyponormal,
    psd_check,
    six_point_matrix,
    six_point_test,
)
from .regions import (
    RegionReport,
    ThresholdCurves,
    classify,
    classify_many,
    crossing_q,
    region_scan,
    thresholds,
)
from .serialize import (
    diagram_from_obj,
    diagram_to_obj,
    dumps,
    load_json,
    measure_from_obj,
    measure_to_obj,
    omega_from_obj,
    omega_to_obj,
)
from .transforms import (
    ContinuityProbe,
    SphericalPolarData,
    ToralResult,
    continuity_probe,
    spherical_polar,
    spherical_transform,
    spherical_transforms,
    toral_transform,
    toral_transforms,
    transform_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
