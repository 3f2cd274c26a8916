"""Motion primitives with a closed-form safety tube.

Learn a point-to-point motion from a single demonstration, execute it under
a tube-based safety layer that provably clears spherical obstacles without
online optimization, and benchmark the result against a potential-field
baseline.
"""

from .baselines import ApfEngine, ApfParams, apf_force
from .bench import (
    MetricsReport,
    Perturbation,
    Scenario,
    compare,
    convergence_time_oa,
    convergence_time_perturb,
    mae,
    prepare,
    run_scenario,
    timing_harness,
)
from .dmp import (
    DmpModel,
    learn_from_trajectory,
    learn_weights,
    load_model,
    retarget,
    rollout,
    save_model,
)
from .safe_exec import (
    ExecutionLog,
    FirstOrderLagPlant,
    IdealPlant,
    Obstacle,
    SafeDmpEngine,
    SafetyParams,
    run,
)
from .stt import stt_control
from .trajectory import (
    DerivedKinematics,
    TimedTrajectory,
    finite_differences,
    lift_to_3d,
    low_pass,
    preprocess,
    read_demo_csv,
    resample,
    rotate,
)

__version__ = "0.1.0"

__all__ = [
    "ApfEngine", "ApfParams", "apf_force",
    "MetricsReport", "Perturbation", "Scenario", "compare",
    "convergence_time_oa", "convergence_time_perturb", "mae", "prepare",
    "run_scenario", "timing_harness",
    "DmpModel", "learn_from_trajectory", "learn_weights",
    "load_model", "retarget", "rollout", "save_model",
    "ExecutionLog", "FirstOrderLagPlant", "IdealPlant", "Obstacle",
    "SafeDmpEngine", "SafetyParams", "run",
    "stt_control",
    "DerivedKinematics", "TimedTrajectory", "finite_differences",
    "lift_to_3d", "low_pass", "preprocess", "read_demo_csv", "resample",
    "rotate",
    "__version__",
]
