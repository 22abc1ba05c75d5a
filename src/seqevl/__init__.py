"""Sequential intermittent interval maps: transfer operators, calibrated
extreme-value thresholds, Monte Carlo estimators, and return-set measures."""

from .config import (ConfigError, Diagnostic, ExperimentConfig, default_config,
                     exponent_ledger, load_config, parse_toml, validate_config)
from .experiments import ExperimentReport, TargetCheck, run_experiment
from .io import write_csv, write_json
from .maps import (ALPHA_STAR, ParameterSchedule, apply_map_batch,
                   lsv_left_inverse, sequential_orbit)
from .mesh import (Density, Mesh, graded_mesh, project, uniform_density,
                   uniform_mesh)
from .montecarlo import (BlockStructure, EstimateWithCI, MixingGap, build_blocks,
                         d0_mixing_gap, dprime_sum, estimate_exceedances,
                         estimate_Pn)
from .recurrence import (RecurrenceParams, local_recurrence_at,
                         local_recurrence_bound, loglog_slope, measure_Ej,
                         measure_En_eps, orbit_displacement)
from .thresholds import (DEFAULT_ZETA, Observable, ThresholdSchedule,
                         build_threshold_schedule, calibrate_delta_ladder)
from .transfer import (DecayResult, cone_step_surrogate, loss_of_memory_distance,
                       pf_apply, push_density)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_STAR", "BlockStructure", "ConfigError", "DecayResult", "Density",
    "DEFAULT_ZETA", "Diagnostic", "EstimateWithCI", "ExperimentConfig",
    "ExperimentReport",
    "Mesh", "MixingGap", "Observable", "ParameterSchedule",
    "RecurrenceParams", "TargetCheck", "ThresholdSchedule",
    "apply_map_batch", "build_blocks", "build_threshold_schedule",
    "calibrate_delta_ladder", "cone_step_surrogate",
    "d0_mixing_gap", "default_config", "dprime_sum", "estimate_Pn",
    "estimate_exceedances", "exponent_ledger", "graded_mesh",
    "load_config", "local_recurrence_at", "local_recurrence_bound",
    "loglog_slope", "loss_of_memory_distance", "lsv_left_inverse",
    "measure_Ej", "measure_En_eps",
    "orbit_displacement", "parse_toml", "pf_apply",
    "project", "push_density", "run_experiment", "sequential_orbit",
    "uniform_density", "uniform_mesh", "validate_config", "write_csv",
    "write_json",
]
