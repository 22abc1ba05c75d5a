"""Sequential intermittent interval maps: transfer operators, calibrated
extreme-value thresholds, Monte Carlo estimators, and return-set measures.
The package exports the README Quick start's names; every other name is
imported from its module."""

from .maps import ParameterSchedule
from .mesh import graded_mesh, uniform_density
from .montecarlo import estimate_Pn
from .thresholds import Observable, build_threshold_schedule
from .transfer import push_density

__version__ = "0.1.0"

__all__ = [
    "Observable", "ParameterSchedule", "build_threshold_schedule", "estimate_Pn",
    "graded_mesh", "push_density", "uniform_density",
]
