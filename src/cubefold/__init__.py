"""Measure-preserving folding of the unit cube onto the unit segment."""

from .curve import (
    OrientationState,
    child_order,
    compose_n_to_m,
    forward_map,
    inverse_map,
)
from .dyadic import (
    CubePoint,
    DyadicRect,
    PrecisionError,
    RangeError,
    UnitScalar,
)
from .measure import (
    CellUnion,
    VerificationReport,
    monte_carlo_uniformity,
    pushforward,
    rect_measure_check,
)
from .sampling import (
    DistributionSpec,
    SampleBatch,
    sample_independent,
    split_uniform,
)

__all__ = ["OrientationState", "child_order", "compose_n_to_m",
           "forward_map", "inverse_map", "CubePoint",
           "DyadicRect", "PrecisionError", "RangeError", "UnitScalar",
           "CellUnion", "VerificationReport", "monte_carlo_uniformity",
           "pushforward", "rect_measure_check", "DistributionSpec",
           "SampleBatch", "sample_independent", "split_uniform"]
__version__ = "0.1.0"
