"""Measure-preserving folding of the unit cube onto the unit segment."""

from .curve import (
    CellAddress,
    OrientationState,
    SegmentInterval,
    address_to_interval,
    address_to_rect,
    child_order,
    compose_n_to_m,
    forward_map,
    interval_to_address,
    inverse_map,
    point_to_address,
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

__all__ = ["CellAddress", "OrientationState", "SegmentInterval",
           "address_to_interval", "address_to_rect", "child_order",
           "compose_n_to_m", "forward_map", "interval_to_address",
           "inverse_map", "point_to_address", "CubePoint", "DyadicRect",
           "PrecisionError", "RangeError", "UnitScalar", "CellUnion",
           "VerificationReport", "monte_carlo_uniformity", "pushforward",
           "rect_measure_check", "DistributionSpec", "SampleBatch",
           "sample_independent", "split_uniform"]
__version__ = "0.1.0"
