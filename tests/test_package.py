import cubefold


def test_public_surface_is_frozen():
    # a name joins the package surface only by changing this list
    assert sorted(cubefold.__all__) == [
        "CellAddress", "CellUnion", "CubePoint", "DistributionSpec",
        "DyadicRect", "OrientationState", "PrecisionError", "RangeError",
        "SampleBatch", "SegmentInterval", "UnitScalar", "VerificationReport",
        "address_to_interval", "address_to_rect", "child_order",
        "compose_n_to_m", "curve", "dyadic", "forward_map",
        "interval_to_address", "inverse_map", "measure",
        "monte_carlo_uniformity", "point_to_address", "pushforward",
        "rect_measure_check", "sample_independent", "sampling",
        "split_uniform", "stats",
    ]
