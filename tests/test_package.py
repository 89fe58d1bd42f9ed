import cubefold


def test_public_surface_is_frozen():
    # a name joins the package surface only by changing this list
    assert sorted(cubefold.__all__) == [
        "CellUnion", "CubePoint", "DistributionSpec",
        "DyadicRect", "OrientationState", "PrecisionError", "RangeError",
        "SampleBatch", "UnitScalar", "VerificationReport",
        "child_order", "compose_n_to_m", "forward_map", "inverse_map",
        "monte_carlo_uniformity", "pushforward",
        "rect_measure_check", "sample_independent",
        "split_uniform",
    ]


def test_star_import_binds_exactly_the_public_surface():
    # the submodules stay reachable as attributes but are not exported
    namespace = {}
    exec("from cubefold import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cubefold.__all__)
    assert not {"curve", "dyadic", "measure", "sampling", "stats"} & set(namespace)
