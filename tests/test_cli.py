import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from cubefold import curve
from cubefold.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_first_cell(capsys):
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "1", "0/2^1", "0/2^1")
    assert code == 0
    assert out.split()[0] == "0/4^1"


def test_map_matches_brute_force_value(capsys):
    # frozen from the child_order-recursion oracle
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "6", "3/2^6", "7/2^6")
    assert code == 0
    assert out.split()[0] == "48/4^6"


def test_map_wrong_arity_exits_2(capsys):
    code, _, err = run(capsys, "map", "-d", "2", "-n", "2", "1/2^1")
    assert code == 2
    assert "coordinates" in err


def test_map_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unmap_first_interval(capsys):
    code, out, _ = run(capsys, "unmap", "-d", "2", "-n", "1", "0/4^1")
    assert code == 0
    assert out.split()[:2] == ["0/2^1", "0/2^1"]


def test_unmap_then_map_roundtrip(capsys):
    code, out, _ = run(capsys, "unmap", "-d", "2", "-n", "3", "38/4^3")
    assert code == 0
    x, y = out.split()[:2]
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "3", x, y)
    assert code == 0
    assert out.split()[0] == "38/4^3"


def test_unmap_malformed_value_exits_2(capsys):
    code, _, err = run(capsys, "unmap", "-d", "2", "-n", "1", "nonsense")
    assert code == 2
    assert err


def test_verify_cells(capsys):
    code, out, _ = run(capsys, "verify", "cells", "-d", "2", "-n", "4")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["passed"] and record["name"] == "cells"


def test_verify_cells_counts_corner_collisions(capsys, monkeypatch):
    real = curve.inverse_map_batch

    def colliding(indices, depth, dimension):
        corners = real(indices, depth, dimension)
        corners[7] = corners[3]
        return corners

    monkeypatch.setattr(curve, "inverse_map_batch", colliding)
    code, out, _ = run(capsys, "verify", "cells", "-d", "2", "-n", "4")
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert not record["passed"] and record["statistic"] >= 1


def test_verify_cells_beyond_batch_precision_exits_2(capsys):
    # 8 * 9 = 72 index bits: rejected before any cell is enumerated
    code, out, err = run(capsys, "verify", "cells", "-d", "8", "-n", "9")
    assert code == 2 and not out
    assert "<= 64" in err


@pytest.mark.parametrize("suite", ["cells", "adjacency"])
@pytest.mark.parametrize("depth", ["27", "13"])
def test_exhaustive_suites_reject_cell_bound_before_allocating(capsys, suite,
                                                               depth):
    # 2 * 2^26 and 2 * 2^54 cell coordinates exceed the 2^24 bound; 2^54
    # indices once ended in a numpy MemoryError traceback
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", suite, "-d", "2", "-n", depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out
    assert "cells * d <= 2^24" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("suite", ["cells", "adjacency"])
@pytest.mark.parametrize("d,depth", [("2", "6"), ("3", "5"), ("8", "2")])
def test_exhaustive_suites_pass_within_cell_bound(capsys, suite, d, depth):
    code, out, _ = run(capsys, "verify", suite, "-d", d, "-n", depth)
    assert code == 0
    assert json.loads(out)["scope"] == f"exhaustive d={d} depth={depth}"


def test_verify_usage_error_prints_no_partial_record(capsys):
    # the measure suite's first record passes at depth 0, its second raises
    code, out, err = run(capsys, "verify", "measure", "-d", "2", "-n", "0")
    assert code == 2 and out == ""
    assert "depth-0" in err


def test_verify_adjacency(capsys):
    code, out, _ = run(capsys, "verify", "adjacency", "-d", "2", "-n", "6")
    assert code == 0
    assert json.loads(out.splitlines()[0])["passed"]


def test_verify_roundtrip_and_measure(capsys):
    for suite in ("roundtrip", "measure"):
        code, out, _ = run(capsys, "verify", suite, "-d", "2", "-n", "4",
                           "--seed", "9")
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert record["passed"]


def test_verify_uniformity_records_seed(capsys):
    code, out, _ = run(capsys, "verify", "uniformity", "-N", "30000",
                       "-k", "8", "--seed", "7")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["seed"] == 7 and record["passed"]


@pytest.mark.parametrize("flags", [["-d", "3"], ["-d", "1"], ["-n", "8"],
                                   ["-d", "2", "-n", "6"]])
def test_verify_uniformity_rejects_dimension_and_depth(capsys, flags):
    code, out, err = run(capsys, "verify", "uniformity", "-N", "30000",
                         "-k", "8", *flags)
    assert code == 2 and not out
    assert "uniformity" in err


def test_verify_suites_default_depth_6(capsys):
    code, out, _ = run(capsys, "verify", "cells", "-d", "1")
    assert code == 0
    assert json.loads(out.splitlines()[0])["scope"] == "exhaustive d=1 depth=6"


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def _write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_sample_deterministic_csv(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", {
        "distributions": [
            {"pieces": [{"from": "0", "to": "1",
                         "cdf_from": "0", "cdf_to": "1"}]},
        ]})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--spec", spec, "-N", "10", "--seed", "1",
                 "-o", str(out_a)]) == 0
    assert main(["sample", "--spec", spec, "-N", "10", "--seed", "1",
                 "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 11


def test_sample_two_spec_file_two_columns(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", {
        "distributions": [
            {"atoms": [{"at": "0", "mass": "1/2"}, {"at": "1", "mass": "1/2"}]},
            {"pieces": [{"from": "0", "to": "1",
                         "cdf_from": "0", "cdf_to": "1"}]},
        ]})
    code, out, _ = run(capsys, "sample", "--spec", spec, "-N", "5", "--seed", "2")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].count(",") == 1
    assert len(rows) == 6


def test_sample_invalid_spec_names_field(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", {
        "distributions": [{"atoms": [{"at": "0", "mass": "9/10"}]}]})
    code, _, err = run(capsys, "sample", "--spec", spec, "-N", "5")
    assert code == 2
    assert "mass-sum" in err


def test_sample_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "sample", "--spec", "/nonexistent.json", "-N", "1")
    assert code == 2
    assert err


def test_map_refines_coarse_coordinates(capsys):
    # 1-bit coordinates at depth 2; frozen from helpers.brute_force_cells
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "2", "1/2^1", "1/2^1")
    assert code == 0
    assert out.split()[0] == "8/4^2"


# sha256 of `cubefold sample --spec tests/data/coin_uniform.json -N 40000
# --seed 5`, frozen from the csv.writer.writerows writer; 40000 rows cross
# a write block boundary.  CI checks the installed command against it too.
COIN_UNIFORM_SHA256 = ("25228a5659e09e4f9d7c80faea052c8b"
                       "7ceedb4e4fb94f9606244651a671ecb4")


def test_sample_csv_bytes_frozen(tmp_path):
    spec = Path(__file__).parent / "data" / "coin_uniform.json"
    out = tmp_path / "out.csv"
    assert main(["sample", "--spec", str(spec), "-N", "40000", "--seed", "5",
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COIN_UNIFORM_SHA256
