import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cubefold
from cubefold import cli, measure, sampling
from cubefold.cli import main
from cubefold.dyadic import RangeError


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


@pytest.mark.parametrize("value,message", [
    ("16/4^2", "mantissa 16 out of range"),
    ("16/2^2", "mantissa 16 out of range for precision 2"),
    # a base that is not a power of two is not a segment value
    ("1/3^2", "cannot parse unit scalar from '1/3^2'"),
    ("1/1^2", "cannot parse unit scalar from '1/1^2'"),
    ("1/0^2", "cannot parse unit scalar from '1/0^2'"),
    # an Arabic-Indic one: only ASCII digits spell a value
    ("\u0661/2^1", "cannot parse unit scalar from '\u0661/2^1'")])
def test_unmap_bad_value_keeps_its_own_error(capsys, value, message):
    code, out, err = run(capsys, "unmap", "-d", "2", "-n", "2", value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("value", ["3/2^2", "0b0.11", "24/2^5", "48/8^2", "3/4^1"])
def test_unmap_scalar_forms_match_the_interval_form(capsys, value):
    # 3/4 is the segment cell 12/4^2; a base other than 2^d reads by value
    assert run(capsys, "unmap", "-d", "2", "-n", "2", value) == \
        run(capsys, "unmap", "-d", "2", "-n", "2", "12/4^2")


def test_verify_cells(capsys):
    code, out, _ = run(capsys, "verify", "cells", "-d", "2", "-n", "4")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["passed"] and record["name"] == "cells"


def test_verify_cells_counts_corner_collisions(capsys, monkeypatch):
    real = measure.inverse_map_batch

    def colliding(indices, depth, dimension):
        corners = real(indices, depth, dimension)
        corners[7] = corners[3]
        return corners

    monkeypatch.setattr(measure, "inverse_map_batch", colliding)
    code, out, _ = run(capsys, "verify", "cells", "-d", "2", "-n", "4")
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert not record["passed"] and record["statistic"] >= 1


def test_verify_cells_beyond_batch_precision_exits_2(capsys):
    # 8 * 9 = 72 index bits: the cell bound rejects it before any cell is
    # enumerated
    code, out, err = run(capsys, "verify", "cells", "-d", "8", "-n", "9")
    assert code == 2 and not out
    assert "cells * d <= 2^24" in err


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


@pytest.mark.parametrize("suite", ["cells", "adjacency"])
def test_exhaustive_suites_see_the_first_cell_of_block_two(capsys, monkeypatch,
                                                           suite):
    # -d 2 -n 8 has 8 blocks; cell BLOCK, the first of the second block,
    # gets the corner of cell 0
    real = measure.inverse_map_batch

    def corrupted(indices, depth, dimension):
        corners = real(indices, depth, dimension)
        corners[indices == measure.BLOCK] = real(np.zeros(1, np.uint64), depth,
                                                 dimension)[0]
        return corners

    monkeypatch.setattr(measure, "inverse_map_batch", corrupted)
    code, out, _ = run(capsys, "verify", suite, "-d", "2", "-n", "8")
    assert code == 1
    assert json.loads(out)["statistic"] >= 1


def test_adjacency_checks_the_step_between_blocks(capsys, monkeypatch):
    # every cell from BLOCK on moves by the same offset, past the last
    # axis, so consecutive cells still share a face everywhere except
    # across the first block end
    real = measure.inverse_map_batch

    def shifted(indices, depth, dimension):
        cells = real(indices, depth, dimension)
        cells[indices >= measure.BLOCK] += np.uint64(1 << dimension * depth)
        return cells

    monkeypatch.setattr(measure, "inverse_map_batch", shifted)
    code, out, _ = run(capsys, "verify", "adjacency", "-d", "2", "-n", "8")
    assert code == 1
    assert json.loads(out)["statistic"] == 1


def test_adjacency_rejects_an_axis_wrapping_into_the_next(capsys, monkeypatch):
    # -d 2 -n 2: the rows x_1 = 0, 1, 2, 3 of the 4 x 4 grid, run left to
    # right, left to right, right to left, left to right.  Only the step
    # from (3, 0) to (0, 1) leaves the face: x_0 wraps to 0 as x_1 steps by
    # one, a packed difference of +1, as for a step along axis 0.
    rows = [[0, 1, 2, 3], [0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3]]
    path = np.array([x + 4 * y for y, row in enumerate(rows) for x in row],
                    dtype=np.uint64)
    monkeypatch.setattr(measure, "inverse_map_batch",
                        lambda indices, depth, dimension: path[indices.astype(np.intp)])
    code, out, _ = run(capsys, "verify", "adjacency", "-d", "2", "-n", "2")
    assert code == 1
    assert json.loads(out)["statistic"] == 1


@pytest.mark.parametrize("consume", [
    lambda: main(["verify", "cells", "-d", "2", "-n", "8"]),
    lambda: main(["verify", "adjacency", "-d", "2", "-n", "8"]),
    lambda: measure._bin_counts(np.ones(4 ** 8, dtype=np.int64), 16, 8)],
    ids=["cells", "adjacency", "cell-bins"])
def test_block_consumers_read_one_corner_stream(capsys, monkeypatch, consume):
    # 4^8 cells: measure's kernel binding sees the eight blocks in order
    calls = []
    real = measure.inverse_map_batch

    def recording(indices, depth, dimension):
        calls.append((int(indices[0]), len(indices)))
        return real(indices, depth, dimension)

    monkeypatch.setattr(measure, "inverse_map_batch", recording)
    consume()
    assert calls == [(i * measure.BLOCK, measure.BLOCK) for i in range(4 ** 8 // measure.BLOCK)]


@pytest.mark.parametrize("suite,depth", [("cells", "8000"), ("adjacency", "20000")])
def test_exhaustive_suites_name_the_index_bound(capsys, suite, depth):
    # d*n > 14284 is named as an -n bound, before the batch kernel's limit
    code, out, err = run(capsys, "verify", suite, "-d", "2", "-n", depth)
    assert code == 2 and out == ""
    assert "-n/--depth" in err and "14284" in err


def test_batch_limit_names_its_values(capsys):
    code, out, err = run(capsys, "verify", "cells", "-d", "2", "-n", "33")
    assert (code, out) == (2, "")
    assert err == ("error: d=2 depth=33 has 2^66 cells of 2 coordinates; "
                   "exhaustive suites take cells * d <= 2^24\n")


def test_verify_usage_error_prints_no_partial_record(capsys, monkeypatch):
    # the measure suite's first record passes, its second raises
    def misaligned(rect, depth):
        raise RangeError("corner not aligned to the depth grid")
    monkeypatch.setattr(measure, "rect_measure_check", misaligned)
    code, out, err = run(capsys, "verify", "measure", "-d", "2", "-n", "3")
    assert code == 2 and out == ""
    assert err == "error: corner not aligned to the depth grid\n"


# `verify measure -d 2 -n 3`, frozen before the half box's depth was
# raised to at least 1
MEASURE_D2_N3 = (
    '{"name": "measure-unions", "passed": true, "scope": "random d=2 depth=3 '
    'unions=200", "seed": 0, "statistic": 0.0, "threshold": 0.0}\n'
    '{"name": "rect_measure", "passed": true, "scope": "depth=3 sides=(1, 0)", '
    '"seed": null, "statistic": 0.0, "threshold": 0.0}\n')


def test_verify_measure_runs_the_half_box_at_depth_0(capsys):
    # -n 0 is a valid depth for every cell suite; the half box needs a
    # depth-1 grid, so it runs at depth 1
    code, out, err = run(capsys, "verify", "measure", "-d", "2", "-n", "0")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["scope"], r["passed"]) for r in records] == [
        ("measure-unions", "random d=2 depth=0 unions=200", True),
        ("rect_measure", "depth=1 sides=(1, 0)", True)]
    assert run(capsys, "verify", "measure", "-d", "2", "-n", "3")[1] == MEASURE_D2_N3


@pytest.mark.parametrize("d,n,depth", [("1", "14", 12), ("3", "4", 4), ("8", "2", 1)])
def test_verify_measure_runs_the_half_box_at_every_dimension(capsys, d, n, depth):
    # [0, 1/2) x [0, 1)^(d-1) at depth min(max(n, 1), 12 // d): 2^11 cells
    # at d = 1 and 3, 2^7 at d = 8
    code, out, err = run(capsys, "verify", "measure", "-d", d, "-n", n)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    sides = (1,) + (0,) * (int(d) - 1)
    assert [(r["name"], r["scope"], r["passed"]) for r in records] == [
        ("measure-unions", f"random d={d} depth={n} unions=200", True),
        ("rect_measure", f"depth={depth} sides={sides}", True)]


def _merging(moved, onto):
    """A batch forward map that sends packed grid cell `moved` where it
    sends `onto`, merging the two cells' images, at any depth.  Python
    ints compare exactly with a cell of any size."""
    real = measure.forward_map_batch

    def merging(cells, depth, d):
        cells = np.asarray(cells, dtype=object)
        return real(np.where(cells == moved, onto, cells), depth, d)

    return merging


def test_verify_measure_half_box_fails_a_map_merging_two_cells(capsys,
                                                                monkeypatch):
    # at d=3 -n 4 the box runs at depth 4; its cell at (1, 0, 0) / 2^4,
    # packed grid index 1, is sent onto the cell at the origin, so the
    # image loses 8^-4 of measure.  No union of seed 0 (at most 64 of the
    # 4096 cells) holds both cells.
    monkeypatch.setattr(measure, "forward_map_batch", _merging(1, 0))
    code, out, _ = run(capsys, "verify", "measure", "-d", "3", "-n", "4")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["passed"], r["statistic"]) for r in records] == [
        ("measure-unions", True, 0.0), ("rect_measure", False, 1.0)]


def _drawn_unions(monkeypatch):
    """The cells of every `forward_map_batch` call, in order; the first
    call of `verify measure` maps its unions, one row each."""
    real = measure.forward_map_batch
    seen = []

    def recording(cells, depth, d):
        seen.append(np.asarray(cells).tolist())
        return real(cells, depth, d)

    monkeypatch.setattr(measure, "forward_map_batch", recording)
    return seen


def test_verify_measure_unions_fail_a_map_merging_two_cells(capsys, monkeypatch):
    # at d=2 -n 1 a union holds up to all four cells.  Each union that
    # holds grid cells (1, 0) and (0, 1), packed 1 and 2, loses a quarter
    # of its measure.  The half box x < 1/2 holds neither cell (1, 0) nor
    # the merge, so it passes.
    monkeypatch.setattr(measure, "forward_map_batch", _merging(1, 2))
    seen = _drawn_unions(monkeypatch)
    code, out, _ = run(capsys, "verify", "measure", "-d", "2", "-n", "1")
    assert code == 1
    unions = [set(row) for row in seen[0]]
    assert len(unions) == 200 and all(u <= {0, 1, 2, 3} for u in unions)
    merged = sum({1, 2} <= u for u in unions)
    assert merged > 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["passed"], r["statistic"]) for r in records] == [
        ("measure-unions", False, merged), ("rect_measure", True, 0.0)]


def test_verify_measure_unions_beyond_64_bits_fail_a_map_merging_two_cells(
        capsys, monkeypatch):
    # d*n = 66 bits: the batch forward map walks each cell in Python ints.
    # Two cells of one drawn union are merged, the second sent where the
    # first goes; every union holding both loses a cell.  Seed 0 draws the
    # same unions on both runs.  The half box runs at depth 6 on the batch
    # kernel and passes.
    seen = _drawn_unions(monkeypatch)
    assert run(capsys, "verify", "measure", "-d", "2", "-n", "33")[0] == 0
    row = next(row for row in seen[0] if len(set(row)) > 1)
    a, b = list(dict.fromkeys(row))[:2]
    merged = sum({a, b} <= set(row) for row in seen[0])
    assert merged >= 1
    monkeypatch.setattr(measure, "forward_map_batch", _merging(b, a))
    code, out, _ = run(capsys, "verify", "measure", "-d", "2", "-n", "33")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["passed"], r["statistic"]) for r in records] == [
        ("measure-unions", False, merged), ("rect_measure", True, 0.0)]


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


def test_verify_roundtrip_counts_each_failing_trial_once(capsys, monkeypatch):
    # d*n = 6 bits: the trials run on the batch kernels
    real = measure.forward_map_batch

    def next_cell(cells, depth, d):
        return (real(cells, depth, d) + np.uint64(1)) & np.uint64((1 << d * depth) - 1)

    monkeypatch.setattr(measure, "forward_map_batch", next_cell)
    code, out, _ = run(capsys, "verify", "roundtrip", "-d", "2", "-n", "3")
    assert code == 1
    assert json.loads(out)["statistic"] == 1000


def test_verify_roundtrip_beyond_64_bits_counts_each_failing_trial(capsys,
                                                                  monkeypatch):
    # d*n = 66 bits: the batch maps walk each trial in Python ints
    real = measure.forward_map_batch

    def next_cell(cells, depth, d):
        return (real(cells, depth, d) + 1) % (1 << d * depth)

    monkeypatch.setattr(measure, "forward_map_batch", next_cell)
    code, out, _ = run(capsys, "verify", "roundtrip", "-d", "2", "-n", "33")
    assert code == 1
    assert json.loads(out)["statistic"] == 1000
    monkeypatch.setattr(measure, "forward_map_batch", real)
    code, out, _ = run(capsys, "verify", "roundtrip", "-d", "2", "-n", "33")
    assert code == 0 and json.loads(out)["statistic"] == 0


def test_verify_uniformity_records_seed(capsys):
    code, out, _ = run(capsys, "verify", "uniformity", "-N", "30000",
                       "-k", "8", "--seed", "7")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["seed"] == 7 and record["passed"]


def test_verify_uniformity_single_bin_draws_nothing(capsys, monkeypatch):
    # one bin holds every draw, so the record is known before any work;
    # -N 10^15 once drew all 10^15 cells first
    def fail(*args):
        raise RuntimeError("work done")

    monkeypatch.setattr(measure, "_draw_cells", fail)
    monkeypatch.setattr(measure, "inverse_map_batch", fail)
    code, out, _ = run(capsys, "verify", "uniformity", "-N",
                       "1000000000000000", "-k", "1")
    assert code == 0
    assert out == ('{"name": "uniformity", "passed": true, "scope": '
                   '"N=1000000000000000 grid=1x1", "seed": 0, "statistic": 0.0, '
                   '"threshold": 0.0}\n')


@pytest.mark.parametrize("flags", [["-d", "3"], ["-d", "1"], ["-n", "8"],
                                   ["-d", "2", "-n", "6"], ["-d", "2"]])
def test_verify_uniformity_rejects_dimension_and_depth(capsys, flags):
    code, out, err = run(capsys, "verify", "uniformity", "-N", "30000",
                         "-k", "8", *flags)
    assert code == 2 and not out
    assert "uniformity" in err


@pytest.mark.parametrize("suite,flags,flag", [
    ("cells", ["--seed", "3"], "--seed"),
    ("adjacency", ["--seed", "0"], "--seed"),
    ("cells", ["-k", "5", "-N", "7"], "-N/--samples"),
    ("adjacency", ["-k", "5"], "-k/--grid"),
    ("roundtrip", ["-N", "7"], "-N/--samples"),
    ("measure", ["-k", "5", "--seed", "1"], "-k/--grid")])
def test_verify_rejects_flags_the_suite_ignores(capsys, suite, flags, flag):
    code, out, err = run(capsys, "verify", suite, "-d", "2", "-n", "3", *flags)
    assert code == 2 and out == ""
    assert f"verify {suite} takes no {flag}" in err


@pytest.mark.parametrize("flags,flag", [(["-d", "2"], "-d/--dimension"),
                                        (["-n", "6"], "-n/--depth")])
def test_verify_uniformity_names_the_cell_flag_it_takes_not(capsys, flags,
                                                            flag):
    # -d 2 is the audit's own dimension, but it is still not its flag
    code, out, err = run(capsys, "verify", "uniformity", "-N", "30000",
                         "-k", "8", *flags)
    assert code == 2 and out == ""
    assert f"verify uniformity takes no {flag}" in err


@pytest.mark.parametrize("command", [
    ["verify", "roundtrip", "-n", "3"], ["verify", "measure", "-n", "3"],
    ["verify", "uniformity", "-N", "30000", "-k", "8"],
    ["sample", "--spec", str(Path(__file__).parent / "data" / "coin_uniform.json"),
     "-N", "5"]], ids=["roundtrip", "measure", "uniformity", "sample"])
def test_negative_seed_exits_2_naming_the_flag(capsys, command):
    # random.Random(-1) would draw what --seed 1 draws
    code, out, err = run_exit(capsys, *command, "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: seed must be >= 0, got -1" in err


def test_verify_help_names_the_suites_taking_each_flag(capsys):
    code, out, _ = run_exit(capsys, "verify", "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse wraps help to the terminal
    cells = "taken by cells, adjacency, roundtrip, measure only"
    assert f"--dimension DIMENSION default 2; {cells}" in text
    assert f"--depth DEPTH default 6; {cells}" in text
    assert "--samples SAMPLES default 1000000; taken by uniformity only" in text
    assert "--grid GRID default 16; taken by uniformity only" in text
    assert "--seed SEED default 0; taken by roundtrip, measure, uniformity only" \
        in text


def test_verify_seeded_suites_default_to_seed_0(capsys):
    for suite in ("roundtrip", "measure"):
        assert run(capsys, "verify", suite, "-n", "3") == \
            run(capsys, "verify", suite, "-n", "3", "--seed", "0")


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


@pytest.mark.parametrize("doc,field", [
    ({"distributions": 5}, "distributions"),
    ({"atoms": [1]}, "atoms"),
    ({"atoms": "ab"}, "atoms"),
    ({"pieces": [[0, 1, 0, 1]]}, "pieces"),
    ({"atoms": [{"at": float("inf"), "mass": "1"}]}, "at"),
    # exact, but no float64 holds the location or the piece's dt/dF
    ({"atoms": [{"at": "1e400", "mass": "1"}]}, "at"),
    ({"pieces": [{"from": "0", "to": "1e400", "cdf_from": "0", "cdf_to": "1"}]},
     "to"),
    # a name would otherwise head the CSV column as "[1, 2]"
    ({"atoms": [{"at": "0", "mass": "1"}], "name": [1, 2]}, "name"),
    # a spec file is {"distributions": [...]} or one distribution object
    ([{"atoms": [{"at": "0", "mass": "1"}]}], "distribution"),
    # a key the format does not know, at each level, is named, not dropped
    ({"distributions": [{"atoms": [{"at": "0", "mass": "1"}]}],
      "atoms": [{"at": "0", "mass": "1"}]}, "atoms"),
    ({"atoms": [{"at": "0", "mass": "1"}], "nmae": "coin"}, "nmae"),
    ({"atoms": [{"at": "0", "mass": "1", "kind": "atom"}]}, "kind"),
    ({"pieces": [{"from": "0", "to": "1", "cdf_from": "0", "cdf_to": "1",
                  "slope": "1"}]}, "slope"),
    # a JSON boolean is not an exact number, though Python reads True as 1
    ({"atoms": [{"at": "0", "mass": True}]}, "mass"),
    ({"atoms": [{"at": False, "mass": True}]}, "at"),
], ids=["distributions-int", "atom-int", "atoms-str", "piece-list", "at-inf",
        "at-1e400", "slope-1e400", "name-list", "bare-list", "file-key",
        "distribution-key", "atom-key", "piece-key", "mass-bool", "at-bool"])
def test_sample_malformed_spec_exits_2_naming_the_field(tmp_path, capsys, doc,
                                                         field):
    spec = _write_spec(tmp_path / "spec.json", doc)
    code, out, err = run(capsys, "sample", "--spec", spec, "-N", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("text,field", [
    ('{"distributions": [{"atoms": [{"at": "0", "mass": "1"}]}], '
     '"distributions": [{"atoms": [{"at": "1", "mass": "1"}]}]}', "distributions"),
    ('{"atoms": [{"at": "0", "mass": "1"}], "atoms": [{"at": "5", "mass": "1"}]}',
     "atoms"),
    ('{"atoms": [{"at": "5", "mass": "1/2", "mass": "1"}]}', "mass"),
], ids=["wrapper", "distribution", "atom"])
def test_sample_repeated_key_exits_2_naming_it(tmp_path, capsys, text, field):
    # json.load would keep the last value and sample it, exit 0
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run(capsys, "sample", "--spec", str(spec), "-N", "2")
    assert (code, out, err) == (2, "", f"error: {field}: duplicate key\n")


def test_sample_json_numbers_read_as_their_decimals(tmp_path):
    # 0.1 and 0.9 as float64 would sum to 36028797018963969/36028797018963968
    text = '{"atoms": [{"at": %s, "mass": %s}, {"at": %s, "mass": %s}]}'
    outputs = []
    for args in (("0", "0.1", "1", "0.9"), ('"0"', '"0.1"', '"1"', '"0.9"'),
                 ("0", "1e-1", "1", "9E-1"), ('"0"', '"1/10"', '"1"', '"9/10"')):
        spec = tmp_path / "spec.json"
        spec.write_text(text % args)
        out = tmp_path / "out.csv"
        assert main(["sample", "--spec", str(spec), "-N", "100", "--seed", "3",
                     "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("mass,field,message", [
    ('"1e10000000"', "mass", "decimal exponent 10000000 is outside -999..999"),
    ('"1e-10000000"', "mass", "decimal exponent -10000000 is outside -999..999"),
    ("1e10000000", "mass", "decimal exponent 10000000 is outside -999..999"),
    ("1e-10000000", "mass", "decimal exponent -10000000 is outside -999..999"),
    # the written exponent and the digits after the point both count
    ('"0.%s1"' % ("0" * 1000), "mass", "decimal exponent -1001 is outside -999..999"),
    # beyond what a Decimal holds, a JSON number fails as the file is read
    ("1e99999999999999999999", "spec file", "number out of range"),
    # a digit's place counts, not only the written exponent
    ('"1%s"' % ("0" * 5000), "mass", "decimal exponent 5000 is outside -999..999"),
    # a JSON integer too: Python's int() stops at 4300 digits, naming no field
    ("1%s" % ("0" * 5000), "mass", "decimal exponent 5000 is outside -999..999"),
    ("123e998", "mass", "decimal exponent 1000 is outside -999..999"),
], ids=["str-big", "str-small", "json-big", "json-small", "str-digits",
        "json-beyond", "str-int-digits", "json-int-digits", "json-first-digit"])
def test_sample_huge_exponent_exits_2_at_once(tmp_path, capsys, mass, field, message):
    spec = tmp_path / "spec.json"
    spec.write_text('{"atoms": [{"at": "0", "mass": %s}]}' % mass)
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--spec", str(spec), "-N", "2")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: {field}: {message}\n")


def test_sample_exponent_beyond_decimal_is_not_an_exact_number(tmp_path, capsys,
                                                               monkeypatch):
    # Fraction itself would try to write out 10**(10**20) digits
    real = sampling.Fraction
    def guarded(value=0, *rest):
        assert not (isinstance(value, str) and "e99" in value), "exponent expanded"
        return real(value, *rest)
    monkeypatch.setattr(sampling, "Fraction", guarded)
    spec = tmp_path / "spec.json"
    spec.write_text('{"atoms": [{"at": "0", "mass": "1e99999999999999999999"}]}')
    code, _, err = run(capsys, "sample", "--spec", str(spec), "-N", "2")
    assert (code, err) == (2, "error: mass: not an exact number: "
                              "'1e99999999999999999999'\n")


def test_sample_exponent_bound_is_inclusive(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"atoms": [{"at": 1e-999, "mass": "1"}]}')
    code, out, _ = run(capsys, "sample", "--spec", str(spec), "-N", "1")
    assert (code, out) == (0, "coord1\r\n0.0\r\n")


@pytest.mark.parametrize("depth", [100_000, 990])
def test_sample_deeply_nested_spec_exits_2(tmp_path, capsys, depth):
    # exit 1 would mean a failed verification; near the recursion limit
    # the parse may pass and the repr of the value in the error recurse
    spec = tmp_path / "deep.json"
    spec.write_text('{"atoms": [{"at": %s, "mass": "1"}]}' % ("[" * depth + "]" * depth))
    code, out, err = run(capsys, "sample", "--spec", str(spec), "-N", "1")
    assert (code, out) == (2, "")
    assert err in ("error: spec file: nested too deeply\n",
                   f"error: at: not an exact number: {'[' * 37}...\n")


@pytest.mark.parametrize("doc,message", [
    ('{"atoms": [{"at": "0", "mass": "%s"}]}' % ("x" * 5000),
     "mass: not an exact number: '%s...\n" % ("x" * 36)),
    ('{"atoms": [{"at": "0", "mass": %s}]}' % ("[" * 500 + "]" * 500),
     "mass: not an exact number: %s...\n" % ("[" * 37)),
    ('{"atoms": [{"at": "0", "mass": 1e999}]}',
     "mass-sum: atom masses plus piece increments sum to %s..., expected 1\n"
     % ("1" + "0" * 36)),
    ('{"atoms": [{"at": "0", "mass": "1"}], "%s": 1}' % ("k" * 5000),
     "%s...: unknown key in distribution; expected one of atoms, pieces, name\n"
     % ("k" * 37)),
    # four masses over 2000-digit denominators sum to a Fraction of over
    # 4300 digits, whose str() raised Python's digit-limit ValueError
    ('{"atoms": [%s]}' % ", ".join('{"at": "%d", "mass": "1/%d"}' % (i, 10 ** 1999 + 2 * i + 1)
                                   for i in range(4)),
     "mass-sum: atom masses plus piece increments sum to %s.../%s..., expected 1\n"
     % ("4" + "0" * 15, "1" + "0" * 15)),
], ids=["str-5000", "list-500", "json-1e999", "key-5000", "fraction-8000"])
def test_sample_spec_error_cuts_the_value_it_echoes(tmp_path, capsys, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    assert run(capsys, "sample", "--spec", str(spec), "-N", "1") == \
        (2, "", f"error: {message}")


def test_sample_spec_error_shows_json_numbers_as_written(tmp_path, capsys):
    # JSON numbers read as decimals, but an echo shows 1, not Decimal('1')
    spec = tmp_path / "spec.json"
    spec.write_text('{"atoms": [{"at": "0", "mass": "1"}], "name": [1, 0.5]}')
    assert run(capsys, "sample", "--spec", str(spec), "-N", "1") == \
        (2, "", "error: name: expected a string, got [1, 0.5]\n")


@pytest.mark.parametrize("flags,message", [
    (["-N", "-1"], "count must be >= 0, got -1"),
    (["--depth", "0"], "depth must be >= 1, got 0"),
    (["--depth", "40"], "2*40 bits per draw exceeds the 64-bit uniform source"),
], ids=["draws-1", "depth0", "depth40"])
def test_sample_library_checks_exit_2_with_their_message(tmp_path, capsys, flags,
                                                         message):
    uniform = {"pieces": [{"from": "0", "to": "1", "cdf_from": "0", "cdf_to": "1"}]}
    spec = _write_spec(tmp_path / "spec.json", {"distributions": [uniform] * 2})
    code, out, err = run(capsys, "sample", "--spec", spec, *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_sample_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "sample", "--spec", "/nonexistent.json", "-N", "1")
    assert code == 2
    assert err


def test_map_refines_coarse_coordinates(capsys):
    # 1-bit coordinates at depth 2; frozen from helpers.brute_force_cells
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "2", "1/2^1", "1/2^1")
    assert code == 0
    assert out.split()[0] == "8/4^2"


@pytest.mark.parametrize("coords", [["2/4^1", "1/2^1"], ["0b0.1", "32/64^1"],
                                    ["8/16^1", "2/4^1"]])
def test_map_reads_coordinates_in_any_power_of_two_base(capsys, coords):
    assert run(capsys, "map", "-d", "2", "-n", "2", *coords) == \
        run(capsys, "map", "-d", "2", "-n", "2", "1/2^1", "1/2^1")


def test_unmap_huge_precision_builds_no_huge_integer(capsys):
    # the range check once built 1 << 10**15, a MemoryError traceback
    tracemalloc.start()
    try:
        result = run(capsys, "unmap", "-d", "2", "-n", "3", "1/2^1000000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "0/2^3 0/2^3 (0.0 0.0)\n", "")
    assert peak < 1 << 20


@pytest.mark.parametrize("command", [
    ["map", "-d", "2", "-n", "{n}", "1/2^1", "1/2^1"],
    ["unmap", "-d", "2", "-n", "{n}", "1/2^1"],
    ["verify", "roundtrip", "-d", "2", "-n", "{n}"],
    ["verify", "measure", "-d", "2", "-n", "{n}"]],
    ids=["map", "unmap", "roundtrip", "measure"])
@pytest.mark.parametrize("n", ["7143", "8000", "1000000000000"])
def test_index_beyond_a_printable_integer_exits_2_naming_the_flag(capsys, command, n):
    # 2 * 7143 bits exceed the 14284 a 4300-digit integer holds; the walks
    # and tables of -n 10**12 once ran out of memory or never ended
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(arg.format(n=n) for arg in command))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (
        2, "", f"error: -n/--depth: d*n must be <= 14284, got 2*{n}\n")
    assert peak < 1 << 20


def test_index_bound_admits_a_printable_integer(capsys):
    # 2^14284 - 1 has 4300 digits, the most Python prints by default
    code, out, _ = run(capsys, "unmap", "-d", "4", "-n", "3571", "1/2^1")
    assert code == 0 and out.endswith("/2^3571 (0.5 0.5 0.0 0.9999999999999999)\n")
    code, out, _ = run(capsys, "map", "-d", "1", "-n", "14284", "1/2^1")
    assert code == 0 and out.startswith(f"{1 << 14283}/2^14284 ")


@pytest.mark.parametrize("argv,annotation", [
    # (2^60 - 1)/2^60 and (2^3571 - 1)/2^3571 round to 1.0; the annotation
    # shows the float below it
    (["map", "-d", "1", "-n", "60", f"{(1 << 60) - 1}/2^60"], "(0.9999999999999999)"),
    (["unmap", "-d", "1", "-n", "3571", f"{(1 << 3571) - 1}/2^3571"],
     "(0.9999999999999999)"),
    (["map", "-d", "2", "-n", "30", f"{(1 << 30) - 1}/2^30", "0/2^1"],
     "(0.9999999999999999)"),
    # (2^55 - 1)/2^56 and (2^54 + 1)/2^55 keep round-to-nearest
    (["map", "-d", "1", "-n", "56", f"{(1 << 55) - 1}/2^56"], "(0.5)"),
    (["unmap", "-d", "1", "-n", "55", f"{(1 << 54) + 1}/2^55"], "(0.5)"),
    (["unmap", "-d", "2", "-n", "1", "3/4^1"], "(0.5 0.0)"),
])
def test_decimal_annotation_stays_below_one(capsys, argv, annotation):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith(f" {annotation}\n")


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


# sha256 of `cubefold sample --spec tests/data/wide_range.json -N 40000
# --seed 5`, frozen from the writer that called `repr` on each value: the
# layouts the coin spec misses (negative values, exponent form below 1e-4
# and from 1e16, 16-digit integer parts and 17-digit values).  CI checks
# the installed command against it too.
WIDE_RANGE_SHA256 = ("bba9d5cf5ecdf6891ef74a2fb731616d"
                     "e41d703d7106aeb1273f9099adc037b5")


def test_wide_range_csv_bytes_frozen(tmp_path):
    spec = Path(__file__).parent / "data" / "wide_range.json"
    out = tmp_path / "out.csv"
    assert main(["sample", "--spec", str(spec), "-N", "40000", "--seed", "5",
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_RANGE_SHA256


def run_exit(capsys, *argv):
    """Like `run`, also for usage errors that argparse ends with SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CELL_COMMANDS = [["map", "1/2^1", "1/2^1"], ["unmap", "1/4^1"], ["verify", "cells"],
                 ["verify", "adjacency"], ["verify", "roundtrip"], ["verify", "measure"]]


@pytest.mark.parametrize("command", CELL_COMMANDS,
                         ids=["map", "unmap", "cells", "adjacency", "roundtrip", "measure"])
@pytest.mark.parametrize("flag,value,message", [
    ("-n", "-1", "argument -n/--depth: depth must be >= 0, got -1"),
    ("--depth", "-3", "argument -n/--depth: depth must be >= 0, got -3"),
    ("-d", "0", "argument -d/--dimension: dimension must be in 1..8, got 0"),
    ("-d", "9", "argument -d/--dimension: dimension must be in 1..8, got 9")],
    ids=["n-1", "depth-3", "d0", "d9"])
def test_bad_dimension_or_depth_exits_2_naming_the_flag(capsys, command, flag,
                                                        value, message):
    code, out, err = run_exit(capsys, command[0], flag, value, *command[1:])
    assert code == 2 and out == ""
    assert message in err


def test_non_integer_depth_keeps_argparse_message(capsys):
    code, out, err = run_exit(capsys, "map", "-n", "abc", "0/2^1", "0/2^1")
    assert code == 2 and out == ""
    assert "argument -n/--depth: invalid int value: 'abc'" in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "cells", "-d", " +2", "-n", "3"], "-d/--dimension"),
    (["verify", "cells", "-d", "2", "-n", "\u0663"], "-n/--depth"),
    (["map", "-d", "2", "-n", "1_0", "1/2^1", "1/2^1"], "-n/--depth"),
    (["verify", "uniformity", "-N", "\u0661" + "\u0660" * 6], "-N/--samples"),
    (["sample", "--spec", "unread.json", "-N", "1_0"], "-N/--draws")],
    ids=["space-plus", "arabic-indic", "underscore", "arabic-indic-N", "sample-N"])
def test_integer_flags_read_ascii_digits_only(capsys, argv, flag):
    # int() alone reads each of these as 2, 3, 10 or 1000000
    code, out, err = run_exit(capsys, *argv)
    value = argv[argv.index(flag.split("/")[0]) + 1]
    assert (code, out) == (2, "")
    assert f"argument {flag}: invalid int value: {value!r}" in err


@pytest.mark.parametrize("value", [" 6/4^2", "6/4^2\n", "6/4^2 "])
def test_values_take_no_whitespace(capsys, value):
    assert run_exit(capsys, "unmap", "-d", "2", "-n", "2", "6/4^2")[0] == 0
    assert run_exit(capsys, "unmap", "-d", "2", "-n", "2", value) == \
        (2, "", f"error: cannot parse unit scalar from {value!r}\n")


LONG = "1" + "0" * 5000  # more digits than int() reads from text
COIN_UNIFORM = str(Path(__file__).parent / "data" / "coin_uniform.json")


@pytest.mark.parametrize("argv", [
    ["unmap", "-d", "1", "-n", "1", f"{LONG}/2^20000"],
    ["unmap", "-d", "1", "-n", "1", f"1/2^{LONG}"],
    ["verify", "cells", "-n", LONG],
    ["unmap", "x" * 3000],
    ["unmap", "-d", "1", "-n", "1", f"{LONG[:4000]}/2^1"],
    ["verify", "uniformity", "-N", LONG],
    ["verify", "uniformity", "-k", LONG[:3000]],
    ["sample", "--spec", COIN_UNIFORM, "--depth", LONG[:4000]],
    ["sample", "--spec", "x" * 200],
    ["sample", "--spec", COIN_UNIFORM, "-N", "2", "-o", "no-such-dir/" + "x" * 288]],
    ids=["numerator", "exponent", "verify-n", "unparseable", "mantissa-range",
         "verify-N", "grid", "sample-depth", "spec-path", "output-path"])
def test_errors_cut_the_values_they_echo(capsys, argv):
    # a number of over 4300 digits once ended in Python's digit-limit
    # message, which names no value, and other values were echoed whole
    code, out, err = run_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()[-1]) <= 120
    assert "set_int_max_str_digits" not in err


def test_sample_output_too_large_to_allocate_exits_2(capsys):
    # 10^17 rows of float64 are hundreds of PiB, beyond any 64-bit address
    # space; numpy's MemoryError once ended in a traceback with exit 1
    code, out, err = run(capsys, "sample", "--spec", COIN_UNIFORM,
                         "-N", "100000000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate")


def _fresh(*argv, **env):
    """Exit code, stdout and stderr of the command in a new interpreter,
    with `env` added to its environment."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cubefold.__file__).resolve().parents[1]), **env)
    proc = subprocess.run([sys.executable, "-m", "cubefold.cli", *argv],
                          capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()  # CSV rows keep their CRLF


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path,
                                                    monkeypatch):
    main(["verify", "cells", "-d", "1", "-n", "1"])  # the parser exists now
    capsys.readouterr()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = str(Path(__file__).parent / "data" / "coin_uniform.json")
    out_file = tmp_path / "f.csv"
    sample = ["sample", "--spec", spec, "-N", "7", "--seed", "3"]
    steps = [  # (overriding call, later call on the defaults)
        (["verify", "cells", "-d", "1", "-n", "3"], ["verify", "cells", "-d", "1"]),
        (sample + ["-o", str(out_file)], sample),
        (["map", "-d", "3", "-n", "2", "1/2^2", "1/2^2", "3/2^2"],
         ["map", "-n", "2", "1/2^2", "3/2^2"]),
    ]
    later = []
    for first, second in steps:
        assert main(first) == 0
        capsys.readouterr()
        later.append((main(second), capsys.readouterr().out))
    assert built == []
    assert json.loads(later[0][1])["scope"] == "exhaustive d=1 depth=6"
    assert later[1][1] == out_file.read_bytes().decode()
    assert later[2][1].split()[0].endswith("/4^2")
    for (_, second), result in zip(steps, later):
        assert result == _fresh(*second)[:2]


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch):
    argv = ["map", "-d", "2", "-n", "6", "3/2^6", "7/2^6"]
    monkeypatch.setattr(sys, "argv", ["cubefold", *argv])
    code = main()
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.split()[0] == "48/4^6"
    assert run(capsys, *argv) == (code, out, err)


SPEC_FILE = ["--spec", COIN_UNIFORM]
# every command shape the three benchmark workloads send
WORKLOAD_ARGVS = [
    *(["map", "-d", str(d), "-n", str(depth), *[f"{2 * a + 1}/2^{depth + 8}"
                                                 for a in range(d)]]
      for d, depth in ((2, 32), (3, 21), (8, 8))),
    *(["unmap", "-d", str(d), "-n", str(depth), f"12345/{1 << d}^{depth}"]
      for d, depth in ((2, 32), (3, 21), (8, 8))),
    ["verify", "cells", "-d", "2", "-n", "4"],
    ["verify", "adjacency", "-d", "3", "-n", "5"],
    ["verify", "measure", "-d", "2", "-n", "3", "--seed", "1785"],
    ["verify", "roundtrip", "-d", "2", "-n", "8", "--seed", "92"],
    ["verify", "uniformity", "-N", "250000", "-k", "16", "--seed", "7"],
    ["sample", *SPEC_FILE, "-N", "20000", "--seed", "40", "-o", os.devnull],
]
# the argument lists the tests above run to an error, the workload shapes
# `cli._read` accepts, and the cases where it and the root parser could
# part: help, no or an unknown command, flag spellings, and arguments a
# command's parser leaves over
ROUTE_ARGVS = [
    *WORKLOAD_ARGVS,
    ["map", "-d", "2", "-n", "2", "1/2^1"],
    ["frobnicate"],
    ["unmap", "-d", "2", "-n", "1", "nonsense"],
    *(["unmap", "-d", "2", "-n", "2", value]
      for value in ("16/4^2", "16/2^2", "1/3^2", "1/1^2", "1/0^2")),
    ["verify", "cells", "-d", "8", "-n", "9"],
    *(["verify", suite, "-d", "2", "-n", depth]
      for suite in ("cells", "adjacency") for depth in ("27", "13", "33", "8000")),
    *(["verify", "uniformity", "-N", "30000", "-k", "8", *flags]
      for flags in (["-d", "3"], ["-d", "1"], ["-n", "8"], ["-d", "2", "-n", "6"],
                    ["-d", "2"])),
    *(["verify", suite, "-d", "2", "-n", "3", *flags]
      for suite, flags in (("cells", ["--seed", "3"]), ("adjacency", ["--seed", "0"]),
                           ("cells", ["-k", "5", "-N", "7"]), ("adjacency", ["-k", "5"]),
                           ("roundtrip", ["-N", "7"]),
                           ("measure", ["-k", "5", "--seed", "1"]))),
    *([*command, "--seed", "-1"]
      for command in (["verify", "roundtrip", "-n", "3"], ["verify", "measure", "-n", "3"],
                      ["verify", "uniformity", "-N", "30000", "-k", "8"],
                      ["sample", *SPEC_FILE, "-N", "5"])),
    ["verify", "nonsense"],
    *(["sample", *SPEC_FILE, *flags]
      for flags in (["-N", "-1"], ["--depth", "0"], ["--depth", "40"],
                    ["-N", "100000000000000000"])),
    ["sample", "--spec", "/nonexistent.json", "-N", "1"],
    *([arg.format(n=n) for arg in command]
      for command in (["map", "-d", "2", "-n", "{n}", "1/2^1", "1/2^1"],
                      ["unmap", "-d", "2", "-n", "{n}", "1/2^1"],
                      ["verify", "roundtrip", "-d", "2", "-n", "{n}"],
                      ["verify", "measure", "-d", "2", "-n", "{n}"])
      for n in ("7143", "8000", "1000000000000")),
    *([command[0], flag, value, *command[1:]]
      for command in CELL_COMMANDS
      for flag, value in (("-n", "-1"), ("--depth", "-3"), ("-d", "0"), ("-d", "9"))),
    ["map", "-n", "abc", "0/2^1", "0/2^1"],
    ["unmap", "-d", "1", "-n", "1", f"{LONG}/2^20000"],
    ["unmap", "-d", "1", "-n", "1", f"1/2^{LONG}"],
    ["verify", "cells", "-n", LONG],
    ["unmap", "x" * 3000],
    ["unmap", "-d", "1", "-n", "1", f"{LONG[:4000]}/2^1"],
    ["verify", "uniformity", "-N", LONG],
    ["verify", "uniformity", "-k", LONG[:3000]],
    ["sample", *SPEC_FILE, "--depth", LONG[:4000]],
    ["sample", "--spec", "x" * 200],
    ["sample", *SPEC_FILE, "-N", "2", "-o", "no-such-dir/" + "x" * 288],
    [], ["-h"], ["--help"], ["map", "-h"], ["verify", "-h"], ["sample", "--help"],
    ["MAP"], ["ma", "1/2^1"], ["--", "map", "1/2^1"],
    ["map", "--dim", "2", "-n", "3", "1/2^1", "1/2^1"],
    ["map", "--depth=3", "1/2^1", "1/2^1"],
    ["map", "-d2", "-n3", "1/2^1", "1/2^1"],
    ["map", "--d", "2", "1/2^1", "1/2^1"],
    ["map", "-d", "2", "-n", "2", "--", "1/2^1", "1/2^1"],
    ["unmap", "-d", "2", "-n", "2", "6/4^2"],
    ["verify", "cells", "-d", "2", "-n", "3"],
    ["verify", "uniformity", "-N", "30000", "-k", "8", "--seed", "7"],
    ["sample", *SPEC_FILE, "-N", "3", "--seed", "1"],
    # left over: the root parser's usage and message, not the command's
    ["unmap", "-d", "2", "-n", "3", "1/4", "1/8"],
    ["map", "1/2", "-d", "2", "1/4"],
    ["map", "-n", "3", "-1/2", "1/2"],
    ["verify", "cells", "-d", "2", "extra"],
    ["sample", *SPEC_FILE, "--bogus"],
]


def _route_id(argv):
    return " ".join("SPEC" if arg == COIN_UNIFORM else arg for arg in argv)[:60]


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=_route_id)
def test_each_command_parses_as_the_root_parser_does(capsys, monkeypatch, argv):
    # main gives the exit code, stdout, stderr and namespace that
    # PARSER.parse_args followed by the handler gives
    def namespace():
        try:
            args = vars(cli._parse(list(argv)))
        except SystemExit:
            args = None
        capsys.readouterr()
        return args

    direct = run_exit(capsys, *argv), namespace()
    monkeypatch.setattr(cli, "_parse", cli.PARSER.parse_args)
    assert (run_exit(capsys, *argv), namespace()) == direct


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS, ids=_route_id)
def test_workload_commands_parse_without_argparse(monkeypatch, argv):
    expected = vars(cli.PARSER.parse_args(argv))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert vars(cli._parse(list(argv))) == expected


# tokens of every kind `cli._read` meets: commands and suites, each option
# string and spellings it leaves to argparse, integers that int() reads or
# refuses, values, and the spec file
COMMAND_OPTIONS = {
    "map": ["-d", "--dimension", "-n", "--depth"],
    "unmap": ["-d", "--dimension", "-n", "--depth"],
    "verify": ["-d", "--dimension", "-n", "--depth", "-N", "--samples", "-k", "--grid",
               "--seed"],
    "sample": ["--spec", "-N", "--draws", "--seed", "--depth", "-o", "--output"]}
OPTION_STRINGS = sorted({flag for flags in COMMAND_OPTIONS.values() for flag in flags})
SCALARS = ["1/2^1", "0b0.1", "3/2^2", "-1/2", "1/3^2", "1/2^\u0661", "", "x"]
VALUE_TOKENS = ["0", "1", "2", "3", "8", "9", "-1", "1_0", " 2", "+2", "\u0662", "x",
                *SCALARS, COIN_UNIFORM]
TOKENS = [*COMMAND_OPTIONS, *measure.SUITES, "nonsense", *OPTION_STRINGS,
          "--dim", "--depth=3", "-d2", "--", "-", "-h", *VALUE_TOKENS]
POSITIONALS = {"map": SCALARS, "unmap": SCALARS, "verify": [*measure.SUITES, "nonsense"]}


@st.composite
def command_lines(draw):
    """A command name or any token; options of the command, each with a
    value, around one run of positionals; at times one token of any kind
    anywhere after the first."""
    first = draw(st.sampled_from(TOKENS if draw(st.integers(0, 3)) == 0
                                 else [*COMMAND_OPTIONS]))
    # mostly values any option takes, at times a token of any kind
    value = st.sampled_from(["2", "3", "1", "0"] * 16 + TOKENS)
    options = st.lists(st.tuples(st.sampled_from(COMMAND_OPTIONS.get(first, TOKENS)),
                                 value), max_size=3)
    before, run, after = (draw(options),
                          draw(st.lists(st.sampled_from(POSITIONALS.get(first, TOKENS)),
                                        max_size=3)),
                          draw(options))
    argv = [first, *(token for pair in before for token in pair), *run,
            *(token for pair in after for token in pair)]
    if draw(st.integers(0, 2)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
# a line for each rule of the plain form: `--`, a value starting with '-',
# a missing value, a broken run, a choice, a count, a required option
@example(["map", "--", "1/2^1"])
@example(["sample", "--spec", "--draws"])
@example(["unmap", "1/2^1", "-n"])
@example(["map", "1/2^1", "-d", "2", "1/2^1"])
@example(["verify", "nonsense"])
@example(["unmap", "1/2^1", "1/2^1"])
@example(["sample", "-N", "2"])
def test_read_accepts_only_what_the_root_parser_reads_alike(argv):
    # parsing only: a drawn suite may be far too large to run
    args = cli._read(argv)
    if args is not None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = cli.PARSER.parse_args(argv)
        assert vars(args) == vars(expected)


@pytest.mark.parametrize("name", ["m\u00fc", "m\\u00fc"], ids=["utf-8", "json-escape"])
def test_sample_files_are_utf_8_in_the_c_locale(tmp_path, name):
    # the spec is read and the CSV written as UTF-8 whatever the locale:
    # in the C locale without UTF-8 mode both were once ASCII, exit 2
    spec = tmp_path / "spec.json"
    spec.write_bytes(('{"name": "%s", "atoms": [{"at": "0", "mass": "1"}]}' % name).encode())
    out = tmp_path / "out.csv"
    code, _, _ = _fresh("sample", "--spec", str(spec), "-N", "2", "-o", str(out),
                        LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (code, out.read_bytes()) == (0, b"m\xc3\xbc\r\n0.0\r\n0.0\r\n")


def test_sample_to_ascii_stdout_names_the_column_and_o(tmp_path):
    # stdout keeps its stream's encoding: a name it cannot spell exits 2
    # before any row, naming the column cut short, the encoding and -o
    spec = tmp_path / "spec.json"
    name = "m\u00fc" + "x" * 300
    spec.write_text(json.dumps({"distributions": [
        {"atoms": [{"at": "0", "mass": "1"}]},
        {"name": name, "atoms": [{"at": "0", "mass": "1"}]}]}))
    code, out, err = _fresh("sample", "--spec", str(spec), "-N", "2",
                            LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (code, out) == (2, "")
    assert err.startswith("error: column 'm\\xfcxxx") and "..." in err
    assert err.endswith(" in its encoding ascii; -o/--output writes UTF-8\n")
    assert len(err) < 200


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32-be"])
def test_sample_spec_may_be_utf_16_or_32(tmp_path, capsys, encoding):
    spec = tmp_path / "spec.json"
    spec.write_bytes('{"name": "\u00fc", "atoms": [{"at": "1/2", "mass": "1"}]}'.encode(encoding))
    assert run(capsys, "sample", "--spec", str(spec), "-N", "1") == (0, "\u00fc\r\n0.5\r\n", "")


@pytest.mark.parametrize("mass", [" 1/2 ", "0.5\n", "\u0661/\u0662", "\u0660.\u0665", "0.5_0",
                                  "1_0/20", "1 / 2", "1/-2", "0x1", "inf", "NaN", "1e", ""])
def test_sample_number_strings_take_one_spelling(tmp_path, capsys, mass):
    # Decimal and Fraction read some of these on one Python version and
    # not on another; a spec file loads alike on every version
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"atoms": [{"at": "0", "mass": mass}]}))
    assert run(capsys, "sample", "--spec", str(spec), "-N", "1") == \
        (2, "", f"error: mass: not an exact number: {mass!r}\n")


@pytest.mark.parametrize("at,value", [("1/3", "0.3333333333333333"), ("-0.5", "-0.5"),
                                      ("1e-3", "0.001"), (".5", "0.5"), ("+1/2", "0.5"),
                                      ("5.", "5.0"), ("-2E+1", "-20.0")])
def test_sample_number_strings_spelt_in_ascii_load(tmp_path, capsys, at, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"atoms": [{"at": at, "mass": "1"}]}))
    assert run(capsys, "sample", "--spec", str(spec), "-N", "1") == \
        (0, f"coord1\r\n{value}\r\n", "")
