import json

import pytest

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


def test_precision_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CUBEFOLD_PRECISION", "8")
    code, out, _ = run(capsys, "map", "-d", "2", "-n", "2", "1/2^2", "3/2^2")
    assert code == 0
