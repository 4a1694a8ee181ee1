import json
import math

import pytest

from hilbertgeom import triangles
from hilbertgeom.cli import SWEEP_HEADER, main

DISK_SPEC = '{"type": "pball", "p": 2}'
SQUARE_SPEC = '{"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}'


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_golden(capsys):
    code, out, _ = _run(capsys, ["dist", "--spec", DISK_SPEC, "0", "0", "0.5", "0"])
    assert code == 0
    assert out.strip() == "0.549306"


def test_dist_equal_points_prints_zero(capsys):
    code, out, _ = _run(capsys, ["dist", "--spec", DISK_SPEC, "0.3", "0.2", "0.3", "0.2"])
    assert code == 0
    assert out.strip() == "0"


def test_dist_exterior_point_exits_2(capsys):
    code, out, err = _run(capsys, ["dist", "--spec", DISK_SPEC, "2", "0", "0.5", "0"])
    assert code == 2
    assert "point not interior" in err


def test_dist_spec_from_file(tmp_path, capsys):
    spec = tmp_path / "disk.json"
    spec.write_text(DISK_SPEC)
    code, out, _ = _run(capsys, ["dist", "--spec", str(spec), "0", "0", "0.5", "0"])
    assert code == 0
    assert out.strip() == "0.549306"


def test_area_disk_symmetric_triangle(capsys):
    third = 2.0 * math.pi / 3.0
    code, out, _ = _run(capsys, ["area", "--spec", DISK_SPEC, "0", str(third), str(2.0 * third)])
    assert code == 0
    blob = json.loads(out)
    assert blob["diverged"] is False
    assert abs(blob["value"] - math.pi) / math.pi <= 1e-2


def test_area_tol_contract(capsys):
    third = 2.0 * math.pi / 3.0
    argv = ["area", "--spec", DISK_SPEC, "0", str(third), str(2.0 * third)]
    _, out_loose, _ = _run(capsys, argv + ["--tol", "1e-3"])
    _, out_tight, _ = _run(capsys, argv + ["--tol", "5e-4"])
    loose, tight = json.loads(out_loose), json.loads(out_tight)
    assert abs(tight["value"] - loose["value"]) <= loose["error_bound"]


def test_area_invalid_triangle_exits_2(capsys):
    code, _, err = _run(capsys, ["area", "--spec", SQUARE_SPEC, "0", "0.25", "0.5"])
    assert code == 2
    assert "side in boundary" in err


def test_normalize_disk_symmetric(capsys):
    third = 2.0 * math.pi / 3.0
    code, out, _ = _run(capsys, ["normalize", "--spec", DISK_SPEC, "0", str(third), str(2.0 * third)])
    assert code == 0
    blob = json.loads(out)
    assert blob["alpha"] == pytest.approx(0.5, abs=1e-9)
    assert blob["vertex_residual"] <= 1e-8


def test_normalize_invalid_triangle_exits_2(capsys):
    code, _, err = _run(capsys, ["normalize", "--spec", SQUARE_SPEC, "0", "0.25", "0.5"])
    assert code == 2
    assert "side in boundary" in err


def test_sweep_csv_contract(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["sweep", "--grid", "2", "--budget", "4", "--seed", "9"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    text = out_a.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "pball"
    assert fields[1] == "2"
    assert fields[-1] == "9"
    # byte-identical reruns
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_empty_grid_exits_2(capsys):
    code, _, err = _run(capsys, ["sweep", "--grid"])
    assert code == 2
    assert "empty" in err


def test_sweep_rejects_bad_family():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "banana"])
    assert exc.value.code == 2


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = _run(capsys, ["verify", "mystery"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_graph_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "graph"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) >= 5
    assert all(line.startswith("PASS graph/") for line in lines)


def test_verify_alias(capsys):
    code, out, _ = _run(capsys, ["verify", "lemma-a3"])
    assert code == 0
    assert "graph/" in out


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "budget": 4}))
    out_csv = tmp_path / "c.csv"
    assert main(["sweep", "--grid", "2", "--config", str(cfg), "--out", str(out_csv)]) == 0
    row = out_csv.read_text().strip().split("\n")[1]
    assert row.split(",")[-1] == "5"
    # explicit flag beats the config value
    out_csv2 = tmp_path / "d.csv"
    assert main(["sweep", "--grid", "2", "--config", str(cfg), "--seed", "7", "--out", str(out_csv2)]) == 0
    assert out_csv2.read_text().strip().split("\n")[1].split(",")[-1] == "7"


def test_out_flag_matches_stdout(tmp_path, capsys):
    argv = ["dist", "--spec", DISK_SPEC, "0", "0", "0.5", "0"]
    _, stdout_text, _ = _run(capsys, argv)
    path = tmp_path / "d.txt"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == stdout_text


@pytest.mark.parametrize("argv", [["dist", "--spec", DISK_SPEC, "0", "0", "0.5", "0"], ["verify", "graph"]],
                         ids=["dist", "verify"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # an input error, not a failed check: verify keeps 1 for those
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "missing" / "x.txt")])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "x.txt" in err


def test_area_spec_missing_key_exits_2(capsys):
    code, _, err = _run(capsys, ["area", "--spec", '{"type":"pball"}', "0", "1", "2"])
    assert code == 2
    assert "missing field 'p'" in err


def test_area_spec_wrong_field_type_exits_2(capsys):
    spec = '{"type": "pball", "p": 2, "scale": "x"}'
    code, _, err = _run(capsys, ["area", "--spec", spec, "0", "1", "2"])
    assert code == 2
    assert "wrong type" in err


def test_config_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = _run(capsys, ["dist", "--spec", DISK_SPEC, "0", "0", "0.5", "0", "--config", str(cfg)])
    assert code == 2
    assert "JSON object" in err


def test_area_zero_tol_exits_2(capsys):
    code, _, err = _run(capsys, ["area", "--spec", DISK_SPEC, "0", "1", "2", "--tol", "0"])
    assert code == 2
    assert "tol must be positive" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_budget_below_one_exits_2(tmp_path, capsys, budget):
    code, out, err = _run(capsys, ["verify", "comparison", "--budget", budget])
    assert code == 2
    assert out == ""
    assert "budget must be at least 1" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": int(budget)}))
    code, out, err = _run(capsys, ["verify", "comparison", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "budget must be at least 1" in err


@pytest.mark.parametrize("seed", [-1, -4])
def test_negative_seed_exits_2(tmp_path, capsys, seed):
    code, out, err = _run(capsys, ["verify", "comparison", "--seed", str(seed), "--budget", "1"])
    assert (code, out) == (2, "")
    assert "seed must be non-negative" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    code, out, err = _run(capsys, ["verify", "comparison", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "seed must be non-negative" in err


@pytest.mark.parametrize(
    "field",
    [{"budget": 2.5}, {"budget": True}, {"budget": "4"}, {"seed": 1.9}, {"seed": False}, {"seed": None},
     {"tol": True}, {"tol": "1e-3"}, {"tol": [0.001]}],
)
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(field))
    code, out, err = _run(capsys, ["verify", "comparison", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert f"config field {next(iter(field))!r} must be" in err


def test_config_accepts_integer_tol(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1, "seed": 3, "budget": 2}))
    code, out, _ = _run(capsys, ["dist", "--spec", DISK_SPEC, "0", "0", "0.5", "0", "--config", str(cfg)])
    assert code == 0
    assert out.strip() == "0.549306"


@pytest.mark.parametrize("spec", ['{"type": "pball", "p": NaN}', '{"type": "pball", "p": Infinity}',
                                  '{"type": "power-cap", "alpha": NaN}', '{"type": "ellipse", "rotation": NaN}'])
def test_dist_non_finite_domain_parameter_exits_2(capsys, spec):
    code, out, err = _run(capsys, ["dist", "--spec", spec, "0", "0", "0.1", "0"])
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("argv", [["sweep", "--grid", "1e17", "--budget", "1"],
                                  ["sweep", "--grid", "1e308", "--budget", "1"],
                                  ["dist", "--spec", '{"type": "pball", "p": 1e17}', "0", "0", "0.1", "0"],
                                  ["sweep", "--grid", "0.5", "--budget", "1"]],
                         ids=["sweep-1e17", "sweep-1e308", "spec-1e17", "sweep-0.5"])
def test_pball_exponent_above_2_to_52_exits_2(capsys, argv):
    # the sweep printed a sup_area of 0 at 1e17 and NaN deltas at 1e308; below
    # 1 it prints PBall's own message for the whole range, as a spec does
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "2**52" in err


def test_sweep_without_a_valid_sampled_triangle_exits_2(monkeypatch, capsys):
    # such a row read sup_area 0.000000 with exit 0
    monkeypatch.setattr(triangles, "_sample_triples", lambda domain, config: [(0.1, 0.1, 0.1)])
    code, out, err = _run(capsys, ["sweep", "--grid", "2", "--budget", "1"])
    assert (code, out) == (2, "")
    assert "no sampled triple is a valid ideal triangle" in err
