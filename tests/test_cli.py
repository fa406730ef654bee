import csv
import json
from pathlib import Path

import numpy as np
import pytest

from vfcontrol.cli import main
from vfcontrol.explore import load_dataset
from vfcontrol.hermite import load_surrogate


def write_config(tmp_path, **overrides):
    cfg = {
        "schema": "vfcontrol-config-v1",
        "model": {"name": "lqr", "params": {"A": [[-1.0]], "B": [[1.0]]}},
        "kernel": {"gamma": 1.0},
        "explore": {
            "n_trajectories": 5,
            "horizon": 10.0,
            "candidates": {"kind": "grid", "bounds": [[-1.0, 1.0]], "n_per_axis": 7},
            "solver": {"n_nodes": 60, "refine_rounds": 0, "samples": 8},
        },
        "fit": {"max_centers": 12, "cg_tol": 1e-8, "nugget": 1e-9},
        "evaluate": {
            "testset": {"kind": "grid", "bounds": [[-1.0, 1.0]], "n_per_axis": 5, "size": 3},
            "counts": [3, 6],
            "horizon": 10.0,
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_pipeline_runs_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path)
    data = str(tmp_path / "data.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trajectories"] == 5
    assert out["samples"] > 5
    dataset = load_dataset(data)
    assert dataset.n_trajectories == 5

    plain = str(tmp_path / "plain.json")
    trace = str(tmp_path / "trace.csv")
    assert main(["fit", "--config", config, "--in", data, "--out", plain, "--trace", trace]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["variant"] == "plain"
    assert 0 < out["centers"] <= 12
    sur = load_surrogate(plain)
    assert sur.variant == "plain"
    with open(trace, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == out["centers"]

    structured = str(tmp_path / "structured.json")
    assert (
        main(["fit", "--config", config, "--in", data, "--out", structured, "--variant", "structured"]) == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert load_surrogate(structured).variant == "structured"

    cv = str(tmp_path / "cv.json")
    assert main(["cv", "--config", config, "--in", data, "--out", cv, "--folds", "2"]) == 0
    capsys.readouterr()
    report = json.loads(open(cv).read())
    assert report["schema"] == "vfcontrol-cv-v1"
    assert len(report["folds"]) == 2

    curves = str(tmp_path / "curves.csv")
    assert main(["evaluate", "--config", config, "--in", data, "--out", curves]) == 0
    capsys.readouterr()
    with open(curves, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n_centers"]) for r in rows] == [3, 6]
    assert all(np.isfinite(float(r["mrl2_plain"])) for r in rows)

    run_path = str(tmp_path / "run.json")
    assert (
        main(["simulate", "--config", config, "--surrogate", plain, "--x0", "[0.8]", "--out", run_path]) == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert not out["escaped"] and out["integrator_failed"] is False
    doc = json.loads(open(run_path).read())
    assert doc["schema"] == "vfcontrol-run-v1"
    assert doc["escaped"] is False and doc["integrator_failed"] is False
    assert doc["rhs_evaluations"] > 0
    assert doc["jacobian_evaluations"] >= 0
    # a good scalar fit lands near the optimal cost q x0^2
    q = np.sqrt(2.0) - 1.0
    assert doc["cost"] == pytest.approx(q * 0.64, rel=0.05)
    assert abs(doc["states"][-1][0]) < 0.05


def test_explore_output_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["explore", "--config", config, "--out", str(a)]) == 0
    assert main(["explore", "--config", config, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_every_artifact_reruns_byte_identically(tmp_path, capsys):
    """Two runs of fit (plain, and structured with its trace), cv and
    evaluate on one dataset write the same bytes."""
    config = write_config(tmp_path)
    data = str(tmp_path / "data.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    commands = {
        "plain.json": ["fit"],
        "structured.json": ["fit", "--variant", "structured", "--trace", "{dir}/trace.csv"],
        "cv.json": ["cv", "--folds", "2"],
        "curves.csv": ["evaluate"],
    }
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        for name, (command, *options) in commands.items():
            options = [option.format(dir=out) for option in options]
            assert main([command, "--config", config, "--in", data, "--out", str(out / name), *options]) == 0
    capsys.readouterr()
    for name in [*commands, "trace.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_structured_cv_runs_on_the_bundled_lqr_config(tmp_path, capsys):
    """The scalar problem's value function is the quadratic model itself, so
    each fold's structured right-hand side is rounding noise; cross-validation
    still fits every fold."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "lqr.json")
    data = str(tmp_path / "data.json")
    cv = str(tmp_path / "cv.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    assert main(["cv", "--config", config, "--in", data, "--out", cv, "--variant", "structured"]) == 0
    capsys.readouterr()
    report = json.loads(open(cv).read())
    assert len(report["folds"]) == 5
    assert all(fold["n_centers"] > 0 for fold in report["folds"])


def test_wrong_schema_fails_with_a_json_error(tmp_path, capsys):
    config = write_config(tmp_path, schema="vfcontrol-config-v99")
    assert main(["explore", "--config", config, "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "schema" in err["error"]


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    assert main(["explore", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "nope.json" in err["error"]


def test_missing_kernel_gamma_is_reported(tmp_path, capsys):
    config = write_config(tmp_path, kernel={})
    data = str(tmp_path / "data.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    capsys.readouterr()
    assert main(["fit", "--config", config, "--in", data, "--out", str(tmp_path / "s.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "kernel.gamma" in err["error"]


@pytest.mark.parametrize(
    "section, typo",
    [
        ("explore.solver", "n_steps"),
        ("explore", "n_trajectory"),
        ("fit", "max_centre"),
        ("kernel", "gama"),
        ("evaluate", "count"),
        ("model", "param"),
        ("model.params", "cost_matrix"),
        ("explore.candidates", "n_per_axes"),
        ("evaluate.testset", "sise"),
        ("top-level", "fitt"),
    ],
)
def test_unknown_config_key_is_rejected(tmp_path, capsys, section, typo):
    config = write_config(tmp_path)
    cfg = json.loads((tmp_path / "config.json").read_text())
    spec = cfg
    for key in section.split(".") if section != "top-level" else ():
        spec = spec[key]
    spec[typo] = 1
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["explore", "--config", config, "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert typo in err["error"] and section in err["error"]
    assert not (tmp_path / "x.json").exists()


def test_unknown_candidate_kind_is_rejected(tmp_path, capsys):
    config = write_config(
        tmp_path,
        explore={"n_trajectories": 2, "candidates": {"kind": "present"}},
    )
    assert main(["explore", "--config", config, "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "candidate kind" in err["error"]


def test_mode_candidates_take_no_frequencies(tmp_path, capsys):
    """The mode frequencies are fixed, so a config that names them fails loudly."""
    config = write_config(
        tmp_path,
        explore={"n_trajectories": 2, "candidates": {"kind": "modes", "grid_side": 2, "frequencies": [1, 2]}},
    )
    assert main(["explore", "--config", config, "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "frequencies" in err["error"]


def test_simulate_rejects_a_misshapen_start(tmp_path, capsys):
    config = write_config(tmp_path)
    data = str(tmp_path / "data.json")
    plain = str(tmp_path / "plain.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    assert main(["fit", "--config", config, "--in", data, "--out", plain]) == 0
    capsys.readouterr()
    assert (
        main(["simulate", "--config", config, "--surrogate", plain, "--x0", "[0.1, 0.2]", "--out", str(tmp_path / "r.json")])
        == 1
    )
    err = json.loads(capsys.readouterr().err)
    assert "shape" in err["error"]
