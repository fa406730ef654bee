import csv
import json
from pathlib import Path

import numpy as np
import pytest

from vfcontrol.cli import load_config, main
from vfcontrol.explore import load_dataset
from vfcontrol.hermite import load_surrogate, quadratic_surrogate, save_surrogate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    report = json.loads(Path(cv).read_text())
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
    doc = json.loads(Path(run_path).read_text())
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
    report = json.loads(Path(cv).read_text())
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


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_bundled_config_loads(name):
    """Each bundled config passes validation, and its explore, solver and
    fit sections carry over field by field."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    config = load_config(CONFIGS / f"{name}.json")
    section = cfg["explore"]
    for key, value in section["solver"].items():
        assert getattr(config.explore.solver, key) == value
    for key, value in section.items():
        if key not in ("candidates", "solver"):
            assert getattr(config.explore, key) == value
    for key, value in cfg["fit"].items():
        assert getattr(config.fit, key) == value
    assert config.model.name == cfg["model"]["name"]
    for key in ("counts", "horizon"):
        assert getattr(config, key) == cfg["evaluate"][key]
    assert config.test_states.shape == (cfg["evaluate"]["testset"]["size"], config.model.dim_state)


def test_missing_kernel_gamma_is_reported(tmp_path, capsys):
    """Every command checks the whole config first, so explore, which uses
    no kernel, fails on a missing width as fit does."""
    config = write_config(tmp_path, kernel={})
    data = str(tmp_path / "data.json")
    assert main(["explore", "--config", config, "--out", data]) == 1
    assert "kernel.gamma" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "data.json").exists()
    assert main(["fit", "--config", config, "--in", data, "--out", str(tmp_path / "s.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "kernel.gamma" in err["error"]


@pytest.mark.parametrize(
    "section, typo",
    [
        ("explore.solver", "n_steps"),
        ("explore", "n_trajectory"),
        # module constants (explore.HJB_TOL, openloop.NEWTON_MAX_ITER), not config keys
        ("explore", "hjb_tol"),
        ("explore.solver", "newton_max_iter"),
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


@pytest.mark.parametrize("x0", ["[NaN]", "[Infinity]", "[-Infinity]"])
def test_simulate_names_a_start_that_is_not_finite(artifacts, tmp_path, capsys, x0):
    """One JSON line on stderr naming the start and no run file; the suite
    turns any warning on the way into an error."""
    config, _, plain = artifacts
    run = tmp_path / "run.json"
    capsys.readouterr()
    assert main(["simulate", "--config", config, "--surrogate", plain, "--x0", x0, "--out", str(run)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    value = {"[NaN]": "nan", "[Infinity]": "inf", "[-Infinity]": "-inf"}[x0]
    assert json.loads(err)["error"].endswith(f"row 0 is [{value}, 0.0]")
    assert not run.exists()


@pytest.mark.parametrize("command", [["fit", "--centers", "6"], ["cv", "--folds", "2"], ["evaluate"]])
def test_a_dataset_of_another_dimension_is_rejected(tmp_path, capsys, command):
    """A 1-D lqr dataset given to the 2-D amp model is a config error that
    names both dimensions; fit used to write a kernel of dim 2 over 1-D centers."""
    data = str(tmp_path / "data.json")
    assert main(["explore", "--config", write_config(tmp_path), "--out", data]) == 0
    square = [[-1.0, 1.0]] * 2
    config = write_config(
        tmp_path,
        model={"name": "amp", "params": {"dim": 2}},
        explore={"candidates": {"kind": "grid", "bounds": square, "n_per_axis": 3}},
        evaluate={"testset": {"kind": "grid", "bounds": square, "n_per_axis": 3}, "counts": [3]},
    )
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command[0], "--config", config, "--in", data, "--out", str(out), *command[1:]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "dim 1" in err["error"] and "dim 2" in err["error"]
    assert not out.exists()


def test_simulate_rejects_a_surrogate_of_another_dimension(tmp_path, capsys):
    """A 2-D surrogate on the 1-D lqr model is named as such, not blamed on
    the right-hand side's broadcasting."""
    surrogate = str(tmp_path / "quadratic.json")
    save_surrogate(quadratic_surrogate(np.eye(2)), surrogate)
    config = write_config(tmp_path)
    run = tmp_path / "run.json"
    assert main(["simulate", "--config", config, "--surrogate", surrogate, "--x0", "[0.5]", "--out", str(run)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "surrogate's kernel has dim 2" in err["error"] and "dim 1" in err["error"]
    assert "broadcast" not in err["error"]
    assert not run.exists()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(config, dataset, plain surrogate) of one small valid run."""
    out = tmp_path_factory.mktemp("artifacts")
    config, data, plain = write_config(out), str(out / "data.json"), str(out / "plain.json")
    assert main(["explore", "--config", config, "--out", data]) == 0
    assert main(["fit", "--config", config, "--in", data, "--out", plain]) == 0
    return config, data, plain


def command_line(command, config, artifacts, out):
    """The argv of ``command`` on ``config``, reading the valid run's artifacts."""
    _, data, plain = artifacts
    inputs = {"explore": [], "simulate": ["--surrogate", plain, "--x0", "[0.5]"]}
    return [command, "--config", config, *inputs.get(command, ["--in", data]), "--out", str(out)]


def fails_with_one_json_line(capsys, argv, out) -> str:
    """The error ``main(argv)`` reports on its one stderr line, after checking it wrote nothing."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()
    return json.loads(err)["error"]


def edit(doc, path: str, *value):
    """Set the key at the dotted ``path`` of ``doc`` (an index where the node
    is a list) to the one ``value``, or remove it when none is given."""
    *parents, last = path.split(".")
    for part in parents:
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    if value:
        doc[last] = value[0]
    else:
        del doc[last]


def edited(path, tmp_path, key: str, *value) -> str:
    """A copy in ``tmp_path`` of the JSON file at ``path``, with ``edit`` applied."""
    doc = json.loads(Path(path).read_text())
    edit(doc, key, *value)
    copy = tmp_path / f"edited_{Path(path).name}"
    copy.write_text(json.dumps(doc))
    return str(copy)


# (edit, what the error must name): every config fault is found when the config is read
MALFORMED = {
    "no candidate pool": (("explore.candidates",), ["explore.candidates is missing"]),
    "grid without bounds": (("explore.candidates.bounds",), ["explore.candidates.bounds is missing"]),
    "fractional trajectory budget": (("explore.n_trajectories", 2.5), ["explore.n_trajectories", "2.5"]),
    "fractional amp dimension": (
        ("model", {"name": "amp", "params": {"dim": 2.0}}),
        ["model ", "model parameter dim must be an integer"],
    ),
    "fractional nhe grid side": (
        ("model", {"name": "nhe", "params": {"grid_side": 3.0}}),
        ["model ", "model parameter grid_side must be an integer"],
    ),
    "center budget as a string": (("fit.max_centers", "20"), ["fit.max_centers", "'20'"]),
    "kernel width as a word": (("kernel.gamma", "wide"), ["kernel.gamma", "'wide'"]),
    "no center counts": (("evaluate.counts", []), ["evaluate ", "counts must be"]),
    "empty grid": (("explore.candidates.n_per_axis", 0), ["explore.candidates ", '"n_per_axis": 0', "draws 0 states"]),
    "no kernel width": (("kernel.gamma",), ["kernel.gamma is missing"]),
    "no test set": (("evaluate.testset",), ["evaluate.testset is missing"]),
}


@pytest.mark.parametrize("command", ["explore", "fit", "cv", "evaluate", "simulate"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_command_rejects_a_malformed_config_before_it_starts(tmp_path, capsys, artifacts, case, command):
    """Each fault is one JSON line naming the section and key, from every
    command, with no traceback and no output file; before the config was
    read in one pass, each of these failed late, with a traceback or an
    unnamed error, or not at all."""
    change, needles = MALFORMED[case]
    config = edited(write_config(tmp_path), tmp_path, *change)
    out = tmp_path / "out"
    error = fails_with_one_json_line(capsys, command_line(command, config, artifacts, out), out)
    assert all(needle in error for needle in needles), error


DATASET_KEYS = ["dim", "eps_history", "trajectories", *(f"trajectories.0.{k}" for k in ("x0", "times", "states", "grads", "values"))]
SURROGATE_KEYS = ["kernel", "kernel.dim", "kernel.gamma", "centers", "alphas", "betas", "q_matrix"]


@pytest.mark.parametrize("key", DATASET_KEYS)
def test_a_dataset_without_a_required_key_is_named(tmp_path, capsys, artifacts, key):
    config, data, _ = artifacts
    broken = edited(data, tmp_path, key)
    out = tmp_path / "out.json"
    error = fails_with_one_json_line(capsys, ["fit", "--config", config, "--in", broken, "--out", str(out)], out)
    assert broken in error and repr(key.split(".")[-1]) in error


@pytest.mark.parametrize("key", SURROGATE_KEYS)
def test_a_surrogate_without_a_required_key_is_named(tmp_path, capsys, artifacts, key):
    config, _, plain = artifacts
    broken = edited(plain, tmp_path, key)
    out = tmp_path / "run.json"
    argv = ["simulate", "--config", config, "--surrogate", broken, "--x0", "[0.5]", "--out", str(out)]
    error = fails_with_one_json_line(capsys, argv, out)
    assert broken in error and repr(key.split(".")[-1]) in error


@pytest.mark.parametrize("horizon", ["-1", "0"])
def test_simulate_rejects_a_horizon_that_is_not_positive(tmp_path, capsys, artifacts, horizon):
    """A negative horizon used to integrate backwards in time and report a
    negative cost; it and a zero horizon are now one JSON line naming it."""
    config, _, plain = artifacts
    out = tmp_path / "run.json"
    argv = ["simulate", "--config", config, "--surrogate", plain, "--x0", "[0.5]", "--horizon", horizon, "--out", str(out)]
    error = fails_with_one_json_line(capsys, argv, out)
    assert "horizon must be finite and > 0" in error


@pytest.mark.parametrize("kind", ["dataset", "surrogate"])
def test_an_artifact_that_is_not_json_is_named(tmp_path, capsys, artifacts, kind):
    """An empty file given as a dataset or a surrogate (``/dev/null``, say) is
    one JSON line naming the file and the schema it needs, where it used to
    be the JSON parser's bare ``Expecting value: line 1 column 1``."""
    config, data, plain = artifacts
    empty = tmp_path / "empty.json"
    empty.write_text("")
    out = tmp_path / "out.json"
    if kind == "dataset":
        argv, schema = ["fit", "--config", config, "--in", str(empty), "--out", str(out)], "vfcontrol-dataset-v1"
    else:
        argv = ["simulate", "--config", config, "--surrogate", str(empty), "--x0", "[0.5]", "--out", str(out)]
        schema = "vfcontrol-surrogate-v1"
    error = fails_with_one_json_line(capsys, argv, out)
    assert error.startswith(f"{kind} {empty} is not JSON") and error.endswith(f"expected schema {schema!r}")
