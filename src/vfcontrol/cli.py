"""Command-line front end: explore, fit, cross-validate, evaluate, simulate.

Every run is driven by one JSON config describing the model, the kernel, and
the stage parameters, so results are reproducible from the config alone.
Artifacts (datasets, surrogates, reports, curves) are plain JSON or CSV with
no timestamps; running the same command twice writes identical bytes.
Failures print a one-line JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .evaluate import center_curve, cross_validate, save_cv_report, simulate_feedback, write_curves
from .explore import (
    ExploreConfig,
    candidate_grid,
    candidate_modes,
    candidate_sobol,
    farthest_point_order,
    load_dataset,
    run_exploration,
    save_dataset,
    solve_testset,
)
from .hermite import load_surrogate, save_surrogate, takes_origin_sample
from .kernels import StructuredKernel, WendlandC4
from .models import build_model
from .openloop import OpenLoopConfig
from .riccati import quadratic_matrix
from .vkoga import VkogaConfig, run_vkoga, write_trace

CONFIG_SCHEMA = "vfcontrol-config-v1"
RUN_SCHEMA = "vfcontrol-run-v1"

TOP_LEVEL_KEYS = {"schema", "model", "kernel", "explore", "fit", "evaluate"}

# sections that do not map onto a config dataclass, with their fixed keys
SECTION_KEYS = {
    "model": {"name", "params"},
    "kernel": {"gamma", "gamma_structured"},
    "evaluate": {"testset", "counts", "horizon"},
}
# keys of a candidate-pool spec besides "kind", per kind
CANDIDATE_KEYS = {
    "grid": {"bounds", "n_per_axis"},
    "sobol": {"bounds", "n", "seed"},
    "modes": {"grid_side", "amplitude_range", "n_amplitude"},
}


class ConfigError(ValueError):
    pass


def _check_keys(spec: dict, known, section: str) -> None:
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown {section} options {sorted(unknown)}")


def _from_section(cls, spec: dict, section: str, **given):
    """A config dataclass from one JSON section plus the fields the caller gives.

    A key that names no other field of ``cls`` is an error.
    """
    _check_keys(spec, {f.name for f in fields(cls)} - set(given), section)
    return cls(**spec, **given)


def explore_from_config(cfg: dict) -> ExploreConfig:
    section = {k: v for k, v in cfg.get("explore", {}).items() if k != "candidates"}
    solver = _from_section(OpenLoopConfig, section.pop("solver", {}), "explore.solver")
    return _from_section(ExploreConfig, section, "explore", solver=solver)


def vkoga_from_config(cfg: dict) -> VkogaConfig:
    return _from_section(VkogaConfig, cfg.get("fit", {}), "fit")


def load_config(path) -> dict:
    """Read and validate a config: every command rejects a typo in any section."""
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}, expected {CONFIG_SCHEMA!r}")
    _check_keys(cfg, TOP_LEVEL_KEYS, "top-level")
    if "model" not in cfg or "name" not in cfg["model"]:
        raise ConfigError("config needs a model section with a name")
    for section, known in SECTION_KEYS.items():
        _check_keys(cfg.get(section, {}), known, section)
    if "candidates" in cfg.get("explore", {}):
        _candidate_kind(cfg["explore"]["candidates"], "explore.candidates")
    if "testset" in cfg.get("evaluate", {}):
        _candidate_kind(cfg["evaluate"]["testset"], "evaluate.testset", extra=("size",))
    explore_from_config(cfg)
    vkoga_from_config(cfg)
    return cfg


def model_from_config(cfg: dict):
    section = cfg["model"]
    return build_model(section["name"], section.get("params", {}))


def kernel_from_config(cfg: dict, model, variant: str):
    """The kernel of ``variant`` and the quadratic matrix it needs, None for plain."""
    section = cfg.get("kernel", {})
    if "gamma" not in section:
        raise ConfigError("config needs kernel.gamma")
    gamma = float(section["gamma"])
    if variant == "structured":
        gamma = float(section.get("gamma_structured", gamma))
        return StructuredKernel(WendlandC4(dim=model.dim_state, gamma=gamma)), quadratic_matrix(model)
    return WendlandC4(dim=model.dim_state, gamma=gamma), None


def _dataset_for(model, path):
    """The dataset at ``path``, after checking that it samples the model's state space."""
    dataset = load_dataset(path)
    if dataset.dim != model.dim_state:
        raise ConfigError(f"dataset {path} has dim {dataset.dim}, but the model's state has dim {model.dim_state}")
    return dataset


def _candidate_kind(spec: dict, section: str, extra=()) -> str:
    """The kind of a candidate-pool spec, after checking its keys against that kind's."""
    kind = spec.get("kind")
    if kind not in CANDIDATE_KEYS:
        raise ConfigError(f"unknown candidate kind {kind!r}")
    _check_keys(spec, CANDIDATE_KEYS[kind] | {"kind", *extra}, section)
    return kind


def candidates_from_config(spec: dict, model) -> np.ndarray:
    kind = _candidate_kind(spec, "candidate")
    if kind == "grid":
        return candidate_grid(spec["bounds"], int(spec["n_per_axis"]))
    if kind == "sobol":
        try:
            return candidate_sobol(spec["bounds"], int(spec["n"]), int(spec.get("seed", 0)))
        except ValueError as err:
            raise ConfigError(f"sobol candidates {json.dumps(spec)}: {err}") from None
    options = {k: v for k, v in spec.items() if k not in ("kind", "grid_side")}
    grid_side = int(spec.get("grid_side", model.params.get("grid_side", 0)))
    if grid_side <= 0:
        raise ConfigError("mode candidates need a grid side")
    return candidate_modes(grid_side, **options)


def _testset_states(cfg: dict, model) -> np.ndarray:
    spec = cfg.get("evaluate", {}).get("testset")
    if spec is None:
        raise ConfigError("config needs evaluate.testset")
    pool = candidates_from_config({k: v for k, v in spec.items() if k != "size"}, model)
    size = int(spec.get("size", min(8, pool.shape[0])))
    idx, _ = farthest_point_order(pool, size)
    return pool[idx]


def cmd_explore(args) -> int:
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    qm = quadratic_matrix(model)
    candidates = candidates_from_config(cfg.get("explore", {}).get("candidates", {}), model)
    dataset = run_exploration(model, candidates, qm, explore_from_config(cfg))
    save_dataset(dataset, args.out)
    print(json.dumps({"trajectories": dataset.n_trajectories, "samples": dataset.n_samples, "out": args.out}))
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    dataset = _dataset_for(model, getattr(args, "in"))
    kernel, qm = kernel_from_config(cfg, model, args.variant)
    pts, vals, gds = dataset.flattened(include_origin=takes_origin_sample(kernel))
    config = vkoga_from_config(cfg)
    if args.centers is not None:
        config = replace(config, max_centers=args.centers)
    result = run_vkoga(kernel, pts, vals, gds, config=config, q_matrix=qm)
    save_surrogate(result.surrogate, args.out)
    if args.trace:
        write_trace(result, args.trace)
    sur = result.surrogate
    out = {"variant": sur.variant, "centers": sur.n_centers, "final_residual": result.final_residual, "out": args.out}
    print(json.dumps(out))
    return 0


def cmd_cv(args) -> int:
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    dataset = _dataset_for(model, getattr(args, "in"))
    kernel, qm = kernel_from_config(cfg, model, args.variant)
    report = cross_validate(kernel, dataset, config=vkoga_from_config(cfg), n_folds=args.folds, q_matrix=qm)
    save_cv_report(report, args.out)
    print(json.dumps({"max_residual": report.max_residual, "mean_residual": report.mean_residual, "out": args.out}))
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    kernel_plain, _ = kernel_from_config(cfg, model, "plain")
    kernel_structured, qm = kernel_from_config(cfg, model, "structured")
    dataset = _dataset_for(model, getattr(args, "in"))
    section = cfg.get("evaluate", {})
    states = _testset_states(cfg, model)
    references = solve_testset(model, states, qm, explore_from_config(cfg).solver)
    counts = section.get("counts", [10, 20, 40, 80])
    horizon = section.get("horizon")
    rows = center_curve(
        model,
        dataset,
        kernel_plain,
        kernel_structured,
        qm,
        counts,
        references,
        config=vkoga_from_config(cfg),
        horizon=None if horizon is None else float(horizon),
    )
    write_curves(rows, args.out)
    print(json.dumps(rows[-1]))
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    surrogate = load_surrogate(args.surrogate)
    x0 = np.asarray(json.loads(args.x0), dtype=float)
    if x0.shape != (model.dim_state,):
        raise ConfigError(f"start state has shape {x0.shape}, model needs ({model.dim_state},)")
    run = simulate_feedback(model, surrogate, x0, horizon=args.horizon)
    summary = {"cost": run.cost, "escaped": run.escaped, "integrator_failed": run.integrator_failed}
    doc = {
        "schema": RUN_SCHEMA,
        "x0": x0.tolist(),
        **summary,
        "rhs_evaluations": run.rhs_evaluations,
        "jacobian_evaluations": run.jacobian_evaluations,
        "times": run.times.tolist(),
        "states": run.states.tolist(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({**summary, "out": args.out}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vfcontrol", description="Value-function surrogates for feedback control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="generate value data along optimal trajectories")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("fit", help="greedy surrogate fit from a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=["plain", "structured"], default="plain")
    p.add_argument("--centers", type=int, default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("cv", help="trajectory-level cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=["plain", "structured"], default="plain")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("evaluate", help="closed-loop error versus center count")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("simulate", help="closed-loop rollout under a fitted surrogate")
    p.add_argument("--config", required=True)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--x0", required=True, help="start state as a JSON list")
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
