"""Command-line front end: explore, fit, cross-validate, evaluate, simulate.

One JSON config drives every run, so results are reproducible from it alone.
``load_config`` builds it once into the :class:`Config` every command reads,
each section through the constructor it feeds: its signature gives the keys,
the required ones and their types.  So every command checks the whole config
before it starts, and any fault is a :class:`ConfigError` naming its key.
Artifacts (datasets, surrogates, reports, curves) are plain JSON or CSV with
no timestamps; running the same command twice writes identical bytes.
Failures print a one-line JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Union, get_args, get_origin

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
from .models import ControlAffineModel, build_model
from .openloop import OpenLoopConfig
from .riccati import quadratic_matrix
from .vkoga import VkogaConfig, run_vkoga, write_trace

CONFIG_SCHEMA = "vfcontrol-config-v1"
RUN_SCHEMA = "vfcontrol-run-v1"

TOP_LEVEL_KEYS = ("schema", "model", "kernel", "explore", "fit", "evaluate")
# the generator of each kind of candidate pool
POOLS = {"grid": candidate_grid, "sobol": candidate_sobol, "modes": candidate_modes}
# the JSON values each checked annotation takes; others are left to the constructor
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,), dict: (dict,), type(None): (type(None),)}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """Everything the commands use; ``counts`` and ``horizon`` are keys of the ``evaluate`` section."""

    model: ControlAffineModel
    kernels: dict  # "plain" and "structured", of the config's two widths
    candidates: np.ndarray
    explore: ExploreConfig
    fit: VkogaConfig
    test_states: np.ndarray
    counts: list = field(default_factory=lambda: [10, 20, 40, 80])
    horizon: Optional[float] = None

    def __post_init__(self):
        if not (self.counts and all(type(c) is int and c >= 1 for c in self.counts)):
            raise ValueError(f"counts must be a nonempty list of positive integers, got {self.counts!r}")


def _fits(value, kind) -> bool:
    if get_origin(kind) is Union:
        return any(_fits(value, k) for k in get_args(kind))
    return type(value) in JSON_TYPES.get(kind, (type(value),))


def _object(section: str, spec) -> dict:
    if type(spec) is not dict:
        raise ConfigError(f"{section} must be a JSON object, got {spec!r}")
    return spec


def _build(section: str, build, spec, extra=(), **given):
    """``build`` called on ``given`` and on the keys of the ``spec`` section.

    The parameters of ``build`` that ``given`` leaves open are the keys the
    section may hold, besides the ``extra`` ones its caller reads; those
    without a default are required, and an annotation in ``JSON_TYPES``
    fixes the value's type.
    """
    params = {k: p for k, p in inspect.signature(build, eval_str=True).parameters.items() if k not in given}
    unknown = _object(section, spec).keys() - params.keys() - set(extra)
    if unknown:
        raise ConfigError(f"unknown keys {[f'{section}.{key}' for key in sorted(unknown)]}")
    args = {key: value for key, value in spec.items() if key in params}
    for key, param in params.items():
        if key not in args and param.default is param.empty:
            raise ConfigError(f"{section}.{key} is missing")
        if key in args and not _fits(args[key], param.annotation):
            needs = inspect.formatannotation(param.annotation)
            raise ConfigError(f"{section}.{key} must be {needs}, got {args[key]!r}")
    try:
        return build(**args, **given)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section} {json.dumps(spec)}: {err}") from None


def _kernels(dim: int, gamma: float, gamma_structured: Optional[float] = None) -> dict:
    """The plain kernel of width ``gamma`` and the structured one, whose width falls back to it."""
    wide = gamma if gamma_structured is None else gamma_structured
    return {"plain": WendlandC4(dim, float(gamma)), "structured": StructuredKernel(WendlandC4(dim, float(wide)))}


def _pool(section: str, spec, model, extra=()) -> np.ndarray:
    """The states a spec ``{"kind": ..., **arguments of that kind's generator}`` draws."""
    if spec is None:
        raise ConfigError(f"{section} is missing")
    kind = _object(section, spec).get("kind")
    if kind not in POOLS:
        raise ConfigError(f"{section}.kind: unknown candidate kind {kind!r}, expected one of {sorted(POOLS)}")
    # a Sobol pool's seed defaults to 0, a mode pool's grid side to the model's
    defaults = {"sobol": {"seed": 0}, "modes": {k: v for k, v in model.params.items() if k == "grid_side"}}
    pool = _build(section, POOLS[kind], {**defaults.get(kind, {}), **spec}, extra=("kind", *extra))
    if pool.shape[0] == 0 or pool.shape[1] != model.dim_state:
        found = f"{pool.shape[0]} states of dim {pool.shape[1]}"
        raise ConfigError(f"{section} {json.dumps(spec)} draws {found}; the model needs one or more of dim {model.dim_state}")
    return pool


def load_config(path) -> Config:
    """The config at ``path``, built and checked section by section."""
    with open(path) as fh:
        cfg = _object("config", json.load(fh))
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}, expected {CONFIG_SCHEMA!r}")
    unknown = cfg.keys() - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    sections = {name: _object(name, cfg.get(name, {})) for name in TOP_LEVEL_KEYS[1:]}
    explore, evaluate = sections["explore"], sections["evaluate"]
    model = _build("model", build_model, sections["model"])
    testset = _pool("evaluate.testset", evaluate.get("testset"), model, extra=("size",))
    size = evaluate["testset"].get("size", min(8, testset.shape[0]))
    if type(size) is not int or size < 1:
        raise ConfigError(f"evaluate.testset.size must be a positive integer, got {size!r}")
    solver = _build("explore.solver", OpenLoopConfig, explore.get("solver", {}))
    return _build(
        "evaluate",
        Config,
        evaluate,
        extra=("testset",),
        model=model,
        kernels=_build("kernel", _kernels, sections["kernel"], dim=model.dim_state),
        candidates=_pool("explore.candidates", explore.get("candidates"), model),
        explore=_build("explore", ExploreConfig, explore, extra=("candidates", "solver"), solver=solver),
        fit=_build("fit", VkogaConfig, sections["fit"]),
        test_states=testset[farthest_point_order(testset, size)[0]],
    )


def _dataset_for(model, path):
    """The dataset at ``path``, after checking that it samples the model's state space."""
    dataset = load_dataset(path)
    if dataset.dim != model.dim_state:
        raise ConfigError(f"dataset {path} has dim {dataset.dim}, but the model's state has dim {model.dim_state}")
    return dataset


def _kernel(config: Config, variant: str):
    """The kernel of ``variant`` and the quadratic matrix it needs, None for plain."""
    return config.kernels[variant], quadratic_matrix(config.model) if variant == "structured" else None


def cmd_explore(args) -> int:
    config = load_config(args.config)
    dataset = run_exploration(config.model, config.candidates, quadratic_matrix(config.model), config.explore)
    save_dataset(dataset, args.out)
    print(json.dumps({"trajectories": dataset.n_trajectories, "samples": dataset.n_samples, "out": args.out}))
    return 0


def cmd_fit(args) -> int:
    config = load_config(args.config)
    dataset = _dataset_for(config.model, getattr(args, "in"))
    kernel, qm = _kernel(config, args.variant)
    pts, vals, gds = dataset.flattened(include_origin=takes_origin_sample(kernel))
    fit = config.fit if args.centers is None else replace(config.fit, max_centers=args.centers)
    result = run_vkoga(kernel, pts, vals, gds, config=fit, q_matrix=qm)
    save_surrogate(result.surrogate, args.out)
    if args.trace:
        write_trace(result, args.trace)
    sur = result.surrogate
    out = {"variant": sur.variant, "centers": sur.n_centers, "final_residual": result.final_residual, "out": args.out}
    print(json.dumps(out))
    return 0


def cmd_cv(args) -> int:
    config = load_config(args.config)
    dataset = _dataset_for(config.model, getattr(args, "in"))
    kernel, qm = _kernel(config, args.variant)
    report = cross_validate(kernel, dataset, config=config.fit, n_folds=args.folds, q_matrix=qm)
    save_cv_report(report, args.out)
    print(json.dumps({"max_residual": report.max_residual, "mean_residual": report.mean_residual, "out": args.out}))
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    model = config.model
    dataset = _dataset_for(model, getattr(args, "in"))
    kernel, qm = _kernel(config, "structured")
    references = solve_testset(model, config.test_states, qm, config.explore.solver)
    plain = config.kernels["plain"]
    rows = center_curve(model, dataset, plain, kernel, qm, config.counts, references, config.fit, config.horizon)
    write_curves(rows, args.out)
    print(json.dumps(rows[-1]))
    return 0


def cmd_simulate(args) -> int:
    model = load_config(args.config).model
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
    commands = {
        "explore": (cmd_explore, "generate value data along optimal trajectories"),
        "fit": (cmd_fit, "greedy surrogate fit from a dataset"),
        "cv": (cmd_cv, "trajectory-level cross-validation"),
        "evaluate": (cmd_evaluate, "closed-loop error versus center count"),
        "simulate": (cmd_simulate, "closed-loop rollout under a fitted surrogate"),
    }
    p = {}
    for name, (fn, text) in commands.items():
        p[name] = sub.add_parser(name, help=text)
        p[name].set_defaults(fn=fn)
        p[name].add_argument("--config", required=True)
        if name in ("fit", "cv", "evaluate"):
            p[name].add_argument("--in", dest="in", required=True)
        p[name].add_argument("--out", required=True)
    for name in ("fit", "cv"):
        p[name].add_argument("--variant", choices=["plain", "structured"], default="plain")
    p["fit"].add_argument("--centers", type=int, default=None)
    p["fit"].add_argument("--trace", default=None)
    p["cv"].add_argument("--folds", type=int, default=5)
    p["simulate"].add_argument("--surrogate", required=True)
    p["simulate"].add_argument("--x0", required=True, help="start state as a JSON list")
    p["simulate"].add_argument("--horizon", type=float, default=20.0)
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
