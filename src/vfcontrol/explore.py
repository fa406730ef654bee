"""Greedy construction of the training data over the start-state set.

Candidates for start states come from simple generators (tensor grids and
Sobol points for low dimension, a parametric family of smooth fields sampled
on the reaction-diffusion grid for the high-dimensional model).  Exploration
repeatedly promotes the candidate farthest from everything already covered,
with the equilibrium at the origin counting as covered from the start, solves
the open-loop problem there from scratch, and keeps the thinned trajectory.
Each solve is independent of the others, so a stored trajectory depends only
on its start state, not on which states were explored before it.  Solutions
that fail their sanity checks are quarantined: the candidate is dropped and
exploration moves on.

The recorded selection distances are the fill-distance estimates of the
covered region; they decrease as the candidate set gets eaten.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.stats import qmc

from .models import ControlAffineModel, hjb_residual, nhe_node_coords
from .openloop import BvpFailure, BvpSolution, OpenLoopConfig, Trajectory, solve_open_loop, to_trajectory

__all__ = [
    "candidate_grid",
    "candidate_sobol",
    "candidate_modes",
    "farthest_point_order",
    "ExploreConfig",
    "Dataset",
    "run_exploration",
    "solve_testset",
    "save_dataset",
    "load_dataset",
]

DATASET_SCHEMA = "vfcontrol-dataset-v1"
# stored values may rise or dip below zero by this much, relative to
# 1 + max|v|, before a trajectory is quarantined
MONOTONE_TOL = 1e-9


def candidate_grid(bounds: Sequence[tuple[float, float]], n_per_axis: int) -> np.ndarray:
    """Tensor grid over a box, row-major over axes."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def candidate_sobol(bounds: Sequence[tuple[float, float]], n: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in a box; the seed fixes the scrambling."""
    bounds = np.asarray(bounds, dtype=float)
    sampler = qmc.Sobol(d=bounds.shape[0], scramble=True, seed=seed)
    unit = sampler.random(n)
    return bounds[:, 0] + unit * (bounds[:, 1] - bounds[:, 0])


def candidate_modes(
    grid_side: int,
    amplitude_range: tuple[float, float] = (-0.25, 0.5),
    n_amplitude: int = 7,
    frequencies: Sequence[int] = (1, 2),
) -> np.ndarray:
    """Smooth initial fields for the reaction-diffusion model, one row per field.

    Each field is a(sin(b pi s1) sin(c pi s2))^2 + d(sin(e pi s1^2) sin(f pi s2))^2
    evaluated at the cell centers, over the tensor product of amplitude grids
    for a, d and integer frequency choices for b, c, e, f.
    """
    coords = nhe_node_coords(grid_side)
    s1 = coords[:, 0]
    s2 = coords[:, 1]
    amps = np.linspace(amplitude_range[0], amplitude_range[1], n_amplitude)
    freqs = list(frequencies)
    fields = []
    for a in amps:
        for d in amps:
            for b in freqs:
                for c in freqs:
                    first = a * np.sin(b * np.pi * s1) ** 2 * np.sin(c * np.pi * s2) ** 2
                    for e in freqs:
                        for f in freqs:
                            second = d * np.sin(e * np.pi * s1**2) ** 2 * np.sin(f * np.pi * s2) ** 2
                            fields.append(first + second)
    return np.asarray(fields)


def farthest_point_order(candidates: np.ndarray, n_select: int, seeds: Optional[np.ndarray] = None):
    """Greedy farthest-point ordering of candidates, seeded at the origin.

    Returns (indices, distances): at each step the candidate with the largest
    distance to all seeds and previous picks wins, ties resolving to the
    lowest index.  The distances are the selection-time separations.
    """
    candidates = np.asarray(candidates, dtype=float)
    m = candidates.shape[0]
    if seeds is None:
        seeds = np.zeros((1, candidates.shape[1]))
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    dmin = np.min(np.linalg.norm(candidates[:, None, :] - seeds[None, :, :], axis=2), axis=1)
    picked: list[int] = []
    dists: list[float] = []
    for _ in range(min(n_select, m)):
        best = int(np.argmax(dmin))
        if dmin[best] == -np.inf:
            break
        picked.append(best)
        dists.append(float(dmin[best]))
        gap = np.linalg.norm(candidates - candidates[best], axis=1)
        dmin = np.minimum(dmin, gap)
        dmin[best] = -np.inf
    return np.asarray(picked, dtype=int), np.asarray(dists)


@dataclass(frozen=True)
class ExploreConfig:
    n_trajectories: int = 40
    eps_tol_d: float = 0.0
    horizon: Optional[float] = None
    hjb_tol: float = 1e-6
    solver: OpenLoopConfig = field(default_factory=OpenLoopConfig)


@dataclass
class Dataset:
    """Thinned value-function samples from a batch of open-loop solves."""

    dim: int
    trajectories: list[Trajectory] = field(default_factory=list)
    eps_history: list[float] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def n_samples(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def start_states(self) -> np.ndarray:
        if not self.trajectories:
            return np.zeros((0, self.dim))
        return np.stack([t.x0 for t in self.trajectories])

    def flattened(self, include_origin: bool = False):
        """All samples as (points, values, grads), exact duplicates dropped."""
        points = [t.states for t in self.trajectories]
        values = [t.values for t in self.trajectories]
        grads = [t.grads for t in self.trajectories]
        if include_origin:
            points.append(np.zeros((1, self.dim)))
            values.append(np.zeros(1))
            grads.append(np.zeros((1, self.dim)))
        pts = np.concatenate(points) if points else np.zeros((0, self.dim))
        vals = np.concatenate(values) if values else np.zeros(0)
        gds = np.concatenate(grads) if grads else np.zeros((0, self.dim))
        seen: dict[bytes, int] = {}
        keep = []
        for i in range(pts.shape[0]):
            key = pts[i].tobytes()
            if key in seen:
                continue
            seen[key] = i
            keep.append(i)
        keep = np.asarray(keep, dtype=int)
        return pts[keep], vals[keep], gds[keep]

    def prefix(self, n: int) -> "Dataset":
        meta = dict(self.meta)
        if "solves" in meta:
            meta["solves"] = meta["solves"][:n]
        return Dataset(
            dim=self.dim,
            trajectories=self.trajectories[:n],
            eps_history=self.eps_history[:n],
            meta=meta,
        )

    @property
    def c_max_state(self) -> float:
        pts, _, _ = self.flattened()
        return float(np.max(np.linalg.norm(pts, axis=1))) if pts.size else 0.0

    @property
    def c_max_value(self) -> float:
        _, vals, gds = self.flattened()
        if vals.size == 0:
            return 0.0
        return float(np.max(np.abs(vals) + np.linalg.norm(gds, axis=1)))


def _trajectory_checks(model: ControlAffineModel, traj: Trajectory, config: ExploreConfig) -> Optional[str]:
    scale = 1.0 + float(np.max(np.abs(traj.values)))
    if np.any(traj.values < -MONOTONE_TOL * scale):
        return "negative value sample"
    if np.any(np.diff(traj.values) > MONOTONE_TOL * scale):
        return "value increases along the trajectory"
    resid = np.abs(hjb_residual(model, traj.states, traj.grads))
    bound = config.hjb_tol * (1.0 + model.r(traj.states))
    if np.any(resid > bound):
        worst = float(np.max(resid / bound))
        return f"residual check failed ({worst:.2f}x over the bound)"
    return None


def run_exploration(
    model: ControlAffineModel,
    candidates: np.ndarray,
    q_matrix: np.ndarray,
    config: ExploreConfig = ExploreConfig(),
) -> Dataset:
    """Algorithmic core: farthest-first start states, independent solves, checks."""
    candidates = np.asarray(candidates, dtype=float)
    m = candidates.shape[0]
    dataset = Dataset(
        dim=model.dim_state,
        meta={
            "model": model.name,
            "quarantined": [],
            # solver counters of each stored trajectory, in storage order
            "solves": [],
            "c_max_candidates": float(np.max(np.linalg.norm(candidates, axis=1))) if m else 0.0,
        },
    )
    dmin = np.linalg.norm(candidates, axis=1)

    while dataset.n_trajectories < config.n_trajectories and np.any(dmin > -np.inf):
        best = int(np.argmax(dmin))
        gap = float(dmin[best])
        if gap == -np.inf or gap <= config.eps_tol_d:
            break
        x0 = candidates[best]
        dmin[best] = -np.inf

        try:
            sol = solve_open_loop(model, x0, q_matrix, config.solver)
        except BvpFailure as err:
            dataset.meta["quarantined"].append({"index": best, "reason": str(err)})
            continue
        traj = to_trajectory(sol, samples=config.solver.samples, horizon=config.horizon)
        reason = _trajectory_checks(model, traj, config)
        if reason is not None:
            dataset.meta["quarantined"].append({"index": best, "reason": reason})
            continue

        dataset.trajectories.append(traj)
        dataset.eps_history.append(gap)
        dataset.meta["solves"].append(
            {
                "newton_iterations": sol.newton_iterations,
                "refine_rounds": sol.refine_rounds,
                "max_defect": sol.max_defect,
            }
        )
        dmin = np.minimum(dmin, np.linalg.norm(candidates - x0, axis=1))

    alive = dmin[dmin > -np.inf]
    dataset.meta["eps_achieved"] = float(np.max(alive)) if alive.size else 0.0
    under_budget = dataset.n_trajectories < config.n_trajectories
    coverage_pending = dataset.meta["eps_achieved"] > config.eps_tol_d
    if under_budget and (coverage_pending or dataset.meta["quarantined"]):
        warnings.warn(
            f"exploration produced {dataset.n_trajectories} of {config.n_trajectories} trajectories",
            stacklevel=2,
        )
    return dataset


def solve_testset(
    model: ControlAffineModel,
    states: np.ndarray,
    q_matrix: np.ndarray,
    config: OpenLoopConfig = OpenLoopConfig(),
    threads: int = 1,
) -> list[BvpSolution]:
    """Reference open-loop solutions for a batch of start states, solved as in exploration.

    ``threads`` solves run concurrently; the answers do not depend on it.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))

    def solve(x0):
        return solve_open_loop(model, x0, q_matrix, config)

    if threads <= 1 or len(states) <= 1:
        return [solve(x0) for x0 in states]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(solve, states))


def save_dataset(dataset: Dataset, path) -> None:
    doc = {
        "schema": DATASET_SCHEMA,
        "dim": dataset.dim,
        "eps_history": list(map(float, dataset.eps_history)),
        "meta": dataset.meta,
        "trajectories": [
            {
                "x0": t.x0.tolist(),
                "times": t.times.tolist(),
                "states": t.states.tolist(),
                "grads": t.grads.tolist(),
                "values": t.values.tolist(),
            }
            for t in dataset.trajectories
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != DATASET_SCHEMA:
        raise ValueError(f"unsupported dataset schema {doc.get('schema')!r}")
    trajectories = [
        Trajectory(
            x0=np.asarray(t["x0"], dtype=float),
            times=np.asarray(t["times"], dtype=float),
            states=np.asarray(t["states"], dtype=float),
            grads=np.asarray(t["grads"], dtype=float),
            values=np.asarray(t["values"], dtype=float),
        )
        for t in doc["trajectories"]
    ]
    return Dataset(
        dim=int(doc["dim"]),
        trajectories=trajectories,
        eps_history=[float(e) for e in doc["eps_history"]],
        meta=doc.get("meta", {}),
    )
