"""Greedy construction of the training data over the start-state set.

Candidates for start states come from simple generators (tensor grids and
Sobol points for low dimension, a parametric family of smooth fields sampled
on the reaction-diffusion grid for the high-dimensional model).  Exploration
repeatedly promotes the candidate farthest from everything already covered,
with the equilibrium at the origin counting as covered from the start, solves
the open-loop problem there, and keeps the thinned trajectory.  The first
iterates of the solves are rolled out in batches: the rest of the
farthest-first order, planned as if every pick were kept, is one stacked
:func:`~vfcontrol.openloop.initial_guess` call.  A stored trajectory depends
on its start state and, through its guess only, on the starts guessed with
it; no solve starts from another's solution.  The solves of one call share
a :class:`~vfcontrol.openloop.SharedFactor`, so each starts on the initial
mesh with a chord step on the factor the previous solve kept there, which
enters the trajectory below the Newton tolerance.  Solutions that fail their
sanity checks are quarantined: the candidate is dropped, exploration moves
on, and the order is replanned from what is covered, keeping the guesses
already made.  Every sample of a kept trajectory stays in the
dataset, near-duplicates included; the greedy fit decides which samples
become centers.

The recorded selection distances are the fill-distance estimates of the
covered region; they decrease as the candidate set gets eaten.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import openloop
from .models import ControlAffineModel, hjb_residual, nhe_node_coords
from .numerics import read_artifact, require
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
# integer frequencies b, c, e, f of every candidate_modes field
MODE_FREQUENCIES = (1, 2)
# a sample's HJB residual may reach this much, times 1 + r(x), before its
# trajectory is quarantined
HJB_TOL = 1e-6


def candidate_grid(bounds: Sequence[tuple[float, float]], n_per_axis: int) -> np.ndarray:
    """Tensor grid over a box, row-major over axes."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# Joe & Kuo (2008) primitive polynomials, leading and trailing terms included,
# each with its initial direction numbers m_1 .. m_s, for Sobol dimensions 2-16;
# dimension 1 is van der Corput's sequence, every m_j = 1
_JOE_KUO = (
    (3, 1), (7, 1, 3), (11, 1, 3, 1), (13, 1, 1, 1), (19, 1, 1, 3, 3), (25, 1, 3, 5, 13),
    (37, 1, 1, 5, 5, 17), (41, 1, 1, 5, 5, 5), (47, 1, 1, 7, 11, 19), (55, 1, 1, 5, 1, 1),
    (59, 1, 1, 1, 3, 11), (61, 1, 3, 5, 5, 31), (67, 1, 3, 3, 9, 7, 49), (91, 1, 1, 1, 15, 21, 21),
    (97, 1, 3, 1, 13, 27, 49),
)
SOBOL_MAX_DIM = len(_JOE_KUO) + 1
SOBOL_BITS = 30


def _direction_numbers(d: int) -> np.ndarray:
    """The (d, SOBOL_BITS) direction integers, the j-th scaled by 2^(29 - j)."""
    rows = [[1] * SOBOL_BITS]
    for poly, *m in _JOE_KUO[: d - 1]:
        s = len(m)
        for j in range(s, SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        rows.append(m)
    return np.array(rows, dtype=np.int64) << np.arange(SOBOL_BITS - 1, -1, -1)


def candidate_sobol(bounds: Sequence[tuple[float, float]], n: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in a box; the seed fixes the scrambling.

    The unit points are bit for bit scipy's ``qmc.Sobol(d, scramble=True,
    seed=seed).random(n)``: Joe-Kuo direction numbers on 30 bits, scrambled by
    a random lower-triangular bit matrix (Matousek's linear matrix scramble)
    and a digital shift, both drawn from ``default_rng(seed)`` in scipy's
    order, then taken in Gray-code order.  Up to 16 dimensions and 2^30 points.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    if not 1 <= d <= SOBOL_MAX_DIM:
        raise ValueError(f"Sobol points are drawn in 1 to {SOBOL_MAX_DIM} dimensions, not {d}")
    if not 0 <= n <= 2**SOBOL_BITS:
        raise ValueError(f"at most 2**{SOBOL_BITS} Sobol points can be drawn, not {n}")
    if n & (n - 1):
        warnings.warn("The balance properties of Sobol' points require n to be a power of 2.", stacklevel=2)
    rng = np.random.default_rng(seed)
    msb_first = np.arange(SOBOL_BITS - 1, -1, -1)
    shift = rng.integers(0, 2, size=(d, SOBOL_BITS), dtype=np.uint32) @ (1 << msb_first[::-1])
    scramble = np.tril(rng.integers(0, 2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    scramble[:, msb_first, msb_first] = 1
    # each direction integer's bits, most significant first, times the matrix, mod 2
    bits = (_direction_numbers(d)[:, :, None] >> msb_first) & 1
    directions = ((bits @ scramble.transpose(0, 2, 1)) & 1) @ (1 << msb_first)
    # point i + 1 flips the direction of the lowest zero bit of i
    i = np.arange(max(n - 1, 0))
    lowest_zero = np.frexp(i ^ (i + 1))[1] - 1
    points = np.bitwise_xor.accumulate(np.vstack([shift, directions[:, lowest_zero].T]), axis=0)[:n]
    return bounds[:, 0] + points * 2.0**-SOBOL_BITS * (bounds[:, 1] - bounds[:, 0])


def candidate_modes(
    grid_side: int,
    amplitude_range: tuple[float, float] = (-0.25, 0.5),
    n_amplitude: int = 7,
) -> np.ndarray:
    """Smooth initial fields for the reaction-diffusion model, one row per field.

    Each field is a(sin(b pi s1) sin(c pi s2))^2 + d(sin(e pi s1^2) sin(f pi s2))^2
    evaluated at the cell centers, over the tensor product of amplitude grids
    for a, d and the frequencies :data:`MODE_FREQUENCIES` for b, c, e, f.
    """
    coords = nhe_node_coords(grid_side)
    s1 = coords[:, 0]
    s2 = coords[:, 1]
    amps = np.linspace(amplitude_range[0], amplitude_range[1], n_amplitude)
    fields = []
    for a in amps:
        for d in amps:
            for b in MODE_FREQUENCIES:
                for c in MODE_FREQUENCIES:
                    first = a * np.sin(b * np.pi * s1) ** 2 * np.sin(c * np.pi * s2) ** 2
                    for e in MODE_FREQUENCIES:
                        for f in MODE_FREQUENCIES:
                            second = d * np.sin(e * np.pi * s1**2) ** 2 * np.sin(f * np.pi * s2) ** 2
                            fields.append(first + second)
    return np.asarray(fields)


def farthest_point_order(candidates: np.ndarray, n_select: int, dmin: Optional[np.ndarray] = None):
    """Greedy farthest-point ordering of candidates, seeded at the origin.

    Returns (indices, distances): at each step the candidate with the largest
    distance to the origin and all previous picks wins, ties resolving to the
    lowest index.  The distances are the selection-time separations.
    ``dmin``, if given, replaces the distances to the origin as each
    candidate's distance to what is already covered, -inf for a candidate
    already taken; once every candidate is taken, the distances read -inf.
    """
    candidates = np.asarray(candidates, dtype=float)
    m = candidates.shape[0]
    dmin = np.linalg.norm(candidates, axis=1) if dmin is None else np.array(dmin, dtype=float)
    picked: list[int] = []
    dists: list[float] = []
    for _ in range(min(n_select, m)):
        best = int(np.argmax(dmin))
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
    solver: OpenLoopConfig = field(default_factory=OpenLoopConfig)

    def __post_init__(self):
        require(self.n_trajectories >= 1, "n_trajectories", self.n_trajectories, "at least 1")
        require(self.eps_tol_d >= 0.0, "eps_tol_d", self.eps_tol_d, ">= 0")
        require(self.horizon is None or self.horizon > 0.0, "horizon", self.horizon, "None or > 0")


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

    def flattened(self, include_origin: bool = False):
        """All samples as (points, values, grads), trajectory by trajectory,
        with the origin appended as one more sample on request.  Every sample
        is kept; the greedy fit decides which of them become centers."""
        points = [t.states for t in self.trajectories]
        values = [t.values for t in self.trajectories]
        grads = [t.grads for t in self.trajectories]
        if include_origin:
            points.append(np.zeros((1, self.dim)))
            values.append(np.zeros(1))
            grads.append(np.zeros((1, self.dim)))
        if not points:
            return np.zeros((0, self.dim)), np.zeros(0), np.zeros((0, self.dim))
        return np.concatenate(points), np.concatenate(values), np.concatenate(grads)


def _trajectory_checks(model: ControlAffineModel, traj: Trajectory) -> tuple[Optional[str], float]:
    """Why the trajectory is quarantined (None if it is not), and its HJB
    margin: the worst ratio of a sample's HJB residual to its bound."""
    resid = np.abs(hjb_residual(model, traj.states, traj.grads))
    bound = HJB_TOL * (1.0 + model.r(traj.states))
    margin = float(np.max(resid / bound))
    scale = 1.0 + float(np.max(np.abs(traj.values)))
    if np.any(traj.values < -MONOTONE_TOL * scale):
        return "negative value sample", margin
    if np.any(np.diff(traj.values) > MONOTONE_TOL * scale):
        return "value increases along the trajectory", margin
    if np.any(resid > bound):
        return f"residual check failed ({margin:.2f}x over the bound)", margin
    return None, margin


def run_exploration(
    model: ControlAffineModel,
    candidates: np.ndarray,
    q_matrix: np.ndarray,
    config: ExploreConfig = ExploreConfig(),
) -> Dataset:
    """Algorithmic core: farthest-first start states, solves from batch guesses, checks."""
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
    taus = openloop.initial_mesh(config.solver)
    # guesses rolled out but not yet solved from, by candidate index
    guesses: dict[int, np.ndarray] = {}
    shared = openloop.SharedFactor()

    while dataset.n_trajectories < config.n_trajectories and np.any(dmin > -np.inf):
        best = int(np.argmax(dmin))
        gap = float(dmin[best])
        if gap <= config.eps_tol_d:
            break
        if best not in guesses:
            # the rest of the farthest-first order if every pick is kept; a
            # quarantine changes the order, and its replan reuses the guesses
            planned, dists = farthest_point_order(candidates, config.n_trajectories - dataset.n_trajectories, dmin)
            batch = [int(i) for i in planned[dists > config.eps_tol_d] if i not in guesses]
            guesses.update(zip(batch, openloop.initial_guess(model, candidates[batch], taus, q_matrix)))
        x0 = candidates[best]
        dmin[best] = -np.inf

        try:
            sol = solve_open_loop(model, x0, q_matrix, config.solver, guess=guesses.pop(best), shared=shared)
        except BvpFailure as err:
            dataset.meta["quarantined"].append({"index": best, "reason": str(err)})
            continue
        traj = to_trajectory(sol, samples=config.solver.samples, horizon=config.horizon)
        reason, margin = _trajectory_checks(model, traj)
        if reason is not None:
            dataset.meta["quarantined"].append({"index": best, "reason": reason})
            continue

        dataset.trajectories.append(traj)
        dataset.eps_history.append(gap)
        dataset.meta["solves"].append(
            {
                "newton_iterations": sol.newton_iterations,
                "line_search_halvings": sol.line_search_halvings,
                "chord_steps": sol.chord_steps,
                "shared_start": sol.shared_start,
                "refine_rounds": sol.refine_rounds,
                "max_defect": sol.max_defect,
                "hjb_margin": margin,
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
) -> list[BvpSolution]:
    """Reference open-loop solutions for a batch of start states, solved as in exploration.

    The guesses of all the states are one :func:`~vfcontrol.openloop.initial_guess`
    call, so a reference depends on its start and, through its guess only,
    on the other states; the solves share one
    :class:`~vfcontrol.openloop.SharedFactor`, in the order of ``states``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not len(states):
        return []
    guesses = openloop.initial_guess(model, states, openloop.initial_mesh(config), q_matrix)
    shared = openloop.SharedFactor()
    return [solve_open_loop(model, x0, q_matrix, config, guess=guess, shared=shared) for x0, guess in zip(states, guesses)]


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
    """The dataset saved at ``path``; a file that is not a dataset, or a key
    it lacks, is a ValueError naming the file and the schema or the key."""
    doc = read_artifact(path, "dataset", DATASET_SCHEMA)
    try:
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
    except KeyError as err:
        raise ValueError(f"dataset {path} has no key {err.args[0]!r}") from None
