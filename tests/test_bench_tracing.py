"""The traced benchmark rebinds package names from outside the package.

``bench/tracing.py`` wraps functions and methods by name where the pipeline
looks them up, so a refactor that renames or removes one of them would break
``bench/run.py --trace 1`` without touching any test.  These tests instrument
a fresh tracer, run a small greedy fit or open-loop solve through the
wrappers and restore.
"""

import importlib.util
from pathlib import Path

import numpy as np

import vfcontrol.explore
import vfcontrol.vkoga
from vfcontrol.kernels import WendlandC4
from vfcontrol.models import build_linear
from vfcontrol.openloop import OpenLoopConfig
from vfcontrol.riccati import quadratic_matrix
from vfcontrol.vkoga import VkogaConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_instruments_and_restores():
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    tracing.instrument(tracer)
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
        rng = np.random.default_rng(62)
        points = rng.uniform(-1.2, 1.2, size=(12, 2))
        values = np.exp(-np.sum(points * points, axis=1))
        grads = -2.0 * points * values[:, None]
        result = vfcontrol.vkoga.run_vkoga(
            WendlandC4(dim=2, gamma=0.5), points, values, grads, VkogaConfig(max_centers=5)
        )
        spans = tracer.aggregate()
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    steps = len(result.steps)
    assert steps == 5
    assert tracer.counters["numerics.cg_solve.iterations"] == steps
    assert spans["hermite.HermiteOperator.matvec"]["calls"] == 2 * steps
    assert spans["hermite.fit"]["calls"] == steps


def test_traced_open_loop_solve_factors_once_per_newton_step():
    """``openloop.splu`` is the banded LU, one per Newton iteration, and
    ``pmp_rhs`` sees residual-sized batches only: 2K + 1 rows per residual,
    K + 1 per Jacobian (the node slopes that place the midpoints) and K for
    the refinement defects, K the number of intervals; no finite-difference
    batch of 2 nz times as many rows."""
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    model = build_linear([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]])
    config = OpenLoopConfig(n_nodes=30, refine_rounds=0)
    qm = quadratic_matrix(model)
    tracing.instrument(tracer)
    try:
        sol = vfcontrol.explore.solve_open_loop(model, np.array([0.7, -0.2]), qm, config)
        spans = tracer.aggregate()
    finally:
        tracer.restore()
    k = config.n_nodes
    iterations = sol.newton_iterations
    assert iterations >= 1
    assert tracer.counters["openloop.newton_iterations"] == iterations
    assert spans["openloop.splu"]["calls"] == iterations
    residuals = spans["openloop.bvp_residual"]["calls"]
    rows = residuals * (2 * k + 1) + iterations * (k + 1) + k
    assert tracer.counters["models.pmp_rhs.rows"] == rows
