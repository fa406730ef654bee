"""The traced benchmark rebinds package names from outside the package.

``bench/tracing.py`` wraps functions and methods by name where the pipeline
looks them up, so a refactor that renames or removes one of them would break
``bench/run.py --trace 1`` without touching any test.  This test instruments
a fresh tracer, runs a small greedy fit through the wrappers and restores.
"""

import importlib.util
from pathlib import Path

import numpy as np

import vfcontrol.vkoga
from vfcontrol.kernels import WendlandC4
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
