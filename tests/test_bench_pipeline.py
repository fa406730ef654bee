"""The benchmark's pipeline module builds package objects at import time.

``bench/pipeline.py`` constructs ``OpenLoopConfig`` and ``VkogaConfig``
instances with keyword arguments when it is loaded, ``build_inputs`` calls
the model, Riccati and candidate generators by name, and ``run_pass`` and
``gate`` call the explore, fit and evaluate API, so a change to one of those
signatures would break ``bench/run.py`` without touching any other test.
These tests load the module from its file, build every workload's
configuration and the ``amp2d`` inputs, and run one tiny gated pass of each
workload.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PIPELINE = Path(__file__).resolve().parents[1] / "bench" / "pipeline.py"


@pytest.fixture(scope="module")
def pipeline():
    spec = importlib.util.spec_from_file_location("bench_pipeline", PIPELINE)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["amp2d", "nhe36"])
def test_workloads_build(pipeline, name):
    full = pipeline.workload(name)
    tiny = pipeline.workload(name, tiny=True)
    assert tiny.model == full.model
    assert tiny.fit.max_centers < full.fit.max_centers


def test_amp2d_inputs_build(pipeline):
    inputs = pipeline.build_inputs(pipeline.workload("amp2d", tiny=True), seed=11)
    assert inputs.candidates.shape == (512, 2)
    assert inputs.test_states.shape == (2, 2)
    assert inputs.q_matrix.shape == (2, 2)
    assert np.all(np.isfinite(inputs.q_matrix))


@pytest.mark.parametrize("name", ["amp2d", "nhe36"])
def test_one_tiny_pass_passes_every_gate(pipeline, name):
    inputs = pipeline.build_inputs(pipeline.workload(name, tiny=True), seed=11)
    p = pipeline.run_pass(inputs)
    assert pipeline.gate(inputs, p, pipeline.baseline_mrl2(inputs, p.references)) == []
    assert set(pipeline.digests(p)) == {"dataset", "references", "plain", "structured"}
