"""Data-driven optimal feedback control with Hermite kernel surrogates.

The pipeline: solve open-loop optimality systems to generate value-function
data along optimal trajectories, explore the initial-state set greedily,
fit a kernel surrogate of the value function matrix-free, and close the
loop with the surrogate gradient.
"""

from .models import ControlAffineModel, build_model, optimal_control, pmp_rhs, hjb_residual
from .kernels import WendlandC4, StructuredKernel
from .riccati import solve_are, quadratic_matrix
from .hermite import Surrogate, fit, load_surrogate, save_surrogate
from .vkoga import run_vkoga
from .openloop import OpenLoopConfig, solve_open_loop, to_trajectory
from .explore import Dataset, farthest_point_order, run_exploration, load_dataset, save_dataset
from .evaluate import simulate_feedback, mrl2_error, cross_validate

__version__ = "0.1.0"
