import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vfcontrol

# every module but the command-line front end declares its public names
LIBRARY = sorted(info.name for info in pkgutil.iter_modules(vfcontrol.__path__) if info.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"vfcontrol.{name}")
    stale = [export for export in module.__all__ if not hasattr(module, export)]
    assert stale == []


# the open-loop side of the pipeline stands on its own: it never reaches into
# the kernel surrogate, its fit, its evaluation or the command line
SOLVER_SIDE = ["models", "numerics", "riccati", "openloop", "explore"]
SURROGATE_SIDE = {"kernels", "hermite", "vkoga", "evaluate", "cli"}


def package_imports(name: str) -> set[str]:
    """The sibling modules that ``vfcontrol.<name>`` imports, read from its source."""
    tree = ast.parse((Path(vfcontrol.__path__[0]) / f"{name}.py").read_text())
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["vfcontrol" if node.level else "", node.module]))
            dotted += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("vfcontrol.")}


@pytest.mark.parametrize("name", SOLVER_SIDE)
def test_solver_modules_import_nothing_from_the_surrogate_side(name):
    assert package_imports(name) & SURROGATE_SIDE == set()


def test_the_command_line_does_not_import_scipy_stats():
    """``scipy.stats`` takes longer to import than the rest of the package.
    The package draws its own Sobol points, so neither the front end nor the
    amp config's candidate and test pools load it, and no module names it."""
    config = Path(vfcontrol.__path__[0]).parents[1] / "configs" / "amp.json"
    probe = "\n".join(
        [
            "import sys",
            "from vfcontrol.cli import load_config",
            f"config = load_config({str(config)!r})",
            "print(config.candidates.shape, config.test_states.shape, 'scipy.stats' in sys.modules)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vfcontrol.__path__[0]).parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    # the 5 test states are thinned from a pool of 256 Sobol points
    assert out.stdout.strip() == "(512, 2) (5, 2) False"
    naming = [p.name for p in Path(vfcontrol.__path__[0]).rglob("*.py") if "scipy.stats" in p.read_text()]
    assert naming == []
