import importlib
import pkgutil

import pytest

import vfcontrol

# every module but the command-line front end declares its public names
LIBRARY = sorted(info.name for info in pkgutil.iter_modules(vfcontrol.__path__) if info.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"vfcontrol.{name}")
    stale = [export for export in module.__all__ if not hasattr(module, export)]
    assert stale == []
