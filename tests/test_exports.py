"""Every name a module lists in __all__ resolves, so no export outlives its definition,
and importing the CLI loads no scipy subpackage that the run time does not use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import handover_sim

MODULES = sorted(
    ["handover_sim"]
    + [info.name for info in pkgutil.walk_packages(handover_sim.__path__, "handover_sim.")]
)


def test_every_module_is_listed():
    assert {"handover_sim", "handover_sim.detector", "handover_sim.detector.runtime", "handover_sim.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_cli_import_pulls_in_no_heavy_scipy_subpackage():
    # plans are closed-form polynomials, so nothing at run time needs scipy's
    # interpolation stack; scipy.special (the head's expit) is the one user
    src = str(Path(handover_sim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, handover_sim.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    heavy = {"scipy.interpolate", "scipy.linalg", "scipy.sparse", "scipy.optimize"}
    loaded = heavy & set(out.split())
    assert not loaded, f"importing handover_sim.cli loaded {sorted(loaded)}"
