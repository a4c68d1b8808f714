"""Every name a module lists in __all__ resolves, so no export outlives its definition."""

import importlib
import pkgutil

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
