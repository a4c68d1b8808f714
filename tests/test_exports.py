"""Every name a module lists in __all__ resolves, so no export outlives its definition,
and a process that never scores a window loads no scipy."""

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


def test_cli_import_and_threshold_episode_load_no_scipy():
    # scipy supplies only the classifier head's sigmoid, so a process that
    # never scores a window never loads scipy; a network monitor loads it when
    # built, before the episode's first control cycle rather than inside one
    src = str(Path(handover_sim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, handover_sim.cli\n"
            "from handover_sim.detector import ReleaseMonitor, init_network\n"
            "from handover_sim.harness import Scenario, run_handover\n"
            "run_handover(Scenario(release='threshold'))\n"
            "print(*sys.modules)\n"
            "ReleaseMonitor(init_network(hidden=2, dense1=2, dense2=2))\n"
            "print(*sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    threshold, network = (line.split() for line in out.splitlines())
    loaded = [name for name in threshold if name.partition(".")[0] == "scipy"]
    assert not loaded, f"handover_sim.cli and a threshold episode loaded {sorted(loaded)}"
    assert "scipy.special" in network
