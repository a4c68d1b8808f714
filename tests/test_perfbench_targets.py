"""The benchmark's tracer wraps only names that the package modules define.

perfbench/bench.py installs span wrappers on (owner, attribute) pairs such as
``handover_sim.harness.transform_wrench``, the name the harness looks up. A
refactor that drops one of those imports breaks only the benchmark, whose own
tests are not part of this suite; this test reads the target lists and
changes nothing under perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("targets", ["_closed_loop_targets", "_training_targets"])
def test_traced_names_are_defined_on_their_owner(bench, targets):
    pairs = getattr(bench, targets)()
    assert pairs
    missing = [label for owner, attr, label in pairs if attr not in owner.__dict__]
    assert not missing, f"traced names missing from their owner: {missing}"
