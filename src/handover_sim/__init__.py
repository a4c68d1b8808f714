"""Deterministic simulation of safe, compliant robot-to-human handovers.

Subsystems: serial-arm kinematics, closed-form quintic trajectory planning with a
scalable timing law, Cartesian admittance control, per-link ISO/TS 15066
velocity limiting with an exact online scaling optimization, a learned
force-sequence release detector with a force-threshold baseline, and an
episode harness comparing the two architectures.
"""

from . import admittance, config, detector, harness, kinematics, safety, trajectory

__version__ = "0.1.0"

__all__ = [
    "admittance",
    "config",
    "detector",
    "harness",
    "kinematics",
    "safety",
    "trajectory",
    "__version__",
]
