"""Default parameter sets and configuration plumbing.

The default arm is a 6-DoF UR10e-class manipulator described by standard DH
rows. Safety constants and admittance gains default in SafetyParams and
AdmittanceParams; scenario files and --override flags can adjust any of them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .kinematics import ManipulatorModel

__all__ = [
    "default_manipulator",
    "apply_overrides",
    "load_json",
]

# Standard DH rows (a, alpha, d, theta offset) approximating a UR10e-class arm.
_UR10E_DH = [
    [0.0, np.pi / 2, 0.1807, 0.0],
    [-0.6127, 0.0, 0.0, 0.0],
    [-0.57155, 0.0, 0.0, 0.0],
    [0.0, np.pi / 2, 0.17415, 0.0],
    [0.0, -np.pi / 2, 0.11985, 0.0],
    [0.0, 0.0, 0.11655, 0.0],
]
_UR10E_LINK_MASSES = [7.369, 13.051, 3.989, 2.1, 1.98, 0.615]
_UR10E_QD_MAX = [2.094, 2.094, 3.142, 3.142, 3.142, 3.142]
_UR10E_QDD_MAX = [8.0] * 6


def default_manipulator(payload_mass: float = 1.0) -> ManipulatorModel:
    """Six-DoF UR10e-class arm with documented approximate constants."""
    qd = np.asarray(_UR10E_QD_MAX)
    qdd = np.asarray(_UR10E_QDD_MAX)
    return ManipulatorModel(
        joint_count=6,
        dh_rows=np.asarray(_UR10E_DH),
        q_dot_min=-qd,
        q_dot_max=qd,
        q_ddot_min=-qdd,
        q_ddot_max=qdd,
        link_masses=np.asarray(_UR10E_LINK_MASSES),
        payload_mass=payload_mass,
    )


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply repeatable key=value flags with dotted paths into a config dict.

    Values parse as JSON when possible (numbers, booleans, lists) and fall
    back to plain strings. Intermediate dicts are created as needed.
    """
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {key!r} collides with a non-dict entry")
        node[parts[-1]] = value
    return config


def load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
