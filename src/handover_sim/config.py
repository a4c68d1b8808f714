"""Default parameter sets and configuration plumbing.

The default arm is a 6-DoF UR10e-class manipulator described by standard DH
rows. Safety constants and admittance gains default in SafetyParams and
AdmittanceParams; scenario files and --override flags can adjust any of them.
Every parameter type checks its own fields with check_fields when it is built.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .kinematics import ManipulatorModel

__all__ = [
    "ARM_JOINTS",
    "default_manipulator",
    "apply_overrides",
    "load_json",
    "check_fields",
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
ARM_JOINTS = len(_UR10E_DH)  # the joint count of the arm every episode runs


def default_manipulator(payload_mass: float = 1.0) -> ManipulatorModel:
    """Six-DoF UR10e-class arm with documented approximate constants."""
    return ManipulatorModel(
        dh_rows=np.asarray(_UR10E_DH),
        q_dot_max=np.asarray(_UR10E_QD_MAX),
        q_ddot_max=np.asarray(_UR10E_QDD_MAX),
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


def check_fields(obj, *, positive: str = "", non_negative: str = "", finite: str = "", integers: str = "") -> None:
    """Raise ValueError naming the first listed field of obj its consumer cannot use.

    Each argument is a space-separated list of field names. Every listed field
    must be a finite real number, so NaN and inf fail; fields listed under
    positive or non_negative must also be > 0 or >= 0, and fields listed under
    integers must also be integers.
    """
    for names, need, ok in (
        (positive, "finite and > 0", lambda v: v > 0.0),
        (non_negative, "finite and >= 0", lambda v: v >= 0.0),
        (finite, "finite", lambda v: True),
        (integers, "an integer", lambda v: isinstance(v, numbers.Integral)),
    ):
        for name in names.split():
            value = getattr(obj, name)
            try:
                good = isinstance(value, numbers.Real) and math.isfinite(value) and ok(value)
            except OverflowError:  # an integer beyond the float range
                good = False
            if not good:
                raise ValueError(f"{name} must be {need}, got {value!r}")
