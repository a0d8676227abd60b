"""Workload set-up: turn the seeded family descriptions into ready program
objects (parsed and compiled curves and radii, validated configurations,
solved minimal-radius profiles).

Run as a script it is the fresh interpreter whose start-to-ready time is
the `setup_s` metric: it reads the families as JSON lines on stdin, imports
canal4, sets every family up and prints one JSON line with its own import
time and module count.
"""
from __future__ import annotations

import sys
import time

if __name__ == "__main__":
    _T0 = time.perf_counter()
    _N0 = len(sys.modules)
    import canal4  # noqa: F401  (timed: the import is part of set-up)
    _T_IMPORT = time.perf_counter() - _T0
    _N_IMPORT = len(sys.modules) - _N0

from dataclasses import dataclass

from canal4 import expr
from canal4.analysis import solve_minimal_radius
from canal4.canal import CanalConfig, RadiusProfile, Variant, validate_config
from canal4.curve import CurveSpec

from inputs import MINIMAL, Family


@dataclass
class Ready:
    """A family's program objects, checked admissible."""

    family: Family
    curve: CurveSpec
    config: CanalConfig


def radius_profile(family: Family):
    if family.radius_kind == "expr":
        return RadiusProfile.from_expr(family.radius)
    if family.radius_kind == "constant":
        return RadiusProfile.from_constant(float(family.radius))
    if family.radius_kind == "minimal":
        return solve_minimal_radius(MINIMAL["eps1_lambda"], MINIMAL["c1"], MINIMAL["r0"],
                                    family.domain, MINIMAL["sign"])
    return None


def prepare(family: Family) -> Ready:
    curve = CurveSpec(family.components, family.domain)
    a_free = None
    if family.a_free is not None:
        a_free = tuple(expr.parse(text, ("s", "t", "w")) for text in family.a_free)
    config = CanalConfig(family.j, family.lam, radius_profile(family), family.sigma,
                         Variant(family.variant), a_free)
    report = validate_config(curve, config)
    if not report.passed:
        raise RuntimeError(f"{family.name} is inadmissible: {'; '.join(report.reasons)}")
    return Ready(family, curve, config)


def family_from_json(doc) -> Family:
    doc = dict(doc)
    if doc.get("a_free") is not None:
        doc["a_free"] = tuple(doc["a_free"])
    return Family(**doc)


if __name__ == "__main__":
    import json
    families = [family_from_json(json.loads(line)) for line in sys.stdin if line.strip()]
    for fam in families:
        prepare(fam)
    print(json.dumps({"import_s": _T_IMPORT, "import_modules": _N_IMPORT,
                      "families": len(families)}), flush=True)
