"""Canal and tubular hypersurfaces generated by non-null curves in
Lorentz-Minkowski 4-space: construction, differential invariants, and
numerically verified structural theorems."""

from .analysis import (TheoremReport, check_kh_relation, classify_flat,
                       classify_minimal, solve_minimal_radius, weingarten_check)
from .canal import (CanalConfig, GridSpec, PointMapCache, RadiusProfile,
                    SurfacePatch, Variant, canal_point, canal_points,
                    nullcone_point, sample_grid, validate_config)
from .curvature import CurvatureReport, Route, curvature_report
from .curve import CurveSpec, FrenetFrame
from .expr import Expr, differentiate, evaluate, parse
from .minkowski import Vec4, inner, norm, triple_cross

__version__ = "0.1.0"

__all__ = [
    "CanalConfig", "CurvatureReport", "CurveSpec", "Expr", "FrenetFrame", "GridSpec",
    "PointMapCache", "RadiusProfile", "Route", "SurfacePatch", "TheoremReport", "Variant",
    "Vec4", "canal_point", "canal_points", "check_kh_relation", "classify_flat",
    "classify_minimal", "curvature_report", "differentiate", "evaluate", "inner", "norm",
    "nullcone_point", "parse", "sample_grid", "solve_minimal_radius", "triple_cross",
    "validate_config", "weingarten_check",
]
