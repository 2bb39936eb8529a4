"""Augmented Lagrangian optimization on matrix manifolds.

Solves  min f(x) + theta(g1(x))  s.t.  g2(x) in Q  over the unit sphere or
the fixed-rank matrix manifold, and numerically verifies the optimality
conditions (strict constraint qualification, second-order sufficiency),
calmness and two-sided KKT error bounds at the computed solutions.
"""

from .convex import Box, ScaledL1
from .manifolds import FixedRank, Point, RankDeficiencyError, Sphere
from .problems import RMC, CircleExample, ProblemInstance, SphereL1, build_family
from .solver import ALMConfig, ALMResult, SolveStatus, alm_run

__all__ = [
    "ALMConfig",
    "ALMResult",
    "Box",
    "CircleExample",
    "FixedRank",
    "Point",
    "ProblemInstance",
    "RMC",
    "RankDeficiencyError",
    "ScaledL1",
    "SolveStatus",
    "Sphere",
    "SphereL1",
    "alm_run",
    "build_family",
]

__version__ = "0.1.0"
