"""Augmented Lagrangian optimization on matrix manifolds.

Solves  min f(x) + theta(g1(x))  s.t.  g2(x) in Q  over the unit sphere or
the fixed-rank matrix manifold, and numerically verifies the optimality
conditions (strict constraint qualification, second-order sufficiency),
calmness and two-sided KKT error bounds at the computed solutions.
"""

from .convex import Box, ScaledL1
from .manifolds import FixedRank, Point, RankDeficiencyError, Sphere
from .problems import ProblemInstance, circle_problem, rmc_problem, sphere_l1_problem
from .solver import ALMConfig, ALMResult, alm_run

__all__ = [
    "ALMConfig",
    "ALMResult",
    "Box",
    "FixedRank",
    "Point",
    "ProblemInstance",
    "RankDeficiencyError",
    "ScaledL1",
    "Sphere",
    "alm_run",
    "circle_problem",
    "rmc_problem",
    "sphere_l1_problem",
]

__version__ = "0.1.0"
