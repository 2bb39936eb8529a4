"""Shared test helpers."""
import numpy as np

from ralm.manifolds import Manifold, Point, project_tangent


def random_tangent(manifold: Manifold, x: Point, seed) -> np.ndarray:
    """Deterministic random tangent vector at x (ambient Gaussian, projected)."""
    rng = np.random.default_rng(seed)
    return project_tangent(manifold, x, rng.standard_normal(manifold.ambient_shape))
