"""Shared test helpers."""
import numpy as np

from ralm.manifolds import Manifold, Point, project_tangent, sphere_point
from ralm.problems import sphere_l1_problem, tilted_instance


def random_tangent(manifold: Manifold, x: Point, seed) -> np.ndarray:
    """Deterministic random tangent vector at x (ambient Gaussian, projected)."""
    rng = np.random.default_rng(seed)
    return project_tangent(manifold, x, rng.standard_normal(manifold.ambient_shape))


def ray_cone_instance(a_diag, n_rays):
    """A KKT triple (p, x, y) whose critical cone has ``n_rays`` ray rows.

    sphere-l1 with A = diag(a_diag) and mu = 1, tilted by c: f(x) =
    -x^T A^T A x - <c, x> at x = e_0, with c = y = 1 on the n_rays coordinates
    after the first (one ray row each: xi_i >= 0) and c = y = 0 on the rest
    (one equality row each).  On the cone the form is
    2 sum_i (a_0^2 - a_i^2) xi_i^2, so its minimum over the unit cone is
    2 (a_0^2 - max a_i^2) over the ray coordinates.
    """
    n = len(a_diag)
    c = np.zeros(n)
    c[1 : 1 + n_rays] = 1.0
    p = tilted_instance(sphere_l1_problem(np.diag(a_diag), 1.0), a=c)
    y = c.copy()
    y[0] = 1.0
    return p, sphere_point(np.eye(n)[0]), y
