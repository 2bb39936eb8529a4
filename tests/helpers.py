"""Shared test helpers, and the reference formulas that only the tests
evaluate: the l1 epiderivatives and the Lagrangian value."""
import numpy as np

from ralm.convex import ZERO_CLASS_TOL, ScaledL1, _second_order_blocks
from ralm.manifolds import Manifold, Point, project_tangent, sphere_point
from ralm.problems import ProblemInstance, require_set_multiplier, sphere_l1_problem, tilted_instance


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


def epiderivative_down(theta: ScaledL1, x, d, zero_tol: float = ZERO_CLASS_TOL) -> float:
    """First directional epiderivative of the l1 penalty at x in direction d.

    mu * ( sum_{x_i=0} |d_i| + sum_{x_i>0} d_i - sum_{x_i<0} d_i ).
    """
    x = np.ravel(np.asarray(x, dtype=float))
    d = np.ravel(np.asarray(d, dtype=float))
    zero = np.abs(x) <= zero_tol
    return theta.mu * float(np.sum(np.abs(d[zero])) + np.sum(np.sign(x[~zero]) * d[~zero]))


def epiderivative_down2(theta: ScaledL1, x, xi, w, zero_tol: float = ZERO_CLASS_TOL) -> float:
    """Second directional epiderivative of the l1 penalty (convex in w), on
    the sign blocks ``psi_conjugate`` uses."""
    w = np.ravel(np.asarray(w, dtype=float))
    kink, up, down = _second_order_blocks(x, xi, zero_tol)
    return theta.mu * float(np.sum(np.abs(w[kink])) + np.sum(w[up]) - np.sum(w[down]))


def lagrangian_value(p: ProblemInstance, x: Point, y, z=None) -> float:
    """L(x, y, z) = f(x) + <y, g1(x)> + <z, g2(x)> (z-term absent without Q;
    z required with Q)."""
    require_set_multiplier(p, z, "z")
    xa = x.ambient
    val = p.f.value_grad(xa)[0] + float((np.asarray(y) * p.g1.value(xa)).sum())
    if p.g2 is not None:
        val += float((np.asarray(z) * p.g2.value(xa)).sum())
    return val
