"""Proximal and variational machinery for the scaled l1 penalty and polyhedral sets.

Everything here treats matrices as flattened vectors: the l1 penalty and the
set projections act elementwise.  The sign blocks of the second
epiderivative (``psi_conjugate``) are discontinuous in the base point, so they
are decided with an explicit zero-classification tolerance (default 1e-10);
callers probing numerically converged points can pass a looser one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_CLASS_TOL = 1e-10


@dataclass(frozen=True)
class ScaledL1:
    """theta(u) = mu * sum_i |u_i|.

    mu = 0 is allowed and turns the penalty off (prox becomes the identity),
    which the sphere experiments use as a smooth edge case.
    """

    mu: float

    def __post_init__(self):
        if not 0 <= self.mu < np.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")


def l1_value(theta: ScaledL1, u) -> float:
    return theta.mu * float(np.abs(u).sum())


def prox_residual(theta: ScaledL1, u, t: float) -> np.ndarray:
    """u - prox_{t*theta}(u), i.e. the clamp of u to [-t*mu, t*mu]."""
    if t <= 0:
        raise ValueError("prox parameter t must be positive")
    u = np.asarray(u, dtype=float)
    lim = t * theta.mu
    return u.clip(-lim, lim)


def prox(theta: ScaledL1, u, t: float = 1.0) -> np.ndarray:
    """Soft threshold: prox_{t*theta}(u) = sign(u) * max(|u| - t*mu, 0).

    Implemented as u minus its clamp so the Moreau decomposition
    prox + clamp = u holds in the same floating-point operations.
    """
    u = np.asarray(u, dtype=float)
    return u - prox_residual(theta, u, t)


def moreau_env(theta: ScaledL1, u, rho: float):
    """Moreau envelope value and gradient at parameter rho.

    value = theta(p) + (rho/2) |u - p|^2 with p = prox_{theta/rho}(u);
    grad = rho (u - p), which for the l1 penalty is the elementwise clamp of
    rho*u to [-mu, mu] (a rho-Lipschitz field).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    u = np.asarray(u, dtype=float)
    resid = prox_residual(theta, u, 1.0 / rho)
    p = u - resid
    value = l1_value(theta, p) + 0.5 * rho * float((resid * resid).sum())
    grad = rho * resid
    return value, grad


def _second_order_blocks(x, xi, zero_tol):
    """Index blocks of the second epiderivative: kink, up-sliding, down-sliding."""
    x = np.ravel(np.asarray(x, dtype=float))
    xi = np.ravel(np.asarray(xi, dtype=float))
    zero_x = np.abs(x) <= zero_tol
    zero_xi = np.abs(xi) <= zero_tol
    kink = zero_x & zero_xi
    up = (x > zero_tol) | (zero_x & (xi > zero_tol))
    down = (x < -zero_tol) | (zero_x & (xi < -zero_tol))
    return kink, up, down


@dataclass(frozen=True)
class PsiStar:
    """Conjugate of the second epiderivative: 0 on its domain, +infinity off it."""

    finite: bool

    @property
    def value(self) -> float:
        return 0.0 if self.finite else float("inf")


def psi_conjugate(
    theta: ScaledL1, x, xi, y, tol: float = 1e-8, zero_tol: float = ZERO_CLASS_TOL
) -> PsiStar:
    """sup_w { <y, w> - second epiderivative }, evaluated in closed form.

    The supremum of a linear function minus a piecewise-linear sublinear one
    is 0 when y is blockwise compatible (|y_i| <= mu on the kink block,
    y_i = mu on the up block, y_i = -mu on the down block) and +infinity
    otherwise.
    """
    y = np.ravel(np.asarray(y, dtype=float))
    kink, up, down = _second_order_blocks(x, xi, zero_tol)
    mu = theta.mu
    ok = (
        np.all(np.abs(y[kink]) <= mu + tol)
        and np.all(np.abs(y[up] - mu) <= tol)
        and np.all(np.abs(y[down] + mu) <= tol)
    )
    return PsiStar(finite=bool(ok))


# ---------------------------------------------------------------------------
# polyhedral convex sets


@dataclass(frozen=True)
class Box:
    """{v : lower <= v <= upper} with possibly infinite bounds.

    Every polyhedral set of the experiments is a box: the zero set has bounds
    (0, 0), the nonnegative orthant (0, inf) and the full space (-inf, inf).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape:
            raise ValueError(f"box bounds differ in shape: {lower.shape} vs {upper.shape}")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box bounds must satisfy lower <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def shape(self):
        return self.lower.shape


def project_set(q: Box, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != tuple(q.shape):
        raise ValueError(f"shape mismatch: expected {tuple(q.shape)}, got {v.shape}")
    return v.clip(q.lower, q.upper)


def dist2_grad(q: Box, v, rho: float):
    """(rho/2) dist(v, Q)^2 and its gradient rho (v - proj_Q v)."""
    v = np.asarray(v, dtype=float)
    resid = v - project_set(q, v)
    return 0.5 * rho * float((resid * resid).sum()), rho * resid

