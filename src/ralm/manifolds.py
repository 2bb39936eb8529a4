"""Closed-form geometry for the unit sphere and the fixed-rank matrix manifold.

Every point keeps its ambient (dense) coordinates; fixed-rank points also
carry their thin-SVD factors.  All Riemannian quantities are obtained by
orthogonal projection onto the tangent space, and retractions map tangent
vectors back onto the manifold:

* ``Sphere(n)``: unit vectors in R^n, tangent space ``{v : <x, v> = 0}``;
  tangent vectors are dense vectors.
* ``FixedRank(m, n, r)``: rank-r matrices in R^{m x n}, represented by a
  thin SVD factorisation ``U diag(s) V^T`` kept consistent with the ambient
  matrix.  ``tangent_vector`` returns a tangent vector as its factors
  (``FixedRankTangent``): its norm and scaling cost O((m + n) r), and
  ``bb_pair`` forms the Barzilai-Borwein triple of the tangent step from
  them in O((m + n) r^2), taking the gradient norms the solver already
  holds.  ``project_tangent`` returns the dense ambient matrix.
  The retraction is the metric projection (a full SVD) when
  min(m, n) <= 50, and above that the orthographic retraction, built from
  the tangent factors with r x r factorizations only; the orthographic path
  made the small analysis commands slower, so small sizes keep the SVD.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Absolute singular-value threshold below which a factor counts as rank deficient.
SV_RANK_TOL = 1e-12
# |norm - 1| of a sphere point (sphere_point, check_point), and check_point's
# entrywise orthonormality and relative reconstruction errors of fixed-rank factors
SPHERE_NORM_TOL = 1e-12
FACTOR_TOL = 1e-10


class RankDeficiencyError(RuntimeError):
    """A retraction result dropped below the required rank."""


@dataclass(frozen=True)
class Sphere:
    """Unit sphere S^{n-1} embedded in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")

    @property
    def ambient_shape(self):
        return (self.n,)

    @property
    def dim(self):
        return self.n - 1


@dataclass(frozen=True)
class FixedRank:
    """Matrices of fixed rank r inside R^{m x n}."""

    m: int
    n: int
    r: int

    def __post_init__(self):
        if not (1 <= self.r <= min(self.m, self.n)):
            raise ValueError(f"rank must satisfy 1 <= r <= min(m, n), got {self.r}")

    @property
    def ambient_shape(self):
        return (self.m, self.n)

    @property
    def dim(self):
        return (self.m + self.n - self.r) * self.r


Manifold = Union[Sphere, FixedRank]


@dataclass(frozen=True)
class Point:
    """A feasible point; fixed-rank points also carry their thin-SVD factors."""

    ambient: np.ndarray
    u: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def sphere_point(vec) -> Point:
    vec = np.asarray(vec, dtype=float)
    nrm = norm(vec)
    if abs(nrm - 1.0) > SPHERE_NORM_TOL:
        raise ValueError(f"not on the unit sphere: |norm - 1| = {abs(nrm - 1.0):.3e}")
    return Point(ambient=_readonly(vec))


def fixed_rank_point_from_factors(u, s, v) -> Point:
    """Build a fixed-rank point from thin-SVD factors (s is the diagonal)."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(s <= SV_RANK_TOL):
        raise RankDeficiencyError(f"singular value below threshold: min(s) = {s.min():.3e}")
    ambient = (u * s) @ v.T
    return Point(ambient=_readonly(ambient), u=_readonly(u), s=_readonly(s), v=_readonly(v))


def nearest_rank_r(manifold: FixedRank, ambient) -> Point:
    """Best rank-r approximation (truncated SVD) of an arbitrary matrix."""
    ambient = np.asarray(ambient, dtype=float)
    uu, ss, vvt = np.linalg.svd(ambient, full_matrices=False)
    r = manifold.r
    if ss[r - 1] <= SV_RANK_TOL:
        raise RankDeficiencyError(f"matrix has numerical rank below {r}")
    # copies, so the point does not keep the whole thin SVD alive
    return fixed_rank_point_from_factors(uu[:, :r].copy(), ss[:r].copy(), vvt[:r].T.copy())


def check_point(manifold: Manifold, x: Point) -> None:
    """Raise if x violates the manifold's feasibility invariants."""
    if isinstance(manifold, Sphere):
        if x.ambient.shape != (manifold.n,):
            raise ValueError("point shape mismatch")
        if abs(norm(x.ambient) - 1.0) > SPHERE_NORM_TOL:
            raise ValueError("sphere point is not unit norm")
        return
    if x.ambient.shape != (manifold.m, manifold.n):
        raise ValueError("point shape mismatch")
    if x.u is None or x.s is None or x.v is None:
        raise ValueError("fixed-rank point is missing factors")
    r = manifold.r
    if x.u.shape != (manifold.m, r) or x.v.shape != (manifold.n, r) or x.s.shape != (r,):
        raise ValueError("factor shape mismatch")
    eye = np.eye(r)
    if np.max(np.abs(x.u.T @ x.u - eye)) > FACTOR_TOL or np.max(np.abs(x.v.T @ x.v - eye)) > FACTOR_TOL:
        raise ValueError("fixed-rank factors are not orthonormal")
    if np.any(x.s <= SV_RANK_TOL):
        raise RankDeficiencyError("fixed-rank point has a vanishing singular value")
    recon = (x.u * x.s) @ x.v.T
    scale = max(1.0, norm(x.ambient))
    if norm(recon - x.ambient) > FACTOR_TOL * scale:
        raise ValueError("ambient matrix inconsistent with factors")


def _check_shape(manifold: Manifold, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != manifold.ambient_shape:
        raise ValueError(f"shape mismatch: expected {manifold.ambient_shape}, got {arr.shape}")
    return arr


class FixedRankTangent:
    """Tangent vector U M V^T + U_p V^T + U V_p^T at the fixed-rank point
    x = U diag(s) V^T, with U^T U_p = 0 and V^T V_p = 0 (Vandereycken, SIAM
    J. Optim. 2013).

    ``t * xi`` scales the factors.  ``np.asarray(xi)`` is the dense ambient
    matrix L R^T of ``factors()``, which is formed once.
    """

    __slots__ = ("x", "m", "u_p", "v_p", "_factors")

    def __init__(self, x: Point, m, u_p, v_p):
        self.x, self.m, self.u_p, self.v_p = x, m, u_p, v_p
        self._factors = None

    def __rmul__(self, t):
        return FixedRankTangent(self.x, t * self.m, t * self.u_p, t * self.v_p)

    def factors(self):
        """(L, R) with xi = L R^T = [U M + U_p, U] [V, V_p]^T."""
        if self._factors is None:
            u, v = self.x.u, self.x.v
            self._factors = (
                np.concatenate((u @ self.m + self.u_p, u), axis=1),
                np.concatenate((v, self.v_p), axis=1),
            )
        return self._factors

    def __array__(self, dtype=None, copy=None):
        left, right = self.factors()
        out = left @ right.T
        return out if dtype is None else out.astype(dtype, copy=False)


def tangent_vector(manifold: Manifold, x: Point, v):
    """Orthogonal projection of an ambient vector onto T_x M, as a dense
    vector on the sphere and as a ``FixedRankTangent`` on the fixed-rank
    manifold.

    The projection is linear, idempotent and self-adjoint in the ambient
    inner product.
    """
    v = _check_shape(manifold, v)
    if isinstance(manifold, Sphere):
        return v - x.ambient * float(x.ambient @ v)
    # P_U C + C P_V - P_U C P_V in factors: with B = C V, A = C^T U and
    # M = U^T B, U_p = B - U M and V_p = A - V M^T
    u, vv = x.u, x.v
    b = v @ vv
    m_core = u.T @ b
    return FixedRankTangent(x, m_core, b - u @ m_core, v.T @ u - vv @ m_core.T)


def project_tangent(manifold: Manifold, x: Point, v) -> np.ndarray:
    """``tangent_vector`` as a dense ambient array."""
    return np.asarray(tangent_vector(manifold, x, v))


def norm(v: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a float array: the arithmetic of
    ``np.linalg.norm(v)``, bit for bit, without its dispatch."""
    w = v.ravel(order="K")
    return math.sqrt(w.dot(w))


def tangent_norm(xi) -> float:
    """Norm of a tangent vector: from the factors of a ``FixedRankTangent``
    (its three terms are orthogonal), else ``norm``."""
    if isinstance(xi, FixedRankTangent):
        return math.sqrt(np.vdot(xi.m, xi.m) + np.vdot(xi.u_p, xi.u_p) + np.vdot(xi.v_p, xi.v_p))
    return norm(xi)


def weingarten(manifold: Manifold, x: Point, g, xi) -> np.ndarray:
    """The Weingarten map at the ambient vector G applied to the tangent
    vector xi (Absil, Mahony & Trumpf, GSI 2013): what the manifold's
    curvature adds to P_x(ehess f(x) xi) in Hess f(x) xi when G is the
    ambient gradient of f.  A dense ambient array.

    Sphere: -<x, G> xi.  Fixed rank: P_U^perp G V_p S^-1 V^T + U S^-1 U_p^T G P_V^perp
    with (M, U_p, V_p) the factors of xi (Vandereycken, SIAM J. Optim. 2013).
    """
    if isinstance(manifold, Sphere):
        return -float((x.ambient * g).sum()) * np.asarray(xi, dtype=float)
    xi = tangent_vector(manifold, x, xi)
    u, v = x.u, x.v
    gv, ug = g @ xi.v_p, xi.u_p.T @ g
    left = (gv - u @ (u.T @ gv)) / x.s
    right = (ug - (ug @ v) @ v.T) / x.s[:, None]
    return left @ v.T + u @ right


def _sphere_exp(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    nrm = norm(xi)
    if nrm == 0.0:
        return x.copy()
    out = np.cos(nrm) * x + np.sin(nrm) * (xi / nrm)
    return out / norm(out)  # kill norm drift over long iterations


def _fixed_rank_retract(manifold: FixedRank, x: Point, xi) -> Point:
    if min(manifold.m, manifold.n) <= 50:
        # small matrices: metric projection, the truncated SVD of x + xi; the
        # small analysis commands ran slower with the orthographic path below
        return nearest_rank_r(manifold, x.ambient + np.asarray(xi))
    # orthographic retraction (Absil & Oseledets, Comput. Optim. Appl. 2015):
    # with K = diag(s) + M, R_x(xi) = left K right^T for left = U + U_p K^-1
    # and right = V + V_p K^-T.  Cholesky QR of both factors, left = Q_a L_a^T,
    # takes Grams of the factors as they are, so orthonormality drift in U
    # and V is repaired at each step; the SVD W S Z^T of the r x r core
    # L_a^T K L_b then gives the new factors Q_a W and Q_b Z.
    if not isinstance(xi, FixedRankTangent):
        xi = tangent_vector(manifold, x, xi)
    k = xi.m.copy()
    k.flat[:: manifold.r + 1] += x.s
    try:
        k_inv = np.linalg.inv(k)
        left = x.u + xi.u_p @ k_inv
        right = x.v + xi.v_p @ k_inv.T
        chol = np.linalg.cholesky(np.array((left.T @ left, right.T @ right)))
        w, s_new, zt = np.linalg.svd(chol[0].T @ k @ chol[1])
        rot = np.linalg.solve(chol.transpose(0, 2, 1), np.array((w, zt.T)))
    except np.linalg.LinAlgError:  # K or a factor is singular
        raise RankDeficiencyError("retraction dropped rank") from None
    if not s_new[-1] > SV_RANK_TOL:
        raise RankDeficiencyError("retraction dropped rank")
    u_new, v_new = left @ rot[0], right @ rot[1]
    # s_new is checked above, so skip fixed_rank_point_from_factors' checks
    return Point(
        ambient=_readonly((u_new * s_new) @ v_new.T), u=_readonly(u_new), s=_readonly(s_new), v=_readonly(v_new)
    )


def retract(manifold: Manifold, x: Point, xi) -> Point:
    """Map a tangent vector (dense, or a ``FixedRankTangent`` at x) back onto
    the manifold.

    Sphere: exact exponential map.  Fixed rank, min(m, n) <= 50: metric
    projection, the rank-r truncated SVD of x + xi.  Fixed rank, larger:
    orthographic retraction from the factors of xi, which agrees with the
    metric projection to third order in xi and costs O((m + n) r^2) plus
    one r x r SVD.  Both raise RankDeficiencyError where the result would
    drop below rank r.
    """
    if isinstance(xi, FixedRankTangent):
        if xi.x is not x:
            raise ValueError("tangent vector belongs to another point")
    else:
        xi = _check_shape(manifold, xi)
    if isinstance(manifold, Sphere):
        return Point(ambient=_readonly(_sphere_exp(x.ambient, xi)))
    return _fixed_rank_retract(manifold, x, xi)


def bb_pair(x: Point, x_new: Point, grad, grad_new, t: float, gn: float, gn_new: float):
    """The Barzilai-Borwein triple (|s|^2, <s, y>, |y|^2) of the step
    x_new = R_x(-t grad), given gn = |grad| and gn_new = |grad_new|.

    Fixed rank: the tangent step s = -t grad and the ambient difference
    y = grad_new - grad, left untransported (Iannazzo & Porcelli, IMA J.
    Numer. Anal. 2018).  Since s is tangent at x, <s, y> is the same as with
    y = P_x(grad_new) - grad.  Only <grad, grad_new> is formed, from the
    factors in O((m + n) r^2); |s|^2 and |y|^2 then follow from the two
    norms.  Sphere: the secant s = x_new - x and y = grad_new - grad, whose
    |y|^2 is one more dot product; the norms are not used.
    """
    if isinstance(grad, FixedRankTangent):
        (left, right), (left_new, right_new) = grad.factors(), grad_new.factors()
        gg = gn**2
        g_gnew = float(((left.T @ left_new) * (right.T @ right_new)).sum())
        return t * t * gg, t * (gg - g_gnew), gn_new**2 - 2.0 * g_gnew + gg
    s_vec = x_new.ambient - x.ambient
    y_vec = np.asarray(grad_new) - np.asarray(grad)
    return float((s_vec * s_vec).sum()), float((s_vec * y_vec).sum()), float(y_vec @ y_vec)


def distance(manifold: Manifold, x: Point, y: Point) -> float:
    """Geodesic distance on the sphere; ambient Frobenius surrogate on fixed rank."""
    if isinstance(manifold, Sphere):
        c = float(np.clip(x.ambient @ y.ambient, -1.0, 1.0))
        return float(np.arccos(c))
    return norm(x.ambient - y.ambient)


def random_point(manifold: Manifold, seed) -> Point:
    """Deterministic random feasible point (seed may be an int or Generator)."""
    rng = np.random.default_rng(seed)
    if isinstance(manifold, Sphere):
        v = rng.standard_normal(manifold.n)
        return Point(ambient=_readonly(v / norm(v)))
    m, n, r = manifold.m, manifold.n, manifold.r
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    s = np.sort(rng.uniform(1.0, 2.0, size=r))[::-1]
    return fixed_rank_point_from_factors(u, s, v)


def tangent_basis(manifold: Manifold, x: Point) -> np.ndarray:
    """Orthonormal basis of T_x M in ambient coordinates (analysis-scale only),
    as one array of shape (dim, *ambient_shape)."""
    if isinstance(manifold, Sphere):
        n = manifold.n
        full, _ = np.linalg.qr(np.column_stack([x.ambient, np.eye(n)[:, : n - 1]]), mode="complete")
        # first column spans x up to sign; the rest, projected, span the tangent space
        return (full[:, 1:] - np.outer(x.ambient, x.ambient @ full[:, 1:])).T
    m, n, r = manifold.m, manifold.n, manifold.r
    u, v = x.u, x.v
    u_full, _ = np.linalg.qr(u, mode="complete")
    v_full, _ = np.linalg.qr(v, mode="complete")
    # qr may flip signs of the leading columns; only the complements matter
    u_perp = u_full[:, r:]
    v_perp = v_full[:, r:]
    # outer products u_i v_j^T, then u_perp_a v_j^T, then u_i v_perp_b^T, each
    # block in row-major order of its two indices
    blocks = (
        np.einsum("mi,nj->ijmn", u, v),
        np.einsum("ma,nj->ajmn", u_perp, v),
        np.einsum("mi,nb->ibmn", u, v_perp),
    )
    return np.concatenate([blk.reshape(-1, m, n) for blk in blocks])
